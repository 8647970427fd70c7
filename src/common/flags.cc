#include "src/common/flags.h"

#include <cstdlib>

namespace zeppelin {

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    const size_t eq = body.find('=');
    Entry entry;
    entry.used = false;
    if (eq == std::string::npos) {
      entry.key = body;
      entry.has_value = false;
    } else {
      entry.key = body.substr(0, eq);
      entry.value = body.substr(eq + 1);
      entry.has_value = true;
    }
    entries_.push_back(std::move(entry));
  }
}

const Flags::Entry* Flags::Find(const std::string& key) const {
  // Last occurrence wins, mirroring common CLI conventions.
  const Entry* found = nullptr;
  for (const Entry& e : entries_) {
    if (e.key == key) {
      e.used = true;
      found = &e;
    }
  }
  return found;
}

std::string Flags::GetString(const std::string& key, const std::string& fallback) const {
  const Entry* e = Find(key);
  if (e == nullptr || !e->has_value) {
    return fallback;
  }
  return e->value;
}

int64_t Flags::GetInt(const std::string& key, int64_t fallback) const {
  const Entry* e = Find(key);
  if (e == nullptr || !e->has_value) {
    return fallback;
  }
  return std::strtoll(e->value.c_str(), nullptr, 10);
}

double Flags::GetDouble(const std::string& key, double fallback) const {
  const Entry* e = Find(key);
  if (e == nullptr || !e->has_value) {
    return fallback;
  }
  return std::strtod(e->value.c_str(), nullptr);
}

bool Flags::GetBool(const std::string& key, bool fallback) const {
  const Entry* e = Find(key);
  if (e == nullptr) {
    return fallback;
  }
  if (!e->has_value) {
    return true;  // Bare --switch.
  }
  return e->value == "true" || e->value == "1" || e->value == "yes";
}

bool Flags::Has(const std::string& key) const { return Find(key) != nullptr; }

std::vector<std::string> Flags::UnusedFlags() const {
  std::vector<std::string> out;
  for (const Entry& e : entries_) {
    if (!e.used) {
      out.push_back(e.key);
    }
  }
  return out;
}

}  // namespace zeppelin
