// Minimal command-line flag parsing for the bench harnesses and examples.
//
// Supports `--key=value` and bare `--switch` forms; anything else is a
// positional argument. No registration step — callers query by name with a
// default, which keeps one-file tools one file.
#ifndef SRC_COMMON_FLAGS_H_
#define SRC_COMMON_FLAGS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace zeppelin {

class Flags {
 public:
  Flags(int argc, char** argv);

  // --key=value lookup; returns `fallback` when absent.
  std::string GetString(const std::string& key, const std::string& fallback) const;
  int64_t GetInt(const std::string& key, int64_t fallback) const;
  double GetDouble(const std::string& key, double fallback) const;
  // True for `--key` or `--key=true|1|yes`.
  bool GetBool(const std::string& key, bool fallback = false) const;

  bool Has(const std::string& key) const;

  const std::vector<std::string>& positional() const { return positional_; }

  // Flags that were never queried — typo detection for tools that call this
  // after reading everything they understand.
  std::vector<std::string> UnusedFlags() const;

 private:
  struct Entry {
    std::string key;
    std::string value;
    bool has_value;
    mutable bool used;
  };
  const Entry* Find(const std::string& key) const;

  std::vector<Entry> entries_;
  std::vector<std::string> positional_;
};

}  // namespace zeppelin

#endif  // SRC_COMMON_FLAGS_H_
