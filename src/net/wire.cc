#include "src/net/wire.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>

#include "src/common/check.h"
#include "src/common/le_codec.h"

namespace zeppelin {
namespace net {
namespace {

using namespace le_codec;

// Largest value accepted for any token count crossing the wire; keeps every
// downstream int64 sum far from overflow (kMaxWireSeqs * this < 2^63).
constexpr uint64_t kMaxWireTokens = uint64_t{1} << 56;
constexpr uint32_t kMaxMessageBytes = 4096;

// Bit 0 once told the hierarchical layout from the global-ring ablation,
// which the service no longer plans: every request sets it, and one that
// clears it is malformed. Bits 2 and 3 once selected the naive and serial
// engines; a request that sets them (or any higher bit) is malformed.
constexpr uint8_t kOptHierarchical = 1u << 0;
constexpr uint8_t kOptZoneAware = 1u << 1;
constexpr uint8_t kOptKnownMask = kOptHierarchical | kOptZoneAware;

WireStatus Malformed(std::string* error, const char* what) {
  if (error != nullptr) {
    *error = what;
  }
  return WireStatus::kMalformedRequest;
}

// Bulk-reads `n` u64 lengths (Have(8n) checked by the caller), then checks
// them in one pass: false if any is above kMaxWireSeqLen.
bool GetLengths(Reader& in, uint32_t n, std::vector<int64_t>* out) {
  out->resize(n);
  in.GetArray(std::span<int64_t>(*out));
  for (const int64_t len : *out) {
    if (static_cast<uint64_t>(len) > static_cast<uint64_t>(kMaxWireSeqLen)) {
      return false;
    }
  }
  return true;
}

// Bulk-reads `n` u32 slot or rank ids (Have(4n) checked by the caller), then
// checks them in one pass: false if any is above INT32_MAX.
bool GetIds(Reader& in, uint32_t n, std::vector<int>* out) {
  out->resize(n);
  in.GetArray(std::span<int>(*out));
  for (const int id : *out) {
    if (static_cast<uint32_t>(id) > static_cast<uint32_t>(INT32_MAX)) {
      return false;
    }
  }
  return true;
}

// The exact number of bytes WriteRequest writes for `request`.
size_t RequestPayloadSize(const WireRequest& request) {
  size_t size = 4 + 1 + 8 + 4 + 4 + request.stream_id.size() + 1 + 8 + 8 + 4 +
                8 * request.batch.seq_lens.size() + 1 + 1;
  if (request.delta.has_value()) {
    const BatchDelta& d = *request.delta;
    size += 4 + 4 * d.removed.size() + 4 + 12 * d.resized.size() + 4 + 8 * d.added.size();
  }
  if (request.topology.has_value()) {
    const TopologyDelta& t = *request.topology;
    size += 4 + 4 * t.removed_ranks.size() + 4 + 4 * t.added_ranks.size() + 4 +
            12 * t.speed_factors.size();
  }
  return size;
}

void WriteRequest(const WireRequest& request, Writer& w) {
  w.U32(kWireVersion);
  w.U8(static_cast<uint8_t>(request.kind));
  w.U64(request.request_id);
  w.U32(request.deadline_ms);
  w.U32(static_cast<uint32_t>(request.stream_id.size()));
  w.Bytes(request.stream_id.data(), request.stream_id.size());

  uint8_t flags = kOptHierarchical;
  if (request.options.zone_aware_thresholds) flags |= kOptZoneAware;
  w.U8(flags);
  w.U64(static_cast<uint64_t>(request.options.token_capacity));
  w.F64(request.options.delta_replan_threshold);

  w.U32(static_cast<uint32_t>(request.batch.seq_lens.size()));
  w.Array(std::span<const int64_t>(request.batch.seq_lens));

  w.U8(request.delta.has_value() ? 1 : 0);
  if (request.delta.has_value()) {
    const BatchDelta& d = *request.delta;
    w.U32(static_cast<uint32_t>(d.removed.size()));
    w.Array(std::span<const int>(d.removed));
    w.U32(static_cast<uint32_t>(d.resized.size()));
    for (const auto& [slot, len] : d.resized) {
      w.I32(slot);
      w.I64(len);
    }
    w.U32(static_cast<uint32_t>(d.added.size()));
    w.Array(std::span<const int64_t>(d.added));
  }

  w.U8(request.topology.has_value() ? 1 : 0);
  if (request.topology.has_value()) {
    const TopologyDelta& t = *request.topology;
    w.U32(static_cast<uint32_t>(t.removed_ranks.size()));
    w.Array(std::span<const int>(t.removed_ranks));
    w.U32(static_cast<uint32_t>(t.added_ranks.size()));
    w.Array(std::span<const int>(t.added_ranks));
    w.U32(static_cast<uint32_t>(t.speed_factors.size()));
    for (const auto& [rank, factor] : t.speed_factors) {
      w.I32(rank);
      w.F64(factor);
    }
  }
}

// A kOk response's stage block: the stage count, then one f64 per stage.
constexpr size_t kStageBlockBytes = 1 + 8 * obs::kNumStages;

uint32_t MessageBytes(const WireResponse& response) {
  return static_cast<uint32_t>(std::min<size_t>(response.message.size(), kMaxMessageBytes));
}

uint32_t StatsJsonBytes(const WireResponse& response) {
  return static_cast<uint32_t>(
      std::min<size_t>(response.stats_json.size(), kMaxWireStatsJsonBytes));
}

// The exact number of bytes WriteResponseHead writes for `response`.
size_t ResponseHeadSize(const WireResponse& response) {
  const size_t head = 4 + 8 + 1 + 4 + MessageBytes(response);
  if (response.status != WireStatus::kOk) {
    return head;
  }
  return head + 1 + 8 + 8 + 1 + 8 + 8 + 1 + 1 + 8 + 8 + 8;
}

// Writes the response payload through the plan section's length: all of it
// for an error response.
void WriteResponseHead(const WireResponse& response, size_t plan_size, Writer& w) {
  w.U32(kWireVersion);
  w.U64(response.request_id);
  w.U8(static_cast<uint8_t>(response.status));
  const uint32_t msg_len = MessageBytes(response);
  w.U32(msg_len);
  w.Bytes(response.message.data(), msg_len);
  if (response.status != WireStatus::kOk) {
    return;
  }
  w.U8(static_cast<uint8_t>(response.stats.engine));
  w.F64(response.stats.partition_time_us);
  w.F64(response.stats.materialize_time_us);
  w.U8(static_cast<uint8_t>(response.stats.delta_outcome));
  w.U64(static_cast<uint64_t>(response.stats.token_capacity));
  w.U64(response.stats.session_count);
  // Cache disposition + certification marker. The cumulative cache
  // counters deliberately stay off the wire — repeated identical requests
  // must yield byte-identical responses (the cache-hit contract).
  w.U8(static_cast<uint8_t>(response.stats.cache_outcome));
  w.U8(response.stats.verified ? 1 : 0);
  w.F64(response.queue_wait_us);
  w.U64(response.digest);
  w.U64(plan_size);
}

// The bytes of a kOk response after its plan section.
size_t ResponseTailSize(const WireResponse& response) {
  return kStageBlockBytes + 4 + StatsJsonBytes(response);
}

// Writes a kOk response's payload after the plan section: the per-stage
// latency block (bounds-checked on parse exactly like cache_outcome) and the
// stats-JSON section (kStats responses only).
void WriteResponseTail(const WireResponse& response, Writer& w) {
  w.U8(static_cast<uint8_t>(obs::kNumStages));
  for (const double stage : response.stats.stage_us) {
    w.F64(stage);
  }
  const uint32_t stats_len = StatsJsonBytes(response);
  w.U32(stats_len);
  w.Bytes(response.stats_json.data(), stats_len);
}

// The exact number of bytes WriteResponse writes for `response` with a
// `plan_size`-byte plan section.
size_t ResponsePayloadSize(const WireResponse& response, size_t plan_size) {
  if (response.status != WireStatus::kOk) {
    return ResponseHeadSize(response);
  }
  return ResponseHeadSize(response) + plan_size + ResponseTailSize(response);
}

// Writes the response payload, its plan section response.plan_bytes.
void WriteResponse(const WireResponse& response, Writer& w) {
  const size_t plan_size = response.plan_bytes.size();
  WriteResponseHead(response, plan_size, w);
  if (response.status != WireStatus::kOk) {
    return;
  }
  w.Bytes(response.plan_bytes.data(), plan_size);
  WriteResponseTail(response, w);
}

}  // namespace

const char* WireStatusName(WireStatus status) {
  switch (status) {
    case WireStatus::kOk:
      return "ok";
    case WireStatus::kMalformedFrame:
      return "malformed-frame";
    case WireStatus::kOversizedFrame:
      return "oversized-frame";
    case WireStatus::kMalformedRequest:
      return "malformed-request";
    case WireStatus::kBadRequest:
      return "bad-request";
    case WireStatus::kBadDelta:
      return "bad-delta";
    case WireStatus::kOverloaded:
      return "overloaded";
    case WireStatus::kDeadlineExceeded:
      return "deadline-exceeded";
    case WireStatus::kShuttingDown:
      return "shutting-down";
    case WireStatus::kPlanRejected:
      return "plan-rejected";
    case WireStatus::kTransport:
      return "transport";
    case WireStatus::kInternal:
      return "internal";
  }
  return "unknown";
}

std::string EncodeRequest(const WireRequest& request) {
  std::string out(RequestPayloadSize(request), '\0');
  Writer w(out.data());
  WriteRequest(request, w);
  return out;
}

WireStatus ParseRequest(std::string_view payload, WireRequest* request,
                        std::string* error) {
  *request = WireRequest{};
  Reader in(payload);

  if (!in.Have(4 + 1 + 8 + 4 + 4)) {
    return Malformed(error, "request truncated before the fixed header");
  }
  const uint32_t version = in.GetU32();
  if (version != kWireVersion) {
    return Malformed(error, "unknown request version");
  }
  const uint8_t kind = in.GetU8();
  if (kind != static_cast<uint8_t>(RequestKind::kPlan) &&
      kind != static_cast<uint8_t>(RequestKind::kCloseSession) &&
      kind != static_cast<uint8_t>(RequestKind::kPing) &&
      kind != static_cast<uint8_t>(RequestKind::kStats)) {
    return Malformed(error, "unknown request kind");
  }
  request->kind = static_cast<RequestKind>(kind);
  request->request_id = in.GetU64();
  request->deadline_ms = in.GetU32();

  const uint32_t id_len = in.GetU32();
  if (id_len > kMaxStreamIdBytes) {
    return Malformed(error, "stream id too long");
  }
  if (!in.Have(id_len)) {
    return Malformed(error, "request truncated inside the stream id");
  }
  request->stream_id.assign(in.GetBytes(id_len));

  if (!in.Have(1 + 8 + 8)) {
    return Malformed(error, "request truncated before the options");
  }
  const uint8_t flags = in.GetU8();
  if ((flags & ~kOptKnownMask) != 0) {
    return Malformed(error, "unknown option flag bits");
  }
  if ((flags & kOptHierarchical) == 0) {
    return Malformed(error, "retired global-ring layout requested");
  }
  request->options.zone_aware_thresholds = (flags & kOptZoneAware) != 0;
  const uint64_t capacity = in.GetU64();
  // Tighter than the response-side cap: a *requested* per-device capacity
  // above the max sequence length is meaningless and would let capacity
  // products overflow downstream.
  if (capacity > static_cast<uint64_t>(kMaxWireSeqLen)) {
    return Malformed(error, "token capacity out of range");
  }
  request->options.token_capacity = static_cast<int64_t>(capacity);
  request->options.delta_replan_threshold = in.GetF64();

  if (!in.Have(4)) {
    return Malformed(error, "request truncated before the batch");
  }
  const uint32_t num_seqs = in.GetU32();
  if (num_seqs > kMaxWireSeqs) {
    return Malformed(error, "batch sequence count out of range");
  }
  if (!in.Have(size_t{num_seqs} * 8)) {
    return Malformed(error, "request truncated inside the batch");
  }
  if (!GetLengths(in, num_seqs, &request->batch.seq_lens)) {
    return Malformed(error, "sequence length out of range");
  }

  if (!in.Have(1)) {
    return Malformed(error, "request truncated before the delta marker");
  }
  const uint8_t has_delta = in.GetU8();
  if (has_delta > 1) {
    return Malformed(error, "bad delta marker");
  }
  if (has_delta == 1) {
    BatchDelta delta;
    if (!in.Have(4)) {
      return Malformed(error, "request truncated inside the delta");
    }
    const uint32_t removed_n = in.GetU32();
    if (removed_n > kMaxWireDeltaEntries || !in.Have(size_t{removed_n} * 4)) {
      return Malformed(error, "delta removed section out of range");
    }
    if (!GetIds(in, removed_n, &delta.removed)) {
      return Malformed(error, "delta slot out of range");
    }
    if (!in.Have(4)) {
      return Malformed(error, "request truncated inside the delta");
    }
    const uint32_t resized_n = in.GetU32();
    if (resized_n > kMaxWireDeltaEntries || !in.Have(size_t{resized_n} * 12)) {
      return Malformed(error, "delta resized section out of range");
    }
    delta.resized.reserve(resized_n);
    for (uint32_t i = 0; i < resized_n; ++i) {
      const uint32_t slot = in.GetU32();
      const uint64_t len = in.GetU64();
      if (slot > static_cast<uint32_t>(INT32_MAX) ||
          len > static_cast<uint64_t>(kMaxWireSeqLen)) {
        return Malformed(error, "delta resize entry out of range");
      }
      delta.resized.emplace_back(static_cast<int>(slot), static_cast<int64_t>(len));
    }
    if (!in.Have(4)) {
      return Malformed(error, "request truncated inside the delta");
    }
    const uint32_t added_n = in.GetU32();
    if (added_n > kMaxWireDeltaEntries || !in.Have(size_t{added_n} * 8)) {
      return Malformed(error, "delta added section out of range");
    }
    if (!GetLengths(in, added_n, &delta.added)) {
      return Malformed(error, "delta added length out of range");
    }
    request->delta = std::move(delta);
  }

  if (!in.Have(1)) {
    return Malformed(error, "request truncated before the topology marker");
  }
  const uint8_t has_topology = in.GetU8();
  if (has_topology > 1) {
    return Malformed(error, "bad topology marker");
  }
  if (has_topology == 1) {
    TopologyDelta topo;
    auto read_ranks = [&](std::vector<int>* out) {
      if (!in.Have(4)) {
        return false;
      }
      const uint32_t n = in.GetU32();
      if (n > kMaxWireTopoEntries || !in.Have(size_t{n} * 4)) {
        return false;
      }
      return GetIds(in, n, out);
    };
    if (!read_ranks(&topo.removed_ranks) || !read_ranks(&topo.added_ranks)) {
      return Malformed(error, "topology rank section out of range");
    }
    if (!in.Have(4)) {
      return Malformed(error, "request truncated inside the topology");
    }
    const uint32_t speeds_n = in.GetU32();
    if (speeds_n > kMaxWireTopoEntries || !in.Have(size_t{speeds_n} * 12)) {
      return Malformed(error, "topology speed section out of range");
    }
    topo.speed_factors.reserve(speeds_n);
    for (uint32_t i = 0; i < speeds_n; ++i) {
      const uint32_t rank = in.GetU32();
      if (rank > static_cast<uint32_t>(INT32_MAX)) {
        return Malformed(error, "topology speed rank out of range");
      }
      topo.speed_factors.emplace_back(static_cast<int>(rank), in.GetF64());
    }
    request->topology = std::move(topo);
  }

  if (in.remaining() != 0) {
    return Malformed(error, "trailing bytes after the request");
  }
  return WireStatus::kOk;
}

std::string EncodeResponse(const WireResponse& response) {
  std::string out(ResponsePayloadSize(response, response.plan_bytes.size()), '\0');
  Writer w(out.data());
  WriteResponse(response, w);
  return out;
}

void AppendRequestFrame(const WireRequest& request, std::string* out) {
  const size_t size = RequestPayloadSize(request);
  Writer w(AppendFrameHeader(FrameType::kRequest, size, out));
  WriteRequest(request, w);
}

void AppendResponseFrame(const WireResponse& response, std::string* out) {
  const size_t size = ResponsePayloadSize(response, response.plan_bytes.size());
  Writer w(AppendFrameHeader(
      response.status == WireStatus::kOk ? FrameType::kResponse : FrameType::kError, size,
      out));
  WriteResponse(response, w);
}

size_t FrameResponseAroundImage(const WireResponse& response, size_t image_size,
                                std::string* head, std::string* tail) {
  ZCHECK(response.status == WireStatus::kOk) << "only a kOk response carries a plan image";
  const size_t payload = ResponsePayloadSize(response, image_size);
  size_t at = head->size();
  head->resize(at + kFrameHeaderBytes + ResponseHeadSize(response));
  WriteFrameHeader(FrameType::kResponse, payload, head->data() + at);
  Writer h(head->data() + at + kFrameHeaderBytes);
  WriteResponseHead(response, image_size, h);
  at = tail->size();
  tail->resize(at + ResponseTailSize(response));
  Writer t(tail->data() + at);
  WriteResponseTail(response, t);
  return payload;
}

WireStatus ParseResponse(FrameType type, std::string_view payload,
                         WireResponse* response, std::string* error) {
  *response = WireResponse{};
  Reader in(payload);
  if (!in.Have(4 + 8 + 1 + 4)) {
    return Malformed(error, "response truncated before the fixed header");
  }
  const uint32_t version = in.GetU32();
  if (version != kWireVersion) {
    return Malformed(error, "unknown response version");
  }
  response->request_id = in.GetU64();
  const uint8_t status = in.GetU8();
  if (status > static_cast<uint8_t>(WireStatus::kInternal)) {
    return Malformed(error, "unknown response status");
  }
  response->status = static_cast<WireStatus>(status);
  const uint32_t msg_len = in.GetU32();
  if (msg_len > kMaxMessageBytes || !in.Have(msg_len)) {
    return Malformed(error, "response truncated inside the message");
  }
  response->message.assign(in.GetBytes(msg_len));

  // Error responses carry a success marker mismatch: kOk on the frame type
  // kError (or vice versa) is a protocol violation the caller detects.
  const bool is_error_frame = type == FrameType::kError;
  if (is_error_frame != (response->status != WireStatus::kOk)) {
    return Malformed(error, "frame type disagrees with the response status");
  }
  if (response->status != WireStatus::kOk) {
    if (in.remaining() != 0) {
      return Malformed(error, "trailing bytes after the error response");
    }
    return WireStatus::kOk;
  }

  if (!in.Have(1 + 8 + 8 + 1 + 8 + 8 + 1 + 1 + 8 + 8 + 8)) {
    return Malformed(error, "response truncated inside the stats");
  }
  const uint8_t engine = in.GetU8();
  if (engine != static_cast<uint8_t>(PlanEngine::kParallelSharded) &&
      engine != static_cast<uint8_t>(PlanEngine::kDeltaPatch) &&
      engine != static_cast<uint8_t>(PlanEngine::kAdopted)) {
    return Malformed(error, "unknown plan engine");
  }
  response->stats.engine = static_cast<PlanEngine>(engine);
  response->stats.partition_time_us = in.GetF64();
  response->stats.materialize_time_us = in.GetF64();
  const uint8_t outcome = in.GetU8();
  if (outcome > static_cast<uint8_t>(DeltaOutcome::kRebasedMigration)) {
    return Malformed(error, "unknown delta outcome");
  }
  response->stats.delta_outcome = static_cast<DeltaOutcome>(outcome);
  const uint64_t capacity = in.GetU64();
  if (capacity > kMaxWireTokens) {
    return Malformed(error, "token capacity out of range");
  }
  response->stats.token_capacity = static_cast<int64_t>(capacity);
  response->stats.session_count = in.GetU64();
  const uint8_t cache_outcome = in.GetU8();
  if (cache_outcome > static_cast<uint8_t>(CacheOutcome::kHit)) {
    return Malformed(error, "unknown cache outcome");
  }
  response->stats.cache_outcome = static_cast<CacheOutcome>(cache_outcome);
  const uint8_t verified = in.GetU8();
  if (verified > 1) {
    return Malformed(error, "bad verified marker");
  }
  response->stats.verified = verified == 1;
  response->queue_wait_us = in.GetF64();
  response->digest = in.GetU64();
  const uint64_t plan_len = in.GetU64();
  if (!in.Have(plan_len)) {
    return Malformed(error, "response truncated inside the plan bytes");
  }
  response->plan_bytes.assign(in.GetBytes(static_cast<size_t>(plan_len)));

  // Stage block: bounds-checked like cache_outcome — a count over the
  // cap or a non-finite/negative latency is a malformed response, never a
  // silently-poisoned stat. Stages beyond obs::kNumStages (a future
  // daemon) are validated and dropped.
  if (!in.Have(1)) {
    return Malformed(error, "response truncated before the stage block");
  }
  const uint8_t stage_count = in.GetU8();
  if (stage_count > kMaxWireStages) {
    return Malformed(error, "stage count out of range");
  }
  if (!in.Have(size_t{stage_count} * 8)) {
    return Malformed(error, "response truncated inside the stage block");
  }
  for (uint8_t i = 0; i < stage_count; ++i) {
    const double stage_us = in.GetF64();
    if (!std::isfinite(stage_us) || stage_us < 0) {
      return Malformed(error, "stage latency out of range");
    }
    if (i < static_cast<uint8_t>(obs::kNumStages)) {
      response->stats.stage_us[i] = stage_us;
    }
  }
  if (!in.Have(4)) {
    return Malformed(error, "response truncated before the stats json");
  }
  const uint32_t stats_len = in.GetU32();
  if (stats_len > kMaxWireStatsJsonBytes || !in.Have(stats_len)) {
    return Malformed(error, "stats json section out of range");
  }
  response->stats_json.assign(in.GetBytes(stats_len));

  if (in.remaining() != 0) {
    return Malformed(error, "trailing bytes after the response");
  }
  return WireStatus::kOk;
}

}  // namespace net
}  // namespace zeppelin
