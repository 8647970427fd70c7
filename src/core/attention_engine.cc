#include "src/core/attention_engine.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/core/chunking.h"

namespace zeppelin {

AttentionEngine::AttentionEngine(const CostModel& cost_model, const FabricResources& fabric,
                                 const RoutingLayer& routing, AttentionEngineOptions options)
    : cost_model_(&cost_model), fabric_(&fabric), routing_(&routing), options_(options) {}

namespace {

double DirectionScale(Direction direction) {
  return direction == Direction::kBackward ? kBackwardMultiplier : 1.0;
}

}  // namespace

void AttentionEngine::EmitRingSequence(TaskGraph& graph, const RingView& ring,
                                       Direction direction, RankDeps deps, LabelArg label,
                                       RankTaskLists* last_task_per_rank) const {
  const int g = ring.group_size();
  ZCHECK_GT(g, 1) << "rings of size 1 are local sequences";
  const TaskLabel base = graph.Resolve(label);
  const double scale = DirectionScale(direction);
  const ChunkScheme scheme = options_.chunk_scheme;
  // For the range-based schemes the assignment is materialized once into the
  // recycled scratch; the striped scheme is closed-form and needs no
  // per-ring state.
  std::vector<ChunkPair>& assignment = chunk_scratch_;
  if (scheme == ChunkScheme::kBalancedPairs) {
    BalancedChunkAssignmentInto(ring.length, g, &assignment);
  } else if (scheme == ChunkScheme::kContiguous) {
    ContiguousChunkAssignmentInto(ring.length, g, &assignment);
  }
  auto round_flops = [&](int k, int r) {
    if (scheme == ChunkScheme::kStriped) {
      return StripedRoundFlops(*cost_model_, ring.length, g, k, r);
    }
    return RingRoundFlops(*cost_model_, assignment, ring.length, k, r);
  };
  auto tokens_at = [&](int k) {
    if (scheme == ChunkScheme::kStriped) {
      return StripedTokens(ring.length, g, k);
    }
    return assignment[k].tokens();
  };
  const int64_t kv_bytes_per_token = cost_model_->KvBytesPerToken();

  // recv[k]: arrival of the KV block rank k uses in the *next* round.
  std::vector<TaskId>& recv = recv_scratch_;
  std::vector<TaskId>& next_recv = next_recv_scratch_;
  recv.assign(g, kInvalidTask);
  for (int r = 0; r < g; ++r) {
    // Sends for round r+1 are issued first: ring attention overlaps the
    // forwarding of the currently held KV with computation on it.
    next_recv.assign(g, kInvalidTask);
    if (r < g - 1) {
      for (int k = 0; k < g; ++k) {
        const int next = (k + 1) % g;
        const int held_owner = ((k - r) % g + g) % g;
        const int64_t bytes = static_cast<int64_t>(
            static_cast<double>(tokens_at(held_owner) * kv_bytes_per_token) * scale);
        const DepSpan send_deps = r == 0 ? DepSpan(deps[ring.ranks[k]]) : DepSpan(&recv[k], 1);
        next_recv[next] = routing_->EmitTransfer(graph, ring.ranks[k], ring.ranks[next], bytes,
                                                 send_deps, base.Then(LabelSuffix::kKv, r, k));
      }
    }
    for (int k = 0; k < g; ++k) {
      const double flops = round_flops(k, r) * scale;
      const DepSpan compute_deps =
          r == 0 ? DepSpan(deps[ring.ranks[k]]) : DepSpan(&recv[k], 1);
      const TaskId compute = graph.AddCompute(
          fabric_->ComputeLane(ring.ranks[k]), cost_model_->ComputeTime(flops),
          TaskCategory::kAttentionCompute, compute_deps,
          base.Then(LabelSuffix::kAttnRound, r, k), ring.ranks[k]);
      if (r == g - 1) {
        last_task_per_rank->Add(ring.ranks[k], compute);
      }
    }
    recv.swap(next_recv);
  }
}

void AttentionEngine::EmitLocals(TaskGraph& graph, const std::vector<LocalSequence>& locals,
                                 Direction direction, RankDeps deps, TaskLabel label,
                                 RankTaskLists* last_task_per_rank) const {
  const int world = fabric_->cluster().world_size();
  const double scale = DirectionScale(direction);
  // All local sequences of a rank execute as one variable-length kernel.
  std::vector<double> flops_per_rank(world, 0.0);
  std::vector<int> count_per_rank(world, 0);
  for (const auto& seq : locals) {
    ZCHECK(seq.rank >= 0 && seq.rank < world) << "rank=" << seq.rank;
    flops_per_rank[seq.rank] += cost_model_->CausalAttentionFlops(seq.length) * scale;
    ++count_per_rank[seq.rank];
  }
  for (int rank = 0; rank < world; ++rank) {
    if (count_per_rank[rank] == 0) {
      continue;
    }
    const TaskId t = graph.AddCompute(
        fabric_->ComputeLane(rank), cost_model_->ComputeTime(flops_per_rank[rank]),
        TaskCategory::kAttentionCompute, deps[rank],
        label.Then(LabelSuffix::kLocalVarlen, count_per_rank[rank]), rank);
    last_task_per_rank->Add(rank, t);
  }
}

QueueOrder AttentionEngine::OrderFor(Direction direction) const {
  if (direction == Direction::kForward) {
    return options_.forward_order;
  }
  return options_.forward_order == QueueOrder::kInterIntraLocal ? QueueOrder::kLocalIntraInter
                                                                : QueueOrder::kInterIntraLocal;
}

std::vector<TaskId> AttentionEngine::Emit(TaskGraph& graph, const PartitionPlan& plan,
                                          Direction direction, RankDeps deps,
                                          LabelArg label) const {
  const int world = fabric_->cluster().world_size();
  const TaskLabel base = graph.Resolve(label);

  const QueueOrder order = OrderFor(direction);

  // `gate[r]` carries the dependency frontier of rank r through the three
  // queue phases: each phase's first tasks wait on the previous phase's last
  // tasks on that rank, which is exactly the §3.2 queue ordering (a device
  // starts its intra-node queue only after its inter-node queue drains).
  // After the first phase the gate lives in one of two CSR buffers, written
  // alternately so the next gate never overwrites the one it is built from.
  RankDeps gate = deps;
  std::vector<int32_t> gate_offsets[2];
  std::vector<TaskId> gate_ids[2];
  int next_buffer = 0;
  RankTaskLists phase_last;

  auto advance = [&] {
    phase_last.Seal();
    std::vector<int32_t>& offsets = gate_offsets[next_buffer];
    std::vector<TaskId>& ids = gate_ids[next_buffer];
    offsets.assign(1, 0);
    ids.clear();
    for (int r = 0; r < world; ++r) {
      const std::span<const TaskId> last = phase_last[r];
      const std::span<const TaskId> frontier = last.empty() ? gate[r] : last;
      ids.insert(ids.end(), frontier.begin(), frontier.end());
      offsets.push_back(static_cast<int32_t>(ids.size()));
    }
    gate = RankDeps::Csr(offsets, ids);
    next_buffer ^= 1;
  };

  auto emit_rings = [&](const std::vector<RingRef>& refs, LabelSuffix zone) {
    phase_last.Reset(world);
    for (RingView ring : plan.rings(refs)) {
      EmitRingSequence(graph, ring, direction, gate, base.Then(zone, ring.seq_id), &phase_last);
    }
    advance();
  };
  auto emit_local = [&] {
    phase_last.Reset(world);
    EmitLocals(graph, plan.local, direction, gate, base, &phase_last);
    advance();
  };

  if (order == QueueOrder::kInterIntraLocal) {
    emit_rings(plan.inter_node, LabelSuffix::kInterRing);
    emit_rings(plan.intra_node, LabelSuffix::kIntraRing);
    emit_local();
  } else {
    emit_local();
    emit_rings(plan.intra_node, LabelSuffix::kIntraRing);
    emit_rings(plan.inter_node, LabelSuffix::kInterRing);
  }

  std::vector<TaskId> done(world);
  for (int r = 0; r < world; ++r) {
    done[r] = graph.AddBarrier(gate[r], base.Then(LabelSuffix::kAttnDone, r));
  }
  return done;
}

GraphSize AttentionEngine::EmitBound(const PartitionPlan& plan, Direction direction,
                                     int64_t deps_per_rank) const {
  const int world = fabric_->cluster().world_size();
  // gate[r] is the length of rank r's dependency frontier, as Emit carries
  // it through the phases; phase[r] counts the phase's last tasks on r.
  std::vector<int64_t> gate(world, deps_per_rank);
  std::vector<int64_t> phase(world);
  GraphSize size;
  auto advance = [&] {
    for (int r = 0; r < world; ++r) {
      if (phase[r] > 0) {
        gate[r] = phase[r];
      }
    }
  };
  auto rings = [&](const std::vector<RingRef>& refs) {
    std::fill(phase.begin(), phase.end(), 0);
    for (RingView ring : plan.rings(refs)) {
      const int g = ring.group_size();
      for (int k = 0; k < g; ++k) {
        const int rank = ring.ranks[k];
        // g computes and g - 1 sends from this rank, the first of each gated
        // by the frontier and the rest by one arrival.
        size += GraphSize{g, gate[rank] + g - 1, g};
        if (g > 1) {
          const int next = ring.ranks[(k + 1) % g];
          size += routing_->TransferBound(rank, next, gate[rank]);
          size += routing_->TransferBound(rank, next, 1) * (g - 2);
        }
        ++phase[rank];
      }
    }
    advance();
  };
  auto locals = [&] {
    std::fill(phase.begin(), phase.end(), 0);
    for (const LocalSequence& seq : plan.local) {
      phase[seq.rank] = 1;  // One varlen kernel per rank with locals.
    }
    for (int r = 0; r < world; ++r) {
      if (phase[r] > 0) {
        size += GraphSize{1, gate[r], 1};
      }
    }
    advance();
  };
  if (OrderFor(direction) == QueueOrder::kInterIntraLocal) {
    rings(plan.inter_node);
    rings(plan.intra_node);
    locals();
  } else {
    locals();
    rings(plan.intra_node);
    rings(plan.inter_node);
  }
  // The per-rank done barriers.
  size.tasks += world;
  for (int r = 0; r < world; ++r) {
    size.deps += gate[r];
  }
  return size;
}

}  // namespace zeppelin
