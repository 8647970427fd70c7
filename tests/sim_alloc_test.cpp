// Allocation budget of the simulator's hot paths: building a Zeppelin layer
// into a TaskGraph and running it through the Engine must not allocate per
// task. The global allocation functions are replaced in this binary to count
// calls.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "src/core/trainer.h"
#include "src/core/zeppelin.h"
#include "src/data/datasets.h"
#include "src/model/transformer.h"
#include "src/sim/engine.h"

namespace {
std::atomic<long> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace zeppelin {
namespace {

long Allocations() { return g_allocations.load(std::memory_order_relaxed); }

TEST(SimAllocTest, EmitAndRunDoNotAllocatePerTask) {
  // The layered benchmark's training-iteration shape: 7B, 64 GPUs.
  const Trainer trainer(MakeLlama7B(), MakeClusterA(8));
  BatchSampler sampler(MakeGithubDistribution(), 262144, /*seed=*/1);
  ZeppelinStrategy strategy;
  strategy.Plan(sampler.NextBatch(), trainer.cost_model(), trainer.fabric());
  const Engine engine(trainer.fabric());

  for (const Direction d : {Direction::kForward, Direction::kBackward}) {
    TaskGraph graph;
    const long before_emit = Allocations();
    strategy.EmitLayer(graph, d);
    const long emit_allocations = Allocations() - before_emit;

    const long before_run = Allocations();
    const SimResult result = engine.Run(graph);
    const long run_allocations = Allocations() - before_run;

    ASSERT_GT(graph.size(), 4000);
    // Emit sizes the graph's columns once and otherwise allocates per stage
    // (result vectors, the remap matrix, label stems), never per rank or per
    // task: 82-85 allocations for either direction at this shape.
    EXPECT_LT(emit_allocations, 96) << graph.size() << " tasks";
    // Run allocates its fixed workspace and the SimResult, nothing per task.
    EXPECT_LT(run_allocations, 24) << graph.size() << " tasks";
    EXPECT_GT(result.makespan_us, 0.0);
  }
}

}  // namespace
}  // namespace zeppelin
