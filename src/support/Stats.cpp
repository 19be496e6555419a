//===- support/Stats.cpp - Per-thread statistic shards --------------------===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
//===----------------------------------------------------------------------===//

#include "support/Stats.h"

#include <cassert>
#include <iterator>
#include <mutex>
#include <vector>

using namespace egacs;
using egacs::statsdetail::NumStats;
using egacs::statsdetail::StatShard;

namespace {

/// Every shard ever handed out, and the ones whose thread has exited. Leaked
/// on purpose (as are the shards) so threads that outlive static destruction
/// can still release theirs.
struct ShardRegistry {
  std::mutex Mu;
  std::vector<StatShard *> All;
  std::vector<StatShard *> Free;
};

ShardRegistry &registry() {
  static ShardRegistry *Registry = new ShardRegistry;
  return *Registry;
}

/// Returns the thread's shard to the free list at thread exit. The shard
/// keeps its counts: its next owner adds on top of them, so nothing a
/// finished thread counted is lost.
struct ShardReleaser {
  ~ShardReleaser() {
    ShardRegistry &Registry = registry();
    std::lock_guard<std::mutex> Lock(Registry.Mu);
    Registry.Free.push_back(statsdetail::ThreadShard);
    statsdetail::ThreadShard = nullptr;
  }
};

/// Harness names, indexed by Stat declaration order. The static_assert
/// below makes adding a counter without naming it (or vice versa) a compile
/// error — the old per-case switch silently tolerated a missing entry.
constexpr const char *StatNames[] = {
    "atomic-pushes",
    "items-pushed",
    "inner-active-lanes",
    "inner-total-lanes",
    "spmd-ops",
    "gather-ops",
    "scatter-ops",
    "task-launches",
    "barrier-waits",
    "chunks-dispatched",
    "chunks-stolen",
    "steal-failures",
    "sched-task-nanos",
    "sched-critical-nanos",
    "sched-episodes",
    "cas-attempts",
    "cas-failures",
    "combined-lanes-saved",
    "update-scatter-crit-nanos",
    "update-merge-crit-nanos",
    "neighbor-gather-lanes",
    "neighbor-contig-lanes",
    "prefetches-issued",
    "prefetch-lines-touched",
    "direction-switches",
    "pull-edges-scanned",
    "pull-early-exits",
    "frontier-conversions",
};
static_assert(std::size(StatNames) == NumStats,
              "StatNames must name every Stat counter, in enum order");

} // namespace

const char *egacs::statName(Stat S) {
  assert(static_cast<unsigned>(S) < NumStats && "invalid stat");
  if (static_cast<unsigned>(S) >= NumStats)
    return "<invalid>";
  return StatNames[static_cast<unsigned>(S)];
}

StatShard *egacs::statsdetail::registerThreadShard() {
  static thread_local ShardReleaser Releaser;
  (void)Releaser;
  ShardRegistry &Registry = registry();
  std::lock_guard<std::mutex> Lock(Registry.Mu);
  if (Registry.Free.empty()) {
    Registry.All.push_back(new StatShard);
    ThreadShard = Registry.All.back();
  } else {
    ThreadShard = Registry.Free.back();
    Registry.Free.pop_back();
  }
  return ThreadShard;
}

std::size_t egacs::statsdetail::statShardCount() {
  ShardRegistry &Registry = registry();
  std::lock_guard<std::mutex> Lock(Registry.Mu);
  return Registry.All.size();
}

std::uint64_t egacs::statGet(Stat S) {
  return StatsSnapshot::capture().get(S);
}

void egacs::statsReset() {
  ShardRegistry &Registry = registry();
  std::lock_guard<std::mutex> Lock(Registry.Mu);
  for (StatShard *Shard : Registry.All)
    for (std::atomic<std::uint64_t> &Counter : Shard->Values)
      Counter.store(0, std::memory_order_relaxed);
}

StatsSnapshot StatsSnapshot::capture() {
  StatsSnapshot Snapshot;
  ShardRegistry &Registry = registry();
  std::lock_guard<std::mutex> Lock(Registry.Mu);
  for (const StatShard *Shard : Registry.All)
    for (unsigned I = 0; I < NumStats; ++I)
      Snapshot.Values[I] += Shard->Values[I].load(std::memory_order_relaxed);
  return Snapshot;
}

StatsSnapshot StatsSnapshot::operator-(const StatsSnapshot &Earlier) const {
  StatsSnapshot Result;
  for (unsigned I = 0; I < NumStats; ++I)
    Result.Values[I] = Values[I] - Earlier.Values[I];
  return Result;
}
