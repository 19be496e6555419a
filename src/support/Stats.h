//===- support/Stats.h - Global statistic counters --------------*- C++ -*-===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Named global counters used to reproduce the paper's instrumentation:
/// atomic worklist pushes (Table V), SIMD lane-occupancy (Table IV), and
/// dynamic SPMD operation counts (Fig 7, standing in for Intel Pin). All
/// counters compile away when EGACS_STATS is not defined.
///
/// Each counter is global in meaning but sharded in storage: every thread
/// adds into its own cache-line-aligned StatShard, so statAdd is an inlined
/// thread-local load, add and store with no locked instruction and no cache
/// line shared with another writer. The cost of a counted event is that of a
/// private memory increment, which is why the CAS loops, worklists and
/// scheduler can count unconditionally. Readers (StatsSnapshot::capture,
/// statGet, statsReset) walk every shard under a mutex. A thread registers
/// its shard on its first add; when it exits, the shard goes back to a free
/// list with its counts intact and the next new thread keeps adding into it,
/// so threads spawned per launch lose no counts and the shard list stays as
/// long as the peak number of threads that ever counted at once.
///
//===----------------------------------------------------------------------===//

#ifndef EGACS_SUPPORT_STATS_H
#define EGACS_SUPPORT_STATS_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace egacs {

/// The set of globally tracked statistic counters.
enum class Stat : unsigned {
  /// Hardware atomic RMW operations issued for worklist pushes.
  AtomicPushes,
  /// Items appended to worklists (independent of aggregation).
  ItemsPushed,
  /// Active lane-slots observed while executing inner (edge) loops.
  InnerActiveLanes,
  /// Total lane-slots (active + idle) in inner-loop vector iterations.
  InnerTotalLanes,
  /// Dynamic SPMD vector operations executed (arith + memory + mask).
  SpmdOps,
  /// Dynamic gather operations executed.
  GatherOps,
  /// Dynamic scatter operations executed.
  ScatterOps,
  /// Task launches performed by the runtime.
  TaskLaunches,
  /// Barrier episodes executed inside outlined iterations.
  BarrierWaits,
  /// Chunks handed to tasks by the loop scheduler (all policies).
  ChunksDispatched,
  /// Chunks a task stole from another task's deque.
  ChunksStolen,
  /// Steal attempts that lost a race (Chase-Lev CAS abort).
  StealFailures,
  /// Per-task CPU time spent inside scheduled loops (instrumented runs).
  SchedTaskNanos,
  /// Sum over episodes of the slowest task's CPU time (the critical path a
  /// machine with >= NumTasks cores would observe).
  SchedCriticalNanos,
  /// Scheduled-loop episodes measured by the instrumentation.
  SchedEpisodes,
  /// Hardware compare-exchange operations issued by the CAS loops in
  /// simd/Atomics.h (min/max/float-add relaxations).
  CasAttempts,
  /// Compare-exchange operations that failed (lost a race or spurious
  /// weak-CAS failure) and had to retry.
  CasFailures,
  /// Lanes folded into a same-destination neighbour by in-vector conflict
  /// combining (each saved lane is one hardware atomic not issued).
  CombinedLanesSaved,
  /// Sum over scatter-phase episodes of the slowest task's CPU time in the
  /// update engine's scatter phase (instrumented runs).
  UpdateScatterCritNanos,
  /// Sum over merge-phase episodes of the slowest task's CPU time in the
  /// update engine's merge/apply phase (instrumented runs).
  UpdateMergeCritNanos,
  /// Active lanes whose neighbor id was fetched with a hardware gather
  /// (CSR edge-index indirection: the per-lane edge walk and the NP
  /// low-degree staging buffer flush).
  NeighborGatherLanes,
  /// Active lanes whose neighbor id came from a unit-stride (contiguous)
  /// vector load: the NP heavy-node sweep and the SELL-C-sigma slot-aligned
  /// chunk sweep. The layout ablation's conversion metric is
  /// contiguous / (contiguous + gather).
  NeighborContigLanes,
  /// Prefetch requests generated by the staged-loop inspect stages
  /// (sched/Prefetch.h), before duplicate-line suppression. Exactly zero
  /// when PrefetchPolicy::None.
  PrefetchesIssued,
  /// Cache lines actually forwarded to the hardware prefetcher by the
  /// inspect stages (requests whose line matched the immediately preceding
  /// request are suppressed, so this is <= PrefetchesIssued).
  PrefetchLinesTouched,
  /// Push<->pull transitions taken by the direction-optimizing traversal
  /// drivers (kernels/Bfs.h, Cc.h, Pr.h). Zero under Direction::Push.
  DirectionSwitches,
  /// In-edge lanes examined by the pull-direction loops (active lanes per
  /// gather step, before the early exit prunes the rest of the row).
  PullEdgesScanned,
  /// Destination lanes retired early by a pull round: the lane found an
  /// in-frontier parent while in-edges remained unscanned.
  PullEarlyExits,
  /// Frontier representation conversions (sparse queue -> bitmap or
  /// bitmap -> sparse queue) performed by the direction drivers.
  FrontierConversions,
  NumStats
};

/// Returns the human-readable name of \p S.
const char *statName(Stat S);

namespace statsdetail {

constexpr unsigned NumStats = static_cast<unsigned>(Stat::NumStats);

/// One thread's counters. Only the owning thread writes them; the atomics
/// let readers on other threads load them without a data race.
struct alignas(64) StatShard {
  std::atomic<std::uint64_t> Values[NumStats] = {};
};

/// The calling thread's shard, or null before its first add.
inline constinit thread_local StatShard *ThreadShard = nullptr;

/// Gives the calling thread a shard (recycled or new) and arranges for its
/// release at thread exit. The slow path of the first statAdd.
StatShard *registerThreadShard();

/// Number of shards ever handed out, live or free (tests bound it by the
/// peak number of concurrently counting threads).
std::size_t statShardCount();

} // namespace statsdetail

/// Adds \p Delta to counter \p S in the calling thread's shard.
inline void statAdd(Stat S, std::uint64_t Delta) {
  statsdetail::StatShard *Shard = statsdetail::ThreadShard;
  if (!Shard) [[unlikely]]
    Shard = statsdetail::registerThreadShard();
  std::atomic<std::uint64_t> &Counter =
      Shard->Values[static_cast<unsigned>(S)];
  // Single writer: a plain load and store, not a locked fetch_add.
  Counter.store(Counter.load(std::memory_order_relaxed) + Delta,
                std::memory_order_relaxed);
}

/// Returns the current value of counter \p S, summed over every shard.
std::uint64_t statGet(Stat S);

/// Resets every counter to zero. Meant for quiescent points: an add racing
/// with the reset on another thread may survive it.
void statsReset();

/// A point-in-time snapshot of every counter, used to measure one kernel run.
struct StatsSnapshot {
  std::uint64_t Values[static_cast<unsigned>(Stat::NumStats)] = {};

  /// Captures current counter values.
  static StatsSnapshot capture();

  /// Returns the per-counter difference (this - Earlier).
  StatsSnapshot operator-(const StatsSnapshot &Earlier) const;

  /// Adds \p Other's per-counter values into this snapshot (folding one
  /// measurement window into another).
  StatsSnapshot &operator+=(const StatsSnapshot &Other) {
    for (unsigned I = 0; I < static_cast<unsigned>(Stat::NumStats); ++I)
      Values[I] += Other.Values[I];
    return *this;
  }

  std::uint64_t get(Stat S) const {
    return Values[static_cast<unsigned>(S)];
  }
};

#ifdef EGACS_STATS
#define EGACS_STAT_ADD(S, N) ::egacs::statAdd(::egacs::Stat::S, (N))
#else
#define EGACS_STAT_ADD(S, N) ((void)0)
#endif

} // namespace egacs

#endif // EGACS_SUPPORT_STATS_H
