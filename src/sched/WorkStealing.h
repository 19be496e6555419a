//===- sched/WorkStealing.h - Dynamic work distribution ---------*- C++ -*-===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dynamic work distribution across ISPC-style tasks. The paper's Nested
/// Parallelism fixes *intra-vector* imbalance (lanes with diverging degrees,
/// Section III-B2), but Listing 1 carves the outer loops into one static
/// contiguous block per task: on power-law graphs the one task whose block
/// holds the hub vertices becomes the straggler of every barrier episode
/// while its siblings spin idle. GPU frameworks close the same gap with
/// online task scheduling (SIMD-X, arXiv:1812.04070); PIUMA
/// (arXiv:2010.06277) names skew-induced load imbalance the dominant CPU
/// scaling limiter.
///
/// LoopScheduler keeps Listing 1's decomposition as the *starting*
/// assignment and lets only the tail move: each task's Chase-Lev-style
/// deque is seeded with its contiguous block (TaskRange::block) split into
/// ChunkSize chunks; the owner pops them front to back (cache friendly) and
/// a task whose deque runs dry steals the oldest chunks from its victims.
/// At one task there is nothing to steal: the whole range is handed to the
/// body in one call.
///
/// One LoopScheduler instance is shared by every parallel loop of a kernel
/// run. Contract (matches runPipe's episode structure):
///   - at most one scheduled loop per task launch / barrier episode,
///   - every task enters the loop exactly once per episode with the same
///     Size, and TaskCount equals the NumTasks the scheduler was built with,
///   - Size never exceeds the MaxItems the scheduler was built with (the
///     deques are sized for it; an overflowing push traps).
/// The last task to leave a loop resets the deques for the next episode;
/// the caller's barrier (Iteration Outlining) or launch join orders that
/// reset before any task re-enters, so the scheduler composes with
/// outlined pipes, fibers, and NP unchanged.
///
/// Everything is instrumented: ChunksDispatched / ChunksStolen /
/// StealFailures counters, plus (opt-in) per-task busy time from which the
/// per-episode critical path is accumulated — on machines with fewer cores
/// than tasks (like CI containers) wall clock cannot show balance, but
/// sum-over-episodes-of-max-task-time is exactly the runtime a machine with
/// enough cores would see.
///
//===----------------------------------------------------------------------===//

#ifndef EGACS_SCHED_WORKSTEALING_H
#define EGACS_SCHED_WORKSTEALING_H

#include "support/Stats.h"

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <thread>

#if defined(__linux__)
#include <time.h>
#else
#include <chrono>
#endif

namespace egacs {

/// Splits [0, Size) into NumTasks contiguous blocks and returns task
/// TaskIdx's [Begin, End) (the Listing 1 data decomposition).
struct TaskRange {
  std::int64_t Begin;
  std::int64_t End;

  static TaskRange block(std::int64_t Size, int TaskIdx, int TaskCount) {
    std::int64_t PerTask = (Size + TaskCount - 1) / TaskCount;
    std::int64_t Begin = static_cast<std::int64_t>(TaskIdx) * PerTask;
    std::int64_t End = Begin + PerTask;
    if (Begin > Size)
      Begin = Size;
    if (End > Size)
      End = Size;
    return {Begin, End};
  }
};

/// Reads the calling thread's consumed CPU time in nanoseconds (used for
/// per-task busy accounting; immune to oversubscription descheduling).
inline std::uint64_t threadCpuNanos() {
#if defined(__linux__)
  timespec Ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &Ts);
  return static_cast<std::uint64_t>(Ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(Ts.tv_nsec);
#else
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
#endif
}

/// A bounded single-owner Chase-Lev-style deque of chunk descriptors. The
/// owner pushes during seeding and pops from the bottom; thieves steal from
/// the top. All cross-thread state lives in std::atomic (seq_cst on the
/// contended Top/Bottom protocol), so the implementation is exact under
/// ThreadSanitizer — no fences TSan cannot model.
///
/// Within one episode Top/Bottom only grow and the buffer never wraps
/// (capacity covers the owner's full seed), so slots are never reused while
/// visible; reset() between episodes is ordered by the caller's barrier.
class StealDeque {
public:
  enum class StealResult { Success, Empty, Abort };

  StealDeque() = default;
  StealDeque(const StealDeque &) = delete;
  StealDeque &operator=(const StealDeque &) = delete;

  /// Sizes the buffer for at most \p Capacity pushes per episode.
  void allocate(std::size_t Capacity) {
    Cap = Capacity > 0 ? Capacity : 1;
    Buf = std::make_unique<std::atomic<std::int64_t>[]>(Cap);
  }

  /// Owner: appends \p X at the bottom. Traps on overflow (a silent drop
  /// would violate the dispatch-exactly-once guarantee).
  void push(std::int64_t X) {
    std::int64_t B = Bottom.load(std::memory_order_relaxed);
    if (static_cast<std::size_t>(B) >= Cap)
      __builtin_trap();
    Buf[static_cast<std::size_t>(B)].store(X, std::memory_order_relaxed);
    // Publish the slot before exposing it through Bottom.
    Bottom.store(B + 1, std::memory_order_release);
  }

  /// Owner: takes the most recently pushed remaining chunk. Returns false
  /// when the deque is empty (or a thief won the race for the last chunk).
  bool pop(std::int64_t &X) {
    std::int64_t B = Bottom.load(std::memory_order_relaxed) - 1;
    Bottom.store(B, std::memory_order_seq_cst);
    std::int64_t T = Top.load(std::memory_order_seq_cst);
    if (T < B) {
      X = Buf[static_cast<std::size_t>(B)].load(std::memory_order_relaxed);
      return true;
    }
    if (T == B) {
      // Single chunk left: arbitrate against thieves on Top.
      bool Won = Top.compare_exchange_strong(T, T + 1,
                                             std::memory_order_seq_cst,
                                             std::memory_order_seq_cst);
      Bottom.store(B + 1, std::memory_order_seq_cst);
      if (Won)
        X = Buf[static_cast<std::size_t>(B)].load(std::memory_order_relaxed);
      return Won;
    }
    // Already empty; restore the canonical form.
    Bottom.store(B + 1, std::memory_order_seq_cst);
    return false;
  }

  /// Thief: attempts to take the oldest chunk. Abort means another consumer
  /// won a race and the caller should retry the victim sweep.
  StealResult steal(std::int64_t &X) {
    std::int64_t T = Top.load(std::memory_order_seq_cst);
    std::int64_t B = Bottom.load(std::memory_order_seq_cst);
    if (T >= B)
      return StealResult::Empty;
    std::int64_t V =
        Buf[static_cast<std::size_t>(T)].load(std::memory_order_relaxed);
    if (!Top.compare_exchange_strong(T, T + 1, std::memory_order_seq_cst,
                                     std::memory_order_seq_cst))
      return StealResult::Abort;
    X = V;
    return StealResult::Success;
  }

  bool empty() const {
    return Top.load(std::memory_order_seq_cst) >=
           Bottom.load(std::memory_order_seq_cst);
  }

  /// Resets for the next episode. Only valid while no task operates on the
  /// deque; callers order this through their barrier/join.
  void reset() {
    Top.store(0, std::memory_order_relaxed);
    Bottom.store(0, std::memory_order_relaxed);
  }

private:
  alignas(64) std::atomic<std::int64_t> Top{0};
  alignas(64) std::atomic<std::int64_t> Bottom{0};
  std::unique_ptr<std::atomic<std::int64_t>[]> Buf;
  std::size_t Cap = 0;
};

/// Shared per-kernel-run work distributor; see the file comment for the
/// episode contract. One instance serves every parallel loop of a run.
class LoopScheduler {
public:
  /// \p MaxItems bounds the largest Size any scheduled loop will see (it
  /// sizes the deques). \p Instrument records per-task busy time and
  /// per-episode critical path into the Sched* counters.
  LoopScheduler(int NumTasks, std::int64_t ChunkSize, std::int64_t MaxItems,
                bool Instrument = false)
      : NumTasks(NumTasks < 1 ? 1 : NumTasks),
        Chunk(ChunkSize < 1 ? 1 : ChunkSize), Instrument(Instrument) {
    if (this->NumTasks == 1)
      return;
    if (MaxItems < 0)
      MaxItems = 0;
    std::int64_t PerTask = (MaxItems + this->NumTasks - 1) / this->NumTasks;
    std::size_t Cap =
        static_cast<std::size_t>((PerTask + Chunk - 1) / Chunk) + 1;
    Deques = std::make_unique<StealDeque[]>(
        static_cast<std::size_t>(this->NumTasks));
    for (int T = 0; T < this->NumTasks; ++T)
      Deques[static_cast<std::size_t>(T)].allocate(Cap);
  }

  LoopScheduler(const LoopScheduler &) = delete;
  LoopScheduler &operator=(const LoopScheduler &) = delete;

  /// Runs task \p TaskIdx's share of [0, Size): calls Fn(Begin, End) for
  /// each chunk this task pops from its own deque or steals. Every task of
  /// the episode must call this exactly once (even when its share is
  /// empty).
  template <typename RangeFnT>
  void forRanges(std::int64_t Size, int TaskIdx, int TaskCount,
                 RangeFnT &&Fn) {
    assert(TaskCount == NumTasks &&
           "scheduler was built for a different task count");
    (void)TaskCount;
    std::uint64_t Start = Instrument ? threadCpuNanos() : 0;
    if (NumTasks == 1) {
      if (Size > 0) {
        EGACS_STAT_ADD(ChunksDispatched, 1);
        Fn(std::int64_t(0), Size);
      }
    } else {
      runStealing(Size, TaskIdx, Fn);
    }
    taskEpilogue(Instrument ? threadCpuNanos() - Start : 0);
  }

private:
  /// Seeds this task's deque with its block pre-split into chunks, drains
  /// it front-to-back, then sweeps victims until a full sweep finds every
  /// deque empty.
  template <typename RangeFnT>
  void runStealing(std::int64_t Size, int TaskIdx, RangeFnT &&Fn) {
    StealDeque &Own = Deques[static_cast<std::size_t>(TaskIdx)];
    TaskRange R = TaskRange::block(Size, TaskIdx, NumTasks);
    std::int64_t PerTask = (Size + NumTasks - 1) / NumTasks;
    // Chunks never cross block boundaries, so any holder can recompute a
    // chunk's end from its begin alone.
    auto ChunkEnd = [&](std::int64_t Begin) {
      std::int64_t BlockEnd = (Begin / PerTask + 1) * PerTask;
      if (BlockEnd > Size)
        BlockEnd = Size;
      std::int64_t E = Begin + Chunk;
      return E < BlockEnd ? E : BlockEnd;
    };

    // Seed in reverse so bottom pops walk the block front-to-back.
    std::int64_t NumChunks =
        R.End > R.Begin ? (R.End - R.Begin + Chunk - 1) / Chunk : 0;
    for (std::int64_t C = NumChunks; C-- > 0;)
      Own.push(R.Begin + C * Chunk);

    std::int64_t B;
    while (Own.pop(B)) {
      EGACS_STAT_ADD(ChunksDispatched, 1);
      Fn(B, ChunkEnd(B));
    }

    for (;;) {
      bool Progress = false;
      bool Contended = false;
      for (int VOff = 1; VOff < NumTasks; ++VOff) {
        StealDeque &Victim =
            Deques[static_cast<std::size_t>((TaskIdx + VOff) % NumTasks)];
        for (;;) {
          std::int64_t X;
          StealDeque::StealResult SR = Victim.steal(X);
          if (SR == StealDeque::StealResult::Success) {
            EGACS_STAT_ADD(ChunksDispatched, 1);
            EGACS_STAT_ADD(ChunksStolen, 1);
            Fn(X, ChunkEnd(X));
            Progress = true;
            continue; // keep draining this victim
          }
          if (SR == StealDeque::StealResult::Abort) {
            EGACS_STAT_ADD(StealFailures, 1);
            Contended = true;
          }
          break;
        }
      }
      // A full sweep with neither success nor contention means every deque
      // was observed empty; nothing is added mid-episode, so we are done.
      if (!Progress && !Contended)
        break;
      if (!Progress)
        std::this_thread::yield();
    }
  }

  /// Episode epilogue: record busy time, and have the last task out reset
  /// the shared state for the next barrier episode. The caller's barrier or
  /// launch join orders the reset before any task re-enters forRanges.
  void taskEpilogue(std::uint64_t BusyNs) {
    if (Instrument) {
      EGACS_STAT_ADD(SchedTaskNanos, BusyNs);
      std::uint64_t Cur = EpisodeMaxNs.load(std::memory_order_relaxed);
      while (Cur < BusyNs &&
             !EpisodeMaxNs.compare_exchange_weak(Cur, BusyNs,
                                                 std::memory_order_relaxed,
                                                 std::memory_order_relaxed)) {
      }
    }
    if (Exited.fetch_add(1, std::memory_order_acq_rel) + 1 == NumTasks) {
      if (Instrument) {
        EGACS_STAT_ADD(SchedCriticalNanos,
                       EpisodeMaxNs.load(std::memory_order_relaxed));
        EGACS_STAT_ADD(SchedEpisodes, 1);
        EpisodeMaxNs.store(0, std::memory_order_relaxed);
      }
      if (Deques)
        for (int T = 0; T < NumTasks; ++T)
          Deques[static_cast<std::size_t>(T)].reset();
      Exited.store(0, std::memory_order_release);
    }
  }

  const int NumTasks;
  const std::int64_t Chunk;
  const bool Instrument;

  alignas(64) std::atomic<int> Exited{0};
  alignas(64) std::atomic<std::uint64_t> EpisodeMaxNs{0};
  std::unique_ptr<StealDeque[]> Deques;
};


} // namespace egacs

#endif // EGACS_SCHED_WORKSTEALING_H
