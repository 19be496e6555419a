//===- tests/RuntimeTest.cpp - Task system and barrier tests --------------===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
//===----------------------------------------------------------------------===//

#include "engine/PipeDriver.h"
#include "runtime/Barrier.h"
#include "runtime/Fibers.h"
#include "runtime/TaskSystem.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

using namespace egacs;

namespace {

//===----------------------------------------------------------------------===//
// Task systems (parameterized over every implementation).
//===----------------------------------------------------------------------===//

class TaskSystems : public ::testing::TestWithParam<TaskSystemKind> {
protected:
  std::unique_ptr<TaskSystem> makeTs(int Workers) {
    return makeTaskSystem(GetParam(), Workers);
  }
};

TEST_P(TaskSystems, EveryTaskRunsExactlyOnce) {
  auto TS = makeTs(4);
  constexpr int NumTasks = 37;
  std::vector<std::atomic<int>> Ran(NumTasks);
  TS->launch(NumTasks, [&](int TaskIdx, int TaskCount) {
    EXPECT_EQ(TaskCount, NumTasks);
    EXPECT_GE(TaskIdx, 0);
    EXPECT_LT(TaskIdx, NumTasks);
    Ran[static_cast<std::size_t>(TaskIdx)].fetch_add(1);
  });
  for (const auto &R : Ran)
    EXPECT_EQ(R.load(), 1);
}

TEST_P(TaskSystems, RepeatedLaunchesWork) {
  auto TS = makeTs(3);
  std::atomic<int> Total{0};
  for (int Round = 0; Round < 50; ++Round)
    TS->launch(5, [&](int, int) { Total.fetch_add(1); });
  EXPECT_EQ(Total.load(), 250);
}

TEST_P(TaskSystems, RapidBackToBackLaunchesWithSleepyWorkers) {
  // Regression test: a pool worker that sleeps through an entire launch
  // must not join the *next* launch with a stale snapshot (this dangled
  // the task function pointer before the fix). Many tiny launches with
  // fewer tasks than workers maximize the missed-epoch window.
  auto TS = makeTs(4);
  std::atomic<std::int64_t> Sum{0};
  std::int64_t Expected = 0;
  for (int Round = 0; Round < 2000; ++Round) {
    int NumTasks = 1 + Round % 3;
    Expected += NumTasks;
    TS->launch(NumTasks, [&](int, int) { Sum.fetch_add(1); });
  }
  EXPECT_EQ(Sum.load(), Expected);
}

TEST_P(TaskSystems, MoreTasksThanWorkers) {
  auto TS = makeTs(2);
  std::atomic<int> Count{0};
  TS->launch(64, [&](int, int) { Count.fetch_add(1); });
  EXPECT_EQ(Count.load(), 64);
}

TEST_P(TaskSystems, ParallelForBlockedCoversRange) {
  auto TS = makeTs(4);
  constexpr std::int64_t N = 1003;
  std::vector<std::atomic<int>> Touched(N);
  parallelForBlocked(*TS, 4, N,
                     [&](std::int64_t Begin, std::int64_t End, int) {
                       for (std::int64_t I = Begin; I < End; ++I)
                         Touched[static_cast<std::size_t>(I)].fetch_add(1);
                     });
  for (const auto &T : Touched)
    EXPECT_EQ(T.load(), 1);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, TaskSystems,
                         ::testing::Values(TaskSystemKind::Serial,
                                           TaskSystemKind::Spawn,
                                           TaskSystemKind::Pool,
                                           TaskSystemKind::SpinPool),
                         [](const auto &Info) {
                           switch (Info.param) {
                           case TaskSystemKind::Serial:
                             return "serial";
                           case TaskSystemKind::Spawn:
                             return "spawn";
                           case TaskSystemKind::Pool:
                             return "pool";
                           case TaskSystemKind::SpinPool:
                             return "spin";
                           }
                           return "unknown";
                         });

//===----------------------------------------------------------------------===//
// Barrier
//===----------------------------------------------------------------------===//

TEST(BarrierTest, PhasesStayInLockstep) {
  constexpr int NumThreads = 4;
  constexpr int NumPhases = 100;
  Barrier Bar(NumThreads);
  std::atomic<int> PhaseCounter[NumPhases] = {};
  std::vector<std::thread> Threads;
  std::atomic<bool> Violation{false};
  for (int T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&] {
      for (int P = 0; P < NumPhases; ++P) {
        PhaseCounter[P].fetch_add(1);
        Bar.wait();
        // After the barrier, everyone must have finished phase P.
        if (PhaseCounter[P].load() != NumThreads)
          Violation.store(true);
        Bar.wait();
      }
    });
  for (std::thread &Th : Threads)
    Th.join();
  EXPECT_FALSE(Violation.load());
}

TEST(BarrierTest, SingleParticipantNeverBlocks) {
  Barrier Bar(1);
  for (int I = 0; I < 1000; ++I)
    Bar.wait();
  SUCCEED();
}

//===----------------------------------------------------------------------===//
// Pipe driver (Iteration Outlining semantics).
//===----------------------------------------------------------------------===//

/// An advance result for pipes without a frontier: continue while \p More.
NextRound continueIf(bool More) {
  if (!More)
    return std::nullopt;
  return RoundFrontier{-1, "flat"};
}

TEST(PipeDriverTest, OutlinedAndDefaultRunSamePhases) {
  for (bool Outlined : {false, true}) {
    ThreadPoolTaskSystem Pool(3);
    KernelConfig Cfg = KernelConfig::allOptimizations(Pool, 3);
    Cfg.IterationOutlining = Outlined;

    std::atomic<int> Phase1Runs{0}, Phase2Runs{0};
    int Iterations = 0;
    runPipe(Cfg, {-1, "flat"},
            std::vector<TaskFn>{
                TaskFn([&](int, int) { Phase1Runs.fetch_add(1); }),
                TaskFn([&](int, int) { Phase2Runs.fetch_add(1); })},
            [&] { return continueIf(++Iterations < 5); });
    EXPECT_EQ(Iterations, 5) << "outlined=" << Outlined;
    EXPECT_EQ(Phase1Runs.load(), 5 * 3) << "outlined=" << Outlined;
    EXPECT_EQ(Phase2Runs.load(), 5 * 3) << "outlined=" << Outlined;
  }
}

TEST(PipeDriverTest, PhaseBarrierOrdering) {
  // Under IO, no task may start phase 2 of an iteration before every task
  // finished phase 1 of that iteration.
  ThreadPoolTaskSystem Pool(4);
  KernelConfig Cfg = KernelConfig::allOptimizations(Pool, 4);
  std::atomic<int> InPhase1{0};
  std::atomic<bool> Violation{false};
  int Iterations = 0;
  runPipe(Cfg, {-1, "flat"},
          std::vector<TaskFn>{TaskFn([&](int, int) {
                                InPhase1.fetch_add(1);
                              }),
                              TaskFn([&](int, int) {
                                if (InPhase1.load() % 4 != 0)
                                  Violation.store(true);
                              })},
          [&] { return continueIf(++Iterations < 20); });
  EXPECT_FALSE(Violation.load());
}

TEST(PipeDriverTest, TracedRoundsCarryTheFrontierEachAdvanceReturned) {
#ifndef EGACS_TRACE
  GTEST_SKIP() << "tracing compiled out";
#else
  // runPipe is the only frontier reporter: round 0 must carry the frontier
  // passed in, and round I > 0 the one the (I-1)-th advance returned.
  static const char *const Modes[] = {"push", "pull", "dense"};
  for (bool Outlined : {false, true}) {
    ThreadPoolTaskSystem Pool(3);
    KernelConfig Cfg = KernelConfig::allOptimizations(Pool, 3);
    Cfg.IterationOutlining = Outlined;
    trace::TraceSession S;
    Cfg.Trace = &S;
    std::vector<RoundFrontier> Fed{{7, "push"}};
    runPipe(Cfg, Fed[0], TaskFn([](int, int) {}), [&]() -> NextRound {
      if (Fed.size() == 5)
        return std::nullopt;
      RoundFrontier Next{static_cast<std::int64_t>(Fed.size()) * 100,
                         Modes[Fed.size() % 3]};
      Fed.push_back(Next);
      return Next;
    });
    ASSERT_EQ(S.rounds().size(), Fed.size()) << "outlined=" << Outlined;
    for (std::size_t I = 0; I < Fed.size(); ++I) {
      const trace::RoundRecord &R = S.rounds()[I];
      EXPECT_EQ(R.Round, I) << "outlined=" << Outlined;
      EXPECT_EQ(R.Frontier, Fed[I].Size) << "outlined=" << Outlined;
      EXPECT_STREQ(R.Mode, Fed[I].Mode) << "outlined=" << Outlined;
    }
  }
#endif
}

TEST(PipeDriverTest, MaxIterationsCapsRunawayLoops) {
  SerialTaskSystem TS;
  KernelConfig Cfg = KernelConfig::allOptimizations(TS, 1);
  Cfg.MaxIterations = 7;
  int BodyRuns = 0;
  runPipe(Cfg, {-1, "flat"}, TaskFn([&](int, int) { ++BodyRuns; }),
          [] { return continueIf(true); /* never converges */ });
  EXPECT_EQ(BodyRuns, 7);
}

TEST(TaskRangeTest, BlockDecompositionCoversExactly) {
  for (std::int64_t Size : {0, 1, 7, 64, 1000}) {
    for (int Tasks : {1, 3, 8, 16}) {
      std::int64_t Covered = 0;
      std::int64_t PrevEnd = 0;
      for (int T = 0; T < Tasks; ++T) {
        TaskRange R = TaskRange::block(Size, T, Tasks);
        EXPECT_LE(R.Begin, R.End);
        EXPECT_GE(R.Begin, PrevEnd);
        Covered += R.End - R.Begin;
        PrevEnd = R.End;
      }
      EXPECT_EQ(Covered, Size) << Size << "/" << Tasks;
    }
  }
}

//===----------------------------------------------------------------------===//
// Fibers
//===----------------------------------------------------------------------===//

TEST(FiberFormula, MatchesPaperDefinition) {
  // NumFibers = min(256, |WL| / (Width * Tasks)), at least 1.
  EXPECT_EQ(FiberConfig::numFibersPerTask(0, 16, 8), 1);
  EXPECT_EQ(FiberConfig::numFibersPerTask(100, 16, 8), 1);
  EXPECT_EQ(FiberConfig::numFibersPerTask(16 * 8 * 10, 16, 8), 10);
  EXPECT_EQ(FiberConfig::numFibersPerTask(1 << 30, 16, 8), 256);
  // Ablation cap override.
  EXPECT_EQ(FiberConfig::numFibersPerTask(1 << 30, 16, 8, 32), 32);
}

TEST(FiberLoop, RunsEveryFiberOnce) {
  std::vector<int> Ran(10, 0);
  forEachFiber(10, [&](int F, int NumFibers) {
    EXPECT_EQ(NumFibers, 10);
    ++Ran[static_cast<std::size_t>(F)];
  });
  for (int R : Ran)
    EXPECT_EQ(R, 1);
}

} // namespace

//===----------------------------------------------------------------------===//
// Listing 1 and fiber shared-memory semantics (appended suite).
//===----------------------------------------------------------------------===//

#include "simd/Atomics.h"
#include "simd/Targets.h"

namespace {

// The paper's Listing 1: sum an array with tasks x program instances, a
// per-instance varying accumulator, reduce_add, and one global atomic per
// task — written against our SPMD layer instead of ISPC.
TEST(Listing1, SpmdArraySumMatches) {
  using BK = egacs::simd::NativeBackend;
  using namespace egacs::simd;
  constexpr std::int64_t Size = 10007;
  std::vector<std::int32_t> Array(Size);
  std::int64_t Expected = 0;
  for (std::int64_t I = 0; I < Size; ++I) {
    Array[static_cast<std::size_t>(I)] = static_cast<std::int32_t>(I % 97);
    Expected += Array[static_cast<std::size_t>(I)];
  }

  ThreadPoolTaskSystem Pool(4);
  std::int64_t Out = 0;
  Pool.launch(4, [&](int TaskIdx, int TaskCount) {
    // size_per_task / start-of-block decomposition, as in the listing.
    TaskRange R = TaskRange::block(Size, TaskIdx, TaskCount);
    VInt<BK> Sum = splat<BK>(0);
    for (std::int64_t I = R.Begin; I < R.End; I += BK::Width) {
      int Valid = static_cast<int>(
          R.End - I < BK::Width ? R.End - I : BK::Width);
      VMask<BK> M = maskFirstN<BK>(Valid);
      Sum = Sum + maskedLoad<BK>(Array.data() + I, M);
    }
    // reduce_add + atomic_add_global.
    atomicAddGlobal64(&Out, reduceAdd<BK>(Sum, maskAll<BK>()));
  });
  EXPECT_EQ(Out, Expected);
}

// Fibers emulate CUDA shared memory and __syncthreads (paper III-B1):
// state declared before the fiber loops is shared by all fibers, and
// splitting the loop realizes the barrier — phase 2 of every fiber sees
// every fiber's phase-1 writes.
TEST(FiberSharedMemory, LoopPartitioningActsAsSyncthreads) {
  constexpr int NumFibers = 16;
  int Shared[NumFibers];       // "shared memory": declared before the loops
  int PhaseTwoSums[NumFibers];

  egacs::forEachFiber(NumFibers, [&](int F, int) {
    Shared[F] = F + 1; // phase 1: each fiber publishes
  });
  // __syncthreads: the split between the two fiber loops.
  egacs::forEachFiber(NumFibers, [&](int F, int) {
    int Sum = 0;
    for (int Value : Shared) // phase 2: each fiber reads all of phase 1
      Sum += Value;
    PhaseTwoSums[F] = Sum;
  });
  for (int F = 0; F < NumFibers; ++F)
    EXPECT_EQ(PhaseTwoSums[F], NumFibers * (NumFibers + 1) / 2);
}

} // namespace
