//===- tests/SchedulerTest.cpp - Work-distribution layer tests ------------===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for sched/WorkStealing.h: TaskRange::block edge cases, the
/// StealDeque owner/thief protocol, and — the property everything rests on —
/// every index in [0, Size) dispatched exactly once at every chunk size,
/// with real concurrent stealing and across multiple barrier episodes. The
/// whole file is exercised by the ThreadSanitizer CI job.
///
//===----------------------------------------------------------------------===//

#include "OracleAssert.h"
#include "engine/VertexMap.h"
#include "graph/Generators.h"
#include "graph/GraphView.h"
#include "kernels/Bfs.h"
#include "kernels/Cc.h"
#include "kernels/Pr.h"
#include "runtime/Barrier.h"
#include "runtime/TaskSystem.h"
#include "sched/WorkStealing.h"
#include "simd/Targets.h"
#include "verify/Oracle.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

using namespace egacs;

namespace {

//===----------------------------------------------------------------------===//
// TaskRange::block edge cases
//===----------------------------------------------------------------------===//

TEST(TaskRangeTest, EmptyRange) {
  for (int Tasks : {1, 3, 8}) {
    for (int T = 0; T < Tasks; ++T) {
      TaskRange R = TaskRange::block(0, T, Tasks);
      EXPECT_EQ(R.Begin, 0);
      EXPECT_EQ(R.End, 0);
    }
  }
}

TEST(TaskRangeTest, MoreTasksThanItems) {
  constexpr std::int64_t Size = 3;
  constexpr int Tasks = 8;
  std::vector<int> Hits(Size, 0);
  for (int T = 0; T < Tasks; ++T) {
    TaskRange R = TaskRange::block(Size, T, Tasks);
    EXPECT_LE(R.Begin, R.End);
    EXPECT_GE(R.Begin, 0);
    EXPECT_LE(R.End, Size);
    for (std::int64_t I = R.Begin; I < R.End; ++I)
      ++Hits[static_cast<std::size_t>(I)];
  }
  for (std::int64_t I = 0; I < Size; ++I)
    EXPECT_EQ(Hits[static_cast<std::size_t>(I)], 1) << "index " << I;
}

TEST(TaskRangeTest, NonDivisibleSizesPartitionExactly) {
  for (std::int64_t Size : {1, 2, 5, 17, 100, 101, 1023}) {
    for (int Tasks : {1, 2, 3, 7, 16, 33}) {
      std::int64_t Covered = 0;
      std::int64_t PrevEnd = 0;
      for (int T = 0; T < Tasks; ++T) {
        TaskRange R = TaskRange::block(Size, T, Tasks);
        EXPECT_EQ(R.Begin, PrevEnd) << "blocks must tile contiguously";
        EXPECT_LE(R.End, Size);
        Covered += R.End - R.Begin;
        PrevEnd = R.End;
      }
      EXPECT_EQ(PrevEnd, Size);
      EXPECT_EQ(Covered, Size);
    }
  }
}

//===----------------------------------------------------------------------===//
// StealDeque protocol
//===----------------------------------------------------------------------===//

TEST(StealDequeTest, OwnerPopsLifoThiefStealsFifo) {
  StealDeque D;
  D.allocate(8);
  for (std::int64_t I = 0; I < 4; ++I)
    D.push(I);

  std::int64_t X = -1;
  ASSERT_EQ(D.steal(X), StealDeque::StealResult::Success);
  EXPECT_EQ(X, 0) << "thief takes the oldest chunk";
  ASSERT_TRUE(D.pop(X));
  EXPECT_EQ(X, 3) << "owner takes the newest chunk";
  ASSERT_TRUE(D.pop(X));
  EXPECT_EQ(X, 2);
  ASSERT_EQ(D.steal(X), StealDeque::StealResult::Success);
  EXPECT_EQ(X, 1);
  EXPECT_FALSE(D.pop(X));
  EXPECT_EQ(D.steal(X), StealDeque::StealResult::Empty);
  EXPECT_TRUE(D.empty());
}

TEST(StealDequeTest, ConcurrentThievesTakeEachChunkOnce) {
  constexpr std::int64_t NumChunks = 512;
  constexpr int NumThieves = 4;
  StealDeque D;
  D.allocate(NumChunks);
  for (std::int64_t I = 0; I < NumChunks; ++I)
    D.push(I);

  std::vector<std::atomic<int>> Taken(NumChunks);
  for (auto &A : Taken)
    A.store(0);

  std::vector<std::thread> Thieves;
  for (int T = 0; T < NumThieves; ++T)
    Thieves.emplace_back([&] {
      for (;;) {
        std::int64_t X;
        StealDeque::StealResult R = D.steal(X);
        if (R == StealDeque::StealResult::Empty)
          return;
        if (R == StealDeque::StealResult::Success)
          Taken[static_cast<std::size_t>(X)].fetch_add(1);
      }
    });
  // The owner pops concurrently, racing the thieves for the last chunks.
  std::int64_t OwnerTaken = 0;
  std::int64_t X;
  while (D.pop(X)) {
    Taken[static_cast<std::size_t>(X)].fetch_add(1);
    ++OwnerTaken;
  }
  for (auto &T : Thieves)
    T.join();

  for (std::int64_t I = 0; I < NumChunks; ++I)
    EXPECT_EQ(Taken[static_cast<std::size_t>(I)].load(), 1)
        << "chunk " << I << " dispatched wrong number of times";
  EXPECT_GE(OwnerTaken, 0);
}

//===----------------------------------------------------------------------===//
// LoopScheduler: dispatch exactly once, every chunk size
//===----------------------------------------------------------------------===//

/// One chunk size of the dispatch test. The points keep the names of the
/// distribution policies that work stealing replaced, so the test ids carry
/// over; each stands for the dispatch pattern closest to its namesake.
struct ChunkCase {
  std::int64_t Chunk;
};

const char *chunkCaseName(std::int64_t Chunk) {
  switch (Chunk) {
  case std::int64_t(1) << 30:
    return "static"; // each task's block is one chunk
  case 64:
    return "chunked"; // fine chunks
  case 1:
    return "chunkedGuided"; // one item per chunk, the finest tail
  default:
    return "stealing"; // the KernelConfig default, 1024
  }
}

class LoopSchedulerTest
    : public ::testing::TestWithParam<std::tuple<ChunkCase, int>> {};

/// Every index of every episode dispatched exactly once, under concurrent
/// tasks, odd sizes, and multiple barrier episodes reusing one scheduler.
TEST_P(LoopSchedulerTest, DispatchesEveryIndexExactlyOnce) {
  auto [Case, NumTasks] = GetParam();
  constexpr std::int64_t MaxItems = 10007; // prime: nothing divides evenly
  const std::int64_t Sizes[] = {MaxItems, 0, 1, 64, 4097, MaxItems / 3};

  LoopScheduler Sched(NumTasks, Case.Chunk, MaxItems, /*Instrument=*/true);
  ThreadPoolTaskSystem Pool(NumTasks);
  Barrier Bar(NumTasks);

  std::vector<std::atomic<int>> Hits(MaxItems);
  Pool.launch(NumTasks, [&](int TaskIdx, int TaskCount) {
    for (std::int64_t Size : Sizes) {
      if (TaskIdx == 0)
        for (std::int64_t I = 0; I < Size; ++I)
          Hits[static_cast<std::size_t>(I)].store(0,
                                                  std::memory_order_relaxed);
      Bar.wait();
      Sched.forRanges(Size, TaskIdx, TaskCount,
                      [&](std::int64_t B, std::int64_t E) {
                        ASSERT_LE(0, B);
                        ASSERT_LE(B, E);
                        ASSERT_LE(E, Size);
                        for (std::int64_t I = B; I < E; ++I)
                          Hits[static_cast<std::size_t>(I)].fetch_add(
                              1, std::memory_order_relaxed);
                      });
      Bar.wait(); // orders the episode reset before the next check
      if (TaskIdx == 0) {
        for (std::int64_t I = 0; I < Size; ++I)
          ASSERT_EQ(Hits[static_cast<std::size_t>(I)].load(
                        std::memory_order_relaxed),
                    1)
              << "index " << I << " of size " << Size;
      }
      Bar.wait();
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, LoopSchedulerTest,
    ::testing::Combine(::testing::Values(ChunkCase{std::int64_t(1) << 30},
                                         ChunkCase{64}, ChunkCase{1},
                                         ChunkCase{1024}),
                       ::testing::Values(1, 2, 4, 8)),
    [](const auto &Info) {
      return chunkCaseName(std::get<0>(Info.param).Chunk) + std::string("x") +
             std::to_string(std::get<1>(Info.param));
    });

#ifdef EGACS_STATS
/// At one task there is nothing to steal: the whole range is one call and
/// one dispatched chunk, whatever the chunk size (the serial baselines and
/// the tasks=1 op-count goldens rest on this).
TEST(LoopSchedulerSingleTask, WholeRangeInOneCall) {
  constexpr std::int64_t Size = 5000;
  LoopScheduler Sched(/*NumTasks=*/1, /*ChunkSize=*/16, Size);
  std::vector<std::pair<std::int64_t, std::int64_t>> Calls;
  std::uint64_t Before = statGet(Stat::ChunksDispatched);
  Sched.forRanges(Size, 0, 1, [&](std::int64_t B, std::int64_t E) {
    Calls.emplace_back(B, E);
  });
  ASSERT_EQ(Calls.size(), 1u);
  EXPECT_EQ(Calls[0].first, 0);
  EXPECT_EQ(Calls[0].second, Size);
  EXPECT_EQ(statGet(Stat::ChunksDispatched) - Before, 1u);

  Sched.forRanges(0, 0, 1, [&](std::int64_t, std::int64_t) {
    ADD_FAILURE() << "an empty range dispatches nothing";
  });
  EXPECT_EQ(statGet(Stat::ChunksDispatched) - Before, 1u);
}
#endif // EGACS_STATS

/// A scheduler sized from a SELL view's padded slot count covers a sweep
/// over every slot, padding included, and the view's node sweep visits
/// every node once (numNodes is not a multiple of the chunk height C).
TEST(LoopSchedulerSell, SizedFromSlotCountRunsFullSweep) {
  using BK = simd::ScalarBackend<8>;
  constexpr int NumTasks = 4;
  Csr G = uniformRandomGraph(1001, /*Degree=*/4, /*Seed=*/3);
  LayoutOptions Opts;
  Opts.SellChunk = BK::Width;
  Opts.SellSigma = 64;
  SellView V(G, Opts);
  const std::int64_t Slots = V.paddedSlots();
  ASSERT_GT(Slots, static_cast<std::int64_t>(V.numNodes()));

  LoopScheduler Sched(NumTasks, /*ChunkSize=*/3, Slots);
  ThreadPoolTaskSystem Pool(NumTasks);
  Barrier Bar(NumTasks);
  std::vector<std::atomic<int>> SlotHits(static_cast<std::size_t>(Slots));
  std::vector<std::atomic<int>> NodeHits(
      static_cast<std::size_t>(V.numNodes()));
  Pool.launch(NumTasks, [&](int TaskIdx, int TaskCount) {
    Sched.forRanges(Slots, TaskIdx, TaskCount,
                    [&](std::int64_t B, std::int64_t E) {
                      for (std::int64_t S = B; S < E; ++S)
                        SlotHits[static_cast<std::size_t>(S)].fetch_add(1);
                    });
    Bar.wait(); // orders the episode reset before the next loop
    PrefetchCounters C;
    forEachNodeSlice<BK>(
        V, Sched, TaskIdx, TaskCount, NoPrefetch, C,
        [&](simd::VInt<BK> Node, simd::VMask<BK> Act, std::int64_t) {
          const auto Ids = simd::spill(Node);
          std::uint64_t Bits = simd::maskBits(Act);
          while (Bits) {
            int L = __builtin_ctzll(Bits);
            Bits &= Bits - 1;
            NodeHits[static_cast<std::size_t>(Ids[L])].fetch_add(1);
          }
        });
  });
  for (std::int64_t S = 0; S < Slots; ++S)
    ASSERT_EQ(SlotHits[static_cast<std::size_t>(S)].load(), 1) << "slot " << S;
  for (NodeId N = 0; N < V.numNodes(); ++N)
    ASSERT_EQ(NodeHits[static_cast<std::size_t>(N)].load(), 1) << "node " << N;
}

/// Serial execution must not deadlock: every chunk size must complete when
/// the tasks of one episode run sequentially (SerialTaskSystem), which
/// forbids any wait-for-other-tasks loop inside forRanges.
TEST(LoopSchedulerSerial, NoDeadlockUnderSerialTasks) {
  for (std::int64_t Chunk : {16, 1000}) {
    constexpr int NumTasks = 4;
    constexpr std::int64_t Size = 1000;
    LoopScheduler Sched(NumTasks, Chunk, Size);
    SerialTaskSystem TS;
    std::vector<int> Hits(Size, 0);
    TS.launch(NumTasks, [&](int TaskIdx, int TaskCount) {
      Sched.forRanges(Size, TaskIdx, TaskCount,
                      [&](std::int64_t B, std::int64_t E) {
                        for (std::int64_t I = B; I < E; ++I)
                          ++Hits[static_cast<std::size_t>(I)];
                      });
    });
    for (std::int64_t I = 0; I < Size; ++I)
      ASSERT_EQ(Hits[static_cast<std::size_t>(I)], 1)
          << "chunk " << Chunk << " index " << I;
  }
}

#ifdef EGACS_STATS
/// Forces a steal deterministically: task 0 stalls inside its first chunk
/// while task 1 drains its own block and then steals the rest of task 0's.
/// A handshake makes the steal independent of thread timing: task 1 holds
/// its first chunk until task 0 is inside its stall (so task 0's deque is
/// seeded), and task 0 stalls until task 1 has run a chunk of task 0's
/// block. Both waits are bounded, so a broken handshake fails, not hangs.
TEST(LoopSchedulerStealing, StallingOwnerGetsRobbed) {
  constexpr int NumTasks = 2;
  constexpr std::int64_t Size = 1024;
  constexpr std::int64_t Chunk = 64;
  constexpr std::int64_t OwnerBlockEnd = Size / NumTasks;
  LoopScheduler Sched(NumTasks, Chunk, Size);
  ThreadPoolTaskSystem Pool(NumTasks);

  std::uint64_t StolenBefore = statGet(Stat::ChunksStolen);
  std::vector<std::atomic<int>> Hits(Size);
  for (auto &H : Hits)
    H.store(0);
  std::atomic<bool> OwnerStalled{false}, Robbed{false}, TimedOut{false};
  auto WaitFor = [&](const std::atomic<bool> &Flag) {
    auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!Flag.load()) {
      if (std::chrono::steady_clock::now() > Deadline) {
        TimedOut.store(true);
        return;
      }
      std::this_thread::yield();
    }
  };

  Pool.launch(NumTasks, [&](int TaskIdx, int TaskCount) {
    bool First = true;
    Sched.forRanges(Size, TaskIdx, TaskCount,
                    [&](std::int64_t B, std::int64_t E) {
                      if (TaskIdx == 0 && First) {
                        // A hub-vertex stand-in: stall until robbed.
                        OwnerStalled.store(true);
                        WaitFor(Robbed);
                      } else if (TaskIdx == 1) {
                        if (First)
                          WaitFor(OwnerStalled);
                        if (B < OwnerBlockEnd)
                          Robbed.store(true);
                      }
                      First = false;
                      for (std::int64_t I = B; I < E; ++I)
                        Hits[static_cast<std::size_t>(I)].fetch_add(1);
                    });
  });

  EXPECT_FALSE(TimedOut.load()) << "the steal handshake did not complete";
  for (std::int64_t I = 0; I < Size; ++I)
    ASSERT_EQ(Hits[static_cast<std::size_t>(I)].load(), 1) << "index " << I;
  EXPECT_GT(statGet(Stat::ChunksStolen), StolenBefore)
      << "task 1 should have stolen from the stalled task 0";
}
#endif // EGACS_STATS

//===----------------------------------------------------------------------===//
// Kernel-level: results stay correct at fine chunk sizes
//===----------------------------------------------------------------------===//

TEST(SchedKernels, BfsPrCcMatchReferenceUnderDynamicPolicies) {
  using BK = simd::NativeBackend;
  // 16384 nodes: every node sweep is 512 chunks of 32 (16384 of 1), so
  // every task has deque work to lose to thieves.
  Csr G = namedGraph("rmat", /*Scale=*/2);
  ThreadPoolTaskSystem Pool(4);
  for (std::int64_t Chunk : {32, 1}) {
    KernelConfig Cfg = KernelConfig::allOptimizations(Pool, 4);
    Cfg.ChunkSize = Chunk;
    EXPECT_TRUE(certified(
        verify::checkBfsDistances(G, /*Source=*/0, bfsWl<BK>(G, Cfg, 0))))
        << "chunk " << Chunk;
    EXPECT_TRUE(certified(
        verify::checkComponents(G, connectedComponents<BK>(G, Cfg))))
        << "chunk " << Chunk;
    EXPECT_TRUE(certified(verify::checkPageRank(
        G, pageRank<BK>(G, Cfg), Cfg.PrDamping, Cfg.PrTolerance)))
        << "chunk " << Chunk;
  }
}

TEST(SchedKernels, ParseTaskSystemKindRejectsUnknownNames) {
  EXPECT_EQ(parseTaskSystemKind("pool"), TaskSystemKind::Pool);
  EXPECT_EXIT(parseTaskSystemKind("bogus"), ::testing::ExitedWithCode(2),
              "unknown task system");
}

} // namespace
