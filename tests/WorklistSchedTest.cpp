//===- tests/WorklistSchedTest.cpp - Worklist and scheduler tests ---------===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
// Covers the Cooperative Conversion push paths (atomic counts of Table V),
// the nested-parallelism scheduler (equivalence with the per-lane loop and
// the utilization effect of Table IV), and the SPMD atomics.
//
//===----------------------------------------------------------------------===//

#include "engine/VertexMap.h"
#include "graph/Generators.h"
#include "sched/NestedParallelism.h"
#include "sched/VertexLoop.h"
#include "simd/Targets.h"
#include "worklist/Worklist.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <thread>

using namespace egacs;
using namespace egacs::simd;

namespace {

using BK = NativeBackend;

//===----------------------------------------------------------------------===//
// Worklist pushes.
//===----------------------------------------------------------------------===//

TEST(WorklistPush, NaiveAndCoopProduceSameMultiset) {
  Worklist A(256), B(256);
  VInt<BK> V = programIndex<BK>();
  VMask<BK> M = maskFromBits<BK>(0b1011);
  pushNaive<BK>(A, V, M);
  pushCoop<BK>(B, V, M);
  ASSERT_EQ(A.size(), 3);
  ASSERT_EQ(B.size(), 3);
  std::multiset<NodeId> SetA(A.items(), A.items() + A.size());
  std::multiset<NodeId> SetB(B.items(), B.items() + B.size());
  EXPECT_EQ(SetA, SetB);
  EXPECT_EQ(SetB, (std::multiset<NodeId>{0, 1, 3}));
}

TEST(WorklistPush, CoopUsesOneAtomicPerVector) {
#ifndef EGACS_STATS
  GTEST_SKIP() << "stats compiled out";
#endif
  statsReset();
  Worklist WL(1024);
  VInt<BK> V = programIndex<BK>();
  for (int I = 0; I < 10; ++I)
    pushCoop<BK>(WL, V, maskAll<BK>());
  EXPECT_EQ(statGet(Stat::AtomicPushes), 10u);
  EXPECT_EQ(statGet(Stat::ItemsPushed),
            static_cast<std::uint64_t>(10 * BK::Width));

  statsReset();
  Worklist WL2(1024);
  for (int I = 0; I < 10; ++I)
    pushNaive<BK>(WL2, V, maskAll<BK>());
  EXPECT_EQ(statGet(Stat::AtomicPushes),
            static_cast<std::uint64_t>(10 * BK::Width));
  statsReset();
}

TEST(WorklistPush, EmptyMaskPushesNothing) {
  statsReset();
  Worklist WL(64);
  pushCoop<BK>(WL, programIndex<BK>(), maskNone<BK>());
  EXPECT_EQ(WL.size(), 0);
  EXPECT_EQ(statGet(Stat::AtomicPushes), 0u);
  statsReset();
}

TEST(WorklistPush, LocalBufferFlushesWithOneAtomic) {
#ifndef EGACS_STATS
  GTEST_SKIP() << "stats compiled out";
#endif
  statsReset();
  Worklist WL(4096);
  LocalPushBuffer Local(512);
  VInt<BK> V = programIndex<BK>();
  for (int I = 0; I < 20; ++I)
    Local.push<BK>(V, maskAll<BK>());
  EXPECT_EQ(Local.size(), 20 * BK::Width);
  EXPECT_EQ(WL.size(), 0) << "nothing reaches the worklist before flush";
  EXPECT_EQ(statGet(Stat::AtomicPushes), 0u);
  Local.flush(WL);
  EXPECT_EQ(WL.size(), 20 * BK::Width);
  EXPECT_EQ(statGet(Stat::AtomicPushes), 1u);
  // Flushing an empty buffer is free.
  Local.flush(WL);
  EXPECT_EQ(statGet(Stat::AtomicPushes), 1u);
  statsReset();
}

TEST(WorklistPush, ConcurrentCoopPushesAreLossless) {
  Worklist WL(1 << 16);
  constexpr int Threads = 4, PerThread = 500;
  std::vector<std::thread> Pool;
  for (int T = 0; T < Threads; ++T)
    Pool.emplace_back([&WL, T] {
      VInt<BK> V = splat<BK>(T);
      for (int I = 0; I < PerThread; ++I)
        pushCoop<BK>(WL, V, maskAll<BK>());
    });
  for (std::thread &Th : Pool)
    Th.join();
  ASSERT_EQ(WL.size(), Threads * PerThread * BK::Width);
  std::map<NodeId, int> Counts;
  for (std::int32_t I = 0; I < WL.size(); ++I)
    ++Counts[WL[I]];
  for (int T = 0; T < Threads; ++T)
    EXPECT_EQ(Counts[T], PerThread * BK::Width);
}

TEST(WorklistCapacity, ReserveUpToExactCapacitySucceeds) {
  // Filling the list to exactly its capacity is legal; the overflow check
  // fires only one element past.
  Worklist WL(2 * BK::Width);
  VInt<BK> V = programIndex<BK>();
  pushCoop<BK>(WL, V, maskAll<BK>());
  pushCoop<BK>(WL, V, maskAll<BK>());
  EXPECT_EQ(static_cast<std::size_t>(WL.size()), WL.capacity());
  // Same for the serial path and a direct full-size reservation.
  Worklist WL2(8);
  for (int I = 0; I < 8; ++I)
    WL2.pushSerial(I);
  EXPECT_EQ(WL2.size(), 8);
  Worklist WL3(8);
  EXPECT_EQ(WL3.reserve(8), 0);
  EXPECT_EQ(WL3.size(), 8);
}

#ifndef NDEBUG
TEST(WorklistCapacityDeath, ReservePastCapacityDiesWithMessage) {
  Worklist WL(4);
  WL.reserve(4);
  EXPECT_DEATH(WL.reserve(1), "worklist overflow");
}

TEST(WorklistCapacityDeath, PushSerialPastCapacityDiesWithMessage) {
  Worklist WL(1);
  WL.pushSerial(7);
  EXPECT_DEATH(WL.pushSerial(8), "worklist overflow");
}
#endif // NDEBUG

TEST(WorklistPair, SwapExchangesRoles) {
  WorklistPair WL(16);
  WL.in().pushSerial(1);
  WL.out().pushSerial(2);
  WL.swap();
  EXPECT_EQ(WL.in().size(), 1);
  EXPECT_EQ(WL.in()[0], 2);
  EXPECT_EQ(WL.out().size(), 0) << "new out list must be cleared";
}

//===----------------------------------------------------------------------===//
// Vertex loops.
//===----------------------------------------------------------------------===//

TEST(VertexLoops, WorklistRangeCoversWithTailMask) {
  std::vector<NodeId> Items(37);
  for (std::size_t I = 0; I < Items.size(); ++I)
    Items[I] = static_cast<NodeId>(100 + I);
  Csr G = uniformRandomGraph(8, /*Degree=*/2, /*Seed=*/1);
  KernelConfig Cfg;
  Cfg.Fibers = false;
  PrefetchCounters C;
  const std::int64_t N = static_cast<std::int64_t>(Items.size());
  std::vector<NodeId> Seen;
  forEachWorklistRange<BK>(Cfg, CsrView(G), Items.data(), N, 0, N,
                           /*TaskCount=*/1, NoPrefetch, C,
                           [&](VInt<BK> V, VMask<BK> M) {
                             std::uint64_t Bits = maskBits(M);
                             for (int L = 0; L < BK::Width; ++L)
                               if ((Bits >> L) & 1)
                                 Seen.push_back(extract(V, L));
                           });
  EXPECT_EQ(Seen, Items);
}

TEST(VertexLoops, ForEachNodeVectorEnumeratesRange) {
  Csr G = uniformRandomGraph(64, /*Degree=*/2, /*Seed=*/1);
  PrefetchCounters C;
  std::vector<NodeId> Seen;
  forEachNodeVector<BK>(CsrView(G), 5, 42, NoPrefetch, C,
                        [&](VInt<BK> V, VMask<BK> M, std::int64_t) {
                          std::uint64_t Bits = maskBits(M);
                          for (int L = 0; L < BK::Width; ++L)
                            if ((Bits >> L) & 1)
                              Seen.push_back(extract(V, L));
                        });
  ASSERT_EQ(Seen.size(), 37u);
  for (std::size_t I = 0; I < Seen.size(); ++I)
    EXPECT_EQ(Seen[I], static_cast<NodeId>(5 + I));
}

//===----------------------------------------------------------------------===//
// Edge schedulers: plain vs nested parallelism.
//===----------------------------------------------------------------------===//

/// Collects (src, dst, edge) triples through a scheduler.
template <typename VisitFnT>
std::multiset<std::tuple<NodeId, NodeId, EdgeId>>
collectEdges(VisitFnT &&Visit) {
  std::multiset<std::tuple<NodeId, NodeId, EdgeId>> Out;
  auto OnEdge = [&](VInt<BK> Src, VInt<BK> Dst, VInt<BK> Edge,
                    VMask<BK> Act) {
    std::uint64_t Bits = maskBits(Act);
    for (int L = 0; L < BK::Width; ++L)
      if ((Bits >> L) & 1)
        Out.insert({extract(Src, L), extract(Dst, L), extract(Edge, L)});
  };
  Visit(OnEdge);
  return Out;
}

TEST(EdgeSchedulers, NpVisitsExactlyTheSameEdgesAsPlain) {
  Csr G = rmatGraph(8, 8, 55); // skewed: exercises all three NP bins
  PrefetchCounters C;
  auto Plain = collectEdges([&](auto &&OnEdge) {
    forEachNodeVector<BK>(CsrView(G), 0, G.numNodes(), NoPrefetch, C,
                          [&](VInt<BK> N, VMask<BK> M, std::int64_t) {
                            plainForEachEdge<BK>(G, N, M, OnEdge);
                          });
  });
  auto Np = collectEdges([&](auto &&OnEdge) {
    NpScratch Scratch(512);
    forEachNodeVector<BK>(CsrView(G), 0, G.numNodes(), NoPrefetch, C,
                          [&](VInt<BK> N, VMask<BK> M, std::int64_t) {
                            npForEachEdge<BK>(G, N, M, Scratch, OnEdge);
                          });
    Scratch.flush<BK>(G, OnEdge);
  });
  EXPECT_EQ(Plain.size(), static_cast<std::size_t>(G.numEdges()));
  EXPECT_EQ(Plain, Np);
}

TEST(EdgeSchedulers, NpImprovesLaneUtilizationOnSkewedGraphs) {
#ifndef EGACS_STATS
  GTEST_SKIP() << "stats compiled out";
#endif
  Csr G = rmatGraph(9, 8, 77);
  auto Utilization = [&](bool UseNp) {
    statsReset();
    setOpCounting(true);
    auto OnEdge = [](VInt<BK>, VInt<BK>, VInt<BK>, VMask<BK>) {};
    NpScratch Scratch(4096);
    PrefetchCounters C;
    forEachNodeVector<BK>(CsrView(G), 0, G.numNodes(), NoPrefetch, C,
                          [&](VInt<BK> N, VMask<BK> M, std::int64_t) {
                            if (UseNp)
                              npForEachEdge<BK>(G, N, M, Scratch, OnEdge);
                            else
                              plainForEachEdge<BK>(G, N, M, OnEdge);
                          });
    if (UseNp)
      Scratch.flush<BK>(G, OnEdge);
    setOpCounting(false);
    double Util = static_cast<double>(statGet(Stat::InnerActiveLanes)) /
                  static_cast<double>(statGet(Stat::InnerTotalLanes));
    statsReset();
    return Util;
  };
  double PlainUtil = Utilization(false);
  double NpUtil = Utilization(true);
  EXPECT_GT(NpUtil, PlainUtil + 0.15)
      << "plain=" << PlainUtil << " np=" << NpUtil;
  EXPECT_GT(NpUtil, 0.80);
}

//===----------------------------------------------------------------------===//
// SPMD atomics.
//===----------------------------------------------------------------------===//

TEST(SpmdAtomics, VectorMinReportsWinners) {
  std::vector<std::int32_t> Data(BK::Width, 100);
  VInt<BK> Idx = programIndex<BK>();
  // Half the lanes improve, half do not.
  VInt<BK> Val =
      select<BK>(maskFromBits<BK>(0x5555555555555555ull & ((1ull << BK::Width) - 1)),
                 splat<BK>(50), splat<BK>(200));
  VMask<BK> Won = atomicMinVector<BK>(Data.data(), Idx, Val, maskAll<BK>());
  for (int L = 0; L < BK::Width; ++L) {
    bool Expected = L % 2 == 0;
    EXPECT_EQ(((maskBits(Won) >> L) & 1) != 0, Expected) << L;
    EXPECT_EQ(Data[static_cast<std::size_t>(L)], Expected ? 50 : 100);
  }
}

TEST(SpmdAtomics, VectorAddReturnsOldValues) {
  std::vector<std::int32_t> Data(BK::Width);
  for (int I = 0; I < BK::Width; ++I)
    Data[static_cast<std::size_t>(I)] = I * 10;
  VInt<BK> Old = atomicAddVector<BK>(Data.data(), programIndex<BK>(),
                                     splat<BK>(1), maskAll<BK>());
  for (int L = 0; L < BK::Width; ++L) {
    EXPECT_EQ(extract(Old, L), L * 10);
    EXPECT_EQ(Data[static_cast<std::size_t>(L)], L * 10 + 1);
  }
}

TEST(SpmdAtomics, CasVectorOnlyWinsWhenExpectedMatches) {
  std::vector<std::int32_t> Data(BK::Width, 7);
  Data[0] = 9;
  VMask<BK> Won = atomicCasVector<BK>(Data.data(), programIndex<BK>(),
                                      splat<BK>(7), splat<BK>(42),
                                      maskAll<BK>());
  EXPECT_EQ(((maskBits(Won) >> 0) & 1), 0u);
  EXPECT_EQ(Data[0], 9);
  for (int L = 1; L < BK::Width; ++L)
    EXPECT_EQ(Data[static_cast<std::size_t>(L)], 42);
}

TEST(SpmdAtomics, ReduceThenAtomicAddsOnce) {
  std::int32_t Cell = 100;
  VInt<BK> V = programIndex<BK>();
  std::int32_t Old = atomicAddReduce<BK>(&Cell, V, maskAll<BK>());
  EXPECT_EQ(Old, 100);
  std::int32_t ExpectedSum = BK::Width * (BK::Width - 1) / 2;
  EXPECT_EQ(Cell, 100 + ExpectedSum);
}

TEST(SpmdAtomics, ConcurrentFloatAddsAreLossless) {
  float Cell = 0.0f;
  constexpr int Threads = 4, PerThread = 10000;
  std::vector<std::thread> Pool;
  for (int T = 0; T < Threads; ++T)
    Pool.emplace_back([&Cell] {
      for (int I = 0; I < PerThread; ++I)
        atomicAddGlobalF(&Cell, 1.0f);
    });
  for (std::thread &Th : Pool)
    Th.join();
  EXPECT_FLOAT_EQ(Cell, static_cast<float>(Threads * PerThread));
}

TEST(SpmdAtomics, Min64PacksUniqueKeys) {
  std::int64_t Cell = std::numeric_limits<std::int64_t>::max();
  EXPECT_TRUE(atomicMinGlobal64(&Cell, (5ll << 32) | 7));
  EXPECT_FALSE(atomicMinGlobal64(&Cell, (5ll << 32) | 9));
  EXPECT_TRUE(atomicMinGlobal64(&Cell, (5ll << 32) | 3));
  EXPECT_EQ(Cell >> 32, 5);
  EXPECT_EQ(Cell & 0xffffffff, 3);
}

} // namespace
