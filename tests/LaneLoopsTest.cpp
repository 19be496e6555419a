//===- tests/LaneLoopsTest.cpp - Per-lane scalar loop conformance ---------===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
// Every per-lane scalar loop (the class-2 atomics of simd/Atomics.h, the
// naive worklist push, the bitmap frontier's vector set, and the update
// engine's privatized staging) is checked on every compiled
// backend against a scalar reference that walks the active lanes in
// ascending order. Inputs are random lane subsets over a few destinations,
// so duplicate indices within one vector are the common case. A last test
// pins the op counts each wrapper adds, which the Fig 7 counts depend on.
//
//===----------------------------------------------------------------------===//

#include "AllBackends.h"
#include "sched/UpdateEngine.h"
#include "simd/Atomics.h"
#include "support/Rng.h"
#include "worklist/BitmapFrontier.h"
#include "worklist/Worklist.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

using namespace egacs;
using namespace egacs::simd;

namespace {

constexpr int Rounds = 64;

/// One random vector operation: per-lane indices into \p Slots destinations,
/// two per-lane value operands, and an active-lane subset. Round 0 is
/// all-active and round 1 is empty, so both edge masks are always covered.
template <typename BK> struct LaneCase {
  static constexpr int W = BK::Width;
  std::int32_t Idx[64];
  std::int32_t Val[64];
  std::int32_t Aux[64];
  std::uint64_t Bits = 0;

  LaneCase(Xoshiro256 &Rng, int Round, int Slots, std::int32_t ValRange) {
    for (int L = 0; L < W; ++L) {
      Idx[L] = static_cast<std::int32_t>(
          Rng.nextBounded(static_cast<std::uint64_t>(Slots)));
      Val[L] = static_cast<std::int32_t>(
          Rng.nextBounded(static_cast<std::uint64_t>(ValRange)));
      Aux[L] = static_cast<std::int32_t>(
          Rng.nextBounded(static_cast<std::uint64_t>(ValRange)));
    }
    const std::uint64_t All = W == 64 ? ~0ull : (1ull << W) - 1;
    Bits = Round == 0 ? All : Round == 1 ? 0 : Rng.next() & All;
  }

  bool active(int L) const { return (Bits >> L) & 1; }
  VInt<BK> idx() const { return {BK::load(Idx)}; }
  VInt<BK> val() const { return {BK::load(Val)}; }
  VInt<BK> aux() const { return {BK::load(Aux)}; }
  VFloat<BK> valF() const { return {BK::toFloat(BK::load(Val))}; }
  VMask<BK> mask() const { return maskFromBits<BK>(Bits); }
};

/// Few destinations, so duplicate lanes are common at every width > 1.
template <typename BK> int slotsFor() { return BK::Width / 2 + 1; }

template <typename BK> std::vector<std::int32_t> lanesOf(VInt<BK> V) {
  std::vector<std::int32_t> Out(BK::Width);
  BK::store(Out.data(), V.V);
  return Out;
}

template <typename BK> std::vector<std::int32_t> randomMemory(Xoshiro256 &Rng) {
  std::vector<std::int32_t> Mem(static_cast<std::size_t>(slotsFor<BK>()));
  for (std::int32_t &X : Mem)
    X = static_cast<std::int32_t>(Rng.nextBounded(100));
  return Mem;
}

template <typename BK> class LaneLoops : public ::testing::Test {
protected:
  void SetUp() override {
    if (!backendRunnable<BK>())
      GTEST_SKIP() << BK::Name << " not supported on this CPU";
  }
};

TYPED_TEST_SUITE(LaneLoops, AllBackends);

TYPED_TEST(LaneLoops, GatherRelaxedMatchesGatherOnActiveLanes) {
  using BK = TypeParam;
  Xoshiro256 Rng(101);
  for (int R = 0; R < Rounds; ++R) {
    std::vector<std::int32_t> Table = randomMemory<BK>(Rng);
    LaneCase<BK> C(Rng, R, slotsFor<BK>(), 100);
    auto Relaxed =
        lanesOf<BK>(gatherRelaxed<BK>(Table.data(), C.idx(), C.mask()));
    auto Plain = lanesOf<BK>(gather<BK>(Table.data(), C.idx(), C.mask()));
    for (int L = 0; L < BK::Width; ++L) {
      if (C.active(L)) {
        EXPECT_EQ(Relaxed[L], Table[static_cast<std::size_t>(C.Idx[L])]);
        EXPECT_EQ(Relaxed[L], Plain[L]) << "lane " << L;
      } else {
        EXPECT_EQ(Relaxed[L], 0) << "inactive lane " << L;
      }
    }
  }
}

TYPED_TEST(LaneLoops, ScatterRelaxedMatchesScatterHighestLaneWins) {
  using BK = TypeParam;
  Xoshiro256 Rng(102);
  for (int R = 0; R < Rounds; ++R) {
    std::vector<std::int32_t> Relaxed = randomMemory<BK>(Rng);
    std::vector<std::int32_t> Plain = Relaxed, Ref = Relaxed;
    LaneCase<BK> C(Rng, R, slotsFor<BK>(), 1000);
    scatterRelaxed<BK>(Relaxed.data(), C.idx(), C.val(), C.mask());
    scatter<BK>(Plain.data(), C.idx(), C.val(), C.mask());
    for (int L = 0; L < BK::Width; ++L)
      if (C.active(L))
        Ref[static_cast<std::size_t>(C.Idx[L])] = C.Val[L];
    EXPECT_EQ(Relaxed, Ref);
    EXPECT_EQ(Relaxed, Plain);
  }
}

TYPED_TEST(LaneLoops, AtomicAddReturnsOldValuesInLaneOrder) {
  using BK = TypeParam;
  Xoshiro256 Rng(103);
  for (int R = 0; R < Rounds; ++R) {
    std::vector<std::int32_t> Mem = randomMemory<BK>(Rng);
    std::vector<std::int32_t> Ref = Mem;
    LaneCase<BK> C(Rng, R, slotsFor<BK>(), 50);
    auto Old = lanesOf<BK>(
        atomicAddVector<BK>(Mem.data(), C.idx(), C.val(), C.mask()));
    for (int L = 0; L < BK::Width; ++L) {
      std::int32_t Want = 0;
      if (C.active(L)) {
        std::int32_t &Cell = Ref[static_cast<std::size_t>(C.Idx[L])];
        Want = Cell;
        Cell += C.Val[L];
      }
      EXPECT_EQ(Old[L], Want) << "lane " << L;
    }
    EXPECT_EQ(Mem, Ref);
  }
}

TYPED_TEST(LaneLoops, AtomicMinWinnersAndMemoryMatchReference) {
  using BK = TypeParam;
  Xoshiro256 Rng(104);
  for (int R = 0; R < Rounds; ++R) {
    std::vector<std::int32_t> Mem = randomMemory<BK>(Rng);
    std::vector<std::int32_t> Ref = Mem;
    LaneCase<BK> C(Rng, R, slotsFor<BK>(), 100);
    std::uint64_t Won =
        maskBits(atomicMinVector<BK>(Mem.data(), C.idx(), C.val(), C.mask()));
    std::uint64_t WantWon = 0;
    for (int L = 0; L < BK::Width; ++L) {
      std::int32_t &Cell = Ref[static_cast<std::size_t>(C.Idx[L])];
      if (C.active(L) && C.Val[L] < Cell) {
        Cell = C.Val[L];
        WantWon |= 1ull << L;
      }
    }
    EXPECT_EQ(Won, WantWon);
    EXPECT_EQ(Mem, Ref);
  }
}

TYPED_TEST(LaneLoops, AtomicCasWinnersAndMemoryMatchReference) {
  using BK = TypeParam;
  Xoshiro256 Rng(105);
  for (int R = 0; R < Rounds; ++R) {
    // Memory, expected and desired values share a small range, so some
    // lanes match and a duplicate lane can see an earlier lane's write.
    std::vector<std::int32_t> Mem(static_cast<std::size_t>(slotsFor<BK>()));
    for (std::int32_t &X : Mem)
      X = static_cast<std::int32_t>(Rng.nextBounded(3));
    std::vector<std::int32_t> Ref = Mem;
    LaneCase<BK> C(Rng, R, slotsFor<BK>(), 3);
    std::uint64_t Won = maskBits(atomicCasVector<BK>(
        Mem.data(), C.idx(), C.val(), C.aux(), C.mask()));
    std::uint64_t WantWon = 0;
    for (int L = 0; L < BK::Width; ++L) {
      std::int32_t &Cell = Ref[static_cast<std::size_t>(C.Idx[L])];
      if (C.active(L) && Cell == C.Val[L]) {
        Cell = C.Aux[L];
        WantWon |= 1ull << L;
      }
    }
    EXPECT_EQ(Won, WantWon);
    EXPECT_EQ(Mem, Ref);
  }
}

TYPED_TEST(LaneLoops, AtomicAddFloatMatchesLaneOrderSum) {
  using BK = TypeParam;
  Xoshiro256 Rng(106);
  for (int R = 0; R < Rounds; ++R) {
    std::vector<float> Mem(static_cast<std::size_t>(slotsFor<BK>()));
    for (float &X : Mem)
      X = Rng.nextFloat();
    std::vector<float> Ref = Mem;
    LaneCase<BK> C(Rng, R, slotsFor<BK>(), 1000);
    VFloat<BK> V = C.valF() * splatF<BK>(0.001f);
    alignas(64) float VA[64];
    BK::storeF(VA, V.V);
    atomicAddVectorF<BK>(Mem.data(), C.idx(), V, C.mask());
    // Same additions in the same (ascending lane) order: bit-exact.
    for (int L = 0; L < BK::Width; ++L)
      if (C.active(L))
        Ref[static_cast<std::size_t>(C.Idx[L])] += VA[L];
    EXPECT_EQ(Mem, Ref);
  }
}

TYPED_TEST(LaneLoops, PushNaivePushesActiveLaneMultiset) {
  using BK = TypeParam;
  Xoshiro256 Rng(107);
  Worklist WL(static_cast<std::size_t>(Rounds * BK::Width));
  std::vector<std::int32_t> Want;
  for (int R = 0; R < Rounds; ++R) {
    LaneCase<BK> C(Rng, R, slotsFor<BK>(), 1000);
    pushNaive<BK>(WL, C.val(), C.mask());
    for (int L = 0; L < BK::Width; ++L)
      if (C.active(L))
        Want.push_back(C.Val[L]);
  }
  std::vector<std::int32_t> Got(WL.items(), WL.items() + WL.size());
  std::sort(Got.begin(), Got.end());
  std::sort(Want.begin(), Want.end());
  EXPECT_EQ(Got, Want);
}

TYPED_TEST(LaneLoops, BitmapSetVectorCountsFreshBitsOnRepeatedLanes) {
  using BK = TypeParam;
  Xoshiro256 Rng(108);
  // 40 nodes span two bitmap words; a round's lanes repeat nodes often.
  const NodeId N = 40;
  BitmapFrontier F(N);
  std::set<NodeId> Set;
  for (int R = 0; R < Rounds; ++R) {
    if (R % 8 == 0) {
      F.clearSerial();
      Set.clear();
    }
    LaneCase<BK> C(Rng, R, N, 1);
    int Fresh = F.setVector<BK>(C.idx(), C.mask());
    int WantFresh = 0;
    for (int L = 0; L < BK::Width; ++L)
      if (C.active(L))
        WantFresh += Set.insert(C.Idx[L]).second;
    EXPECT_EQ(Fresh, WantFresh) << "round " << R;
    for (NodeId Node = 0; Node < N; ++Node)
      EXPECT_EQ(F.test(Node), Set.count(Node) != 0) << "node " << Node;
  }
}

TYPED_TEST(LaneLoops, UpdateEngineStagedAddMatchesAtomic) {
  using BK = TypeParam;
  const std::int64_t Slots = 3 * BK::Width + 5;
  const int NumTasks = 2;
  // Integer-valued contributions: every policy's sum is exact, whatever
  // order its merge applies them in.
  auto Run = [&](UpdatePolicy P) {
    Xoshiro256 Rng(109);
    std::vector<float> Global(static_cast<std::size_t>(Slots), 0.0f);
    FloatAccumEngine Eng(P, Slots, NumTasks, /*Instrument=*/false);
    for (int R = 0; R < Rounds; ++R) {
      LaneCase<BK> C(Rng, R, static_cast<int>(Slots), 16);
      Eng.add<BK>(Global.data(), R % NumTasks, C.idx(), C.valF(), C.mask());
    }
    if (Eng.needsMerge()) {
      LoopScheduler Sched(NumTasks, /*ChunkSize=*/8, Slots);
      for (int T = 0; T < NumTasks; ++T)
        Eng.merge(Global.data(), Sched, T, NumTasks);
    }
    return Global;
  };
  const std::vector<float> Atomic = Run(UpdatePolicy::Atomic);
  EXPECT_EQ(Run(UpdatePolicy::Privatized), Atomic);
}

TYPED_TEST(LaneLoops, ConcurrentMinAndRelaxedAccessesAreRaceFree) {
  // Two threads relax the same few slots while reading them through
  // gatherRelaxed and blind-storing through scatterRelaxed to a second
  // array: every access is a per-lane relaxed atomic, so TSan stays quiet
  // and the min array ends at the minimum either thread offered.
  using BK = TypeParam;
  const int Slots = slotsFor<BK>();
  std::vector<std::int32_t> Min(static_cast<std::size_t>(Slots), 1 << 20);
  std::vector<std::int32_t> Blind(static_cast<std::size_t>(Slots), 0);
  std::vector<std::int32_t> Want(static_cast<std::size_t>(Slots), 1 << 20);
  std::vector<std::vector<LaneCase<BK>>> Scripts(2);
  for (int T = 0; T < 2; ++T) {
    Xoshiro256 Rng(200 + T);
    for (int R = 0; R < Rounds; ++R) {
      Scripts[T].emplace_back(Rng, R, Slots, 1 << 16);
      const LaneCase<BK> &C = Scripts[T].back();
      for (int L = 0; L < BK::Width; ++L)
        if (C.active(L)) {
          std::int32_t &W = Want[static_cast<std::size_t>(C.Idx[L])];
          W = std::min(W, C.Val[L]);
        }
    }
  }
  auto Work = [&](int T) {
    for (const LaneCase<BK> &C : Scripts[T]) {
      atomicMinVector<BK>(Min.data(), C.idx(), C.val(), C.mask());
      VInt<BK> Seen = gatherRelaxed<BK>(Min.data(), C.idx(), C.mask());
      scatterRelaxed<BK>(Blind.data(), C.idx(), Seen, C.mask());
    }
  };
  std::thread Other(Work, 1);
  Work(0);
  Other.join();
  EXPECT_EQ(Min, Want);
}

TYPED_TEST(LaneLoops, WrappersAddTheirOpCountsOnly) {
#ifndef EGACS_STATS
  GTEST_SKIP() << "stats compiled out";
#endif
  using BK = TypeParam;
  Xoshiro256 Rng(110);
  LaneCase<BK> C(Rng, 2, slotsFor<BK>(), 4);
  const VInt<BK> Idx = C.idx(), Val = C.val(), Aux = C.aux();
  const VFloat<BK> ValF = C.valF();
  const VMask<BK> M = C.mask();
  std::vector<std::int32_t> Mem = randomMemory<BK>(Rng);
  std::vector<float> MemF(Mem.size(), 0.0f);
  Worklist WL(static_cast<std::size_t>(BK::Width));
  BitmapFrontier F(static_cast<NodeId>(Mem.size()));
  FloatAccumEngine Priv(UpdatePolicy::Privatized,
                        static_cast<std::int64_t>(Mem.size()), 1, false);

  setOpCounting(true);
  // Want = {SpmdOps, GatherOps, ScatterOps} one call adds.
  auto Check = [](const char *What, std::array<std::uint64_t, 3> Want,
                  auto &&Fn) {
    StatsSnapshot Before = StatsSnapshot::capture();
    Fn();
    StatsSnapshot D = StatsSnapshot::capture() - Before;
    EXPECT_EQ(D.get(Stat::SpmdOps), Want[0]) << What;
    EXPECT_EQ(D.get(Stat::GatherOps), Want[1]) << What;
    EXPECT_EQ(D.get(Stat::ScatterOps), Want[2]) << What;
  };
  Check("gatherRelaxed", {1, 1, 0},
        [&] { gatherRelaxed<BK>(Mem.data(), Idx, M); });
  Check("scatterRelaxed", {1, 0, 1},
        [&] { scatterRelaxed<BK>(Mem.data(), Idx, Val, M); });
  Check("atomicAddVector", {1, 0, 0},
        [&] { atomicAddVector<BK>(Mem.data(), Idx, Val, M); });
  Check("atomicMinVector", {1, 0, 0},
        [&] { atomicMinVector<BK>(Mem.data(), Idx, Val, M); });
  Check("atomicCasVector", {1, 0, 0},
        [&] { atomicCasVector<BK>(Mem.data(), Idx, Val, Aux, M); });
  Check("atomicAddVectorF", {1, 0, 0},
        [&] { atomicAddVectorF<BK>(MemF.data(), Idx, ValF, M); });
  Check("pushNaive", {0, 0, 0}, [&] { pushNaive<BK>(WL, Val, M); });
  Check("setVector", {0, 0, 0}, [&] { F.setVector<BK>(Idx, M); });
  Check("privatized add", {0, 0, 0},
        [&] { Priv.add<BK>(MemF.data(), 0, Idx, ValF, M); });
  setOpCounting(false);
}

} // namespace
