//===- tests/UpdateEngineTest.cpp - Update-engine correctness tests -------===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
// Covers the contention-aware update engine (sched/UpdateEngine.h) and the
// conflict-combined atomic primitives (simd/Atomics.h):
//  * per-backend conflict detection and same-index combining semantics
//    (scalar lane loop and vpconflictd must agree bit-for-bit);
//  * the float-combining reassociation bound;
//  * FloatAccumEngine policy equivalence (Atomic == Combined == Privatized
//    up to float reassociation);
//  * Bořůvka's combined 64-bit min;
//  * parseUpdatePolicy's exit(2) contract.
// The cmpxchg-heavy kernels under every UpdatePolicy x chunk size are
// certified by the UpdateParity suite of ConfigGridTest.cpp.
//
//===----------------------------------------------------------------------===//

#include "AllBackends.h"
#include "OracleAssert.h"
#include "graph/Generators.h"
#include "kernels/Kernels.h"
#include "sched/UpdateEngine.h"
#include "simd/Atomics.h"
#include "simd/Targets.h"
#include "support/CpuInfo.h"
#include "support/Rng.h"
#include "verify/Oracle.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>
#include <string>
#include <utility>
#include <vector>

using namespace egacs;
using namespace egacs::simd;

namespace {

//===----------------------------------------------------------------------===//
// parseUpdatePolicy contract.
//===----------------------------------------------------------------------===//

TEST(UpdatePolicyParse, RoundTrips) {
  const UpdatePolicy Policies[] = {UpdatePolicy::Atomic,
                                   UpdatePolicy::Combined,
                                   UpdatePolicy::Privatized};
  for (UpdatePolicy P : Policies)
    EXPECT_EQ(parseUpdatePolicy(updatePolicyName(P)), P);
}

TEST(UpdatePolicyParse, UnknownNameExitsNonZero) {
  EXPECT_EXIT(parseUpdatePolicy("bogus"), ::testing::ExitedWithCode(2),
              "unknown update policy");
}

//===----------------------------------------------------------------------===//
// Per-backend conflict combining (typed over every compiled backend).
//===----------------------------------------------------------------------===//

template <typename BK> class ConflictCombineTest : public ::testing::Test {
protected:
  void SetUp() override {
    if (!backendRunnable<BK>())
      GTEST_SKIP() << BK::Name << " not supported on this CPU";
  }
};

TYPED_TEST_SUITE(ConflictCombineTest, AllBackends);

/// The conflict-detection hooks (vpconflictd on AVX512, broadcast compares
/// elsewhere) must find exactly the active lanes with an earlier active
/// duplicate, and fold each of them, in lane order, into the lowest active
/// lane holding its index.
TYPED_TEST(ConflictCombineTest, ConflictDetectMatchesReference) {
  using BK = TypeParam;
  constexpr int W = BK::Width;
  Xoshiro256 Rng(101);
  for (int Round = 0; Round < 64; ++Round) {
    alignas(64) std::int32_t IdxA[W];
    for (int L = 0; L < W; ++L)
      IdxA[L] = static_cast<std::int32_t>(Rng.nextBounded(5));
    const std::uint64_t Act = Rng.nextBounded(std::uint64_t(1) << W);
    std::uint64_t WantDup = 0;
    std::vector<std::pair<int, int>> WantFolds;
    for (int F = 0; F < W; ++F) {
      if (!((Act >> F) & 1))
        continue;
      for (int L = 0; L < F; ++L)
        if (((Act >> L) & 1) && IdxA[L] == IdxA[F]) {
          WantDup |= std::uint64_t(1) << F;
          WantFolds.emplace_back(L, F);
          break;
        }
    }
    VInt<BK> Idx = load<BK>(IdxA);
    const std::uint64_t Dup = detail::ConflictDetect<BK>::followers(
        Idx.V, IdxA, maskFromBits<BK>(Act).M);
    EXPECT_EQ(Dup, WantDup) << BK::Name << " round " << Round;
    std::vector<std::pair<int, int>> Folds;
    detail::foldFollowers<BK>(Idx.V, IdxA, Act, WantDup, [&](int L, int F) {
      Folds.emplace_back(L, F);
    });
    EXPECT_EQ(Folds, WantFolds) << BK::Name << " round " << Round;
  }
}

/// All lanes targeting one destination: the float combiner must issue a
/// single hardware CAS carrying the full in-register sum.
TYPED_TEST(ConflictCombineTest, AllLanesSameIndexFloatAdd) {
  using BK = TypeParam;
  constexpr int W = BK::Width;
  alignas(64) float Base[8] = {};
  alignas(64) float ValA[W];
  float Want = 0.0f;
  for (int L = 0; L < W; ++L) {
    ValA[L] = static_cast<float>(L + 1) * 0.25f;
    Want += ValA[L];
  }
#ifdef EGACS_STATS
  statsReset();
#endif
  atomicAddVectorFCombined<BK>(Base, splat<BK>(3), loadF<BK>(ValA),
                               maskAll<BK>());
  EXPECT_FLOAT_EQ(Base[3], Want);
  for (int I = 0; I < 8; ++I)
    if (I != 3) {
      EXPECT_EQ(Base[I], 0.0f);
    }
#ifdef EGACS_STATS
  if (W > 1) {
    EXPECT_EQ(statGet(Stat::CasAttempts), 1u) << BK::Name;
    EXPECT_EQ(statGet(Stat::CombinedLanesSaved),
              static_cast<std::uint64_t>(W - 1))
        << BK::Name;
  }
#endif
}

/// All lanes targeting one destination: the min combiner must issue one
/// CAS and mark exactly the lane holding the minimum as the winner.
TYPED_TEST(ConflictCombineTest, AllLanesSameIndexMinMarksMinLane) {
  using BK = TypeParam;
  constexpr int W = BK::Width;
  alignas(64) std::int32_t Base[8];
  for (int I = 0; I < 8; ++I)
    Base[I] = 100;
  alignas(64) std::int32_t ValA[W];
  for (int L = 0; L < W; ++L)
    ValA[L] = 50 - L; // strictly decreasing: the minimum sits in lane W-1
#ifdef EGACS_STATS
  statsReset();
#endif
  VMask<BK> Won = atomicMinVectorCombined<BK>(Base, splat<BK>(5),
                                              load<BK>(ValA), maskAll<BK>());
  EXPECT_EQ(Base[5], 50 - (W - 1));
  EXPECT_EQ(maskBits(Won), std::uint64_t(1) << (W - 1)) << BK::Name;
#ifdef EGACS_STATS
  if (W > 1) {
    EXPECT_EQ(statGet(Stat::CasAttempts), 1u) << BK::Name;
  }
#endif
  // Losing relaxation: nothing shrinks, nobody wins.
  VMask<BK> Lost = atomicMinVectorCombined<BK>(Base, splat<BK>(5),
                                               splat<BK>(99), maskAll<BK>());
  EXPECT_EQ(maskBits(Lost), 0u);
  EXPECT_EQ(Base[5], 50 - (W - 1));
}

/// Random duplicate patterns: combined-min must leave memory identical to
/// the per-lane loop and win exactly the same destination *set*; each won
/// lane is the lowest active lane holding its destination's minimum, and
/// every active lane beyond the first per destination counts as saved.
TYPED_TEST(ConflictCombineTest, MixedDuplicateMinMatchesPerLaneLoop) {
  using BK = TypeParam;
  constexpr int W = BK::Width;
  Xoshiro256 Rng(7);
  for (int Round = 0; Round < 128; ++Round) {
    std::int32_t PerLane[16], Combined[16];
    for (int I = 0; I < 16; ++I)
      PerLane[I] = Combined[I] =
          static_cast<std::int32_t>(Rng.nextBounded(60));
    alignas(64) std::int32_t IdxA[W], ValA[W];
    for (int L = 0; L < W; ++L) {
      IdxA[L] = static_cast<std::int32_t>(Rng.nextBounded(16));
      ValA[L] = static_cast<std::int32_t>(Rng.nextBounded(80));
    }
    std::uint64_t Bits =
        Rng.nextBounded(std::uint64_t(1) << W); // any lane subset
    VMask<BK> M = maskFromBits<BK>(Bits);
    VInt<BK> Idx = load<BK>(IdxA);
    VInt<BK> Val = load<BK>(ValA);

    VMask<BK> WonA = atomicMinVector<BK>(PerLane, Idx, Val, M);
#ifdef EGACS_STATS
    const std::uint64_t SavedBefore = statGet(Stat::CombinedLanesSaved);
#endif
    VMask<BK> WonC = atomicMinVectorCombined<BK>(Combined, Idx, Val, M);

    for (int I = 0; I < 16; ++I)
      EXPECT_EQ(PerLane[I], Combined[I]) << BK::Name << " round " << Round;

    std::set<std::int32_t> DstA, DstC, Active;
    std::uint64_t BA = maskBits(WonA), BC = maskBits(WonC);
    for (int L = 0; L < W; ++L) {
      if ((BA >> L) & 1)
        DstA.insert(IdxA[L]);
      if ((BC >> L) & 1)
        DstC.insert(IdxA[L]);
      if ((Bits >> L) & 1)
        Active.insert(IdxA[L]);
    }
    EXPECT_EQ(DstA, DstC) << BK::Name << " round " << Round;
    // Combined wins at most once per destination, and the winning lane is
    // the lowest active lane holding the minimum, which is now in memory.
    for (int L = 0; L < W; ++L) {
      if (!((BC >> L) & 1))
        continue;
      EXPECT_EQ(Combined[IdxA[L]], ValA[L]) << BK::Name;
      for (int E = 0; E < W; ++E)
        if (((Bits >> E) & 1) && IdxA[E] == IdxA[L]) {
          EXPECT_GE(ValA[E], ValA[L]) << BK::Name << " round " << Round;
          if (E < L) {
            EXPECT_GT(ValA[E], ValA[L]) << BK::Name << " round " << Round;
          }
        }
    }
#ifdef EGACS_STATS
    EXPECT_EQ(statGet(Stat::CombinedLanesSaved) - SavedBefore,
              static_cast<std::uint64_t>(__builtin_popcountll(Bits)) -
                  Active.size())
        << BK::Name << " round " << Round;
#endif
  }
}

/// Fills IdxA[0..W) with distinct indices in [0, 32) (a random permutation
/// prefix). With \p DupInactive, every lane outside \p Bits then repeats
/// the first active lane's index, so duplicates sit only in inactive lanes.
void distinctActiveIndices(Xoshiro256 &Rng, int W, std::uint64_t Bits,
                           bool DupInactive, std::int32_t *IdxA) {
  std::int32_t Perm[32];
  for (int I = 0; I < 32; ++I)
    Perm[I] = I;
  for (int I = 31; I > 0; --I)
    std::swap(Perm[I], Perm[Rng.nextBounded(I + 1)]);
  const int FirstActive = Bits ? __builtin_ctzll(Bits) : 0;
  for (int L = 0; L < W; ++L)
    IdxA[L] = Perm[L];
  if (DupInactive)
    for (int L = 0; L < W; ++L)
      if (!((Bits >> L) & 1))
        IdxA[L] = IdxA[FirstActive];
}

/// Active lanes with all-distinct indices take the fast path: the won mask,
/// memory and CAS counts match atomicMinVector bit for bit and nothing is
/// saved. Duplicates that sit only in inactive lanes must not leave it.
TYPED_TEST(ConflictCombineTest, DistinctActiveLanesMatchAtomicMin) {
  using BK = TypeParam;
  constexpr int W = BK::Width;
  Xoshiro256 Rng(23);
  for (int Round = 0; Round < 128; ++Round) {
    std::int32_t PerLane[32], Combined[32];
    for (int I = 0; I < 32; ++I)
      PerLane[I] = Combined[I] =
          static_cast<std::int32_t>(Rng.nextBounded(60));
    std::uint64_t Bits = Rng.nextBounded(std::uint64_t(1) << W);
    alignas(64) std::int32_t IdxA[W], ValA[W];
    distinctActiveIndices(Rng, W, Bits, Round % 2, IdxA);
    for (int L = 0; L < W; ++L)
      ValA[L] = static_cast<std::int32_t>(Rng.nextBounded(80));
    VMask<BK> M = maskFromBits<BK>(Bits);
    VInt<BK> Idx = load<BK>(IdxA);
    VInt<BK> Val = load<BK>(ValA);
    EXPECT_EQ(detail::ConflictDetect<BK>::followers(Idx.V, IdxA, M.M), 0u)
        << BK::Name << " round " << Round;

#ifdef EGACS_STATS
    statsReset();
#endif
    VMask<BK> WonA = atomicMinVector<BK>(PerLane, Idx, Val, M);
#ifdef EGACS_STATS
    const std::uint64_t CasA = statGet(Stat::CasAttempts);
    const std::uint64_t FailA = statGet(Stat::CasFailures);
    statsReset();
#endif
    VMask<BK> WonC = atomicMinVectorCombined<BK>(Combined, Idx, Val, M);
    EXPECT_EQ(maskBits(WonA), maskBits(WonC))
        << BK::Name << " round " << Round;
    for (int I = 0; I < 32; ++I)
      EXPECT_EQ(PerLane[I], Combined[I]) << BK::Name << " round " << Round;
#ifdef EGACS_STATS
    EXPECT_EQ(statGet(Stat::CasAttempts), CasA) << BK::Name;
    EXPECT_EQ(statGet(Stat::CasFailures), FailA) << BK::Name;
    EXPECT_EQ(statGet(Stat::CombinedLanesSaved), 0u) << BK::Name;
#endif
  }
}

/// The float-add counterpart: distinct active indices give bit-identical
/// sums (the same single atomic per lane) and save nothing.
TYPED_TEST(ConflictCombineTest, DistinctActiveLanesMatchAtomicFloatAdd) {
  using BK = TypeParam;
  constexpr int W = BK::Width;
  Xoshiro256 Rng(29);
  for (int Round = 0; Round < 128; ++Round) {
    float PerLane[32], Combined[32];
    for (int I = 0; I < 32; ++I)
      PerLane[I] = Combined[I] =
          static_cast<float>(Rng.nextBounded(1000)) / 7.0f;
    std::uint64_t Bits = Rng.nextBounded(std::uint64_t(1) << W);
    alignas(64) std::int32_t IdxA[W];
    alignas(64) float ValA[W];
    distinctActiveIndices(Rng, W, Bits, Round % 2, IdxA);
    for (int L = 0; L < W; ++L)
      ValA[L] = static_cast<float>(Rng.nextBounded(2000)) / 16.0f - 60.0f;
    VMask<BK> M = maskFromBits<BK>(Bits);
#ifdef EGACS_STATS
    statsReset();
#endif
    atomicAddVectorF<BK>(PerLane, load<BK>(IdxA), loadF<BK>(ValA), M);
    atomicAddVectorFCombined<BK>(Combined, load<BK>(IdxA), loadF<BK>(ValA),
                                 M);
    for (int I = 0; I < 32; ++I)
      EXPECT_EQ(PerLane[I], Combined[I])
          << BK::Name << " round " << Round << " slot " << I;
#ifdef EGACS_STATS
    EXPECT_EQ(statGet(Stat::CombinedLanesSaved), 0u) << BK::Name;
#endif
  }
}

/// Random duplicate patterns for float adds: identical destinations, sums
/// equal up to the recursive-summation reassociation bound.
TYPED_TEST(ConflictCombineTest, MixedDuplicateFloatAddWithinBound) {
  using BK = TypeParam;
  constexpr int W = BK::Width;
  Xoshiro256 Rng(13);
  for (int Round = 0; Round < 128; ++Round) {
    float PerLane[16] = {}, Combined[16] = {};
    alignas(64) std::int32_t IdxA[W];
    alignas(64) float ValA[W];
    float AbsSum = 0.0f;
    for (int L = 0; L < W; ++L) {
      IdxA[L] = static_cast<std::int32_t>(Rng.nextBounded(16));
      ValA[L] = static_cast<float>(Rng.nextBounded(2000)) / 16.0f - 60.0f;
      AbsSum += std::fabs(ValA[L]);
    }
    std::uint64_t Bits = Rng.nextBounded(std::uint64_t(1) << W);
    VMask<BK> M = maskFromBits<BK>(Bits);
    atomicAddVectorF<BK>(PerLane, load<BK>(IdxA), loadF<BK>(ValA), M);
#ifdef EGACS_STATS
    const std::uint64_t SavedBefore = statGet(Stat::CombinedLanesSaved);
#endif
    atomicAddVectorFCombined<BK>(Combined, load<BK>(IdxA), loadF<BK>(ValA),
                                 M);
    // (W-1) * eps * sum|v|: the recursive-summation error bound for at
    // most W reassociated terms (Higham, Accuracy and Stability, ch. 4).
    float Tol = static_cast<float>(W) * 1.2e-7f * AbsSum + 1e-12f;
    for (int I = 0; I < 16; ++I)
      EXPECT_NEAR(PerLane[I], Combined[I], Tol)
          << BK::Name << " round " << Round << " slot " << I;
#ifdef EGACS_STATS
    std::set<std::int32_t> Active;
    for (int L = 0; L < W; ++L)
      if ((Bits >> L) & 1)
        Active.insert(IdxA[L]);
    EXPECT_EQ(statGet(Stat::CombinedLanesSaved) - SavedBefore,
              static_cast<std::uint64_t>(__builtin_popcountll(Bits)) -
                  Active.size())
        << BK::Name << " round " << Round;
#endif
  }
}

//===----------------------------------------------------------------------===//
// Float reassociation bound, documented.
//===----------------------------------------------------------------------===//

/// Documents the tolerance contract of combined float accumulation: with K
/// lanes folded into one destination, the in-register pre-sum reassociates
/// the addition chain, and |combined - perlane| <= (K-1) * eps * sum|v|
/// (standard recursive-summation bound). PR's verifier tolerance (1e-4
/// relative) dominates this by orders of magnitude at W <= 16.
TEST(FloatCombining, ReassociationBoundDocumented) {
  using BK = ScalarBackend<16>;
  constexpr int W = BK::Width;
  constexpr float Eps = 1.19209290e-7f; // FLT_EPSILON
  Xoshiro256 Rng(42);
  for (int Round = 0; Round < 1000; ++Round) {
    alignas(64) float ValA[W];
    float AbsSum = 0.0f;
    for (int L = 0; L < W; ++L) {
      // Mixed magnitudes make reassociation error visible.
      float Mag = static_cast<float>(1 << Rng.nextBounded(12));
      ValA[L] = (static_cast<float>(Rng.nextBounded(1000)) / 500.0f - 1.0f) *
                Mag;
      AbsSum += std::fabs(ValA[L]);
    }
    float PerLane[4] = {}, Combined[4] = {};
    atomicAddVectorF<BK>(PerLane, splat<BK>(1), loadF<BK>(ValA),
                         maskAll<BK>());
    atomicAddVectorFCombined<BK>(Combined, splat<BK>(1), loadF<BK>(ValA),
                                 maskAll<BK>());
    float Bound = static_cast<float>(W - 1) * Eps * AbsSum;
    EXPECT_LE(std::fabs(PerLane[1] - Combined[1]), Bound + 1e-12f)
        << "round " << Round;
  }
}

//===----------------------------------------------------------------------===//
// FloatAccumEngine: all three policies agree (up to reassociation).
//===----------------------------------------------------------------------===//

TEST(FloatAccumEngine, AllPoliciesAgreeAfterMerge) {
  using BK = ScalarBackend<8>;
  constexpr int W = BK::Width;
  const std::int64_t N = 1000;
  const int NumTasks = 4;
  Xoshiro256 Rng(3);

  // One shared scatter script: (task, idx, val) triples.
  struct Op {
    int Task;
    std::int32_t Idx[W];
    float Val[W];
    std::uint64_t Mask;
  };
  std::vector<Op> Script;
  std::vector<double> Want(static_cast<std::size_t>(N), 0.0);
  for (int I = 0; I < 600; ++I) {
    Op O;
    O.Task = static_cast<int>(Rng.nextBounded(NumTasks));
    // Skew destinations toward a hub so conflicts trigger.
    for (int L = 0; L < W; ++L) {
      O.Idx[L] = Rng.nextBounded(4) == 0
                     ? 7
                     : static_cast<std::int32_t>(Rng.nextBounded(
                           static_cast<std::uint64_t>(N)));
      O.Val[L] = static_cast<float>(Rng.nextBounded(100)) / 8.0f;
    }
    O.Mask = Rng.nextBounded(std::uint64_t(1) << W);
    Script.push_back(O);
    for (int L = 0; L < W; ++L)
      if ((O.Mask >> L) & 1)
        Want[static_cast<std::size_t>(O.Idx[L])] +=
            static_cast<double>(O.Val[L]);
  }

  const UpdatePolicy Policies[] = {UpdatePolicy::Atomic,
                                   UpdatePolicy::Combined,
                                   UpdatePolicy::Privatized};
  for (UpdatePolicy P : Policies) {
    std::vector<float> Global(static_cast<std::size_t>(N), 0.0f);
    FloatAccumEngine Eng(P, N, NumTasks, /*Instrument=*/false);
    EXPECT_EQ(Eng.policy(), P);
    EXPECT_EQ(Eng.needsMerge(), P == UpdatePolicy::Privatized);
    for (const Op &O : Script)
      Eng.add<BK>(Global.data(), O.Task, load<BK>(O.Idx), loadF<BK>(O.Val),
                  maskFromBits<BK>(O.Mask));
    if (Eng.needsMerge()) {
      LoopScheduler Sched(NumTasks, /*ChunkSize=*/64, N);
      for (int T = 0; T < NumTasks; ++T)
        Eng.merge(Global.data(), Sched, T, NumTasks);
    }
    for (std::int64_t I = 0; I < N; ++I)
      EXPECT_NEAR(static_cast<double>(Global[static_cast<std::size_t>(I)]),
                  Want[static_cast<std::size_t>(I)],
                  1e-3 + 1e-5 * std::fabs(Want[static_cast<std::size_t>(I)]))
          << updatePolicyName(P) << " slot " << I;
  }
}

/// Two scatter/merge rounds: the merge pass must leave the private state
/// clean for the next round (PR iterates dozens of rounds).
TEST(FloatAccumEngine, MergeResetsStagedStateBetweenRounds) {
  using BK = ScalarBackend<4>;
  const std::int64_t N = 64;
  const int NumTasks = 2;
  std::vector<float> Global(static_cast<std::size_t>(N), 0.0f);
  FloatAccumEngine Eng(UpdatePolicy::Privatized, N, NumTasks, false);
  LoopScheduler Sched(NumTasks, /*ChunkSize=*/16, N);
  for (int Round = 0; Round < 2; ++Round) {
    const std::int32_t Idx[4] = {5, 5, 20, 63};
    const float Val[4] = {1.0f, 2.0f, 3.0f, 4.0f};
    Eng.add<BK>(Global.data(), /*TaskIdx=*/Round % NumTasks, load<BK>(Idx),
                loadF<BK>(Val), maskAll<BK>());
    for (int T = 0; T < NumTasks; ++T)
      Eng.merge(Global.data(), Sched, T, NumTasks);
  }
  EXPECT_FLOAT_EQ(Global[5], 2.0f * 3.0f);
  EXPECT_FLOAT_EQ(Global[20], 2.0f * 3.0f);
  EXPECT_FLOAT_EQ(Global[63], 2.0f * 4.0f);
}

//===----------------------------------------------------------------------===//
// Bořůvka's combined 64-bit min.
//===----------------------------------------------------------------------===//

TEST(UpdateMin64Combined, MatchesPerLaneLoop) {
  Xoshiro256 Rng(17);
  for (int Round = 0; Round < 256; ++Round) {
    std::int64_t PerLane[8], Combined[8];
    for (int I = 0; I < 8; ++I)
      PerLane[I] = Combined[I] =
          static_cast<std::int64_t>(Rng.nextBounded(1000)) << 32;
    std::int32_t Comp[16];
    std::int64_t Packed[16];
    for (int L = 0; L < 16; ++L) {
      Comp[L] = static_cast<std::int32_t>(Rng.nextBounded(8));
      Packed[L] = (static_cast<std::int64_t>(Rng.nextBounded(1200)) << 32) |
                  static_cast<std::int64_t>(L);
    }
    std::uint64_t Bits = Rng.nextBounded(std::uint64_t(1) << 16);

    std::uint64_t Tmp = Bits;
    while (Tmp) {
      int L = __builtin_ctzll(Tmp);
      Tmp &= Tmp - 1;
      atomicMinGlobal64(&PerLane[Comp[L]], Packed[L]);
    }
    updateMin64Combined(Combined, Comp, Packed, Bits);
    for (int I = 0; I < 8; ++I)
      EXPECT_EQ(PerLane[I], Combined[I]) << "round " << Round;
  }
}

#ifdef EGACS_STATS
//===----------------------------------------------------------------------===//
// Engine instrumentation: the new counters are live.
//===----------------------------------------------------------------------===//

TEST(UpdateEngineStats, ScatterAndMergeCritPathsRecorded) {
  ThreadPoolTaskSystem Pool(4);
  KernelConfig Cfg = KernelConfig::allOptimizations(Pool, 4);
  Cfg.Update = UpdatePolicy::Privatized;
  Cfg.SchedInstrument = true;
  Csr G = rmatGraph(/*Scale=*/9, /*EdgeFactor=*/6, /*Seed=*/9);
  statsReset();
  KernelOutput Out =
      runKernel(KernelKind::Pr, TargetKind::Scalar8, G, Cfg, 0);
  EXPECT_TRUE(
      certified(verify::checkKernelOutput(KernelKind::Pr, G, 0, Out, Cfg)));
  EXPECT_GT(statGet(Stat::UpdateScatterCritNanos), 0u);
  EXPECT_GT(statGet(Stat::UpdateMergeCritNanos), 0u);
  // Privatized PR's contribution scatter issues no CAS chains at all, and
  // the residual reduction is a per-task plain store reduced serially in
  // the advance, so a privatized pr run is CAS-free end to end.
  EXPECT_EQ(statGet(Stat::CasAttempts), 0u);
}

TEST(UpdateEngineStats, CombinedSavesLanesOnHubGraph) {
  ThreadPoolTaskSystem Pool(2);
  KernelConfig Cfg = KernelConfig::allOptimizations(Pool, 2);
  Cfg.Update = UpdatePolicy::Combined;
  Csr G = starGraph(33); // every edge targets the hub: maximal duplicates
  statsReset();
  KernelOutput Out =
      runKernel(KernelKind::Pr, TargetKind::Scalar8, G, Cfg, 0);
  EXPECT_TRUE(
      certified(verify::checkKernelOutput(KernelKind::Pr, G, 0, Out, Cfg)));
  EXPECT_GT(statGet(Stat::CombinedLanesSaved), 0u);
}
#endif // EGACS_STATS

} // namespace
