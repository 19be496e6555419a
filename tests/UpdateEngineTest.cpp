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
//    == Blocked up to float reassociation);
//  * Bořůvka's combined 64-bit min;
//  * kernel-vs-reference parity for the cmpxchg-heavy kernels under every
//    UpdatePolicy x SchedPolicy;
//  * parseUpdatePolicy's exit(2) contract.
//
//===----------------------------------------------------------------------===//

#include "AllBackends.h"
#include "graph/Generators.h"
#include "kernels/Kernels.h"
#include "sched/UpdateEngine.h"
#include "simd/Atomics.h"
#include "simd/Targets.h"
#include "support/CpuInfo.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>
#include <string>
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
                                   UpdatePolicy::Privatized,
                                   UpdatePolicy::Blocked};
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

/// The conflict-detection hook (vpconflictd on AVX512, a lane loop
/// elsewhere) must produce exactly the earlier-equal-lane bitmasks.
TYPED_TEST(ConflictCombineTest, ConflictDetectMatchesReference) {
  using BK = TypeParam;
  constexpr int W = BK::Width;
  Xoshiro256 Rng(101);
  for (int Round = 0; Round < 64; ++Round) {
    alignas(64) std::int32_t IdxA[W];
    for (int L = 0; L < W; ++L)
      IdxA[L] = static_cast<std::int32_t>(Rng.nextBounded(5));
    VInt<BK> Idx = load<BK>(IdxA);
    std::uint32_t Got[W];
    detail::ConflictDetect<BK>::run(Idx.V, Got);
    for (int L = 0; L < W; ++L) {
      std::uint32_t Want = 0;
      for (int E = 0; E < L; ++E)
        if (IdxA[E] == IdxA[L])
          Want |= 1u << E;
      EXPECT_EQ(Got[L], Want) << BK::Name << " lane " << L;
    }
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
    if (I != 3)
      EXPECT_EQ(Base[I], 0.0f);
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
  if (W > 1)
    EXPECT_EQ(statGet(Stat::CasAttempts), 1u) << BK::Name;
#endif
  // Losing relaxation: nothing shrinks, nobody wins.
  VMask<BK> Lost = atomicMinVectorCombined<BK>(Base, splat<BK>(5),
                                               splat<BK>(99), maskAll<BK>());
  EXPECT_EQ(maskBits(Lost), 0u);
  EXPECT_EQ(Base[5], 50 - (W - 1));
}

/// Random duplicate patterns: combined-min must leave memory identical to
/// the per-lane loop and win exactly the same destination *set*.
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
    VMask<BK> WonC = atomicMinVectorCombined<BK>(Combined, Idx, Val, M);

    for (int I = 0; I < 16; ++I)
      EXPECT_EQ(PerLane[I], Combined[I]) << BK::Name << " round " << Round;

    std::set<std::int32_t> DstA, DstC;
    std::uint64_t BA = maskBits(WonA), BC = maskBits(WonC);
    for (int L = 0; L < W; ++L) {
      if ((BA >> L) & 1)
        DstA.insert(IdxA[L]);
      if ((BC >> L) & 1)
        DstC.insert(IdxA[L]);
    }
    EXPECT_EQ(DstA, DstC) << BK::Name << " round " << Round;
    // Combined wins at most once per destination, and the winning lane's
    // value is the value now in memory.
    for (int L = 0; L < W; ++L)
      if ((BC >> L) & 1)
        EXPECT_EQ(Combined[IdxA[L]], ValA[L]) << BK::Name;
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
    atomicAddVectorFCombined<BK>(Combined, load<BK>(IdxA), loadF<BK>(ValA),
                                 M);
    // (W-1) * eps * sum|v|: the recursive-summation error bound for at
    // most W reassociated terms (Higham, Accuracy and Stability, ch. 4).
    float Tol = static_cast<float>(W) * 1.2e-7f * AbsSum + 1e-12f;
    for (int I = 0; I < 16; ++I)
      EXPECT_NEAR(PerLane[I], Combined[I], Tol)
          << BK::Name << " round " << Round << " slot " << I;
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
// FloatAccumEngine: all four policies agree (up to reassociation).
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
    // Skew destinations toward a hub so conflicts and bins both trigger.
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
                                   UpdatePolicy::Privatized,
                                   UpdatePolicy::Blocked};
  for (UpdatePolicy P : Policies) {
    std::vector<float> Global(static_cast<std::size_t>(N), 0.0f);
    FloatAccumEngine Eng(P, N, NumTasks, /*BlockNodes=*/128,
                         /*Instrument=*/false);
    EXPECT_EQ(Eng.policy(), P);
    EXPECT_EQ(Eng.needsMerge(), P == UpdatePolicy::Privatized ||
                                    P == UpdatePolicy::Blocked);
    for (const Op &O : Script)
      Eng.add<BK>(Global.data(), O.Task, load<BK>(O.Idx), loadF<BK>(O.Val),
                  maskFromBits<BK>(O.Mask));
    if (Eng.needsMerge()) {
      LoopScheduler Sched(SchedPolicy::Static, NumTasks, 64, false, N);
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
  for (UpdatePolicy P :
       {UpdatePolicy::Privatized, UpdatePolicy::Blocked}) {
    std::vector<float> Global(static_cast<std::size_t>(N), 0.0f);
    FloatAccumEngine Eng(P, N, NumTasks, /*BlockNodes=*/16, false);
    LoopScheduler Sched(SchedPolicy::Static, NumTasks, 16, false, N);
    for (int Round = 0; Round < 2; ++Round) {
      const std::int32_t Idx[4] = {5, 5, 20, 63};
      const float Val[4] = {1.0f, 2.0f, 3.0f, 4.0f};
      Eng.add<BK>(Global.data(), /*TaskIdx=*/Round % NumTasks,
                  load<BK>(Idx), loadF<BK>(Val), maskAll<BK>());
      for (int T = 0; T < NumTasks; ++T)
        Eng.merge(Global.data(), Sched, T, NumTasks);
    }
    EXPECT_FLOAT_EQ(Global[5], 2.0f * 3.0f);
    EXPECT_FLOAT_EQ(Global[20], 2.0f * 3.0f);
    EXPECT_FLOAT_EQ(Global[63], 2.0f * 4.0f);
  }
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

//===----------------------------------------------------------------------===//
// Kernel-vs-reference parity: UpdatePolicy x SchedPolicy.
//===----------------------------------------------------------------------===//

struct UpdateParityCase {
  KernelKind Kernel;
  UpdatePolicy Update;
  SchedPolicy Sched;
};

class UpdateParity : public ::testing::TestWithParam<UpdateParityCase> {};

TEST_P(UpdateParity, MatchesReference) {
  const UpdateParityCase &C = GetParam();
  ThreadPoolTaskSystem Pool(4);
  KernelConfig Cfg = KernelConfig::allOptimizations(Pool, 4);
  Cfg.Update = C.Update;
  Cfg.Sched = C.Sched;
  Cfg.ChunkSize = 64; // small enough to exercise chunking on test graphs
  Cfg.Delta = 512;
  Cfg.UpdateBlockNodes = 128; // several bins even at test scale

  TargetKind Target = targetSupported(TargetKind::Avx512x16)
                          ? TargetKind::Avx512x16
                          : TargetKind::Scalar8;
  Csr G = rmatGraph(/*Scale=*/9, /*EdgeFactor=*/6, /*Seed=*/9);
  if (kernelNeedsSortedAdjacency(C.Kernel))
    G = G.sortedByDestination();
  KernelOutput Out = runKernel(C.Kernel, Target, G, Cfg, /*Source=*/0);
  EXPECT_TRUE(verifyKernelOutput(C.Kernel, G, 0, Out, Cfg))
      << kernelName(C.Kernel) << " update=" << updatePolicyName(C.Update)
      << " sched=" << schedPolicyName(C.Sched);
}

std::vector<UpdateParityCase> updateParityCases() {
  const KernelKind Kernels[] = {KernelKind::Pr, KernelKind::Cc,
                                KernelKind::SsspNf, KernelKind::Mst,
                                KernelKind::BfsWl};
  const UpdatePolicy Updates[] = {UpdatePolicy::Atomic,
                                  UpdatePolicy::Combined,
                                  UpdatePolicy::Privatized,
                                  UpdatePolicy::Blocked};
  const SchedPolicy Scheds[] = {SchedPolicy::Static, SchedPolicy::Chunked,
                                SchedPolicy::Stealing};
  std::vector<UpdateParityCase> Cases;
  for (KernelKind K : Kernels)
    for (UpdatePolicy U : Updates)
      for (SchedPolicy S : Scheds)
        Cases.push_back({K, U, S});
  return Cases;
}

std::string
updateParityName(const ::testing::TestParamInfo<UpdateParityCase> &Info) {
  std::string Name = kernelName(Info.param.Kernel);
  Name += "_";
  Name += updatePolicyName(Info.param.Update);
  Name += "_";
  Name += schedPolicyName(Info.param.Sched);
  for (char &C : Name)
    if (C == '-')
      C = '_';
  return Name;
}

INSTANTIATE_TEST_SUITE_P(PolicyGrid, UpdateParity,
                         ::testing::ValuesIn(updateParityCases()),
                         updateParityName);

#ifdef EGACS_STATS
//===----------------------------------------------------------------------===//
// Engine instrumentation: the new counters are live.
//===----------------------------------------------------------------------===//

TEST(UpdateEngineStats, ScatterAndMergeCritPathsRecorded) {
  ThreadPoolTaskSystem Pool(4);
  KernelConfig Cfg = KernelConfig::allOptimizations(Pool, 4);
  Cfg.Update = UpdatePolicy::Blocked;
  Cfg.UpdateBlockNodes = 128;
  Cfg.SchedInstrument = true;
  Csr G = rmatGraph(/*Scale=*/9, /*EdgeFactor=*/6, /*Seed=*/9);
  statsReset();
  KernelOutput Out =
      runKernel(KernelKind::Pr, TargetKind::Scalar8, G, Cfg, 0);
  EXPECT_TRUE(verifyKernelOutput(KernelKind::Pr, G, 0, Out, Cfg));
  EXPECT_GT(statGet(Stat::UpdatePairsBinned), 0u);
  EXPECT_GT(statGet(Stat::UpdateScatterCritNanos), 0u);
  EXPECT_GT(statGet(Stat::UpdateMergeCritNanos), 0u);
  // Blocked PR's contribution scatter issues no CAS chains at all, and the
  // residual reduction is a per-task plain store reduced serially in the
  // advance, so a Blocked pr run is CAS-free end to end.
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
  EXPECT_TRUE(verifyKernelOutput(KernelKind::Pr, G, 0, Out, Cfg));
  EXPECT_GT(statGet(Stat::CombinedLanesSaved), 0u);
}
#endif // EGACS_STATS

} // namespace
