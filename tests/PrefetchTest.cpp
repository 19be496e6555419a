//===- tests/PrefetchTest.cpp - Prefetch pipeline tests -------------------===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
// Covers the latency-hiding prefetch pipeline (sched/Prefetch.h): the SFINAE
// no-op degradation of the simd prefetch hooks, the policy parser, the
// prefetch statistics, and single-task bit identity -- staging is a pure
// scheduling hint, so with one task rows / rows+props must reproduce the
// none output exactly. Every kernel x layout x sched run under rows and
// rows+props is certified by the PrefetchParity suite of ConfigGridTest.cpp.
//
//===----------------------------------------------------------------------===//

#include "graph/Generators.h"
#include "graph/GraphView.h"
#include "kernels/Kernels.h"
#include "sched/Prefetch.h"
#include "simd/Backend.h"
#include "simd/Targets.h"
#include "support/Stats.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace egacs;
using namespace egacs::simd;

namespace {

//===----------------------------------------------------------------------===//
// Policy names and parsing.
//===----------------------------------------------------------------------===//

TEST(PrefetchPolicyNames, RoundTripAndReject) {
  EXPECT_EQ(parsePrefetchPolicy("none"), PrefetchPolicy::None);
  EXPECT_EQ(parsePrefetchPolicy("rows"), PrefetchPolicy::Rows);
  EXPECT_EQ(parsePrefetchPolicy("rows+props"), PrefetchPolicy::RowsProps);
  EXPECT_STREQ(prefetchPolicyName(PrefetchPolicy::None), "none");
  EXPECT_STREQ(prefetchPolicyName(PrefetchPolicy::Rows), "rows");
  EXPECT_STREQ(prefetchPolicyName(PrefetchPolicy::RowsProps), "rows+props");
  EXPECT_EXIT(parsePrefetchPolicy("bogus"), ::testing::ExitedWithCode(2),
              "unknown prefetch policy");
  EXPECT_EXIT(parsePrefetchPolicy("rowsprops"), ::testing::ExitedWithCode(2),
              "none\\|rows\\|rows\\+props");
}

//===----------------------------------------------------------------------===//
// SFINAE degradation of the simd hooks.
//===----------------------------------------------------------------------===//

/// A backend with neither prefetch hook: both wrappers must degrade to
/// no-ops without requiring any other backend surface.
struct NoPrefetchBackend {
  static constexpr int Width = 2;
  struct VInt {
    std::int32_t Lane[2];
  };
  struct Mask {
    std::uint64_t Bits;
  };
  static std::uint64_t maskBits(Mask M) { return M.Bits; }
};

static_assert(!hasNativePrefetch<NoPrefetchBackend>(),
              "a hookless backend must not report native prefetch");
static_assert(hasNativePrefetch<ScalarBackend<8>>(),
              "the scalar backend lowers prefetch to __builtin_prefetch");

TEST(PrefetchHooks, HooklessBackendDegradesToNoOp) {
  int X = 0;
  // Nothing observable to assert beyond "compiles and returns"; the SFINAE
  // fallback must swallow both the scalar hint and the per-lane walk.
  prefetch<NoPrefetchBackend>(&X);
  std::int32_t Arr[4] = {0, 1, 2, 3};
  detail::GatherPrefetchDetect<NoPrefetchBackend>::run(
      Arr, NoPrefetchBackend::VInt{{0, 3}}, NoPrefetchBackend::Mask{0b11}, 4);
  EXPECT_EQ(X, 0);
}

TEST(PrefetchHooks, HooksAreNotOpCounted) {
  // Prefetches are hints, not architectural SPMD ops: they must not perturb
  // the Fig 7 op counts even with counting enabled.
  statsReset();
  std::int32_t Arr[64] = {};
  using BK = ScalarBackend<8>;
  VInt<BK> Idx = programIndex<BK>();
  VMask<BK> M = maskAll<BK>();
  setOpCounting(true);
  StatsSnapshot Before = StatsSnapshot::capture();
  prefetch<BK>(Arr);
  gatherPrefetch<BK>(Arr, Idx, M);
  StatsSnapshot D = StatsSnapshot::capture() - Before;
  setOpCounting(false);
  EXPECT_EQ(D.get(Stat::SpmdOps), 0u);
  EXPECT_EQ(D.get(Stat::GatherOps), 0u);
  EXPECT_EQ(D.get(Stat::NeighborGatherLanes), 0u);
  statsReset();
}

//===----------------------------------------------------------------------===//
// Plan bookkeeping and counters.
//===----------------------------------------------------------------------===//

TEST(PrefetchPlanTest, AddPropSkipsNullAndOverflow) {
  PrefetchPlan PF;
  EXPECT_FALSE(PF.active());
  PF.Policy = PrefetchPolicy::Rows;
  EXPECT_TRUE(PF.active());
  EXPECT_FALSE(PF.wantProps());
  PF.Policy = PrefetchPolicy::RowsProps;
  EXPECT_TRUE(PF.wantProps());

  std::int32_t A = 0;
  PF.addProp(nullptr, 4, PrefetchIndexKind::Node);
  EXPECT_EQ(PF.NumProps, 0) << "null bases must be skipped";
  for (int I = 0; I < PrefetchPlan::MaxProps + 2; ++I)
    PF.addProp(&A, 4, PrefetchIndexKind::Dst);
  EXPECT_EQ(PF.NumProps, PrefetchPlan::MaxProps)
      << "registrations beyond MaxProps are dropped, not UB";
}

TEST(PrefetchCountersTest, DuplicateLinesAreSuppressed) {
#ifndef EGACS_STATS
  GTEST_SKIP() << "stats compiled out";
#endif
  statsReset();
  alignas(64) char Buf[256];
  {
    PrefetchCounters C;
    // Four requests into one line, then one into the next.
    for (int I = 0; I < 4; ++I)
      prefetchdetail::pfLine<ScalarBackend<8>>(Buf + I, C);
    prefetchdetail::pfLine<ScalarBackend<8>>(Buf + 64, C);
    EXPECT_EQ(C.Issued, 5u);
    EXPECT_EQ(C.Lines, 2u);
  } // flushes into the global stats on destruction
  EXPECT_EQ(statGet(Stat::PrefetchesIssued), 5u);
  EXPECT_EQ(statGet(Stat::PrefetchLinesTouched), 2u);
  statsReset();
}

//===----------------------------------------------------------------------===//
// End-to-end counter liveness through a kernel run.
//===----------------------------------------------------------------------===//

TEST(PrefetchKernels, StagedRunsIssuePrefetchesAndNoneDoesNot) {
#ifndef EGACS_STATS
  GTEST_SKIP() << "stats compiled out";
#endif
  Csr G = rmatGraph(/*Scale=*/9, /*EdgeFactor=*/6, /*Seed=*/9);
  TargetKind Target = targetSupported(TargetKind::Avx512x16)
                          ? TargetKind::Avx512x16
                          : TargetKind::Scalar8;
  ThreadPoolTaskSystem Pool(4);
  KernelConfig Cfg = KernelConfig::allOptimizations(Pool, 4);

  Cfg.Prefetch = PrefetchPolicy::None;
  statsReset();
  runKernel(KernelKind::Pr, Target, G, Cfg, 0);
  EXPECT_EQ(statGet(Stat::PrefetchesIssued), 0u)
      << "--prefetch=none must leave the pre-pipeline loops untouched";
  EXPECT_EQ(statGet(Stat::PrefetchLinesTouched), 0u);

  for (PrefetchPolicy P : {PrefetchPolicy::Rows, PrefetchPolicy::RowsProps}) {
    Cfg.Prefetch = P;
    Cfg.PrefetchDist = 8;
    statsReset();
    runKernel(KernelKind::Pr, Target, G, Cfg, 0);
    std::uint64_t Issued = statGet(Stat::PrefetchesIssued);
    std::uint64_t Lines = statGet(Stat::PrefetchLinesTouched);
    EXPECT_GT(Issued, 0u) << prefetchPolicyName(P);
    EXPECT_GT(Lines, 0u) << prefetchPolicyName(P);
    EXPECT_LE(Lines, Issued)
        << "duplicate-line suppression can only shrink the count";
  }
  statsReset();
}

//===----------------------------------------------------------------------===//
// Determinism: with one task the whole run is sequential, so staging must
// reproduce the none output bit for bit, floats included.
//===----------------------------------------------------------------------===//

TEST(PrefetchKernels, SingleTaskOutputsAreBitIdentical) {
  Csr Plain = rmatGraph(/*Scale=*/9, /*EdgeFactor=*/6, /*Seed=*/9);
  Csr Sorted = Plain.sortedByDestination();
  TargetKind Target = targetSupported(TargetKind::Avx512x16)
                          ? TargetKind::Avx512x16
                          : TargetKind::Scalar8;
  ThreadPoolTaskSystem Pool(1);
  for (KernelKind Kernel : AllKernels) {
    const Csr &G = kernelNeedsSortedAdjacency(Kernel) ? Sorted : Plain;
    for (LayoutKind Layout : AllLayoutKinds) {
      LayoutOptions Opts;
      Opts.SellChunk = targetWidth(Target);
      Opts.SellSigma = 128;
      AnyLayout L = AnyLayout::build(Layout, G, Opts);

      KernelConfig Cfg = KernelConfig::allOptimizations(Pool, 1);
      Cfg.Delta = 512;
      Cfg.Layout = Layout;
      Cfg.SellSigma = 128;
      Cfg.Prefetch = PrefetchPolicy::None;
      KernelOutput Ref = runKernel(Kernel, Target, L, Cfg, /*Source=*/0);

      for (PrefetchPolicy P :
           {PrefetchPolicy::Rows, PrefetchPolicy::RowsProps}) {
        for (int Dist : {0, 4}) {
          Cfg.Prefetch = P;
          Cfg.PrefetchDist = Dist;
          KernelOutput Out = runKernel(Kernel, Target, L, Cfg, /*Source=*/0);
          std::string Tag = std::string(kernelName(Kernel)) + " x " +
                            layoutName(Layout) + " x " +
                            prefetchPolicyName(P) + " dist=" +
                            std::to_string(Dist);
          ASSERT_EQ(Out.IntData, Ref.IntData) << Tag;
          ASSERT_EQ(Out.FloatData, Ref.FloatData) << Tag;
          ASSERT_EQ(Out.Scalar0, Ref.Scalar0) << Tag;
          ASSERT_EQ(Out.Scalar1, Ref.Scalar1) << Tag;
        }
      }
    }
  }
}

} // namespace
