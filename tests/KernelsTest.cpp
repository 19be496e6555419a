//===- tests/KernelsTest.cpp - Kernel correctness integration tests -------===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
// Every benchmark kernel is run across SIMD targets, optimization bundles,
// task systems, and graph classes, and its output is checked against the
// serial oracles — the paper's "collect the outputs and check them against
// the reference output" methodology as a test suite.
//
//===----------------------------------------------------------------------===//

#include "graph/Generators.h"
#include "kernels/Kernels.h"
#include "simd/Targets.h"
#include "trace/Trace.h"
#include "verify/Oracle.h"

#include <gtest/gtest.h>

#include <string>
#include <tuple>

using namespace egacs;
using namespace egacs::simd;

namespace {

/// Prepares a named test graph (weights everywhere; sorted adjacency where
/// the kernel needs it).
Csr makeTestGraph(const std::string &Name, bool Sorted) {
  Csr G = [&] {
    if (Name == "path")
      return pathGraph(64, /*Weighted=*/true);
    if (Name == "cycle")
      return cycleGraph(37);
    if (Name == "star")
      return starGraph(33);
    if (Name == "road")
      return roadGraph(24, 17, 0.08, /*Seed=*/5);
    if (Name == "rmat")
      return rmatGraph(/*Scale=*/9, /*EdgeFactor=*/6, /*Seed=*/9);
    if (Name == "random")
      return uniformRandomGraph(1500, /*Degree=*/4, /*Seed=*/11);
    ADD_FAILURE() << "unknown test graph " << Name;
    return pathGraph(2);
  }();
  return Sorted ? G.sortedByDestination() : std::move(G);
}

struct KernelCase {
  KernelKind Kernel;
  TargetKind Target;
  std::string Graph;
};

class KernelCorrectness : public ::testing::TestWithParam<KernelCase> {};

TEST_P(KernelCorrectness, MatchesReference) {
  const KernelCase &C = GetParam();
  if (!targetSupported(C.Target))
    GTEST_SKIP() << "target not supported on this CPU";
  Csr G = makeTestGraph(C.Graph, kernelNeedsSortedAdjacency(C.Kernel));

  SerialTaskSystem Serial;
  KernelConfig Cfg = KernelConfig::allOptimizations(Serial, 1);
  Cfg.Delta = 512;
  KernelOutput Out = runKernel(C.Kernel, C.Target, G, Cfg, /*Source=*/0);
  EXPECT_TRUE(verifyKernelOutput(C.Kernel, G, 0, Out, Cfg))
      << kernelName(C.Kernel) << " on " << C.Graph << " with "
      << targetName(C.Target);
}

std::vector<KernelCase> allKernelCases() {
  const TargetKind Targets[] = {
      TargetKind::Scalar1, TargetKind::Scalar8,
#ifdef EGACS_HAVE_AVX2
      TargetKind::Avx2x4,  TargetKind::Avx2x8,  TargetKind::Avx2x16,
#endif
#ifdef EGACS_HAVE_AVX512
      TargetKind::Avx512x8, TargetKind::Avx512x16,
#endif
  };
  const char *Graphs[] = {"path", "cycle", "star", "road", "rmat", "random"};
  std::vector<KernelCase> Cases;
  for (KernelKind Kernel : AllKernels)
    for (TargetKind Target : Targets)
      for (const char *Graph : Graphs)
        Cases.push_back({Kernel, Target, Graph});
  return Cases;
}

std::string kernelCaseName(const ::testing::TestParamInfo<KernelCase> &Info) {
  std::string Name = kernelName(Info.param.Kernel);
  Name += "_";
  Name += targetName(Info.param.Target);
  Name += "_";
  Name += Info.param.Graph;
  for (char &C : Name)
    if (C == '-')
      C = '_';
  return Name;
}

INSTANTIATE_TEST_SUITE_P(AllKernelsTargetsGraphs, KernelCorrectness,
                         ::testing::ValuesIn(allKernelCases()),
                         kernelCaseName);

//===----------------------------------------------------------------------===//
// Optimization-combination sweep (the Fig 5 configurations must all agree).
//===----------------------------------------------------------------------===//

struct OptCase {
  bool Io, Np, Cc, Fibers;
};

class OptCombination : public ::testing::TestWithParam<OptCase> {};

TEST_P(OptCombination, AllKernelsCorrectUnderConfig) {
  const OptCase &C = GetParam();
  ThreadPoolTaskSystem Pool(4);
  KernelConfig Cfg = KernelConfig::unoptimized(Pool, 4);
  Cfg.IterationOutlining = C.Io;
  Cfg.NestedParallelism = C.Np;
  Cfg.CoopConversion = C.Cc;
  Cfg.Fibers = C.Fibers;
  Cfg.Delta = 512;

  TargetKind Target = targetSupported(TargetKind::Avx512x16)
                          ? TargetKind::Avx512x16
                          : TargetKind::Scalar8;
  for (KernelKind Kernel : AllKernels) {
    Csr G = makeTestGraph("rmat", kernelNeedsSortedAdjacency(Kernel));
    KernelOutput Out = runKernel(Kernel, Target, G, Cfg, /*Source=*/0);
    EXPECT_TRUE(verifyKernelOutput(Kernel, G, 0, Out, Cfg))
        << kernelName(Kernel) << " io=" << C.Io << " np=" << C.Np
        << " cc=" << C.Cc << " fib=" << C.Fibers;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Fig5Configs, OptCombination,
    ::testing::Values(OptCase{false, false, false, false},
                      OptCase{true, false, false, false},
                      OptCase{true, true, true, false},
                      OptCase{true, false, false, true},
                      OptCase{true, true, true, true},
                      OptCase{false, true, true, true}),
    [](const ::testing::TestParamInfo<OptCase> &Info) {
      std::string Name;
      Name += Info.param.Io ? "io" : "noio";
      Name += Info.param.Np ? "_np" : "_nonp";
      Name += Info.param.Cc ? "_cc" : "_nocc";
      Name += Info.param.Fibers ? "_fib" : "_nofib";
      return Name;
    });

//===----------------------------------------------------------------------===//
// Task systems: every tasking backend must produce identical results.
//===----------------------------------------------------------------------===//

class TaskSystemSweep : public ::testing::TestWithParam<TaskSystemKind> {};

TEST_P(TaskSystemSweep, BfsAndSsspCorrect) {
  auto TS = makeTaskSystem(GetParam(), 4);
  int NumTasks = GetParam() == TaskSystemKind::Serial ? 1 : 4;
  KernelConfig Cfg = KernelConfig::allOptimizations(*TS, NumTasks);
  Cfg.Delta = 512;
  Csr G = makeTestGraph("road", false);
  TargetKind Target = targetSupported(TargetKind::Avx2x8)
                          ? TargetKind::Avx2x8
                          : TargetKind::Scalar8;
  for (KernelKind Kernel : {KernelKind::BfsWl, KernelKind::SsspNf}) {
    KernelOutput Out = runKernel(Kernel, Target, G, Cfg, /*Source=*/3);
    EXPECT_TRUE(verifyKernelOutput(Kernel, G, 3, Out, Cfg))
        << kernelName(Kernel) << " on " << TS->name();
  }
}

INSTANTIATE_TEST_SUITE_P(AllTaskSystems, TaskSystemSweep,
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
// Determinism and miscellaneous kernel properties.
//===----------------------------------------------------------------------===//

TEST(KernelProperties, BfsVariantsAgree) {
  Csr G = makeTestGraph("rmat", false);
  SerialTaskSystem Serial;
  KernelConfig Cfg = KernelConfig::allOptimizations(Serial, 1);
  TargetKind Target = TargetKind::Scalar8;
  KernelOutput Wl = runKernel(KernelKind::BfsWl, Target, G, Cfg, 0);
  KernelOutput Cx = runKernel(KernelKind::BfsCx, Target, G, Cfg, 0);
  KernelOutput Tp = runKernel(KernelKind::BfsTp, Target, G, Cfg, 0);
  KernelOutput Hb = runKernel(KernelKind::BfsHb, Target, G, Cfg, 0);
  EXPECT_EQ(Wl.IntData, Cx.IntData);
  EXPECT_EQ(Wl.IntData, Tp.IntData);
  EXPECT_EQ(Wl.IntData, Hb.IntData);
}

TEST(KernelProperties, SsspDeltasAgree) {
  Csr G = makeTestGraph("road", false);
  SerialTaskSystem Serial;
  TargetKind Target = TargetKind::Scalar8;
  KernelOutput Baseline;
  bool First = true;
  for (std::int32_t Delta : {64, 512, 4096, 1 << 20}) {
    KernelConfig Cfg = KernelConfig::allOptimizations(Serial, 1);
    Cfg.Delta = Delta;
    KernelOutput Out = runKernel(KernelKind::SsspNf, Target, G, Cfg, 0);
    if (First) {
      Baseline = Out;
      First = false;
      EXPECT_TRUE(verifyKernelOutput(KernelKind::SsspNf, G, 0, Out, Cfg));
    } else {
      EXPECT_EQ(Baseline.IntData, Out.IntData) << "delta=" << Delta;
    }
  }
}

TEST(KernelProperties, CcFindsDisconnectedComponents) {
  // Two disjoint cycles: labels must be the two minimum ids.
  std::vector<RawEdge> Edges;
  for (NodeId N = 0; N < 10; ++N)
    Edges.push_back({N, static_cast<NodeId>((N + 1) % 10), 1});
  for (NodeId N = 10; N < 25; ++N)
    Edges.push_back(
        {N, static_cast<NodeId>(10 + (N - 10 + 1) % 15), 1});
  BuildOptions Opts;
  Opts.Symmetrize = true;
  Csr G = buildCsr(25, std::move(Edges), Opts);

  SerialTaskSystem Serial;
  KernelConfig Cfg = KernelConfig::allOptimizations(Serial, 1);
  KernelOutput Out =
      runKernel(KernelKind::Cc, TargetKind::Scalar8, G, Cfg, 0);
  for (NodeId N = 0; N < 10; ++N)
    EXPECT_EQ(Out.IntData[static_cast<std::size_t>(N)], 0);
  for (NodeId N = 10; N < 25; ++N)
    EXPECT_EQ(Out.IntData[static_cast<std::size_t>(N)], 10);
}

TEST(KernelProperties, TriangleCountsOnClosedForms) {
  SerialTaskSystem Serial;
  KernelConfig Cfg = KernelConfig::allOptimizations(Serial, 1);
  // K_n has n-choose-3 triangles.
  for (NodeId N : {4, 7, 12}) {
    Csr G = completeGraph(N).sortedByDestination();
    KernelOutput Out =
        runKernel(KernelKind::Tri, TargetKind::Scalar8, G, Cfg, 0);
    std::int64_t Expected =
        static_cast<std::int64_t>(N) * (N - 1) * (N - 2) / 6;
    EXPECT_EQ(Out.Scalar0, Expected) << "K_" << N;
  }
  // A star has none.
  Csr Star = starGraph(12).sortedByDestination();
  EXPECT_EQ(runKernel(KernelKind::Tri, TargetKind::Scalar8, Star, Cfg, 0)
                .Scalar0,
            0);
}

TEST(KernelProperties, MstOnPathIsWholePath) {
  Csr G = pathGraph(40, /*Weighted=*/true);
  SerialTaskSystem Serial;
  KernelConfig Cfg = KernelConfig::allOptimizations(Serial, 1);
  KernelOutput Out =
      runKernel(KernelKind::Mst, TargetKind::Scalar8, G, Cfg, 0);
  std::int64_t Expected = 0;
  for (std::int32_t I = 1; I < 40; ++I)
    Expected += I;
  EXPECT_EQ(Out.Scalar0, Expected);
  EXPECT_EQ(Out.Scalar1, 39);
}

TEST(KernelProperties, DisconnectedGraphsHandleUnreachableNodes) {
  // Two components plus isolated nodes; every kernel must stay correct.
  std::vector<RawEdge> Edges;
  for (NodeId N = 0; N + 1 < 40; ++N)
    Edges.push_back({N, static_cast<NodeId>(N + 1),
                     static_cast<Weight>(N % 7 + 1)});
  for (NodeId N = 50; N + 1 < 90; ++N)
    Edges.push_back({N, static_cast<NodeId>(N + 1),
                     static_cast<Weight>(N % 5 + 1)});
  BuildOptions Opts;
  Opts.Symmetrize = true;
  Csr G = buildCsr(100, std::move(Edges), Opts); // nodes 90..99 isolated

  SerialTaskSystem Serial;
  KernelConfig Cfg = KernelConfig::allOptimizations(Serial, 1);
  Cfg.Delta = 16;
  for (KernelKind Kernel : AllKernels) {
    Csr Prepared = kernelNeedsSortedAdjacency(Kernel)
                       ? G.sortedByDestination()
                       : Csr();
    const Csr &Use = kernelNeedsSortedAdjacency(Kernel) ? Prepared : G;
    KernelOutput Out = runKernel(Kernel, TargetKind::Scalar8, Use, Cfg, 0);
    EXPECT_TRUE(verifyKernelOutput(Kernel, Use, 0, Out, Cfg))
        << kernelName(Kernel);
  }
  // Unreachable nodes keep the sentinel distance.
  KernelOutput Bfs = runKernel(KernelKind::BfsWl, TargetKind::Scalar8, G,
                               Cfg, 0);
  EXPECT_EQ(Bfs.IntData[60], InfDist);
  EXPECT_EQ(Bfs.IntData[95], InfDist);
  EXPECT_NE(Bfs.IntData[39], InfDist);
}

TEST(KernelProperties, ManyTaskStress) {
  // 8 tasks on a skewed graph across several seeds: hunts for races in the
  // worklist, barrier, and atomic paths.
  TargetKind Target = targetSupported(TargetKind::Avx512x16)
                          ? TargetKind::Avx512x16
                          : TargetKind::Scalar8;
  for (std::uint64_t Seed : {101ull, 202ull, 303ull}) {
    Csr G = rmatGraph(9, 8, Seed);
    SpinPoolTaskSystem Pool(8);
    KernelConfig Cfg = KernelConfig::allOptimizations(Pool, 8);
    Cfg.Delta = 512;
    for (KernelKind Kernel :
         {KernelKind::BfsWl, KernelKind::BfsCx, KernelKind::Cc,
          KernelKind::SsspNf, KernelKind::Mis, KernelKind::Mst}) {
      KernelOutput Out = runKernel(Kernel, Target, G, Cfg, 0);
      EXPECT_TRUE(verifyKernelOutput(Kernel, G, 0, Out, Cfg))
          << kernelName(Kernel) << " seed " << Seed;
    }
  }
}

TEST(KernelProperties, SingleNodeAndTinyGraphs) {
  SerialTaskSystem Serial;
  KernelConfig Cfg = KernelConfig::allOptimizations(Serial, 1);
  // A single node with no edges.
  Csr One = buildCsr(1, {});
  EXPECT_EQ(runKernel(KernelKind::BfsWl, TargetKind::Scalar8, One, Cfg, 0)
                .IntData[0],
            0);
  EXPECT_EQ(runKernel(KernelKind::Cc, TargetKind::Scalar8, One, Cfg, 0)
                .IntData[0],
            0);
  KernelOutput Mis =
      runKernel(KernelKind::Mis, TargetKind::Scalar8, One, Cfg, 0);
  EXPECT_EQ(Mis.IntData[0], MisIn);
  // A single undirected edge.
  BuildOptions Opts;
  Opts.Symmetrize = true;
  Csr Pair = buildCsr(2, {{0, 1, 7}}, Opts);
  KernelOutput Sssp =
      runKernel(KernelKind::SsspNf, TargetKind::Scalar8, Pair, Cfg, 0);
  EXPECT_EQ(Sssp.IntData[1], 7);
  KernelOutput Mst =
      runKernel(KernelKind::Mst, TargetKind::Scalar8, Pair, Cfg, 0);
  EXPECT_EQ(Mst.Scalar0, 7);
  EXPECT_EQ(Mst.Scalar1, 1);
}

TEST(KernelProperties, PrMassConservation) {
  Csr G = makeTestGraph("random", false);
  SerialTaskSystem Serial;
  KernelConfig Cfg = KernelConfig::allOptimizations(Serial, 1);
  KernelOutput Out =
      runKernel(KernelKind::Pr, TargetKind::Scalar8, G, Cfg, 0);
  double Sum = 0.0;
  for (float R : Out.FloatData)
    Sum += R;
  // Symmetric connected-ish graph without sinks keeps total rank near 1.
  EXPECT_NEAR(Sum, 1.0, 0.05);
}

TEST(KernelProperties, PrConvergesBeforeRoundCapOnPartialVectors) {
#ifndef EGACS_TRACE
  GTEST_SKIP() << "round count needs EGACS_TRACE";
#else
  // 100 nodes leave 4 inactive lanes in the last vector at widths 8 and 16.
  // The residual must ignore them: their |New - Old| reads as the teleport
  // term (1-d)/N = 1.5e-3, above the 1e-4 tolerance, so a residual over all
  // lanes never converges and pr silently runs to its 50-round cap.
  Csr G = roadGraph(10, 10);
  for (TargetKind Target :
       {TargetKind::Scalar8, TargetKind::Avx2x8, TargetKind::Avx512x16}) {
    if (!targetSupported(Target))
      continue;
    SerialTaskSystem Serial;
    KernelConfig Cfg;
    Cfg.TS = &Serial;
    Cfg.NumTasks = 1;
    trace::TraceSession S;
    Cfg.Trace = &S;
    KernelOutput Out = runKernel(KernelKind::Pr, Target, G, Cfg, 0);
    EXPECT_LT(S.rounds().size(), 50u) << targetName(Target);
    verify::OracleResult Check =
        verify::checkKernelOutput(KernelKind::Pr, G, 0, Out, Cfg);
    EXPECT_TRUE(Check.Ok) << targetName(Target) << ": " << Check.Reason;
  }
#endif
}

} // namespace
