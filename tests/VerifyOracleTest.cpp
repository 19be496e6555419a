//===- tests/VerifyOracleTest.cpp - Semantic oracle tests -----------------===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
//===----------------------------------------------------------------------===//
//
// The oracles (src/verify/) are only trustworthy if they reject outputs a
// real kernel bug would produce. Each test here corrupts a known-correct
// result the way such a bug would — off-by-one BFS level, a self-consistent
// parent cycle in SSSP, merged CC labels, a non-maximal MIS, a shifted MST
// weight, a PageRank mass leak — and asserts the oracle fires. The config
// sampler's spec strings must round-trip exactly (that is what makes fuzz
// failures replayable), and the adversarial-graph transforms must preserve
// what they claim (self-loops and parallel edges survive buildCsr and
// transpose, and every kernel stays oracle-valid on such graphs).
//
//===----------------------------------------------------------------------===//

#include "graph/Generators.h"
#include "graph/Loader.h"
#include "kernels/Kernels.h"
#include "runtime/TaskSystem.h"
#include "verify/FuzzCampaign.h"
#include "verify/Oracle.h"
#include "verify/Shrinker.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

using namespace egacs;
using namespace egacs::verify;

namespace {

/// Two components: a star (source side) and a path (unreachable side).
Csr unionGraph() { return disconnectedUnion(starGraph(4), pathGraph(3, true)); }

/// Hop (and, at unit star weights, shortest) distances from node 0 on
/// unionGraph(): the centre, four leaves, then the unreachable path.
const std::vector<std::int32_t> UnionDist = {
    0, 1, 1, 1, 1, InfDist, InfDist, InfDist};

/// A serial scalar-x1 kernel run: the known-good mst and pr inputs.
KernelOutput scalarRun(KernelKind Kind, const Csr &G, float Damping = 0.85f,
                       float Tol = 1e-4f) {
  SerialTaskSystem TS;
  KernelConfig Cfg = KernelConfig::allOptimizations(TS, 1);
  Cfg.PrDamping = Damping;
  Cfg.PrTolerance = Tol;
  return runKernel(Kind, simd::TargetKind::Scalar1, G, Cfg, 0);
}

//===----------------------------------------------------------------------===//
// Each oracle rejects the corruption a real bug would produce.
//===----------------------------------------------------------------------===//

TEST(Oracles, BfsRejectsOffByOneLevel) {
  Csr G = unionGraph();
  EXPECT_TRUE(checkBfsDistances(G, 0, UnionDist).Ok);

  KernelOutput Out;
  Out.IntData = UnionDist;
  ASSERT_TRUE(injectFault(FaultKind::BfsOffByOne, KernelKind::BfsWl, G, 0, Out));
  OracleResult R = checkBfsDistances(G, 0, Out.IntData);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Reason.find("bfs"), std::string::npos) << R.Reason;
}

TEST(Oracles, BfsRejectsWrongSourceAndSize) {
  Csr G = starGraph(3);
  const std::vector<std::int32_t> Good = {0, 1, 1, 1};
  EXPECT_TRUE(checkBfsDistances(G, 0, Good).Ok);
  std::vector<std::int32_t> Dist = Good;
  Dist[0] = 1; // source must be at distance 0
  EXPECT_FALSE(checkBfsDistances(G, 0, Dist).Ok);
  Dist = Good;
  Dist.pop_back();
  EXPECT_FALSE(checkBfsDistances(G, 0, Dist).Ok);
}

TEST(Oracles, SsspRejectsSelfConsistentParentCycle) {
  // The injected labels are the unreachable component's true distances from
  // a phantom source inside it: every per-arc relaxation check passes, so
  // only the tight-arc parent-chain sweep from the real source can reject
  // them. This is the test that proves the sweep is load-bearing.
  Csr G = unionGraph();
  EXPECT_TRUE(checkSsspDistances(G, 0, UnionDist).Ok);
  ASSERT_TRUE(std::count(UnionDist.begin(), UnionDist.end(), InfDist) > 0)
      << "test graph must have an unreachable component";

  KernelOutput Out;
  Out.IntData = UnionDist;
  ASSERT_TRUE(
      injectFault(FaultKind::SsspParentCycle, KernelKind::SsspNf, G, 0, Out));
  OracleResult R = checkSsspDistances(G, 0, Out.IntData);
  EXPECT_FALSE(R.Ok);
}

TEST(Oracles, CcRejectsMergedLabels) {
  Csr G = unionGraph();
  const std::vector<std::int32_t> Labels = {0, 0, 0, 0, 0, 5, 5, 5};
  EXPECT_TRUE(checkComponents(G, Labels).Ok);

  KernelOutput Out;
  Out.IntData = Labels;
  ASSERT_TRUE(injectFault(FaultKind::CcMergedLabels, KernelKind::Cc, G, 0, Out));
  EXPECT_FALSE(checkComponents(G, Out.IntData).Ok);
}

TEST(Oracles, CcRejectsSplitComponent) {
  // The complementary bug: one component split into two labels.
  Csr G = pathGraph(4);
  std::vector<std::int32_t> Labels = {0, 0, 0, 0};
  EXPECT_TRUE(checkComponents(G, Labels).Ok);
  Labels[3] = 3; // split the tail off
  EXPECT_FALSE(checkComponents(G, Labels).Ok);
}

TEST(Oracles, MisRejectsNonMaximalAndDependentSets) {
  Csr G = pathGraph(4);
  // Greedy lexicographic MIS: {0, 2} with 1 and 3 covered.
  std::vector<std::int32_t> State = {MisIn, MisOut, MisIn, MisOut};
  EXPECT_TRUE(checkMis(G, State).Ok);

  KernelOutput Out;
  Out.IntData = State;
  ASSERT_TRUE(injectFault(FaultKind::MisNotMaximal, KernelKind::Mis, G, 0, Out));
  EXPECT_FALSE(checkMis(G, Out.IntData).Ok);

  std::vector<std::int32_t> Dependent = {MisIn, MisIn, MisOut, MisIn};
  EXPECT_FALSE(checkMis(G, Dependent).Ok);
  std::vector<std::int32_t> Undecided = {MisIn, MisOut, MisUndecided, MisIn};
  EXPECT_FALSE(checkMis(G, Undecided).Ok);
}

TEST(Oracles, MisRejectsSelfLoopMember) {
  Csr G = buildCsr(2, {{0, 0, 0}, {0, 1, 0}, {1, 0, 0}});
  std::vector<std::int32_t> Ok = {MisOut, MisIn};
  EXPECT_TRUE(checkMis(G, Ok).Ok);
  std::vector<std::int32_t> Bad = {MisIn, MisOut};
  EXPECT_FALSE(checkMis(G, Bad).Ok) << "a self-loop node can never be in";
}

TEST(Oracles, MstRejectsWrongWeightAndEdgeCount) {
  Csr G = withRandomWeights(unionGraph(), 10, 42);
  KernelOutput Mst = scalarRun(KernelKind::Mst, G);
  std::int64_t Weight = Mst.Scalar0, Edges = Mst.Scalar1;
  EXPECT_TRUE(checkMstWeight(G, Weight, Edges).Ok);
  EXPECT_FALSE(checkMstWeight(G, Weight + 1, Edges).Ok);
  EXPECT_FALSE(checkMstWeight(G, Weight, Edges + 1).Ok);
}

TEST(Oracles, PrRejectsMassLeak) {
  Csr G = starGraph(4);
  const float Damping = 0.5f, Tol = 1e-3f;
  KernelOutput Out = scalarRun(KernelKind::Pr, G, Damping, Tol);
  EXPECT_TRUE(checkPageRank(G, Out.FloatData, Damping, Tol).Ok);

  ASSERT_TRUE(injectFault(FaultKind::PrMassLeak, KernelKind::Pr, G, 0, Out));
  OracleResult R = checkPageRank(G, Out.FloatData, Damping, Tol);
  EXPECT_FALSE(R.Ok);
}

TEST(Oracles, TriRejectsWrongCountAndBadContract) {
  Csr G = completeGraph(5).sortedByDestination();
  const std::int64_t Count = 10; // 5 choose 3
  EXPECT_TRUE(checkTriangles(G, Count).Ok);
  EXPECT_FALSE(checkTriangles(G, Count + 1).Ok);
  EXPECT_FALSE(checkTriangles(G, Count - 1).Ok);
  // The kernel's contract is a simple destination-sorted graph; the oracle
  // must reject the contract violation rather than miscount quietly.
  Csr Loopy = buildCsr(3, {{0, 0, 0}, {0, 1, 0}, {1, 0, 0}});
  EXPECT_FALSE(checkTriangles(Loopy, 0).Ok);
}

//===----------------------------------------------------------------------===//
// Config specs round-trip (seed replay depends on it).
//===----------------------------------------------------------------------===//

TEST(ConfigSample, SpecRoundTripsExactly) {
  for (std::uint64_t Seed = 1; Seed <= 200; ++Seed) {
    Xoshiro256 Rng(Seed);
    SampledRun R = sampleRun(Rng);
    std::string Spec = configSpec(R);
    SampledRun Parsed = parseConfigSpec(Spec);
    EXPECT_EQ(configSpec(Parsed), Spec) << "seed " << Seed;
    EXPECT_EQ(Parsed.Kernel, R.Kernel);
    EXPECT_EQ(Parsed.Target, R.Target);
    EXPECT_EQ(Parsed.SerialTs, R.SerialTs);
    EXPECT_EQ(Parsed.Cfg.NumTasks, R.Cfg.NumTasks);
    EXPECT_EQ(Parsed.Cfg.PrTolerance, R.Cfg.PrTolerance);
  }
}

TEST(ConfigSample, SamplingIsDeterministic) {
  for (std::uint64_t Seed = 1; Seed <= 50; ++Seed) {
    Xoshiro256 A(Seed), B(Seed);
    EXPECT_EQ(configSpec(sampleRun(A)), configSpec(sampleRun(B)));
  }
}

TEST(ConfigSample, SerialTaskSystemOnlyAtOneTask) {
  for (std::uint64_t Seed = 1; Seed <= 300; ++Seed) {
    Xoshiro256 Rng(Seed);
    SampledRun R = sampleRun(Rng);
    if (R.SerialTs) {
      EXPECT_EQ(R.Cfg.NumTasks, 1) << configSpec(R);
    }
  }
}

//===----------------------------------------------------------------------===//
// Self-loops and parallel edges: generators emit them, the graph build
// preserves them, and every kernel stays oracle-valid on them.
//===----------------------------------------------------------------------===//

TEST(AdversarialGraphs, TransformsPreserveSelfLoopsAndDuplicates) {
  Csr Base = starGraph(6);
  EdgeId E0 = Base.numEdges();

  Csr Looped = withSelfLoops(Base, 3, 7);
  EXPECT_EQ(Looped.numEdges(), E0 + 3) << "self-loops stored once";
  auto countSelfLoops = [](const Csr &G) {
    EdgeId C = 0;
    for (NodeId U = 0; U < G.numNodes(); ++U)
      for (NodeId V : G.neighbors(U))
        if (V == U)
          ++C;
    return C;
  };
  EXPECT_EQ(countSelfLoops(Looped), 3);

  Csr Duped = withDuplicateEdges(Base, 2, 9);
  EXPECT_EQ(Duped.numEdges(), E0 + 4) << "each duplicate adds both arcs";

  // The transpose of a symmetric multigraph keeps every arc, loops included.
  Csr T = Looped.transpose();
  EXPECT_EQ(T.numEdges(), Looped.numEdges());
  EXPECT_EQ(countSelfLoops(T), 3);
}

TEST(AdversarialGraphs, AllKernelsOracleValidWithLoopsAndDuplicates) {
  Csr G = withDuplicateEdges(withSelfLoops(starGraph(6), 2, 11), 3, 13);
  Csr Weighted = withRandomWeights(G, 10, 17);

  SerialTaskSystem TS;
  KernelConfig Cfg;
  Cfg.TS = &TS;
  Cfg.NumTasks = 1;
  Cfg.PrDamping = 0.5f;
  Cfg.PrTolerance = 1e-3f;

  for (KernelKind Kind : AllKernels) {
    const Csr *Run = kernelNeedsWeights(Kind) ? &Weighted : &G;
    Csr Simple;
    if (kernelNeedsSortedAdjacency(Kind)) {
      BuildOptions BO;
      BO.Dedupe = true;
      BO.DropSelfLoops = true;
      std::vector<RawEdge> Edges;
      for (NodeId U = 0; U < G.numNodes(); ++U)
        for (NodeId V : G.neighbors(U))
          Edges.push_back({U, V, 0});
      Simple = buildCsr(G.numNodes(), std::move(Edges), BO)
                   .sortedByDestination();
      Run = &Simple;
    }
    KernelOutput Out = runKernel(Kind, simd::TargetKind::Scalar1, *Run, Cfg, 0);
    OracleResult R = checkKernelOutput(Kind, *Run, 0, Out, Cfg);
    EXPECT_TRUE(R.Ok) << kernelName(Kind) << ": " << R.Reason;
  }
}

TEST(AdversarialGraphs, MisHandlesAllSelfLoopGraph) {
  // Every node loops on itself: the only valid MIS is empty, and the kernel
  // must terminate (the demotion phase alone would livelock on these).
  std::vector<RawEdge> Edges;
  for (NodeId U = 0; U < 5; ++U)
    Edges.push_back({U, U, 0});
  Csr G = buildCsr(5, std::move(Edges));

  SerialTaskSystem TS;
  KernelConfig Cfg;
  Cfg.TS = &TS;
  Cfg.NumTasks = 1;
  KernelOutput Out = runKernel(KernelKind::Mis, simd::TargetKind::Scalar1, G,
                               Cfg, 0);
  OracleResult R = checkMis(G, Out.IntData);
  EXPECT_TRUE(R.Ok) << R.Reason;
  for (std::int32_t S : Out.IntData)
    EXPECT_EQ(S, MisOut);
}

//===----------------------------------------------------------------------===//
// Shrinker: minimizes while preserving the failure predicate.
//===----------------------------------------------------------------------===//

TEST(Shrinker, MinimizesToThePredicateCore) {
  // Predicate: "graph contains a self-loop". The 1-self-loop needle inside
  // a 200-node haystack must shrink to (nearly) just the looped node.
  Csr Haystack = withSelfLoops(pathGraph(200), 1, 23);
  auto HasLoop = [](const Csr &G) {
    for (NodeId U = 0; U < G.numNodes(); ++U)
      for (NodeId V : G.neighbors(U))
        if (V == U)
          return true;
    return false;
  };
  ASSERT_TRUE(HasLoop(Haystack));
  Csr Min = shrinkGraph(Haystack, HasLoop, 400);
  EXPECT_TRUE(HasLoop(Min)) << "shrinking must preserve the failure";
  EXPECT_LE(Min.numNodes(), 2);
  EXPECT_LE(Min.numEdges(), 2);
}

TEST(Shrinker, ReproFileRoundTripsThroughTheLoader) {
  Csr G = withSelfLoops(withRandomWeights(starGraph(5), 10, 3), 1, 5);
  std::string Path = ::testing::TempDir() + "/shrink_repro.txt";
  ASSERT_TRUE(writeEdgeListFile(G, Path));
  auto Loaded = loadEdgeList(Path);
  ASSERT_TRUE(Loaded.has_value());
  EXPECT_EQ(Loaded->numNodes(), G.numNodes());
  EXPECT_EQ(Loaded->numEdges(), G.numEdges());
}

} // namespace
