//===- tests/ConfigGridTest.cpp - The kernel configuration grid -----------===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
// The paper checks every run by "collecting the outputs and checking them
// against the reference output" (Section IV). Here every kernel is checked
// that way across the engine's configuration axes. A run is a (graph,
// config spec) pair: the one runner parses the spec with
// verify::parseConfigSpec and runs and certifies it with verify::runChecked,
// the step fuzz_kernels runs, so a failure prints the graph and the
// --config= spec that replays it. One suite per axis:
//  * KernelCorrectness - kernel x SIMD target x six graphs, serial task
//                        system;
//  * OptCombination    - the Fig 5 optimization bundles x every kernel on
//                        rmat, 4 tasks;
//  * LayoutParity      - kernel x layout shape x chunk size on
//                        road/rmat/random, 4 tasks;
//  * PrefetchParity    - the LayoutParity points under rows and rows+props
//                        (LayoutParity runs none);
//  * DirectionParity   - the direction-capable kernels of the LayoutParity
//                        points under pull and hybrid (LayoutParity runs
//                        push);
//  * UpdateParity      - the scatter-heavy kernels x update policy x chunk
//                        size on rmat.
// The oracles accept exactly one answer for bfs, sssp, cc, tri and mst, so
// a certified run also equals every other configuration's run.
//
// Each suite's gtest param is a point of its axis values; the suites keep
// the fixture, test and case names and the point layouts they had as
// separate grids, so their ctest names (which show the point's bytes) stay
// the same.
//
//===----------------------------------------------------------------------===//

#include "graph/Generators.h"
#include "graph/GraphView.h"
#include "kernels/Kernels.h"
#include "simd/Targets.h"
#include "verify/FuzzCampaign.h"

#include <gtest/gtest-spi.h>
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <string>
#include <vector>

using namespace egacs;
using namespace egacs::verify;
using simd::TargetKind;

namespace {

/// One kernel run.
struct GridCase {
  std::string Graph; ///< gridGraph() name
  std::string Spec;  ///< parseConfigSpec input
};

/// The paper's three graph classes plus three small shapes; tri gets the
/// destination-sorted adjacency its kernel requires.
Csr gridGraph(const std::string &Name, KernelKind Kernel) {
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
    ADD_FAILURE() << "unknown grid graph " << Name;
    return pathGraph(2);
  }();
  return kernelNeedsSortedAdjacency(Kernel) ? G.sortedByDestination()
                                            : std::move(G);
}

/// Parses, runs and certifies one case from source 0. \p Fault corrupts
/// the output before the check (the failure-path test).
void runCase(const GridCase &C, FaultKind Fault = FaultKind::None) {
  SampledRun R = parseConfigSpec(C.Spec);
  if (!simd::targetSupported(R.Target))
    GTEST_SKIP() << simd::targetName(R.Target) << " not supported on this CPU";
  auto TS = makeTaskSystem(R.SerialTs ? TaskSystemKind::Serial
                                      : TaskSystemKind::Pool,
                           R.Cfg.NumTasks);
  R.Cfg.TS = TS.get();
  OracleResult Res = runChecked(R, gridGraph(C.Graph, R.Kernel), 0, Fault);
  EXPECT_TRUE(Res.Ok) << "graph " << C.Graph << " --config=" << configSpec(R)
                      << ": " << Res.Reason;
}

/// The widest supported target (the multi-task suites run on it).
std::string bestTarget() {
  TargetKind T = simd::targetSupported(TargetKind::Avx512x16)
                     ? TargetKind::Avx512x16
                     : TargetKind::Scalar8;
  return std::string("target=") + simd::targetName(T);
}

/// A point's gtest name: its axis values joined by '_', with every other
/// non-alphanumeric character ("bfs-cx") turned into '_' too.
std::string joinName(std::initializer_list<std::string> Parts) {
  std::string Name;
  for (const std::string &Part : Parts)
    Name += (Name.empty() ? "" : "_") + Part;
  for (char &Ch : Name)
    if (!std::isalnum(static_cast<unsigned char>(Ch)))
      Ch = '_';
  return Name;
}

/// The work-stealing chunk sizes of the 4-task suites. Each point keeps the
/// name of the retired distribution policy it stands in for, so the case
/// names carry over: "static" makes each task's Listing 1 block one chunk
/// (stolen whole or not at all), "chunked" splits it into the 64-item
/// chunks the grid has always used, "stealing" into 8-item chunks so that
/// nearly every sweep steals.
const std::int32_t Chunks[] = {1 << 30, 64, 8};

std::string chunkName(std::int32_t Chunk) {
  return Chunk == Chunks[0] ? "static" : Chunk == Chunks[1] ? "chunked"
                                                            : "stealing";
}

//===----------------------------------------------------------------------===//
// The grid points and the runs each one makes.
//===----------------------------------------------------------------------===//

struct TargetPoint {
  KernelKind Kernel;
  TargetKind Target;
  std::string Graph;
};

GridCase targetCase(const TargetPoint &P) {
  return {P.Graph, std::string("tasks=1,ts=serial,delta=512,kernel=") +
                       kernelName(P.Kernel) +
                       ",target=" + simd::targetName(P.Target)};
}

std::string name(const TargetPoint &P) {
  return joinName({kernelName(P.Kernel), simd::targetName(P.Target), P.Graph});
}

std::vector<TargetPoint> targetPoints() {
  std::vector<TargetPoint> Points;
  for (KernelKind Kernel : AllKernels)
    for (TargetKind Target : simd::AllTargets)
      for (const char *Graph :
           {"path", "cycle", "star", "road", "rmat", "random"})
        Points.push_back({Kernel, Target, Graph});
  return Points;
}

struct BundlePoint {
  bool Io, Np, Cc, Fibers;
};

GridCase bundleCase(const BundlePoint &P, KernelKind Kernel) {
  return {"rmat", "tasks=4,delta=512," + bestTarget() +
                      ",io=" + std::to_string(P.Io) +
                      ",np=" + std::to_string(P.Np) +
                      ",cc=" + std::to_string(P.Cc) +
                      ",fib=" + std::to_string(P.Fibers) +
                      ",kernel=" + kernelName(Kernel)};
}

/// The optimization bundles of Fig 5.
const BundlePoint Fig5Bundles[] = {
    {false, false, false, false}, {true, false, false, false},
    {true, true, true, false},    {true, false, false, true},
    {true, true, true, true},     {false, true, true, true}};

std::string name(const BundlePoint &P) {
  return joinName({P.Io ? "io" : "noio", P.Np ? "np" : "nonp",
                   P.Cc ? "cc" : "nocc", P.Fibers ? "fib" : "nofib"});
}

struct LayoutPoint {
  KernelKind Kernel;
  LayoutKind Layout;
  std::int32_t Sigma; ///< SELL sorting window
  std::int32_t Chunk;
  std::string Graph;
};

/// The layout shapes of the 4-task suites: CSR, SELL with one sorting
/// window over the whole graph, and SELL with 128-node windows. One window
/// sorts every node by degree, descending and stable, which is the
/// iteration order of the retired HubCSR layout; its points keep that
/// layout's name, as the chunk sizes keep the retired policies' names, so
/// the case names carry over.
struct LayoutShape {
  LayoutKind Layout;
  std::int32_t Sigma;
};
const LayoutShape Shapes[] = {{LayoutKind::Csr, 128},
                              {LayoutKind::Sell, 1 << 30},
                              {LayoutKind::Sell, 128}};

std::string shapeName(const LayoutPoint &P) {
  return P.Layout == LayoutKind::Sell && P.Sigma == Shapes[1].Sigma
             ? "hubcsr"
             : layoutName(P.Layout);
}

/// The point's run, with \p Extra ("prefetch=rows") appended to its spec.
GridCase layoutCase(const LayoutPoint &P, const std::string &Extra = "") {
  return {P.Graph, "tasks=4,delta=512,sigma=" + std::to_string(P.Sigma) +
                       "," + bestTarget() +
                       ",kernel=" + kernelName(P.Kernel) +
                       ",layout=" + layoutName(P.Layout) +
                       ",chunk=" + std::to_string(P.Chunk) +
                       (Extra.empty() ? "" : "," + Extra)};
}

std::string name(const LayoutPoint &P) {
  return joinName({kernelName(P.Kernel), shapeName(P), chunkName(P.Chunk),
                   P.Graph});
}

std::vector<LayoutPoint> layoutPoints(const std::vector<KernelKind> &Kernels) {
  std::vector<LayoutPoint> Points;
  for (KernelKind Kernel : Kernels)
    for (const LayoutShape &Shape : Shapes)
      for (std::int32_t Chunk : Chunks)
        for (const char *Graph : {"road", "rmat", "random"})
          Points.push_back({Kernel, Shape.Layout, Shape.Sigma, Chunk, Graph});
  return Points;
}

std::vector<LayoutPoint> layoutPoints() {
  return layoutPoints({std::begin(AllKernels), std::end(AllKernels)});
}

struct UpdatePoint {
  KernelKind Kernel;
  UpdatePolicy Update;
  std::int32_t Chunk;
};

GridCase updateCase(const UpdatePoint &P) {
  return {"rmat", "tasks=4,delta=512," + bestTarget() +
                      ",kernel=" + kernelName(P.Kernel) +
                      ",update=" + updatePolicyName(P.Update) +
                      ",chunk=" + std::to_string(P.Chunk)};
}

std::string name(const UpdatePoint &P) {
  return joinName({kernelName(P.Kernel), updatePolicyName(P.Update),
                   chunkName(P.Chunk)});
}

std::vector<UpdatePoint> updatePoints() {
  std::vector<UpdatePoint> Points;
  for (KernelKind Kernel : {KernelKind::Pr, KernelKind::Cc, KernelKind::SsspNf,
                            KernelKind::Mst, KernelKind::BfsWl})
    for (UpdatePolicy Update :
         {UpdatePolicy::Atomic, UpdatePolicy::Combined,
          UpdatePolicy::Privatized})
      for (std::int32_t Chunk : Chunks)
        Points.push_back({Kernel, Update, Chunk});
  return Points;
}

template <typename Point>
std::string pointName(const ::testing::TestParamInfo<Point> &Info) {
  return name(Info.param);
}

//===----------------------------------------------------------------------===//
// The suites.
//===----------------------------------------------------------------------===//

class KernelCorrectness : public ::testing::TestWithParam<TargetPoint> {};
TEST_P(KernelCorrectness, MatchesReference) {
  runCase(targetCase(GetParam()));
}
INSTANTIATE_TEST_SUITE_P(AllKernelsTargetsGraphs, KernelCorrectness,
                         ::testing::ValuesIn(targetPoints()),
                         pointName<TargetPoint>);

class OptCombination : public ::testing::TestWithParam<BundlePoint> {};
TEST_P(OptCombination, AllKernelsCorrectUnderConfig) {
  for (KernelKind Kernel : AllKernels)
    runCase(bundleCase(GetParam(), Kernel));
}
INSTANTIATE_TEST_SUITE_P(Fig5Configs, OptCombination,
                         ::testing::ValuesIn(Fig5Bundles),
                         pointName<BundlePoint>);

class LayoutParity : public ::testing::TestWithParam<LayoutPoint> {};
TEST_P(LayoutParity, MatchesScalarReference) {
  runCase(layoutCase(GetParam()));
}
INSTANTIATE_TEST_SUITE_P(KernelsLayoutsScheds, LayoutParity,
                         ::testing::ValuesIn(layoutPoints()),
                         pointName<LayoutPoint>);

class PrefetchParity : public ::testing::TestWithParam<LayoutPoint> {};
TEST_P(PrefetchParity, StagingIsResultInvariant) {
  for (PrefetchPolicy P : {PrefetchPolicy::Rows, PrefetchPolicy::RowsProps})
    runCase(layoutCase(GetParam(), std::string("pfdist=4,prefetch=") +
                                       prefetchPolicyName(P)));
}
INSTANTIATE_TEST_SUITE_P(KernelsLayoutsScheds, PrefetchParity,
                         ::testing::ValuesIn(layoutPoints()),
                         pointName<LayoutPoint>);

class DirectionParity : public ::testing::TestWithParam<LayoutPoint> {};
TEST_P(DirectionParity, PullAndHybridMatchPush) {
  for (Direction Dir : {Direction::Pull, Direction::Hybrid})
    runCase(layoutCase(GetParam(), std::string("dir=") + directionName(Dir)));
}
INSTANTIATE_TEST_SUITE_P(KernelsLayoutsScheds, DirectionParity,
                         ::testing::ValuesIn(layoutPoints(
                             {KernelKind::BfsHb, KernelKind::BfsWl,
                              KernelKind::Cc, KernelKind::Pr})),
                         pointName<LayoutPoint>);

class UpdateParity : public ::testing::TestWithParam<UpdatePoint> {};
TEST_P(UpdateParity, MatchesReference) { runCase(updateCase(GetParam())); }
INSTANTIATE_TEST_SUITE_P(PolicyGrid, UpdateParity,
                         ::testing::ValuesIn(updatePoints()),
                         pointName<UpdatePoint>);

// A corrupted output must fail with the oracle's reason and a --config=
// spec that parses back to the same run.
TEST(ConfigGridFailure, PrintsOracleReasonAndReplaySpec) {
  const GridCase C =
      targetCase({KernelKind::BfsWl, TargetKind::Scalar1, "path"});
  SampledRun R = parseConfigSpec(C.Spec);
  ASSERT_EQ(R.Kernel, KernelKind::BfsWl) << C.Spec;
  SerialTaskSystem Serial;
  R.Cfg.TS = &Serial;
  Csr G = gridGraph(C.Graph, R.Kernel);
  OracleResult Expected = runChecked(R, G, 0, FaultKind::BfsOffByOne);
  ASSERT_FALSE(Expected.Ok);

  const std::string Spec = configSpec(R);
  EXPECT_NONFATAL_FAILURE(runCase(C, FaultKind::BfsOffByOne),
                          "--config=" + Spec + ": " + Expected.Reason);

  SampledRun Replay = parseConfigSpec(Spec);
  EXPECT_EQ(configSpec(Replay), Spec);
  Replay.Cfg.TS = &Serial;
  EXPECT_EQ(runChecked(Replay, G, 0, FaultKind::BfsOffByOne).Reason,
            Expected.Reason);
  EXPECT_TRUE(runChecked(Replay, G, 0).Ok);
}

} // namespace
