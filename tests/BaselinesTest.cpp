//===- tests/BaselinesTest.cpp - Baseline framework correctness -----------===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
// The mini-Ligra, scalar-parallel and mini-GraphIt baselines must pass the
// same semantic oracles (src/verify/) as the EGACS kernels; otherwise the
// Fig 4 comparison would be comparing wrong programs.
//
//===----------------------------------------------------------------------===//

#include "baselines/ligra/Apps.h"
#include "baselines/scalar/ScalarKernels.h"
#include "graph/Generators.h"
#include "verify/Oracle.h"

#include "OracleAssert.h"

#include <gtest/gtest.h>

using namespace egacs;
using namespace egacs::verify;

namespace {

struct BaselineCase {
  std::string Graph;
  int NumTasks;
};

// gtest's default printer dumps the raw bytes, which include the heap address
// of the string buffer; ctest test names embed that text, so without this the
// names would change on every test discovery.
void PrintTo(const BaselineCase &C, std::ostream *OS) {
  *OS << C.Graph << " graph, " << C.NumTasks << " tasks";
}

Csr makeGraph(const std::string &Name) {
  if (Name == "road")
    return roadGraph(20, 15, 0.05, 3);
  if (Name == "rmat")
    return rmatGraph(9, 6, 17);
  if (Name == "random")
    return uniformRandomGraph(1200, 4, 23);
  ADD_FAILURE() << "unknown graph " << Name;
  return pathGraph(2);
}

class LigraApps : public ::testing::TestWithParam<BaselineCase> {};

TEST_P(LigraApps, MatchReference) {
  const BaselineCase &C = GetParam();
  Csr G = makeGraph(C.Graph);
  ThreadPoolTaskSystem Pool(C.NumTasks);
  ligra::LigraContext Ctx{&Pool, C.NumTasks, 20};

  EXPECT_TRUE(certified(checkBfsDistances(G, 0, ligra::ligraBfs(Ctx, G, 0))));
  EXPECT_TRUE(
      certified(checkSsspDistances(G, 0, ligra::ligraSssp(Ctx, G, 0))));
  EXPECT_TRUE(certified(checkComponents(G, ligra::ligraCc(Ctx, G))));
  EXPECT_TRUE(certified(checkMis(G, ligra::ligraMis(Ctx, G))));
  EXPECT_TRUE(certified(checkPageRank(
      G, ligra::ligraPr(Ctx, G, 0.85f, 1e-4f, 50), 0.85f, 1e-4f)));
}

class ScalarKernels : public ::testing::TestWithParam<BaselineCase> {};

TEST_P(ScalarKernels, MatchReference) {
  const BaselineCase &C = GetParam();
  Csr G = makeGraph(C.Graph);
  ThreadPoolTaskSystem Pool(C.NumTasks);
  scalar::ScalarContext Ctx{&Pool, C.NumTasks};

  EXPECT_TRUE(
      certified(checkBfsDistances(G, 0, scalar::scalarBfs(Ctx, G, 0))));
  EXPECT_TRUE(certified(
      checkSsspDistances(G, 0, scalar::scalarSssp(Ctx, G, 0, 512))));
  EXPECT_TRUE(certified(checkComponents(G, scalar::scalarCc(Ctx, G))));
  EXPECT_TRUE(certified(checkMis(G, scalar::scalarMis(Ctx, G))));
  Csr Sorted = G.sortedByDestination();
  EXPECT_TRUE(
      certified(checkTriangles(Sorted, scalar::scalarTri(Ctx, Sorted))));

  std::int64_t Weight = 0, Edges = 0;
  scalar::scalarMst(Ctx, G, Weight, Edges);
  EXPECT_TRUE(certified(checkMstWeight(G, Weight, Edges)));

  EXPECT_TRUE(certified(checkPageRank(
      G, scalar::scalarPr(Ctx, G, 0.85f, 1e-4f, 50), 0.85f, 1e-4f)));
}

std::string baselineCaseName(
    const ::testing::TestParamInfo<BaselineCase> &Info) {
  return Info.param.Graph + "_t" + std::to_string(Info.param.NumTasks);
}

INSTANTIATE_TEST_SUITE_P(GraphsAndTasks, LigraApps,
                         ::testing::Values(BaselineCase{"road", 1},
                                           BaselineCase{"road", 4},
                                           BaselineCase{"rmat", 4},
                                           BaselineCase{"random", 3}),
                         baselineCaseName);

INSTANTIATE_TEST_SUITE_P(GraphsAndTasks, ScalarKernels,
                         ::testing::Values(BaselineCase{"road", 1},
                                           BaselineCase{"road", 4},
                                           BaselineCase{"rmat", 4},
                                           BaselineCase{"random", 3}),
                         baselineCaseName);

//===----------------------------------------------------------------------===//
// VertexSubset and edgeMap unit tests.
//===----------------------------------------------------------------------===//

TEST(VertexSubset, SparseDenseRoundTrip) {
  ligra::VertexSubset S(10, std::vector<NodeId>{1, 3, 7});
  EXPECT_EQ(S.size(), 3);
  S.toDense();
  EXPECT_TRUE(S.hasDense());
  EXPECT_EQ(S.dense()[1], 1);
  EXPECT_EQ(S.dense()[2], 0);

  std::vector<std::uint8_t> Bits(10, 0);
  Bits[0] = Bits[9] = 1;
  ligra::VertexSubset D(10, std::move(Bits), 2);
  D.toSparse();
  EXPECT_EQ(D.sparse(), (std::vector<NodeId>{0, 9}));
}

TEST(VertexSubset, OutDegreeSum) {
  Csr G = starGraph(5); // center degree 5, leaves degree 1
  ligra::VertexSubset Center(G.numNodes(), 0);
  EXPECT_EQ(Center.outDegreeSum(G), 5);
  ligra::VertexSubset Leaves(G.numNodes(), std::vector<NodeId>{1, 2, 3});
  EXPECT_EQ(Leaves.outDegreeSum(G), 3);
}

TEST(EdgeMapDirection, DenseAndSparseAgree) {
  Csr G = rmatGraph(8, 8, 31);
  SerialTaskSystem TS;
  // Force sparse-only and dense-only traversals and compare BFS outputs.
  ligra::LigraContext SparseCtx{&TS, 1, /*DirectionDenominator=*/0};
  SparseCtx.DirectionDenominator = 1; // threshold = |E|, nearly always sparse
  ligra::LigraContext DenseCtx{&TS, 1, 20};
  DenseCtx.DirectionDenominator = 1 << 30; // threshold ~0, always dense

  auto DistSparse = ligra::ligraBfs(SparseCtx, G, 0);
  auto DistDense = ligra::ligraBfs(DenseCtx, G, 0);
  EXPECT_TRUE(certified(checkBfsDistances(G, 0, DistSparse)));
  EXPECT_TRUE(certified(checkBfsDistances(G, 0, DistDense)));
}

} // namespace

//===----------------------------------------------------------------------===//
// Mini-GraphIt: schedules and apps (appended suite).
//===----------------------------------------------------------------------===//

#include "baselines/graphit/GraphIt.h"

namespace {

using egacs::graphit::Direction;
using egacs::graphit::Frontier;
using egacs::graphit::GraphItContext;
using egacs::graphit::Schedule;

class GraphItApps : public ::testing::TestWithParam<BaselineCase> {};

TEST_P(GraphItApps, MatchReference) {
  const BaselineCase &C = GetParam();
  Csr G = makeGraph(C.Graph);
  ThreadPoolTaskSystem Pool(C.NumTasks);
  GraphItContext Ctx{&Pool, C.NumTasks};

  EXPECT_TRUE(certified(
      checkBfsDistances(G, 0, egacs::graphit::graphitBfs(Ctx, G, 0))));
  EXPECT_TRUE(certified(
      checkSsspDistances(G, 0, egacs::graphit::graphitSssp(Ctx, G, 0))));
  EXPECT_TRUE(
      certified(checkComponents(G, egacs::graphit::graphitCc(Ctx, G))));
  Csr Sorted = G.sortedByDestination();
  EXPECT_TRUE(certified(
      checkTriangles(Sorted, egacs::graphit::graphitTri(Ctx, Sorted))));
  EXPECT_TRUE(certified(checkPageRank(
      G, egacs::graphit::graphitPr(Ctx, G, 0.85f, 1e-4f, 50), 0.85f, 1e-4f)));
}

INSTANTIATE_TEST_SUITE_P(GraphsAndTasks, GraphItApps,
                         ::testing::Values(BaselineCase{"road", 1},
                                           BaselineCase{"road", 4},
                                           BaselineCase{"rmat", 4},
                                           BaselineCase{"random", 3}),
                         baselineCaseName);

TEST(GraphItSchedules, AllDirectionsAgreeOnBfs) {
  Csr G = makeGraph("rmat");
  SerialTaskSystem TS;
  GraphItContext Ctx{&TS, 1};
  for (Direction Dir :
       {Direction::SparsePush, Direction::DensePull, Direction::Hybrid}) {
    Schedule Sched;
    Sched.Dir = Dir;
    EXPECT_TRUE(certified(checkBfsDistances(
        G, 0, egacs::graphit::graphitBfs(Ctx, G, 0, Sched))))
        << "direction " << static_cast<int>(Dir);
  }
}

TEST(GraphItSchedules, DedupOffStillCorrectButLargerFrontiers) {
  Csr G = makeGraph("random");
  SerialTaskSystem TS;
  GraphItContext Ctx{&TS, 1};
  Schedule NoDedup;
  NoDedup.Dir = Direction::SparsePush;
  NoDedup.Dedup = false;
  EXPECT_TRUE(certified(checkBfsDistances(
      G, 0, egacs::graphit::graphitBfs(Ctx, G, 0, NoDedup))));
}

TEST(GraphItFrontier, BitvectorAndSparseAgree) {
  Frontier F(200);
  for (NodeId V : {0, 63, 64, 127, 199})
    F.insertSerial(V);
  EXPECT_EQ(F.size(), 5);
  EXPECT_TRUE(F.test(63));
  EXPECT_TRUE(F.test(64));
  EXPECT_FALSE(F.test(65));
  Frontier R(200);
  for (NodeId V : {0, 63, 64, 127, 199})
    R.mutableBits()[static_cast<std::size_t>(V) >> 6] |=
        1ull << (static_cast<unsigned>(V) & 63);
  R.setCount(5);
  R.rebuildSparseFromBits();
  EXPECT_EQ(R.sparse(), F.sparse());
}

} // namespace
