//===- tests/GraphTest.cpp - Graph substrate tests ------------------------===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
//===----------------------------------------------------------------------===//

#include "graph/Csr.h"
#include "graph/Generators.h"
#include "graph/Loader.h"
#include "runtime/TaskSystem.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <tuple>

using namespace egacs;

namespace {

/// True when \p A and \p B have the same arrays, element by element.
::testing::AssertionResult sameCsr(const Csr &A, const Csr &B) {
  if (A.numNodes() != B.numNodes() || A.numEdges() != B.numEdges() ||
      A.hasWeights() != B.hasWeights())
    return ::testing::AssertionFailure() << "shapes differ";
  const std::size_t Nodes = static_cast<std::size_t>(A.numNodes()) + 1;
  const std::size_t Arcs = static_cast<std::size_t>(A.numEdges());
  if (!std::equal(A.rowStart(), A.rowStart() + Nodes, B.rowStart()))
    return ::testing::AssertionFailure() << "rows differ";
  if (!std::equal(A.edgeDst(), A.edgeDst() + Arcs, B.edgeDst()))
    return ::testing::AssertionFailure() << "destinations differ";
  if (A.hasWeights() &&
      !std::equal(A.edgeWeight(), A.edgeWeight() + Arcs, B.edgeWeight()))
    return ::testing::AssertionFailure() << "weights differ";
  return ::testing::AssertionSuccess();
}

//===----------------------------------------------------------------------===//
// CSR construction.
//===----------------------------------------------------------------------===//

TEST(CsrBuild, BasicAdjacency) {
  Csr G = buildCsr(4, {{0, 1, 10}, {0, 2, 20}, {2, 3, 30}});
  EXPECT_EQ(G.numNodes(), 4);
  EXPECT_EQ(G.numEdges(), 3);
  EXPECT_TRUE(G.hasWeights());
  EXPECT_EQ(G.degree(0), 2);
  EXPECT_EQ(G.degree(1), 0);
  EXPECT_EQ(G.degree(2), 1);
  EXPECT_EQ(G.neighbors(2)[0], 3);
  EXPECT_EQ(G.weights(2)[0], 30);
  EXPECT_EQ(G.maxDegree(), 2);
}

TEST(CsrBuild, UnweightedWhenAllZero) {
  Csr G = buildCsr(3, {{0, 1, 0}, {1, 2, 0}});
  EXPECT_FALSE(G.hasWeights());
}

TEST(CsrBuild, SymmetrizeAddsReverseArcs) {
  BuildOptions Opts;
  Opts.Symmetrize = true;
  Csr G = buildCsr(3, {{0, 1, 5}}, Opts);
  EXPECT_EQ(G.numEdges(), 2);
  EXPECT_EQ(G.neighbors(1)[0], 0);
  EXPECT_EQ(G.weights(1)[0], 5);
}

TEST(CsrBuild, DedupeKeepsSmallestWeight) {
  BuildOptions Opts;
  Opts.Dedupe = true;
  Csr G = buildCsr(2, {{0, 1, 9}, {0, 1, 3}, {0, 1, 7}}, Opts);
  EXPECT_EQ(G.numEdges(), 1);
  EXPECT_EQ(G.weights(0)[0], 3);
}

TEST(CsrBuild, DedupeMatchesGlobalSortAndUnique) {
  // The reference is the builder's former Dedupe path: materialize the
  // symmetrized arcs, drop loops, sort by (src, dst, weight) and keep the
  // first arc of each (src, dst). Weights include negatives and zeros.
  Xoshiro256 Rng(11);
  const NodeId N = 300;
  std::vector<RawEdge> Edges;
  for (int I = 0; I < 40000; ++I)
    Edges.push_back({static_cast<NodeId>(Rng.nextBounded(N)),
                     static_cast<NodeId>(Rng.nextBounded(N)),
                     static_cast<Weight>(Rng.nextBounded(7)) - 3});
  SpawnTaskSystem Three(3);
  for (bool Sym : {false, true})
    for (bool NoLoops : {false, true}) {
      std::vector<RawEdge> Arcs = Edges;
      for (const RawEdge &E : Edges)
        if (Sym && E.Src != E.Dst)
          Arcs.push_back({E.Dst, E.Src, E.W});
      std::erase_if(Arcs, [&](const RawEdge &E) {
        return NoLoops && E.Src == E.Dst;
      });
      auto Key = [](const RawEdge &E) {
        return std::tuple(E.Src, E.Dst, E.W);
      };
      std::sort(Arcs.begin(), Arcs.end(),
                [&](const RawEdge &A, const RawEdge &B) {
                  return Key(A) < Key(B);
                });
      Arcs.erase(std::unique(Arcs.begin(), Arcs.end(),
                             [](const RawEdge &A, const RawEdge &B) {
                               return A.Src == B.Src && A.Dst == B.Dst;
                             }),
                 Arcs.end());
      Csr Want = buildCsr(N, Arcs);
      BuildOptions Opts;
      Opts.Symmetrize = Sym;
      Opts.DropSelfLoops = NoLoops;
      Opts.Dedupe = true;
      Csr Got = buildCsr(Three, N, Edges, Opts);
      EXPECT_TRUE(sameCsr(Got, Want))
          << "sym=" << Sym << " noloops=" << NoLoops;
      EXPECT_TRUE(Got.rowsSorted());
    }
}

TEST(CsrBuild, DedupeOfZeroWeightsIsUnweighted) {
  BuildOptions Opts;
  Opts.Dedupe = true;
  Opts.Symmetrize = true;
  Csr G = buildCsr(3, {{0, 1, 0}, {1, 2, 0}, {0, 1, 0}}, Opts);
  EXPECT_EQ(G.numEdges(), 4);
  EXPECT_FALSE(G.hasWeights());
}

TEST(CsrBuild, DropSelfLoops) {
  BuildOptions Opts;
  Opts.DropSelfLoops = true;
  Csr G = buildCsr(2, {{0, 0, 1}, {0, 1, 1}, {1, 1, 1}}, Opts);
  EXPECT_EQ(G.numEdges(), 1);
}

TEST(CsrBuild, EmptyGraph) {
  Csr G = buildCsr(0, {});
  EXPECT_EQ(G.numNodes(), 0);
  EXPECT_EQ(G.numEdges(), 0);
  EXPECT_EQ(G.maxDegree(), 0);
}

TEST(CsrTranspose, ReversesArcsWithWeights) {
  Csr G = buildCsr(3, {{0, 1, 10}, {0, 2, 20}, {1, 2, 30}});
  Csr T = G.transpose();
  EXPECT_EQ(T.numEdges(), 3);
  EXPECT_EQ(T.degree(0), 0);
  EXPECT_EQ(T.degree(1), 1);
  EXPECT_EQ(T.degree(2), 2);
  EXPECT_EQ(T.neighbors(1)[0], 0);
  EXPECT_EQ(T.weights(1)[0], 10);
  // Double transpose restores degrees.
  Csr TT = T.transpose();
  for (NodeId N = 0; N < G.numNodes(); ++N)
    EXPECT_EQ(TT.degree(N), G.degree(N));
}

TEST(CsrTranspose, SameForAnyWorkerCount) {
  // Duplicate arcs with unequal weights: their order in a transposed row
  // must follow the source row order whatever the task split.
  Csr G = withDuplicateEdges(namedGraph("road", 3, 1), 5000, 3);
  SerialTaskSystem Inline;
  Csr Serial = G.transpose(Inline);
  for (int Workers : {1, 2, 3}) {
    SpawnTaskSystem TS(Workers);
    EXPECT_TRUE(sameCsr(G.transpose(TS), Serial)) << Workers << " workers";
  }
  // A symmetric graph with symmetric weights is its own transpose.
  Csr R = namedGraph("rmat", 3, 1);
  EXPECT_TRUE(sameCsr(R.transpose(), R));
}

TEST(CsrSorted, SortedRowsAreCopied) {
  Csr G = namedGraph("rmat", 2, 1);
  ASSERT_TRUE(G.rowsSorted());
  Csr S = G.sortedByDestination();
  EXPECT_TRUE(S.rowsSorted());
  EXPECT_TRUE(sameCsr(S, G));
  for (NodeId N = 0; N < G.numNodes(); ++N)
    EXPECT_TRUE(std::is_sorted(G.neighbors(N).begin(), G.neighbors(N).end()));
  // Insertion-order builds make no such promise.
  EXPECT_FALSE(namedGraph("road", 0, 1).rowsSorted());
}

TEST(CsrSorted, AdjacencySortedByDestination) {
  Csr G = buildCsr(4, {{0, 3, 3}, {0, 1, 1}, {0, 2, 2}});
  Csr S = G.sortedByDestination();
  auto Neighbors = S.neighbors(0);
  EXPECT_EQ(Neighbors[0], 1);
  EXPECT_EQ(Neighbors[1], 2);
  EXPECT_EQ(Neighbors[2], 3);
  // Weights follow their arcs.
  EXPECT_EQ(S.weights(0)[0], 1);
  EXPECT_EQ(S.weights(0)[2], 3);
}

TEST(CsrBuild, EdgeCountBoundaryIsExact) {
  // The 32-bit EdgeId overflow guard, exercised with mocked counts so the
  // boundary is testable without materializing two billion edges.
  // RowStart[NumNodes] must hold the total edge count, so 2^31 - 1 is the
  // largest valid count and 2^31 the first invalid one.
  constexpr std::size_t Max = 0x7fffffffu;
  EXPECT_TRUE(csrEdgeCountValid(0));
  EXPECT_TRUE(csrEdgeCountValid(1));
  EXPECT_TRUE(csrEdgeCountValid(Max - 1));
  EXPECT_TRUE(csrEdgeCountValid(Max));
  EXPECT_FALSE(csrEdgeCountValid(Max + 1));
  EXPECT_FALSE(csrEdgeCountValid(std::size_t{1} << 32));
  EXPECT_FALSE(csrEdgeCountValid(static_cast<std::size_t>(-1)));
  // The worst case buildCsr validates is the symmetrized count: an input
  // half the limit is the last one symmetrization-safe.
  EXPECT_TRUE(csrEdgeCountValid((Max / 2) * 2));
  EXPECT_FALSE(csrEdgeCountValid((Max / 2 + 1) * 2));
}

TEST(CsrBuild, OversizedGeneratorRequestsThrowBeforeAllocating) {
  // Each request overflows the index space and is rejected before a single
  // edge is materialized: 2^28 x 16 = 2^32 rmat arcs, 2^30 x 4 = 2^32
  // uniform arcs, and a 65536 x 65536 grid of 2^32 nodes.
  EXPECT_THROW(rmatGraph(28, 16), GraphSizeError);
  EXPECT_THROW(uniformRandomGraph(NodeId{1} << 30, 4), GraphSizeError);
  EXPECT_THROW(roadGraph(65536, 65536), GraphSizeError);
  try {
    rmatGraph(28, 16);
  } catch (const std::length_error &Err) {
    EXPECT_STREQ(Err.what(),
                 "rmatGraph: 4294967296 requested arcs (up to 8589934592 "
                 "after symmetrization) exceed the 32-bit EdgeId index "
                 "space; lower the scale or edge factor");
  }
}

TEST(CsrFootprint, CountsAllArrays) {
  Csr G = buildCsr(100, {{0, 1, 5}});
  // rows (101) + dsts (1) + weights (1), 4 bytes each.
  EXPECT_GE(G.memoryFootprintBytes(), 101u * 4 + 4 + 4);
}

//===----------------------------------------------------------------------===//
// Generators.
//===----------------------------------------------------------------------===//

TEST(Generators, RoadGraphIsSymmetricLowDegree) {
  Csr G = roadGraph(16, 16, 0.05, 1);
  EXPECT_EQ(G.numNodes(), 256);
  // Symmetric: every arc has its reverse.
  std::set<std::pair<NodeId, NodeId>> Arcs;
  for (NodeId U = 0; U < G.numNodes(); ++U)
    for (NodeId V : G.neighbors(U))
      Arcs.insert({U, V});
  for (const auto &[U, V] : Arcs)
    EXPECT_TRUE(Arcs.count({V, U})) << U << "->" << V;
  // Low max degree (4-grid + diagonals).
  EXPECT_LE(G.maxDegree(), 8);
  EXPECT_TRUE(G.hasWeights());
}

TEST(Generators, RmatIsSkewed) {
  Csr G = rmatGraph(10, 8, 3);
  // Scale-free: max degree far above average degree.
  double AvgDeg =
      static_cast<double>(G.numEdges()) / static_cast<double>(G.numNodes());
  EXPECT_GT(G.maxDegree(), 8 * AvgDeg);
}

TEST(Generators, UniformRandomIsNotSkewed) {
  Csr G = uniformRandomGraph(4096, 4, 5);
  double AvgDeg =
      static_cast<double>(G.numEdges()) / static_cast<double>(G.numNodes());
  EXPECT_LT(G.maxDegree(), 8 * AvgDeg);
}

TEST(Generators, DeterministicInSeed) {
  Csr A = rmatGraph(8, 4, 42);
  Csr B = rmatGraph(8, 4, 42);
  ASSERT_EQ(A.numEdges(), B.numEdges());
  for (EdgeId E = 0; E < A.numEdges(); ++E)
    EXPECT_EQ(A.edgeDst()[E], B.edgeDst()[E]);
}

TEST(Generators, MicroGraphShapes) {
  EXPECT_EQ(pathGraph(5).numEdges(), 8);     // 4 undirected edges
  EXPECT_EQ(cycleGraph(6).numEdges(), 12);   // 6 undirected edges
  EXPECT_EQ(starGraph(7).numEdges(), 14);    // 7 undirected edges
  EXPECT_EQ(completeGraph(5).numEdges(), 20); // 5*4 arcs
}

TEST(Generators, ShuffleNodeIdsPreservesStructure) {
  Csr G = roadGraph(12, 12, 0.05, 9);
  Csr S = shuffleNodeIds(G, 77);
  EXPECT_EQ(S.numNodes(), G.numNodes());
  EXPECT_EQ(S.numEdges(), G.numEdges());
  // Degree multiset is preserved.
  std::multiset<EdgeId> DegG, DegS;
  for (NodeId N = 0; N < G.numNodes(); ++N) {
    DegG.insert(G.degree(N));
    DegS.insert(S.degree(N));
  }
  EXPECT_EQ(DegG, DegS);
  // And ids really moved.
  bool Moved = false;
  for (NodeId N = 0; N < G.numNodes() && !Moved; ++N)
    Moved = G.degree(N) != S.degree(N);
  EXPECT_TRUE(Moved);
}

/// FNV-1a over \p Count elements at \p Data.
template <typename T> std::uint64_t fnv1a(const T *Data, std::size_t Count) {
  std::uint64_t Hash = 0xcbf29ce484222325ull;
  const auto *Bytes = reinterpret_cast<const unsigned char *>(Data);
  for (std::size_t I = 0; I < Count * sizeof(T); ++I)
    Hash = (Hash ^ Bytes[I]) * 0x100000001b3ull;
  return Hash;
}

TEST(Generators, NamedGraphsMatchRecordedDigests) {
  // Recorded from the serial builder; any change to a generated graph,
  // however small, fails here. rmat at scale >= 2 and random at scale 3
  // span several generator chunks; rmat 6/1 is the benchmark input.
  struct Digest {
    const char *Name;
    int Scale;
    std::uint64_t Seed;
    NodeId Nodes;
    EdgeId Arcs;
    std::uint64_t Rows, Dsts, Weights;
  };
  const Digest Digests[] = {
      {"rmat", 0, 1, 4096, 53416,
       0x40d61d87c39b3f1full, 0xafb502cc2222add4ull, 0x0d71679d85a4a3e5ull},
      {"rmat", 0, 2, 4096, 53254,
       0x97fe63bfc496e46aull, 0x35551a6b765c366dull, 0x367370052e6533c5ull},
      {"rmat", 1, 1, 8192, 110882,
       0x0b419f5b05e0234dull, 0xcc1c6db148ebb8c8ull, 0xd65fc041c3029725ull},
      {"rmat", 1, 2, 8192, 110708,
       0x69cb5da37032c849ull, 0x945670d382e0a334ull, 0x9490bb6ea5171de5ull},
      {"rmat", 2, 1, 16384, 228784,
       0x6bc0dfe9d8017e7full, 0xd02c57e12c840c0aull, 0x6b9cbaea4a9c0565ull},
      {"rmat", 2, 2, 16384, 228312,
       0x18b369c7fd097089ull, 0x49c378adba34c99aull, 0x44f673bf2a87bd45ull},
      {"rmat", 3, 1, 32768, 468728,
       0x2652126bd888099bull, 0xa0154dff405204dbull, 0xed4c446f847a4665ull},
      {"rmat", 3, 2, 32768, 468438,
       0xaee78f6520958296ull, 0x6e82c6081ea867d1ull, 0x0d137fb373aefb05ull},
      {"random", 0, 1, 4096, 32718,
       0xdbf0f82d27649d4bull, 0x2f80460f9f9d2ac9ull, 0xcd4ec1902a8e51f5ull},
      {"random", 0, 2, 4096, 32718,
       0x6bd1479cff58c375ull, 0xcafcf4192d67b684ull, 0x6a4dceb9e7e3cdc5ull},
      {"random", 1, 1, 8192, 65490,
       0x54173a0905a8638bull, 0x285b5a7b00718330ull, 0x52874ad694895ef5ull},
      {"random", 1, 2, 8192, 65502,
       0x9c4c2d1e5372455aull, 0x8bc35a21a8769a51ull, 0x35ae432586ce7375ull},
      {"random", 2, 1, 16384, 131040,
       0x287ba334b39f3e42ull, 0x3e4d2d24b4eb1371ull, 0xf920c2c4bcfdd835ull},
      {"random", 2, 2, 16384, 131038,
       0x96c2c259f43a5f7dull, 0x5ba2bdf0a7909692ull, 0x4a589b9c90bf48e5ull},
      {"random", 3, 1, 32768, 262084,
       0x1699dd757f44002aull, 0x73fefd2f3d3bde61ull, 0x7887000756780705ull},
      {"random", 3, 2, 32768, 262112,
       0xcd5edcc214e30ef3ull, 0x765c33180151b537ull, 0x9a62d52ce101c5f5ull},
      {"road", 0, 1, 4096, 16512,
       0xb16e00a342817854ull, 0x40ff06a6d1990e15ull, 0x1fe0f2561a1e04a5ull},
      {"road", 0, 2, 4096, 16524,
       0x6ca3e56f1619ff57ull, 0xf76cea615606ad93ull, 0x90684355563d4f5dull},
      {"road", 1, 1, 8192, 33142,
       0xd49b21e996a6a9c2ull, 0x866ca99d1ccb015cull, 0x06c645fabfc8de11ull},
      {"road", 1, 2, 8192, 33196,
       0x3518aef5eb751242ull, 0x9695cf7dfa989895ull, 0x90bebfe891a498c9ull},
      {"road", 2, 1, 16384, 66616,
       0x0f869b79600733deull, 0x1ba025718aa194f4ull, 0xb3eadcc3e6122f29ull},
      {"road", 2, 2, 16384, 66590,
       0x0cb530bd2aa90977ull, 0x40d167b0111812ffull, 0xa4136f05f351a921ull},
      {"road", 3, 1, 32768, 133530,
       0x8235faf9f719d9dcull, 0x845cede012a49f0bull, 0x7d8c558ae9018d69ull},
      {"road", 3, 2, 32768, 133426,
       0xf1567f47026dd0a5ull, 0x1ec79158af50e73full, 0xfcdc5cd431e91fedull},
      {"rmat", 6, 1, 262144, 3939966,
       0xf2ae723e139ff35full, 0xa9d87b777773ef3eull, 0x9b23b073d4851525ull},
  };
  for (const Digest &D : Digests) {
    Csr G = namedGraph(D.Name, D.Scale, D.Seed);
    SCOPED_TRACE(std::string(D.Name) + " scale " + std::to_string(D.Scale) +
                 " seed " + std::to_string(D.Seed));
    ASSERT_EQ(G.numNodes(), D.Nodes);
    ASSERT_EQ(G.numEdges(), D.Arcs);
    ASSERT_TRUE(G.hasWeights());
    EXPECT_EQ(fnv1a(G.rowStart(), static_cast<std::size_t>(D.Nodes) + 1),
              D.Rows);
    EXPECT_EQ(fnv1a(G.edgeDst(), static_cast<std::size_t>(D.Arcs)), D.Dsts);
    EXPECT_EQ(fnv1a(G.edgeWeight(), static_cast<std::size_t>(D.Arcs)),
              D.Weights);
  }
}

TEST(Generators, SameGraphForAnyWorkerCount) {
  // rmat scale 15 and random at 2^15 nodes make 4 and 2 generator chunks
  // and several build tasks.
  SerialTaskSystem Serial;
  Csr Rmat = rmatGraph(Serial, 15, 8, 5);
  Csr Random = uniformRandomGraph(Serial, 1 << 15, 4, 5);
  for (int Workers : {1, 2, 3}) {
    SpawnTaskSystem TS(Workers);
    EXPECT_TRUE(sameCsr(rmatGraph(TS, 15, 8, 5), Rmat))
        << Workers << " workers";
    EXPECT_TRUE(sameCsr(uniformRandomGraph(TS, 1 << 15, 4, 5), Random))
        << Workers << " workers";
  }
}

TEST(Generators, NamedGraphLeavesNoThreadRunning) {
  auto Threads = [] {
    auto Entries = std::filesystem::directory_iterator("/proc/self/task");
    return std::distance(begin(Entries), end(Entries));
  };
  const auto Before = Threads();
  Csr G = namedGraph("rmat", 3, 1);
  EXPECT_GT(G.numEdges(), 0);
  EXPECT_EQ(Threads(), Before);
}

TEST(Generators, NamedGraphsScale) {
  Csr Small = namedGraph("random", 0);
  Csr Larger = namedGraph("random", 2);
  EXPECT_GT(Larger.numNodes(), Small.numNodes());
}

//===----------------------------------------------------------------------===//
// Loaders.
//===----------------------------------------------------------------------===//

std::string tempPath(const char *Name) {
  return ::testing::TempDir() + "/" + Name;
}

TEST(Loaders, DimacsRoundTrip) {
  std::string Path = tempPath("test.gr");
  {
    std::ofstream F(Path);
    F << "c comment line\n";
    F << "p sp 4 3\n";
    F << "a 1 2 10\n";
    F << "a 2 3 20\n";
    F << "a 3 4 30\n";
  }
  auto G = loadDimacs(Path);
  ASSERT_TRUE(G.has_value());
  EXPECT_EQ(G->numNodes(), 4);
  EXPECT_EQ(G->numEdges(), 3);
  EXPECT_EQ(G->neighbors(0)[0], 1); // 1-based -> 0-based
  EXPECT_EQ(G->weights(0)[0], 10);
}

TEST(Loaders, DimacsRejectsGarbage) {
  std::string Path = tempPath("garbage.gr");
  {
    std::ofstream F(Path);
    F << "this is not a dimacs file\n";
  }
  EXPECT_FALSE(loadDimacs(Path).has_value());
  EXPECT_FALSE(loadDimacs("/nonexistent/file.gr").has_value());
}

TEST(Loaders, EdgeListWithAndWithoutWeights) {
  std::string Path = tempPath("edges.txt");
  {
    std::ofstream F(Path);
    F << "# comment\n";
    F << "0 1 5\n";
    F << "1 2 7\n";
  }
  auto G = loadEdgeList(Path);
  ASSERT_TRUE(G.has_value());
  EXPECT_EQ(G->numNodes(), 3);
  EXPECT_TRUE(G->hasWeights());
  EXPECT_EQ(G->weights(1)[0], 7);

  std::string Path2 = tempPath("edges2.txt");
  {
    std::ofstream F(Path2);
    F << "0 1\n1 0\n";
  }
  auto G2 = loadEdgeList(Path2);
  ASSERT_TRUE(G2.has_value());
  EXPECT_FALSE(G2->hasWeights());
}

TEST(Loaders, BinaryRoundTripExact) {
  Csr Original = rmatGraph(8, 4, 13);
  std::string Path = tempPath("graph.egcs");
  ASSERT_TRUE(saveBinaryCsr(Original, Path));
  auto Loaded = loadBinaryCsr(Path);
  ASSERT_TRUE(Loaded.has_value());
  ASSERT_EQ(Loaded->numNodes(), Original.numNodes());
  ASSERT_EQ(Loaded->numEdges(), Original.numEdges());
  EXPECT_EQ(Loaded->hasWeights(), Original.hasWeights());
  for (NodeId N = 0; N <= Original.numNodes(); ++N)
    EXPECT_EQ(Loaded->rowStart()[N], Original.rowStart()[N]);
  for (EdgeId E = 0; E < Original.numEdges(); ++E) {
    EXPECT_EQ(Loaded->edgeDst()[E], Original.edgeDst()[E]);
    if (Original.hasWeights()) {
      EXPECT_EQ(Loaded->edgeWeight()[E], Original.edgeWeight()[E]);
    }
  }
}

TEST(Loaders, BinaryRejectsCorruptHeader) {
  std::string Path = tempPath("corrupt.egcs");
  {
    std::ofstream F(Path, std::ios::binary);
    F << "NOPE-definitely-not-a-csr-file";
  }
  EXPECT_FALSE(loadBinaryCsr(Path).has_value());
}

/// Mirror of the cache file header (kept private in Loader.cpp) so the
/// rejection tests can craft adversarial files.
struct TestBinaryHeader {
  char Magic[4];
  std::uint32_t Version;
  std::int32_t NumNodes;
  std::int32_t NumEdges;
  std::uint32_t HasWeights;
};

TEST(Loaders, BinaryRejectsTruncatedFile) {
  Csr G = rmatGraph(8, 6, 5);
  std::string Path = tempPath("trunc.egcs");
  ASSERT_TRUE(saveBinaryCsr(G, Path));
  std::string Bytes;
  {
    std::ifstream In(Path, std::ios::binary);
    Bytes.assign(std::istreambuf_iterator<char>(In),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(Bytes.size(), sizeof(TestBinaryHeader));
  {
    // Cut into the middle of the CSR payload.
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size() / 2));
  }
  EXPECT_FALSE(loadBinaryCsr(Path).has_value());
  EXPECT_FALSE(loadBinaryGraph(Path).has_value());
}

TEST(Loaders, BinaryRejectsWrongMagicAndVersion) {
  Csr G = buildCsr(2, {{0, 1, 0}});
  std::string Path = tempPath("tampered.egcs");
  ASSERT_TRUE(saveBinaryCsr(G, Path));
  std::string Bytes;
  {
    std::ifstream In(Path, std::ios::binary);
    Bytes.assign(std::istreambuf_iterator<char>(In),
                 std::istreambuf_iterator<char>());
  }

  std::string WrongMagic = Bytes;
  WrongMagic[0] = 'X';
  {
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    Out.write(WrongMagic.data(),
              static_cast<std::streamsize>(WrongMagic.size()));
  }
  EXPECT_FALSE(loadBinaryCsr(Path).has_value());

  std::string WrongVersion = Bytes;
  std::uint32_t Future = 99;
  std::memcpy(WrongVersion.data() + 4, &Future, sizeof(Future));
  {
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    Out.write(WrongVersion.data(),
              static_cast<std::streamsize>(WrongVersion.size()));
  }
  EXPECT_FALSE(loadBinaryCsr(Path).has_value());
  EXPECT_FALSE(loadBinaryGraph(Path).has_value());
}

TEST(Loaders, BinaryStillReadsVersion1Files) {
  // A v1 file is the bare header + CSR payload, no SELL trailer.
  Csr G = buildCsr(3, {{0, 1, 7}, {1, 2, 9}});
  std::string Path = tempPath("v1.egcs");
  {
    std::ofstream F(Path, std::ios::binary);
    TestBinaryHeader H{{'E', 'G', 'C', 'S'},
                       1,
                       G.numNodes(),
                       G.numEdges(),
                       G.hasWeights() ? 1u : 0u};
    F.write(reinterpret_cast<const char *>(&H), sizeof(H));
    F.write(reinterpret_cast<const char *>(G.rowStart()),
            static_cast<std::streamsize>((G.numNodes() + 1) *
                                         sizeof(EdgeId)));
    F.write(reinterpret_cast<const char *>(G.edgeDst()),
            static_cast<std::streamsize>(G.numEdges() * sizeof(NodeId)));
    F.write(reinterpret_cast<const char *>(G.edgeWeight()),
            static_cast<std::streamsize>(G.numEdges() * sizeof(Weight)));
  }
  auto Loaded = loadBinaryGraph(Path);
  ASSERT_TRUE(Loaded.has_value());
  EXPECT_FALSE(Loaded->Sell.has_value()) << "v1 files carry no SELL image";
  EXPECT_EQ(Loaded->G.numNodes(), 3);
  EXPECT_EQ(Loaded->G.numEdges(), 2);
  EXPECT_EQ(Loaded->G.weights(1)[0], 9);
}

TEST(Loaders, BinaryV2RoundTripsSellImage) {
  Csr G = rmatGraph(9, 8, 7);
  SellImage Img = buildSellImage(G, 8, 64);
  std::string Path = tempPath("graph_sell.egcs");
  ASSERT_TRUE(saveBinaryCsr(G, Path, &Img));

  auto Loaded = loadBinaryGraph(Path);
  ASSERT_TRUE(Loaded.has_value());
  ASSERT_TRUE(Loaded->Sell.has_value());
  EXPECT_EQ(Loaded->Sell->Chunk, 8);
  EXPECT_EQ(Loaded->Sell->Sigma, 64);

  // The restored image must match a freshly built one bit for bit.
  SellImage Fresh = buildSellImage(G, 8, 64);
  const SellImage &Got = *Loaded->Sell;
  ASSERT_EQ(Got.paddedSlots(), Fresh.paddedSlots());
  ASSERT_EQ(Got.numChunks(), Fresh.numChunks());
  ASSERT_EQ(Got.storedEntries(), Fresh.storedEntries());
  for (std::size_t I = 0; I < Fresh.Order.size(); ++I) {
    EXPECT_EQ(Got.Order[I], Fresh.Order[I]);
    EXPECT_EQ(Got.SlotDeg[I], Fresh.SlotDeg[I]);
  }
  for (std::size_t I = 0; I < Fresh.SliceOff.size(); ++I)
    EXPECT_EQ(Got.SliceOff[I], Fresh.SliceOff[I]);
  for (std::size_t I = 0; I < Fresh.SellDst.size(); ++I) {
    EXPECT_EQ(Got.SellDst[I], Fresh.SellDst[I]);
    EXPECT_EQ(Got.SellEdge[I], Fresh.SellEdge[I]);
  }

  // A view adopting the restored image works against the restored CSR.
  SellView Restored(Loaded->G, std::move(*Loaded->Sell));
  EXPECT_EQ(Restored.storedEntries(), Fresh.storedEntries());

  // loadBinaryCsr skips the trailer but still reads the CSR.
  auto Plain = loadBinaryCsr(Path);
  ASSERT_TRUE(Plain.has_value());
  EXPECT_EQ(Plain->numEdges(), G.numEdges());
}

TEST(Loaders, ParseFailuresNameFileAndLine) {
  // The loaders return nullopt on malformed input; the diagnostics
  // themselves go to stderr (captured manually when debugging). These
  // cases exercise each early-exit path.
  std::string Bad = tempPath("bad_arc.gr");
  {
    std::ofstream F(Bad);
    F << "p sp 2 1\n";
    F << "a 1 notanumber\n";
  }
  EXPECT_FALSE(loadDimacs(Bad).has_value());

  std::string OutOfRange = tempPath("bad_range.gr");
  {
    std::ofstream F(OutOfRange);
    F << "p sp 2 1\n";
    F << "a 1 5 3\n";
  }
  EXPECT_FALSE(loadDimacs(OutOfRange).has_value());

  std::string NoHeader = tempPath("no_header.gr");
  {
    std::ofstream F(NoHeader);
    F << "a 1 2 3\n";
  }
  EXPECT_FALSE(loadDimacs(NoHeader).has_value());

  std::string BadEdge = tempPath("bad_edge.txt");
  {
    std::ofstream F(BadEdge);
    F << "0 1\n";
    F << "only-one-token\n";
  }
  EXPECT_FALSE(loadEdgeList(BadEdge).has_value());
  EXPECT_FALSE(loadEdgeList("/nonexistent/edges.txt").has_value());
}

} // namespace
