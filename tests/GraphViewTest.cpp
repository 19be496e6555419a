//===- tests/GraphViewTest.cpp - Graph layout layer tests -----------------===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
// Unit tests for the GraphView layer (graph/GraphView.h): the SELL
// permutation, the sliced storage round trip and the zero-cost guarantee of
// CsrView. Every kernel x layout x scheduling policy is certified by the
// LayoutParity suite of ConfigGridTest.cpp.
//
//===----------------------------------------------------------------------===//

#include "graph/Generators.h"
#include "graph/GraphView.h"
#include "kernels/Kernels.h"
#include "kernels/Bfs.h"
#include "kernels/Pr.h"
#include "simd/Backend.h"
#include "simd/Targets.h"
#include "support/Stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

using namespace egacs;
using namespace egacs::simd;

namespace {

//===----------------------------------------------------------------------===//
// Names and options.
//===----------------------------------------------------------------------===//

TEST(GraphViewNames, LayoutNamesRoundTrip) {
  for (LayoutKind K : AllLayoutKinds)
    EXPECT_EQ(parseLayoutKind(layoutName(K)), K);
  EXPECT_STREQ(layoutName(LayoutKind::Csr), "csr");
  EXPECT_STREQ(layoutName(LayoutKind::Sell), "sell");
}

//===----------------------------------------------------------------------===//
// CsrView: the zero-cost default.
//===----------------------------------------------------------------------===//

TEST(CsrViewTest, RowSliceIsTheCsrRow) {
  Csr G = rmatGraph(/*Scale=*/7, /*EdgeFactor=*/4, /*Seed=*/3);
  CsrView V(G);
  EXPECT_EQ(V.numNodes(), G.numNodes());
  EXPECT_EQ(V.numEdges(), G.numEdges());
  EXPECT_EQ(V.maxDegree(), G.maxDegree());
  EXPECT_EQ(V.layoutAuxBytes(), 0u);
  for (NodeId N = 0; N < G.numNodes(); ++N) {
    RowSlice R = V.rowSlice(N);
    ASSERT_EQ(R.Len, G.degree(N));
    EXPECT_EQ(R.Stride, 1);
    EXPECT_EQ(R.FirstEdge, G.rowStart()[N]);
    for (EdgeId I = 0; I < R.Len; ++I) {
      EXPECT_EQ(R.dst(I), G.neighbors(N)[static_cast<std::size_t>(I)]);
      EXPECT_EQ(R.edgeIndex(I), G.rowStart()[N] + I);
    }
  }
}

TEST(CsrViewTest, SlotNodesIsTheIdentitySequence) {
  using BK = ScalarBackend<8>;
  Csr G = pathGraph(32);
  CsrView V(G);
  VMask<BK> All = maskAll<BK>();
  VInt<BK> Ids = slotNodes<BK>(V, /*Slot=*/16, All);
  for (int L = 0; L < BK::Width; ++L)
    EXPECT_EQ(extract<BK>(Ids, L), 16 + L);
}

/// The refactor's zero-cost claim, checked at the dynamic-operation level:
/// a kernel instantiated with CsrView must execute exactly the vector
/// operations it executes when instantiated with the bare Csr (which still
/// satisfies the view templates and is what the code compiled to before
/// the layer existed).
TEST(CsrViewTest, KernelOpCountsMatchBareCsrInstantiation) {
  using BK = ScalarBackend<8>;
  Csr G = rmatGraph(/*Scale=*/8, /*EdgeFactor=*/5, /*Seed=*/17);
  SerialTaskSystem Serial;
  KernelConfig Cfg = KernelConfig::allOptimizations(Serial, 1);

  auto countOps = [&](auto Run) {
    statsReset();
    setOpCounting(true);
    StatsSnapshot Before = StatsSnapshot::capture();
    Run();
    StatsSnapshot After = StatsSnapshot::capture();
    setOpCounting(false);
    return After - Before;
  };

  std::vector<std::int32_t> DistBare, DistView;
  StatsSnapshot Bare =
      countOps([&] { DistBare = bfsTp<BK>(G, Cfg, /*Source=*/0); });
  StatsSnapshot View =
      countOps([&] { DistView = bfsTp<BK>(CsrView(G), Cfg, /*Source=*/0); });
  EXPECT_EQ(DistBare, DistView);
  for (int S = 0; S < static_cast<int>(Stat::NumStats); ++S)
    EXPECT_EQ(Bare.get(static_cast<Stat>(S)), View.get(static_cast<Stat>(S)))
        << "counter " << S << " diverged between Csr and CsrView";

  std::vector<float> PrBare, PrView;
  Bare = countOps([&] { PrBare = pageRank<BK>(G, Cfg); });
  View = countOps([&] { PrView = pageRank<BK>(CsrView(G), Cfg); });
  EXPECT_EQ(PrBare, PrView);
  for (int S = 0; S < static_cast<int>(Stat::NumStats); ++S)
    EXPECT_EQ(Bare.get(static_cast<Stat>(S)), View.get(static_cast<Stat>(S)))
        << "counter " << S << " diverged between Csr and CsrView";
}

//===----------------------------------------------------------------------===//
// SellView: SELL-C-sigma slicing.
//===----------------------------------------------------------------------===//

TEST(SellViewTest, RowSlicesRoundTripEveryAdjacency) {
  Csr G = rmatGraph(/*Scale=*/8, /*EdgeFactor=*/6, /*Seed=*/7);
  LayoutOptions Opts;
  Opts.SellChunk = 8;
  Opts.SellSigma = 64;
  SellView V(G, Opts);
  EXPECT_EQ(V.chunkWidth(), 8);
  EXPECT_EQ(V.sigma(), 64);

  for (NodeId N = 0; N < G.numNodes(); ++N) {
    RowSlice R = V.rowSlice(N);
    ASSERT_EQ(R.Len, G.degree(N)) << "node " << N;
    EXPECT_EQ(R.Stride, 8);
    for (EdgeId I = 0; I < R.Len; ++I) {
      EXPECT_EQ(R.dst(I), G.neighbors(N)[static_cast<std::size_t>(I)]);
      // Slice entries carry the original CSR edge index, so edge-indexed
      // state (weights, per-edge flags) resolves exactly.
      EdgeId E = R.edgeIndex(I);
      ASSERT_GE(E, G.rowStart()[N]);
      ASSERT_LT(E, G.rowStart()[N + 1]);
      EXPECT_EQ(G.edgeDst()[E], R.dst(I));
    }
  }
}

TEST(SellViewTest, SlotOfInvertsIterationOrder) {
  Csr G = uniformRandomGraph(700, /*Degree=*/3, /*Seed=*/13);
  LayoutOptions Opts;
  Opts.SellChunk = 16;
  Opts.SellSigma = 128;
  SellView V(G, Opts);
  ASSERT_GE(V.paddedSlots(), static_cast<std::int64_t>(G.numNodes()));
  EXPECT_EQ(V.paddedSlots() % 16, 0);
  for (NodeId N = 0; N < G.numNodes(); ++N) {
    std::int64_t S = V.slotOf(N);
    ASSERT_GE(S, 0);
    ASSERT_LT(S, V.paddedSlots());
    EXPECT_EQ(V.iterationOrder()[S], N);
    EXPECT_EQ(V.slotDegrees()[S], G.degree(N));
  }
}

TEST(SellViewTest, DegreesDescendWithinSigmaWindows) {
  Csr G = rmatGraph(/*Scale=*/8, /*EdgeFactor=*/6, /*Seed=*/19);
  LayoutOptions Opts;
  Opts.SellChunk = 8;
  Opts.SellSigma = 64;
  SellView V(G, Opts);
  const NodeId *Order = V.iterationOrder();
  for (std::int64_t S = 1; S < static_cast<std::int64_t>(G.numNodes()); ++S) {
    if (S % Opts.SellSigma == 0)
      continue; // new sorting window
    EXPECT_LE(G.degree(Order[S]), G.degree(Order[S - 1]))
        << "degrees must not increase within a sigma window (slot " << S
        << ")";
  }
}

TEST(SellViewTest, PaddingAccountingAndSigmaTradeoff) {
  Csr G = rmatGraph(/*Scale=*/9, /*EdgeFactor=*/6, /*Seed=*/23);
  auto PadAt = [&](std::int32_t Sigma) {
    LayoutOptions Opts;
    Opts.SellChunk = 8;
    Opts.SellSigma = Sigma;
    SellView V(G, Opts);
    EXPECT_EQ(V.paddingEntries(),
              V.storedEntries() - static_cast<std::int64_t>(G.numEdges()));
    EXPECT_GE(V.paddingEntries(), 0);
    // Chunk offsets are increasing and sized in whole chunks.
    for (std::int64_t C = 0; C < V.numChunks(); ++C) {
      std::int64_t Span = V.sliceOffsets()[C + 1] - V.sliceOffsets()[C];
      EXPECT_GE(Span, 0);
      EXPECT_EQ(Span % 8, 0);
    }
    return V.paddingEntries();
  };
  // sigma = C keeps the original order but pads every chunk to its longest
  // row; growing the window strictly reduces (or keeps) the padding, and on
  // a skewed graph the reduction is large.
  std::int64_t PadTight = PadAt(8);
  std::int64_t PadMid = PadAt(256);
  std::int64_t PadWide = PadAt(1 << 12);
  EXPECT_GE(PadTight, PadMid);
  EXPECT_GE(PadMid, PadWide);
  EXPECT_GT(PadTight, PadWide) << "rmat padding should shrink with sigma";
}

TEST(SellViewTest, AdoptedImageMatchesFreshBuild) {
  Csr G = roadGraph(20, 15, 0.05, /*Seed=*/29);
  SellImage Img = buildSellImage(G, /*Chunk=*/8, /*Sigma=*/64);
  SellView Adopted(G, std::move(Img));
  LayoutOptions Opts;
  Opts.SellChunk = 8;
  Opts.SellSigma = 64;
  SellView Fresh(G, Opts);
  ASSERT_EQ(Adopted.paddedSlots(), Fresh.paddedSlots());
  ASSERT_EQ(Adopted.storedEntries(), Fresh.storedEntries());
  for (std::int64_t S = 0; S < Fresh.paddedSlots(); ++S)
    EXPECT_EQ(Adopted.iterationOrder()[S], Fresh.iterationOrder()[S]);
  for (std::int64_t E = 0; E < Fresh.storedEntries(); ++E) {
    EXPECT_EQ(Adopted.sellDst()[E], Fresh.sellDst()[E]);
    EXPECT_EQ(Adopted.sellEdge()[E], Fresh.sellEdge()[E]);
  }
}

//===----------------------------------------------------------------------===//
// AnyLayout: the runtime dispatcher.
//===----------------------------------------------------------------------===//

TEST(AnyLayoutTest, VisitDispatchesToTheStaticType) {
  Csr G = pathGraph(50);
  for (LayoutKind K : AllLayoutKinds) {
    AnyLayout L = AnyLayout::build(K, G);
    EXPECT_EQ(L.kind(), K);
    NodeId N = L.visit([](const auto &V) { return V.numNodes(); });
    EXPECT_EQ(N, G.numNodes());
  }
  EXPECT_EQ(AnyLayout::build(LayoutKind::Csr, G).layoutAuxBytes(), 0u);
  EXPECT_GT(AnyLayout::build(LayoutKind::Sell, G).layoutAuxBytes(), 0u);
}

} // namespace
