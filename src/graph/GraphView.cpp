//===- graph/GraphView.cpp - Pluggable SIMD-facing graph layouts ----------===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
//===----------------------------------------------------------------------===//

#include "graph/GraphView.h"

#include "support/ParseEnum.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <numeric>

using namespace egacs;

const char *egacs::layoutName(LayoutKind K) {
  switch (K) {
  case LayoutKind::Csr:
    return "csr";
  case LayoutKind::Sell:
    return "sell";
  }
  return "<invalid>";
}

LayoutKind egacs::parseLayoutKind(const std::string &Name) {
  if (Name == "csr")
    return LayoutKind::Csr;
  if (Name == "sell")
    return LayoutKind::Sell;
  parseEnumFail("layout", Name, "csr|sell");
}

// --- SellView ----------------------------------------------------------------

SellImage egacs::buildSellImage(const Csr &G, std::int32_t Chunk,
                                std::int32_t Sigma) {
  if (Chunk <= 0)
    Chunk = 8;
  if (Sigma < Chunk)
    Sigma = Chunk;

  SellImage Img;
  Img.Chunk = Chunk;
  Img.Sigma = Sigma;

  const std::int64_t N = G.numNodes();
  const std::int64_t Padded =
      N == 0 ? 0 : ((N + Chunk - 1) / Chunk) * Chunk;
  const std::int64_t NumChunks = Padded / Chunk;

  Img.Order.allocate(static_cast<std::size_t>(std::max<std::int64_t>(Padded, 1)));
  Img.Order.zero();
  Img.SlotDeg.allocate(
      static_cast<std::size_t>(std::max<std::int64_t>(Padded, 1)));
  Img.SlotDeg.zero();
  Img.SliceOff.allocate(static_cast<std::size_t>(NumChunks) + 1);
  Img.SliceOff.zero();

  // Sort node ids by degree (descending, stable) within sigma-windows of
  // the original id order; real nodes occupy slots [0, N), the tail of the
  // last chunk is padding rows of degree 0.
  std::iota(Img.Order.data(), Img.Order.data() + N, NodeId{0});
  for (std::int64_t W = 0; W < N; W += Sigma) {
    std::int64_t WEnd = std::min<std::int64_t>(W + Sigma, N);
    std::stable_sort(Img.Order.data() + W, Img.Order.data() + WEnd,
                     [&G](NodeId A, NodeId B) {
                       return G.degree(A) > G.degree(B);
                     });
  }
  for (std::int64_t S = 0; S < N; ++S)
    Img.SlotDeg[static_cast<std::size_t>(S)] =
        G.degree(Img.Order[static_cast<std::size_t>(S)]);

  // Chunk lengths (max degree per chunk) -> slice offsets.
  for (std::int64_t K = 0; K < NumChunks; ++K) {
    EdgeId Len = 0;
    for (std::int64_t L = 0; L < Chunk; ++L)
      Len = std::max(Len,
                     Img.SlotDeg[static_cast<std::size_t>(K * Chunk + L)]);
    Img.SliceOff[static_cast<std::size_t>(K) + 1] =
        Img.SliceOff[static_cast<std::size_t>(K)] +
        static_cast<std::int64_t>(Len) * Chunk;
  }

  const std::int64_t Stored = Img.SliceOff[static_cast<std::size_t>(NumChunks)];
  Img.SellDst.allocate(
      static_cast<std::size_t>(std::max<std::int64_t>(Stored, 1)));
  Img.SellDst.zero();
  Img.SellEdge.allocate(
      static_cast<std::size_t>(std::max<std::int64_t>(Stored, 1)));
  Img.SellEdge.zero();

  const EdgeId *Rows = G.rowStart();
  const NodeId *Dsts = G.edgeDst();
  for (std::int64_t S = 0; S < N; ++S) {
    NodeId Node = Img.Order[static_cast<std::size_t>(S)];
    std::int64_t K = S / Chunk;
    std::int64_t Lane = S % Chunk;
    std::int64_t Base = Img.SliceOff[static_cast<std::size_t>(K)] + Lane;
    EdgeId Row = Rows[Node];
    EdgeId Deg = Img.SlotDeg[static_cast<std::size_t>(S)];
    for (EdgeId J = 0; J < Deg; ++J) {
      std::int64_t At = Base + static_cast<std::int64_t>(J) * Chunk;
      Img.SellDst[static_cast<std::size_t>(At)] = Dsts[Row + J];
      Img.SellEdge[static_cast<std::size_t>(At)] = Row + J;
    }
  }
  return Img;
}

SellView::SellView(const Csr &Graph, const LayoutOptions &Opts)
    : SellView(Graph, buildSellImage(Graph, Opts.SellChunk, Opts.SellSigma)) {}

SellView::SellView(const Csr &Graph, SellImage Image)
    : G(&Graph), Img(std::move(Image)) {
  InvSlot.allocate(
      static_cast<std::size_t>(std::max<NodeId>(Graph.numNodes(), 1)));
  for (std::int64_t S = 0; S < Graph.numNodes(); ++S)
    InvSlot[static_cast<std::size_t>(Img.Order[static_cast<std::size_t>(S)])] =
        S;
}

std::size_t SellView::layoutAuxBytes() const {
  return Img.Order.size() * sizeof(NodeId) +
         Img.SlotDeg.size() * sizeof(EdgeId) +
         Img.SliceOff.size() * sizeof(std::int64_t) +
         Img.SellDst.size() * sizeof(NodeId) +
         Img.SellEdge.size() * sizeof(EdgeId) +
         InvSlot.size() * sizeof(std::int64_t);
}

// --- AnyLayout ---------------------------------------------------------------

AnyLayout AnyLayout::build(LayoutKind K, const Csr &G,
                           const LayoutOptions &Opts) {
  AnyLayout L;
  L.Kind = K;
  L.Plain = CsrView(G);
  switch (K) {
  case LayoutKind::Csr:
    break;
  case LayoutKind::Sell:
    L.SellV.emplace(G, Opts);
    break;
  }
  return L;
}

AnyLayout AnyLayout::fromSellImage(const Csr &G, SellImage Img) {
  AnyLayout L;
  L.Kind = LayoutKind::Sell;
  L.Plain = CsrView(G);
  L.SellV.emplace(G, std::move(Img));
  return L;
}

void AnyLayout::buildTranspose(const LayoutOptions &Opts) {
  adoptTranspose(std::make_shared<const Csr>(csr().transpose()), Opts);
}

void AnyLayout::adoptTranspose(std::shared_ptr<const Csr> T,
                               const LayoutOptions &Opts) {
  TGraph = std::move(T);
  TPlain = CsrView(*TGraph);
  TSell.reset();
  switch (Kind) {
  case LayoutKind::Csr:
    break;
  case LayoutKind::Sell:
    TSell.emplace(*TGraph, Opts);
    break;
  }
}

std::size_t AnyLayout::layoutAuxBytes() const {
  return visit([](const auto &V) { return V.layoutAuxBytes(); });
}
