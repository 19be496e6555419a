//===- graph/Csr.cpp - Compressed sparse row graphs -----------------------===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
//===----------------------------------------------------------------------===//

#include "graph/Csr.h"

#include "support/PrefixSum.h"

#include <algorithm>
#include <cstdio>
#include <limits>

using namespace egacs;

Csr::Csr(NodeId NumNodes, AlignedBuffer<EdgeId> RowStart,
         AlignedBuffer<NodeId> EdgeDst, AlignedBuffer<Weight> EdgeWeights)
    : NodeCount(NumNodes), Rows(std::move(RowStart)), Dsts(std::move(EdgeDst)),
      Weights(std::move(EdgeWeights)) {
  assert(Rows.size() == static_cast<std::size_t>(NumNodes) + 1 &&
         "row array must have NumNodes+1 entries");
  EdgeCount = Rows[static_cast<std::size_t>(NumNodes)];
  assert(Dsts.size() >= static_cast<std::size_t>(EdgeCount) &&
         "destination array too small");
  assert((Weights.empty() ||
          Weights.size() >= static_cast<std::size_t>(EdgeCount)) &&
         "weight array too small");
  for (NodeId N = 0; N < NodeCount; ++N)
    MaxDeg = std::max(MaxDeg, degree(N));
}

Csr Csr::transpose() const {
  AlignedBuffer<EdgeId> NewRows(static_cast<std::size_t>(NodeCount) + 1);
  NewRows.zero();
  for (EdgeId E = 0; E < EdgeCount; ++E)
    ++NewRows[static_cast<std::size_t>(Dsts[E])];
  // Shift into exclusive-prefix-sum position with the sentinel at the end.
  exclusivePrefixSum(NewRows.data(), NodeCount + 1ull);
  NewRows[static_cast<std::size_t>(NodeCount)] = EdgeCount;

  AlignedBuffer<NodeId> NewDsts(static_cast<std::size_t>(EdgeCount));
  AlignedBuffer<Weight> NewWeights;
  if (hasWeights())
    NewWeights.allocate(static_cast<std::size_t>(EdgeCount));

  std::vector<EdgeId> Cursor(NewRows.data(), NewRows.data() + NodeCount);
  for (NodeId Src = 0; Src < NodeCount; ++Src) {
    for (EdgeId E = Rows[static_cast<std::size_t>(Src)];
         E < Rows[static_cast<std::size_t>(Src) + 1]; ++E) {
      NodeId Dst = Dsts[static_cast<std::size_t>(E)];
      EdgeId Slot = Cursor[static_cast<std::size_t>(Dst)]++;
      NewDsts[static_cast<std::size_t>(Slot)] = Src;
      if (hasWeights())
        NewWeights[static_cast<std::size_t>(Slot)] =
            Weights[static_cast<std::size_t>(E)];
    }
  }
  return Csr(NodeCount, std::move(NewRows), std::move(NewDsts),
             std::move(NewWeights));
}

Csr Csr::sortedByDestination() const {
  AlignedBuffer<EdgeId> NewRows(static_cast<std::size_t>(NodeCount) + 1);
  for (std::size_t I = 0; I <= static_cast<std::size_t>(NodeCount); ++I)
    NewRows[I] = Rows[I];

  AlignedBuffer<NodeId> NewDsts(static_cast<std::size_t>(EdgeCount));
  AlignedBuffer<Weight> NewWeights;
  if (hasWeights())
    NewWeights.allocate(static_cast<std::size_t>(EdgeCount));

  std::vector<std::pair<NodeId, Weight>> Scratch;
  for (NodeId N = 0; N < NodeCount; ++N) {
    EdgeId Begin = Rows[static_cast<std::size_t>(N)];
    EdgeId End = Rows[static_cast<std::size_t>(N) + 1];
    Scratch.clear();
    for (EdgeId E = Begin; E < End; ++E)
      Scratch.push_back({Dsts[static_cast<std::size_t>(E)],
                         hasWeights() ? Weights[static_cast<std::size_t>(E)]
                                      : 0});
    std::sort(Scratch.begin(), Scratch.end());
    for (EdgeId E = Begin; E < End; ++E) {
      NewDsts[static_cast<std::size_t>(E)] =
          Scratch[static_cast<std::size_t>(E - Begin)].first;
      if (hasWeights())
        NewWeights[static_cast<std::size_t>(E)] =
            Scratch[static_cast<std::size_t>(E - Begin)].second;
    }
  }
  return Csr(NodeCount, std::move(NewRows), std::move(NewDsts),
             std::move(NewWeights));
}

std::size_t Csr::memoryFootprintBytes() const {
  std::size_t Bytes = (Rows.size() * sizeof(EdgeId)) +
                      (Dsts.size() * sizeof(NodeId)) +
                      (Weights.size() * sizeof(Weight));
  return Bytes;
}

bool egacs::csrEdgeCountValid(std::size_t Count) {
  // EdgeId is int32_t; RowStart[NumNodes] must hold the edge count, so the
  // largest representable graph has 2^31 - 1 edges.
  return Count <= static_cast<std::size_t>(
                      std::numeric_limits<EdgeId>::max());
}

Csr egacs::buildCsr(NodeId NumNodes, std::vector<RawEdge> Edges,
                    const BuildOptions &Opts) {
  assert(NumNodes >= 0 && "negative node count");
  // Symmetrization at most doubles the edge count; validate the worst case
  // up front so the reserve below cannot already overflow EdgeId math.
  std::size_t WorstCase = Edges.size() * (Opts.Symmetrize ? 2 : 1);
  if (!csrEdgeCountValid(WorstCase)) {
    char Msg[256];
    std::snprintf(Msg, sizeof(Msg),
                  "buildCsr: %zu edges%s exceed the 32-bit EdgeId index "
                  "space (max %zu); rebuild with 64-bit edge ids or shard "
                  "the input",
                  Edges.size(),
                  Opts.Symmetrize ? " (after symmetrization)" : "",
                  static_cast<std::size_t>(std::numeric_limits<EdgeId>::max()));
    throw GraphSizeError(Msg);
  }
  if (Opts.Symmetrize) {
    std::size_t Original = Edges.size();
    Edges.reserve(Original * 2);
    for (std::size_t I = 0; I < Original; ++I) {
      const RawEdge &E = Edges[I];
      if (E.Src != E.Dst)
        Edges.push_back({E.Dst, E.Src, E.W});
    }
  }
  if (Opts.DropSelfLoops)
    std::erase_if(Edges, [](const RawEdge &E) { return E.Src == E.Dst; });

  if (Opts.Dedupe) {
    std::sort(Edges.begin(), Edges.end(), [](const RawEdge &A, const RawEdge &B) {
      if (A.Src != B.Src)
        return A.Src < B.Src;
      if (A.Dst != B.Dst)
        return A.Dst < B.Dst;
      return A.W < B.W;
    });
    Edges.erase(std::unique(Edges.begin(), Edges.end(),
                            [](const RawEdge &A, const RawEdge &B) {
                              return A.Src == B.Src && A.Dst == B.Dst;
                            }),
                Edges.end());
  }

  bool AnyWeight = false;
  for (const RawEdge &E : Edges)
    if (E.W != 0) {
      AnyWeight = true;
      break;
    }

  AlignedBuffer<EdgeId> Rows(static_cast<std::size_t>(NumNodes) + 1);
  Rows.zero();
  for (const RawEdge &E : Edges) {
    assert(E.Src >= 0 && E.Src < NumNodes && "edge source out of range");
    assert(E.Dst >= 0 && E.Dst < NumNodes && "edge destination out of range");
    ++Rows[static_cast<std::size_t>(E.Src)];
  }
  exclusivePrefixSum(Rows.data(), static_cast<std::size_t>(NumNodes) + 1);
  Rows[static_cast<std::size_t>(NumNodes)] =
      static_cast<EdgeId>(Edges.size());

  AlignedBuffer<NodeId> Dsts(Edges.size());
  AlignedBuffer<Weight> Weights;
  if (AnyWeight)
    Weights.allocate(Edges.size());

  std::vector<EdgeId> Cursor(Rows.data(), Rows.data() + NumNodes);
  for (const RawEdge &E : Edges) {
    EdgeId Slot = Cursor[static_cast<std::size_t>(E.Src)]++;
    Dsts[static_cast<std::size_t>(Slot)] = E.Dst;
    if (AnyWeight)
      Weights[static_cast<std::size_t>(Slot)] = E.W;
  }
  return Csr(NumNodes, std::move(Rows), std::move(Dsts), std::move(Weights));
}
