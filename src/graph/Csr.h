//===- graph/Csr.h - Compressed sparse row graphs ---------------*- C++ -*-===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The CSR graph representation shared by every kernel and framework in the
/// project. Following the paper (Section IV), node and edge indices are
/// 32-bit while pointers are 64-bit; arrays are 64-byte aligned so SIMD
/// loops may touch full vectors at row boundaries.
///
//===----------------------------------------------------------------------===//

#ifndef EGACS_GRAPH_CSR_H
#define EGACS_GRAPH_CSR_H

#include "support/AlignedBuffer.h"

#include <cassert>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace egacs {

/// Node identifier; 32-bit per the paper's layout.
using NodeId = std::int32_t;
/// Edge index into the destination/weight arrays.
using EdgeId = std::int32_t;
/// Edge weight (integer distances, as in the DIMACS road graphs).
using Weight = std::int32_t;

/// A weighted directed graph in compressed-sparse-row form. Undirected
/// graphs are stored symmetrized (both arcs present).
class Csr {
public:
  Csr() = default;

  /// Takes ownership of fully built CSR arrays. RowStart must have
  /// NumNodes+1 entries with RowStart[NumNodes] == NumEdges; EdgeWeights may
  /// be empty for unweighted graphs.
  Csr(NodeId NumNodes, AlignedBuffer<EdgeId> RowStart,
      AlignedBuffer<NodeId> EdgeDst, AlignedBuffer<Weight> EdgeWeights);

  NodeId numNodes() const { return NodeCount; }
  EdgeId numEdges() const { return EdgeCount; }
  bool hasWeights() const { return !Weights.empty(); }

  /// Raw arrays; the SIMD kernels gather directly from these.
  const EdgeId *rowStart() const { return Rows.data(); }
  const NodeId *edgeDst() const { return Dsts.data(); }
  const Weight *edgeWeight() const { return Weights.data(); }

  EdgeId degree(NodeId N) const {
    assert(N >= 0 && N < NodeCount && "node out of range");
    return Rows[static_cast<std::size_t>(N) + 1] -
           Rows[static_cast<std::size_t>(N)];
  }

  /// The out-neighbors of \p N.
  std::span<const NodeId> neighbors(NodeId N) const {
    assert(N >= 0 && N < NodeCount && "node out of range");
    return {Dsts.data() + Rows[static_cast<std::size_t>(N)],
            static_cast<std::size_t>(degree(N))};
  }

  /// The weights parallel to neighbors(N); only valid when hasWeights().
  std::span<const Weight> weights(NodeId N) const {
    assert(hasWeights() && "graph has no weights");
    return {Weights.data() + Rows[static_cast<std::size_t>(N)],
            static_cast<std::size_t>(degree(N))};
  }

  /// Maximum out-degree over all nodes (0 for an empty graph). Computed
  /// once at construction; callers (NP inspector, fiber sizing, layout
  /// builders) read it for free.
  EdgeId maxDegree() const { return MaxDeg; }

  /// Returns the transpose (all arcs reversed). Weights follow their arc.
  Csr transpose() const;

  /// Returns a copy whose adjacency lists are sorted by destination
  /// (required by the triangle-counting intersection kernel).
  Csr sortedByDestination() const;

  /// Approximate resident memory of the graph arrays in bytes.
  std::size_t memoryFootprintBytes() const;

private:
  NodeId NodeCount = 0;
  EdgeId EdgeCount = 0;
  EdgeId MaxDeg = 0;
  AlignedBuffer<EdgeId> Rows;
  AlignedBuffer<NodeId> Dsts;
  AlignedBuffer<Weight> Weights;
};

/// An edge used during graph construction.
struct RawEdge {
  NodeId Src;
  NodeId Dst;
  Weight W;
};

/// Options controlling CSR construction from an edge list.
struct BuildOptions {
  /// Insert the reverse of every arc (symmetrize).
  bool Symmetrize = false;
  /// Drop duplicate (src, dst) pairs, keeping the smallest weight.
  bool Dedupe = false;
  /// Drop self loops.
  bool DropSelfLoops = false;
};

/// Returns true when \p Count edges fit the 32-bit EdgeId index space
/// (< 2^31). Factored out so the boundary is unit-testable with a mocked
/// count without materializing two billion edges.
bool csrEdgeCountValid(std::size_t Count);

/// A graph whose node or arc count does not fit the 32-bit NodeId/EdgeId
/// index space. Thrown by buildCsr and the generators before anything is
/// materialized; the command-line tools report what() and exit 2.
class GraphSizeError : public std::length_error {
public:
  using std::length_error::length_error;
};

/// Builds a CSR graph from \p Edges over \p NumNodes nodes. Inputs whose
/// final edge count (after symmetrization) overflows EdgeId are rejected
/// with a GraphSizeError -- never silently wrapped.
Csr buildCsr(NodeId NumNodes, std::vector<RawEdge> Edges,
             const BuildOptions &Opts = {});

} // namespace egacs

#endif // EGACS_GRAPH_CSR_H
