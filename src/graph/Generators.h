//===- graph/Generators.h - Synthetic input graphs --------------*- C++ -*-===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Synthetic stand-ins for the paper's three input graphs, preserving their
/// structural class:
///  * USA-Road (23M nodes, 46M arcs): a uniform-low-degree planar network
///    with huge diameter -> roadGraph(), a W x H grid with random diagonal
///    shortcuts and road-like integer weights.
///  * RMAT22 (4M nodes, 33M arcs): a skewed scale-free graph -> rmatGraph()
///    with the standard (0.57, 0.19, 0.19, 0.05) parameters.
///  * Random (8M nodes, 33M arcs): a uniform-degree random graph ->
///    uniformRandomGraph() ("r4-2e23": ~4 out-arcs per node).
/// Sizes are scaled by the benchmark harness to fit this machine; the class
/// of graph (degree distribution, diameter) is what the paper's effects
/// depend on. All generators are deterministic in their seed. Requests
/// whose node or worst-case arc count would overflow the 32-bit
/// NodeId/EdgeId index space are rejected up front with a GraphSizeError
/// (csrEdgeCountValid) instead of silently wrapping.
///
//===----------------------------------------------------------------------===//

#ifndef EGACS_GRAPH_GENERATORS_H
#define EGACS_GRAPH_GENERATORS_H

#include "graph/Csr.h"

#include <cstdint>

namespace egacs {

/// A W x H grid road network: 4-neighbor connectivity, a fraction of random
/// "highway" diagonals, symmetric, with integer weights in [1, 1000]. Very
/// large diameter and near-uniform degree, like USA-Road.
Csr roadGraph(int Width, int Height, double DiagonalFraction = 0.05,
              std::uint64_t Seed = 1);

/// An RMAT graph with 2^Scale nodes and EdgeFactor * 2^Scale arcs before
/// symmetrization; highly skewed degree distribution, like RMAT22.
Csr rmatGraph(int Scale, int EdgeFactor = 8, std::uint64_t Seed = 2,
              double A = 0.57, double B = 0.19, double C = 0.19);

/// A uniformly random multigraph with \p NumNodes nodes and
/// Degree * NumNodes arcs before symmetrization, like the paper's Random
/// (r4) input.
Csr uniformRandomGraph(NodeId NumNodes, int Degree = 4,
                       std::uint64_t Seed = 3);

/// rmatGraph and uniformRandomGraph on \p TS's workers (tests pin the
/// worker count with these). The overloads above run them on one thread per
/// hardware thread; the graph is the same for any worker count.
Csr rmatGraph(TaskSystem &TS, int Scale, int EdgeFactor, std::uint64_t Seed,
              double A = 0.57, double B = 0.19, double C = 0.19);
Csr uniformRandomGraph(TaskSystem &TS, NodeId NumNodes, int Degree,
                       std::uint64_t Seed);

/// Deterministic micro graphs for unit tests.
Csr pathGraph(NodeId NumNodes, bool Weighted = false);
Csr cycleGraph(NodeId NumNodes);
Csr starGraph(NodeId NumLeaves);
Csr completeGraph(NodeId NumNodes);

/// The standard named inputs at a scale factor; Scale 0 is a tiny smoke
/// size, Scale 20 approximates the paper's sizes (do not use on small
/// machines). Names: "road", "rmat", "random".
Csr namedGraph(const std::string &Name, int Scale, std::uint64_t Seed = 7);

/// Relabels all nodes with a random permutation (edges and weights follow).
/// Grid generators number nodes geographically, which gives frontier-based
/// algorithms artificial spatial locality; real road inputs do not, so the
/// virtual-memory experiments shuffle ids first.
Csr shuffleNodeIds(const Csr &G, std::uint64_t Seed);

// --- Adversarial-shape transforms (verify/FuzzCampaign) --------------------
// Real inputs are clean; fuzzing deliberately is not. These transforms graft
// the edge cases the kernels must survive — self-loops, parallel edges,
// disconnected unions — onto any base graph while preserving symmetry (a
// self-loop is its own reverse; duplicates are added in both directions).

/// Returns \p G with \p Count self-loop arcs added on random nodes
/// (weight 1 when the graph is weighted). Deterministic in \p Seed.
Csr withSelfLoops(const Csr &G, NodeId Count, std::uint64_t Seed);

/// Returns \p G with \p Count randomly chosen arcs duplicated; a non-loop
/// arc is duplicated together with its reverse so symmetric graphs stay
/// symmetric. Deterministic in \p Seed.
Csr withDuplicateEdges(const Csr &G, NodeId Count, std::uint64_t Seed);

/// Returns \p G reweighted with fresh random weights in [1, MaxWeight],
/// derived from an unordered-pair hash so the two arcs of an undirected
/// edge (and all parallel copies) agree. Deterministic in \p Seed.
Csr withRandomWeights(const Csr &G, Weight MaxWeight, std::uint64_t Seed);

/// The disjoint union of \p A and \p B; B's node ids are shifted up by
/// A.numNodes(). If either side is weighted, the other side's arcs get
/// weight 1 so the result is uniformly weighted.
Csr disconnectedUnion(const Csr &A, const Csr &B);

} // namespace egacs

#endif // EGACS_GRAPH_GENERATORS_H
