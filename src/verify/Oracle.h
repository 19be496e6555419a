//===- verify/Oracle.h - Semantic kernel oracles ----------------*- C++ -*-===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// First-principles correctness oracles for every kernel output: the
/// project's one verifier, used by the tests, the fuzzer, the benches and
/// perfbench. Instead of comparing against a second implementation of the
/// same algorithm, these checks validate the *result itself* against the
/// mathematical definition of the problem, so a bug shared by every
/// implementation of one traversal strategy still fails:
///
///  * bfs/sssp  — a distance-labeling certificate: the source is at zero, no
///                edge can relax any label, and every finite label is
///                witnessed by a tight parent chain reaching the source
///                (computed as a reachability sweep over tight edges, so
///                parent *cycles* that locally look consistent are caught).
///                For non-negative weights this certificate is complete:
///                it accepts exactly the true distance vector.
///  * cc        — an independent union-find recomputation; every label must
///                equal the minimum node id of its union-find component.
///  * mis       — independence + maximality + totality, directly from the
///                definition (self-loop aware: a node adjacent to itself can
///                never join the set, and its exclusion needs no member
///                neighbour).
///  * mst       — total-weight equality against a Kruskal reference and
///                edge count == nodes - components (all minimum spanning
///                forests share both quantities, so Bořůvka tie-breaking
///                does not matter).
///  * pr        — a fixpoint-residual bound (one recomputed iteration in
///                double precision must move no node by more than its
///                convergence budget) plus mass conservation (total rank ==
///                injected mass minus dangling-node leakage).
///  * tri       — an independent recount with a different algorithm
///                (stamp-array node iterator instead of the kernel's sorted
///                two-pointer merges). Defined on simple graphs.
///
/// Every oracle returns a human-readable reason naming the first violated
/// property and the node/edge where it was observed, so the fuzz driver can
/// print actionable failure records.
///
//===----------------------------------------------------------------------===//

#ifndef EGACS_VERIFY_ORACLE_H
#define EGACS_VERIFY_ORACLE_H

#include "graph/Csr.h"
#include "kernels/Kernels.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace egacs::verify {

/// Outcome of one semantic oracle check.
struct OracleResult {
  bool Ok = true;
  std::string Reason; ///< empty when Ok; first violated property otherwise

  static OracleResult pass() { return {}; }
  static OracleResult fail(std::string Why) {
    OracleResult R;
    R.Ok = false;
    R.Reason = std::move(Why);
    return R;
  }
};

/// BFS distance certificate: Dist must be exactly the hop distances from
/// \p Source (InfDist where unreachable).
OracleResult checkBfsDistances(const Csr &G, NodeId Source,
                               const std::vector<std::int32_t> &Dist);

/// SSSP distance certificate for non-negative weights: Dist must be exactly
/// the shortest-path distances from \p Source.
OracleResult checkSsspDistances(const Csr &G, NodeId Source,
                                const std::vector<std::int32_t> &Dist);

/// Connected-component labels: each label must be the minimum node id of
/// its component, recomputed with union-find over the edge list.
OracleResult checkComponents(const Csr &G,
                             const std::vector<std::int32_t> &Label);

/// Maximal independent set: every node MisIn/MisOut, no two adjacent
/// members, every non-member has a member neighbour or a self-loop.
OracleResult checkMis(const Csr &G, const std::vector<std::int32_t> &State);

/// Minimum spanning forest: total weight must equal Kruskal's and the edge
/// count must be numNodes - numComponents.
OracleResult checkMstWeight(const Csr &G, std::int64_t TotalWeight,
                            std::int64_t NumEdges);

/// PageRank residual + mass-conservation check for the push recurrence
/// R = (1-d)/N + d * sum_{u->v} R[u]/outdeg(u), stopped at max-residual <=
/// \p Tolerance. The caller must pick (Damping, Tolerance) pairs that
/// converge within the kernel's round cap (the fuzz sampler does).
OracleResult checkPageRank(const Csr &G, const std::vector<float> &Rank,
                           float Damping, float Tolerance);

/// Triangle count of the simple symmetric graph (independent recount).
OracleResult checkTriangles(const Csr &G, std::int64_t Count);

/// Dispatches to the right oracle for \p Kind. \p G must be the graph the
/// kernel actually consumed (sorted/simplified for tri). Cfg supplies the
/// pr damping/tolerance knobs.
OracleResult checkKernelOutput(KernelKind Kind, const Csr &G, NodeId Source,
                               const KernelOutput &Out,
                               const KernelConfig &Cfg);

} // namespace egacs::verify

#endif // EGACS_VERIFY_ORACLE_H
