//===- kernels/Kernels.h - Unified kernel entry points ----------*- C++ -*-===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The runtime-dispatchable kernel interface used by the benchmark
/// harnesses, examples, and integration tests: pick a benchmark (the
/// paper's Table VIII set) and a SIMD target and run it. Outputs are
/// certified by the semantic oracles (verify/Oracle.h,
/// verify::checkKernelOutput). Template entry points for individual kernels
/// live in their own headers (Bfs.h, Sssp.h, ...) for users who statically
/// know their backend.
///
//===----------------------------------------------------------------------===//

#ifndef EGACS_KERNELS_KERNELS_H
#define EGACS_KERNELS_KERNELS_H

#include "graph/Csr.h"
#include "graph/GraphView.h"
#include "engine/KernelConfig.h"
#include "simd/Backend.h"

#include <cstdint>
#include <string>
#include <vector>

namespace egacs {

/// Sentinel distance for unreached nodes (bfs/sssp outputs).
inline constexpr std::int32_t InfDist = 0x7fffffff;

/// Node states in the MIS kernel's output.
enum MisState : std::int32_t {
  MisUndecided = 0,
  MisIn = 1,
  MisOut = 2,
  MisCandidate = 3, ///< transient, never present in final output
};

/// The paper's benchmarks (Table VIII).
enum class KernelKind {
  BfsWl,
  BfsCx,
  BfsTp,
  BfsHb,
  Cc,
  Tri,
  SsspNf,
  Mis,
  Pr,
  Mst,
};

/// All kernels in presentation order.
inline constexpr KernelKind AllKernels[] = {
    KernelKind::BfsWl, KernelKind::BfsCx, KernelKind::BfsTp,
    KernelKind::BfsHb, KernelKind::Cc,    KernelKind::Tri,
    KernelKind::SsspNf, KernelKind::Mis,  KernelKind::Pr,
    KernelKind::Mst,
};

/// The paper's short benchmark name ("bfs-wl", "sssp", ...).
const char *kernelName(KernelKind Kind);

/// Parses a kernel name; prints the valid set and exits 2 on an unknown
/// name (command-line parsing helper, like parseLayoutKind).
KernelKind parseKernelKind(const std::string &Name);

/// True for kernels that require edge weights (sssp, mst).
bool kernelNeedsWeights(KernelKind Kind);

/// True for kernels that require destination-sorted adjacency (tri).
bool kernelNeedsSortedAdjacency(KernelKind Kind);

/// True for kernels with a pull-direction implementation (bfs-wl, bfs-hb,
/// cc, pr): Cfg.Dir != Push changes their execution; other kernels always
/// run push and need no transposed graph.
bool kernelUsesDirection(KernelKind Kind);

/// Uniform result container across kernels.
struct KernelOutput {
  /// Distances (bfs/sssp), component labels (cc), or MIS states (mis).
  std::vector<std::int32_t> IntData;
  /// PageRank vector (pr).
  std::vector<float> FloatData;
  /// tri: triangle count; mst: forest weight.
  std::int64_t Scalar0 = 0;
  /// mst: forest edge count.
  std::int64_t Scalar1 = 0;
};

/// Runs \p Kind on \p Target through the statically typed GraphView \p G.
/// Instantiated for CsrView (Kernels.cpp) and SellView (KernelsLayout.cpp);
/// the definition lives in engine/KernelTable.h.
/// \p GT is the same-typed view over the transposed graph; the
/// direction-capable kernels (kernelUsesDirection) need it non-null for
/// Cfg.Dir != Push and fall back to push when it is absent.
template <typename VT>
KernelOutput runKernelView(KernelKind Kind, simd::TargetKind Target,
                           const VT &G, const KernelConfig &Cfg,
                           NodeId Source = 0, const VT *GT = nullptr);

/// Runs \p Kind on \p Target. \p Source seeds bfs/sssp and is ignored
/// elsewhere. For tri, \p G must have destination-sorted adjacency.
/// Equivalent to runKernelView over CsrView(G).
KernelOutput runKernel(KernelKind Kind, simd::TargetKind Target, const Csr &G,
                       const KernelConfig &Cfg, NodeId Source = 0);

/// Runs \p Kind on \p Target through a runtime-selected layout (the
/// --layout= path of the benches): dispatches into the statically typed
/// view templates via AnyLayout::visit.
KernelOutput runKernel(KernelKind Kind, simd::TargetKind Target,
                       const AnyLayout &L, const KernelConfig &Cfg,
                       NodeId Source = 0);

} // namespace egacs

#endif // EGACS_KERNELS_KERNELS_H
