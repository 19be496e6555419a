//===- engine/KernelTable.h - runKernelView instantiation table -*- C++ -*-===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one place a kernel is wired into runtime dispatch: a per-(backend,
/// layout) table of uniform adapters indexed by KernelKind, replacing the
/// old hand-maintained switch. Deliberately not included from Kernels.h:
/// each view's 10-kernel x all-targets instantiation is heavy, so CsrView
/// is instantiated in Kernels.cpp only and SellView in KernelsLayout.cpp
/// (which declares the CsrView instantiation extern), one view per TU.
///
//===----------------------------------------------------------------------===//

#ifndef EGACS_ENGINE_KERNELTABLE_H
#define EGACS_ENGINE_KERNELTABLE_H

#include "kernels/Bfs.h"
#include "kernels/Cc.h"
#include "kernels/Kernels.h"
#include "kernels/Mis.h"
#include "kernels/Mst.h"
#include "kernels/Pr.h"
#include "kernels/Sssp.h"
#include "kernels/Tri.h"
#include "simd/Targets.h"
#include "trace/Trace.h"

#include <cstddef>

namespace egacs {
namespace engine {

/// Uniform adapter signature: every kernel, whatever its natural interface,
/// dispatches as (view, config, source, transpose) -> KernelOutput.
template <typename VT>
using KernelFn = KernelOutput (*)(const VT &G, const KernelConfig &Cfg,
                                  NodeId Source, const VT *GT);

/// The adapters and their KernelKind-indexed table for one (backend,
/// layout) pair. Adding a kernel means adding one adapter and one Table
/// entry in AllKernels order — the static_assert below catches a missing
/// row.
template <typename BK, typename VT> struct KernelTable {
  static KernelOutput runBfsWl(const VT &G, const KernelConfig &Cfg,
                               NodeId Source, const VT *GT) {
    KernelOutput Out;
    Out.IntData = bfsWl<BK>(G, Cfg, Source, GT);
    return Out;
  }
  static KernelOutput runBfsCx(const VT &G, const KernelConfig &Cfg,
                               NodeId Source, const VT *) {
    KernelOutput Out;
    Out.IntData = bfsCx<BK>(G, Cfg, Source);
    return Out;
  }
  static KernelOutput runBfsTp(const VT &G, const KernelConfig &Cfg,
                               NodeId Source, const VT *) {
    KernelOutput Out;
    Out.IntData = bfsTp<BK>(G, Cfg, Source);
    return Out;
  }
  static KernelOutput runBfsHb(const VT &G, const KernelConfig &Cfg,
                               NodeId Source, const VT *GT) {
    KernelOutput Out;
    Out.IntData = bfsHb<BK>(G, Cfg, Source, GT);
    return Out;
  }
  static KernelOutput runCc(const VT &G, const KernelConfig &Cfg, NodeId,
                            const VT *GT) {
    KernelOutput Out;
    Out.IntData = connectedComponents<BK>(G, Cfg, GT);
    return Out;
  }
  static KernelOutput runTri(const VT &G, const KernelConfig &Cfg, NodeId,
                             const VT *) {
    KernelOutput Out;
    Out.Scalar0 = triangleCount<BK>(G, Cfg);
    return Out;
  }
  static KernelOutput runSsspNf(const VT &G, const KernelConfig &Cfg,
                                NodeId Source, const VT *) {
    KernelOutput Out;
    Out.IntData = ssspNf<BK>(G, Cfg, Source);
    return Out;
  }
  static KernelOutput runMis(const VT &G, const KernelConfig &Cfg, NodeId,
                             const VT *) {
    KernelOutput Out;
    Out.IntData = maximalIndependentSet<BK>(G, Cfg);
    return Out;
  }
  static KernelOutput runPr(const VT &G, const KernelConfig &Cfg, NodeId,
                            const VT *GT) {
    KernelOutput Out;
    Out.FloatData = pageRank<BK>(G, Cfg, /*MaxRounds=*/50, GT);
    return Out;
  }
  static KernelOutput runMst(const VT &G, const KernelConfig &Cfg, NodeId,
                             const VT *) {
    MstResult R = boruvkaMst<BK>(G, Cfg);
    KernelOutput Out;
    Out.Scalar0 = R.TotalWeight;
    Out.Scalar1 = R.NumEdges;
    return Out;
  }

  /// Indexed by static_cast<int>(KernelKind), in AllKernels order.
  static constexpr KernelFn<VT> Table[] = {
      runBfsWl, runBfsCx,  runBfsTp, runBfsHb, runCc,
      runTri,   runSsspNf, runMis,   runPr,    runMst,
  };
  static_assert(sizeof(Table) / sizeof(Table[0]) ==
                    sizeof(AllKernels) / sizeof(AllKernels[0]),
                "KernelTable must cover every KernelKind");
};

} // namespace engine

template <typename VT>
KernelOutput runKernelView(KernelKind Kind, simd::TargetKind Target,
                           const VT &G, const KernelConfig &Cfg,
                           NodeId Source, const VT *GT) {
  // Every dispatch path (bare-CSR, AnyLayout, static view call sites)
  // funnels through here, so this is where a traced run opens and closes:
  // endRun folds the post-pipe trailing window into the last round so the
  // per-round stat deltas partition the run aggregate.
  EGACS_TRACED(if (Cfg.Trace) Cfg.Trace->beginRun(kernelName(Kind));)
  KernelOutput Out = simd::dispatchTarget(Target, [&]<typename BK>() {
    return engine::KernelTable<BK, VT>::Table[static_cast<int>(Kind)](
        G, Cfg, Source, GT);
  });
  EGACS_TRACED(if (Cfg.Trace) Cfg.Trace->endRun();)
  return Out;
}

} // namespace egacs

#endif // EGACS_ENGINE_KERNELTABLE_H
