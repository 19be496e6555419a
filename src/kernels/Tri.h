//===- kernels/Tri.h - Triangle counting ------------------------*- C++ -*-===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Triangle counting by vectorized sorted-set intersection: one SIMD lane
/// per (u, v) edge with u < v, each lane running a two-pointer merge of
/// N(u) and N(v) counting common neighbours w > v, so every triangle
/// u < v < w is counted exactly once. The adjacency lists must be sorted by
/// destination (Csr::sortedByDestination); lanes diverge naturally and are
/// retired by the execution mask as their merges finish.
///
//===----------------------------------------------------------------------===//

#ifndef EGACS_KERNELS_TRI_H
#define EGACS_KERNELS_TRI_H

#include "engine/Engine.h"
#include "kernels/Kernels.h"

#include <vector>

namespace egacs {

/// tri: counts triangles of the symmetric graph \p G, whose adjacency lists
/// must be sorted by destination. Edge-parallel over the CSR edge array,
/// which every layout keeps as its fallback surface; the two-pointer merges
/// are inherently ordered so the SELL slices do not apply here.
template <typename BK, typename VT>
std::int64_t triangleCount(const VT &G, const KernelConfig &Cfg) {
  using namespace simd;
  if (G.numNodes() == 0)
    return 0;
  std::vector<NodeId> EdgeSrc = buildEdgeSources(G);
  std::int64_t Total = 0;
  auto Sched = makeLoopScheduler(Cfg, G.numEdges());
  // Tri's merges chase data-dependent cursors, so instead of the staged
  // vertex loop the edge-parallel sweep carries a two-distance inspect
  // stage: row_ptr lines for the (u, v) endpoints Dist vectors ahead, both
  // adjacency-list heads at half that distance.
  PrefetchPlan PF = kernelPrefetchPlan(Cfg);

  // Tri is a single-pass kernel: a one-phase pipe whose advance stops at
  // once, so traced runs get one frontier-less round with its stat delta.
  TaskFn Count = [&](int TaskIdx, int TaskCount) {
    trace::TaskTrace *TaskTT = nullptr;
    EGACS_TRACED(if (Cfg.Trace) TaskTT = Cfg.Trace->taskTrace(TaskIdx);)
    std::int64_t LocalCount = 0;
    PrefetchCounters PfC;
    auto InspectRows = [&](std::int64_t P, std::int64_t RE) {
      using namespace prefetchdetail;
      std::int64_t Stop = P + BK::Width < RE ? P + BK::Width : RE;
      for (std::int64_t E = P; E < Stop; ++E) {
        NodeId U = EdgeSrc[static_cast<std::size_t>(E)];
        NodeId V = G.edgeDst()[E];
        if (U >= V)
          continue;
        pfLine<BK>(G.rowStart() + U, PfC);
        pfLine<BK>(G.rowStart() + V, PfC);
      }
    };
    auto InspectHeads = [&](std::int64_t P, std::int64_t RE) {
      using namespace prefetchdetail;
      std::int64_t Stop = P + BK::Width < RE ? P + BK::Width : RE;
      for (std::int64_t E = P; E < Stop; ++E) {
        NodeId U = EdgeSrc[static_cast<std::size_t>(E)];
        NodeId V = G.edgeDst()[E];
        if (U >= V)
          continue;
        pfLine<BK>(G.edgeDst() + G.rowStart()[U], PfC);
        pfLine<BK>(G.edgeDst() + G.rowStart()[V], PfC);
      }
    };
    // Edge-parallel loop: lanes take consecutive (u, v) edges of each
    // scheduled range. Per-edge work varies with deg(u) + deg(v), so the
    // dynamic policies pay off most here on skewed graphs.
    engine::edgeMapFlat<BK>(
        *Sched, G.numEdges(), TaskIdx, TaskCount, PF.active(),
        PF.lookahead(BK::Width), InspectRows, InspectHeads,
        [&](std::int64_t EBase, VMask<BK> Act) {
          VInt<BK> U = maskedLoad<BK>(EdgeSrc.data() + EBase, Act);
          VInt<BK> V = maskedLoad<BK>(G.edgeDst() + EBase, Act);
          // Count each undirected edge once, from its smaller endpoint.
          Act = Act & (U < V);
          if (!any(Act))
            return;

          VInt<BK> Pu = gather<BK>(G.rowStart(), U, Act);
          VInt<BK> EndU = gather<BK>(G.rowStart() + 1, U, Act);
          VInt<BK> Pv = gather<BK>(G.rowStart(), V, Act);
          VInt<BK> EndV = gather<BK>(G.rowStart() + 1, V, Act);

          VMask<BK> Live = Act & (Pu < EndU) & (Pv < EndV);
          while (any(Live)) {
            recordLaneUtilization<BK>(Live);
            VInt<BK> Au = gather<BK>(G.edgeDst(), Pu, Live);
            VInt<BK> Av = gather<BK>(G.edgeDst(), Pv, Live);
            VMask<BK> Eq = Live & (Au == Av);
            // Only common neighbours above v close a u < v < w triangle.
            LocalCount += popcount(Eq & (Au > V));
            VMask<BK> StepU = Live & (Au <= Av);
            VMask<BK> StepV = Live & (Av <= Au);
            Pu = select<BK>(StepU, Pu + splat<BK>(1), Pu);
            Pv = select<BK>(StepV, Pv + splat<BK>(1), Pv);
            Live = Live & (Pu < EndU) & (Pv < EndV);
          }
        },
        TaskTT);
    if (LocalCount)
      atomicAddGlobal64(&Total, LocalCount);
  };
  // One pass has no loop to outline, so it runs as one launch with no
  // barriers whatever Cfg.IterationOutlining says.
  KernelConfig OnePass = Cfg;
  OnePass.IterationOutlining = false;
  runPipe(OnePass, {-1, "flat"}, Count, [] { return NextRound(); });
  return Total;
}

} // namespace egacs

#endif // EGACS_KERNELS_TRI_H
