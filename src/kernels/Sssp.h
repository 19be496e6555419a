//===- kernels/Sssp.h - Near-far single-source shortest paths ---*- C++ -*-===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// SSSP-NF: the near-far worklist algorithm the paper evaluates (Table
/// VIII), a delta-stepping relative with two priority piles. Nodes whose
/// tentative distance falls below the current threshold are processed
/// immediately ("near"); the rest wait in "far" until the threshold
/// advances by DELTA (input-specific, shared across frameworks).
///
//===----------------------------------------------------------------------===//

#ifndef EGACS_KERNELS_SSSP_H
#define EGACS_KERNELS_SSSP_H

#include "engine/Engine.h"
#include "kernels/Kernels.h"

#include <vector>

namespace egacs {

/// sssp-nf: near-far SSSP from \p Source over non-negative edge weights.
/// Returns tentative distances (InfDist for unreachable nodes). The edge
/// functor receives original CSR edge indices from every layout (SELL
/// slices carry them alongside the destinations), so the weight gather
/// below stays exact.
template <typename BK, typename VT>
std::vector<std::int32_t> ssspNf(const VT &G, const KernelConfig &Cfg,
                                 NodeId Source) {
  using namespace simd;
  assert((G.hasWeights() || G.numEdges() == 0) &&
         "sssp needs edge weights");
  std::vector<std::int32_t> Dist(static_cast<std::size_t>(G.numNodes()),
                                 InfDist);
  if (G.numNodes() == 0)
    return Dist;
  Dist[static_cast<std::size_t>(Source)] = 0;

  // Every successful relaxation pushes once; near-far with positive weights
  // keeps re-relaxations rare, so 2(M+N) leaves ample headroom (reserve()
  // aborts rather than overruns if an adversarial input exceeds it).
  std::size_t Cap = 2 * (static_cast<std::size_t>(G.numEdges()) +
                         static_cast<std::size_t>(G.numNodes())) +
                    64;
  WorklistPair Near(Cap);
  Worklist Far(Cap), FarNext(Cap);
  Near.in().pushSerial(Source);
  // Relaxations gather Dist[Src], gather the weight by CSR edge index, and
  // min-scatter Dist[Dst]; all three streams join the inspect stage.
  PrefetchPlan PF = kernelPrefetchPlan(Cfg);
  planProp(PF, Dist.data(), PrefetchIndexKind::Node);
  planProp(PF, Dist.data(), PrefetchIndexKind::Dst);
  planProp(PF, G.edgeWeight(), PrefetchIndexKind::Edge);
  engine::Run<VT> R(Cfg, G, static_cast<std::int64_t>(Cap), std::move(PF));
  std::int32_t Threshold = Cfg.Delta;

  runPipe(
      Cfg, {Near.in().size(), "push"},
      TaskFn([&](int TaskIdx, int TaskCount) {
        auto E = R.ctx(TaskIdx, TaskCount);
        VInt<BK> Thresh = splat<BK>(Threshold);
        engine::edgeMapSparse<BK>(
            E, Near.in(),
            [&](VInt<BK> Src, VInt<BK> Dst, VInt<BK> EIdx, VMask<BK> EAct) {
              VInt<BK> Du = gather<BK>(Dist.data(), Src, EAct);
              VInt<BK> W = gather<BK>(G.edgeWeight(), EIdx, EAct);
              VInt<BK> Cand = Du + W;
              // Relaxation through the update engine. The combined variant
              // marks the lane holding the *minimum* candidate as winner,
              // so the near/far classification below reads the value
              // actually written to Dist (a leader-lane mask could misfile
              // a node into Far and lose it forever).
              VMask<BK> Won = updateMinVector<BK>(Cfg.Update, Dist.data(),
                                                  Dst, Cand, EAct);
              if (!any(Won))
                return;
              VMask<BK> ToNear = Won & (Cand < Thresh);
              VMask<BK> ToFar = andNot(Won, ToNear);
              if (any(ToNear))
                pushFrontier<BK>(Cfg, Near.out(), nullptr, Dst, ToNear);
              if (any(ToFar))
                pushFrontier<BK>(Cfg, Far, nullptr, Dst, ToFar);
            });
      }),
      [&]() -> NextRound {
        Near.swap();
        if (!Near.in().empty())
          return RoundFrontier{Near.in().size(), "push"};
        // Near pile exhausted: advance the threshold and split the far pile
        // until some node becomes near (or everything is done).
        while (Near.in().empty() && !Far.empty()) {
          std::int32_t OldThreshold = Threshold;
          Threshold += Cfg.Delta;
          std::int32_t FarSize = Far.size();
          for (std::int32_t I = 0; I < FarSize; ++I) {
            NodeId N = Far[I];
            std::int32_t D = Dist[static_cast<std::size_t>(N)];
            if (D < OldThreshold)
              continue; // settled in an earlier band; stale entry
            if (D < Threshold)
              Near.in().pushSerial(N);
            else
              FarNext.pushSerial(N);
          }
          Far.clear();
          std::swap(Far, FarNext);
        }
        if (Near.in().empty())
          return std::nullopt;
        return RoundFrontier{Near.in().size(), "push"};
      });
  return Dist;
}

} // namespace egacs

#endif // EGACS_KERNELS_SSSP_H
