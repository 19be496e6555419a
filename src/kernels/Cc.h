//===- kernels/Cc.h - Connected components ----------------------*- C++ -*-===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Worklist-driven label-propagation connected components: every node starts
/// as its own component id, ids flow along edges via atomic min, and nodes
/// whose label shrank re-enter the worklist. On symmetric graphs the final
/// label of every node is the minimum node id of its component.
///
//===----------------------------------------------------------------------===//

#ifndef EGACS_KERNELS_CC_H
#define EGACS_KERNELS_CC_H

#include "engine/Engine.h"
#include "kernels/Kernels.h"

#include <numeric>
#include <vector>

namespace egacs {

namespace cc_detail {

/// One sparse (worklist) label-propagation round for one task: propagates
/// the labels of In's slice and pushes improved destinations into Out.
template <typename BK, typename VT>
void ccSparseRound(engine::Ctx<VT> &E, std::int32_t *Comp,
                   const Worklist &In, Worklist &Out) {
  using namespace simd;
  engine::edgeMapSparse<BK>(
      E, In, [&](VInt<BK> Src, VInt<BK> Dst, VInt<BK>, VMask<BK> EAct) {
        // Relaxed gather: source labels are concurrently hooked by other
        // tasks' CAS-min writes within the round.
        VInt<BK> Label = gatherRelaxed<BK>(Comp, Src, EAct);
        // Label hooking through the update engine: non-Atomic policies
        // pre-reduce same-destination lanes so each distinct destination
        // costs one CAS chain (and is pushed at most once per vector).
        VMask<BK> Won =
            updateMinVector<BK>(E.Cfg.Update, Comp, Dst, Label, EAct);
        if (any(Won))
          pushFrontier<BK>(E.Cfg, Out, nullptr, Dst, Won);
      });
}

/// The prefetch plan shared by both paths: labels are gathered by source
/// and min-scattered by destination, so the component array is registered
/// through both index shapes.
inline PrefetchPlan ccPlan(const KernelConfig &Cfg,
                           const std::int32_t *Comp) {
  PrefetchPlan PF = kernelPrefetchPlan(Cfg);
  planProp(PF, Comp, PrefetchIndexKind::Node);
  planProp(PF, Comp, PrefetchIndexKind::Dst);
  return PF;
}

/// Direction-optimizing label propagation (Cfg.Dir is Pull or Hybrid).
/// Pull rounds scan every destination over the transposed view \p GT and
/// take the min label over its *in-frontier* in-neighbors: one CAS-min per
/// improving destination instead of the push rounds' per-edge CAS storm,
/// with no early exit (a min needs every frontier in-neighbor). The driver's
/// alpha/beta tests run against the full edge count — labels revisit edges,
/// so there is no "unexplored" budget to decrement — and the first round
/// starts pull from an all-set bitmap: initially every label "changed".
template <typename BK, typename VT>
std::vector<std::int32_t> ccDirection(const VT &G, const VT &GT,
                                      const KernelConfig &Cfg) {
  using namespace simd;
  std::vector<std::int32_t> Comp(static_cast<std::size_t>(G.numNodes()));
  std::iota(Comp.begin(), Comp.end(), 0);

  std::size_t Cap = 2 * (static_cast<std::size_t>(G.numEdges()) +
                         static_cast<std::size_t>(G.numNodes())) +
                    64;
  WorklistPair WL(Cap);
  engine::Run<VT> R(Cfg, G, static_cast<std::int64_t>(Cap),
                    ccPlan(Cfg, Comp.data()));

  engine::frontierDriver<BK>(
      Cfg, G, WL, DirRoundMode::Pull, /*StartAllSet=*/true,
      /*ScoutDecrements=*/false,
      [&](int TaskIdx, int TaskCount) {
        auto E = R.ctx(TaskIdx, TaskCount);
        ccSparseRound<BK>(E, Comp.data(), WL.in(), WL.out());
      },
      [&](BitmapFrontier &CurB, BitmapFrontier &NextB, int TaskIdx,
          int TaskCount) {
        auto E = R.ctx(GT, TaskIdx, TaskCount);
        std::int64_t Scanned = 0, Fresh = 0;
        engine::vertexMapDense<BK>(
            E, [&](VInt<BK> Node, VMask<BK> Act, std::int64_t Slot) {
              VInt<BK> Best = splat<BK>(0x7fffffff);
              VMask<BK> AnyHit = maskNone<BK>();
              engine::edgeMapPull<BK>(
                  GT, Node, Act,
                  [&](VInt<BK>, VInt<BK> Src, VInt<BK>, VMask<BK> Live) {
                    Scanned += popcount(Live);
                    VMask<BK> Hit = CurB.testVector<BK>(Src, Live);
                    if (any(Hit)) {
                      // Relaxed: sources may be CAS-hooked by other lanes'
                      // destination writes within this pull round.
                      VInt<BK> L = gatherRelaxed<BK>(Comp.data(), Src, Hit);
                      Best = select<BK>(Hit, vmin<BK>(Best, L), Best);
                      AnyHit = AnyHit | Hit;
                    }
                    return Live;
                  },
                  Slot);
              if (any(AnyHit)) {
                VMask<BK> Won =
                    atomicMinVector<BK>(Comp.data(), Node, Best, AnyHit);
                Fresh += NextB.setVector<BK>(Node, Won);
              }
            });
        NextB.addCount(TaskIdx, Fresh);
        EGACS_STAT_ADD(PullEdgesScanned, static_cast<std::uint64_t>(Scanned));
      },
      [] {});
  return Comp;
}

} // namespace cc_detail

/// cc: label-propagation components; returns per-node component labels.
/// With Cfg.Dir != Push and a transposed view \p GT the direction-
/// optimizing driver above runs instead of the push-only pipe.
template <typename BK, typename VT>
std::vector<std::int32_t> connectedComponents(const VT &G,
                                              const KernelConfig &Cfg,
                                              const VT *GT = nullptr) {
  using namespace simd;
  if (Cfg.Dir != Direction::Push && GT && G.numNodes() != 0)
    return cc_detail::ccDirection<BK>(G, *GT, Cfg);
  std::vector<std::int32_t> Comp(static_cast<std::size_t>(G.numNodes()));
  std::iota(Comp.begin(), Comp.end(), 0);
  if (G.numNodes() == 0)
    return Comp;

  // Duplicate pushes are possible when a label shrinks repeatedly within a
  // round; size generously (reserve() aborts rather than overruns).
  std::size_t Cap = 2 * (static_cast<std::size_t>(G.numEdges()) +
                         static_cast<std::size_t>(G.numNodes())) +
                    64;
  WorklistPair WL(Cap);
  for (NodeId N = 0; N < G.numNodes(); ++N)
    WL.in().pushSerial(N);
  engine::Run<VT> R(Cfg, G, static_cast<std::int64_t>(Cap),
                    cc_detail::ccPlan(Cfg, Comp.data()));

  runPipe(
      Cfg, {WL.in().size(), "push"},
      TaskFn([&](int TaskIdx, int TaskCount) {
        auto E = R.ctx(TaskIdx, TaskCount);
        cc_detail::ccSparseRound<BK>(E, Comp.data(), WL.in(), WL.out());
      }),
      [&]() -> NextRound {
        WL.swap();
        if (WL.in().empty())
          return std::nullopt;
        return RoundFrontier{WL.in().size(), "push"};
      });
  return Comp;
}

} // namespace egacs

#endif // EGACS_KERNELS_CC_H
