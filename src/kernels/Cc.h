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
/// The push pipe adds a shortcut phase after each propagation round
/// (Shiloach-Vishkin pointer jumping over the labels): every node of the
/// next frontier follows L <- Comp[L] while the label shrinks and min-writes
/// the end of that walk into its own label. Without it a vector, which reads
/// all its source labels before it writes any, moves a label one hop per
/// vector, so on a grid numbered in row-major order the round count grows
/// with the diameter (~420 rounds on the 512x512 road grid); with it, that
/// grid converges in 2 rounds. The shortcut only follows labels, so it cannot
/// hook one label tree onto another: on ids in random order a label still
/// crosses the graph one tree per round, and the round count only about
/// halves.
///
/// The answer is unchanged. A label is always the id of a node in the same
/// component and Comp[L] <= L holds throughout (labels start as the node's
/// own id and only decrease), so a walk stays inside the component and
/// terminates. Only nodes already in the next frontier are jumped, so every
/// label that shrinks is pushed again next round and the pipe still stops
/// only when every arc (u, v) has Comp[v] <= Comp[u]: on a symmetric graph
/// the labels of a component are then equal, and the component's minimum id
/// m keeps Comp[m] = m, so every node ends with m.
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

/// The shortcut phase of the push pipe for one task: every node of \p Next's
/// slice walks L <- Comp[L] while the label shrinks and CAS-mins the end of
/// the walk into its own label (see the file comment for why this leaves
/// the fixed point unchanged).
template <typename BK, typename VT>
void ccShortcut(engine::Ctx<VT> &E, std::int32_t *Comp, const Worklist &Next) {
  using namespace simd;
  engine::vertexMapSparse<BK>(E, Next, [&](VInt<BK> Node, VMask<BK> Act) {
    // Relaxed gathers: labels are concurrently lowered by other tasks'
    // shortcut writes within the phase.
    VInt<BK> Start = gatherRelaxed<BK>(Comp, Node, Act);
    VInt<BK> Label = Start;
    VMask<BK> Walk = Act;
    while (any(Walk)) {
      VInt<BK> Up = gatherRelaxed<BK>(Comp, Label, Walk);
      Walk = Walk & (Up < Label);
      Label = select<BK>(Walk, Up, Label);
    }
    VMask<BK> Shrank = Act & (Label < Start);
    if (any(Shrank))
      atomicMinVector<BK>(Comp, Node, Label, Shrank);
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
/// The push pipe runs two phases per round, propagation then shortcut.
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

  TaskFn Propagate = [&](int TaskIdx, int TaskCount) {
    auto E = R.ctx(TaskIdx, TaskCount);
    cc_detail::ccSparseRound<BK>(E, Comp.data(), WL.in(), WL.out());
  };
  TaskFn Shortcut = [&](int TaskIdx, int TaskCount) {
    auto E = R.ctx(TaskIdx, TaskCount);
    cc_detail::ccShortcut<BK>(E, Comp.data(), WL.out());
  };
  runPipe(
      Cfg, {WL.in().size(), "push"}, std::vector<TaskFn>{Propagate, Shortcut},
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
