//===- engine/EdgeMap.h - Edge-iteration operators --------------*- C++ -*-===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Edge iteration and frontier production:
///  * visitEdges / flushEdges - edge expansion of one node vector, honouring
///    the Nested Parallelism flag (inspector-executor vs per-lane loops);
///  * pushFrontier            - worklist push honouring Cooperative
///    Conversion and fiber-level aggregation;
///  * engine::edgeMapSparse   - worklist-driven edge map (staged slice +
///    visitEdges + NP drain), the body of every frontier push round;
///  * engine::edgeMapDense    - topology-driven edge map with an optional
///    vertex filter (level tests, state tests) ahead of the expansion;
///  * engine::edgeMapPull     - pull-direction expansion of one destination
///    vector over the transposed view;
///  * engine::edgeMapFlat     - edge-parallel sweep over the CSR edge array
///    with optional far/near inspect stages (tri's merges, mst's min-edge
///    reduction).
///
//===----------------------------------------------------------------------===//

#ifndef EGACS_ENGINE_EDGEMAP_H
#define EGACS_ENGINE_EDGEMAP_H

#include "engine/VertexMap.h"
#include "sched/NestedParallelism.h"

#include <type_traits>
#include <vector>

namespace egacs {

/// Visits the edges of the active nodes in \p Node, choosing the NP
/// inspector-executor or the plain per-lane loop per Cfg. The caller must
/// call flushEdges after its last vector of the phase. \p Slot is the
/// layout slot of lane 0 when the node vector came from a slot-aligned
/// topology sweep (forEachNodeSlice passes it through), NoSlot for
/// worklist-order vectors; SELL views use it to substitute unit-stride
/// chunk sweeps for the neighbor gathers.
template <typename BK, typename VT, typename EdgeFnT>
void visitEdges(const KernelConfig &Cfg, const VT &G, simd::VInt<BK> Node,
                simd::VMask<BK> Act, NpScratch &Scratch, EdgeFnT &&Fn,
                std::int64_t Slot = NoSlot) {
  if (Cfg.NestedParallelism)
    npForEachEdge<BK>(G, Node, Act, Scratch, Fn, Slot);
  else
    plainForEachEdge<BK>(G, Node, Act, Fn, Slot);
}

/// Drains any NP-staged low-degree edges.
template <typename BK, typename VT, typename EdgeFnT>
void flushEdges(const KernelConfig &Cfg, const VT &G, NpScratch &Scratch,
                EdgeFnT &&Fn) {
  if (Cfg.NestedParallelism)
    Scratch.flush<BK>(G, Fn);
}

/// Pushes the active lanes of \p Values into the frontier according to the
/// configured aggregation level: fiber-level CC (local buffer) when
/// \p Local is non-null, task-level CC when Cfg.CoopConversion, else one
/// atomic per lane.
template <typename BK>
void pushFrontier(const KernelConfig &Cfg, Worklist &Out,
                  LocalPushBuffer *Local, simd::VInt<BK> Values,
                  simd::VMask<BK> M) {
  if (Local) {
    if (Local->nearlyFull(BK::Width))
      Local->flush(Out);
    Local->push<BK>(Values, M);
    return;
  }
  if (Cfg.CoopConversion) {
    pushCoop<BK>(Out, Values, M);
    return;
  }
  pushNaive<BK>(Out, Values, M);
}

/// Builds the edge -> source-node map used by edge-parallel kernels
/// (edgeMapFlat callers). Works on any GraphView (uses only the CSR
/// fallback surface).
template <typename VT>
std::vector<NodeId> buildEdgeSources(const VT &G) {
  std::vector<NodeId> Src(static_cast<std::size_t>(G.numEdges()));
  for (NodeId N = 0; N < G.numNodes(); ++N)
    for (EdgeId E = G.rowStart()[N]; E < G.rowStart()[N + 1]; ++E)
      Src[static_cast<std::size_t>(E)] = N;
  return Src;
}

namespace engine {

/// Tag selecting the unfiltered edgeMapDense (every active node expands).
inline constexpr struct NoFilterT {
} NoFilter{};

/// Sparse edge map: expands this task's share of the worklist \p In through
/// the staged slice loop, calling OnEdge(Src, Dst, EdgeIdx, Mask) for every
/// live edge vector, then drains the NP staging buffer. This is one
/// complete task-phase body: after it returns no edges of the phase remain
/// staged.
template <typename BK, typename VT, typename EdgeFnT>
void edgeMapSparse(const Ctx<VT> &E, const Worklist &In, EdgeFnT &&OnEdge) {
  EGACS_TRACED(trace::ScopedSpan Span(
      E.TL.Trace, trace::SpanKind::EdgeMapSparse, In.size());)
  E.TL.armPrefetch(E.PF);
  forEachWorklistSlice<BK>(E.Cfg, E.G, E.Sched, In.items(), In.size(),
                           E.TaskIdx, E.TaskCount, E.PF, E.TL.Pf,
                           [&](simd::VInt<BK> Node, simd::VMask<BK> Act) {
                             visitEdges<BK>(E.Cfg, E.G, Node, Act, E.TL.Np,
                                            OnEdge);
                           },
                           E.TL.Trace);
  flushEdges<BK>(E.Cfg, E.G, E.TL.Np, OnEdge);
}

/// Dense (topology-driven) edge map: expands every node slot of the context
/// view through the staged node loop. \p Filter narrows the active mask
/// before expansion — Filter(NodeIds, Active) returns the lanes whose edges
/// the phase wants (a level test, a state test); pass NoFilter to expand
/// all active lanes. Like edgeMapSparse, drains NP staging on return.
template <typename BK, typename VT, typename FilterT, typename EdgeFnT>
void edgeMapDense(const Ctx<VT> &E, FilterT &&Filter, EdgeFnT &&OnEdge) {
  EGACS_TRACED(trace::ScopedSpan Span(
      E.TL.Trace, trace::SpanKind::EdgeMapDense,
      static_cast<std::int64_t>(E.G.numNodes()));)
  E.TL.armPrefetch(E.PF);
  forEachNodeSlice<BK>(
      E.G, E.Sched, E.TaskIdx, E.TaskCount, E.PF, E.TL.Pf,
      [&](simd::VInt<BK> Node, simd::VMask<BK> Act, std::int64_t Slot) {
        if constexpr (std::is_same_v<std::decay_t<FilterT>, NoFilterT>) {
          visitEdges<BK>(E.Cfg, E.G, Node, Act, E.TL.Np, OnEdge, Slot);
        } else {
          simd::VMask<BK> M = Filter(Node, Act);
          if (any(M))
            visitEdges<BK>(E.Cfg, E.G, Node, M, E.TL.Np, OnEdge, Slot);
        }
      },
      E.TL.Trace);
  flushEdges<BK>(E.Cfg, E.G, E.TL.Np, OnEdge);
}

/// Pull-direction edge map of one destination vector: enumerates the
/// in-edges of the active lanes over the transposed view \p GT, calling
/// Fn(Dst, Src, EdgeIdx, Live) per vector step; Fn returns the lanes that
/// should keep scanning (early exit on first hit for BFS, full scan for
/// min-reductions). \p Slot engages SELL chunk sweeps on aligned vectors;
/// \p EarlyExits, when non-null, accumulates lanes retired before their
/// in-list was exhausted.
template <typename BK, typename VT, typename EdgeFnT>
void edgeMapPull(const VT &GT, simd::VInt<BK> Node, simd::VMask<BK> Act,
                 EdgeFnT &&Fn, std::int64_t Slot = NoSlot,
                 std::int64_t *EarlyExits = nullptr) {
  walkEdges<BK>(GT, Node, Act, Fn, Slot, EarlyExits);
}

/// Edge-parallel sweep: Body(int64 EBase, VMask ValidLanes) runs once per
/// vector-wide batch of consecutive CSR edge ids in this task's scheduled
/// ranges. When \p Inspect is true the far and near stages of \p LA run
/// ahead of the body — FarFn/NearFn(int64 Pos, int64 RangeEnd) prefetch the
/// batch starting at Pos (pass NoInspect to drop a stage). Kernels whose
/// inner loops chase data-dependent cursors (two-pointer merges, root
/// chases) carry their own inspect stages this way instead of the vertex
/// loop's row/edge stages.
template <typename BK, typename FarT, typename NearT, typename BodyT>
void edgeMapFlat(LoopScheduler &Sched, std::int64_t NumEdges, int TaskIdx,
                 int TaskCount, bool Inspect, Lookahead LA,
                 FarT &&FarFn, NearT &&NearFn, BodyT &&Body,
                 [[maybe_unused]] trace::TaskTrace *TT = nullptr) {
  EGACS_TRACED(trace::ScopedSpan Span(TT, trace::SpanKind::EdgeMapFlat,
                                      NumEdges);)
  Sched.forRanges(NumEdges, TaskIdx, TaskCount, [&](std::int64_t RB,
                                                    std::int64_t RE) {
    if (Inspect)
      LA.warm(RB, RE, BK::Width, FarFn, NearFn);
    for (std::int64_t EBase = RB; EBase < RE; EBase += BK::Width) {
      if (Inspect)
        LA.ahead(EBase, RE, FarFn, NearFn);
      int Valid = static_cast<int>(
          RE - EBase < BK::Width ? RE - EBase : BK::Width);
      Body(EBase, simd::maskFirstN<BK>(Valid));
    }
  });
}

} // namespace engine

} // namespace egacs

#endif // EGACS_ENGINE_EDGEMAP_H
