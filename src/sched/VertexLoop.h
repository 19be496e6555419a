//===- sched/VertexLoop.h - Vectorized vertex iteration ---------*- C++ -*-===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The node-order vertex loop with tail masking, and the baseline per-lane
/// inner (edge) loop. This is the unoptimized schedule the paper starts
/// from (Listing 3): one vertex per lane, each lane walking its own edge
/// list, with utilization degrading as degrees diverge (Table IV).
///
/// All loops are templated on a GraphView (graph/GraphView.h): with CsrView
/// (or raw Csr) they compile to exactly the pre-view code; reordered views
/// supply the node permutation through slotNodes, and SELL-C-sigma views
/// replace the per-lane neighbor gathers of slot-aligned vectors with
/// unit-stride chunk sweeps. Each loop exists once: prefetch staging
/// (sched/Prefetch.h) is a property of the loop that an inactive plan turns
/// off, and push and pull share one edge walk.
///
//===----------------------------------------------------------------------===//

#ifndef EGACS_SCHED_VERTEXLOOP_H
#define EGACS_SCHED_VERTEXLOOP_H

#include "graph/GraphView.h"
#include "sched/Prefetch.h"
#include "simd/Ops.h"
#include "trace/Trace.h"

#include <cstdint>
#include <type_traits>

namespace egacs {

/// Runs a staged loop's inspect prologue \p Warm inside a PrefetchInspect
/// span whose detail is the prefetches it issued (recorded only when
/// \p TT is non-null). The loop's execute stage follows in a
/// PrefetchExecute span.
template <typename WarmT>
void inspectPrologue([[maybe_unused]] trace::TaskTrace *TT,
                     [[maybe_unused]] const PrefetchCounters &C,
                     WarmT &&Warm) {
  EGACS_TRACED(const std::uint64_t Issued0 = C.Issued;
               trace::ScopedSpan Inspect(TT, trace::SpanKind::PrefetchInspect);)
  Warm();
  EGACS_TRACED(
      Inspect.setDetail(static_cast<std::int64_t>(C.Issued - Issued0));)
}

namespace loopdetail {

/// The execute-stage span of a staged loop: a ScopedSpan when \p Staged, a
/// no-op otherwise. A span object's cleanup path keeps the loop's vectors
/// in stack slots, which cost road-push bfs-tp (mostly filtered-out node
/// vectors) about 20 %; so the plain loop carries none, and both loops stay
/// out of line, away from the span objects of the operators that call them.
struct NoSpan {
  template <typename... Ts> explicit NoSpan(Ts &&...) {}
};
template <bool Staged>
using StageSpan = std::conditional_t<Staged, trace::ScopedSpan, NoSpan>;

/// forEachNodeVector's loop, compiled once staged and once plain so the
/// plain loop carries no staging code.
template <bool Staged, typename BK, typename VT, typename BodyT>
[[gnu::noinline]] void
nodeVectorLoop(const VT &G, std::int64_t Begin, std::int64_t End,
               const PrefetchPlan &PF, PrefetchCounters &C, BodyT &&Body,
               [[maybe_unused]] trace::TaskTrace *TT) {
  const std::int64_t W = BK::Width;
  const NodeId *Order = viewOrder(G);
  [[maybe_unused]] auto RowStage = [&](std::int64_t P, std::int64_t E) {
    prefetchRowStage<BK>(G, Order, P, E, PF, C);
  };
  [[maybe_unused]] auto EdgeStage = [&](std::int64_t P, std::int64_t E) {
    prefetchEdgeStage<BK>(G, Order, P, E, PF, C);
  };
  std::int64_t I = Begin;
  if constexpr (ViewSellTraits<VT>::SellSlices) {
    std::int64_t Aligned = (Begin + W - 1) / W * W;
    std::int64_t PeelEnd = Aligned < End ? Aligned : End;
    if (I < PeelEnd) {
      if constexpr (Staged) {
        RowStage(I, PeelEnd);
        EdgeStage(I, PeelEnd);
      }
      simd::VMask<BK> Act =
          simd::maskFirstN<BK>(static_cast<int>(PeelEnd - I));
      Body(slotNodes<BK>(G, I, Act), Act, I);
      I = PeelEnd;
    }
  }
  [[maybe_unused]] const Lookahead LA = PF.lookahead(W);
  if constexpr (Staged)
    inspectPrologue(TT, C, [&] { LA.warm(I, End, W, RowStage, EdgeStage); });
  EGACS_TRACED(StageSpan<Staged> Execute(TT, trace::SpanKind::PrefetchExecute,
                                         End - I);)
  for (; I < End; I += W) {
    if constexpr (Staged)
      LA.ahead(I, End, RowStage, EdgeStage);
    int Valid = static_cast<int>(End - I < W ? End - I : W);
    simd::VMask<BK> Act = simd::maskFirstN<BK>(Valid);
    Body(slotNodes<BK>(G, I, Act), Act, I);
  }
}

} // namespace loopdetail

/// Calls Body(VInt NodeIds, VMask Active, int64 Slot) for each Width-sized
/// slice of the view's slot range [Begin, End) — topology-driven iteration
/// over all nodes in the layout's order. Slot is the first slot index of
/// the vector; for SELL views an unaligned prefix is peeled so interior
/// vectors start on Width boundaries and line up with the storage chunks.
///
/// An active plan \p PF stages the loop: the row inspect stage runs PF's
/// far distance ahead of execution and the edge stage its near distance,
/// each in the shape the execute stage will use (the contiguous slice on
/// slot-aligned SELL vectors); the peel vector is inspected just before it
/// runs. \p C batches the prefetch statistics and \p TT receives the
/// stage spans. An inactive plan is the plain loop.
template <typename BK, typename VT, typename BodyT>
void forEachNodeVector(const VT &G, std::int64_t Begin, std::int64_t End,
                       const PrefetchPlan &PF, PrefetchCounters &C,
                       BodyT &&Body, trace::TaskTrace *TT = nullptr) {
  if (PF.active())
    loopdetail::nodeVectorLoop<true, BK>(G, Begin, End, PF, C, Body, TT);
  else
    loopdetail::nodeVectorLoop<false, BK>(G, Begin, End, PF, C, Body, TT);
}

/// The per-lane edge walk of one node vector, shared by push and pull:
/// each lane walks its own node's edge list, calling
/// Fn(Node, Neighbor, EdgeIdx, Live) once per edge-vector step. Fn returns
/// the lanes that keep walking: a push visit keeps every live lane (see
/// plainForEachEdge), so the vector stays live until the highest-degree
/// lane finishes; a pull visit over the *transposed* view retires a lane
/// that found what it wanted (an in-frontier parent in pull-BFS) and the
/// rest of its row is never touched, which is the entire point of the pull
/// direction on dense frontiers. EdgeIdx indexes \p G's arrays.
///
/// When \p G is a SELL view and \p Slot is the Width-aligned slot of this
/// node vector (chunk height == Width), the per-lane gathers become a
/// full-vector sweep of the column-major chunk: neighbor j of all Width
/// rows is one unit-stride load, with the original CSR edge index riding
/// alongside in a second one. Worklist-order vectors pass NoSlot and take
/// the CSR gather surface. When \p EarlyExits is non-null it accumulates
/// the lanes Fn retired that still had edges left — the work the pull
/// direction actually skipped (Stat counter PullEarlyExits).
template <typename BK, typename VT, typename EdgeFnT>
void walkEdges(const VT &G, simd::VInt<BK> Node, simd::VMask<BK> Act,
               EdgeFnT &&Fn, std::int64_t Slot = NoSlot,
               std::int64_t *EarlyExits = nullptr) {
  using namespace simd;
  if constexpr (ViewSellTraits<VT>::SellSlices) {
    if (sellChunkAligned<BK>(G, Slot)) {
      VInt<BK> Deg = maskedLoad<BK>(G.slotDegrees() + Slot, Act);
      const std::int64_t Base = G.sliceOffsets()[Slot / BK::Width];
      const NodeId *DstBase = G.sellDst() + Base;
      const EdgeId *EdgeBase = G.sellEdge() + Base;
      VInt<BK> J = splat<BK>(0);
      VMask<BK> Live = Act & (J < Deg);
      std::int64_t Off = 0;
      while (any(Live)) {
        recordLaneUtilization<BK>(Live);
        recordNeighborContig<BK>(Live);
        VInt<BK> Dst = maskedLoad<BK>(DstBase + Off, Live);
        VInt<BK> EIdx = maskedLoad<BK>(EdgeBase + Off, Live);
        VMask<BK> Keep = Fn(Node, Dst, EIdx, Live);
        J = J + splat<BK>(1);
        Off += BK::Width;
        if (EarlyExits)
          *EarlyExits += popcount((Live & ~Keep) & (J < Deg));
        Live = Keep & (J < Deg);
      }
      return;
    }
  }
  VInt<BK> Row = gather<BK>(G.rowStart(), Node, Act);
  VInt<BK> End = gather<BK>(G.rowStart() + 1, Node, Act);
  VMask<BK> Live = Act & (Row < End);
  while (any(Live)) {
    recordLaneUtilization<BK>(Live);
    recordNeighborGather<BK>(Live);
    VInt<BK> Dst = gatherNeighbors<BK>(G, Row, Live);
    VMask<BK> Keep = Fn(Node, Dst, Row, Live);
    Row = Row + splat<BK>(1);
    if (EarlyExits)
      *EarlyExits += popcount((Live & ~Keep) & (Row < End));
    Live = Keep & (Row < End);
  }
}

/// Baseline push inner loop: walkEdges with every live lane kept. Calls
/// Fn(Src, Dst, EdgeIdx, Active) once per edge-vector step. This is what
/// the Nested Parallelism scheduler replaces.
template <typename BK, typename VT, typename EdgeFnT>
void plainForEachEdge(const VT &G, simd::VInt<BK> Node, simd::VMask<BK> Act,
                      EdgeFnT &&Fn, std::int64_t Slot = NoSlot) {
  walkEdges<BK>(
      G, Node, Act,
      [&](simd::VInt<BK> Src, simd::VInt<BK> Dst, simd::VInt<BK> EIdx,
          simd::VMask<BK> Live) {
        Fn(Src, Dst, EIdx, Live);
        return Live;
      },
      Slot);
}

} // namespace egacs

#endif // EGACS_SCHED_VERTEXLOOP_H
