//===- sched/NestedParallelism.h - Inspector-executor edge balancing -*- C++ -*-===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Nested Parallelism (paper Section III-B2, Fig 2): inner-loop (edge)
/// iterations are redistributed across SIMD lanes so load imbalance between
/// node degrees no longer idles lanes.
///
///  * High/medium-degree nodes (degree >= SIMD width) are processed one node
///    at a time with the full vector sweeping that node's edge list — the
///    CUDA thread-block/warp-level schedulers of the original IrGL backend.
///  * Low-degree nodes' edges are packed with prefix-sum-style compression
///    into a staging buffer and then swept with full vectors — the
///    fine-grained scheduler.
///
/// The compiler (src/irgl) inserts this inspector-executor around edge loops
/// when the NP optimization is on; hand-written kernels call npForEachEdge.
///
/// Under an armed prefetch plan the staging-buffer flush and the heavy-node
/// sweep run their inspect stages through the same Lookahead as the vertex
/// loops (sched/Prefetch.h); unarmed, they are the plain loops.
///
//===----------------------------------------------------------------------===//

#ifndef EGACS_SCHED_NESTEDPARALLELISM_H
#define EGACS_SCHED_NESTEDPARALLELISM_H

#include "sched/Prefetch.h"
#include "sched/VertexLoop.h"
#include "support/AlignedBuffer.h"

#include <cstdint>

namespace egacs {

/// Per-task staging storage for the fine-grained (low-degree) scheduler.
/// One instance per task; reused across rounds.
class NpScratch {
public:
  /// \p Capacity bounds the number of buffered (src, edge) pairs; bigger
  /// buffers pack better across vertex vectors at the cost of locality.
  explicit NpScratch(std::size_t Capacity = 4096)
      : SrcBuf(Capacity), EdgeBuf(Capacity) {}

  std::int32_t size() const { return Count; }
  std::size_t capacity() const { return SrcBuf.size(); }

  /// Arms the staged execution mode for this task's edge loops: flush() and
  /// the heavy-node sweep prefetch their upcoming gathers PF->Dist vectors
  /// ahead, batching statistics into \p C. Pass an inactive plan (or leave
  /// unset) for the exact pre-pipeline behavior.
  void setPrefetch(const PrefetchPlan *PF, PrefetchCounters *C) {
    Pf = (PF != nullptr && PF->active() && C != nullptr) ? PF : nullptr;
    PfC = Pf != nullptr ? C : nullptr;
  }

  const PrefetchPlan *prefetchPlan() const { return Pf; }
  PrefetchCounters *prefetchCounters() const { return PfC; }

  template <typename BK>
  void append(simd::VInt<BK> Src, simd::VInt<BK> Edge, simd::VMask<BK> M) {
    assert(static_cast<std::size_t>(Count) + BK::Width <= SrcBuf.size() &&
           "NP scratch overflow");
    simd::packedStoreActive(SrcBuf.data() + Count, Src, M);
    Count += simd::packedStoreActive(EdgeBuf.data() + Count, Edge, M);
  }

  bool needsFlush(int Width) const {
    return static_cast<std::size_t>(Count) + Width > SrcBuf.size();
  }

  /// Sweeps the buffered edges with full vectors and empties the buffer.
  /// The staged pairs have lost slot alignment, so every layout satisfies
  /// this through the edge-index gather surface. With a prefetch plan armed
  /// (setPrefetch), the buffered edge indices — already known, task-local,
  /// and cache-hot — drive an inspect stage PF->Dist vectors ahead of the
  /// executing gather.
  template <typename BK, typename VT, typename EdgeFnT>
  void flush(const VT &G, EdgeFnT &&Fn) {
    using namespace simd;
    const Lookahead LA{Pf != nullptr ? Pf->lookahead(BK::Width).Far : 0, 0};
    auto Inspect = [&](std::int64_t J, std::int64_t) {
      inspectFlushVector<BK>(G, static_cast<std::int32_t>(J));
    };
    if (Pf != nullptr)
      LA.warm(0, Count, BK::Width, Inspect, NoInspect);
    for (std::int32_t I = 0; I < Count; I += BK::Width) {
      if (Pf != nullptr)
        LA.ahead(I, Count, Inspect, NoInspect);
      int Valid = Count - I < BK::Width ? Count - I : BK::Width;
      VMask<BK> Act = maskFirstN<BK>(Valid);
      VInt<BK> Src = maskedLoad<BK>(SrcBuf.data() + I, Act);
      VInt<BK> Edge = maskedLoad<BK>(EdgeBuf.data() + I, Act);
      recordLaneUtilization<BK>(Act);
      recordNeighborGather<BK>(Act);
      VInt<BK> Dst = gatherNeighbors<BK>(G, Edge, Act);
      Fn(Src, Dst, Edge, Act);
    }
    Count = 0;
  }

private:
  /// Inspects one flush vector at buffer offset \p J: edge-destination
  /// lines plus src-/edge-indexed property lines under rows+props.
  template <typename BK, typename VT>
  void inspectFlushVector(const VT &G, std::int32_t J) {
    using namespace prefetchdetail;
    std::int32_t Stop = J + BK::Width < Count ? J + BK::Width : Count;
    for (std::int32_t K = J; K < Stop; ++K) {
      EdgeId E = EdgeBuf[static_cast<std::size_t>(K)];
      pfLine<BK>(G.edgeDst() + E, *PfC);
      if (Pf->wantProps())
        for (int P = 0; P < Pf->NumProps; ++P) {
          const PrefetchPlan::Prop &Prop = Pf->Props[P];
          if (Prop.Kind == PrefetchIndexKind::Node)
            pfLine<BK>(static_cast<const char *>(Prop.Base) +
                           static_cast<std::int64_t>(
                               SrcBuf[static_cast<std::size_t>(K)]) *
                               Prop.ElemSize,
                       *PfC);
          else if (Prop.Kind == PrefetchIndexKind::Edge)
            pfLine<BK>(static_cast<const char *>(Prop.Base) +
                           static_cast<std::int64_t>(E) * Prop.ElemSize,
                       *PfC);
        }
    }
  }

  AlignedBuffer<NodeId> SrcBuf;
  AlignedBuffer<EdgeId> EdgeBuf;
  std::int32_t Count = 0;
  const PrefetchPlan *Pf = nullptr;
  PrefetchCounters *PfC = nullptr;
};

/// Nested-parallelism edge visit for one vector of nodes. Low-degree edges
/// are staged in \p Scratch; the caller must Scratch.flush() after its last
/// vector (and may flush earlier). Fn(Src, Dst, EdgeIdx, Active).
///
/// When \p G is a SELL view and \p Slot is the Width-aligned slot of this
/// node vector (chunk height == Width), the low-degree lanes skip the
/// staging buffer entirely: their neighbors sit in one column-major chunk
/// and are swept with unit-stride loads (the gather -> contiguous-load
/// conversion the layout ablation measures). Heavy nodes keep the
/// warp-level CSR sweep, which is already contiguous.
template <typename BK, typename VT, typename EdgeFnT>
void npForEachEdge(const VT &G, simd::VInt<BK> Node, simd::VMask<BK> Act,
                   NpScratch &Scratch, EdgeFnT &&Fn,
                   std::int64_t Slot = NoSlot) {
  using namespace simd;
  VInt<BK> Row = gather<BK>(G.rowStart(), Node, Act);
  VInt<BK> End = gather<BK>(G.rowStart() + 1, Node, Act);
  VInt<BK> Deg = End - Row;
  VMask<BK> Heavy = Act & (Deg >= splat<BK>(BK::Width));

  // Warp/block-level scheduler: full vector over one heavy node at a time.
  // With a plan armed, the contiguous sweep carries its own two-distance
  // inspect stage (no prologue): destination lines (and edge-prop lines) at
  // the far distance, destination-indexed property peeks at the near one
  // (where the destination ids themselves are already cache-warm).
  const PrefetchPlan *Pf = Scratch.prefetchPlan();
  PrefetchCounters *PfC = Scratch.prefetchCounters();
  const Lookahead LA = Pf != nullptr ? Pf->lookahead(BK::Width) : Lookahead{};
  auto InspectDst = [&](std::int64_t E, std::int64_t) {
    using namespace prefetchdetail;
    pfLine<BK>(G.edgeDst() + E, *PfC);
    if (Pf->wantProps())
      for (int P = 0; P < Pf->NumProps; ++P)
        if (Pf->Props[P].Kind == PrefetchIndexKind::Edge)
          pfLine<BK>(static_cast<const char *>(Pf->Props[P].Base) +
                         E * Pf->Props[P].ElemSize,
                     *PfC);
  };
  auto InspectDstProps = [&](std::int64_t E, std::int64_t EEnd) {
    using namespace prefetchdetail;
    if (!Pf->wantProps())
      return;
    int Peek = static_cast<int>(EEnd - E < BK::Width ? EEnd - E : BK::Width);
    for (int P = 0; P < Pf->NumProps; ++P)
      if (Pf->Props[P].Kind == PrefetchIndexKind::Dst)
        for (int J = 0; J < Peek; ++J)
          pfLine<BK>(static_cast<const char *>(Pf->Props[P].Base) +
                         static_cast<std::int64_t>(G.edgeDst()[E + J]) *
                             Pf->Props[P].ElemSize,
                     *PfC);
  };
  if (std::uint64_t HeavyBits = maskBits(Heavy)) {
    const auto NodeA = spill(Node), RowA = spill(Row), EndA = spill(End);
    while (HeavyBits) {
      int L = __builtin_ctzll(HeavyBits);
      HeavyBits &= HeavyBits - 1;
      NodeId N = NodeA[L];
      EdgeId EBegin = RowA[L];
      EdgeId EEnd = EndA[L];
      VInt<BK> SrcV = splat<BK>(N);
      VInt<BK> Lane = programIndex<BK>();
      for (EdgeId E = EBegin; E < EEnd; E += BK::Width) {
        if (Pf != nullptr)
          LA.ahead(E, EEnd, InspectDst, InspectDstProps);
        int Valid = EEnd - E < BK::Width ? EEnd - E : BK::Width;
        VMask<BK> EAct = maskFirstN<BK>(Valid);
        VInt<BK> EIdx = splat<BK>(E) + Lane;
        recordLaneUtilization<BK>(EAct);
        recordNeighborContig<BK>(EAct);
        VInt<BK> Dst = maskedLoad<BK>(G.edgeDst() + E, EAct);
        Fn(SrcV, Dst, EIdx, EAct);
      }
    }
  }

  VMask<BK> Light = andNot(Act, Heavy);

  if (sellChunkAligned<BK>(G, Slot)) {
    plainForEachEdge<BK>(G, Node, Light, Fn, Slot);
    return;
  }

  // Fine-grained scheduler: compress low-degree (src, edge) pairs.
  VMask<BK> Live = Light & (Row < End);
  while (any(Live)) {
    if (Scratch.needsFlush(BK::Width))
      Scratch.flush<BK>(G, Fn);
    Scratch.append<BK>(Node, Row, Live);
    Row = Row + splat<BK>(1);
    Live = Live & (Row < End);
  }
}

} // namespace egacs

#endif // EGACS_SCHED_NESTEDPARALLELISM_H
