//===- sched/Prefetch.h - Staged-loop software prefetch ---------*- C++ -*-===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The latency-hiding prefetch pipeline behind the staged vertex loops: the
/// paper's gathers convert control divergence into data divergence, but on
/// rmat/road-scale graphs the resulting access stream is exactly what the
/// hardware prefetcher cannot predict. A cheap inspect stage therefore runs
/// PrefetchDist vectors ahead of the execute stage and issues software
/// prefetches through the simd::prefetch / simd::gatherPrefetch hooks:
///
///  * row stage   (far, +Dist vectors)  - the row_ptr entries of the
///    upcoming node vector plus node-indexed property lines. Reads only the
///    iteration-order array (a sequential stream) to learn node ids.
///  * edge stage  (near, +Dist/2)       - demand-reads row_ptr (cached by
///    the row stage), prefetches the neighbor-slot lines: per-lane CSR
///    spans, or the contiguous SELL slice when the vector is slot-aligned.
///    Under rows+props it also peeks the first neighbor ids and prefetches
///    destination-indexed property lines, and covers edge-indexed property
///    lines (weights) which share the CSR edge-index shape.
///
/// The inspect stages demand-read ONLY immutable topology (row_ptr, edge
/// destinations, iteration order, SELL slice metadata) — never the mutable
/// property arrays — so staging can never change results or introduce data
/// races; the prefetches themselves are hints invisible to TSan and to the
/// Fig 7 op counts.
///
//===----------------------------------------------------------------------===//

#ifndef EGACS_SCHED_PREFETCH_H
#define EGACS_SCHED_PREFETCH_H

#include "graph/GraphView.h"
#include "simd/Ops.h"
#include "support/Stats.h"

#include <cstdint>
#include <string>

namespace egacs {

/// What the staged loops prefetch ahead of the execute stage.
enum class PrefetchPolicy {
  None,      ///< no staging: the exact pre-pipeline loops
  Rows,      ///< row_ptr entries + neighbor-slot lines
  RowsProps, ///< Rows plus registered property-array lines
};

/// Human-readable policy name ("none", "rows", "rows+props").
const char *prefetchPolicyName(PrefetchPolicy P);

/// Parses "none", "rows", or "rows+props"; reports unknown names to stderr
/// and exits non-zero (never silently falls back).
PrefetchPolicy parsePrefetchPolicy(const std::string &Name);

/// How a registered property array is indexed, i.e. which value the inspect
/// stage must know before it can compute the property address.
enum class PrefetchIndexKind {
  Node, ///< indexed by source node id (known at the row stage)
  Dst,  ///< indexed by neighbor id (needs a peek at edge destinations)
  Edge, ///< indexed by edge id (shares the CSR row-span shape)
};

namespace prefetchdetail {
inline constexpr std::int64_t LineBytes = 64;
/// Per-lane cap on prefetched neighbor-slot lines; beyond this a row is
/// long enough that the hardware streamer takes over mid-row anyway.
inline constexpr int MaxEdgeLinesPerLane = 4;
/// Per-lane cap on destination peeks for dst-indexed property prefetch.
inline constexpr int MaxDstPeeksPerLane = 8;
} // namespace prefetchdetail

/// One kernel-run prefetch plan: the policy/distance pair from KernelConfig
/// plus the hot property arrays the kernel's edge functor will touch.
struct PrefetchPlan {
  PrefetchPolicy Policy = PrefetchPolicy::None;
  /// Lookahead of the row stage, in vectors; the edge stage trails at half
  /// this distance. <= 0 degenerates to inspect-just-before-execute.
  int Dist = 8;

  struct Prop {
    const void *Base = nullptr;
    int ElemSize = 4;
    PrefetchIndexKind Kind = PrefetchIndexKind::Node;
  };
  static constexpr int MaxProps = 4;
  Prop Props[MaxProps];
  int NumProps = 0;

  /// Registers a property array; ignored beyond MaxProps (a plan that hot
  /// would thrash the fill buffers anyway).
  void addProp(const void *Base, int ElemSize, PrefetchIndexKind Kind) {
    if (Base != nullptr && NumProps < MaxProps)
      Props[NumProps++] = {Base, ElemSize, Kind};
  }

  bool active() const { return Policy != PrefetchPolicy::None; }
  bool wantProps() const { return Policy == PrefetchPolicy::RowsProps; }
};

/// Per-task prefetch statistics, batched in plain fields next to the
/// duplicate-line state the inspect loops already touch; flushed on
/// destruction.
struct PrefetchCounters {
  std::uint64_t Issued = 0;
  std::uint64_t Lines = 0;
  /// Line address of the previous request, for duplicate suppression.
  std::uintptr_t LastLine = ~std::uintptr_t{0};

  ~PrefetchCounters() { flush(); }
  PrefetchCounters() = default;
  PrefetchCounters(const PrefetchCounters &) = delete;
  PrefetchCounters &operator=(const PrefetchCounters &) = delete;

  void flush() {
    if (Issued != 0)
      EGACS_STAT_ADD(PrefetchesIssued, Issued);
    if (Lines != 0)
      EGACS_STAT_ADD(PrefetchLinesTouched, Lines);
    Issued = 0;
    Lines = 0;
  }
};

namespace prefetchdetail {

/// Requests the line holding \p P; consecutive requests for the same line
/// are suppressed (rowStart entries of neighbouring lanes usually share
/// one), which is what makes Lines <= Issued.
template <typename BK>
inline void pfLine(const void *P, PrefetchCounters &C) {
  C.Issued += 1;
  std::uintptr_t Line = reinterpret_cast<std::uintptr_t>(P) /
                        static_cast<std::uintptr_t>(LineBytes);
  if (Line == C.LastLine)
    return;
  C.LastLine = Line;
  C.Lines += 1;
  simd::prefetch<BK>(P);
}

/// Requests every line of [P, P + Bytes), capped at \p MaxLines.
template <typename BK>
inline void pfSpan(const void *P, std::int64_t Bytes, int MaxLines,
                   PrefetchCounters &C) {
  const char *Q = static_cast<const char *>(P);
  std::int64_t Lines = (Bytes + LineBytes - 1) / LineBytes;
  if (Lines > MaxLines)
    Lines = MaxLines;
  for (std::int64_t L = 0; L < Lines; ++L)
    pfLine<BK>(Q + L * LineBytes, C);
}

/// Slot -> node id under the staged loop's iteration order: \p Order is the
/// permutation array (view iteration order or a worklist's items), nullptr
/// for identity.
inline NodeId orderedNode(const NodeId *Order, std::int64_t Slot) {
  return Order != nullptr ? Order[Slot] : static_cast<NodeId>(Slot);
}

} // namespace prefetchdetail

/// Returns the permutation the staged node loops iterate under: the view's
/// iteration order for permuted layouts, nullptr (identity) for plain CSR.
template <typename VT> const NodeId *viewOrder(const VT &G) {
  if constexpr (ViewOrderTraits<VT>::Permuted)
    return G.iterationOrder();
  else
    return nullptr;
}

/// Far inspect stage for the node vector whose first slot is \p Slot
/// (clamped to \p End): row_ptr lines of every lane plus node-indexed
/// property lines. Only \p Order (a sequential stream) is demand-read.
template <typename BK, typename VT>
void prefetchRowStage(const VT &G, const NodeId *Order, std::int64_t Slot,
                      std::int64_t End, const PrefetchPlan &PF,
                      PrefetchCounters &C) {
  using namespace prefetchdetail;
  std::int64_t Stop =
      Slot + BK::Width < End ? Slot + BK::Width : End;
  const EdgeId *Rows = G.rowStart();
  for (std::int64_t I = Slot; I < Stop; ++I) {
    NodeId N = orderedNode(Order, I);
    pfLine<BK>(Rows + N, C);
    if (PF.wantProps())
      for (int P = 0; P < PF.NumProps; ++P) {
        const PrefetchPlan::Prop &Prop = PF.Props[P];
        if (Prop.Kind == PrefetchIndexKind::Node)
          pfLine<BK>(static_cast<const char *>(Prop.Base) +
                         static_cast<std::int64_t>(N) * Prop.ElemSize,
                     C);
      }
  }
}

/// Near inspect stage for the node vector whose first slot is \p Slot:
/// neighbor-slot lines in the shape the execute stage will use — the
/// contiguous SELL slice when the vector is slot-aligned on a SELL view,
/// per-lane CSR row spans otherwise — plus edge- and destination-indexed
/// property lines under rows+props. Demand-reads row_ptr (warmed by the row
/// stage) and, for dst props, the first few neighbor ids per lane.
template <typename BK, typename VT>
void prefetchEdgeStage(const VT &G, const NodeId *Order, std::int64_t Slot,
                       std::int64_t End, const PrefetchPlan &PF,
                       PrefetchCounters &C) {
  using namespace prefetchdetail;
  if constexpr (ViewSellTraits<VT>::SellSlices) {
    if (Order == viewOrder(G) && Slot % BK::Width == 0 &&
        G.chunkWidth() == static_cast<std::int32_t>(BK::Width)) {
      // SELL shape: the whole chunk's neighbors are one contiguous slice.
      std::int64_t Chunk = Slot / BK::Width;
      std::int64_t Base = G.sliceOffsets()[Chunk];
      std::int64_t Extent = G.sliceOffsets()[Chunk + 1] - Base;
      std::int64_t Bytes = Extent * static_cast<std::int64_t>(sizeof(NodeId));
      pfSpan<BK>(G.sellDst() + Base, Bytes, BK::Width * MaxEdgeLinesPerLane,
                 C);
      if (PF.wantProps()) {
        // Destination peeks off the slice head; the edge-index companion
        // array covers edge-indexed props.
        const NodeId *Dsts = G.sellDst() + Base;
        const EdgeId *Edges = G.sellEdge() + Base;
        std::int64_t Peek = Extent < MaxDstPeeksPerLane * BK::Width
                                ? Extent
                                : MaxDstPeeksPerLane * BK::Width;
        for (int P = 0; P < PF.NumProps; ++P) {
          const PrefetchPlan::Prop &Prop = PF.Props[P];
          if (Prop.Kind == PrefetchIndexKind::Dst)
            for (std::int64_t J = 0; J < Peek; ++J)
              pfLine<BK>(static_cast<const char *>(Prop.Base) +
                             static_cast<std::int64_t>(Dsts[J]) *
                                 Prop.ElemSize,
                         C);
          else if (Prop.Kind == PrefetchIndexKind::Edge)
            for (std::int64_t J = 0; J < Peek; ++J)
              pfLine<BK>(static_cast<const char *>(Prop.Base) +
                             static_cast<std::int64_t>(Edges[J]) *
                                 Prop.ElemSize,
                         C);
        }
      }
      return;
    }
  }

  // CSR gather shape: one span of edgeDst per lane.
  std::int64_t Stop = Slot + BK::Width < End ? Slot + BK::Width : End;
  const EdgeId *Rows = G.rowStart();
  const NodeId *Dst = G.edgeDst();
  for (std::int64_t I = Slot; I < Stop; ++I) {
    NodeId N = orderedNode(Order, I);
    EdgeId Row = Rows[N];
    EdgeId RowEnd = Rows[N + 1];
    std::int64_t Bytes =
        static_cast<std::int64_t>(RowEnd - Row) *
        static_cast<std::int64_t>(sizeof(NodeId));
    if (Bytes <= 0)
      continue;
    pfSpan<BK>(Dst + Row, Bytes, MaxEdgeLinesPerLane, C);
    if (PF.wantProps()) {
      int Deg = static_cast<int>(RowEnd - Row);
      int Peek = Deg < MaxDstPeeksPerLane ? Deg : MaxDstPeeksPerLane;
      for (int P = 0; P < PF.NumProps; ++P) {
        const PrefetchPlan::Prop &Prop = PF.Props[P];
        if (Prop.Kind == PrefetchIndexKind::Edge)
          pfSpan<BK>(static_cast<const char *>(Prop.Base) +
                         static_cast<std::int64_t>(Row) * Prop.ElemSize,
                     static_cast<std::int64_t>(Deg) * Prop.ElemSize,
                     MaxEdgeLinesPerLane, C);
        else if (Prop.Kind == PrefetchIndexKind::Dst)
          // Peeking edgeDst here races one cycle behind its own prefetch,
          // but still runs Dist/2 vectors ahead of the dependent execute-
          // stage access — the remaining latency is what the stage hides.
          for (int J = 0; J < Peek; ++J)
            pfLine<BK>(static_cast<const char *>(Prop.Base) +
                           static_cast<std::int64_t>(Dst[Row + J]) *
                               Prop.ElemSize,
                       C);
      }
    }
  }
}

} // namespace egacs

#endif // EGACS_SCHED_PREFETCH_H
