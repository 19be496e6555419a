//===- graph/GraphView.h - Pluggable SIMD-facing graph layouts --*- C++ -*-===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The GraphView layer: a compile-time concept that decouples every SPMD
/// consumer (kernels, NP inspector, IrGL code generator, VM access tracer)
/// from the one hard-wired CSR storage choice of the paper.
///
/// A GraphView provides the scalar surface of Csr
/// (numNodes/numEdges/degree/rowStart/edgeDst/edgeWeight/maxDegree) plus a
/// vector-access surface the SIMD loops consume:
///
///  * slotNodes(G, Slot, Act)      -- the node ids occupying SIMD slots
///    [Slot, Slot+Width): the identity for CSR order, a unit-stride load of
///    the layout's iteration permutation for reordered layouts.
///  * gatherNeighbors(G, EIdx, M)  -- neighbor fetch by original edge index
///    (a hardware gather on CSR; layouts with sliced storage satisfy most of
///    these through contiguous loads instead, see sched/NestedParallelism.h).
///  * rowSlice(N)                  -- a strided descriptor of one adjacency
///    row inside the layout's native storage.
///
/// Two implementations:
///  * CsrView  -- zero-cost wrapper over Csr; the default.
///    Templates instantiated with it compile to exactly the pre-view code.
///  * SellView -- SELL-C-sigma sliced storage (SlimSell, Besta et al.):
///    C-row chunks stored column-major so neighbor j of C consecutive rows
///    is one unit-stride vector load; sigma bounds the sorting window and
///    thus the padding. Its slots iterate nodes in a permuted
///    (degree-sorted) order.
///
/// Raw `Csr` itself still satisfies the scalar + default vector surface, so
/// existing call sites (and IrGL-generated drivers) keep compiling.
///
//===----------------------------------------------------------------------===//

#ifndef EGACS_GRAPH_GRAPHVIEW_H
#define EGACS_GRAPH_GRAPHVIEW_H

#include "graph/Csr.h"
#include "simd/Ops.h"
#include "support/AlignedBuffer.h"

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>

namespace egacs {

/// The storage layouts a graph may be presented through.
enum class LayoutKind : int {
  Csr,  ///< Plain CSR (the paper's layout).
  Sell, ///< SELL-C-sigma sliced, column-major chunk storage.
};
inline constexpr int NumLayoutKinds = 2;
inline constexpr LayoutKind AllLayoutKinds[NumLayoutKinds] = {
    LayoutKind::Csr, LayoutKind::Sell};

/// Returns the command-line name of \p K ("csr", "sell").
const char *layoutName(LayoutKind K);

/// Parses a layout name; prints a diagnostic and exits on unknown names
/// (command-line parsing helper, like parseUpdatePolicy).
LayoutKind parseLayoutKind(const std::string &Name);

/// Construction parameters for the SELL layout.
struct LayoutOptions {
  /// SellView: chunk height C, normally the SIMD width of the target the
  /// kernels will run with.
  std::int32_t SellChunk = 8;
  /// SellView: sigma, the degree-sorting window (in nodes). Larger windows
  /// cut padding but stray further from the original locality order.
  std::int32_t SellSigma = 1 << 12;
};

// --- Compile-time layout capability traits -----------------------------------
//
// Detection-based so that raw Csr (which declares neither flag) keeps
// satisfying the generic templates with the default CSR behaviour.

template <typename VT, typename = void> struct ViewOrderTraits {
  /// True when the view iterates nodes in a permuted order exposed via
  /// iterationOrder().
  static constexpr bool Permuted = false;
};
template <typename VT>
struct ViewOrderTraits<VT, std::void_t<decltype(VT::PermutedOrder)>> {
  static constexpr bool Permuted = VT::PermutedOrder;
};

template <typename VT, typename = void> struct ViewSellTraits {
  /// True when the view stores SELL-C-sigma slices that slot-aligned edge
  /// sweeps may consume with unit-stride loads.
  static constexpr bool SellSlices = false;
};
template <typename VT>
struct ViewSellTraits<VT, std::void_t<decltype(VT::HasSellSlices)>> {
  static constexpr bool SellSlices = VT::HasSellSlices;
};

/// A strided descriptor of one adjacency row inside a layout's native
/// storage. For CSR layouts Stride == 1 and neighbor i's original edge index
/// is FirstEdge + i; SELL rows advance by the chunk height and carry their
/// original edge indices in EIdx (same stride).
struct RowSlice {
  /// First neighbor slot in the layout's storage.
  const NodeId *Dst = nullptr;
  /// Original CSR edge index per slot (nullptr => FirstEdge + i).
  const EdgeId *EIdx = nullptr;
  /// Number of neighbors.
  EdgeId Len = 0;
  /// Element stride between consecutive neighbors of this row.
  EdgeId Stride = 1;
  /// Original CSR edge index of neighbor 0.
  EdgeId FirstEdge = 0;

  /// Original CSR edge index of neighbor \p I.
  EdgeId edgeIndex(EdgeId I) const {
    return EIdx ? EIdx[static_cast<std::int64_t>(I) * Stride] : FirstEdge + I;
  }
  /// Neighbor \p I.
  NodeId dst(EdgeId I) const {
    return Dst[static_cast<std::int64_t>(I) * Stride];
  }
};

// --- CsrView -----------------------------------------------------------------

/// Zero-cost view over an existing Csr; the default layout. Kernels
/// templated on CsrView compile to exactly the code they compiled to when
/// they took `const Csr &` directly.
class CsrView {
public:
  static constexpr bool PermutedOrder = false;
  static constexpr bool HasSellSlices = false;

  CsrView() = default;
  explicit CsrView(const Csr &Graph) : G(&Graph) {}

  const Csr &csr() const { return *G; }
  NodeId numNodes() const { return G->numNodes(); }
  EdgeId numEdges() const { return G->numEdges(); }
  bool hasWeights() const { return G->hasWeights(); }
  EdgeId degree(NodeId N) const { return G->degree(N); }
  EdgeId maxDegree() const { return G->maxDegree(); }
  const EdgeId *rowStart() const { return G->rowStart(); }
  const NodeId *edgeDst() const { return G->edgeDst(); }
  const Weight *edgeWeight() const { return G->edgeWeight(); }

  RowSlice rowSlice(NodeId N) const {
    EdgeId Begin = G->rowStart()[N];
    return {G->edgeDst() + Begin, nullptr, G->degree(N), 1, Begin};
  }

  /// Bytes of layout metadata beyond the wrapped CSR arrays.
  std::size_t layoutAuxBytes() const { return 0; }

private:
  const Csr *G = nullptr;
};

// --- SellView ----------------------------------------------------------------

/// The relocatable arrays of a SELL-C-sigma build; separated from SellView
/// so the binary graph cache (v2) can persist and restore a prebuilt image
/// without re-sorting (see graph/Loader.h).
struct SellImage {
  std::int32_t Chunk = 0; ///< C, the chunk height.
  std::int32_t Sigma = 0; ///< Degree-sorting window, in nodes.
  /// Slot -> node permutation; paddedSlots entries, tail slots (beyond
  /// numNodes) hold 0 and have SlotDeg 0.
  AlignedBuffer<NodeId> Order;
  /// Per-slot degree (0 for padding slots); paddedSlots entries.
  AlignedBuffer<EdgeId> SlotDeg;
  /// Per-chunk start offsets into SellDst/SellEdge; numChunks+1 entries.
  AlignedBuffer<std::int64_t> SliceOff;
  /// Column-major slices: entry (chunk, j, lane) at
  /// SliceOff[chunk] + j*C + lane. Padding entries hold 0.
  AlignedBuffer<NodeId> SellDst;
  /// Original CSR edge index per slice entry (parallel to SellDst), so
  /// weight lookups and edge-indexed algorithms stay exact.
  AlignedBuffer<EdgeId> SellEdge;

  std::int64_t paddedSlots() const {
    return static_cast<std::int64_t>(Order.size());
  }
  std::int64_t numChunks() const {
    return SliceOff.empty() ? 0
                            : static_cast<std::int64_t>(SliceOff.size()) - 1;
  }
  std::int64_t storedEntries() const {
    return SliceOff.empty() ? 0 : SliceOff[SliceOff.size() - 1];
  }
};

/// Builds the SELL-C-sigma image of \p G with chunk height \p Chunk and
/// sorting window \p Sigma (clamped to >= Chunk).
SellImage buildSellImage(const Csr &G, std::int32_t Chunk, std::int32_t Sigma);

/// SELL-C-sigma view: nodes sorted by degree (descending) within
/// sigma-windows, grouped into chunks of C rows stored column-major. A
/// slot-aligned SIMD sweep reads neighbor j of all C rows with one
/// unit-stride vector load instead of a gather. The wrapped CSR arrays stay
/// available as the fallback surface for worklist-order (non-slot-aligned)
/// traversals.
class SellView {
public:
  static constexpr bool PermutedOrder = true;
  static constexpr bool HasSellSlices = true;

  /// Builds the image with buildSellImage.
  explicit SellView(const Csr &Graph, const LayoutOptions &Opts = {});
  /// Adopts a prebuilt (e.g. cache-loaded) image. \p Img must have been
  /// built from \p Graph.
  SellView(const Csr &Graph, SellImage Image);

  const Csr &csr() const { return *G; }
  NodeId numNodes() const { return G->numNodes(); }
  EdgeId numEdges() const { return G->numEdges(); }
  bool hasWeights() const { return G->hasWeights(); }
  EdgeId degree(NodeId N) const { return G->degree(N); }
  EdgeId maxDegree() const { return G->maxDegree(); }
  const EdgeId *rowStart() const { return G->rowStart(); }
  const NodeId *edgeDst() const { return G->edgeDst(); }
  const Weight *edgeWeight() const { return G->edgeWeight(); }

  const NodeId *iterationOrder() const { return Img.Order.data(); }
  std::int32_t chunkWidth() const { return Img.Chunk; }
  std::int32_t sigma() const { return Img.Sigma; }
  const EdgeId *slotDegrees() const { return Img.SlotDeg.data(); }
  const std::int64_t *sliceOffsets() const { return Img.SliceOff.data(); }
  const NodeId *sellDst() const { return Img.SellDst.data(); }
  const EdgeId *sellEdge() const { return Img.SellEdge.data(); }
  const SellImage &image() const { return Img; }

  /// The slot node \p N occupies in the sliced storage.
  std::int64_t slotOf(NodeId N) const {
    return InvSlot[static_cast<std::size_t>(N)];
  }

  std::int64_t paddedSlots() const { return Img.paddedSlots(); }
  std::int64_t numChunks() const { return Img.numChunks(); }
  /// Total slice entries including padding.
  std::int64_t storedEntries() const { return Img.storedEntries(); }
  /// Padding entries (storedEntries - numEdges).
  std::int64_t paddingEntries() const {
    return storedEntries() - static_cast<std::int64_t>(numEdges());
  }
  /// Padding as a percentage of the real edges (0 for an edgeless graph).
  double paddingOverheadPercent() const {
    return numEdges() == 0 ? 0.0
                           : 100.0 * static_cast<double>(paddingEntries()) /
                                 static_cast<double>(numEdges());
  }

  RowSlice rowSlice(NodeId N) const {
    std::int64_t S = slotOf(N);
    std::int64_t ChunkIdx = S / Img.Chunk;
    std::int64_t Lane = S % Img.Chunk;
    std::int64_t Base = Img.SliceOff[static_cast<std::size_t>(ChunkIdx)] + Lane;
    return {Img.SellDst.data() + Base, Img.SellEdge.data() + Base,
            G->degree(N), static_cast<EdgeId>(Img.Chunk), G->rowStart()[N]};
  }

  std::size_t layoutAuxBytes() const;

private:
  const Csr *G;
  SellImage Img;
  AlignedBuffer<std::int64_t> InvSlot; ///< node -> slot.
};

// --- AnyLayout ---------------------------------------------------------------

/// A runtime-tagged layout choice over one Csr, for call sites that pick the
/// layout from a command-line knob and dispatch into the statically typed
/// view templates via visit(). Does not own the Csr; the caller keeps it
/// alive. (Named AnyLayout, not GraphLayout: vm/AccessTrace.cpp has an
/// unrelated file-local struct of that name.)
class AnyLayout {
public:
  AnyLayout() = default;

  /// Builds the layout \p K over \p G.
  static AnyLayout build(LayoutKind K, const Csr &G,
                         const LayoutOptions &Opts = {});
  /// Wraps a cache-restored SELL image.
  static AnyLayout fromSellImage(const Csr &G, SellImage Img);

  LayoutKind kind() const { return Kind; }
  const Csr &csr() const { return Plain.csr(); }
  const SellView *sell() const { return SellV ? &*SellV : nullptr; }

  /// Computes the transposed graph (Csr::transpose) and builds the
  /// same-kind view over it, enabling the pull-direction kernels. \p Opts
  /// should match the options the forward layout was built with so the
  /// transposed SELL view gets the same chunk/sigma shape.
  void buildTranspose(const LayoutOptions &Opts = {});
  /// Adopts an already-computed transpose (e.g. restored from the binary
  /// graph cache, see graph/Loader.h) instead of recomputing it.
  void adoptTranspose(std::shared_ptr<const Csr> T,
                      const LayoutOptions &Opts = {});
  bool hasTranspose() const { return TGraph != nullptr; }
  /// The transposed graph, or nullptr before buildTranspose().
  const Csr *transpose() const { return TGraph.get(); }

  /// Bytes of layout metadata beyond the CSR arrays.
  std::size_t layoutAuxBytes() const;

  /// Invokes \p F with the statically typed view.
  template <typename Fn> decltype(auto) visit(Fn &&F) const {
    switch (Kind) {
    case LayoutKind::Sell:
      return F(*SellV);
    case LayoutKind::Csr:
      break;
    }
    return F(Plain);
  }

  /// Invokes \p F with the statically typed forward view and a pointer to
  /// the same-typed view over the transposed graph (nullptr before
  /// buildTranspose()); the direction-optimizing kernels consume the pair.
  template <typename Fn> decltype(auto) visitWithTranspose(Fn &&F) const {
    switch (Kind) {
    case LayoutKind::Sell:
      return F(*SellV, TSell ? &*TSell : nullptr);
    case LayoutKind::Csr:
      break;
    }
    return F(Plain, TGraph ? &TPlain : nullptr);
  }

private:
  LayoutKind Kind = LayoutKind::Csr;
  CsrView Plain;
  std::optional<SellView> SellV;
  /// Transposed graph + same-kind views (shared_ptr keeps the Csr's address
  /// stable across AnyLayout moves; the views point into it).
  std::shared_ptr<const Csr> TGraph;
  CsrView TPlain;
  std::optional<SellView> TSell;
};

// --- SIMD-facing vector surface ----------------------------------------------

/// Sentinel "this node vector is not slot-aligned in the layout" (worklist
/// order); layouts then fall back to the CSR gather surface.
inline constexpr std::int64_t NoSlot = -1;

/// True when the node vector whose lane 0 sits at layout slot \p Slot is
/// one whole SELL chunk (Width-aligned, chunk height == Width), so its
/// neighbors can be swept with unit-stride loads. False for every other
/// view and for worklist-order vectors (NoSlot).
template <typename BK, typename VT>
bool sellChunkAligned([[maybe_unused]] const VT &G,
                      [[maybe_unused]] std::int64_t Slot) {
  if constexpr (ViewSellTraits<VT>::SellSlices)
    return Slot >= 0 && Slot % BK::Width == 0 &&
           G.chunkWidth() == static_cast<std::int32_t>(BK::Width);
  else
    return false;
}

/// Fetches the neighbors addressed by original edge indices \p EdgeIdx.
/// The generic implementation is the CSR hardware gather; slot-aligned
/// sweeps over sliced layouts bypass this with unit-stride loads (see
/// walkEdges).
template <typename BK, typename VT>
simd::VInt<BK> gatherNeighbors(const VT &G, simd::VInt<BK> EdgeIdx,
                               simd::VMask<BK> M) {
  return simd::gather<BK>(G.edgeDst(), EdgeIdx, M);
}

/// The node ids occupying SIMD slots [Slot, Slot+Width): the identity
/// sequence for CSR-ordered views (compiles to splat+iota, exactly the
/// pre-view code), a unit-stride load of the permutation otherwise.
template <typename BK, typename VT>
simd::VInt<BK> slotNodes(const VT &G, std::int64_t Slot, simd::VMask<BK> Act) {
  if constexpr (ViewOrderTraits<VT>::Permuted) {
    return simd::maskedLoad<BK>(G.iterationOrder() + Slot, Act);
  } else {
    (void)G;
    (void)Act;
    return simd::splat<BK>(static_cast<std::int32_t>(Slot)) +
           simd::programIndex<BK>();
  }
}

} // namespace egacs

#endif // EGACS_GRAPH_GRAPHVIEW_H
