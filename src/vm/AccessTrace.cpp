//===- vm/AccessTrace.cpp - Kernel-shaped memory traces -------------------===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
//===----------------------------------------------------------------------===//

#include "vm/AccessTrace.h"

#include "engine/Engine.h"
#include "kernels/Mis.h"
#include "support/Rng.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <numeric>
#include <queue>

using namespace egacs;
using namespace egacs::vm;

namespace {

/// Shared layout of the graph arrays; per-app arrays are appended. When a
/// non-default AnyLayout is supplied, its auxiliary storage (iteration
/// order, per-slot degrees, SELL slices) gets simulated addresses too, and
/// the topology-sweep accessors below route through it the way the
/// execution engine does.
struct GraphLayout {
  AddressSpace Space;
  std::uint64_t Rows;
  std::uint64_t Dsts;
  std::uint64_t Weights;

  /// Non-null for layout-aware traces.
  const AnyLayout *Layout = nullptr;
  std::uint64_t OrderArr = 0;   ///< sell slot -> node permutation.
  std::uint64_t SlotDegArr = 0; ///< sell per-slot degrees.
  std::uint64_t SellDstArr = 0; ///< sell column-major slice entries.

  explicit GraphLayout(const Csr &G, bool NeedWeights,
                       const AnyLayout *L = nullptr)
      : Layout(L && L->kind() != LayoutKind::Csr ? L : nullptr) {
    Rows = Space.addArray("rowstart",
                          (static_cast<std::uint64_t>(G.numNodes()) + 1) * 4);
    Dsts = Space.addArray("edgedst",
                          static_cast<std::uint64_t>(G.numEdges()) * 4);
    Weights = NeedWeights
                  ? Space.addArray(
                        "weights",
                        static_cast<std::uint64_t>(G.numEdges()) * 4)
                  : 0;
    if (!Layout)
      return;
    if (const SellView *S = Layout->sell()) {
      OrderArr = Space.addArray(
          "layout-order",
          static_cast<std::uint64_t>(S->paddedSlots()) * 4);
      SlotDegArr = Space.addArray(
          "sell-slotdeg",
          static_cast<std::uint64_t>(S->paddedSlots()) * 4);
      SellDstArr = Space.addArray(
          "sell-slices",
          static_cast<std::uint64_t>(S->storedEntries()) * 4);
    }
  }

  std::uint64_t rowAddr(NodeId N) const { return Rows + 4ull * N; }
  std::uint64_t dstAddr(EdgeId E) const { return Dsts + 4ull * E; }
  std::uint64_t weightAddr(EdgeId E) const { return Weights + 4ull * E; }

  // --- Topology-sweep surface (what forEachNodeSlice + the slot-aligned
  // --- edge sweeps touch). Worklist-driven tracers bypass these and use
  // --- the CSR addresses directly, mirroring the NoSlot fallback.

  /// The node occupying sweep position \p Pos; permuted layouts read their
  /// order array to learn it.
  NodeId sweepNode(PagingSim &Sim, std::int64_t Pos) const {
    if (!Layout)
      return static_cast<NodeId>(Pos);
    Sim.access(OrderArr + 4ull * static_cast<std::uint64_t>(Pos));
    return Layout->sell()->iterationOrder()[Pos];
  }

  /// Records the reads that establish the degree of the node at sweep
  /// position \p Pos: SELL sweeps read the per-slot degree array, CSR
  /// sweeps read two row-start entries.
  void accessDegree(PagingSim &Sim, NodeId U, std::int64_t Pos) const {
    if (Layout && Layout->sell()) {
      Sim.access(SlotDegArr + 4ull * static_cast<std::uint64_t>(Pos));
      return;
    }
    Sim.access(rowAddr(U));
    Sim.access(rowAddr(U + 1));
  }

  /// Records the read of neighbor \p I of node \p U inside the layout's
  /// native storage (a SELL slice entry, or the CSR edge slot at original
  /// edge index \p E).
  void accessNeighbor(PagingSim &Sim, NodeId U, EdgeId I, EdgeId E) const {
    if (const SellView *S = Layout ? Layout->sell() : nullptr) {
      std::int64_t Slot = S->slotOf(U);
      std::int64_t C = S->chunkWidth();
      std::int64_t Base = S->sliceOffsets()[Slot / C] + Slot % C;
      Sim.access(SellDstArr +
                 4ull * static_cast<std::uint64_t>(
                            Base + static_cast<std::int64_t>(I) * C));
      return;
    }
    (void)U;
    (void)I;
    Sim.access(dstAddr(E));
  }
};

std::uint64_t elems4(std::uint64_t Count) { return Count * 4; }

void traceBfsWl(const Csr &G, NodeId Source, PagingSim &Sim) {
  GraphLayout L(G, false);
  std::uint64_t Dist = L.Space.addArray("dist", elems4(G.numNodes()));
  std::uint64_t Wl = L.Space.addArray("worklist", elems4(G.numNodes()) * 2);

  std::vector<std::int32_t> D(static_cast<std::size_t>(G.numNodes()),
                              InfDist);
  std::vector<NodeId> Frontier{Source}, Next;
  D[static_cast<std::size_t>(Source)] = 0;
  std::int32_t Level = 0;
  std::uint64_t WlCursor = 0;
  while (!Frontier.empty()) {
    for (NodeId U : Frontier) {
      Sim.access(Wl + 4 * (WlCursor++ % (2ull * G.numNodes())));
      Sim.access(L.rowAddr(U));
      Sim.access(L.rowAddr(U + 1));
      for (EdgeId E = G.rowStart()[U]; E < G.rowStart()[U + 1]; ++E) {
        Sim.access(L.dstAddr(E));
        NodeId V = G.edgeDst()[static_cast<std::size_t>(E)];
        Sim.access(Dist + 4ull * V, /*Write=*/true); // atomic min touch
        if (D[static_cast<std::size_t>(V)] == InfDist) {
          D[static_cast<std::size_t>(V)] = Level + 1;
          Next.push_back(V);
          Sim.access(Wl + 4 * (WlCursor % (2ull * G.numNodes())),
                     /*Write=*/true);
        }
      }
    }
    Frontier = std::move(Next);
    Next.clear();
    ++Level;
  }
}

void traceSssp(const Csr &G, NodeId Source, PagingSim &Sim) {
  GraphLayout L(G, true);
  std::uint64_t Dist = L.Space.addArray("dist", elems4(G.numNodes()));
  std::uint64_t Wl = L.Space.addArray("worklist", elems4(G.numNodes()) * 4);

  // Bellman-Ford-style frontier relaxation (the near-far pattern's accesses
  // without the bucket bookkeeping).
  std::vector<std::int32_t> D(static_cast<std::size_t>(G.numNodes()),
                              InfDist);
  std::vector<NodeId> Frontier{Source}, Next;
  D[static_cast<std::size_t>(Source)] = 0;
  std::uint64_t WlCursor = 0;
  while (!Frontier.empty()) {
    for (NodeId U : Frontier) {
      Sim.access(Wl + 4 * (WlCursor++ % (4ull * G.numNodes())));
      Sim.access(L.rowAddr(U));
      Sim.access(L.rowAddr(U + 1));
      Sim.access(Dist + 4ull * U);
      std::int32_t Du = D[static_cast<std::size_t>(U)];
      for (EdgeId E = G.rowStart()[U]; E < G.rowStart()[U + 1]; ++E) {
        Sim.access(L.dstAddr(E));
        Sim.access(L.weightAddr(E));
        NodeId V = G.edgeDst()[static_cast<std::size_t>(E)];
        std::int32_t Cand =
            Du + G.edgeWeight()[static_cast<std::size_t>(E)];
        Sim.access(Dist + 4ull * V, /*Write=*/true);
        if (Cand < D[static_cast<std::size_t>(V)]) {
          D[static_cast<std::size_t>(V)] = Cand;
          Next.push_back(V);
        }
      }
    }
    Frontier = std::move(Next);
    Next.clear();
  }
}

void traceCc(const Csr &G, PagingSim &Sim, const AnyLayout *Layout) {
  GraphLayout L(G, false, Layout);
  std::uint64_t Comp = L.Space.addArray("comp", elems4(G.numNodes()));

  // Topology-driven label propagation: sequential sweeps until stable.
  // This is the one traced app whose sweep runs in layout order, so the
  // SELL layout changes both the node visit sequence and the adjacency
  // addresses (order array + per-slot degrees + slice entries).
  std::vector<std::int32_t> C(static_cast<std::size_t>(G.numNodes()));
  std::iota(C.begin(), C.end(), 0);
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (std::int64_t Pos = 0; Pos < G.numNodes(); ++Pos) {
      NodeId U = L.sweepNode(Sim, Pos);
      L.accessDegree(Sim, U, Pos);
      Sim.access(Comp + 4ull * U);
      EdgeId Begin = G.rowStart()[U], Deg = G.degree(U);
      for (EdgeId I = 0; I < Deg; ++I) {
        EdgeId E = Begin + I;
        L.accessNeighbor(Sim, U, I, E);
        NodeId V = G.edgeDst()[static_cast<std::size_t>(E)];
        Sim.access(Comp + 4ull * V, /*Write=*/true);
        if (C[static_cast<std::size_t>(U)] <
            C[static_cast<std::size_t>(V)]) {
          C[static_cast<std::size_t>(V)] = C[static_cast<std::size_t>(U)];
          Changed = true;
        }
      }
    }
  }
}

void traceTri(const Csr &G, PagingSim &Sim) {
  GraphLayout L(G, false);
  // Two-pointer intersections: sequential within adjacency lists.
  for (NodeId U = 0; U < G.numNodes(); ++U) {
    Sim.access(L.rowAddr(U));
    Sim.access(L.rowAddr(U + 1));
    EdgeId UBegin = G.rowStart()[U], UEnd = G.rowStart()[U + 1];
    for (EdgeId E = UBegin; E < UEnd; ++E) {
      Sim.access(L.dstAddr(E));
      NodeId V = G.edgeDst()[static_cast<std::size_t>(E)];
      if (V <= U)
        continue;
      Sim.access(L.rowAddr(V));
      Sim.access(L.rowAddr(V + 1));
      EdgeId Iu = UBegin, Iv = G.rowStart()[V], VEnd = G.rowStart()[V + 1];
      while (Iu < UEnd && Iv < VEnd) {
        Sim.access(L.dstAddr(Iu));
        Sim.access(L.dstAddr(Iv));
        NodeId Au = G.edgeDst()[static_cast<std::size_t>(Iu)];
        NodeId Av = G.edgeDst()[static_cast<std::size_t>(Iv)];
        Iu += Au <= Av;
        Iv += Av <= Au;
      }
    }
  }
}

void traceMis(const Csr &G, PagingSim &Sim) {
  GraphLayout L(G, false);
  std::uint64_t Prio = L.Space.addArray("prio", elems4(G.numNodes()));
  std::uint64_t State = L.Space.addArray("state", elems4(G.numNodes()));

  NodeId N = G.numNodes();
  std::vector<std::int32_t> P(static_cast<std::size_t>(N));
  for (NodeId I = 0; I < N; ++I)
    P[static_cast<std::size_t>(I)] = static_cast<std::int32_t>(
        hashMix64(0x5eed ^ static_cast<std::uint64_t>(I)) & 0x7fffffff);
  std::vector<std::int32_t> S(static_cast<std::size_t>(N), MisUndecided);
  std::vector<NodeId> Undecided(static_cast<std::size_t>(N));
  std::iota(Undecided.begin(), Undecided.end(), 0);

  while (!Undecided.empty()) {
    for (NodeId U : Undecided) {
      Sim.access(State + 4ull * U);
      Sim.access(Prio + 4ull * U);
      Sim.access(L.rowAddr(U));
      Sim.access(L.rowAddr(U + 1));
      bool Blocked = false;
      for (EdgeId E = G.rowStart()[U]; E < G.rowStart()[U + 1]; ++E) {
        Sim.access(L.dstAddr(E));
        NodeId V = G.edgeDst()[static_cast<std::size_t>(E)];
        Sim.access(State + 4ull * V);
        Sim.access(Prio + 4ull * V);
        if (V != U && S[static_cast<std::size_t>(V)] != MisOut &&
            (P[static_cast<std::size_t>(V)] > P[static_cast<std::size_t>(U)] ||
             (P[static_cast<std::size_t>(V)] ==
                  P[static_cast<std::size_t>(U)] &&
              V > U))) {
          Blocked = true;
          break;
        }
      }
      if (!Blocked)
        S[static_cast<std::size_t>(U)] = MisIn;
    }
    std::vector<NodeId> Next;
    for (NodeId U : Undecided) {
      if (S[static_cast<std::size_t>(U)] != MisUndecided)
        continue;
      for (EdgeId E = G.rowStart()[U]; E < G.rowStart()[U + 1]; ++E) {
        Sim.access(L.dstAddr(E));
        NodeId V = G.edgeDst()[static_cast<std::size_t>(E)];
        Sim.access(State + 4ull * V);
        if (S[static_cast<std::size_t>(V)] == MisIn) {
          S[static_cast<std::size_t>(U)] = MisOut;
          Sim.access(State + 4ull * U, /*Write=*/true);
          break;
        }
      }
      if (S[static_cast<std::size_t>(U)] == MisUndecided)
        Next.push_back(U);
    }
    Undecided = std::move(Next);
  }
}

// The paper's PR is the IrGL residual push formulation: nodes come off a
// worklist in arbitrary order and scatter residual to their neighbours'
// accumulators (the "extensive use of cmpxchg"). The worklist order makes
// the adjacency-list reads land at random offsets of the edge array, like
// BFS — the access pattern behind PR's DNF under UVM in Table IX.
void tracePr(const Csr &G, PagingSim &Sim) {
  GraphLayout L(G, false);
  std::uint64_t Rank = L.Space.addArray("rank", elems4(G.numNodes()));
  std::uint64_t Resid = L.Space.addArray("residual", elems4(G.numNodes()));
  std::uint64_t Wl = L.Space.addArray("worklist", elems4(G.numNodes()) * 2);

  NodeId N = G.numNodes();
  const double Damping = 0.85;
  // Residual tolerance scales with 1/N (a fixed absolute tolerance would
  // stop after one round once N is large).
  const double Threshold = 0.05 / static_cast<double>(N);
  std::vector<double> Residual(static_cast<std::size_t>(N),
                               1.0 / static_cast<double>(N));
  std::vector<NodeId> Frontier(static_cast<std::size_t>(N));
  std::iota(Frontier.begin(), Frontier.end(), 0);
  std::vector<NodeId> Next;
  std::vector<bool> Queued(static_cast<std::size_t>(N), true);
  std::uint64_t WlCursor = 0;

  while (!Frontier.empty()) {
    for (NodeId U : Frontier) {
      Sim.access(Wl + 4 * (WlCursor++ % (2ull * N)));
      Sim.access(Rank + 4ull * U, /*Write=*/true);
      Sim.access(Resid + 4ull * U, /*Write=*/true);
      Queued[static_cast<std::size_t>(U)] = false;
      double Give = Damping * Residual[static_cast<std::size_t>(U)];
      Residual[static_cast<std::size_t>(U)] = 0.0;
      EdgeId Deg = G.degree(U);
      if (Deg == 0)
        continue;
      Sim.access(L.rowAddr(U));
      Sim.access(L.rowAddr(U + 1));
      double Share = Give / Deg;
      for (EdgeId E = G.rowStart()[U]; E < G.rowStart()[U + 1]; ++E) {
        Sim.access(L.dstAddr(E));
        NodeId V = G.edgeDst()[static_cast<std::size_t>(E)];
        Sim.access(Resid + 4ull * V, /*Write=*/true);
        Residual[static_cast<std::size_t>(V)] += Share;
        if (Residual[static_cast<std::size_t>(V)] > Threshold &&
            !Queued[static_cast<std::size_t>(V)]) {
          Queued[static_cast<std::size_t>(V)] = true;
          Next.push_back(V);
          Sim.access(Wl + 4 * (WlCursor % (2ull * N)), /*Write=*/true);
        }
      }
    }
    Frontier = std::move(Next);
    Next.clear();
  }
}

void traceMst(const Csr &G, PagingSim &Sim) {
  GraphLayout L(G, true);
  std::uint64_t Parent = L.Space.addArray("parent", elems4(G.numNodes()));
  std::uint64_t Best =
      L.Space.addArray("best", static_cast<std::uint64_t>(G.numNodes()) * 8);
  std::uint64_t EdgeSrcArr =
      L.Space.addArray("edgesrc", elems4(G.numEdges()));

  NodeId N = G.numNodes();
  std::vector<NodeId> EdgeSrc(static_cast<std::size_t>(G.numEdges()));
  for (NodeId U = 0; U < N; ++U)
    for (EdgeId E = G.rowStart()[U]; E < G.rowStart()[U + 1]; ++E)
      EdgeSrc[static_cast<std::size_t>(E)] = U;
  std::vector<NodeId> Par(static_cast<std::size_t>(N));
  std::iota(Par.begin(), Par.end(), 0);
  auto Root = [&](NodeId X) {
    while (Par[static_cast<std::size_t>(X)] != X) {
      Sim.access(Parent + 4ull * X);
      X = Par[static_cast<std::size_t>(X)];
    }
    Sim.access(Parent + 4ull * X);
    return X;
  };

  constexpr std::int64_t NoEdge = std::numeric_limits<std::int64_t>::max();
  std::vector<std::int64_t> BestV(static_cast<std::size_t>(N), NoEdge);
  for (;;) {
    Sim.accessRange(Best, static_cast<std::uint64_t>(N) * 8, /*Write=*/true);
    std::fill(BestV.begin(), BestV.end(), NoEdge);
    for (EdgeId E = 0; E < G.numEdges(); ++E) {
      Sim.access(EdgeSrcArr + 4ull * E);
      Sim.access(L.dstAddr(E));
      NodeId Cu = Root(EdgeSrc[static_cast<std::size_t>(E)]);
      NodeId Cv = Root(G.edgeDst()[static_cast<std::size_t>(E)]);
      if (Cu == Cv)
        continue;
      Sim.access(L.weightAddr(E));
      std::int64_t Packed =
          (static_cast<std::int64_t>(
               G.edgeWeight()[static_cast<std::size_t>(E)])
           << 32) |
          E;
      Sim.access(Best + 8ull * Cu, /*Write=*/true);
      Sim.access(Best + 8ull * Cv, /*Write=*/true);
      if (Packed < BestV[static_cast<std::size_t>(Cu)])
        BestV[static_cast<std::size_t>(Cu)] = Packed;
      if (Packed < BestV[static_cast<std::size_t>(Cv)])
        BestV[static_cast<std::size_t>(Cv)] = Packed;
    }
    int Hooks = 0;
    for (NodeId C = 0; C < N; ++C) {
      Sim.access(Best + 8ull * C);
      std::int64_t Packed = BestV[static_cast<std::size_t>(C)];
      if (Packed == NoEdge || Par[static_cast<std::size_t>(C)] != C)
        continue;
      EdgeId E = static_cast<EdgeId>(Packed & 0xffffffffll);
      NodeId Cu = Root(EdgeSrc[static_cast<std::size_t>(E)]);
      NodeId Cv = Root(G.edgeDst()[static_cast<std::size_t>(E)]);
      if (Cu == Cv)
        continue;
      NodeId Other = C == Cu ? Cv : Cu;
      if (BestV[static_cast<std::size_t>(Other)] == Packed && C > Other)
        continue;
      Par[static_cast<std::size_t>(C)] = Other;
      Sim.access(Parent + 4ull * C, /*Write=*/true);
      ++Hooks;
    }
    if (Hooks == 0)
      break;
    for (NodeId I = 0; I < N; ++I) {
      NodeId R = Root(I);
      Par[static_cast<std::size_t>(I)] = R;
      Sim.access(Parent + 4ull * I, /*Write=*/true);
    }
  }
}

} // namespace

std::uint64_t egacs::vm::appFootprintBytes(const std::string &App,
                                           const AnyLayout &L) {
  return appFootprintBytes(App, L.csr()) +
         static_cast<std::uint64_t>(L.layoutAuxBytes());
}

std::uint64_t egacs::vm::appFootprintBytes(const std::string &App,
                                           const Csr &G) {
  std::uint64_t N = static_cast<std::uint64_t>(G.numNodes());
  std::uint64_t M = static_cast<std::uint64_t>(G.numEdges());
  std::uint64_t Graph = (N + 1) * 4 + M * 4; // rowstart + edgedst
  if (App == "bfs-wl")
    return Graph + N * 4 + N * 8; // dist + worklists
  if (App == "sssp")
    return Graph + M * 4 + N * 4 + N * 16; // weights + dist + piles
  if (App == "cc")
    return Graph + N * 4;
  if (App == "tri")
    return Graph;
  if (App == "mis")
    return Graph + N * 8; // prio + state
  if (App == "pr")
    return Graph + N * 16; // rank + residual + worklists
  if (App == "mst")
    return Graph + M * 4 + N * 12 + M * 4; // weights, parent+best, edgesrc
  assert(false && "unknown app");
  return Graph;
}

namespace {

void traceAppImpl(const std::string &App, const Csr &G,
                  const AnyLayout *Layout, NodeId Source, PagingSim &Sim) {
  // Worklist-driven (bfs-wl, sssp, pr, mis) and edge-parallel (tri, mst)
  // apps traverse the CSR fallback surface regardless of layout, exactly
  // like the execution engine's NoSlot path; only the topology sweep (cc)
  // sees layout-specific addresses.
  if (App == "bfs-wl")
    return traceBfsWl(G, Source, Sim);
  if (App == "sssp")
    return traceSssp(G, Source, Sim);
  if (App == "cc")
    return traceCc(G, Sim, Layout);
  if (App == "tri")
    return traceTri(G, Sim);
  if (App == "mis")
    return traceMis(G, Sim);
  if (App == "pr")
    return tracePr(G, Sim);
  if (App == "mst")
    return traceMst(G, Sim);
  assert(false && "unknown app");
}

} // namespace

void egacs::vm::traceApp(const std::string &App, const Csr &G, NodeId Source,
                         PagingSim &Sim) {
  traceAppImpl(App, G, nullptr, Source, Sim);
}

void egacs::vm::traceApp(const std::string &App, const AnyLayout &L,
                         NodeId Source, PagingSim &Sim) {
  traceAppImpl(App, L.csr(), &L, Source, Sim);
}
