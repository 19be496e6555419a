//===- kernels/Mst.h - Bořůvka minimum spanning tree ------------*- C++ -*-===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Bořůvka minimum spanning forest with component hooking: each round every
/// component finds its lightest outgoing edge (64-bit atomic min on a packed
/// (weight, edge-id) key — edge ids make keys unique, so no cycles beyond
/// the mutual-pick pair, which the hooking rule breaks), hooks along it, and
/// compresses the component forest by pointer jumping. The heavy CAS traffic
/// is exactly the "extensive use of cmpxchg" the paper cites for MST.
///
//===----------------------------------------------------------------------===//

#ifndef EGACS_KERNELS_MST_H
#define EGACS_KERNELS_MST_H

#include "engine/Engine.h"
#include "kernels/Kernels.h"

#include <limits>
#include <vector>

namespace egacs {

/// Result of the MST kernel: forest weight and edge count.
struct MstResult {
  std::int64_t TotalWeight = 0;
  std::int64_t NumEdges = 0;
};

/// mst: Bořůvka minimum spanning forest of the symmetric weighted graph.
template <typename BK, typename VT>
MstResult boruvkaMst(const VT &G, const KernelConfig &Cfg) {
  using namespace simd;
  assert((G.hasWeights() || G.numEdges() == 0) &&
         "mst needs edge weights");
  NodeId N = G.numNodes();
  MstResult Result;
  if (N == 0)
    return Result;

  std::vector<NodeId> EdgeSrc = buildEdgeSources(G);
  std::vector<std::int32_t> Parent(static_cast<std::size_t>(N));
  for (NodeId I = 0; I < N; ++I)
    Parent[static_cast<std::size_t>(I)] = I;
  constexpr std::int64_t NoEdge = std::numeric_limits<std::int64_t>::max();
  std::vector<std::int64_t> Best(static_cast<std::size_t>(N), NoEdge);

  std::int64_t MaxItems = G.numEdges() > N ? G.numEdges() : N;
  engine::Run<VT> R(Cfg, G, MaxItems, kernelPrefetchPlan(Cfg));
  std::int32_t Hooked = 0; // components hooked in the current round

  // Vectorized find: chase parents until fixpoint (lists are compressed by
  // the jump phase, so chains stay short).
  auto FindRoot = [&](VInt<BK> X, VMask<BK> Act) {
    VMask<BK> Moving = Act;
    while (any(Moving)) {
      VInt<BK> P = gather<BK>(Parent.data(), X, Moving);
      X = select<BK>(Moving, P, X);
      VInt<BK> PP = gather<BK>(Parent.data(), X, Moving);
      Moving = Moving & (X != PP);
    }
    return X;
  };

  TaskFn ResetBest = [&](int TaskIdx, int TaskCount) {
    auto E = R.ctx(TaskIdx, TaskCount);
    engine::vertexMapRanges(E, N, [&](std::int64_t RB, std::int64_t RE) {
      for (std::int64_t I = RB; I < RE; ++I)
        Best[static_cast<std::size_t>(I)] = NoEdge;
    });
  };

  // The min-edge sweep's latency sits in FindRoot's Parent gathers; the
  // first hop of every chain (Parent[u], Parent[v]) is computable from the
  // immutable edge arrays alone, so an inline inspect stage prefetches
  // those lines Dist vectors ahead. Later hops are data-dependent and stay
  // demand-fetched. Parent is a (mutable) property array, so the stage runs
  // only under rows+props; it is prefetch-only — never read ahead of time.
  const Lookahead PfAhead{R.PF.lookahead(BK::Width).Far, 0};

  // Each component's minimum outgoing edge via 64-bit atomic min.
  TaskFn FindMinEdges = [&](int TaskIdx, int TaskCount) {
    PrefetchCounters PfC;
    const bool Staged = R.PF.active() && R.PF.wantProps();
    auto InspectParents = [&](std::int64_t P, std::int64_t RE) {
      using namespace prefetchdetail;
      std::int64_t Stop = P + BK::Width < RE ? P + BK::Width : RE;
      for (std::int64_t E = P; E < Stop; ++E) {
        pfLine<BK>(Parent.data() + EdgeSrc[static_cast<std::size_t>(E)], PfC);
        pfLine<BK>(Parent.data() + G.edgeDst()[E], PfC);
      }
    };
    engine::edgeMapFlat<BK>(
        *R.Sched, G.numEdges(), TaskIdx, TaskCount, Staged, PfAhead,
        InspectParents, NoInspect,
        [&](std::int64_t EBase, VMask<BK> Act) {
          VInt<BK> U = maskedLoad<BK>(EdgeSrc.data() + EBase, Act);
          VInt<BK> V = maskedLoad<BK>(G.edgeDst() + EBase, Act);
          VInt<BK> Cu = FindRoot(U, Act);
          VInt<BK> Cv = FindRoot(V, Act);
          VMask<BK> Cross = Act & (Cu != Cv);
          if (!any(Cross))
            return;
          VInt<BK> W = maskedLoad<BK>(G.edgeWeight() + EBase, Cross);
          std::uint64_t Bits = maskBits(Cross);
          const auto WA = spill(W), CuA = spill(Cu), CvA = spill(Cv);
          if (Cfg.Update == UpdatePolicy::Atomic) {
            while (Bits) {
              int L = __builtin_ctzll(Bits);
              Bits &= Bits - 1;
              std::int64_t Packed = (static_cast<std::int64_t>(WA[L]) << 32) |
                                    static_cast<std::int64_t>(EBase + L);
              atomicMinGlobal64(&Best[static_cast<std::size_t>(CuA[L])],
                                Packed);
              atomicMinGlobal64(&Best[static_cast<std::size_t>(CvA[L])],
                                Packed);
            }
          } else {
            // Conflict-combined: same-component lanes pre-reduce to their
            // lightest packed key, one 64-bit CAS chain per distinct
            // component per side.
            std::int64_t PackedA[BK::Width];
            std::uint64_t Tmp = Bits;
            while (Tmp) {
              int L = __builtin_ctzll(Tmp);
              Tmp &= Tmp - 1;
              PackedA[L] = (static_cast<std::int64_t>(WA[L]) << 32) |
                           static_cast<std::int64_t>(EBase + L);
            }
            updateMin64Combined(Best.data(), CuA.Lane, PackedA, Bits);
            updateMin64Combined(Best.data(), CvA.Lane, PackedA, Bits);
          }
        },
        R.Locals[TaskIdx]->Trace);
  };

  // Hook components along their best edges; the smaller root of a mutual
  // pick is the designated hooker, breaking the only possible cycle.
  TaskFn HookComponents = [&](int TaskIdx, int TaskCount) {
    auto E = R.ctx(TaskIdx, TaskCount);
    std::int32_t LocalHooks = 0;
    std::int64_t LocalWeight = 0;
    engine::vertexMapRanges(E, N, [&](std::int64_t RB, std::int64_t RE) {
      for (std::int64_t C = RB; C < RE; ++C) {
        std::int64_t Packed = Best[static_cast<std::size_t>(C)];
        if (Packed == NoEdge)
          continue;
        // Other tasks' hooks CAS Parent concurrently with these reads, so
        // go through relaxed atomic loads (same x86 code, race-free
        // semantics).
        if (atomicLoadGlobal(&Parent[static_cast<std::size_t>(C)]) !=
            static_cast<NodeId>(C))
          continue; // no longer a root (stale entry)
        EdgeId Ed = static_cast<EdgeId>(Packed & 0xffffffffll);
        Weight W = static_cast<Weight>(Packed >> 32);
        // Recompute the roots of the edge endpoints serially.
        auto Root = [&](NodeId X) {
          NodeId P;
          while ((P = atomicLoadGlobal(
                      &Parent[static_cast<std::size_t>(X)])) != X)
            X = P;
          return X;
        };
        NodeId Cu = Root(EdgeSrc[static_cast<std::size_t>(Ed)]);
        NodeId Cv = Root(G.edgeDst()[static_cast<std::size_t>(Ed)]);
        if (Cu == Cv)
          continue;
        NodeId Other = static_cast<NodeId>(C) == Cu ? Cv : Cu;
        // Mutual pick: both roots chose this edge; only the smaller id
        // hooks.
        if (Best[static_cast<std::size_t>(Other)] == Packed &&
            static_cast<NodeId>(C) > Other)
          continue;
        if (atomicCasGlobal(&Parent[static_cast<std::size_t>(C)],
                            static_cast<NodeId>(C), Other)) {
          ++LocalHooks;
          LocalWeight += W;
        }
      }
    });
    if (LocalHooks) {
      atomicAddGlobal(&Hooked, LocalHooks);
      atomicAddGlobal64(&Result.TotalWeight, LocalWeight);
      atomicAddGlobal64(&Result.NumEdges, LocalHooks);
    }
  };

  // Pointer jumping: halve every chain until all nodes point at roots.
  TaskFn Compress = [&](int TaskIdx, int TaskCount) {
    auto E = R.ctx(TaskIdx, TaskCount);
    engine::vertexMapDense<BK>(
        E, [&](VInt<BK> Node, VMask<BK> Act, std::int64_t) {
          VMask<BK> Moving = Act;
          VInt<BK> X = Node;
          // Tasks jump disjoint Node ranges but chase chains through each
          // other's writes; relaxed-atomic lane accesses keep the monotone
          // jumping race-free (op-counted identically to the plain path).
          while (any(Moving)) {
            VInt<BK> P = gatherRelaxed<BK>(Parent.data(), X, Moving);
            VInt<BK> PP = gatherRelaxed<BK>(Parent.data(), P, Moving);
            scatterRelaxed<BK>(Parent.data(), Node, PP, Moving);
            Moving = Moving & (P != PP);
            X = select<BK>(Moving, P, X);
          }
        });
  };

  runPipe(Cfg, {G.numNodes(), "dense"},
          std::vector<TaskFn>{ResetBest, FindMinEdges, HookComponents,
                              Compress},
          [&]() -> NextRound {
            bool Continue = Hooked != 0;
            Hooked = 0;
            if (!Continue)
              return std::nullopt;
            return RoundFrontier{G.numNodes(), "dense"};
          });
  return Result;
}

} // namespace egacs

#endif // EGACS_KERNELS_MST_H
