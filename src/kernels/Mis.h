//===- kernels/Mis.h - Maximal independent set ------------------*- C++ -*-===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Luby-style maximal independent set with deterministic hashed priorities.
/// Each round runs four edge-local phases (valid under the Nested
/// Parallelism edge redistribution): mark every undecided node candidate;
/// demote the lower-(priority, id) endpoint of each candidate-candidate
/// edge; promote survivors into the set; exclude undecided neighbours of
/// new members and rebuild the worklist. The (priority, id) order is total,
/// so the maximum undecided node of any component always survives —
/// termination is deterministic.
///
//===----------------------------------------------------------------------===//

#ifndef EGACS_KERNELS_MIS_H
#define EGACS_KERNELS_MIS_H

#include "engine/Engine.h"
#include "kernels/Kernels.h"
#include "support/Rng.h"

#include <vector>

namespace egacs {

/// mis: returns per-node states, each either MisIn or MisOut.
template <typename BK, typename VT>
std::vector<std::int32_t> maximalIndependentSet(const VT &G,
                                                const KernelConfig &Cfg,
                                                std::uint64_t Seed = 0x5eed) {
  using namespace simd;
  NodeId N = G.numNodes();
  std::vector<std::int32_t> State(static_cast<std::size_t>(N), MisUndecided);
  if (N == 0)
    return State;

  // Deterministic per-node priorities; ties broken by node id below.
  std::vector<std::int32_t> Prio(static_cast<std::size_t>(N));
  for (NodeId I = 0; I < N; ++I)
    Prio[static_cast<std::size_t>(I)] = static_cast<std::int32_t>(
        hashMix64(Seed ^ static_cast<std::uint64_t>(I)) & 0x7fffffff);

  std::size_t Cap = static_cast<std::size_t>(N) + 64;
  WorklistPair WL(Cap);
  // Self-loop pre-pass: a node adjacent to itself can never join an
  // independent set, but the demotion phase would demote such a candidate
  // against itself forever (the (priority, id) order never picks a winner
  // on a tie with oneself), livelocking the worklist. Decide these nodes
  // MisOut serially and keep them off the worklist.
  const Csr &Plain = G.csr();
  for (NodeId I = 0; I < N; ++I)
    for (NodeId V : Plain.neighbors(I))
      if (V == I) {
        State[static_cast<std::size_t>(I)] = MisOut;
        break;
      }
  for (NodeId I = 0; I < N; ++I)
    if (State[static_cast<std::size_t>(I)] == MisUndecided)
      WL.in().pushSerial(I);
  // The edge phases gather State and Prio through both endpoints (src via
  // the worklist order, dst via the neighbor gather).
  PrefetchPlan PF = kernelPrefetchPlan(Cfg);
  planProp(PF, State.data(), PrefetchIndexKind::Node);
  planProp(PF, State.data(), PrefetchIndexKind::Dst);
  planProp(PF, Prio.data(), PrefetchIndexKind::Node);
  planProp(PF, Prio.data(), PrefetchIndexKind::Dst);
  engine::Run<VT> R(Cfg, G, static_cast<std::int64_t>(Cap), std::move(PF));

  // Beats = true where (PrioA, IdA) > (PrioB, IdB).
  auto Beats = [&](VInt<BK> PrioA, VInt<BK> IdA, VInt<BK> PrioB,
                   VInt<BK> IdB) -> VMask<BK> {
    return (PrioA > PrioB) | ((PrioA == PrioB) & (IdA > IdB));
  };

  TaskFn MarkCandidates = [&](int TaskIdx, int TaskCount) {
    auto E = R.ctx(TaskIdx, TaskCount);
    engine::vertexMapSparse<BK>(
        E, WL.in(), [&](VInt<BK> Node, VMask<BK> Act) {
          scatter<BK>(State.data(), Node, splat<BK>(MisCandidate), Act);
        });
  };

  TaskFn DemoteLosers = [&](int TaskIdx, int TaskCount) {
    auto E = R.ctx(TaskIdx, TaskCount);
    engine::edgeMapSparse<BK>(
        E, WL.in(),
        [&](VInt<BK> Src, VInt<BK> Dst, VInt<BK>, VMask<BK> EAct) {
          // State is demoted concurrently by other tasks within this phase;
          // relaxed-atomic lane accesses keep the racy-by-design stores
          // race-free under the C++ memory model (op-counted identically).
          VInt<BK> SrcState = gatherRelaxed<BK>(State.data(), Src, EAct);
          VInt<BK> DstState = gatherRelaxed<BK>(State.data(), Dst, EAct);
          VMask<BK> BothCand = EAct & (SrcState == splat<BK>(MisCandidate)) &
                               (DstState == splat<BK>(MisCandidate));
          if (!any(BothCand))
            return;
          VInt<BK> SrcPrio = gather<BK>(Prio.data(), Src, BothCand);
          VInt<BK> DstPrio = gather<BK>(Prio.data(), Dst, BothCand);
          VMask<BK> SrcWins = Beats(SrcPrio, Src, DstPrio, Dst);
          // Demote the loser endpoint of each candidate-candidate edge.
          scatterRelaxed<BK>(State.data(), Dst, splat<BK>(MisUndecided),
                             BothCand & SrcWins);
          scatterRelaxed<BK>(State.data(), Src, splat<BK>(MisUndecided),
                             andNot(BothCand, SrcWins));
        });
  };

  TaskFn PromoteSurvivors = [&](int TaskIdx, int TaskCount) {
    auto E = R.ctx(TaskIdx, TaskCount);
    engine::vertexMapSparse<BK>(
        E, WL.in(), [&](VInt<BK> Node, VMask<BK> Act) {
          VInt<BK> S = gather<BK>(State.data(), Node, Act);
          scatter<BK>(State.data(), Node, splat<BK>(MisIn),
                      Act & (S == splat<BK>(MisCandidate)));
        });
  };

  TaskFn ExcludeAndRebuild = [&](int TaskIdx, int TaskCount) {
    auto E = R.ctx(TaskIdx, TaskCount);
    // Exclude neighbours of new members (edge-local, idempotent stores).
    engine::edgeMapSparse<BK>(
        E, WL.in(),
        [&](VInt<BK> Src, VInt<BK> Dst, VInt<BK>, VMask<BK> EAct) {
          VInt<BK> SrcState = gatherRelaxed<BK>(State.data(), Src, EAct);
          VInt<BK> DstState = gatherRelaxed<BK>(State.data(), Dst, EAct);
          VMask<BK> Exclude = EAct & (SrcState == splat<BK>(MisUndecided)) &
                              (DstState == splat<BK>(MisIn));
          scatterRelaxed<BK>(State.data(), Src, splat<BK>(MisOut), Exclude);
        });
  };

  TaskFn Rebuild = [&](int TaskIdx, int TaskCount) {
    auto E = R.ctx(TaskIdx, TaskCount);
    engine::vertexMapSparse<BK>(
        E, WL.in(), [&](VInt<BK> Node, VMask<BK> Act) {
          VInt<BK> S = gather<BK>(State.data(), Node, Act);
          VMask<BK> Still = Act & (S == splat<BK>(MisUndecided));
          if (any(Still))
            pushFrontier<BK>(Cfg, WL.out(), nullptr, Node, Still);
        });
  };

  runPipe(Cfg, {WL.in().size(), "push"},
          std::vector<TaskFn>{MarkCandidates, DemoteLosers, PromoteSurvivors,
                              ExcludeAndRebuild, Rebuild},
          [&]() -> NextRound {
            WL.swap();
            if (WL.in().empty())
              return std::nullopt;
            return RoundFrontier{WL.in().size(), "push"};
          });
  return State;
}

} // namespace egacs

#endif // EGACS_KERNELS_MIS_H
