//===- kernels/Pr.h - PageRank ----------------------------------*- C++ -*-===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Push-style PageRank: every node scatters rank/degree contributions to
/// its out-neighbours through the update engine (sched/UpdateEngine.h) —
/// Atomic keeps the per-lane CAS loop, the "extensive use of cmpxchg" the
/// paper names as PR's bottleneck; Combined pre-reduces same-destination
/// lanes; Privatized/Blocked stage contributions CAS-free and apply them in
/// a dedicated merge phase — then a vertex phase applies damping and
/// measures the residual. Iterates to a tolerance with a bound on rounds.
///
//===----------------------------------------------------------------------===//

#ifndef EGACS_KERNELS_PR_H
#define EGACS_KERNELS_PR_H

#include "engine/Engine.h"
#include "kernels/Kernels.h"

#include <cmath>
#include <cstring>
#include <vector>

namespace egacs {

/// pr: returns the converged PageRank vector (sums to ~1).
///
/// With Cfg.Dir != Push and a transposed view \p GT, the push phase becomes
/// a pull accumulation round: each destination gathers its in-neighbors'
/// contributions over \p GT into one plain store — atomic-free *by
/// construction* (every destination is owned by exactly one lane of one
/// task). PR is dense every round (no frontier), so Pull and Hybrid behave
/// identically and the update-engine knob is ignored in pull mode.
template <typename BK, typename VT>
std::vector<float> pageRank(const VT &G, const KernelConfig &Cfg,
                            int MaxRounds = 50, const VT *GT = nullptr) {
  using namespace simd;
  NodeId N = G.numNodes();
  std::vector<float> Rank(static_cast<std::size_t>(N),
                          N > 0 ? 1.0f / static_cast<float>(N) : 0.0f);
  if (N == 0)
    return Rank;
  std::vector<float> Contrib(static_cast<std::size_t>(N), 0.0f);
  std::vector<float> Accum(static_cast<std::size_t>(N), 0.0f);

  FloatAccumEngine Eng(Cfg.Update, N, Cfg.NumTasks, Cfg.UpdateBlockNodes,
                       Cfg.SchedInstrument);
  // The push phase gathers Contrib[Src] and add-scatters Accum[Dst]; the
  // node-order phases are unit-stride and need no staging.
  PrefetchPlan PF = kernelPrefetchPlan(Cfg);
  planProp(PF, Contrib.data(), PrefetchIndexKind::Node);
  planProp(PF, Accum.data(), PrefetchIndexKind::Dst);
  engine::Run<VT> R(Cfg, G, N, std::move(PF));
  // Max residual of the round as float bits (non-negative floats compare
  // correctly as int32): one cache-line-padded slot per task, plain-stored
  // behind the phase barrier and max-reduced serially in the advance, so a
  // pull-mode round stays atomic-free end to end.
  constexpr std::size_t ResidualStride = 64 / sizeof(std::int32_t);
  std::vector<std::int32_t> ResidualBits(
      static_cast<std::size_t>(Cfg.NumTasks) * ResidualStride, 0);
  int Round = 0;
  const float Base = (1.0f - Cfg.PrDamping) / static_cast<float>(N);

  // Phase 1: per-node out-contribution rank/degree (0 for sinks).
  TaskFn ComputeContrib = [&](int TaskIdx, int TaskCount) {
    auto E = R.ctx(TaskIdx, TaskCount);
    engine::vertexMapDense<BK>(
        E, [&](VInt<BK> Node, VMask<BK> Act, std::int64_t) {
          VInt<BK> Row = gather<BK>(G.rowStart(), Node, Act);
          VInt<BK> End = gather<BK>(G.rowStart() + 1, Node, Act);
          VInt<BK> Deg = End - Row;
          VMask<BK> HasOut = Act & (Deg > splat<BK>(0));
          VFloat<BK> R = gatherF<BK>(Rank.data(), Node, Act);
          VFloat<BK> C = selectF<BK>(
              HasOut,
              R / toFloat<BK>(vmax<BK>(Deg, splat<BK>(1))),
              splatF<BK>(0.0f));
          scatterF<BK>(Contrib.data(), Node, C, Act);
        });
  };

  // Phase 2: push contributions along edges through the update engine.
  // The edge sweep is generic over the edge functor so the Atomic policy
  // keeps the exact pre-engine inner loop (no per-vector policy dispatch).
  TaskFn PushContrib = [&](int TaskIdx, int TaskCount) {
    auto E = R.ctx(TaskIdx, TaskCount);
    EGACS_TRACED(trace::ScopedSpan Span(E.TL.Trace,
                                        trace::SpanKind::UpdateScatter);)
    std::uint64_t T0 = Eng.scatterStart();
    if (Cfg.Update == UpdatePolicy::Atomic)
      engine::edgeMapDense<BK>(
          E, engine::NoFilter,
          [&](VInt<BK> Src, VInt<BK> Dst, VInt<BK>, VMask<BK> EAct) {
            VFloat<BK> C = gatherF<BK>(Contrib.data(), Src, EAct);
            atomicAddVectorF<BK>(Accum.data(), Dst, C, EAct);
          });
    else
      engine::edgeMapDense<BK>(
          E, engine::NoFilter,
          [&](VInt<BK> Src, VInt<BK> Dst, VInt<BK>, VMask<BK> EAct) {
            VFloat<BK> C = gatherF<BK>(Contrib.data(), Src, EAct);
            Eng.add<BK>(Accum.data(), TaskIdx, Dst, C, EAct);
          });
    Eng.scatterFinish(T0);
  };

  // Privatized/Blocked only: apply the staged contributions to Accum in a
  // dedicated barrier phase (each slot/bin is dispatched to exactly one
  // task, so the applies are plain writes).
  TaskFn MergeStaged = [&](int TaskIdx, int TaskCount) {
    EGACS_TRACED(trace::ScopedSpan Span(R.Locals[TaskIdx]->Trace,
                                        trace::SpanKind::UpdateMerge);)
    Eng.merge(Accum.data(), *R.Sched, TaskIdx, TaskCount);
  };

  // Pull-direction phase 2: in-neighbor gather + register accumulate, one
  // plain store per destination, zero CAS attempts. Contrib is read-only
  // here (written in phase 1 behind a barrier) and each Accum slot has a
  // single writer, so the round is race-free without any atomics.
  const bool UsePull = Cfg.Dir != Direction::Push && GT != nullptr;
  TaskFn PullContrib = [&](int TaskIdx, int TaskCount) {
    auto E = R.ctx(TaskIdx, TaskCount);
    EGACS_TRACED(trace::ScopedSpan Span(E.TL.Trace,
                                        trace::SpanKind::UpdateScatter);)
    std::uint64_t T0 = Eng.scatterStart();
    std::int64_t Scanned = 0;
    engine::vertexMapDense<BK>(
        E, *GT, [&](VInt<BK> Node, VMask<BK> Act, std::int64_t Slot) {
          VFloat<BK> Sum = splatF<BK>(0.0f);
          engine::edgeMapPull<BK>(
              *GT, Node, Act,
              [&](VInt<BK>, VInt<BK> Src, VInt<BK>, VMask<BK> Live) {
                Scanned += popcount(Live);
                VFloat<BK> C = gatherF<BK>(Contrib.data(), Src, Live);
                Sum = Sum + selectF<BK>(Live, C, splatF<BK>(0.0f));
                return Live;
              },
              Slot);
          scatterF<BK>(Accum.data(), Node, Sum, Act);
        });
    Eng.scatterFinish(T0);
    EGACS_STAT_ADD(PullEdgesScanned, static_cast<std::uint64_t>(Scanned));
  };

  // Phase 3: apply damping, measure residual, reset accumulators.
  TaskFn ApplyAndResidual = [&](int TaskIdx, int TaskCount) {
    auto E = R.ctx(TaskIdx, TaskCount);
    float LocalMax = 0.0f;
    engine::vertexMapDense<BK>(
        E, [&](VInt<BK> Node, VMask<BK> Act, std::int64_t) {
          VFloat<BK> Old = gatherF<BK>(Rank.data(), Node, Act);
          VFloat<BK> Sum = gatherF<BK>(Accum.data(), Node, Act);
          VFloat<BK> New = splatF<BK>(Base) + splatF<BK>(Cfg.PrDamping) * Sum;
          scatterF<BK>(Rank.data(), Node, New, Act);
          scatterF<BK>(Accum.data(), Node, splatF<BK>(0.0f), Act);
          VFloat<BK> Diff = New - Old;
          VFloat<BK> Neg = splatF<BK>(0.0f) - Diff;
          VFloat<BK> Abs = selectF<BK>(Diff > splatF<BK>(0.0f), Diff, Neg);
          // Residual reduction over the active lanes only (an inactive
          // lane's gathers read 0, so its |New - Old| is Base, not a
          // residual); one plain slot store per task below (reduced
          // serially in the advance).
          const auto AbsA = spill(Abs);
          std::uint64_t Bits = maskBits(Act);
          while (Bits) {
            int L = __builtin_ctzll(Bits);
            Bits &= Bits - 1;
            if (AbsA[L] > LocalMax)
              LocalMax = AbsA[L];
          }
        });
    std::int32_t Bits;
    std::memcpy(&Bits, &LocalMax, sizeof(Bits));
    ResidualBits[static_cast<std::size_t>(TaskIdx) * ResidualStride] = Bits;
  };

  std::vector<TaskFn> Phases{ComputeContrib,
                             UsePull ? PullContrib : PushContrib};
  if (!UsePull && Eng.needsMerge())
    Phases.push_back(MergeStaged);
  Phases.push_back(ApplyAndResidual);
  // PR is dense every round: the "frontier" is the full node set and the
  // mode reflects only the scatter/gather direction of phase 2.
  EGACS_TRACED(const char *PrMode = UsePull ? "pull" : "push";
               if (Cfg.Trace) Cfg.Trace->noteFrontier(
                   static_cast<std::int64_t>(N), PrMode);)
  runPipe(Cfg, Phases,
          [&] {
            std::int32_t MaxBits = 0;
            for (int T = 0; T < Cfg.NumTasks; ++T) {
              std::size_t Slot = static_cast<std::size_t>(T) * ResidualStride;
              if (ResidualBits[Slot] > MaxBits)
                MaxBits = ResidualBits[Slot];
              ResidualBits[Slot] = 0;
            }
            float MaxDiff;
            std::memcpy(&MaxDiff, &MaxBits, sizeof(MaxDiff));
            ++Round;
            EGACS_TRACED(if (Cfg.Trace) Cfg.Trace->noteFrontier(
                static_cast<std::int64_t>(N), PrMode);)
            return MaxDiff > Cfg.PrTolerance && Round < MaxRounds;
          });
  return Rank;
}

} // namespace egacs

#endif // EGACS_KERNELS_PR_H
