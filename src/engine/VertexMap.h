//===- engine/VertexMap.h - Vertex-iteration operators ----------*- C++ -*-===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Vertex iteration, from the slice loops to the engine operators kernels
/// compose:
///  * forEachWorklistSlice - a task's share of the input worklist,
///    fiber-interleaved when Fibers is on (the iteration-order effect the
///    paper observes on CC's locality);
///  * forEachNodeSlice     - a task's share of the view's node slots in
///    layout iteration order;
///  * engine::vertexMapSparse/Dense/Ranges - the operator spellings over an
///    engine::Ctx; they pass the inactive plan (pure property phases touch
///    no edge arrays, so the inspect-executor pipeline would only add
///    overhead).
/// Each slice loop exists once and is staged by its PrefetchPlan argument:
/// an inactive plan (NoPrefetch) is the plain loop.
///
//===----------------------------------------------------------------------===//

#ifndef EGACS_ENGINE_VERTEXMAP_H
#define EGACS_ENGINE_VERTEXMAP_H

#include "engine/TaskContext.h"
#include "runtime/Fibers.h"
#include "sched/VertexLoop.h"
#include "worklist/Worklist.h"

namespace egacs {

namespace loopdetail {

/// forEachWorklistRange's loop, compiled once staged and once plain so the
/// plain loop carries no staging code.
template <bool Staged, typename BK, typename VT, typename BodyT>
[[gnu::noinline]] void
worklistRangeLoop(const KernelConfig &Cfg, const VT &G, const NodeId *Items,
                  std::int64_t TotalSize, std::int64_t Begin, std::int64_t End,
                  int TaskCount, const PrefetchPlan &PF, PrefetchCounters &C,
                  BodyT &&Body, [[maybe_unused]] trace::TaskTrace *TT) {
  const std::int64_t W = BK::Width;
  const int NumFibers =
      Cfg.Fibers ? FiberConfig::numFibersPerTask(TotalSize, BK::Width,
                                                 TaskCount,
                                                 Cfg.MaxFibersPerTask)
                 : 1;
  std::int64_t PerFiber = (End - Begin + NumFibers - 1) / NumFibers;
  // Round fiber stride up to whole vectors so fibers stay vector-aligned.
  PerFiber = (PerFiber + W - 1) / W * W;
  auto FiberEnd = [&](int F) {
    std::int64_t E = Begin + (F + 1) * PerFiber;
    return E < End ? E : End;
  };
  [[maybe_unused]] const Lookahead LA =
      Cfg.Fibers ? Lookahead{2 * W, W} : PF.lookahead(W);
  [[maybe_unused]] auto RowStage = [&](std::int64_t P, std::int64_t E) {
    prefetchRowStage<BK>(G, Items, P, E, PF, C);
  };
  [[maybe_unused]] auto EdgeStage = [&](std::int64_t P, std::int64_t E) {
    prefetchEdgeStage<BK>(G, Items, P, E, PF, C);
  };
  if constexpr (Staged)
    inspectPrologue(TT, C, [&] {
      for (int F = 0; F < NumFibers; ++F)
        LA.warm(Begin + F * PerFiber, FiberEnd(F), W, RowStage, EdgeStage);
    });
  EGACS_TRACED(StageSpan<Staged> Execute(TT, trace::SpanKind::PrefetchExecute,
                                         End - Begin);)
  for (std::int64_t Step = 0; Step < PerFiber / W; ++Step) {
    for (int F = 0; F < NumFibers; ++F) {
      std::int64_t I = Begin + F * PerFiber + Step * W;
      std::int64_t FEnd = FiberEnd(F);
      if (I >= FEnd)
        continue;
      if constexpr (Staged)
        LA.ahead(I, FEnd, RowStage, EdgeStage);
      int Valid = static_cast<int>(FEnd - I < W ? FEnd - I : W);
      simd::VMask<BK> Act = simd::maskFirstN<BK>(Valid);
      simd::VInt<BK> Values = Valid == BK::Width
                                  ? simd::load<BK>(Items + I)
                                  : simd::maskedLoad<BK>(Items + I, Act);
      Body(Values, Act);
    }
  }
}

} // namespace loopdetail

/// Iterates Items[Begin, End) one vector at a time: Body(VInt Values,
/// VMask Active); the final vector of each fiber is tail-masked. With
/// Fibers enabled the range is further split into the paper's dynamic fiber
/// count (computed from the full worklist \p TotalSize so fiber granularity
/// is independent of how the range was scheduled) and the fibers are
/// stepped round-robin, emulating a thread block's warps; without, the
/// range is one fiber.
///
/// An active plan \p PF stages the loop against view \p G: each fiber
/// inspects its own upcoming vectors, the row stage ahead of the edge
/// stage. Unfibered that is PF's distances; fibered, the round-robin
/// stepping already spaces one fiber's vectors a full round apart in
/// execution time, so the row stage runs two steps (two rounds) ahead and
/// the edge stage one, independent of PF.Dist. \p C batches the prefetch
/// statistics and \p TT receives the stage spans.
template <typename BK, typename VT, typename BodyT>
void forEachWorklistRange(const KernelConfig &Cfg, const VT &G,
                          const NodeId *Items, std::int64_t TotalSize,
                          std::int64_t Begin, std::int64_t End, int TaskCount,
                          const PrefetchPlan &PF, PrefetchCounters &C,
                          BodyT &&Body, trace::TaskTrace *TT = nullptr) {
  if (PF.active())
    loopdetail::worklistRangeLoop<true, BK>(Cfg, G, Items, TotalSize, Begin,
                                            End, TaskCount, PF, C, Body, TT);
  else
    loopdetail::worklistRangeLoop<false, BK>(Cfg, G, Items, TotalSize, Begin,
                                             End, TaskCount, PF, C, Body, TT);
}

/// Iterates task \p TaskIdx's share of Items[0, Size), one vector at a
/// time: Body(VInt Values, VMask Active). The share is whatever ranges
/// \p Sched hands this task (chunks of its own block, then stolen ones);
/// each range runs through forEachWorklistRange, staged by \p PF.
template <typename BK, typename VT, typename BodyT>
void forEachWorklistSlice(const KernelConfig &Cfg, const VT &G,
                          LoopScheduler &Sched, const NodeId *Items,
                          std::int64_t Size, int TaskIdx, int TaskCount,
                          const PrefetchPlan &PF, PrefetchCounters &C,
                          BodyT &&Body, trace::TaskTrace *TT = nullptr) {
  Sched.forRanges(Size, TaskIdx, TaskCount,
                  [&](std::int64_t Begin, std::int64_t End) {
                    forEachWorklistRange<BK>(Cfg, G, Items, Size, Begin, End,
                                             TaskCount, PF, C, Body, TT);
                  });
}

/// Iterates task \p TaskIdx's share of the view's node slots one vector at
/// a time (topology-driven kernels), pulling ranges from \p Sched:
/// Body(VInt NodeIds, VMask Active, int64 Slot). Node ids follow the
/// layout's iteration order; Slot feeds visitEdges so SELL chunk sweeps
/// engage on aligned vectors. Each range runs through forEachNodeVector,
/// staged by \p PF.
template <typename BK, typename VT, typename BodyT>
void forEachNodeSlice(const VT &G, LoopScheduler &Sched, int TaskIdx,
                      int TaskCount, const PrefetchPlan &PF,
                      PrefetchCounters &C, BodyT &&Body,
                      trace::TaskTrace *TT = nullptr) {
  Sched.forRanges(static_cast<std::int64_t>(G.numNodes()), TaskIdx, TaskCount,
                  [&](std::int64_t Begin, std::int64_t End) {
                    forEachNodeVector<BK>(G, Begin, End, PF, C, Body, TT);
                  });
}

namespace engine {

/// Sparse vertex map: applies Body(VInt NodeIds, VMask Active) to this
/// task's share of the worklist \p In. Deliberately unstaged — the sparse
/// vertex phases are pure property sweeps (mark, promote, rebuild) with no
/// edge-array traffic for an inspect stage to hide.
template <typename BK, typename VT, typename BodyT>
void vertexMapSparse(const Ctx<VT> &E, const Worklist &In, BodyT &&Body) {
  EGACS_TRACED(trace::ScopedSpan Span(
      E.TL.Trace, trace::SpanKind::VertexMapSparse, In.size());)
  forEachWorklistSlice<BK>(E.Cfg, E.G, E.Sched, In.items(), In.size(),
                           E.TaskIdx, E.TaskCount, NoPrefetch, E.TL.Pf, Body);
}

/// Dense vertex map over the context view: Body(VInt NodeIds, VMask Active,
/// int64 Slot) for every node slot in layout order.
template <typename BK, typename VT, typename BodyT>
void vertexMapDense(const Ctx<VT> &E, BodyT &&Body) {
  EGACS_TRACED(trace::ScopedSpan Span(
      E.TL.Trace, trace::SpanKind::VertexMapDense,
      static_cast<std::int64_t>(E.G.numNodes()));)
  forEachNodeSlice<BK>(E.G, E.Sched, E.TaskIdx, E.TaskCount, NoPrefetch,
                       E.TL.Pf, Body);
}

/// Scalar range map: hands Body raw [Begin, End) ranges of a \p Size-item
/// iteration space — for phases whose bodies are inherently serial per
/// element (pointer chasing, 64-bit packed keys).
template <typename VT, typename BodyT>
void vertexMapRanges(const Ctx<VT> &E, std::int64_t Size, BodyT &&Body) {
  EGACS_TRACED(trace::ScopedSpan Span(E.TL.Trace,
                                      trace::SpanKind::VertexMapRanges, Size);)
  E.Sched.forRanges(Size, E.TaskIdx, E.TaskCount, Body);
}

} // namespace engine

} // namespace egacs

#endif // EGACS_ENGINE_VERTEXMAP_H
