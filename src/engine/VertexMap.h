//===- engine/VertexMap.h - Vertex-iteration operators ----------*- C++ -*-===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Vertex iteration, from raw slice loops to the engine operators kernels
/// compose:
///  * forEachWorklistSlice - a task's share of the input worklist,
///    fiber-interleaved when Fibers is on (the iteration-order effect the
///    paper observes on CC's locality), with a staged (prefetching)
///    overload;
///  * forEachNodeSlice     - a task's share of the view's node slots in
///    layout iteration order, plus a staged overload and a legacy id-range
///    form;
///  * engine::vertexMapSparse/Dense/Ranges - the operator spellings over an
///    engine::Ctx; Sparse and the Dense/Ranges forms are deliberately
///    unstaged (pure property phases touch no edge arrays, so the
///    inspect-executor pipeline would only add overhead).
///
//===----------------------------------------------------------------------===//

#ifndef EGACS_ENGINE_VERTEXMAP_H
#define EGACS_ENGINE_VERTEXMAP_H

#include "engine/TaskContext.h"
#include "runtime/Fibers.h"
#include "sched/VertexLoop.h"
#include "worklist/Worklist.h"

namespace egacs {

/// Iterates Items[Begin, End) one vector at a time: Body(VInt Values,
/// VMask Active). With Fibers enabled the range is further split into the
/// paper's dynamic fiber count (computed from the full worklist \p TotalSize
/// so fiber granularity is independent of how the range was scheduled) and
/// the fibers are stepped round-robin, emulating a thread block's warps.
template <typename BK, typename BodyT>
void forEachWorklistRange(const KernelConfig &Cfg, const NodeId *Items,
                          std::int64_t TotalSize, std::int64_t Begin,
                          std::int64_t End, int TaskCount, BodyT &&Body) {
  if (!Cfg.Fibers) {
    forEachVector<BK>(Items, Begin, End, Body);
    return;
  }

  int NumFibers = FiberConfig::numFibersPerTask(TotalSize, BK::Width,
                                                TaskCount,
                                                Cfg.MaxFibersPerTask);
  std::int64_t RangeLen = End - Begin;
  std::int64_t PerFiber = (RangeLen + NumFibers - 1) / NumFibers;
  // Round fiber stride up to whole vectors so fibers stay vector-aligned.
  PerFiber = (PerFiber + BK::Width - 1) / BK::Width * BK::Width;
  std::int64_t MaxSteps = (PerFiber + BK::Width - 1) / BK::Width;
  for (std::int64_t Step = 0; Step < MaxSteps; ++Step) {
    for (int F = 0; F < NumFibers; ++F) {
      std::int64_t FBegin = Begin + F * PerFiber + Step * BK::Width;
      std::int64_t FiberEnd = Begin + (F + 1) * PerFiber;
      std::int64_t FEnd = FiberEnd < End ? FiberEnd : End;
      if (FBegin >= FEnd)
        continue;
      std::int64_t VecEnd =
          FBegin + BK::Width < FEnd ? FBegin + BK::Width : FEnd;
      forEachVector<BK>(Items, FBegin, VecEnd, Body);
    }
  }
}

/// Staged (prefetching) variant of forEachWorklistRange. Without fibers the
/// range runs through forEachVectorStaged's two-distance pipeline; with
/// fibers each fiber inspects its own upcoming steps — the round-robin
/// stepping already spaces one fiber's vectors a full round apart in
/// execution time, so the row stage runs two steps (two rounds) ahead and
/// the edge stage one, independent of PF.Dist.
template <typename BK, typename VT, typename BodyT>
void forEachWorklistRangeStaged(const KernelConfig &Cfg, const VT &G,
                                const NodeId *Items, std::int64_t TotalSize,
                                std::int64_t Begin, std::int64_t End,
                                int TaskCount, const PrefetchPlan &PF,
                                PrefetchCounters &C, BodyT &&Body,
                                [[maybe_unused]] trace::TaskTrace *TT =
                                    nullptr) {
  if (!Cfg.Fibers) {
    forEachVectorStaged<BK>(G, Items, Begin, End, PF, C, Body, TT);
    return;
  }

  int NumFibers = FiberConfig::numFibersPerTask(TotalSize, BK::Width,
                                                TaskCount,
                                                Cfg.MaxFibersPerTask);
  std::int64_t RangeLen = End - Begin;
  std::int64_t PerFiber = (RangeLen + NumFibers - 1) / NumFibers;
  PerFiber = (PerFiber + BK::Width - 1) / BK::Width * BK::Width;
  std::int64_t MaxSteps = (PerFiber + BK::Width - 1) / BK::Width;

  // Inspects fiber F's vector at the given step, if it exists.
  auto InspectRow = [&](int F, std::int64_t Step) {
    std::int64_t S = Begin + F * PerFiber + Step * BK::Width;
    std::int64_t FiberEnd = Begin + (F + 1) * PerFiber;
    std::int64_t E = FiberEnd < End ? FiberEnd : End;
    if (S < E)
      prefetchRowStage<BK>(G, Items, S, E, PF, C);
  };
  auto InspectEdge = [&](int F, std::int64_t Step) {
    std::int64_t S = Begin + F * PerFiber + Step * BK::Width;
    std::int64_t FiberEnd = Begin + (F + 1) * PerFiber;
    std::int64_t E = FiberEnd < End ? FiberEnd : End;
    if (S < E)
      prefetchEdgeStage<BK>(G, Items, S, E, PF, C);
  };

  {
    EGACS_TRACED(const std::uint64_t Issued0 = C.Issued;
                 trace::ScopedSpan Inspect(TT, trace::SpanKind::PrefetchInspect);)
    for (int F = 0; F < NumFibers; ++F) {
      InspectRow(F, 0);
      InspectRow(F, 1);
      InspectEdge(F, 0);
    }
    EGACS_TRACED(
        Inspect.setDetail(static_cast<std::int64_t>(C.Issued - Issued0));)
  }
  EGACS_TRACED(trace::ScopedSpan Execute(TT, trace::SpanKind::PrefetchExecute,
                                         End - Begin);)
  for (std::int64_t Step = 0; Step < MaxSteps; ++Step) {
    for (int F = 0; F < NumFibers; ++F) {
      std::int64_t FBegin = Begin + F * PerFiber + Step * BK::Width;
      std::int64_t FiberEnd = Begin + (F + 1) * PerFiber;
      std::int64_t FEnd = FiberEnd < End ? FiberEnd : End;
      if (FBegin >= FEnd)
        continue;
      InspectRow(F, Step + 2);
      InspectEdge(F, Step + 1);
      std::int64_t VecEnd =
          FBegin + BK::Width < FEnd ? FBegin + BK::Width : FEnd;
      forEachVector<BK>(Items, FBegin, VecEnd, Body);
    }
  }
}

/// Iterates task \p TaskIdx's share of Items[0, Size), one vector at a
/// time: Body(VInt Values, VMask Active). The share is whatever ranges
/// \p Sched hands this task (chunks of its own block, then stolen ones);
/// each range is fiber-interleaved per forEachWorklistRange.
template <typename BK, typename BodyT>
void forEachWorklistSlice(const KernelConfig &Cfg, LoopScheduler &Sched,
                          const NodeId *Items, std::int64_t Size, int TaskIdx,
                          int TaskCount, BodyT &&Body) {
  Sched.forRanges(Size, TaskIdx, TaskCount,
                  [&](std::int64_t Begin, std::int64_t End) {
                    forEachWorklistRange<BK>(Cfg, Items, Size, Begin, End,
                                             TaskCount, Body);
                  });
}

/// Staged overload of forEachWorklistSlice: same iteration, but each
/// scheduled range runs the inspect-executor prefetch pipeline against the
/// graph view \p G under plan \p PF (an inactive plan falls back to the
/// exact unstaged loop). \p C batches this task's prefetch statistics.
template <typename BK, typename VT, typename BodyT>
void forEachWorklistSlice(const KernelConfig &Cfg, const VT &G,
                          LoopScheduler &Sched, const NodeId *Items,
                          std::int64_t Size, int TaskIdx, int TaskCount,
                          const PrefetchPlan &PF, PrefetchCounters &C,
                          BodyT &&Body,
                          [[maybe_unused]] trace::TaskTrace *TT = nullptr) {
  if (!PF.active()) {
    forEachWorklistSlice<BK>(Cfg, Sched, Items, Size, TaskIdx, TaskCount,
                             Body);
    return;
  }
  Sched.forRanges(Size, TaskIdx, TaskCount,
                  [&](std::int64_t Begin, std::int64_t End) {
                    forEachWorklistRangeStaged<BK>(Cfg, G, Items, Size, Begin,
                                                   End, TaskCount, PF, C,
                                                   Body, TT);
                  });
}

/// Iterates task \p TaskIdx's share of the view's node slots one vector at
/// a time (topology-driven kernels), pulling ranges from \p Sched:
/// Body(VInt NodeIds, VMask Active, int64 Slot). Node ids follow the
/// layout's iteration order; Slot feeds visitEdges so SELL chunk sweeps
/// engage on aligned vectors.
template <typename BK, typename VT, typename BodyT>
void forEachNodeSlice(const VT &G, LoopScheduler &Sched, int TaskIdx,
                      int TaskCount, BodyT &&Body) {
  Sched.forRanges(static_cast<std::int64_t>(G.numNodes()), TaskIdx, TaskCount,
                  [&](std::int64_t Begin, std::int64_t End) {
                    forEachNodeVector<BK>(G, Begin, End, Body);
                  });
}

/// Staged overload of forEachNodeSlice: each scheduled range runs through
/// forEachNodeVectorStaged's prefetch pipeline (an inactive plan falls back
/// to the exact unstaged loop). \p C batches this task's statistics.
template <typename BK, typename VT, typename BodyT>
void forEachNodeSlice(const VT &G, LoopScheduler &Sched, int TaskIdx,
                      int TaskCount, const PrefetchPlan &PF,
                      PrefetchCounters &C, BodyT &&Body,
                      [[maybe_unused]] trace::TaskTrace *TT = nullptr) {
  if (!PF.active()) {
    forEachNodeSlice<BK>(G, Sched, TaskIdx, TaskCount, Body);
    return;
  }
  Sched.forRanges(static_cast<std::int64_t>(G.numNodes()), TaskIdx, TaskCount,
                  [&](std::int64_t Begin, std::int64_t End) {
                    forEachNodeVectorStaged<BK>(G, Begin, End, PF, C, Body,
                                                TT);
                  });
}

/// Legacy id-range slice (identity order, 2-argument Body).
template <typename BK, typename BodyT>
void forEachNodeSlice(LoopScheduler &Sched, std::int64_t NumNodes,
                      int TaskIdx, int TaskCount, BodyT &&Body) {
  Sched.forRanges(NumNodes, TaskIdx, TaskCount,
                  [&](std::int64_t Begin, std::int64_t End) {
                    forEachNodeVector<BK>(Begin, End, Body);
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
  forEachWorklistSlice<BK>(E.Cfg, E.Sched, In.items(), In.size(), E.TaskIdx,
                           E.TaskCount, Body);
}

/// Dense vertex map over the context view: Body(VInt NodeIds, VMask Active,
/// int64 Slot) for every node slot in layout order.
template <typename BK, typename VT, typename BodyT>
void vertexMapDense(const Ctx<VT> &E, BodyT &&Body) {
  EGACS_TRACED(trace::ScopedSpan Span(
      E.TL.Trace, trace::SpanKind::VertexMapDense,
      static_cast<std::int64_t>(E.G.numNodes()));)
  forEachNodeSlice<BK>(E.G, E.Sched, E.TaskIdx, E.TaskCount, Body);
}

/// Dense vertex map over an explicit view \p View (e.g. the transpose for
/// pull rounds) scheduled by the context.
template <typename BK, typename VT, typename BodyT>
void vertexMapDense(const Ctx<VT> &E, const VT &View, BodyT &&Body) {
  EGACS_TRACED(trace::ScopedSpan Span(
      E.TL.Trace, trace::SpanKind::VertexMapDense,
      static_cast<std::int64_t>(View.numNodes()));)
  forEachNodeSlice<BK>(View, E.Sched, E.TaskIdx, E.TaskCount, Body);
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
