//===- engine/TaskContext.h - Per-run and per-task kernel state -*- C++ -*-===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The state every operator-engine kernel sets up once per run:
///  * TaskLocal / makeTaskLocals - per-task scratch (NP staging, local push
///    buffers, batched prefetch statistics);
///  * makeLoopScheduler          - the work-stealing LoopScheduler the map
///    operators pull scheduled ranges from;
///  * kernelPrefetchPlan         - the run's prefetch plan seed; kernels
///    addProp their hot property arrays before entering staged loops;
///  * engine::Ctx                - the bundle of the above that one task
///    passes to every engine operator it invokes.
///
//===----------------------------------------------------------------------===//

#ifndef EGACS_ENGINE_TASKCONTEXT_H
#define EGACS_ENGINE_TASKCONTEXT_H

#include "engine/KernelConfig.h"
#include "sched/NestedParallelism.h"
#include "trace/Trace.h"
#include "worklist/Worklist.h"

#include <memory>
#include <vector>

namespace egacs {

/// Per-task scratch state for one kernel run.
struct TaskLocal {
  NpScratch Np;
  LocalPushBuffer Local;
  /// Batched prefetch statistics; flushed to the global counters when the
  /// task locals are destroyed at the end of the run.
  PrefetchCounters Pf;
  /// This task's span ring when the run is traced (non-owning; null
  /// otherwise). Engine operators record their episodes here.
  trace::TaskTrace *Trace = nullptr;

  TaskLocal(std::size_t NpCapacity, std::size_t LocalCapacity)
      : Np(NpCapacity), Local(LocalCapacity) {}

  /// Arms this task's staged execution (NP staging buffer included) with
  /// the kernel-run plan \p PF.
  void armPrefetch(const PrefetchPlan &PF) { Np.setPrefetch(&PF, &Pf); }
};

/// Allocates per-task scratch for \p Cfg.NumTasks tasks.
inline std::vector<std::unique_ptr<TaskLocal>>
makeTaskLocals(const KernelConfig &Cfg, std::size_t LocalCapacity = 8192) {
  std::vector<std::unique_ptr<TaskLocal>> Locals;
  Locals.reserve(static_cast<std::size_t>(Cfg.NumTasks));
  std::size_t NpCapacity =
      Cfg.NpBufferCapacity > 0
          ? static_cast<std::size_t>(Cfg.NpBufferCapacity)
          : 4096;
  for (int T = 0; T < Cfg.NumTasks; ++T)
    Locals.push_back(std::make_unique<TaskLocal>(NpCapacity, LocalCapacity));
  return Locals;
}

/// Seeds a prefetch plan from Cfg's policy/distance knobs; kernels addProp
/// their hot property arrays before entering the staged loops.
inline PrefetchPlan kernelPrefetchPlan(const KernelConfig &Cfg) {
  PrefetchPlan PF;
  PF.Policy = Cfg.Prefetch;
  PF.Dist = Cfg.PrefetchDist;
  return PF;
}

/// addProp shorthand for the 4-byte property arrays every kernel registers
/// (int32 distances/labels/states, float ranks).
template <typename T>
void planProp(PrefetchPlan &PF, const T *P, PrefetchIndexKind K) {
  static_assert(sizeof(T) == 4, "kernel properties are 4-byte elements");
  PF.addProp(P, 4, K);
}

/// Builds the LoopScheduler for one kernel run from Cfg's work-distribution
/// knobs. \p MaxItems must bound the largest Size any scheduled loop of the
/// run will see (worklist capacity for frontier sweeps, numNodes/numEdges
/// for topology sweeps); it sizes the stealing deques.
inline std::unique_ptr<LoopScheduler>
makeLoopScheduler(const KernelConfig &Cfg, std::int64_t MaxItems) {
  return std::make_unique<LoopScheduler>(Cfg.NumTasks, Cfg.ChunkSize, MaxItems,
                                         Cfg.SchedInstrument);
}

namespace engine {

/// One task's execution context: everything the map operators need beyond
/// their per-call functors. Kernels build one per phase body (it is a
/// bundle of references — construction is free) and hand it to every
/// operator of that phase. \p VT is the GraphView layout; \p G is the view
/// the operator iterates (the forward graph for push sweeps, the transpose
/// for pull sweeps).
template <typename VT> struct Ctx {
  const KernelConfig &Cfg;
  const VT &G;
  LoopScheduler &Sched;
  const PrefetchPlan &PF;
  TaskLocal &TL;
  int TaskIdx;
  int TaskCount;
};

/// Per-run engine state: the task-local scratch, the loop scheduler, and
/// the kernel's prefetch plan, owned together so kernels declare one Run
/// and mint per-task contexts from it inside their phase bodies.
template <typename VT> struct Run {
  const KernelConfig &Cfg;
  const VT &G;
  std::vector<std::unique_ptr<TaskLocal>> Locals;
  std::unique_ptr<LoopScheduler> Sched;
  PrefetchPlan PF;

  Run(const KernelConfig &Cfg, const VT &G, std::int64_t MaxItems,
      PrefetchPlan PF, std::size_t LocalCapacity = 8192)
      : Cfg(Cfg), G(G), Locals(makeTaskLocals(Cfg, LocalCapacity)),
        Sched(makeLoopScheduler(Cfg, MaxItems)), PF(std::move(PF)) {
    EGACS_TRACED(
        if (Cfg.Trace) for (std::size_t T = 0; T < Locals.size(); ++T)
            Locals[T]->Trace = Cfg.Trace->taskTrace(static_cast<int>(T));)
  }

  /// One task's context over the run's forward view.
  Ctx<VT> ctx(int TaskIdx, int TaskCount) {
    return Ctx<VT>{Cfg, G, *Sched, PF, *Locals[TaskIdx], TaskIdx, TaskCount};
  }

  /// One task's context over an explicit view (the transpose, for pull
  /// rounds) scheduled and equipped by this run.
  Ctx<VT> ctx(const VT &View, int TaskIdx, int TaskCount) {
    return Ctx<VT>{Cfg,     View, *Sched,   PF, *Locals[TaskIdx],
                   TaskIdx, TaskCount};
  }
};

} // namespace engine

} // namespace egacs

#endif // EGACS_ENGINE_TASKCONTEXT_H
