//===- engine/PipeDriver.h - Iterative kernel execution ---------*- C++ -*-===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes an IrGL Pipe: an iterative loop whose body is a sequence of
/// parallel phases. Two translations exist, exactly as in the paper's
/// Listing 2:
///
///  * default: a host loop that launches tasks for every phase of every
///    iteration (launch overhead on the critical path, Table III);
///  * Iteration Outlining: one task launch; the loop moves inside the tasks
///    and a barrier after each phase preserves the original launch
///    semantics. A designated task evaluates the loop condition between
///    barriers.
///
/// The pipe owns the round: the caller passes round 0's input frontier and
/// each advance step returns the next round's frontier (or nullopt to
/// stop). runPipe is the one place that reports frontiers to a trace.
///
//===----------------------------------------------------------------------===//

#ifndef EGACS_ENGINE_PIPEDRIVER_H
#define EGACS_ENGINE_PIPEDRIVER_H

#include "engine/KernelConfig.h"
#include "runtime/Barrier.h"
#include "trace/Trace.h"

#include <atomic>
#include <cassert>
#include <functional>
#include <optional>
#include <vector>

namespace egacs {

using trace::RoundFrontier;

/// What an advance step returns: the next round's input frontier, or
/// nullopt when the pipe stops.
using NextRound = std::optional<RoundFrontier>;

/// Runs phases repeatedly until \p Advance returns nullopt.
///
/// Per iteration, every phase runs as a full task launch (or a barrier
/// episode under IO); after the last phase, \p Advance runs exactly once on
/// one thread — it typically swaps worklists — and returns the frontier the
/// next iteration consumes. \p Round0 is the first iteration's frontier.
inline void runPipe(const KernelConfig &Cfg,
                    [[maybe_unused]] RoundFrontier Round0,
                    const std::vector<TaskFn> &Phases,
                    const std::function<NextRound()> &Advance) {
  assert(Cfg.TS && "kernel config needs a task system");
  assert(!Phases.empty() && "pipe needs at least one phase");

  // Tracing wraps the advance step: each Advance call closes one frontier
  // round (stat + hardware-counter deltas) and opens the next with the
  // frontier Advance returned. Both hooks run on the thread driving the
  // loop — the host here, task 0 under Iteration Outlining — so the
  // lazily-opened perf counters profile the thread that executes rounds.
  EGACS_TRACED(if (Cfg.Trace) Cfg.Trace->pipeBegin(Round0);)
  auto Step = [&] {
    NextRound Next = Advance();
    EGACS_TRACED(if (Cfg.Trace) Cfg.Trace->roundMark(Next);)
    return Next.has_value();
  };

  if (!Cfg.IterationOutlining) {
    for (int Iter = 0; Iter < Cfg.MaxIterations; ++Iter) {
      for (const TaskFn &Phase : Phases)
        Cfg.TS->launch(Cfg.NumTasks, Phase);
      if (!Step())
        return;
    }
    return;
  }

  assert(Cfg.NumTasks <= Cfg.TS->concurrency() &&
         "outlined pipes barrier-sync; tasks must all run concurrently");
  Barrier Bar(Cfg.NumTasks);
  std::atomic<bool> Done{false};
  Cfg.TS->launch(Cfg.NumTasks, [&](int TaskIdx, int TaskCount) {
    for (int Iter = 0; Iter < Cfg.MaxIterations; ++Iter) {
      for (const TaskFn &Phase : Phases) {
        Phase(TaskIdx, TaskCount);
        Bar.wait();
      }
      if (TaskIdx == 0)
        Done.store(!Step(), std::memory_order_release);
      Bar.wait();
      if (Done.load(std::memory_order_acquire))
        return;
    }
  });
}

/// Convenience overload for single-phase pipes.
inline void runPipe(const KernelConfig &Cfg, RoundFrontier Round0,
                    const TaskFn &Phase,
                    const std::function<NextRound()> &Advance) {
  runPipe(Cfg, Round0, std::vector<TaskFn>{Phase}, Advance);
}

} // namespace egacs

#endif // EGACS_ENGINE_PIPEDRIVER_H
