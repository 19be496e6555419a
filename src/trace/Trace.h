//===- trace/Trace.h - Kernel-run span tracing ------------------*- C++ -*-===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compile-away (EGACS_TRACE) tracing subsystem. A TraceSession attached
/// to KernelConfig::Trace records, per kernel run:
///
///  * one RoundRecord per frontier round — wall-time bounds, input frontier
///    size, traversal direction, the per-round StatsSnapshot delta, and a
///    PerfCounters hardware-counter delta (cycles / instructions / LLC
///    misses / branch misses) when perf_event_open is available. The
///    frontier arrives only through pipeBegin/roundMark, which runPipe
///    calls with round 0's frontier and then each advance step's result;
///  * per-task operator spans (ScopedSpan into a per-task single-writer
///    ring buffer): every edgeMap / vertexMap episode, update-engine
///    scatter/merge phase, and staged-prefetch inspect/execute stage;
///  * instant events for direction switches.
///
/// Threading model: each TaskTrace ring has exactly one writer (its task);
/// round state is only touched from the serial advance window between
/// barriers (or between launches), which the task system's join/barrier
/// already orders against the task bodies. CurRun/CurRound are relaxed
/// atomics so task-side span tagging reads them without formal races.
///
/// When EGACS_TRACE is not defined, ScopedSpan is an empty object, the
/// EGACS_TRACED(...) statement macro expands to nothing, and TraceSession is
/// only forward-declared through KernelConfig — zero code and zero branches
/// remain in the kernels.
///
//===----------------------------------------------------------------------===//

#ifndef EGACS_TRACE_TRACE_H
#define EGACS_TRACE_TRACE_H

#include "support/Stats.h"
#include "trace/PerfCounters.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace egacs::trace {

/// The span taxonomy: everything the engine operators emit.
enum class SpanKind : std::uint8_t {
  EdgeMapSparse,
  EdgeMapDense,
  EdgeMapFlat,
  VertexMapSparse,
  VertexMapDense,
  VertexMapRanges,
  UpdateScatter,
  UpdateMerge,
  PrefetchInspect,
  PrefetchExecute,
  NumKinds
};

/// Returns the human-readable name of \p K ("edge-map-sparse", ...).
const char *spanKindName(SpanKind K);

/// One closed operator span in a task's ring.
struct Span {
  std::uint64_t BeginNs = 0;
  std::uint64_t EndNs = 0;
  /// Kind-specific payload: items mapped for edge/vertex maps, prefetches
  /// issued for inspect stages, -1 when not applicable.
  std::int64_t Detail = -1;
  std::uint32_t Round = 0;
  std::uint16_t Run = 0;
  SpanKind Kind = SpanKind::NumKinds;
};

/// A round's input frontier: its size (-1 when the kernel has none, as in
/// single-pass tri) and its static-string traversal mode.
struct RoundFrontier {
  std::int64_t Size = -1;
  const char *Mode = "flat";
};

/// One frontier round: formed between consecutive roundMark() calls.
struct RoundRecord {
  std::uint64_t BeginNs = 0;
  std::uint64_t EndNs = 0;
  /// Input frontier size for this round; -1 when the kernel has no frontier
  /// (single-pass kernels like tri).
  std::int64_t Frontier = -1;
  std::uint32_t Round = 0;
  std::uint16_t Run = 0;
  /// Static-string traversal mode ("push", "pull", ...); never null.
  const char *Mode = "n/a";
  /// Per-round statistic-counter delta.
  StatsSnapshot Delta;
  /// Per-round hardware-counter delta (Valid=false when unavailable or on
  /// the round that lazily opened the counters).
  PerfSample Perf;
};

/// One instant event (direction switches).
struct TraceEvent {
  std::uint64_t Ns = 0;
  std::uint32_t Round = 0;
  std::uint16_t Run = 0;
  const char *Label = "";
};

/// Per-run metadata.
struct RunInfo {
  std::string Name;
};

class TraceSession;

/// One task's single-writer span ring. Fixed capacity; on overflow the
/// oldest spans are overwritten and counted as dropped.
class TaskTrace {
public:
  TaskTrace(TraceSession &Session, int TaskIdx, std::size_t Capacity)
      : Session(Session), TaskIdx(TaskIdx),
        Ring(std::max<std::size_t>(Capacity, 1)) {}

  TaskTrace(const TaskTrace &) = delete;
  TaskTrace &operator=(const TaskTrace &) = delete;

  /// Appends a closed span (called only by the owning task).
  void push(const Span &S) {
    Ring[static_cast<std::size_t>(Total % Ring.size())] = S;
    ++Total;
  }

  int taskIndex() const { return TaskIdx; }
  std::uint64_t totalSpans() const { return Total; }
  std::uint64_t droppedSpans() const {
    return Total > Ring.size() ? Total - Ring.size() : 0;
  }

  /// Visits the retained spans in chronological (push) order.
  template <typename Fn> void forEachSpan(Fn &&F) const {
    std::uint64_t Kept = std::min<std::uint64_t>(Total, Ring.size());
    std::uint64_t First = Total - Kept;
    for (std::uint64_t I = 0; I < Kept; ++I)
      F(Ring[static_cast<std::size_t>((First + I) % Ring.size())]);
  }

  /// The owning session (spans read the current run/round from it).
  TraceSession &session() { return Session; }

private:
  TraceSession &Session;
  int TaskIdx;
  std::vector<Span> Ring;
  std::uint64_t Total = 0;
};

/// One tracing session, attachable to any number of sequential kernel runs
/// via KernelConfig::Trace. All serial-surface methods (beginRun, pipeBegin,
/// roundMark, noteDirectionSwitch) must be called from the single thread
/// (or serial window) driving the kernel's iteration loop.
class TraceSession {
public:
  explicit TraceSession(std::size_t RingCapacity = 1u << 13)
      : RingCapacity(RingCapacity),
        Epoch(std::chrono::steady_clock::now()) {}

  //===--------------------------------------------------------------------===
  // Serial surface (pipe driver / host thread).
  //===--------------------------------------------------------------------===

  /// Starts a new run named \p Name (typically the kernel name). Resets the
  /// round cursor and captures the run's statistics baseline; spans
  /// recorded afterwards tag this run.
  void beginRun(std::string Name);

  /// Finishes the current run: folds the trailing measurement window
  /// (work after the last roundMark — final barriers, post-pipe teardown
  /// phases) into the run's last RoundRecord, so the per-round stat deltas
  /// partition the run aggregate exactly.
  void endRun();

  /// Called when a pipe (iteration loop) starts, with round 0's input
  /// frontier: opens the first round's timing window (the stats baseline
  /// carries over from beginRun, or from the previous pipe's last
  /// roundMark, so setup work between pipes stays attributed to a round).
  void pipeBegin(RoundFrontier Round0);

  /// Called at the end of each advance step: closes the current round into
  /// a RoundRecord (stat + perf deltas since the previous mark) and opens
  /// the next round's window, whose input frontier is \p Next (nullopt when
  /// the pipe stops).
  void roundMark(std::optional<RoundFrontier> Next);

  /// Records an instant event (e.g. "push->pull") at the current time,
  /// attributed to the round being closed.
  void noteDirectionSwitch(const char *Label);

  //===--------------------------------------------------------------------===
  // Task surface.
  //===--------------------------------------------------------------------===

  /// The span ring for task \p TaskIdx (created on first use). Called from
  /// the host thread during run setup, before tasks launch.
  TaskTrace *taskTrace(int TaskIdx);

  std::uint32_t currentRound() const {
    return CurRound.load(std::memory_order_relaxed);
  }
  std::uint16_t currentRun() const {
    return CurRun.load(std::memory_order_relaxed);
  }

  /// Nanoseconds since the session epoch (steady clock).
  std::uint64_t nowNs() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - Epoch)
            .count());
  }

  //===--------------------------------------------------------------------===
  // Read surface (exporters / tests; call after the traced runs finish).
  //===--------------------------------------------------------------------===

  const std::vector<RunInfo> &runs() const { return Runs; }
  const std::vector<RoundRecord> &rounds() const { return Rounds; }
  const std::vector<TraceEvent> &events() const { return Events; }
  std::size_t numTasks() const { return Tasks.size(); }
  const TaskTrace *task(std::size_t I) const { return Tasks[I].get(); }
  std::uint64_t droppedRounds() const { return DroppedRounds; }
  std::uint64_t droppedSpans() const;
  bool perfAvailable() const { return Perf.available(); }

  /// Test hook: permanently disables the hardware counters, forcing the
  /// degraded (timestamps-only) path.
  void forcePerfUnavailable() { Perf.disable(); }

private:
  std::size_t RingCapacity;
  std::chrono::steady_clock::time_point Epoch;

  std::vector<RunInfo> Runs;
  std::vector<RoundRecord> Rounds;
  std::vector<TraceEvent> Events;

  std::mutex TasksMutex;
  std::vector<std::unique_ptr<TaskTrace>> Tasks;

  std::atomic<std::uint32_t> CurRound{0};
  std::atomic<std::uint16_t> CurRun{0};

  // Open-round state (serial surface only).
  bool RoundOpen = false;
  std::uint64_t RoundBeginNs = 0;
  RoundFrontier CurFrontier;
  StatsSnapshot StatsBase;

  PerfCounters Perf;
  bool PerfOpenTried = false;
  PerfSample PerfBase;

  std::uint64_t DroppedRounds = 0;
  std::uint64_t DroppedEvents = 0;

  static constexpr std::size_t MaxRounds = 1u << 16;
  static constexpr std::size_t MaxEvents = 1u << 14;
};

#ifdef EGACS_TRACE

/// Statement wrapper: the arguments are compiled only when EGACS_TRACE is
/// defined. Use for instrumentation statements inside kernels/operators.
#define EGACS_TRACED(...) __VA_ARGS__

/// RAII operator span: records begin at construction, pushes the closed
/// span into \p TT's ring at destruction. A null TaskTrace makes every
/// member a no-op, so call sites pass the (possibly null) per-task pointer
/// unconditionally.
class ScopedSpan {
public:
  ScopedSpan(TaskTrace *TT, SpanKind Kind, std::int64_t Detail = -1)
      : TT(TT) {
    if (!TT)
      return;
    S.Kind = Kind;
    S.Detail = Detail;
    S.BeginNs = TT->session().nowNs();
    S.Run = TT->session().currentRun();
    S.Round = TT->session().currentRound();
  }

  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

  /// Overrides the span payload (e.g. a counter delta measured inside the
  /// span body).
  void setDetail(std::int64_t Detail) {
    if (TT)
      S.Detail = Detail;
  }

  ~ScopedSpan() {
    if (!TT)
      return;
    S.EndNs = TT->session().nowNs();
    TT->push(S);
  }

private:
  TaskTrace *TT;
  Span S;
};

#else // !EGACS_TRACE

#define EGACS_TRACED(...)

/// Compiled-out stand-in: constructible from the same arguments, no state,
/// no code.
class ScopedSpan {
public:
  template <typename... Ts> explicit constexpr ScopedSpan(Ts &&...) {}
  constexpr void setDetail(std::int64_t) const {}
};

#endif // EGACS_TRACE

} // namespace egacs::trace

#endif // EGACS_TRACE_TRACE_H
