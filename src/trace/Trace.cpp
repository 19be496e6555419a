//===- trace/Trace.cpp - Kernel-run span tracing --------------------------===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
//===----------------------------------------------------------------------===//

#include "trace/Trace.h"

#include <cassert>

namespace egacs::trace {

const char *spanKindName(SpanKind K) {
  static constexpr const char *Names[] = {
      "edge-map-sparse",   "edge-map-dense",  "edge-map-flat",
      "vertex-map-sparse", "vertex-map-dense", "vertex-map-ranges",
      "update-scatter",    "update-merge",    "pf-inspect",
      "pf-execute"};
  static_assert(sizeof(Names) / sizeof(Names[0]) ==
                    static_cast<std::size_t>(SpanKind::NumKinds),
                "span kind name table out of sync with SpanKind");
  auto I = static_cast<std::size_t>(K);
  if (I >= static_cast<std::size_t>(SpanKind::NumKinds))
    return "unknown";
  return Names[I];
}

void TraceSession::beginRun(std::string Name) {
  Runs.push_back(RunInfo{std::move(Name)});
  CurRun.store(static_cast<std::uint16_t>(Runs.size() - 1),
               std::memory_order_relaxed);
  CurRound.store(0, std::memory_order_relaxed);
  RoundOpen = false;
  // Round 0's window opens here, not at pipeBegin: run-setup work (init
  // phases, view construction) must land in some round for the per-round
  // deltas to partition the run aggregate.
  RoundBeginNs = nowNs();
  StatsBase = StatsSnapshot::capture();
}

void TraceSession::endRun() {
  if (Runs.empty())
    return;
  std::uint64_t Now = nowNs();
  StatsSnapshot StatsNow = StatsSnapshot::capture();
  StatsSnapshot Tail = StatsNow - StatsBase;
  std::uint16_t Run = CurRun.load(std::memory_order_relaxed);
  if (!Rounds.empty() && Rounds.back().Run == Run) {
    // Fold the trailing window (final barrier, post-pipe teardown phases)
    // into the last round rather than minting a phantom round: the round
    // count stays equal to the frontier-round count.
    Rounds.back().EndNs = Now;
    Rounds.back().Delta += Tail;
  } else if (RoundOpen) {
    // A pipe opened but never marked a round (degenerate single-window
    // run): record the whole run as round 0.
    RoundRecord R;
    R.BeginNs = RoundBeginNs;
    R.EndNs = Now;
    R.Frontier = CurFrontier.Size;
    R.Round = CurRound.load(std::memory_order_relaxed);
    R.Run = Run;
    R.Mode = CurFrontier.Mode;
    R.Delta = Tail;
    if (Rounds.size() < MaxRounds)
      Rounds.push_back(R);
    else
      ++DroppedRounds;
  }
  RoundOpen = false;
  RoundBeginNs = Now;
  StatsBase = StatsNow;
}

void TraceSession::pipeBegin(RoundFrontier Round0) {
  if (Runs.empty())
    beginRun("run");
  // The stats baseline and window start deliberately carry over (from
  // beginRun for the first pipe, from the previous roundMark for later
  // pipes) so inter-pipe work stays attributed to a round window.
  CurFrontier = Round0;
  RoundOpen = true;
}

void TraceSession::roundMark(std::optional<RoundFrontier> Next) {
  assert(RoundOpen && "roundMark outside a pipe");
  // Lazy-open the hardware counters on the thread that actually drives the
  // rounds (task 0 under iteration outlining, the host otherwise). The
  // round that performed the open has no baseline, so its sample stays
  // invalid; deltas start with the next round.
  bool PerfFresh = false;
  if (!PerfOpenTried) {
    PerfOpenTried = true;
    Perf.open();
    PerfFresh = true;
  }
  std::uint64_t Now = nowNs();
  StatsSnapshot StatsNow = StatsSnapshot::capture();
  PerfSample PerfNow = Perf.read();

  RoundRecord R;
  R.BeginNs = RoundBeginNs;
  R.EndNs = Now;
  R.Frontier = CurFrontier.Size;
  R.Round = CurRound.load(std::memory_order_relaxed);
  R.Run = CurRun.load(std::memory_order_relaxed);
  R.Mode = CurFrontier.Mode;
  R.Delta = StatsNow - StatsBase;
  if (!PerfFresh)
    R.Perf = PerfNow - PerfBase;
  if (Rounds.size() < MaxRounds)
    Rounds.push_back(R);
  else
    ++DroppedRounds;

  // Open the next round's window.
  RoundBeginNs = Now;
  StatsBase = StatsNow;
  PerfBase = PerfNow;
  // After a stop no round reads the open window's frontier.
  if (Next)
    CurFrontier = *Next;
  CurRound.fetch_add(1, std::memory_order_relaxed);
}

void TraceSession::noteDirectionSwitch(const char *Label) {
  if (Events.size() >= MaxEvents) {
    ++DroppedEvents;
    return;
  }
  TraceEvent E;
  E.Ns = nowNs();
  E.Round = CurRound.load(std::memory_order_relaxed);
  E.Run = CurRun.load(std::memory_order_relaxed);
  E.Label = Label;
  Events.push_back(E);
}

TaskTrace *TraceSession::taskTrace(int TaskIdx) {
  std::lock_guard<std::mutex> Lock(TasksMutex);
  auto Idx = static_cast<std::size_t>(TaskIdx);
  while (Tasks.size() <= Idx)
    Tasks.push_back(std::make_unique<TaskTrace>(
        *this, static_cast<int>(Tasks.size()), RingCapacity));
  return Tasks[Idx].get();
}

std::uint64_t TraceSession::droppedSpans() const {
  std::uint64_t Total = 0;
  for (const auto &T : Tasks)
    Total += T->droppedSpans();
  return Total;
}

} // namespace egacs::trace
