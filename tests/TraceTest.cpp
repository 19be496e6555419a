//===- tests/TraceTest.cpp - Tracing subsystem invariants -----------------===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
// Invariants of src/trace/: a traced run records exactly one round per
// frontier round, per-round stat deltas partition the run aggregate, task
// span rings hold well-nested (stack-disciplined) intervals, perf-counter
// degradation is total (forced-unavailable runs still trace), and both
// exporters accept any recorded session.
//
//===----------------------------------------------------------------------===//

#include "graph/Generators.h"
#include "kernels/Kernels.h"
#include "runtime/TaskSystem.h"
#include "support/Stats.h"
#include "trace/Trace.h"
#include "trace/TraceExport.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#ifdef EGACS_TRACE

using namespace egacs;

namespace {

/// Runs \p Kind on \p G recording into \p Session; returns the kernel
/// output. Serial single-task so the deterministic counters are exact.
KernelOutput tracedRun(KernelKind Kind, const Csr &G, trace::TraceSession &S,
                       Direction Dir = Direction::Push, NodeId Source = 0) {
  SerialTaskSystem TS;
  KernelConfig Cfg;
  Cfg.TS = &TS;
  Cfg.NumTasks = 1;
  Cfg.Dir = Dir;
  Cfg.Trace = &S;
  return runKernel(Kind, simd::TargetKind::Scalar8, G, Cfg, Source);
}

const Csr &rmat() {
  static const Csr G = withRandomWeights(
      rmatGraph(/*Scale=*/8, /*EdgeFactor=*/8, /*Seed=*/42)
          .sortedByDestination(),
      /*MaxWeight=*/64, /*Seed=*/7);
  return G;
}

TEST(Trace, RoundCountMatchesFrontierRounds) {
  // A directed path has one frontier node per level: bfs-wl from node 0
  // runs exactly numNodes rounds (the last one drains an empty frontier
  // product and stops the pipe).
  const NodeId N = 12;
  Csr Path = pathGraph(N);
  trace::TraceSession S;
  KernelOutput Out = tracedRun(KernelKind::BfsWl, Path, S);

  std::int32_t MaxLevel = 0;
  for (std::int32_t D : Out.IntData)
    MaxLevel = std::max(MaxLevel, D);
  ASSERT_EQ(S.runs().size(), 1u);
  EXPECT_EQ(S.rounds().size(), static_cast<std::size_t>(MaxLevel) + 1);

  // Round records carry the input frontier of their round: every path
  // level has exactly one node on the frontier.
  for (const trace::RoundRecord &R : S.rounds()) {
    EXPECT_EQ(R.Frontier, 1) << "round " << R.Round;
    EXPECT_STREQ(R.Mode, "push");
    EXPECT_LE(R.BeginNs, R.EndNs);
  }
}

TEST(Trace, RoundDeltasSumToRunAggregate) {
#ifndef EGACS_STATS
  GTEST_SKIP() << "stats compiled out";
#endif
  // Per-round StatsSnapshot deltas must partition the whole run's counter
  // movement: the round windows are contiguous (each roundMark closes one
  // and opens the next), so nothing is counted twice or dropped.
  statsReset();
  trace::TraceSession S;
  StatsSnapshot Before = StatsSnapshot::capture();
  tracedRun(KernelKind::Cc, rmat(), S, Direction::Hybrid);
  StatsSnapshot Aggregate = StatsSnapshot::capture() - Before;
  statsReset();

  ASSERT_FALSE(S.rounds().empty());
  const Stat Checked[] = {Stat::DirectionSwitches, Stat::SchedEpisodes,
                          Stat::FrontierConversions, Stat::CasAttempts,
                          Stat::ItemsPushed, Stat::BarrierWaits};
  for (Stat St : Checked) {
    std::uint64_t Sum = 0;
    for (const trace::RoundRecord &R : S.rounds())
      Sum += R.Delta.get(St);
    EXPECT_EQ(Sum, Aggregate.get(St)) << statName(St);
  }
  // The hybrid run must actually have exercised the switch machinery for
  // the partition check above to mean anything.
  EXPECT_GT(Aggregate.get(Stat::DirectionSwitches), 0u);
}

TEST(Trace, SpansWellNestedPerTask) {
  trace::TraceSession S;
  SerialTaskSystem TS;
  KernelConfig Cfg;
  Cfg.TS = &TS;
  Cfg.NumTasks = 1;
  Cfg.Prefetch = PrefetchPolicy::RowsProps; // adds nested pf-* spans
  Cfg.PrefetchDist = 4;
  Cfg.Trace = &S;
  runKernel(KernelKind::Pr, simd::TargetKind::Scalar8, rmat(), Cfg, 0);

  ASSERT_GT(S.numTasks(), 0u);
  std::uint64_t Total = 0;
  for (std::size_t T = 0; T < S.numTasks(); ++T) {
    std::vector<trace::Span> Spans;
    S.task(T)->forEachSpan(
        [&](const trace::Span &Sp) { Spans.push_back(Sp); });
    Total += Spans.size();
    // Ring order is completion order; sort to open order (ties: the
    // enclosing span first) and run the stack discipline check.
    std::stable_sort(Spans.begin(), Spans.end(),
                     [](const trace::Span &A, const trace::Span &B) {
                       if (A.BeginNs != B.BeginNs)
                         return A.BeginNs < B.BeginNs;
                       return A.EndNs > B.EndNs;
                     });
    std::vector<std::uint64_t> Stack; // EndNs of open spans
    for (const trace::Span &Sp : Spans) {
      EXPECT_LE(Sp.BeginNs, Sp.EndNs);
      EXPECT_LT(static_cast<unsigned>(Sp.Kind),
                static_cast<unsigned>(trace::SpanKind::NumKinds));
      while (!Stack.empty() && Sp.BeginNs >= Stack.back())
        Stack.pop_back();
      if (!Stack.empty()) {
        EXPECT_LE(Sp.EndNs, Stack.back())
            << "span " << trace::spanKindName(Sp.Kind)
            << " partially overlaps an enclosing span";
      }
      Stack.push_back(Sp.EndNs);
    }
  }
  EXPECT_GT(Total, 0u) << "traced PR run recorded no operator spans";
}

TEST(Trace, ForcedPerfUnavailableStillTraces) {
  trace::TraceSession S;
  S.forcePerfUnavailable();
  tracedRun(KernelKind::BfsWl, rmat(), S);

  EXPECT_FALSE(S.perfAvailable());
  ASSERT_FALSE(S.rounds().empty());
  for (const trace::RoundRecord &R : S.rounds())
    EXPECT_FALSE(R.Perf.Valid);
}

TEST(Trace, ExportersAcceptRecordedSession) {
  trace::TraceSession S;
  tracedRun(KernelKind::BfsHb, rmat(), S, Direction::Hybrid);

  std::string Summary = trace::renderTraceSummary(S);
  EXPECT_NE(Summary.find("frontier"), std::string::npos);
  EXPECT_NE(Summary.find("bfs-hb"), std::string::npos);

  std::string Path = ::testing::TempDir() + "trace_test_out.json";
  ASSERT_TRUE(trace::writeChromeTrace(S, Path));
  std::ifstream In(Path);
  ASSERT_TRUE(In.is_open());
  std::ostringstream Ss;
  Ss << In.rdbuf();
  std::string Json = Ss.str();
  std::remove(Path.c_str());
  ASSERT_FALSE(Json.empty());
  EXPECT_EQ(Json.front(), '{');
  EXPECT_NE(Json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(Json.find("\"direction\""), std::string::npos);
  EXPECT_NE(Json.find("run 0: bfs-hb"), std::string::npos);
}

TEST(Trace, MultipleRunsShareOneSession) {
  trace::TraceSession S;
  tracedRun(KernelKind::BfsWl, rmat(), S);
  tracedRun(KernelKind::Pr, rmat(), S);
  ASSERT_EQ(S.runs().size(), 2u);
  EXPECT_EQ(S.runs()[0].Name, "bfs-wl");
  EXPECT_EQ(S.runs()[1].Name, "pr");
  // Every round belongs to a recorded run, and round indices restart.
  bool SawRun1Round0 = false;
  for (const trace::RoundRecord &R : S.rounds()) {
    ASSERT_LT(R.Run, S.runs().size());
    if (R.Run == 1 && R.Round == 0)
      SawRun1Round0 = true;
  }
  EXPECT_TRUE(SawRun1Round0);
}

} // namespace

#endif // EGACS_TRACE
