//===- tests/EngineGoldenStatsTest.cpp - Op-count golden gate -------------===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
// The operator-engine neutrality gate: every kernel runs a pre-recorded set
// of config specs (verify/ConfigSample one-liners covering the layout,
// prefetch, direction, update, and optimization-bundle axes) on fixed
// generated graphs, and the resulting deterministic operation counters must
// match the checked-in goldens bit for bit. The goldens were recorded from
// the hand-rolled pre-engine kernels, so any loop-shape drift introduced by
// the engine (an extra gather, a lost prefetch, a reordered push) fails here
// even when results stay correct.
//
// Regenerate (only when an op-count change is intended and explained):
//   EGACS_GOLDEN_REGEN=1 ./egacs_tests --gtest_filter='EngineGoldenStats.*'
//
//===----------------------------------------------------------------------===//

#include "graph/Generators.h"
#include "kernels/Kernels.h"
#include "runtime/TaskSystem.h"
#include "simd/Ops.h"
#include "support/Stats.h"
#include "trace/Trace.h"
#include "verify/ConfigSample.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

using namespace egacs;
using namespace egacs::simd;

#ifdef EGACS_STATS

namespace {

/// Counters that are deterministic for a serial single-task run. Timing
/// counters and contention outcomes (steals, CAS retries) are excluded, as
/// is PrefetchLinesTouched (its duplicate suppression keys on cache-line
/// *addresses*, so it varies with heap placement run to run); at one task
/// the rest are pure functions of the loop shapes.
constexpr Stat TrackedStats[] = {
    Stat::AtomicPushes,        Stat::ItemsPushed,
    Stat::InnerActiveLanes,    Stat::InnerTotalLanes,
    Stat::SpmdOps,             Stat::GatherOps,
    Stat::ScatterOps,          Stat::TaskLaunches,
    Stat::BarrierWaits,        Stat::ChunksDispatched,
    Stat::SchedEpisodes,       Stat::CasAttempts,
    Stat::CombinedLanesSaved,  Stat::NeighborGatherLanes,
    Stat::NeighborContigLanes, Stat::PrefetchesIssued,
    Stat::DirectionSwitches,   Stat::PullEdgesScanned,
    Stat::PullEarlyExits,      Stat::FrontierConversions,
};

struct GoldenCase {
  const char *Graph; ///< "rmat" or "road"
  const char *Spec;  ///< verify::parseConfigSpec one-liner
};

// Every case pins tasks=1,ts=serial: the vector packing, scheduling order,
// and CAS outcomes are then deterministic, so the tracked counters are exact.
// Axes covered: all 10 kernels at defaults, the three layouts, both prefetch
// policies, pull/hybrid directions, all three update policies, the paper's
// unoptimized bundle, and scalar/4-wide targets. (At one task the work
// distributor hands each loop its whole range in one call, so the chunk
// size cannot move a count.)
const GoldenCase Cases[] = {
    // All kernels, default knobs, 8-wide portable target.
    {"rmat", "kernel=bfs-wl,target=avx1-i32x8,tasks=1,ts=serial"},
    {"rmat", "kernel=bfs-cx,target=avx1-i32x8,tasks=1,ts=serial"},
    {"rmat", "kernel=bfs-tp,target=avx1-i32x8,tasks=1,ts=serial"},
    {"rmat", "kernel=bfs-hb,target=avx1-i32x8,tasks=1,ts=serial"},
    {"rmat", "kernel=cc,target=avx1-i32x8,tasks=1,ts=serial"},
    {"rmat", "kernel=tri,target=avx1-i32x8,tasks=1,ts=serial"},
    {"rmat", "kernel=sssp,target=avx1-i32x8,tasks=1,ts=serial"},
    {"rmat", "kernel=mis,target=avx1-i32x8,tasks=1,ts=serial"},
    {"rmat", "kernel=pr,target=avx1-i32x8,tasks=1,ts=serial"},
    {"rmat", "kernel=mst,target=avx1-i32x8,tasks=1,ts=serial"},
    // Width diversity: 1-wide degenerate vectors and a 4-wide target.
    {"rmat", "kernel=bfs-wl,target=scalar-i32x1,tasks=1,ts=serial"},
    {"rmat", "kernel=pr,target=scalar-i32x1,tasks=1,ts=serial"},
    {"rmat", "kernel=cc,target=avx1-i32x4,tasks=1,ts=serial"},
    {"rmat", "kernel=mst,target=avx1-i32x4,tasks=1,ts=serial"},
    // Layout axis: SELL-C-sigma storage.
    {"rmat", "kernel=bfs-tp,target=avx1-i32x8,tasks=1,ts=serial,layout=sell,"
             "sigma=64"},
    {"rmat", "kernel=pr,target=avx1-i32x8,tasks=1,ts=serial,layout=sell,"
             "sigma=4096"},
    {"rmat", "kernel=cc,target=avx1-i32x8,tasks=1,ts=serial,layout=sell,"
             "sigma=64"},
    {"rmat", "kernel=sssp,target=avx1-i32x8,tasks=1,ts=serial,layout=sell,"
             "sigma=64"},
    {"rmat", "kernel=tri,target=avx1-i32x8,tasks=1,ts=serial,layout=sell,"
             "sigma=64"},
    // Prefetch axis: row staging and row+property staging.
    {"rmat", "kernel=bfs-wl,target=avx1-i32x8,tasks=1,ts=serial,"
             "prefetch=rows,pfdist=4"},
    {"rmat", "kernel=bfs-wl,target=avx1-i32x8,tasks=1,ts=serial,"
             "prefetch=rows+props,pfdist=2"},
    {"rmat", "kernel=pr,target=avx1-i32x8,tasks=1,ts=serial,"
             "prefetch=rows+props,pfdist=4"},
    {"rmat", "kernel=cc,target=avx1-i32x8,tasks=1,ts=serial,"
             "prefetch=rows,pfdist=8"},
    {"rmat", "kernel=tri,target=avx1-i32x8,tasks=1,ts=serial,"
             "prefetch=rows,pfdist=4"},
    {"rmat", "kernel=mst,target=avx1-i32x8,tasks=1,ts=serial,"
             "prefetch=rows+props,pfdist=4"},
    {"rmat", "kernel=sssp,target=avx1-i32x8,tasks=1,ts=serial,"
             "prefetch=rows+props,pfdist=2,layout=sell,sigma=64"},
    // Staging on the unfibered worklist loop, on the plain (non-NP) edge
    // walk over SELL, and on hybrid SELL pull walks (perfbench rmat-hybrid's
    // shape).
    {"rmat", "kernel=bfs-wl,target=avx1-i32x8,tasks=1,ts=serial,fib=0,"
             "prefetch=rows,pfdist=4"},
    {"rmat", "kernel=bfs-tp,target=avx1-i32x8,tasks=1,ts=serial,np=0,"
             "prefetch=rows+props,pfdist=4,layout=sell,sigma=64"},
    {"rmat", "kernel=bfs-hb,target=avx1-i32x8,tasks=1,ts=serial,dir=hybrid,"
             "layout=sell,sigma=64,prefetch=rows+props,pfdist=4"},
    // Direction axis: forced pull and hybrid switching.
    {"rmat", "kernel=bfs-wl,target=avx1-i32x8,tasks=1,ts=serial,dir=pull"},
    {"rmat", "kernel=bfs-wl,target=avx1-i32x8,tasks=1,ts=serial,dir=hybrid,"
             "alpha=4,beta=18"},
    {"rmat", "kernel=bfs-hb,target=avx1-i32x8,tasks=1,ts=serial,dir=pull"},
    {"rmat", "kernel=bfs-hb,target=avx1-i32x8,tasks=1,ts=serial,dir=hybrid"},
    {"rmat", "kernel=cc,target=avx1-i32x8,tasks=1,ts=serial,dir=pull"},
    {"rmat", "kernel=cc,target=avx1-i32x8,tasks=1,ts=serial,dir=hybrid,"
             "alpha=4,beta=2"},
    {"rmat", "kernel=pr,target=avx1-i32x8,tasks=1,ts=serial,dir=pull"},
    {"rmat", "kernel=pr,target=avx1-i32x8,tasks=1,ts=serial,dir=hybrid"},
    // Update-engine axis: combining and privatization.
    {"rmat", "kernel=cc,target=avx1-i32x8,tasks=1,ts=serial,"
             "update=combined"},
    {"rmat", "kernel=sssp,target=avx1-i32x8,tasks=1,ts=serial,"
             "update=combined"},
    {"rmat",
     "kernel=mst,target=avx1-i32x8,tasks=1,ts=serial,update=combined"},
    {"rmat", "kernel=pr,target=avx1-i32x8,tasks=1,ts=serial,"
             "update=privatized"},
    {"rmat", "kernel=bfs-wl,target=avx1-i32x8,tasks=1,ts=serial,"
             "update=combined"},
    // The paper's unoptimized bundle (no IO/NP/CC/fibers).
    {"rmat", "kernel=bfs-wl,target=avx1-i32x8,tasks=1,ts=serial,io=0,np=0,"
             "cc=0,fib=0"},
    {"rmat", "kernel=pr,target=avx1-i32x8,tasks=1,ts=serial,io=0,np=0,cc=0,"
             "fib=0"},
    {"rmat", "kernel=mis,target=avx1-i32x8,tasks=1,ts=serial,io=0,np=0,"
             "cc=0,fib=0"},
    // Road-class graph: high diameter, near-uniform degree.
    {"road", "kernel=bfs-wl,target=avx1-i32x8,tasks=1,ts=serial"},
    {"road", "kernel=sssp,target=avx1-i32x8,tasks=1,ts=serial,delta=512"},
    {"road", "kernel=cc,target=avx1-i32x8,tasks=1,ts=serial,dir=hybrid"},
    {"road", "kernel=bfs-hb,target=avx1-i32x8,tasks=1,ts=serial,"
             "prefetch=rows+props,pfdist=4"},
};

std::string goldenPath() {
  return std::string(EGACS_SRC_DIR) + "/../tests/golden/engine_stats.golden";
}

const Csr &testGraph(const std::string &Name) {
  // Destination-sorted (tri's precondition) weighted graphs; deterministic.
  static const Csr Rmat = withRandomWeights(
      rmatGraph(/*Scale=*/9, /*EdgeFactor=*/8, /*Seed=*/42)
          .sortedByDestination(),
      /*MaxWeight=*/64, /*Seed=*/7);
  static const Csr Road =
      roadGraph(24, 24, /*DiagonalFraction=*/0.05, /*Seed=*/5)
          .sortedByDestination();
  return Name == "road" ? Road : Rmat;
}

/// Runs one case and renders its tracked-counter line. With \p Session the
/// run records into it (tracing must not change a single count).
std::string runCase(const GoldenCase &C,
                    trace::TraceSession *Session = nullptr) {
  verify::SampledRun R = verify::parseConfigSpec(C.Spec);
  SerialTaskSystem Serial;
  R.Cfg.TS = &Serial;
  R.Cfg.Trace = Session;
  const Csr &G = testGraph(C.Graph);

  statsReset();
  setOpCounting(true);
  StatsSnapshot Before = StatsSnapshot::capture();
  runKernel(R.Kernel, R.Target, G, R.Cfg, /*Source=*/0);
  StatsSnapshot Delta = StatsSnapshot::capture() - Before;
  setOpCounting(false);
  statsReset();

  std::ostringstream Os;
  for (Stat S : TrackedStats)
    Os << statName(S) << '=' << Delta.get(S) << ' ';
  std::string Line = Os.str();
  if (!Line.empty())
    Line.pop_back();
  return Line;
}

std::string caseKey(const GoldenCase &C) {
  return std::string(C.Graph) + "|" + C.Spec;
}

TEST(EngineGoldenStats, CountersMatchPreEngineGoldens) {
  const bool Regen = std::getenv("EGACS_GOLDEN_REGEN") != nullptr;

  if (Regen) {
    std::ofstream Out(goldenPath(), std::ios::trunc);
    ASSERT_TRUE(Out.is_open()) << "cannot write " << goldenPath();
    Out << "# Deterministic per-run operation counters, one line per config\n"
           "# spec (tests/EngineGoldenStatsTest.cpp). Recorded from the\n"
           "# pre-engine hand-rolled kernels; the operator engine must\n"
           "# reproduce every count bit for bit.\n";
    for (const GoldenCase &C : Cases)
      Out << caseKey(C) << " -> " << runCase(C) << "\n";
    GTEST_SKIP() << "regenerated " << goldenPath();
  }

  std::ifstream In(goldenPath());
  ASSERT_TRUE(In.is_open())
      << goldenPath()
      << " missing; run with EGACS_GOLDEN_REGEN=1 to record it";
  std::map<std::string, std::string> Golden;
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::size_t Sep = Line.find(" -> ");
    ASSERT_NE(Sep, std::string::npos) << "malformed golden line: " << Line;
    Golden[Line.substr(0, Sep)] = Line.substr(Sep + 4);
  }
  EXPECT_EQ(Golden.size(), std::size(Cases))
      << "golden file and case table disagree; regenerate deliberately";

  for (const GoldenCase &C : Cases) {
    auto It = Golden.find(caseKey(C));
    if (It == Golden.end()) {
      ADD_FAILURE() << "no golden entry for " << caseKey(C)
                    << "; regenerate deliberately";
      continue;
    }
    EXPECT_EQ(runCase(C), It->second) << caseKey(C);
  }
}

#ifdef EGACS_TRACE

// Tracing neutrality: attaching a TraceSession must not change a single
// tracked operation count — the spans observe the loops, never alter them.
// Cases span the frontier engine (hybrid switching), the update engine's
// merge phase, the staged prefetch loops, and the flat edge sweep.
TEST(EngineGoldenStats, TracedRunCountersBitIdentical) {
  const GoldenCase Picks[] = {
      {"rmat", "kernel=bfs-hb,target=avx1-i32x8,tasks=1,ts=serial,"
               "dir=hybrid"},
      {"rmat", "kernel=pr,target=avx1-i32x8,tasks=1,ts=serial,"
               "update=privatized"},
      {"rmat", "kernel=tri,target=avx1-i32x8,tasks=1,ts=serial,"
               "prefetch=rows,pfdist=4"},
      {"road", "kernel=bfs-wl,target=avx1-i32x8,tasks=1,ts=serial"},
  };
  for (const GoldenCase &C : Picks) {
    std::string Plain = runCase(C);
    trace::TraceSession Session;
    EXPECT_EQ(runCase(C, &Session), Plain) << caseKey(C);
    EXPECT_FALSE(Session.rounds().empty()) << caseKey(C);
  }
}

#endif // EGACS_TRACE

} // namespace

#endif // EGACS_STATS
