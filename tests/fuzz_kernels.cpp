//===- tests/fuzz_kernels.cpp - Property-based fuzz driver ----------------===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Command-line driver for the property-based differential fuzzer
/// (verify/FuzzCampaign.h). Each seed deterministically derives one
/// adversarial graph plus one kernel-execution point across the full
/// configuration cross-product, runs the kernel, and checks the output
/// against the semantic oracles. Every failure prints a one-line replay
/// record; pasting its `--seed=`/`--config=` pair reproduces the run
/// byte-for-byte.
///
///   fuzz_kernels --seeds=200                  # fuzz seeds [1, 201)
///   fuzz_kernels --seed=137                   # replay one seed
///   fuzz_kernels --seed=137 --config=...      # replay with a pinned config
///   fuzz_kernels --graph-file=bug.txt ...     # fuzz a pinned graph
///   fuzz_kernels --time-budget=600 --seeds=100000   # nightly: wall-clock cap
///   fuzz_kernels --artifacts=DIR              # minimized repros + records
///   fuzz_kernels --selftest                   # prove oracles fire + replay
///
/// Exits 0 when every seed passes, 1 on oracle failures, 2 on bad usage.
///
//===----------------------------------------------------------------------===//

#include "graph/Generators.h"
#include "graph/Loader.h"
#include "support/Options.h"
#include "support/ParseEnum.h"
#include "trace/Trace.h"
#include "trace/TraceExport.h"
#include "verify/FuzzCampaign.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

using namespace egacs;
using namespace egacs::verify;

namespace {

//===----------------------------------------------------------------------===//
// Self-test: every oracle fires on an injected fault, and a seed replays
// byte-for-byte.
//===----------------------------------------------------------------------===//

int FailedChecks = 0;

void check(bool Ok, const std::string &What) {
  if (Ok) {
    std::printf("selftest: ok   %s\n", What.c_str());
  } else {
    std::printf("selftest: FAIL %s\n", What.c_str());
    ++FailedChecks;
  }
}

/// Runs \p Kind serially at width 1 on \p G, asserts the oracle accepts the
/// honest output, then injects \p Fault and asserts the oracle rejects it.
void checkOracleFires(KernelKind Kind, FaultKind Fault, const Csr &G,
                      TaskSystem &TS) {
  KernelConfig Cfg;
  Cfg.TS = &TS;
  Cfg.NumTasks = 1;
  // Couple (damping, tolerance) so PageRank converges inside the kernel's
  // round cap; the oracle's residual budget assumes it did.
  Cfg.PrDamping = 0.5f;
  Cfg.PrTolerance = 1e-3f;
  const NodeId Source = 0;
  KernelOutput Out =
      runKernel(Kind, simd::TargetKind::Scalar1, G, Cfg, Source);

  OracleResult Honest = checkKernelOutput(Kind, G, Source, Out, Cfg);
  check(Honest.Ok, std::string(kernelName(Kind)) + ": oracle accepts honest output" +
                       (Honest.Ok ? "" : " (" + Honest.Reason + ")"));

  bool Injected = injectFault(Fault, Kind, G, Source, Out);
  check(Injected, std::string(kernelName(Kind)) + ": fault injectable");
  if (!Injected)
    return;
  OracleResult Corrupt = checkKernelOutput(Kind, G, Source, Out, Cfg);
  check(!Corrupt.Ok,
        std::string(kernelName(Kind)) + ": oracle rejects injected fault" +
            (Corrupt.Ok ? "" : " (" + Corrupt.Reason + ")"));
}

int runSelftest() {
  SerialTaskSystem TS;

  // Star + path union: two components, so the star side (source 0) leaves
  // the path side unreachable — exactly what the parent-cycle and
  // merged-label injections need. Generators emit weight-1 edges, so the
  // weighted kernels run on it directly.
  Csr Union = disconnectedUnion(starGraph(4), pathGraph(3, true));
  Csr Path4 = pathGraph(4);
  Csr Star4 = starGraph(4);
  Csr K4 = completeGraph(4).sortedByDestination();

  checkOracleFires(KernelKind::BfsWl, FaultKind::BfsOffByOne, Union, TS);
  checkOracleFires(KernelKind::BfsCx, FaultKind::BfsOffByOne, Union, TS);
  checkOracleFires(KernelKind::BfsTp, FaultKind::BfsOffByOne, Union, TS);
  checkOracleFires(KernelKind::BfsHb, FaultKind::BfsOffByOne, Union, TS);
  checkOracleFires(KernelKind::SsspNf, FaultKind::SsspParentCycle, Union, TS);
  checkOracleFires(KernelKind::Cc, FaultKind::CcMergedLabels, Union, TS);
  checkOracleFires(KernelKind::Mis, FaultKind::MisNotMaximal, Path4, TS);
  checkOracleFires(KernelKind::Mst, FaultKind::MstWrongWeight, Union, TS);
  checkOracleFires(KernelKind::Pr, FaultKind::PrMassLeak, Star4, TS);
  checkOracleFires(KernelKind::Tri, FaultKind::TriWrongCount, K4, TS);

  // Replay determinism: the same seed must derive the same execution point
  // and the same graph in two independent campaigns — that is what makes a
  // printed `--seed=N --config=...` record reproduce byte-for-byte.
  bool SpecsMatch = true, GraphsMatch = true;
  for (std::uint64_t Seed = 1; Seed <= 64; ++Seed) {
    Xoshiro256 RngA(Seed), RngB(Seed);
    if (configSpec(sampleRun(RngA)) != configSpec(sampleRun(RngB)))
      SpecsMatch = false;
    FuzzGraph A = sampleFuzzGraph(RngA), B = sampleFuzzGraph(RngB);
    if (A.Desc != B.Desc || A.G.numNodes() != B.G.numNodes() ||
        A.G.numEdges() != B.G.numEdges())
      GraphsMatch = false;
    for (NodeId U = 0; GraphsMatch && U < A.G.numNodes(); ++U) {
      auto Na = A.G.neighbors(U), Nb = B.G.neighbors(U);
      if (!std::equal(Na.begin(), Na.end(), Nb.begin(), Nb.end()))
        GraphsMatch = false;
    }
  }
  check(SpecsMatch, "replay: same seed resamples the identical config spec");
  check(GraphsMatch, "replay: same seed resamples the identical graph");

  // Spec round-trip: parse(print(R)) prints the same line again.
  bool RoundTrips = true;
  for (std::uint64_t Seed = 1; Seed <= 64; ++Seed) {
    Xoshiro256 Rng(Seed);
    std::string Spec = configSpec(sampleRun(Rng));
    if (configSpec(parseConfigSpec(Spec)) != Spec)
      RoundTrips = false;
  }
  check(RoundTrips, "replay: config spec round-trips through the parser");

  // End-to-end determinism: two campaigns over the same seed range agree on
  // every verdict (and, were there failures, on every record byte).
  FuzzOptions FO;
  FO.BaseSeed = 1;
  FO.NumSeeds = 24;
  FO.Shrink = false;
  FuzzCampaign CampA(FO), CampB(FO);
  bool RunsMatch = true;
  for (std::uint64_t Seed = 1; Seed <= 24; ++Seed) {
    FuzzFailure Fa, Fb;
    bool Oa = CampA.runSeed(Seed, Fa);
    bool Ob = CampB.runSeed(Seed, Fb);
    if (Oa != Ob || (!Oa && Fa.Record != Fb.Record))
      RunsMatch = false;
  }
  check(RunsMatch, "replay: two campaigns agree on 24 seeds end to end");

  if (FailedChecks) {
    std::printf("selftest: %d check(s) FAILED\n", FailedChecks);
    return 1;
  }
  std::printf("selftest: all checks passed\n");
  return 0;
}

} // namespace

//===----------------------------------------------------------------------===//
// Campaign mode
//===----------------------------------------------------------------------===//

namespace {

int fuzzMain(int Argc, char **Argv) {
  Options Opt(Argc, Argv);
  if (Opt.getBool("selftest", false))
    return runSelftest();

  FuzzOptions FO;
  FO.NumSeeds = static_cast<int>(Opt.getInt("seeds", 100));
  FO.BaseSeed = static_cast<std::uint64_t>(Opt.getInt("base-seed", 1));
  std::int64_t OneSeed = Opt.getInt("seed", -1);
  if (OneSeed >= 0) {
    FO.BaseSeed = static_cast<std::uint64_t>(OneSeed);
    FO.NumSeeds = 1;
  }
  FO.ConfigOverride = Opt.getString("config", "");
  FO.GraphOverride = Opt.getString("graph", "");
  FO.TimeBudgetSec = Opt.getDouble("time-budget", 0);
  FO.ArtifactDir = Opt.getString("artifacts", "");
  FO.Shrink = Opt.getBool("shrink", true);
  FO.ShrinkBudget = static_cast<int>(Opt.getInt("shrink-budget", 300));
  FO.Verbose = Opt.getBool("verbose", false);

  // Tracing knobs (same contract as the bench harnesses): record every
  // fuzz kernel run, export Chrome JSON and/or the per-round table at exit.
  std::string TracePath = Opt.getString("trace", "");
  bool TraceSummary = Opt.getBool("trace-summary", false);
  std::unique_ptr<trace::TraceSession> Trace;
#ifdef EGACS_TRACE
  if (!TracePath.empty() || TraceSummary)
    Trace = std::make_unique<trace::TraceSession>();
  FO.Trace = Trace.get();
#else
  if (!TracePath.empty())
    parseEnumFail("option", "trace", "(none: built with EGACS_TRACE=OFF)");
  if (TraceSummary)
    parseEnumFail("option", "trace-summary",
                  "(none: built with EGACS_TRACE=OFF)");
#endif

  // A pinned graph file fuzzes configs against one fixed input — the replay
  // path for a minimized repro the shrinker wrote earlier.
  std::optional<Csr> Pinned;
  std::string GraphFile = Opt.getString("graph-file", "");
  if (!GraphFile.empty()) {
    Pinned = loadGraphAuto(GraphFile);
    if (!Pinned) {
      std::fprintf(stderr, "fuzz: cannot load graph file '%s'\n",
                   GraphFile.c_str());
      return 2;
    }
    FO.PinnedGraph = &*Pinned;
    FO.PinnedDesc = GraphFile;
  }

  FuzzCampaign Campaign(FO);
  FuzzStats Stats;
  std::vector<FuzzFailure> Failures = Campaign.run(Stats);

  for (const FuzzFailure &F : Failures) {
    std::printf("FAIL seed=%" PRIu64 ": %s\n", F.Seed, F.Reason.c_str());
    std::printf("  replay: fuzz_kernels %s\n", F.Record.c_str());
    std::printf("  graph:  %s (source %d)\n", F.GraphDesc.c_str(), F.Source);
    if (FO.Shrink)
      std::printf("  minimized: n=%d e=%" PRId64 "%s%s\n", F.MinNodes,
                  static_cast<std::int64_t>(F.MinEdges),
                  F.ReproPath.empty() ? "" : " -> ",
                  F.ReproPath.c_str());
  }

  // CI uploads this file as the failure artifact alongside the repro graphs.
  if (!Failures.empty() && !FO.ArtifactDir.empty()) {
    std::string RecordPath = FO.ArtifactDir + "/failures.txt";
    if (std::FILE *Fp = std::fopen(RecordPath.c_str(), "w")) {
      for (const FuzzFailure &F : Failures)
        std::fprintf(Fp, "%s\n", F.Record.c_str());
      std::fclose(Fp);
      std::printf("wrote %zu replay record(s) to %s\n", Failures.size(),
                  RecordPath.c_str());
    }
  }

  std::printf("fuzz: %d seed(s), %" PRId64 " kernel run(s), %.1fs (%.1f "
              "seeds/s), %d failure(s)\n",
              Stats.SeedsRun, Stats.KernelRuns, Stats.Seconds,
              Stats.Seconds > 0 ? Stats.SeedsRun / Stats.Seconds : 0.0,
              Stats.Failures);
  if (Trace) {
    if (TraceSummary)
      std::printf("\n%s", trace::renderTraceSummary(*Trace).c_str());
    if (!TracePath.empty() && trace::writeChromeTrace(*Trace, TracePath))
      std::printf("trace: wrote %s (%zu runs, %zu rounds)\n",
                  TracePath.c_str(), Trace->runs().size(),
                  Trace->rounds().size());
  }
  return Failures.empty() ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  try {
    return fuzzMain(Argc, Argv);
  } catch (const GraphSizeError &Err) {
    std::fprintf(stderr, "error: %s\n", Err.what());
    return 2;
  }
}
