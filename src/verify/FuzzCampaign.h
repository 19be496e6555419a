//===- verify/FuzzCampaign.h - Property-based kernel fuzzing ----*- C++ -*-===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The property-based differential fuzzer. One seed deterministically
/// derives one execution point (verify/ConfigSample.h) plus one adversarial
/// graph — empty, single vertex, self-loops, parallel edges, stars, long
/// chains, disconnected unions, and small road/rmat/random instances at
/// random scales — runs the kernel, and validates the output against the
/// semantic oracles (verify/Oracle.h), which never consult another kernel
/// run.
///
/// Every failure carries a replay line (`--seed=N --config=<spec>`) that
/// reproduces the run byte-for-byte, and — when an artifact directory is
/// configured — a greedily minimized repro graph (verify/Shrinker.h) on
/// which the same config still fails.
///
/// Fault injection (FaultKind) corrupts a correct kernel output the way a
/// real bug would; the driver's --selftest mode uses it to prove every
/// oracle actually fires and every replay line actually reproduces.
///
//===----------------------------------------------------------------------===//

#ifndef EGACS_VERIFY_FUZZCAMPAIGN_H
#define EGACS_VERIFY_FUZZCAMPAIGN_H

#include "graph/Csr.h"
#include "runtime/TaskSystem.h"
#include "verify/ConfigSample.h"
#include "verify/Oracle.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace egacs::trace {
class TraceSession;
} // namespace egacs::trace

namespace egacs::verify {

/// One sampled fuzz graph and its human-readable derivation.
struct FuzzGraph {
  Csr G;
  std::string Desc; ///< e.g. "star(8)+selfloops(2)+shuffle"
};

/// Draws one adversarial graph shape from \p Rng: a base shape (empty,
/// isolated vertices, path/cycle/star/complete, long chain, small
/// road/rmat/random, or a disconnected union of two such) followed by
/// random grafts of self-loops, duplicate edges, id shuffling, and random
/// symmetric weights.
FuzzGraph sampleFuzzGraph(Xoshiro256 &Rng);

/// Ways to corrupt a correct kernel output like a real bug would.
enum class FaultKind {
  None,            ///< leave the output intact (oracle must accept)
  BfsOffByOne,     ///< bump one finite non-source distance by one level
  SsspParentCycle, ///< give an unreachable component self-consistent labels
  CcMergedLabels,  ///< relabel one component with another's label
  MisNotMaximal,   ///< demote one member, leaving a coverable node
  MstWrongWeight,  ///< shift the forest weight by one
  PrMassLeak,      ///< leak extra rank mass into one node
  TriWrongCount,   ///< shift the triangle count by one
};

/// Applies \p Fault to \p Out (a correct output of \p Kind on \p G).
/// Returns false when the graph cannot express the fault (e.g. no
/// unreachable component to mislabel); Out is unchanged then.
bool injectFault(FaultKind Fault, KernelKind Kind, const Csr &G,
                 NodeId Source, KernelOutput &Out);

/// Runs \p R on \p G from \p Source and certifies the output with the
/// semantic oracle: the one run-and-check step of the fuzz campaign, its
/// shrinker and the config-grid test, so a grid failure and its fuzz replay
/// run the same code. R.Cfg.TS must be set. A \p Fault other than None
/// corrupts the output before the check (failure-path tests); a fault the
/// output cannot express leaves it intact.
OracleResult runChecked(const SampledRun &R, const Csr &G, NodeId Source,
                        FaultKind Fault = FaultKind::None);

/// Campaign controls (the fuzz_kernels driver maps its flags here).
struct FuzzOptions {
  std::uint64_t BaseSeed = 1;  ///< first seed; campaign runs [Base, Base+N)
  int NumSeeds = 100;
  std::string ConfigOverride;  ///< non-empty: replay this exact spec
  std::string GraphOverride;   ///< non-empty: pin a named graph (road/...)
  const Csr *PinnedGraph = nullptr; ///< non-null: pin this exact graph
  std::string PinnedDesc;      ///< description of PinnedGraph
  double TimeBudgetSec = 0;    ///< stop early after this much wall clock
  std::string ArtifactDir;     ///< non-empty: write minimized repros here
  bool Shrink = true;          ///< minimize failing graphs
  int ShrinkBudget = 300;      ///< max kernel re-runs per shrink
  bool Verbose = false;        ///< per-seed progress on stderr
  /// Non-null: record every fuzz kernel run into this tracing session
  /// (non-owning; only consulted in EGACS_TRACE builds).
  trace::TraceSession *Trace = nullptr;
};

/// One oracle rejection, fully replayable.
struct FuzzFailure {
  std::uint64_t Seed = 0;
  std::string Spec;      ///< configSpec of the failing run
  std::string GraphDesc; ///< derivation + size of the failing graph
  NodeId Source = 0;
  std::string Reason;    ///< the oracle's first violated property
  std::string Record;    ///< the full one-line replay record
  std::string ReproPath; ///< minimized edge-list file ("" if not written)
  NodeId MinNodes = 0;   ///< size of the minimized graph
  EdgeId MinEdges = 0;
};

/// Campaign counters for reporting.
struct FuzzStats {
  int SeedsRun = 0;
  int Failures = 0;
  std::int64_t KernelRuns = 0; ///< including shrink re-runs
  double Seconds = 0;
};

/// Runs seeds and owns the task systems (pools are cached per task count,
/// sized exactly to NumTasks so Iteration Outlining's workers==tasks
/// barrier constraint holds).
class FuzzCampaign {
public:
  explicit FuzzCampaign(FuzzOptions Opts);

  /// Runs one seed end to end. Returns true when the oracle accepted;
  /// otherwise fills \p Failure (including shrink artifacts per Opts).
  bool runSeed(std::uint64_t Seed, FuzzFailure &Failure);

  /// Runs the configured seed range, honouring the time budget.
  std::vector<FuzzFailure> run(FuzzStats &Stats);

  const FuzzOptions &options() const { return Opts; }

private:
  TaskSystem &taskSystem(bool Serial, int NumTasks);

  FuzzOptions Opts;
  SerialTaskSystem SerialTs;
  std::map<int, std::unique_ptr<ThreadPoolTaskSystem>> Pools;
  std::int64_t TotalKernelRuns = 0;
};

} // namespace egacs::verify

#endif // EGACS_VERIFY_FUZZCAMPAIGN_H
