//===- bench/bench_ablate.cpp - One harness for every design ablation -----===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
// Sweeps one design choice of the engine over the paper's three graph
// classes, the way the paper sets the fiber cap (Section III-B1), the NP
// staging buffer (III-B2), the hybrid switch point and pinning (IV).
//
//   $ bench_ablate --axis=<axis> [--scale=N] [--reps=3] [--tasks=N]
//                  [--checkstats=1] [--json=out.json] [--verify=0]
//   $ bench_ablate --axis=layout --scale=4 --reps=1 --checkstats=1  # CI
//
// Each axis below is data: a kernel list, a list of KernelConfig mutations
// (one row each) and the columns it prints. Rows start from
// allOptimizations plus every BenchCommon knob and override the swept
// field. One runner executes every row the same way:
//
//   * its layout, and the transpose when it pulls, is built once per input,
//     never inside a timed run;
//   * --reps timed runs with SchedInstrument give the median wall ms, the
//     median crit ms (sum over barrier episodes of the slowest task's CPU
//     time: the runtime a machine with >= tasks cores would see) and every
//     counter as the median per-rep delta;
//   * the first timed run's output is certified by its semantic oracle
//     (verify/Oracle.h), untimed;
//   * on axes whose gates read op-counted statistics every row gets one
//     extra op-counted run (op counting skews wall clock).
//
// --tasks defaults to at least 8: imbalance, contention and latency hiding
// need several tasks to show, and crit ms models the multi-core runtime
// either way. Time columns show the change against the kernel's latest
// baseline row (static sched, atomic update, csr, no prefetch, push,
// unpinned).
//
// --checkstats=1 adds the axis's gates to one gate table (axis, graph,
// subject, predicate, observed, verdict), printed at the end; the run exits
// 1 if any gate fails. The two crit-path-win gates (prefetch, direction) are
// skipped under TSan, whose instrumented memory accesses swamp the latency
// they measure; every counter gate runs in every build.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <tuple>
#include <utility>

using namespace egacs;
using namespace egacs::bench;
using namespace egacs::simd;

namespace {

#if defined(__SANITIZE_THREAD__)
constexpr bool UnderTsan = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr bool UnderTsan = true;
#else
constexpr bool UnderTsan = false;
#endif
#else
constexpr bool UnderTsan = false;
#endif

template <typename T> T median(std::vector<T> V) {
  std::sort(V.begin(), V.end());
  std::size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// The timed reps of one row, plus its optional op-counted run.
struct Measurement {
  std::vector<double> WallMs;        ///< one per timed rep
  std::vector<StatsSnapshot> Deltas; ///< counter deltas, one per timed rep
  StatsSnapshot Counted;             ///< the op-counted run (Axis::Counted)

  double wallMs() const { return median(WallMs); }
  std::uint64_t stat(Stat S) const {
    std::vector<std::uint64_t> V;
    for (const StatsSnapshot &D : Deltas)
      V.push_back(D.get(S));
    return median(V);
  }
  double critMs() const {
    return static_cast<double>(stat(Stat::SchedCriticalNanos)) / 1e6;
  }
};

/// One row of an axis: the mutation applied on top of the base config.
struct Variant {
  std::function<void(KernelConfig &)> Apply;
  /// Later rows of the same kernel print their time change against this.
  bool Baseline = false;
  /// A secondary sweep (direction's alpha/beta grid): printed, not gated.
  bool Sweep = false;
  /// Pinning of the task system the row runs on (the pinning axis).
  PinPolicy Pin = {};
};

/// One measured row.
struct Row {
  KernelKind Kind;
  Variant V;
  KernelConfig Cfg;
  const PrebuiltLayout *L;
  Measurement M;
  const Row *Base; ///< the latest baseline row of this kernel, if any
};

using RowPred = std::function<bool(const Row &)>;
using RowStat = std::function<std::uint64_t(const Row &)>;

/// A counter of the timed reps (the median per-rep delta).
RowStat timed(Stat S) {
  return [S](const Row &R) { return R.M.stat(S); };
}

/// A counter of the op-counted run.
RowStat opCounted(Stat S) {
  return [S](const Row &R) { return R.M.Counted.get(S); };
}

/// A value column: names the row's swept setting.
struct Label {
  const char *Header;
  std::function<std::string(const Row &)> Cell;
};

/// A metric column. Precision < 0 prints an integer count; NaN prints "-".
struct Column {
  const char *Header;
  const char *Key; ///< JSON column name
  std::function<double(const Row &)> Value;
  int Precision = -1;
  bool VsBase = false; ///< append the change against the row's baseline

  std::string cell(const Row &R, bool Json) const {
    double V = Value(R);
    if (std::isnan(V))
      return "-";
    if (Precision < 0)
      return Table::fmt(static_cast<std::uint64_t>(V));
    std::string S = Table::fmt(V, Json ? 3 : Precision);
    double B = VsBase && R.Base && !Json ? Value(*R.Base) : 0.0;
    if (B > 0.0 && V > 0.0 && V != B) {
      S += V < B ? " (" : " (+";
      S += Table::fmt(100.0 * (V / B - 1.0), 0);
      S += "%)";
    }
    return S;
  }
};

Column count(const char *Header, const char *Key, RowStat Get) {
  return {Header, Key,
          [Get](const Row &R) { return static_cast<double>(Get(R)); }};
}

/// A nanosecond counter of the timed reps, printed in ms.
Column nanosAsMs(const char *Header, const char *Key, Stat S, bool VsBase) {
  return {Header, Key,
          [S](const Row &R) { return static_cast<double>(R.M.stat(S)) / 1e6; },
          2, VsBase};
}

std::string str(std::uint64_t V) { return std::to_string(V); }

/// The --checkstats gate table: one row per predicate. Gate functions see
/// one input's rows at a time.
class GateTable {
public:
  GateTable(const char *Axis, const std::vector<Label> &Labels)
      : Axis(Axis), Labels(Labels) {}

  /// Runs \p Gates over the rows of one input.
  void check(const std::string &Graph, const std::vector<Row> &Rows,
             const std::function<void(GateTable &)> &Gates) {
    CurGraph = Graph;
    CurRows = &Rows;
    Gates(*this);
    CurRows = nullptr;
  }
  bool rmat() const { return CurGraph == "rmat"; }
  const std::vector<Row> &rows() const { return *CurRows; }

  /// \p Get of the first row \p Sel picks, or 0 without one.
  std::uint64_t value(const RowPred &Sel, const RowStat &Get) const {
    for (const Row &R : rows())
      if (Sel(R))
        return Get(R);
    return 0;
  }

  std::string name(const Row &R) const {
    std::string N = kernelName(R.Kind);
    for (const Label &L : Labels) {
      N += '/';
      N += L.Cell(R);
    }
    return N;
  }

  /// Adds one gate. Crit-path-win gates are skipped under TSan.
  void add(std::string Subject, std::string Predicate, bool Ok,
           std::string Observed, bool CritPathWin = false) {
    bool Skip = CritPathWin && UnderTsan;
    Failed += !Skip && !Ok;
    const char *Verdict = Skip ? "skip (tsan)" : Ok ? "pass" : "FAIL";
    T.addRow({Axis, CurGraph, std::move(Subject), std::move(Predicate),
              std::move(Observed), Verdict});
  }

  /// Adds one gate that holds when \p Holds is true on every row \p Sel
  /// picks (and it picks one at least); the observed cell names the first
  /// violating row and what \p Show reports for it.
  void every(std::string Subject, std::string Predicate, const RowPred &Sel,
             const RowPred &Holds,
             const std::function<std::string(const Row &)> &Show) {
    std::size_t N = 0;
    const Row *Bad = nullptr;
    for (const Row &R : rows()) {
      if (!Sel(R))
        continue;
      ++N;
      if (!Bad && !Holds(R))
        Bad = &R;
    }
    add(std::move(Subject), std::move(Predicate), N > 0 && !Bad,
        Bad ? name(*Bad) + ": " + Show(*Bad) : str(N) + " rows checked");
  }

  /// every() for one counter: \p Name is zero (\p WantZero) or positive on
  /// every row \p Sel picks.
  void everyStat(std::string Subject, const RowPred &Sel, const char *Name,
                 const RowStat &Get, bool WantZero) {
    every(
        std::move(Subject), std::string(Name) + (WantZero ? " == 0" : " > 0"),
        Sel, [&](const Row &R) { return (Get(R) == 0) == WantZero; },
        [&](const Row &R) { return std::string(Name) + "=" + str(Get(R)); });
  }

  /// The crit-path-win gate: some row \p Sel picks beat its baseline's
  /// crit path.
  void critWin(std::string Subject, std::string Predicate, const RowPred &Sel) {
    const Row *Win = nullptr;
    for (const Row &R : rows())
      if (!Win && Sel(R) && R.Base && R.M.critMs() > 0.0 &&
          R.M.critMs() < R.Base->M.critMs())
        Win = &R;
    add(std::move(Subject), std::move(Predicate), Win != nullptr,
        Win ? name(*Win) + ": " + Table::fmt(Win->M.critMs(), 2) + " < " +
                  Table::fmt(Win->Base->M.critMs(), 2)
            : "no win",
        true);
  }

  /// Prints the table; returns the exit status (1 if a gate failed).
  int evaluate() const {
    std::printf("\ngates:\n");
    T.print();
    if (Failed)
      std::fprintf(stderr, "error: --checkstats: %d gates failed\n", Failed);
    return Failed ? 1 : 0;
  }

private:
  const char *Axis;
  const std::vector<Label> &Labels;
  Table T{{"axis", "graph", "subject", "predicate", "observed", "verdict"}};
  int Failed = 0;
  std::string CurGraph;
  const std::vector<Row> *CurRows = nullptr;
};

struct Axis {
  const char *Name;
  const char *Title;
  std::vector<KernelKind> Kernels = {};
  /// The rows of one kernel, in print order.
  std::function<std::vector<Variant>(KernelKind)> Variants = nullptr;
  std::vector<Label> Labels = {};
  /// Metric columns after the common wall ms / crit ms pair.
  std::vector<Column> Columns = {};
  /// Every row gets one extra op-counted run.
  bool Counted = false;
  /// Adds the --checkstats gates of one input.
  std::function<void(GateTable &)> Gates = nullptr;
  /// Printed per input ahead of its table.
  std::function<void(const Input &)> Preamble = nullptr;
};

/// The same rows for every kernel.
std::function<std::vector<Variant>(KernelKind)>
forEveryKernel(std::vector<Variant> Vs) {
  return [Vs](KernelKind) { return Vs; };
}

/// A sweep over one integer KernelConfig field.
template <int KernelConfig::*Field>
std::vector<Variant> intSweep(std::initializer_list<int> Values) {
  std::vector<Variant> Vs;
  for (int V : Values)
    Vs.push_back({.Apply = [V](KernelConfig &C) { C.*Field = V; }});
  return Vs;
}
std::string fieldName(int V) { return std::to_string(V); }
std::string fieldName(UpdatePolicy P) { return updatePolicyName(P); }
std::string fieldName(LayoutKind K) { return layoutName(K); }
std::string fieldName(PrefetchPolicy P) { return prefetchPolicyName(P); }
std::string fieldName(Direction D) { return directionName(D); }

/// A value column printing one KernelConfig field.
template <auto Field> Label fieldLabel(const char *Header) {
  return {Header, [](const Row &R) { return fieldName(R.Cfg.*Field); }};
}

bool anyRow(const Row &) { return true; }

// --- sched --------------------------------------------------------------
//
// Work-distribution policy (static blocks vs shared-cursor chunks vs work
// stealing) x chunk size. The paper's Nested Parallelism balances lanes
// *within* a vector; this axis measures the inter-task analogue: on
// power-law (rmat) inputs the static block holding the hubs is the
// straggler of every barrier episode. Expected: on rmat, chunked/stealing
// cut crit ms and lift balance % for pr and tri; on road/random static is
// already balanced and the dynamic policies add only bounded overhead.
//
//   balance %                - mean task busy time / crit path (100% = no
//                              straggler);
//   chunks/stolen/steal-fail - scheduler instrumentation counters.
//
// No gates.
Axis schedAxis() {
  Axis A{"sched", "static vs chunked vs stealing"};
  A.Kernels = {KernelKind::Pr, KernelKind::Tri, KernelKind::Cc,
               KernelKind::BfsWl};
  const std::tuple<SchedPolicy, std::int64_t, bool> Policies[] = {
      {SchedPolicy::Static, 1024, false},  {SchedPolicy::Chunked, 256, false},
      {SchedPolicy::Chunked, 1024, false}, {SchedPolicy::Chunked, 1024, true},
      {SchedPolicy::Stealing, 256, false}, {SchedPolicy::Stealing, 1024, false},
      {SchedPolicy::Stealing, 4096, false}};
  std::vector<Variant> Vs;
  for (auto [P, Chunk, Guided] : Policies)
    Vs.push_back({.Apply =
                      [P, Chunk, Guided](KernelConfig &C) {
                        C.Sched = P;
                        C.ChunkSize = Chunk;
                        C.GuidedChunks = Guided;
                      },
                  .Baseline = P == SchedPolicy::Static});
  A.Variants = forEveryKernel(Vs);
  A.Labels = {{"sched", [](const Row &R) {
                 std::string N = schedPolicyName(R.Cfg.Sched);
                 if (R.Cfg.Sched == SchedPolicy::Static)
                   return N;
                 N += '/';
                 N += std::to_string(R.Cfg.ChunkSize);
                 return R.Cfg.GuidedChunks ? N + 'g' : N;
               }}};
  auto Balance = [](const Row &R) {
    auto Crit = static_cast<double>(R.M.stat(Stat::SchedCriticalNanos));
    auto Busy = static_cast<double>(R.M.stat(Stat::SchedTaskNanos));
    return Crit > 0.0 ? 100.0 * Busy / (Crit * R.Cfg.NumTasks) : 100.0;
  };
  A.Columns = {{"balance %", "balance_pct", Balance, 1},
               count("chunks", "chunks", timed(Stat::ChunksDispatched)),
               count("stolen", "stolen", timed(Stat::ChunksStolen)),
               count("steal-fail", "steal_fail", timed(Stat::StealFailures))};
  return A;
}

// --- update -------------------------------------------------------------
//
// Update-engine policy (sched/UpdateEngine.h) over the cmpxchg-heavy
// kernels. The paper names the "extensive use of cmpxchg" the CPU
// bottleneck of PR and MST; this axis measures how much of it each policy
// removes:
//
//   cas-att / cas-fail - hardware compare-exchange attempts issued by the
//                        CAS loops, and the ones that lost a race and
//                        retried;
//   saved              - lanes folded into a same-destination neighbour by
//                        in-vector conflict combining (each is one CAS
//                        chain not issued);
//   binned             - (dst, contribution) pairs staged by the Blocked
//                        policy's scatter phase;
//   sc-crit / mg-crit  - crit-path ms of the engine's scatter and merge
//                        phases.
//
// Privatized/Blocked apply to pr's commutative accumulation; the
// min-relaxation kernels (cc, sssp-nf, mst) degrade them to Combined, so
// they get only atomic/combined rows. Expected: on rmat (hubs => duplicate
// in-vector destinations) combined cuts pr/mst CAS by the duplicate rate,
// and privatized/blocked trade pr's scatter-phase CAS for a merge pass; on
// road duplicates are rare and atomic is already near-optimal.
//
// Gates, rmat pr: the CAS and combining counters are live, and Combined
// cuts CAS attempts by at least 90% of the lanes it combined away (every
// combined-away lane is >= one CAS chain not issued; 10% slack for
// contention-retry noise).
Axis updateAxis() {
  Axis A{"update", "atomic vs combined vs privatized vs blocked"};
  A.Kernels = {KernelKind::Pr, KernelKind::Cc, KernelKind::SsspNf,
               KernelKind::Mst};
  A.Variants = [](KernelKind K) {
    std::vector<Variant> Vs;
    for (UpdatePolicy P : {UpdatePolicy::Atomic, UpdatePolicy::Combined,
                           UpdatePolicy::Privatized, UpdatePolicy::Blocked})
      if (K == KernelKind::Pr || P == UpdatePolicy::Atomic ||
          P == UpdatePolicy::Combined)
        Vs.push_back({.Apply = [P](KernelConfig &C) { C.Update = P; },
                      .Baseline = P == UpdatePolicy::Atomic});
    return Vs;
  };
  A.Labels = {fieldLabel<&KernelConfig::Update>("update")};
  A.Columns = {
      count("cas-att", "cas_att", timed(Stat::CasAttempts)),
      count("cas-fail", "cas_fail", timed(Stat::CasFailures)),
      count("saved", "saved", timed(Stat::CombinedLanesSaved)),
      count("binned", "binned", timed(Stat::UpdatePairsBinned)),
      nanosAsMs("sc-crit ms", "sc_crit_ms", Stat::UpdateScatterCritNanos, true),
      nanosAsMs("mg-crit ms", "mg_crit_ms", Stat::UpdateMergeCritNanos, false)};
  A.Gates = [](GateTable &G) {
    if (!G.rmat())
      return;
    auto pr = [&](UpdatePolicy P, Stat S) {
      return G.value(
          [P](const Row &R) {
            return R.Kind == KernelKind::Pr && R.Cfg.Update == P;
          },
          timed(S));
    };
    std::uint64_t Att = pr(UpdatePolicy::Atomic, Stat::CasAttempts);
    std::uint64_t CombAtt = pr(UpdatePolicy::Combined, Stat::CasAttempts);
    std::uint64_t Saved = pr(UpdatePolicy::Combined, Stat::CombinedLanesSaved);
    G.add("pr atomic, combined", "cas-att > 0 and saved > 0",
          Att > 0 && Saved > 0,
          "cas-att=" + str(Att) + " saved=" + str(Saved));
    G.add("pr combined", "cas-att <= atomic cas-att - 0.9*saved",
          CombAtt + Saved * 9 / 10 <= Att,
          str(CombAtt) + " vs " + str(Att) + " - 0.9*" + str(Saved));
  };
  return A;
}

/// The SELL padding/locality trade-off: sigma = C keeps the original order
/// but pads every chunk to its longest row; sigma = n is full degree
/// sorting with minimal padding.
void printSigmaSweep(const Input &In) {
  std::int32_t Chunk = targetWidth(bestTarget());
  std::printf("sell padding on %s at C=%d:", In.Name.c_str(), Chunk);
  for (std::int32_t Sigma : {Chunk, 256, 1 << 12, 1 << 16}) {
    if (Sigma < Chunk)
      continue;
    SellImage Img = buildSellImage(In.G, Chunk, Sigma);
    double Pad =
        In.G.numEdges() == 0
            ? 0.0
            : 100.0 *
                  static_cast<double>(Img.storedEntries() - In.G.numEdges()) /
                  static_cast<double>(In.G.numEdges());
    std::printf("  sigma=%d -> %s%%", Sigma, Table::fmt(Pad, 1).c_str());
  }
  std::printf("\n");
}

// --- layout -------------------------------------------------------------
//
// Graph storage layout (graph/GraphView.h). The paper hard-wires CSR and
// pays one hardware gather per neighbor vector (its Table VI); this axis
// measures how much of that gather traffic the alternative layouts convert
// into unit-stride vector loads, and what they pay for it:
//
//   gather-ln / contig-ln - neighbor lanes fetched by a hardware gather vs
//                           by a contiguous vector load over SELL slices
//                           (op-counted run);
//   contig%               - contig-ln / (gather-ln + contig-ln);
//   build ms              - one-time layout (and transpose) construction,
//                           outside timing;
//   aux MB                - layout metadata beyond the CSR arrays;
//   pad%                  - SELL padding entries relative to real edges.
//
// Topology-driven sweeps (bfs-tp, pr) run slot-aligned and convert their
// low-degree lanes; worklist-driven kernels (cc, sssp) traverse in
// frontier order and stay on the CSR gather surface, so their rows show
// what the layout does NOT buy. (Heavy NP-bin rows read contiguously under
// every layout, so csr rows on hub-heavy inputs already show a contig
// share.) Tri is excluded: it wants destination-sorted adjacency. A
// per-input sigma sweep prints ahead of each table: padding falls as sigma
// grows; rmat needs the large windows, road barely pads.
//
// Gates, rmat bfs-tp and pr: csr issues neighbor gathers and sell issues
// contiguous loads, and sell converts >= 50% of the csr gather lanes.
Axis layoutAxis() {
  Axis A{"layout", "csr vs hubcsr vs sell-c-sigma"};
  A.Kernels = {KernelKind::BfsTp, KernelKind::Cc, KernelKind::SsspNf,
               KernelKind::Pr};
  std::vector<Variant> Vs;
  for (LayoutKind K : AllLayoutKinds)
    Vs.push_back({.Apply = [K](KernelConfig &C) { C.Layout = K; },
                  .Baseline = K == LayoutKind::Csr});
  A.Variants = forEveryKernel(Vs);
  A.Labels = {fieldLabel<&KernelConfig::Layout>("layout")};
  RowStat Gather = opCounted(Stat::NeighborGatherLanes);
  RowStat Contig = opCounted(Stat::NeighborContigLanes);
  auto ContigPct = [=](const Row &R) {
    auto G = static_cast<double>(Gather(R));
    auto C = static_cast<double>(Contig(R));
    return G + C == 0.0 ? 0.0 : 100.0 * C / (G + C);
  };
  auto AuxMb = [](const Row &R) {
    return static_cast<double>(R.L->L.layoutAuxBytes()) / (1024.0 * 1024.0);
  };
  auto PadPct = [](const Row &R) {
    const SellView *S = R.L->L.sell();
    return S ? S->paddingOverheadPercent() : std::nan("");
  };
  A.Columns = {count("gather-ln", "gather_lanes", Gather),
               count("contig-ln", "contig_lanes", Contig),
               {"contig%", "contig_pct", ContigPct, 1},
               {"build ms", "build_ms",
                [](const Row &R) { return R.L->BuildMs; }, 2},
               {"aux MB", "aux_mb", AuxMb, 2},
               {"pad%", "pad_pct", PadPct, 1}};
  A.Counted = true;
  A.Gates = [=](GateTable &G) {
    if (!G.rmat())
      return;
    for (KernelKind K : {KernelKind::BfsTp, KernelKind::Pr}) {
      auto at = [&](LayoutKind L, const RowStat &Get) {
        return G.value(
            [&](const Row &R) { return R.Kind == K && R.Cfg.Layout == L; },
            Get);
      };
      std::uint64_t CsrGather = at(LayoutKind::Csr, Gather);
      std::uint64_t SellGather = at(LayoutKind::Sell, Gather);
      std::uint64_t SellContig = at(LayoutKind::Sell, Contig);
      std::string Subject = std::string(kernelName(K)) + " csr, sell";
      G.add(Subject, "csr gather-ln > 0 and sell contig-ln > 0",
            CsrGather > 0 && SellContig > 0,
            "csr gather-ln=" + str(CsrGather) +
                " sell contig-ln=" + str(SellContig));
      G.add(Subject, "sell gather-ln <= 50% of csr gather-ln",
            SellGather * 2 <= CsrGather,
            str(SellGather) + " of " + str(CsrGather));
    }
  };
  A.Preamble = printSigmaSweep;
  return A;
}

// --- prefetch -----------------------------------------------------------
//
// Staged-loop prefetch pipeline (sched/Prefetch.h) over the gather-bound
// kernels x the three layouts, sweeping the row-stage lookahead 0..32
// vectors for both staged policies. The irregular neighbor gathers are
// exactly the latency the pipeline hides; SELL slices get the contiguous
// prefetch shape, CSR/HubCSR the per-lane span shape. pr and bfs-tp sweep
// every edge each round (the paper's memory-bound kernels); cc adds a
// worklist-order sweep. Tri is excluded as in the layout axis. Expected:
// on rmat, rows+props at 4-16 vectors shortens crit ms (SELL needs less
// help); on cache-resident road it is near-neutral; distance 0 inspects
// just before executing and mostly pays overhead.
//
//   pf-issued - prefetch requests generated by the inspect stages
//               (exactly 0 under --prefetch=none);
//   pf-lines  - cache lines forwarded after duplicate-line suppression
//               (<= pf-issued).
//
// Gates, rmat: none rows issue no prefetches; every staged row issues some,
// with pf-lines <= pf-issued; and (crit-path win, skipped under TSan) some
// staged row of pr or bfs-tp beats its own no-prefetch crit path on at
// least one layout.
Axis prefetchAxis() {
  Axis A{"prefetch", "none vs rows vs rows+props x distance"};
  A.Kernels = {KernelKind::Pr, KernelKind::BfsTp, KernelKind::Cc};
  std::vector<Variant> Vs;
  for (LayoutKind K : AllLayoutKinds) {
    Vs.push_back({.Apply =
                      [K](KernelConfig &C) {
                        C.Layout = K;
                        C.Prefetch = PrefetchPolicy::None;
                      },
                  .Baseline = true});
    for (PrefetchPolicy P : {PrefetchPolicy::Rows, PrefetchPolicy::RowsProps})
      for (int D : {0, 1, 2, 4, 8, 16, 32})
        Vs.push_back({.Apply = [K, P, D](KernelConfig &C) {
          C.Layout = K;
          C.Prefetch = P;
          C.PrefetchDist = D;
        }});
  }
  A.Variants = forEveryKernel(Vs);
  auto Dist = [](const Row &R) {
    return R.Cfg.Prefetch == PrefetchPolicy::None
               ? std::string("-")
               : std::to_string(R.Cfg.PrefetchDist);
  };
  A.Labels = {fieldLabel<&KernelConfig::Layout>("layout"),
              fieldLabel<&KernelConfig::Prefetch>("prefetch"),
              {"dist", Dist}};
  RowStat Issued = timed(Stat::PrefetchesIssued);
  RowStat Lines = timed(Stat::PrefetchLinesTouched);
  A.Columns = {count("pf-issued", "pf_issued", Issued),
               count("pf-lines", "pf_lines", Lines)};
  A.Gates = [=](GateTable &G) {
    if (!G.rmat())
      return;
    auto none = [](const Row &R) {
      return R.Cfg.Prefetch == PrefetchPolicy::None;
    };
    auto staged = [&](const Row &R) { return !none(R); };
    G.everyStat("none rows", none, "pf-issued", Issued, true);
    G.everyStat("staged rows", staged, "pf-issued", Issued, false);
    G.every(
        "staged rows", "pf-lines <= pf-issued", staged,
        [&](const Row &R) { return Lines(R) <= Issued(R); },
        [&](const Row &R) {
          return "pf-lines=" + str(Lines(R)) + " pf-issued=" + str(Issued(R));
        });
    G.critWin("pr, bfs-tp staged rows", "some crit ms < its none row's",
              [&](const Row &R) {
                return staged(R) && (R.Kind == KernelKind::Pr ||
                                     R.Kind == KernelKind::BfsTp);
              });
  };
  return A;
}

// --- direction ----------------------------------------------------------
//
// Direction-optimizing traversal (worklist/BitmapFrontier.h plus the
// pull-direction kernels) over the direction-capable kernels x the three
// layouts, then, for bfs-hb, a sweep of the Beamer switch thresholds
// (alpha, beta) around the GAP defaults (15, 18): alpha 1 barely ever
// switches to pull, alpha 64 switches almost immediately; beta 2 bails back
// to push early, beta 64 stays dense to the end. Low-diameter power-law
// inputs (rmat) spend most of their traversal in a few huge frontiers where
// the pull direction's early-exiting in-neighbor scan beats push's
// atomic-heavy expansion; high-diameter road networks keep frontiers tiny
// and should stay in push mode (forced pull loses badly there). pr's
// always-dense round makes pull a pure win: same arithmetic, zero CAS.
//
//   dir-sw                - direction switches taken by the hybrid
//                           heuristic (exactly 0 under push);
//   pull-edges/pull-exits - in-edges scanned by pull rounds and lanes
//                           retired by the first-hit early exit;
//   conv                  - sparse<->dense frontier conversions;
//   cas                   - compare-exchange attempts (pull pr must be 0).
//
// Gates: every push row reports zero for each pull statistic (op-count
// neutrality); every pull/hybrid pr row issues zero CAS (the pull
// accumulation is atomic-free by construction); on rmat the hybrid bfs
// rows switch direction and retire lanes through the early exit; and
// (crit-path win, skipped under TSan) on rmat some pull or hybrid bfs-hb
// row beats its push crit path on at least one layout. The alpha/beta sweep
// rows are not gated.
Axis directionAxis() {
  Axis A{"direction", "push vs pull vs hybrid x layout, alpha/beta sweep"};
  A.Kernels = {KernelKind::BfsHb, KernelKind::BfsWl, KernelKind::Cc,
               KernelKind::Pr};
  A.Variants = [](KernelKind Kind) {
    std::vector<Variant> Vs;
    for (LayoutKind K : AllLayoutKinds) {
      for (Direction D : {Direction::Push, Direction::Pull, Direction::Hybrid})
        Vs.push_back({.Apply =
                          [K, D](KernelConfig &C) {
                            C.Layout = K;
                            C.Dir = D;
                          },
                      .Baseline = D == Direction::Push});
      for (int Alpha : {1, 4, 15, 64})
        for (int Beta : {2, 18, 64})
          if (Kind == KernelKind::BfsHb)
            Vs.push_back({.Apply =
                              [K, Alpha, Beta](KernelConfig &C) {
                                C.Layout = K;
                                C.Dir = Direction::Hybrid;
                                C.AlphaNum = Alpha;
                                C.BetaDenom = Beta;
                              },
                          .Sweep = true});
    }
    return Vs;
  };
  A.Labels = {fieldLabel<&KernelConfig::Layout>("layout"),
              fieldLabel<&KernelConfig::Dir>("dir"),
              fieldLabel<&KernelConfig::AlphaNum>("alpha"),
              fieldLabel<&KernelConfig::BetaDenom>("beta")};
  const std::pair<const char *, Stat> PullStats[] = {
      {"dir-sw", Stat::DirectionSwitches},
      {"pull-edges", Stat::PullEdgesScanned},
      {"pull-exits", Stat::PullEarlyExits},
      {"conv", Stat::FrontierConversions}};
  for (auto [Name, S] : PullStats)
    A.Columns.push_back(count(Name, Name, timed(S)));
  A.Columns.push_back(count("cas", "cas", timed(Stat::CasAttempts)));
  A.Gates = [PullStats](GateTable &G) {
    auto push = [](const Row &R) { return R.Cfg.Dir == Direction::Push; };
    for (auto [Name, S] : PullStats)
      G.everyStat("push rows", push, Name, timed(S), true);
    auto pullPr = [](const Row &R) {
      return R.Kind == KernelKind::Pr && R.Cfg.Dir != Direction::Push;
    };
    G.everyStat("pull/hybrid pr rows", pullPr, "cas",
                timed(Stat::CasAttempts), true);
    if (!G.rmat())
      return;
    std::uint64_t Switches = 0, Exits = 0;
    for (const Row &R : G.rows())
      if (!R.V.Sweep && R.Cfg.Dir == Direction::Hybrid &&
          (R.Kind == KernelKind::BfsHb || R.Kind == KernelKind::BfsWl)) {
        Switches += R.M.stat(Stat::DirectionSwitches);
        Exits += R.M.stat(Stat::PullEarlyExits);
      }
    G.add("hybrid bfs-hb, bfs-wl rows",
          "sum dir-sw > 0 and sum pull-exits > 0", Switches > 0 && Exits > 0,
          "dir-sw=" + str(Switches) + " pull-exits=" + str(Exits));
    G.critWin("pull/hybrid bfs-hb rows", "some crit ms < its push row's",
              [](const Row &R) {
                return R.Kind == KernelKind::BfsHb && !R.V.Sweep &&
                       R.Cfg.Dir != Direction::Push;
              });
  };
  return A;
}

// --- hybrid -------------------------------------------------------------
//
// bfs-hb's density threshold: it goes dense (topology rounds) when the
// frontier exceeds |V| / denom. denom = 1 never goes dense (the pure
// worklist path, degenerating to bfs-cx); denom = 2^30 makes the threshold
// zero (always dense, the pure topology path). Small denominators go dense
// early: cheap on low-diameter rmat/random, full rescans wasted on the
// long-diameter road. The default |V|/20 is safe everywhere.
//
//   items-pushed - worklist items appended;
//   gather-ops   - gather operations of the op-counted run.
//
// Gates, rmat: both extremes push worklist items, and always-dense
// executes more gather ops than never-dense (dense rounds rescan every
// node's distance per level; both styles push the same discovered
// frontier, so the scan cost is the observable difference).
Axis hybridAxis() {
  Axis A{"hybrid", "bfs-hb dense-switch threshold (default |V|/20)"};
  A.Kernels = {KernelKind::BfsHb};
  A.Variants = forEveryKernel(
      intSweep<&KernelConfig::HybridDenominator>({1, 4, 20, 100, 1 << 30}));
  A.Labels = {fieldLabel<&KernelConfig::HybridDenominator>("denom")};
  RowStat Pushed = timed(Stat::ItemsPushed);
  RowStat Gathers = opCounted(Stat::GatherOps);
  A.Columns = {count("items-pushed", "items_pushed", Pushed),
               count("gather-ops", "gather_ops", Gathers)};
  A.Counted = true;
  A.Gates = [=](GateTable &G) {
    if (!G.rmat())
      return;
    auto at = [&](int D, const RowStat &Get) {
      return G.value(
          [D](const Row &R) { return R.Cfg.HybridDenominator == D; }, Get);
    };
    std::uint64_t NeverPushed = at(1, Pushed);
    std::uint64_t AlwaysPushed = at(1 << 30, Pushed);
    G.add("never-, always-dense", "items-pushed > 0",
          NeverPushed > 0 && AlwaysPushed > 0,
          "never=" + str(NeverPushed) + " always=" + str(AlwaysPushed));
    std::uint64_t NeverGathers = at(1, Gathers);
    std::uint64_t AlwaysGathers = at(1 << 30, Gathers);
    G.add("never-, always-dense", "always gather-ops > never gather-ops",
          AlwaysGathers > NeverGathers,
          str(AlwaysGathers) + " vs " + str(NeverGathers));
  };
  return A;
}

// --- pinning ------------------------------------------------------------
//
// CPU pinning: the paper pins EGACS tasks for the scalability and SMT
// studies and reports that "pinning alone speeds up EGACS by 2% on
// average" (Section IV). Pinned rows run on a second task system that pins
// worker i to CPU i; their wall ms shows the change against the unpinned
// row, and the geomean gain prints after the tables.
//
//   launches - task launches the runtime performed.
//
// Gate, every graph: every row launched tasks.
Axis pinningAxis() {
  Axis A{"pinning", "task pinning (paper: ~2% average gain)"};
  A.Kernels = {KernelKind::BfsWl, KernelKind::Cc, KernelKind::SsspNf,
               KernelKind::Pr};
  A.Variants =
      forEveryKernel({{.Apply = [](KernelConfig &) {}, .Baseline = true},
                      {.Apply = [](KernelConfig &) {}, .Pin = {true, 1}}});
  A.Labels = {{"pin", [](const Row &R) {
                 return std::string(R.V.Pin.Enabled ? "pinned" : "unpinned");
               }}};
  A.Columns = {count("launches", "launches", timed(Stat::TaskLaunches))};
  A.Gates = [](GateTable &G) {
    G.everyStat("all rows", anyRow, "launches", timed(Stat::TaskLaunches),
                false);
  };
  return A;
}

// --- npbuffer -----------------------------------------------------------
//
// Capacity of the Nested Parallelism fine-grained staging buffer (Section
// III-B2's inspector-executor): larger buffers pack low-degree edges into
// fuller vectors across vertex chunks, smaller buffers keep the staged data
// hot in cache. Buffer size must never change results; every capacity is
// verified.
//
//   gather-ln - neighbor lanes fetched by a hardware gather, which includes
//               the staging buffer's gather flush (op-counted run).
//
// Gate, rmat: the smallest capacity drives edges through the gather flush.
Axis npbufferAxis() {
  Axis A{"npbuffer", "NP staging buffer capacity (default 4096)"};
  A.Kernels = {KernelKind::BfsWl, KernelKind::SsspNf, KernelKind::Cc};
  A.Variants = forEveryKernel(
      intSweep<&KernelConfig::NpBufferCapacity>({64, 512, 4096, 32768}));
  A.Labels = {fieldLabel<&KernelConfig::NpBufferCapacity>("cap")};
  RowStat Gather = opCounted(Stat::NeighborGatherLanes);
  A.Columns = {count("gather-ln", "gather_lanes", Gather)};
  A.Counted = true;
  A.Gates = [=](GateTable &G) {
    if (G.rmat())
      G.everyStat(
          "cap=64 rows",
          [](const Row &R) { return R.Cfg.NpBufferCapacity == 64; },
          "gather-ln", Gather, false);
  };
  return A;
}

// --- fibercount ---------------------------------------------------------
//
// MaxNumFibersPerTask, which the paper "set empirically to 256 to limit
// resource consumption while maximizing average speedup" (Section III-B1),
// on the fiber-eligible BFS variants. cap = 1 disables the thread-block
// emulation entirely, so both extremes run distinct code paths; every cap
// is verified. Very large caps grow per-fiber state past the cache.
//
//   barrier-waits - barrier episodes executed inside outlined iterations.
//
// Gate, every graph: every row executed barrier episodes.
Axis fibercountAxis() {
  Axis A{"fibercount", "MaxNumFibersPerTask (paper default 256)"};
  A.Kernels = {KernelKind::BfsCx, KernelKind::BfsHb};
  A.Variants = forEveryKernel(
      intSweep<&KernelConfig::MaxFibersPerTask>({1, 16, 64, 256, 1024}));
  A.Labels = {fieldLabel<&KernelConfig::MaxFibersPerTask>("cap")};
  A.Columns = {
      count("barrier-waits", "barrier_waits", timed(Stat::BarrierWaits))};
  A.Gates = [](GateTable &G) {
    G.everyStat("all rows", anyRow, "barrier-waits", timed(Stat::BarrierWaits),
                false);
  };
  return A;
}

Axis parseAxis(const std::string &Name) {
  const std::pair<const char *, Axis (*)()> Axes[] = {
      {"sched", schedAxis},         {"update", updateAxis},
      {"layout", layoutAxis},       {"prefetch", prefetchAxis},
      {"direction", directionAxis}, {"hybrid", hybridAxis},
      {"pinning", pinningAxis},     {"npbuffer", npbufferAxis},
      {"fibercount", fibercountAxis}};
  std::string Valid;
  for (const auto &[AxisName, Make] : Axes) {
    if (Name == AxisName)
      return Make();
    Valid += Valid.empty() ? "" : "|";
    Valid += AxisName;
  }
  parseEnumFail("axis", Name, Valid);
}

/// Runs one row: the timed reps, the oracle check of the first rep's
/// output, and the op-counted run when \p Counted. Returns false when
/// verification fails.
bool measure(Row &R, const Input &In, TargetKind Target, int Reps,
             bool Verify, bool Counted, const std::string &Name) {
  const AnyLayout &L = R.L->L;
  KernelOutput First;
  for (int Rep = 0; Rep < Reps; ++Rep) {
    KernelOutput Out;
    StatsSnapshot Before = StatsSnapshot::capture();
    R.M.WallMs.push_back(timeMs(
        [&] { Out = runKernel(R.Kind, Target, L, R.Cfg, In.Source); }));
    R.M.Deltas.push_back(StatsSnapshot::capture() - Before);
    if (Rep == 0)
      First = std::move(Out);
  }
  if (Verify && !outputCertified(R.Kind, In, First, R.Cfg, Name))
    return false;
  if (Counted) {
    setOpCounting(true);
    StatsSnapshot Before = StatsSnapshot::capture();
    runKernel(R.Kind, Target, L, R.Cfg, In.Source);
    R.M.Counted = StatsSnapshot::capture() - Before;
    setOpCounting(false);
  }
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  BenchEnv Env(Argc, Argv);
  Axis A = parseAxis(Env.Opts.getString("axis", ""));
  if (Env.Opts.getInt("tasks", -1) < 0)
    Env.NumTasks = std::max(Env.NumTasks, 8);
  Env.Reps = std::max(Env.Reps, 1);
  bool CheckStats = Env.Opts.getBool("checkstats", false);
  banner((std::string(A.Name) + " ablation - " + A.Title).c_str(), Env);
  TargetKind Target = bestTarget();
  std::printf("target: %s (C=%d), sigma=%d\n\n", targetName(Target),
              targetWidth(Target), Env.SellSigma);
  auto TS = Env.makeTs();
  std::unique_ptr<TaskSystem> PinnedTS; // the pinning axis's second system

  std::vector<std::pair<KernelKind, Variant>> Plan;
  for (KernelKind Kind : A.Kernels)
    for (Variant &V : A.Variants(Kind))
      Plan.emplace_back(Kind, std::move(V));

  std::vector<Column> Columns = {
      {"wall ms", "wall_ms", [](const Row &R) { return R.M.wallMs(); }, 2,
       true},
      nanosAsMs("crit ms", "crit_ms", Stat::SchedCriticalNanos, true)};
  Columns.insert(Columns.end(), A.Columns.begin(), A.Columns.end());
  std::vector<std::string> Headers = {"kernel"}, Keys = {"input", "kernel"};
  for (const Label &L : A.Labels) {
    Headers.push_back(L.Header);
    Keys.push_back(L.Header);
  }
  for (const Column &C : Columns) {
    Headers.push_back(C.Header);
    Keys.push_back(C.Key);
  }
  JsonLog Json(Env);
  Json.meta("harness", "bench_ablate");
  Json.meta("axis", A.Name);
  Json.meta("scale", std::to_string(Env.Scale));
  Json.meta("tasks", std::to_string(Env.NumTasks));
  Json.meta("target", targetName(Target));
  Json.setColumns(Keys);

  GateTable Gates(A.Name, A.Labels);
  double LogPinGain = 0.0;
  int PinGains = 0;
  for (const Input &In : makeAllInputs(Env.Scale)) {
    std::printf("-- %s (%d nodes, %d arcs) --\n", In.Name.c_str(),
                In.G.numNodes(), In.G.numEdges());
    if (A.Preamble)
      A.Preamble(In);
    // Layouts are built on first use and kept for the input's later rows.
    std::map<std::pair<LayoutKind, const Csr *>, PrebuiltLayout> Layouts;
    std::vector<Row> Rows;
    Rows.reserve(Plan.size()); // keeps the Base pointers into Rows valid
    for (const auto &[Kind, V] : Plan) {
      const Row *Base = nullptr;
      for (const Row &Prev : Rows)
        if (Prev.Kind == Kind && Prev.V.Baseline)
          Base = &Prev;
      if (V.Pin.Enabled && !PinnedTS)
        PinnedTS = makeTaskSystem(Env.TsKind, Env.NumTasks, V.Pin);
      TaskSystem &RowTS = V.Pin.Enabled ? *PinnedTS : *TS;
      KernelConfig Cfg = KernelConfig::allOptimizations(RowTS, Env.NumTasks);
      Env.applySched(Cfg);
      V.Apply(Cfg);
      Cfg.SchedInstrument = true;
      const Csr &G = graphFor(In, Kind);
      PrebuiltLayout &L =
          Layouts.try_emplace({Cfg.Layout, &G}, G, Target, Cfg).first->second;
      L.ensureTranspose(Kind, Cfg);
      Row &R = Rows.emplace_back(Row{Kind, V, Cfg, &L, {}, Base});
      if (!measure(R, In, Target, Env.Reps, Env.Verify, A.Counted,
                   Gates.name(R)))
        return 1;
    }

    Table T(Headers);
    for (const Row &R : Rows) {
      std::vector<std::string> Cells = {kernelName(R.Kind)};
      for (const Label &L : A.Labels)
        Cells.push_back(L.Cell(R));
      std::vector<std::string> JsonCells = Cells;
      JsonCells.insert(JsonCells.begin(), In.Name);
      for (const Column &C : Columns) {
        Cells.push_back(C.cell(R, false));
        JsonCells.push_back(C.cell(R, true));
      }
      T.addRow(std::move(Cells));
      Json.record(std::move(JsonCells));
      if (R.V.Pin.Enabled && R.Base) {
        LogPinGain += std::log(R.Base->M.wallMs() / R.M.wallMs());
        ++PinGains;
      }
    }
    T.print();
    std::printf("\n");
    if (CheckStats && A.Gates)
      Gates.check(In.Name, Rows, A.Gates);
  }
  if (PinGains)
    std::printf("geomean pinning gain: %.3fx\n",
                std::exp(LogPinGain / PinGains));
  return CheckStats && A.Gates ? Gates.evaluate() : 0;
}
