//===- bench/BenchCommon.h - Shared benchmark harness code ------*- C++ -*-===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared plumbing for the per-table/per-figure benchmark binaries: input
/// graph preparation (the paper's three graph classes at a configurable
/// scale), timed-and-verified kernel execution, and the default execution
/// configuration. Every harness accepts:
///
///   --scale=N   graph scale (default 3; paper-like sizes need ~10 and a
///               large machine)
///   --reps=N    timing repetitions (default 3; paper uses 20)
///   --tasks=N   ISPC-style task count (default: hardware threads)
///   --tasksys=S serial|spawn|pool|spin (default pool)
///   --chunk=N   work-stealing chunk size: each task's block is split into
///               chunks of N items that idle tasks may steal (default 1024)
///   --update=S  atomic|combined|privatized update engine policy
///               (default atomic)
///   --layout=S  csr|sell graph layout the kernels consume
///               (default csr)
///   --sigma=N   SELL-C-sigma sorting window in nodes (default 4096)
///   --prefetch=S none|rows|rows+props staged-loop prefetch policy
///               (default none, the exact pre-pipeline loops)
///   --pfdist=N  row-stage prefetch lookahead in vectors (default 8)
///   --direction=S push|pull|hybrid traversal direction for the
///               direction-capable kernels (default push)
///   --alpha=N   Beamer push->pull numerator for hybrid (default 15)
///   --beta=N    Beamer pull->push denominator for hybrid (default 18)
///   --json=P    also write the harness's measurements to P as JSON
///               (machine-readable perf trajectories)
///   --verify=0  skip output verification for faster sweeps
///   --trace=P   record per-round/per-operator spans for every kernel run
///               and export them as Chrome/Perfetto trace_event JSON to P
///               (EGACS_TRACE builds only; otherwise exits 2)
///   --trace-summary  print the per-round summary table at exit
///
/// or the equivalent EGACS_* environment variables. An input too large for
/// the 32-bit index space (GraphSizeError) prints its message and exits 2,
/// and so does a --key the harness never reads (see banner()).
///
//===----------------------------------------------------------------------===//

#ifndef EGACS_BENCH_BENCHCOMMON_H
#define EGACS_BENCH_BENCHCOMMON_H

#include "graph/Generators.h"
#include "kernels/Kernels.h"
#include "simd/Ops.h"
#include "simd/Targets.h"
#include "support/CpuInfo.h"
#include "support/Options.h"
#include "support/ParseEnum.h"
#include "support/Stats.h"
#include "support/Table.h"
#include "support/Timer.h"
#include "trace/Trace.h"
#include "trace/TraceExport.h"
#include "verify/Oracle.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace egacs::bench {

/// A prepared benchmark input.
struct Input {
  std::string Name;   ///< "road", "rmat", "random", or a variant
  Csr G;              ///< the graph (weights always present)
  Csr GSorted;        ///< destination-sorted variant (for tri)
  NodeId Source = 0;  ///< bfs/sssp source (highest-degree node)
};

/// The harness-wide tracing session, set by the live BenchEnv. timeKernel
/// and profileKernel attach it to every config they run, so harnesses that
/// build their own KernelConfig (most of them never call applySched) are
/// traced without per-site plumbing.
inline trace::TraceSession *&activeTrace() {
  static trace::TraceSession *S = nullptr;
  return S;
}

/// Installs (once) the harnesses' terminate handler: a GraphSizeError nobody
/// caught is a usage error, so it prints its message and exits 2 like a bad
/// option does; any other uncaught exception goes to the previous handler.
inline void installGraphSizeErrorExit() {
  static const std::terminate_handler Previous = std::set_terminate([] {
    try {
      if (std::exception_ptr E = std::current_exception())
        std::rethrow_exception(E);
    } catch (const GraphSizeError &Err) {
      std::fprintf(stderr, "error: %s\n", Err.what());
      std::exit(2);
    } catch (...) {
    }
    if (Previous)
      Previous();
    std::abort();
  });
}

/// The median of \p V (the mean of the middle two for an even count).
template <typename T> T median(std::vector<T> V) {
  std::sort(V.begin(), V.end());
  std::size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// Common harness options parsed from argv/environment.
struct BenchEnv {
  Options Opts;
  int Scale;
  int Reps;
  int NumTasks;
  TaskSystemKind TsKind;
  std::int64_t ChunkSize;
  UpdatePolicy Update;
  LayoutKind Layout;
  std::int32_t SellSigma;
  PrefetchPolicy Prefetch;
  int PrefetchDist;
  Direction Dir;
  int AlphaNum;
  int BetaDenom;
  std::string JsonPath;
  bool Verify;
  std::string TracePath;
  bool TraceSummary;
  /// Live tracing session when --trace/--trace-summary asked for one
  /// (EGACS_TRACE builds only); exported when the env is destroyed.
  std::unique_ptr<trace::TraceSession> Trace;

  BenchEnv(int Argc, char **Argv)
      : Opts(Argc, Argv),
        Scale(static_cast<int>(Opts.getInt("scale", 3))),
        Reps(static_cast<int>(Opts.getInt("reps", 3))),
        NumTasks(static_cast<int>(
            Opts.getInt("tasks", cpuInfo().HardwareThreads))),
        TsKind(parseTaskSystemKind(Opts.getString("tasksys", "pool"))),
        ChunkSize(Opts.getInt("chunk", 1024)),
        Update(parseUpdatePolicy(Opts.getString("update", "atomic"))),
        Layout(parseLayoutKind(Opts.getString("layout", "csr"))),
        SellSigma(static_cast<std::int32_t>(Opts.getInt("sigma", 1 << 12))),
        Prefetch(parsePrefetchPolicy(Opts.getString("prefetch", "none"))),
        PrefetchDist(static_cast<int>(Opts.getInt("pfdist", 8))),
        Dir(parseDirection(Opts.getString("direction", "push"))),
        AlphaNum(static_cast<int>(Opts.getInt("alpha", 15))),
        BetaDenom(static_cast<int>(Opts.getInt("beta", 18))),
        JsonPath(Opts.getString("json", "")),
        Verify(Opts.getBool("verify", true)),
        TracePath(Opts.getString("trace", "")),
        TraceSummary(Opts.getBool("trace-summary", false)) {
    installGraphSizeErrorExit();
    if (NumTasks < 1)
      NumTasks = 1;
    if (ChunkSize < 1)
      ChunkSize = 1;
    if (SellSigma < 1)
      SellSigma = 1;
#ifdef EGACS_TRACE
    if (!TracePath.empty() || TraceSummary) {
      Trace = std::make_unique<trace::TraceSession>();
      activeTrace() = Trace.get();
    }
#else
    // The knobs exist but the subsystem was compiled out: fail with the
    // uniform parse error (exit 2) instead of silently ignoring them.
    if (!TracePath.empty())
      parseEnumFail("option", "trace", "(none: built with EGACS_TRACE=OFF)");
    if (TraceSummary)
      parseEnumFail("option", "trace-summary",
                    "(none: built with EGACS_TRACE=OFF)");
#endif
  }

  ~BenchEnv() {
    exportTrace();
    if (Trace && activeTrace() == Trace.get())
      activeTrace() = nullptr;
  }
  BenchEnv(const BenchEnv &) = delete;
  BenchEnv &operator=(const BenchEnv &) = delete;

  /// Prints the per-round summary and/or writes the Chrome trace file, per
  /// the knobs. Runs once (the session stays readable afterwards).
  void exportTrace() {
    if (!Trace || TraceExported)
      return;
    TraceExported = true;
    if (TraceSummary)
      std::printf("\n%s", trace::renderTraceSummary(*Trace).c_str());
    if (!TracePath.empty() && trace::writeChromeTrace(*Trace, TracePath))
      std::printf("\ntrace: wrote %s (%zu runs, %zu rounds, %llu spans%s)\n",
                  TracePath.c_str(), Trace->runs().size(),
                  Trace->rounds().size(),
                  static_cast<unsigned long long>(totalSpans()),
                  Trace->perfAvailable() ? ", perf counters on"
                                         : ", perf counters unavailable");
  }

  /// Total operator spans retained across all task rings.
  std::uint64_t totalSpans() const {
    if (!Trace)
      return 0;
    std::uint64_t N = 0;
    for (std::size_t T = 0; T < Trace->numTasks(); ++T)
      N += Trace->task(T)->totalSpans() - Trace->task(T)->droppedSpans();
    return N;
  }

  /// Builds the configured task system.
  std::unique_ptr<TaskSystem> makeTs(int Workers = -1) const {
    return makeTaskSystem(TsKind, Workers < 0 ? NumTasks : Workers);
  }

  /// Applies the work-distribution, update-engine and layout knobs to a
  /// config. runKernel over a bare Csr honours Cfg.Layout by building the
  /// requested view on the fly.
  void applySched(KernelConfig &Cfg) const {
    Cfg.ChunkSize = ChunkSize;
    Cfg.Update = Update;
    Cfg.Layout = Layout;
    Cfg.SellSigma = SellSigma;
    Cfg.Prefetch = Prefetch;
    Cfg.PrefetchDist = PrefetchDist;
    Cfg.Dir = Dir;
    Cfg.AlphaNum = AlphaNum;
    Cfg.BetaDenom = BetaDenom;
    Cfg.Trace = Trace.get();
  }

private:
  bool TraceExported = false;
};

/// Machine-readable measurement output for the harnesses
/// (--json=<path>). Rows mirror the printed table: named columns, one cell
/// list per record call. Cells that parse fully as numbers are emitted as
/// JSON numbers, everything else as strings. The file is written when the
/// log is destroyed (end of main); an empty path disables the log.
class JsonLog {
public:
  /// Takes the output path from --json and, when the env carries a tracing
  /// session, embeds a per-round trace digest in the written file (path of
  /// the full Chrome trace, round/span totals, and a bounded per-round
  /// [run, round, ms, frontier, direction] array).
  explicit JsonLog(const BenchEnv &Env) : Path(Env.JsonPath), Env(&Env) {}
  ~JsonLog() { write(); }
  JsonLog(const JsonLog &) = delete;
  JsonLog &operator=(const JsonLog &) = delete;

  /// Attaches a top-level key/value pair (harness name, scale, ...).
  void meta(const std::string &Key, const std::string &Value) {
    Meta.emplace_back(Key, Value);
  }

  void setColumns(std::vector<std::string> Cols) { Columns = std::move(Cols); }

  void record(std::vector<std::string> Cells) {
    Rows.push_back(std::move(Cells));
  }

private:
  static bool numeric(const std::string &S) {
    if (S.empty())
      return false;
    char *End = nullptr;
    std::strtod(S.c_str(), &End);
    return End != nullptr && *End == '\0';
  }

  static void appendEscaped(std::string &Out, const std::string &S) {
    Out += '"';
    for (char C : S) {
      if (C == '"' || C == '\\')
        Out += '\\';
      Out += C;
    }
    Out += '"';
  }

  static void appendCell(std::string &Out, const std::string &S) {
    if (numeric(S))
      Out += S;
    else
      appendEscaped(Out, S);
  }

  void write() const {
    if (Path.empty())
      return;
    std::string Out = "{\n  \"meta\": {";
    for (std::size_t I = 0; I < Meta.size(); ++I) {
      Out += I ? ", " : "";
      appendEscaped(Out, Meta[I].first);
      Out += ": ";
      appendCell(Out, Meta[I].second);
    }
    Out += "},\n  \"columns\": [";
    for (std::size_t I = 0; I < Columns.size(); ++I) {
      Out += I ? ", " : "";
      appendEscaped(Out, Columns[I]);
    }
    Out += "],\n  \"rows\": [";
    for (std::size_t R = 0; R < Rows.size(); ++R) {
      Out += R ? ",\n    [" : "\n    [";
      for (std::size_t I = 0; I < Rows[R].size(); ++I) {
        Out += I ? ", " : "";
        appendCell(Out, Rows[R][I]);
      }
      Out += "]";
    }
    Out += "\n  ]";
    appendTrace(Out);
    Out += "\n}\n";
    if (std::FILE *F = std::fopen(Path.c_str(), "w")) {
      std::fwrite(Out.data(), 1, Out.size(), F);
      std::fclose(F);
    } else {
      std::fprintf(stderr, "warning: cannot write --json file '%s'\n",
                   Path.c_str());
    }
  }

  /// When the harness env carries a live tracing session, embeds its
  /// digest under a top-level "trace" key (bounded: at most MaxRows
  /// per-round entries, with a truncation marker).
  void appendTrace(std::string &Out) const {
    if (Env == nullptr || !Env->Trace)
      return;
    const trace::TraceSession &S = *Env->Trace;
    constexpr std::size_t MaxRows = 1024;
    char Buf[192];
    Out += ",\n  \"trace\": {\n    \"path\": ";
    appendEscaped(Out, Env->TracePath);
    std::snprintf(Buf, sizeof(Buf),
                  ",\n    \"runs\": %zu, \"rounds\": %zu, \"spans\": %llu,"
                  " \"droppedRounds\": %llu, \"droppedSpans\": %llu,"
                  " \"perfAvailable\": %s,\n    \"perRound\": [",
                  S.runs().size(), S.rounds().size(),
                  static_cast<unsigned long long>(Env->totalSpans()),
                  static_cast<unsigned long long>(S.droppedRounds()),
                  static_cast<unsigned long long>(S.droppedSpans()),
                  S.perfAvailable() ? "true" : "false");
    Out += Buf;
    std::size_t Emit = S.rounds().size() < MaxRows ? S.rounds().size()
                                                   : MaxRows;
    for (std::size_t I = 0; I < Emit; ++I) {
      const trace::RoundRecord &R = S.rounds()[I];
      std::snprintf(Buf, sizeof(Buf), "%s\n      [%u, %u, %.3f, %lld, ",
                    I ? "," : "", static_cast<unsigned>(R.Run),
                    static_cast<unsigned>(R.Round),
                    static_cast<double>(R.EndNs - R.BeginNs) / 1e6,
                    static_cast<long long>(R.Frontier));
      Out += Buf;
      appendEscaped(Out, R.Mode);
      Out += "]";
    }
    Out += "\n    ]";
    if (Emit < S.rounds().size()) {
      std::snprintf(Buf, sizeof(Buf), ",\n    \"perRoundTruncated\": %zu",
                    S.rounds().size() - Emit);
      Out += Buf;
    }
    Out += "\n  }";
  }

  std::string Path;
  const BenchEnv *Env = nullptr;
  std::vector<std::pair<std::string, std::string>> Meta;
  std::vector<std::string> Columns;
  std::vector<std::vector<std::string>> Rows;
};

/// Prepares an input over the graph \p G.
inline Input makeInput(const std::string &Name, Csr G) {
  Input In;
  In.Name = Name;
  In.G = std::move(G);
  In.GSorted = In.G.sortedByDestination();
  // Seed traversals from the highest-degree node so every run explores a
  // large component (the paper's sources sit in the giant component).
  EdgeId BestDeg = -1;
  for (NodeId N = 0; N < In.G.numNodes(); ++N)
    if (In.G.degree(N) > BestDeg) {
      BestDeg = In.G.degree(N);
      In.Source = N;
    }
  return In;
}

/// Prepares one named input at the harness scale.
inline Input makeInput(const std::string &Name, int Scale) {
  return makeInput(Name, namedGraph(Name, Scale));
}

/// The paper's three inputs.
inline std::vector<Input> makeAllInputs(int Scale) {
  std::vector<Input> Inputs;
  Inputs.push_back(makeInput("road", Scale));
  Inputs.push_back(makeInput("rmat", Scale));
  Inputs.push_back(makeInput("random", Scale));
  return Inputs;
}

/// Selects the graph variant a kernel needs.
inline const Csr &graphFor(const Input &In, KernelKind Kind) {
  return kernelNeedsSortedAdjacency(Kind) ? In.GSorted : In.G;
}

/// Certifies one kernel output with its semantic oracle (verify/Oracle.h).
/// On failure prints the oracle's reason, naming the run by \p What, and
/// returns false.
inline bool outputCertified(KernelKind Kind, const Input &In,
                            const KernelOutput &Out, const KernelConfig &Cfg,
                            const std::string &What) {
  verify::OracleResult R = verify::checkKernelOutput(
      Kind, graphFor(In, Kind), In.Source, Out, Cfg);
  if (!R.Ok)
    std::fprintf(stderr, "error: %s on %s (%s) failed verification: %s\n",
                 kernelName(Kind), In.Name.c_str(), What.c_str(),
                 R.Reason.c_str());
  return R.Ok;
}

/// The Cfg.Layout view of one graph, built ahead of the timed runs (never
/// inside them, unlike runKernel over a bare Csr) in the shape
/// runKernel(Csr) would use, plus its transpose once a pull-capable run
/// needs one.
struct PrebuiltLayout {
  AnyLayout L;
  LayoutOptions Opts;
  double BuildMs = 0.0; ///< layout plus transpose build time

  PrebuiltLayout(const Csr &G, simd::TargetKind Target,
                 const KernelConfig &Cfg) {
    Opts.SellChunk = simd::targetWidth(Target);
    Opts.SellSigma = Cfg.SellSigma;
    BuildMs = timeMs([&] { L = AnyLayout::build(Cfg.Layout, G, Opts); });
  }

  /// Builds the transpose the first time \p Kind runs a pull or hybrid
  /// direction over this layout.
  void ensureTranspose(KernelKind Kind, const KernelConfig &Cfg) {
    if (Cfg.Dir != Direction::Push && kernelUsesDirection(Kind) &&
        !L.hasTranspose())
      BuildMs += timeMs([&] { L.buildTranspose(Opts); });
  }
};

/// Runs \p Kind \p Reps times over a prebuilt layout and returns the
/// average milliseconds; certifies one extra untimed run's output when
/// \p Verify is set.
inline double timeKernel(KernelKind Kind, simd::TargetKind Target,
                         const Input &In, const KernelConfig &BaseCfg,
                         int Reps, bool Verify) {
  KernelConfig Cfg = BaseCfg;
  if (Cfg.Trace == nullptr)
    Cfg.Trace = activeTrace();
  PrebuiltLayout P(graphFor(In, Kind), Target, Cfg);
  P.ensureTranspose(Kind, Cfg);
  if (Verify && !outputCertified(
                    Kind, In, runKernel(Kind, Target, P.L, Cfg, In.Source),
                    Cfg, simd::targetName(Target)))
    std::exit(1);
  double Total = 0.0;
  for (int R = 0; R < Reps; ++R)
    Total += timeMs([&] { runKernel(Kind, Target, P.L, Cfg, In.Source); });
  return Total / Reps;
}

/// Runs once with dynamic-operation counting enabled and returns the
/// counter deltas (the Pin stand-in).
inline StatsSnapshot profileKernel(KernelKind Kind, simd::TargetKind Target,
                                   const Input &In,
                                   const KernelConfig &BaseCfg) {
  const Csr &G = graphFor(In, Kind);
  KernelConfig Cfg = BaseCfg;
  if (Cfg.Trace == nullptr)
    Cfg.Trace = activeTrace();
  simd::setOpCounting(true);
  StatsSnapshot Before = StatsSnapshot::capture();
  runKernel(Kind, Target, G, Cfg, In.Source);
  StatsSnapshot Delta = StatsSnapshot::capture() - Before;
  simd::setOpCounting(false);
  return Delta;
}

/// The serial baseline: the SPMD code at width 1 with one task (paper IV-A).
inline double timeSerial(KernelKind Kind, const Input &In, int Reps,
                         bool Verify) {
  SerialTaskSystem TS;
  KernelConfig Cfg = KernelConfig::allOptimizations(TS, 1);
  return timeKernel(Kind, simd::TargetKind::Scalar1, In, Cfg, Reps, Verify);
}

/// The best SIMD target this machine supports.
inline simd::TargetKind bestTarget() {
  if (simd::targetSupported(simd::TargetKind::Avx512x16))
    return simd::TargetKind::Avx512x16;
  if (simd::targetSupported(simd::TargetKind::Avx2x8))
    return simd::TargetKind::Avx2x8;
  return simd::TargetKind::Scalar8;
}

/// Prints the standard harness banner. Every harness reads all its own
/// options before calling this, so any command-line key still unread here
/// is a typo or a retired flag: it is reported and the harness exits 2
/// rather than running under a configuration nobody asked for.
inline void banner(const char *What, const BenchEnv &Env) {
  std::vector<std::string> Unread = Env.Opts.unreadKeys();
  for (const std::string &Key : Unread)
    std::fprintf(stderr, "error: unknown option '--%s'\n", Key.c_str());
  if (!Unread.empty())
    std::exit(2);
  std::printf("== EGACS reproduction: %s ==\n", What);
  std::printf("machine: %d hw threads, avx2=%d avx512=%d | scale=%d "
              "reps=%d tasks=%d tasksys=%d\n\n",
              cpuInfo().HardwareThreads, cpuInfo().HasAvx2,
              cpuInfo().HasAvx512f, Env.Scale, Env.Reps, Env.NumTasks,
              static_cast<int>(Env.TsKind));
}

} // namespace egacs::bench

#endif // EGACS_BENCH_BENCHCOMMON_H
