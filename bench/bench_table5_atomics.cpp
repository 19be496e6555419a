//===- bench/bench_table5_atomics.cpp - Table V: cooperative conversion ---===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
// Reproduces Table V: atomic worklist pushes, unoptimized vs task-level
// Cooperative Conversion vs fiber-level CC (applicable to bfs-cx/bfs-hb
// only). NP is always enabled alongside CC, as in the paper ("we always
// enable nested parallelism since it increases the number of active program
// instances").
//
// Next to the push counts the table surfaces the CAS instrumentation of
// the relaxation loops (simd/Atomics.h): hardware compare-exchange attempts
// and the failures that had to retry, measured on the task-CC
// configuration. Pass --checkstats=1 (CI smoke mode) to exit non-zero when
// the push or CAS counters stay zero.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace egacs;
using namespace egacs::bench;
using namespace egacs::simd;

namespace {

struct AtomicCounts {
  std::uint64_t Pushes = 0;
  std::uint64_t CasAttempts = 0;
  std::uint64_t CasFailures = 0;
};

AtomicCounts countPushAtomics(KernelKind Kind, TargetKind Target,
                              const Input &In, const KernelConfig &Cfg) {
  statsReset();
  runKernel(Kind, Target, graphFor(In, Kind), Cfg, In.Source);
  AtomicCounts C;
  C.Pushes = statGet(Stat::AtomicPushes);
  C.CasAttempts = statGet(Stat::CasAttempts);
  C.CasFailures = statGet(Stat::CasFailures);
  return C;
}

} // namespace

int main(int Argc, char **Argv) {
  BenchEnv Env(Argc, Argv);
  bool CheckStats = Env.Opts.getBool("checkstats", false);
  banner("Table V - atomic worklist pushes under Cooperative Conversion",
         Env);
  Input In = makeInput("road", Env.Scale);
  TargetKind Target = bestTarget();
  auto TS = Env.makeTs();

  std::uint64_t TotalPushes = 0, TotalCasAttempts = 0;

  Table T({"kernel", "unopt atomics", "task-CC", "reduction", "fiber-CC",
           "total reduction", "cas-att", "cas-fail"});
  const KernelKind Kernels[] = {KernelKind::BfsWl, KernelKind::BfsCx,
                                KernelKind::BfsHb, KernelKind::SsspNf,
                                KernelKind::Cc,    KernelKind::Mis};
  for (KernelKind Kind : Kernels) {
    KernelConfig Unopt = KernelConfig::unoptimized(*TS, Env.NumTasks);
    Unopt.IterationOutlining = true;
    AtomicCounts Naive = countPushAtomics(Kind, Target, In, Unopt);

    KernelConfig Cc = Unopt;
    Cc.NestedParallelism = true;
    Cc.CoopConversion = true;
    AtomicCounts TaskCc = countPushAtomics(Kind, Target, In, Cc);

    // Fibers enable fiber-level aggregation only in bfs-cx / bfs-hb.
    KernelConfig Fib = Cc;
    Fib.Fibers = true;
    AtomicCounts FiberCc = countPushAtomics(Kind, Target, In, Fib);

    bool FiberApplies =
        Kind == KernelKind::BfsCx || Kind == KernelKind::BfsHb;
    T.addRow({kernelName(Kind), Table::fmt(Naive.Pushes),
              Table::fmt(TaskCc.Pushes),
              Table::fmtSpeedup(TaskCc.Pushes
                                    ? static_cast<double>(Naive.Pushes) /
                                          static_cast<double>(TaskCc.Pushes)
                                    : 1.0),
              FiberApplies ? Table::fmt(FiberCc.Pushes) : "n/a",
              FiberApplies && FiberCc.Pushes
                  ? Table::fmtSpeedup(static_cast<double>(Naive.Pushes) /
                                      static_cast<double>(FiberCc.Pushes))
                  : "-",
              Table::fmt(TaskCc.CasAttempts),
              Table::fmt(TaskCc.CasFailures)});
    TotalPushes += TaskCc.Pushes;
    TotalCasAttempts += TaskCc.CasAttempts;
  }
  T.print();
  std::printf("\npaper shape: task-CC cuts pushes by the average active "
              "lane count; fiber-CC (bfs-cx/bfs-hb) reaches ~1 atomic per "
              "task per round (paper: 125x total for bfs-cx). cas-att / "
              "cas-fail are the relaxation loops' compare-exchange attempts "
              "and retried failures (task-CC config).\n");
  if (CheckStats && (TotalPushes == 0 || TotalCasAttempts == 0)) {
    std::fprintf(stderr,
                 "error: --checkstats: expected nonzero push (%llu) and CAS "
                 "attempt (%llu) counters (is EGACS_STATS off?)\n",
                 static_cast<unsigned long long>(TotalPushes),
                 static_cast<unsigned long long>(TotalCasAttempts));
    return 1;
  }
  return 0;
}
