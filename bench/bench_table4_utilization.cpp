//===- bench/bench_table4_utilization.cpp - Table IV: lane utilization ----===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
// Reproduces Table IV: SIMD lane utilization of BFS-WL's inner (edge) loop
// and dynamic operation counts, unoptimized vs +NP+Fibers, on the road and
// rmat graphs. Paper: utilization rises from ~64%/32% to ~82%/84% and
// dynamic instructions drop sharply (18x for RMAT22).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace egacs;
using namespace egacs::bench;
using namespace egacs::simd;

int main(int Argc, char **Argv) {
  BenchEnv Env(Argc, Argv);
  banner("Table IV - SIMD lane utilization of the BFS inner loop", Env);
  TargetKind Target = bestTarget();

  Table T({"graph", "config", "lane util %", "spmd ops", "ops vs unopt"});
  for (const char *Name : {"road", "rmat"}) {
    Input In = makeInput(Name, Env.Scale);
    double UnoptOps = 0.0;
    for (bool Optimized : {false, true}) {
      SerialTaskSystem TS; // single task isolates the utilization effect
      KernelConfig Cfg = Optimized
                             ? KernelConfig::allOptimizations(TS, 1)
                             : KernelConfig::unoptimized(TS, 1);
      statsReset();
      StatsSnapshot D = profileKernel(KernelKind::BfsWl, Target, In, Cfg);
      double Util =
          D.get(Stat::InnerTotalLanes)
              ? 100.0 * static_cast<double>(D.get(Stat::InnerActiveLanes)) /
                    static_cast<double>(D.get(Stat::InnerTotalLanes))
              : 0.0;
      double Ops = static_cast<double>(D.get(Stat::SpmdOps));
      if (!Optimized)
        UnoptOps = Ops;
      T.addRow({Name, Optimized ? "+NP+Fibers" : "unoptimized",
                Table::fmt(Util, 1),
                Table::fmt(static_cast<std::uint64_t>(Ops)),
                Table::fmt(UnoptOps > 0 ? Ops / UnoptOps : 1.0, 3)});
    }
  }
  T.print();
  std::printf("\npaper shape: optimization lifts utilization to >80%% on "
              "both graph classes and cuts dynamic operations, most on the "
              "skewed rmat input.\n");

  // Companion view: inter-task balance of the same sweep. Lane utilization
  // (above) is the intra-vector story; the chunk/steal counters and the
  // per-episode critical path are the inter-task story on the same inputs.
  std::printf("\n-- task balance (pr, %d tasks) --\n", Env.NumTasks);
  auto TS = Env.makeTs();
  Table B({"graph", "chunks", "stolen", "steal-fail", "crit-path ms",
           "balance %"});
  for (const char *Name : {"road", "rmat"}) {
    Input In = makeInput(Name, Env.Scale);
    KernelConfig Cfg = KernelConfig::allOptimizations(*TS, Env.NumTasks);
    Cfg.ChunkSize = Env.ChunkSize;
    Cfg.SchedInstrument = true;
    StatsSnapshot Before = StatsSnapshot::capture();
    runKernel(KernelKind::Pr, Target, graphFor(In, KernelKind::Pr), Cfg,
              In.Source);
    StatsSnapshot D = StatsSnapshot::capture() - Before;
    double Crit = static_cast<double>(D.get(Stat::SchedCriticalNanos));
    double Busy = static_cast<double>(D.get(Stat::SchedTaskNanos));
    // 100% = every task equally busy every episode; lower = stragglers.
    double Balance = Crit > 0.0 ? 100.0 * Busy / (Crit * Env.NumTasks) : 100.0;
    B.addRow({Name, Table::fmt(D.get(Stat::ChunksDispatched)),
              Table::fmt(D.get(Stat::ChunksStolen)),
              Table::fmt(D.get(Stat::StealFailures)),
              Table::fmt(Crit / 1e6, 2), Table::fmt(Balance, 1)});
  }
  B.print();
  std::printf("\nthe skewed rmat input should show stolen chunks where its "
              "hub block would otherwise straggle; road's blocks are "
              "already balanced.\n");
  return 0;
}
