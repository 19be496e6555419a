//===- bench/bench_fig8_scaling.cpp - Fig 8: core scalability -------------===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
// Reproduces Fig 8: speedup over the serial version as tasks (cores) grow,
// geomean across the three inputs. On this container the hardware may
// expose a single core, in which case the curve is necessarily flat — the
// harness still exercises the full task range functionally.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include <cmath>

using namespace egacs;
using namespace egacs::bench;
using namespace egacs::simd;

int main(int Argc, char **Argv) {
  BenchEnv Env(Argc, Argv);
  int MaxTasks = static_cast<int>(
      Env.Opts.getInt("max-tasks", std::max(2 * Env.NumTasks, 8)));
  banner("Fig 8 - scalability with task count", Env);
  TargetKind Target = bestTarget();

  std::vector<Input> Inputs = makeAllInputs(Env.Scale);
  std::vector<double> SerialMs;
  const KernelKind Kernels[] = {KernelKind::BfsWl, KernelKind::SsspNf,
                                KernelKind::Cc, KernelKind::Pr};
  for (const Input &In : Inputs)
    for (KernelKind Kind : Kernels)
      SerialMs.push_back(timeSerial(Kind, In, Env.Reps, Env.Verify));

  Table T({"tasks", "geomean speedup over serial"});
  for (int Tasks = 1; Tasks <= MaxTasks; Tasks *= 2) {
    auto TS = Env.makeTs(Tasks);
    double Geo = 0.0;
    int K = 0;
    std::size_t Idx = 0;
    for (const Input &In : Inputs)
      for (KernelKind Kind : Kernels) {
        KernelConfig Cfg = KernelConfig::allOptimizations(*TS, Tasks);
        double Ms = timeKernel(Kind, Target, In, Cfg, Env.Reps, false);
        Geo += std::log(SerialMs[Idx++] / Ms);
        ++K;
      }
    T.addRow({Table::fmt(static_cast<std::uint64_t>(Tasks)),
              Table::fmtSpeedup(std::exp(Geo / K))});
  }
  T.print();
  std::printf("\npaper shape: near-linear scaling up to the physical core "
              "count (Intel 8c, AMD <=16c, Phi <=18c), flattening beyond; "
              "SIMD multiplies the per-core speedup.\n");
  return 0;
}
