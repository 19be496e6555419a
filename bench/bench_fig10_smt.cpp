//===- bench/bench_fig10_smt.cpp - Fig 10: SMT effect ---------------------===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
// Reproduces Fig 10: speedup from running two pinned tasks per core versus
// one, as core count grows. SMT hides gather latency (Section III-D), so
// the paper sees up to 1.9-3.5x from SMT at low core counts, shrinking as
// memory contention grows. On hardware without SMT (or a 1-core
// container), oversubscription stands in for the second hardware thread
// and the curve is informational only.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include <cmath>

using namespace egacs;
using namespace egacs::bench;
using namespace egacs::simd;

int main(int Argc, char **Argv) {
  BenchEnv Env(Argc, Argv);
  int MaxCores = static_cast<int>(
      Env.Opts.getInt("max-cores", std::max(Env.NumTasks, 4)));
  banner("Fig 10 - SMT: two tasks per core vs one", Env);
  TargetKind Target = bestTarget();

  std::vector<Input> Inputs = makeAllInputs(Env.Scale);
  const KernelKind Kernels[] = {KernelKind::BfsWl, KernelKind::SsspNf,
                                KernelKind::Mis};
  std::vector<double> SerialMs;
  for (const Input &In : Inputs)
    for (KernelKind Kind : Kernels)
      SerialMs.push_back(timeSerial(Kind, In, Env.Reps, Env.Verify));

  Table T({"cores", "no-SMT vs serial", "SMT vs serial", "SMT speedup"});
  for (int Cores = 1; Cores <= MaxCores; Cores *= 2) {
    double Geo1 = 0.0, Geo2 = 0.0;
    int K = 0;
    std::size_t Idx = 0;
    // no-SMT: one pinned task per core; SMT: two tasks per core.
    PinPolicy Pin{true, 1};
    auto Ts1 = makeTaskSystem(Env.TsKind, Cores, Pin);
    auto Ts2 = makeTaskSystem(Env.TsKind, 2 * Cores, Pin);
    for (const Input &In : Inputs)
      for (KernelKind Kind : Kernels) {
        KernelConfig C1 = KernelConfig::allOptimizations(*Ts1, Cores);
        KernelConfig C2 = KernelConfig::allOptimizations(*Ts2, 2 * Cores);
        double Ms1 = timeKernel(Kind, Target, In, C1, Env.Reps, false);
        double Ms2 = timeKernel(Kind, Target, In, C2, Env.Reps, false);
        Geo1 += std::log(SerialMs[Idx] / Ms1);
        Geo2 += std::log(SerialMs[Idx] / Ms2);
        ++Idx;
        ++K;
      }
    double S1 = std::exp(Geo1 / K), S2 = std::exp(Geo2 / K);
    T.addRow({Table::fmt(static_cast<std::uint64_t>(Cores)),
              Table::fmtSpeedup(S1), Table::fmtSpeedup(S2),
              Table::fmtSpeedup(S2 / S1)});
  }
  T.print();
  std::printf("\npaper shape: SMT helps most at low core counts (latency "
              "hiding for gathers) and fades or reverses once all cores "
              "contend for memory (Phi at 72 cores: 0.58x).\n");
  return 0;
}
