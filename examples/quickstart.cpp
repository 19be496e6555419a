//===- examples/quickstart.cpp - First steps with EGACS -------------------===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
// The five-minute tour: generate a graph, run a SIMD BFS with all paper
// optimizations, certify it with the semantic oracle, and compare the
// serial and SIMD execution times.
//
//   $ ./quickstart [--scale=N]
//
//===----------------------------------------------------------------------===//

#include "graph/Generators.h"
#include "kernels/Kernels.h"
#include "simd/Targets.h"
#include "support/Options.h"
#include "support/Timer.h"
#include "verify/Oracle.h"

#include <cstdio>

using namespace egacs;
using namespace egacs::simd;

int main(int Argc, char **Argv) {
  Options Opts(Argc, Argv);
  int Scale = static_cast<int>(Opts.getInt("scale", 3));

  // 1. Make an input graph. Generators cover the paper's three classes
  //    (road / rmat / random); loaders exist for DIMACS and edge lists.
  Csr G = namedGraph("rmat", Scale);
  std::printf("graph: %d nodes, %d arcs\n", G.numNodes(), G.numEdges());

  // 2. Pick an execution configuration: a task system, a task count, and
  //    the optimization flags (Iteration Outlining, Nested Parallelism,
  //    Cooperative Conversion, Fibers are all on by default).
  ThreadPoolTaskSystem Pool(4);
  KernelConfig Cfg = KernelConfig::allOptimizations(Pool, 4);

  // 3. Pick a SIMD target. bestTarget-style selection:
  TargetKind Target = targetSupported(TargetKind::Avx512x16)
                          ? TargetKind::Avx512x16
                      : targetSupported(TargetKind::Avx2x8)
                          ? TargetKind::Avx2x8
                          : TargetKind::Scalar8;
  std::printf("SIMD target: %s\n", targetName(Target));

  // 4. Run and certify: the oracle checks the distances against the
  //    definition of BFS and names the first violation it finds.
  KernelOutput Out = runKernel(KernelKind::BfsWl, Target, G, Cfg, 0);
  verify::OracleResult Check =
      verify::checkKernelOutput(KernelKind::BfsWl, G, 0, Out, Cfg);
  std::printf("bfs verification: %s%s\n", Check.Ok ? "PASS" : "FAIL: ",
              Check.Reason.c_str());

  std::int64_t Reached = 0;
  std::int32_t MaxLevel = 0;
  for (std::int32_t D : Out.IntData)
    if (D != InfDist) {
      ++Reached;
      MaxLevel = D > MaxLevel ? D : MaxLevel;
    }
  std::printf("reached %lld of %d nodes; eccentricity %d\n",
              static_cast<long long>(Reached), G.numNodes(), MaxLevel);

  // 5. Compare against the serial configuration the paper uses
  //    (width 1, one task; Section IV-A).
  SerialTaskSystem Serial;
  KernelConfig SerialCfg = KernelConfig::allOptimizations(Serial, 1);
  double SerialMs = timeAvgMs(3, [&] {
    runKernel(KernelKind::BfsWl, TargetKind::Scalar1, G, SerialCfg, 0);
  });
  double SimdMs = timeAvgMs(3, [&] {
    runKernel(KernelKind::BfsWl, Target, G, Cfg, 0);
  });
  std::printf("bfs-wl: serial %.2f ms -> SIMD %.2f ms (%.2fx)\n", SerialMs,
              SimdMs, SerialMs / SimdMs);

  // Worklist BFS is atomic-bound; compute-bound kernels show SIMD off much
  // better (Fig 6) — e.g. the topology-driven BFS variant:
  double SerialTpMs = timeAvgMs(3, [&] {
    runKernel(KernelKind::BfsTp, TargetKind::Scalar1, G, SerialCfg, 0);
  });
  double SimdTpMs = timeAvgMs(3, [&] {
    runKernel(KernelKind::BfsTp, Target, G, Cfg, 0);
  });
  std::printf("bfs-tp: serial %.2f ms -> SIMD %.2f ms (%.2fx)\n", SerialTpMs,
              SimdTpMs, SerialTpMs / SimdTpMs);
  return Check.Ok ? 0 : 1;
}
