//===- bench/bench_fig4_frameworks.cpp - Fig 4: framework comparison ------===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
// Reproduces Fig 4: speedup over the serial version for EGACS (all
// optimizations), the mini-Ligra baseline (direction-optimizing, the five
// common benchmarks), and the scalar-parallel baseline (GraphIt/Galois
// stand-in), across the ten kernels and three graphs.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "baselines/graphit/GraphIt.h"
#include "baselines/ligra/Apps.h"
#include "baselines/scalar/ScalarKernels.h"

#include <cmath>

using namespace egacs;
using namespace egacs::bench;
using namespace egacs::simd;

namespace {

double timeLigra(KernelKind Kind, const ligra::LigraContext &Ctx,
                 const Input &In, int Reps) {
  auto Run = [&] {
    switch (Kind) {
    case KernelKind::BfsWl:
      ligra::ligraBfs(Ctx, In.G, In.Source);
      return true;
    case KernelKind::SsspNf:
      ligra::ligraSssp(Ctx, In.G, In.Source);
      return true;
    case KernelKind::Cc:
      ligra::ligraCc(Ctx, In.G);
      return true;
    case KernelKind::Pr:
      ligra::ligraPr(Ctx, In.G, 0.85f, 1e-4f, 50);
      return true;
    case KernelKind::Mis:
      ligra::ligraMis(Ctx, In.G);
      return true;
    default:
      return false;
    }
  };
  if (!Run())
    return -1.0;
  double Total = 0.0;
  for (int R = 0; R < Reps; ++R)
    Total += timeMs([&] { Run(); });
  return Total / Reps;
}

double timeScalar(KernelKind Kind, const scalar::ScalarContext &Ctx,
                  const Input &In, int Reps, std::int32_t Delta) {
  auto Run = [&] {
    std::int64_t W, E;
    switch (Kind) {
    case KernelKind::BfsWl:
      scalar::scalarBfs(Ctx, In.G, In.Source);
      return true;
    case KernelKind::SsspNf:
      scalar::scalarSssp(Ctx, In.G, In.Source, Delta);
      return true;
    case KernelKind::Cc:
      scalar::scalarCc(Ctx, In.G);
      return true;
    case KernelKind::Tri:
      scalar::scalarTri(Ctx, In.GSorted);
      return true;
    case KernelKind::Mis:
      scalar::scalarMis(Ctx, In.G);
      return true;
    case KernelKind::Pr:
      scalar::scalarPr(Ctx, In.G, 0.85f, 1e-4f, 50);
      return true;
    case KernelKind::Mst:
      scalar::scalarMst(Ctx, In.G, W, E);
      return true;
    default:
      return false;
    }
  };
  if (!Run())
    return -1.0;
  double Total = 0.0;
  for (int R = 0; R < Reps; ++R)
    Total += timeMs([&] { Run(); });
  return Total / Reps;
}

double timeGraphIt(KernelKind Kind, const graphit::GraphItContext &Ctx,
                   const Input &In, int Reps) {
  auto Run = [&] {
    switch (Kind) {
    case KernelKind::BfsWl:
      graphit::graphitBfs(Ctx, In.G, In.Source);
      return true;
    case KernelKind::SsspNf:
      graphit::graphitSssp(Ctx, In.G, In.Source);
      return true;
    case KernelKind::Cc:
      graphit::graphitCc(Ctx, In.G);
      return true;
    case KernelKind::Pr:
      graphit::graphitPr(Ctx, In.G, 0.85f, 1e-4f, 50);
      return true;
    case KernelKind::Tri:
      graphit::graphitTri(Ctx, In.GSorted);
      return true;
    default:
      return false;
    }
  };
  if (!Run())
    return -1.0;
  double Total = 0.0;
  for (int R = 0; R < Reps; ++R)
    Total += timeMs([&] { Run(); });
  return Total / Reps;
}

std::string speedupCell(double SerialMs, double Ms) {
  if (Ms < 0.0)
    return "n/a";
  return Table::fmtSpeedup(SerialMs / Ms);
}

} // namespace

int main(int Argc, char **Argv) {
  BenchEnv Env(Argc, Argv);
  banner("Fig 4 / Table X - EGACS vs Ligra vs scalar frameworks", Env);
  auto TS = Env.makeTs();
  KernelConfig Egacs = KernelConfig::allOptimizations(*TS, Env.NumTasks);
  ligra::LigraContext LigraCtx{TS.get(), Env.NumTasks, 20};
  graphit::GraphItContext GraphItCtx{TS.get(), Env.NumTasks};
  scalar::ScalarContext ScalarCtx{TS.get(), Env.NumTasks};
  TargetKind Target = bestTarget();

  Table Speedups({"kernel", "graph", "serial ms", "EGACS", "mini-Ligra",
                  "mini-GraphIt", "scalar-par"});
  Table TableX({"kernel", "graph", "serial ms", "EGACS ms", "Ligra ms",
                "GraphIt ms", "scalar ms"});
  double GeoEgacs = 0.0, GeoLigra = 0.0, GeoGraphIt = 0.0, GeoScalar = 0.0;
  int NEgacs = 0, NLigra = 0, NGraphIt = 0, NScalar = 0;

  for (const Input &In : makeAllInputs(Env.Scale)) {
    for (KernelKind Kind : AllKernels) {
      // Fig 4 uses bfs-wl for the cross-framework BFS comparison; the
      // other bfs variants appear in the EGACS-only figures.
      if (Kind == KernelKind::BfsCx || Kind == KernelKind::BfsTp ||
          Kind == KernelKind::BfsHb)
        continue;
      double SerialMs = timeSerial(Kind, In, Env.Reps, Env.Verify);
      double EgacsMs =
          timeKernel(Kind, Target, In, Egacs, Env.Reps, Env.Verify);
      double LigraMs = timeLigra(Kind, LigraCtx, In, Env.Reps);
      double GraphItMs = timeGraphIt(Kind, GraphItCtx, In, Env.Reps);
      double ScalarMs =
          timeScalar(Kind, ScalarCtx, In, Env.Reps, Egacs.Delta);

      Speedups.addRow({kernelName(Kind), In.Name, Table::fmt(SerialMs),
                       speedupCell(SerialMs, EgacsMs),
                       speedupCell(SerialMs, LigraMs),
                       speedupCell(SerialMs, GraphItMs),
                       speedupCell(SerialMs, ScalarMs)});
      auto MsCell = [](double Ms) {
        return Ms < 0.0 ? std::string("n/a") : Table::fmt(Ms);
      };
      TableX.addRow({kernelName(Kind), In.Name, Table::fmt(SerialMs),
                     MsCell(EgacsMs), MsCell(LigraMs), MsCell(GraphItMs),
                     MsCell(ScalarMs)});

      GeoEgacs += std::log(SerialMs / EgacsMs);
      ++NEgacs;
      if (LigraMs > 0.0) {
        GeoLigra += std::log(SerialMs / LigraMs);
        ++NLigra;
      }
      if (GraphItMs > 0.0) {
        GeoGraphIt += std::log(SerialMs / GraphItMs);
        ++NGraphIt;
      }
      if (ScalarMs > 0.0) {
        GeoScalar += std::log(SerialMs / ScalarMs);
        ++NScalar;
      }
    }
  }
  std::printf("--- Fig 4: speedup over serial ---\n");
  Speedups.print();
  std::printf("\ngeomean speedup over serial: EGACS %.2fx, mini-Ligra "
              "%.2fx, mini-GraphIt %.2fx, scalar-parallel %.2fx\n",
              std::exp(GeoEgacs / NEgacs),
              NLigra ? std::exp(GeoLigra / NLigra) : 0.0,
              NGraphIt ? std::exp(GeoGraphIt / NGraphIt) : 0.0,
              NScalar ? std::exp(GeoScalar / NScalar) : 0.0);
  std::printf("\n--- Table X: absolute execution times (ms) ---\n");
  TableX.print();
  std::printf("\npaper shape: EGACS leads most kernel/graph pairs; Ligra's "
              "direction optimization wins BFS on the low-diameter "
              "rmat/random inputs; PR/MST suffer from cmpxchg.\n");
  return 0;
}
