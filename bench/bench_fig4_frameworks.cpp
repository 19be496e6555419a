//===- bench/bench_fig4_frameworks.cpp - Fig 4: framework comparison ------===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
// Reproduces Fig 4: speedup over the serial version for EGACS (all
// optimizations), the mini-Ligra baseline (direction-optimizing, the five
// common benchmarks), and the scalar-parallel baseline (GraphIt/Galois
// stand-in), across the ten kernels and the paper's three graphs, plus road
// with shuffled ids. Every framework's output is certified by its oracle
// outside the timed runs; a rejected output exits 1.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "baselines/graphit/GraphIt.h"
#include "baselines/ligra/Apps.h"
#include "baselines/scalar/ScalarKernels.h"

#include <cmath>
#include <optional>

using namespace egacs;
using namespace egacs::bench;
using namespace egacs::simd;

namespace {

/// One framework's output of one kernel, or nullopt when the framework does
/// not implement the kernel.
using FrameworkOutput = std::optional<KernelOutput>;

FrameworkOutput intOutput(std::vector<std::int32_t> Data) {
  KernelOutput Out;
  Out.IntData = std::move(Data);
  return Out;
}

FrameworkOutput floatOutput(std::vector<float> Data) {
  KernelOutput Out;
  Out.FloatData = std::move(Data);
  return Out;
}

FrameworkOutput scalarOutput(std::int64_t Scalar0, std::int64_t Scalar1 = 0) {
  KernelOutput Out;
  Out.Scalar0 = Scalar0;
  Out.Scalar1 = Scalar1;
  return Out;
}

FrameworkOutput runLigra(KernelKind Kind, const ligra::LigraContext &Ctx,
                         const Input &In, const KernelConfig &Cfg) {
  switch (Kind) {
  case KernelKind::BfsWl:
    return intOutput(ligra::ligraBfs(Ctx, In.G, In.Source));
  case KernelKind::SsspNf:
    return intOutput(ligra::ligraSssp(Ctx, In.G, In.Source));
  case KernelKind::Cc:
    return intOutput(ligra::ligraCc(Ctx, In.G));
  case KernelKind::Pr:
    return floatOutput(
        ligra::ligraPr(Ctx, In.G, Cfg.PrDamping, Cfg.PrTolerance, 50));
  case KernelKind::Mis:
    return intOutput(ligra::ligraMis(Ctx, In.G));
  default:
    return std::nullopt;
  }
}

FrameworkOutput runScalar(KernelKind Kind, const scalar::ScalarContext &Ctx,
                          const Input &In, const KernelConfig &Cfg) {
  switch (Kind) {
  case KernelKind::BfsWl:
    return intOutput(scalar::scalarBfs(Ctx, In.G, In.Source));
  case KernelKind::SsspNf:
    return intOutput(scalar::scalarSssp(Ctx, In.G, In.Source, Cfg.Delta));
  case KernelKind::Cc:
    return intOutput(scalar::scalarCc(Ctx, In.G));
  case KernelKind::Tri:
    return scalarOutput(scalar::scalarTri(Ctx, In.GSorted));
  case KernelKind::Mis:
    return intOutput(scalar::scalarMis(Ctx, In.G));
  case KernelKind::Pr:
    return floatOutput(
        scalar::scalarPr(Ctx, In.G, Cfg.PrDamping, Cfg.PrTolerance, 50));
  case KernelKind::Mst: {
    std::int64_t W, E;
    scalar::scalarMst(Ctx, In.G, W, E);
    return scalarOutput(W, E);
  }
  default:
    return std::nullopt;
  }
}

FrameworkOutput runGraphIt(KernelKind Kind, const graphit::GraphItContext &Ctx,
                           const Input &In, const KernelConfig &Cfg) {
  switch (Kind) {
  case KernelKind::BfsWl:
    return intOutput(graphit::graphitBfs(Ctx, In.G, In.Source));
  case KernelKind::SsspNf:
    return intOutput(graphit::graphitSssp(Ctx, In.G, In.Source));
  case KernelKind::Cc:
    return intOutput(graphit::graphitCc(Ctx, In.G));
  case KernelKind::Pr:
    return floatOutput(
        graphit::graphitPr(Ctx, In.G, Cfg.PrDamping, Cfg.PrTolerance, 50));
  case KernelKind::Tri:
    return scalarOutput(graphit::graphitTri(Ctx, In.GSorted));
  default:
    return std::nullopt;
  }
}

/// Runs one framework's kernel once untimed, certifies that output with its
/// oracle when \p Verify is set (a rejection exits 1), then returns the
/// average of \p Reps timed runs; -1 when the framework lacks the kernel.
template <typename RunT>
double timeFramework(const char *Framework, KernelKind Kind, const Input &In,
                     const KernelConfig &Cfg, int Reps, bool Verify,
                     RunT &&Run) {
  FrameworkOutput Out = Run();
  if (!Out)
    return -1.0;
  if (Verify && !outputCertified(Kind, In, *Out, Cfg, Framework))
    std::exit(1);
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

  // The paper's three inputs plus road with its ids shuffled: the generator
  // numbers road in grid order, which favours sweeps in id order, so each
  // framework's two road rows show its sensitivity to id order.
  std::vector<Input> Inputs = makeAllInputs(Env.Scale);
  Inputs.push_back(makeInput(
      "road-shuffled", shuffleNodeIds(Inputs.front().G, /*Seed=*/0x5eed)));

  for (const Input &In : Inputs) {
    for (KernelKind Kind : AllKernels) {
      // Fig 4 uses bfs-wl for the cross-framework BFS comparison; the
      // other bfs variants appear in the EGACS-only figures.
      if (Kind == KernelKind::BfsCx || Kind == KernelKind::BfsTp ||
          Kind == KernelKind::BfsHb)
        continue;
      double SerialMs = timeSerial(Kind, In, Env.Reps, Env.Verify);
      double EgacsMs =
          timeKernel(Kind, Target, In, Egacs, Env.Reps, Env.Verify);
      double LigraMs = timeFramework(
          "mini-Ligra", Kind, In, Egacs, Env.Reps, Env.Verify,
          [&] { return runLigra(Kind, LigraCtx, In, Egacs); });
      double GraphItMs = timeFramework(
          "mini-GraphIt", Kind, In, Egacs, Env.Reps, Env.Verify,
          [&] { return runGraphIt(Kind, GraphItCtx, In, Egacs); });
      double ScalarMs = timeFramework(
          "scalar-par", Kind, In, Egacs, Env.Reps, Env.Verify,
          [&] { return runScalar(Kind, ScalarCtx, In, Egacs); });

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
