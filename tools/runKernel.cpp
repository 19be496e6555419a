//===- tools/runKernel.cpp - Single-run kernel driver ---------------------===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
// Runs one or more kernels once on one generated input, certifies the
// output with its semantic oracle, and prints a result table. The layout
// (and, for pull/hybrid runs, the transpose) is built before the timed call
// and reported in its own column. The intended companion of the tracing
// subsystem: a single traced run per kernel, small enough to open in the
// Perfetto UI, without the repetition and sweeps of the bench_* harnesses.
//
//   $ runKernel                                  # every kernel on rmat
//   $ runKernel --input=road --kernel=bfs-hb,pr
//   $ runKernel --trace=out.json --direction=hybrid
//   $ runKernel --trace-summary --kernel=sssp-nf --scale=6
//
// Accepts every BenchCommon knob (--scale, --tasks, --sched, --layout,
// --direction, --trace, --trace-summary, ...) plus:
//
//   --input=S   road|rmat|random generated input (default rmat)
//   --kernel=S  comma-separated kernel list, or "all" (default all)
//   --target=S  SIMD target name, or "best" (default best)
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace egacs;
using namespace egacs::bench;
using namespace egacs::simd;

namespace {

/// Splits a comma-separated --kernel list into kinds; "all" selects every
/// kernel in AllKernels order. Unknown names exit 2 via parseKernelKind.
std::vector<KernelKind> parseKernelList(const std::string &Spec) {
  std::vector<KernelKind> Kinds;
  if (Spec == "all") {
    for (KernelKind K : AllKernels)
      Kinds.push_back(K);
    return Kinds;
  }
  std::size_t Begin = 0;
  while (Begin <= Spec.size()) {
    std::size_t End = Spec.find(',', Begin);
    if (End == std::string::npos)
      End = Spec.size();
    if (End > Begin)
      Kinds.push_back(parseKernelKind(Spec.substr(Begin, End - Begin)));
    Begin = End + 1;
  }
  if (Kinds.empty())
    parseEnumFail("kernel", Spec, "all or a comma-separated kernel list");
  return Kinds;
}

TargetKind parseTargetOrBest(const std::string &Name) {
  if (Name == "best")
    return bestTarget();
  constexpr TargetKind Kinds[] = {
      TargetKind::Scalar1, TargetKind::Scalar4,   TargetKind::Scalar8,
      TargetKind::Scalar16, TargetKind::Avx2x4,   TargetKind::Avx2x8,
      TargetKind::Avx2x16, TargetKind::Avx512x8, TargetKind::Avx512x16,
  };
  std::string Valid = "best";
  for (TargetKind K : Kinds) {
    if (Name == targetName(K)) {
      if (!targetSupported(K))
        parseEnumFail("target", Name, "a target this CPU supports");
      return K;
    }
    Valid += "|";
    Valid += targetName(K);
  }
  parseEnumFail("target", Name, Valid);
}

} // namespace

int main(int Argc, char **Argv) {
  BenchEnv Env(Argc, Argv);
  std::string InputName = Env.Opts.getString("input", "rmat");
  std::vector<KernelKind> Kinds =
      parseKernelList(Env.Opts.getString("kernel", "all"));
  TargetKind Target = parseTargetOrBest(Env.Opts.getString("target", "best"));

  banner("runKernel single-run driver", Env);
  Input In = makeInput(InputName, Env.Scale);
  std::printf("input: %s scale=%d (%lld nodes, %lld edges), target=%s\n\n",
              In.Name.c_str(), Env.Scale,
              static_cast<long long>(In.G.numNodes()),
              static_cast<long long>(In.G.numEdges()), targetName(Target));

  auto TS = Env.makeTs();
  JsonLog Json(Env);
  Json.meta("harness", "runKernel");
  Json.meta("input", InputName);
  Json.meta("scale", std::to_string(Env.Scale));
  Json.meta("target", targetName(Target));
  Json.setColumns({"kernel", "build_ms", "wall_ms", "verified"});

  Table T({"kernel", "build ms", "wall ms", "verified"});
  bool AllOk = true;
  for (KernelKind Kind : Kinds) {
    KernelConfig Cfg = KernelConfig::allOptimizations(*TS, Env.NumTasks);
    Env.applySched(Cfg);
    PrebuiltLayout P(graphFor(In, Kind), Target, Cfg);
    P.ensureTranspose(Kind, Cfg);
    KernelOutput Out;
    double Ms = timeMs(
        [&] { Out = runKernel(Kind, Target, P.L, Cfg, In.Source); });
    bool Ok = !Env.Verify || outputCertified(Kind, In, Out, Cfg, "runKernel");
    AllOk = AllOk && Ok;
    const char *Verified = Env.Verify ? (Ok ? "yes" : "no") : "skipped";
    std::string BuildMs = Table::fmt(P.BuildMs, 3);
    T.addRow({kernelName(Kind), BuildMs, Table::fmt(Ms, 3), Verified});
    Json.record({kernelName(Kind), BuildMs, Table::fmt(Ms, 3), Verified});
  }
  T.print();
  return AllOk ? 0 : 1;
}
