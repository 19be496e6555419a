//===- perfbench/driver.cpp - EGACS end-to-end benchmark driver -----------===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
// Times every kernel of one workload end to end and prints the result as a
// table followed by one JSON line:
//
//   perfbench_driver --workload rmat-push --seed 1 --seconds 20 --trace 0
//
// Set-up (input generation, destination sort, layout and transpose build)
// runs several times, before and during the timed phase, and reports its
// median. The timed phase runs the workload's kernels rep by rep,
// interleaved, until --seconds have passed; each call is one untraced
// runKernel on the prebuilt input, and each output goes through its semantic
// oracle outside the timed interval. With --trace 1 the per-layer pass
// (Layers.cpp) runs afterwards and the JSON line carries its metrics instead
// of the end-to-end ones.
//
// Extra flags: --scale N (input size, default 6), --setups N (set-ups before
// the timed phase, default 3), --corrupt KERNEL (damage one value of every
// timed output of that kernel before its oracle sees it; the live check that
// a rejected output is counted, see selftest.py).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "graph/Generators.h"
#include "simd/Backend.h"
#include "support/CpuInfo.h"
#include "verify/Oracle.h"

#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <dlfcn.h>
#include <fstream>
#include <malloc.h>
#include <memory>
#include <optional>
#include <sys/resource.h>

using namespace egacs;
using namespace egacs::perfbench;

namespace {

const KernelKind AllButTri[] = {
    KernelKind::BfsWl, KernelKind::BfsCx,  KernelKind::BfsTp,
    KernelKind::BfsHb, KernelKind::Cc,     KernelKind::SsspNf,
    KernelKind::Mis,   KernelKind::Pr,     KernelKind::Mst,
};

const std::vector<Workload> &workloads() {
  static const std::vector<Workload> All = {
      {"rmat-push", "rmat", LayoutKind::Csr, Direction::Push,
       UpdatePolicy::Atomic, PrefetchPolicy::None,
       {std::begin(AllButTri), std::end(AllButTri)}},
      {"road-push", "road", LayoutKind::Csr, Direction::Push,
       UpdatePolicy::Atomic, PrefetchPolicy::None,
       {std::begin(AllKernels), std::end(AllKernels)}},
      {"rmat-hybrid", "rmat", LayoutKind::Sell, Direction::Hybrid,
       UpdatePolicy::Privatized, PrefetchPolicy::RowsProps,
       {std::begin(AllButTri), std::end(AllButTri)}},
  };
  return All;
}

struct Args {
  std::string Workload;
  std::uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  int Scale = 6;
  int Setups = 3;
  std::optional<KernelKind> Corrupt;
};

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "NAME --seed N --seconds S --trace 0|1 [--scale N] "
               "[--setups N] [--corrupt KERNEL]\n",
               Why);
  std::exit(2);
}

Args parseArgs(int Argc, char **Argv) {
  Args A;
  for (int I = 1; I < Argc; ++I) {
    std::string Key = Argv[I];
    std::string Val;
    if (std::size_t Eq = Key.find('='); Eq != std::string::npos) {
      Val = Key.substr(Eq + 1);
      Key.resize(Eq);
    } else if (I + 1 < Argc) {
      Val = Argv[++I];
    } else {
      usage(("missing value for " + Key).c_str());
    }
    char *End = nullptr;
    auto Num = [&] {
      double D = std::strtod(Val.c_str(), &End);
      if (Val.empty() || *End != '\0')
        usage(("not a number: " + Key + " " + Val).c_str());
      return D;
    };
    if (Key == "--workload")
      A.Workload = Val;
    else if (Key == "--seed")
      A.Seed = static_cast<std::uint64_t>(Num());
    else if (Key == "--seconds")
      A.Seconds = Num();
    else if (Key == "--trace")
      A.Trace = Num() != 0;
    else if (Key == "--scale")
      A.Scale = static_cast<int>(Num());
    else if (Key == "--setups")
      A.Setups = static_cast<int>(Num());
    else if (Key == "--corrupt")
      A.Corrupt = parseKernelKind(Val); // exits 2 on an unknown name
    else
      usage(("unknown flag " + Key).c_str());
  }
  if (A.Workload.empty())
    usage("--workload is required");
  if (A.Seconds <= 0 || A.Setups < 1 || A.Scale < 0 || A.Scale > 10)
    usage("--seconds, --setups or --scale out of range");
  return A;
}

/// The best SIMD target this machine supports.
simd::TargetKind bestTarget() {
  for (simd::TargetKind K : {simd::TargetKind::Avx512x16,
                             simd::TargetKind::Avx2x8})
    if (simd::targetSupported(K))
      return K;
  return simd::TargetKind::Scalar8;
}

/// The sanitizers this process runs under, comma-separated, or "" for none.
/// The compiler's macros answer for this file; UBSan has no macro in GCC, so
/// its runtime is looked up instead. Either way a sanitizer enabled through
/// CMAKE_CXX_FLAGS counts as well as one enabled through EGACS_SANITIZE.
std::string sanitizers() {
  bool Address = false, Thread = false, Memory = false;
#if defined(__SANITIZE_ADDRESS__)
  Address = true;
#endif
#if defined(__SANITIZE_THREAD__)
  Thread = true;
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
  Address = true;
#endif
#if __has_feature(thread_sanitizer)
  Thread = true;
#endif
#if __has_feature(memory_sanitizer)
  Memory = true;
#endif
#endif
  bool Undefined = dlsym(RTLD_DEFAULT, "__ubsan_handle_add_overflow");
  std::string S;
  for (auto [On, Name] : {std::pair{Address, "address"}, {Thread, "thread"},
                          {Memory, "memory"}, {Undefined, "undefined"}})
    if (On)
      S += (S.empty() ? "" : ",") + std::string(Name);
  return S;
}

std::string cpuModel() {
  std::ifstream F("/proc/cpuinfo");
  std::string Line;
  while (std::getline(F, Line))
    if (Line.rfind("model name", 0) == 0)
      return Line.substr(Line.find(':') + 2);
  return "unknown";
}

/// Builds the workload's input in place (the layouts point into \p In, so
/// it must not move afterwards).
void buildInput(const Workload &W, const Args &A, simd::TargetKind Target,
                Input &In) {
  In.GenerateMs =
      timeMs([&] { In.G = namedGraph(W.Graph, A.Scale, A.Seed); });
  In.SortMs = timeMs([&] { In.GSorted = In.G.sortedByDestination(); });
  // Traversals start at the highest-degree node, inside the giant component.
  EdgeId BestDeg = -1;
  for (NodeId N = 0; N < In.G.numNodes(); ++N)
    if (In.G.degree(N) > BestDeg) {
      BestDeg = In.G.degree(N);
      In.Source = N;
    }
  if (W.Layout == LayoutKind::Csr)
    return;
  LayoutOptions Opts;
  Opts.SellChunk = simd::targetWidth(Target);
  Opts.SellSigma = KernelConfig().SellSigma;
  In.LayoutMs = timeMs([&] { In.L = AnyLayout::build(W.Layout, In.G, Opts); });
  In.TransposeMs = timeMs([&] { In.L.buildTranspose(Opts); });
}

/// Damages one value of \p Out so that a correct oracle must reject it.
void corruptOutput(KernelKind Kind, KernelOutput &Out, NodeId Source) {
  std::vector<std::int32_t> &D = Out.IntData;
  switch (Kind) {
  case KernelKind::Cc:
    // A label that is not its component's minimum id.
    for (std::size_t N = 0; N < D.size(); ++N)
      if (D[N] != static_cast<std::int32_t>(N)) {
        D[N] = static_cast<std::int32_t>(N);
        return;
      }
    break;
  case KernelKind::Mis:
    // Dropping a member leaves it with no member neighbour.
    for (std::int32_t &S : D)
      if (S == MisIn) {
        S = MisOut;
        return;
      }
    break;
  case KernelKind::Pr:
    Out.FloatData.at(0) += 1.0f;
    return;
  case KernelKind::Tri:
  case KernelKind::Mst:
    Out.Scalar0 += 1;
    return;
  default: // bfs-* and sssp: lengthen one finite distance
    for (std::size_t N = 0; N < D.size(); ++N)
      if (static_cast<NodeId>(N) != Source && D[N] != InfDist) {
        D[N] += 1;
        return;
      }
    break;
  }
  std::fprintf(stderr, "perfbench_driver: could not corrupt %s output\n",
               kernelName(Kind));
  std::exit(2);
}

/// True when every workload runs \p Kind. Only those kernels' times are
/// gated end-to-end metrics; tri runs on road-push alone (one call takes
/// seconds on rmat) and its time is printed but not gated.
bool runOnEveryWorkload(KernelKind Kind) {
  return std::all_of(workloads().begin(), workloads().end(),
                     [&](const Workload &W) {
                       return std::find(W.Kernels.begin(), W.Kernels.end(),
                                        Kind) != W.Kernels.end();
                     });
}

bool sameOutput(const KernelOutput &A, const KernelOutput &B) {
  return A.IntData == B.IntData && A.FloatData == B.FloatData &&
         A.Scalar0 == B.Scalar0 && A.Scalar1 == B.Scalar1;
}

void printMetrics(const char *Title, const MetricList &Ms) {
  std::printf("\n%s\n", Title);
  for (const Metric &M : Ms)
    std::printf("  %-36s %16.6f %-6s (n=%zu)\n", M.Name.c_str(), M.Value,
                M.Unit.c_str(), M.Samples);
}

void printJson(bool Correct, long Attempted, long Failed, const MetricList &Ms) {
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {",
              Correct ? "true" : "false", Attempted, Failed);
  for (std::size_t I = 0; I < Ms.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", Ms[I].Name.c_str(), Ms[I].Value,
                Ms[I].Unit.c_str());
  std::printf("}}\n");
}

/// The process's peak resident memory so far.
double peakRssMb() {
  rusage Ru{};
  getrusage(RUSAGE_SELF, &Ru);
  return static_cast<double>(Ru.ru_maxrss) / 1024;
}

const Workload *findWorkload(const std::string &Name) {
  for (const Workload &W : workloads())
    if (Name == W.Name)
      return &W;
  return nullptr;
}

} // namespace

KernelConfig Context::config() const {
  KernelConfig Cfg = KernelConfig::allOptimizations(TS, Tasks);
  Cfg.Layout = W.Layout;
  Cfg.Dir = W.Dir;
  Cfg.Update = W.Update;
  Cfg.Prefetch = W.Prefetch;
  return Cfg;
}

const Csr &Context::graphFor(KernelKind Kind) const {
  return kernelNeedsSortedAdjacency(Kind) ? In.GSorted : In.G;
}

KernelOutput Context::run(KernelKind Kind, const KernelConfig &Cfg) const {
  if (W.Layout == LayoutKind::Csr)
    return runKernel(Kind, Target, graphFor(Kind), Cfg, In.Source);
  return runKernel(Kind, Target, In.L, Cfg, In.Source);
}

bool Context::verify(KernelKind Kind, const KernelOutput &Out,
                     const KernelConfig &Cfg) const {
  verify::OracleResult R =
      verify::checkKernelOutput(Kind, graphFor(Kind), In.Source, Out, Cfg);
  if (!R.Ok)
    std::fprintf(stderr, "oracle rejected %s: %s\n", kernelName(Kind),
                 R.Reason.c_str());
  return R.Ok;
}

int main(int Argc, char **Argv) {
  Args A = parseArgs(Argc, Argv);
  const Workload *W = findWorkload(A.Workload);
  if (!W)
    usage(("unknown workload " + A.Workload +
           " (rmat-push|road-push|rmat-hybrid)")
              .c_str());

  const std::string Sanitize = sanitizers();
#ifdef EGACS_STATS
  const int Stats = 1;
#else
  const int Stats = 0;
#endif
#ifdef EGACS_TRACE
  const int Trace = 1;
#else
  const int Trace = 0;
#endif
  const int Tasks = 4;
  simd::TargetKind Target = bestTarget();
  const CpuInfo &Cpu = cpuInfo();
  std::printf("fingerprint: build stats=%d trace=%d sanitize=%s | cpu=\"%s\" "
              "avx2=%d avx512f=%d nproc=%d | target=%s tasks=%d "
              "tasksys=pool scale=%d seed=%llu workload=%s\n",
              Stats, Trace, Sanitize.empty() ? "none" : Sanitize.c_str(),
              cpuModel().c_str(), Cpu.HasAvx2, Cpu.HasAvx512f,
              Cpu.HardwareThreads, simd::targetName(Target), Tasks, A.Scale,
              static_cast<unsigned long long>(A.Seed), W->Name);
  if (!Sanitize.empty()) {
    std::fprintf(stderr, "perfbench_driver: refusing to report times from a "
                         "sanitizer build (%s)\n",
                 Sanitize.c_str());
    return 3;
  }

  // Keep freed memory in the process, so that later set-ups and kernel calls
  // reuse pages already mapped instead of faulting in fresh ones: on a shared
  // virtual machine the cost of a fresh page drifts from minute to minute,
  // and it swung road's set-up time between 25 and 40 ms. Blocks over 32 MiB
  // (rmat's raw edge list) are still mapped and unmapped each time.
  mallopt(M_MMAP_THRESHOLD, 32 << 20); // glibc's largest
  mallopt(M_TRIM_THRESHOLD, INT_MAX);

  // Set-up: --setups times before the timed phase, and again between its
  // reps while those set-ups take under SetupShare of the time since it
  // began. The median then samples the host over the whole run, not only
  // its first seconds: a road set-up takes ~15 ms and moves by half with the
  // host's load from one second to the next. A set-up between reps builds a
  // scratch input and drops it; the kernels keep the input built before the
  // timed phase, at the same addresses.
  constexpr double SetupShare = 0.15;
  std::optional<Input> In;
  std::vector<double> SetupS, GenMs, SortMs, LayoutMs, TransposeMs;
  auto setUp = [&](std::optional<Input> &Into) {
    Into.reset(); // one input resident at a time before the timed phase
    double T0 = nowSec();
    Input &Built = Into.emplace();
    buildInput(*W, A, Target, Built);
    SetupS.push_back(nowSec() - T0);
    GenMs.push_back(Built.GenerateMs);
    SortMs.push_back(Built.SortMs);
    LayoutMs.push_back(Built.LayoutMs);
    TransposeMs.push_back(Built.TransposeMs);
    return SetupS.back();
  };
  for (int I = 0; I < A.Setups; ++I)
    setUp(In);
  std::printf("input: %s scale=%d, %lld nodes, %lld arcs, source %d\n",
              W->Graph, A.Scale, static_cast<long long>(In->G.numNodes()),
              static_cast<long long>(In->G.numEdges()), In->Source);

  auto TS = makeTaskSystem(TaskSystemKind::Pool, Tasks);
  Context Ctx{*W, Target, Tasks, *TS, *In};
  KernelConfig Cfg = Ctx.config();
  // No hidden builds inside a timed call: CSR workloads take the plain push
  // path, the others a prebuilt layout that already has its transpose.
  bool Prebuilt = W->Layout == LayoutKind::Csr
                      ? W->Dir == Direction::Push
                      : In->L.kind() == W->Layout && In->L.hasTranspose();
  if (!Prebuilt) {
    std::fprintf(stderr, "perfbench_driver: %s would build a layout inside "
                         "the timed call\n",
                 W->Name);
    return 2;
  }

  // Timed phase: every kernel in a fixed order per rep, until the time is
  // up. A kernel shorter than ShortCallMs gets several back-to-back calls
  // per rep (sized from its first call), so its median rests on as many
  // samples as the long kernels' do. Each output is checked outside its
  // timed interval: the first OraclePasses reps and every other rep after
  // them run the oracle on every output, so verify_s also samples the whole
  // run; in the other reps an output bit-identical to one the oracle
  // accepted in this run is accepted without rerunning it, and any other
  // output (pr's float sums, a corrupted output) goes through the oracle.
  constexpr int OraclePasses = 3;
  constexpr double ShortCallMs = 20;
  constexpr int MaxCallsPerRep = 16;
  const std::size_t K = W->Kernels.size();
  std::vector<std::vector<double>> CallMs(K), VerifyMs(K);
  std::vector<std::optional<KernelOutput>> Certified(K);
  std::vector<int> CallsPerRep(K, 1);
  long Attempted = 0, Failed = 0, Identical = 0;
  std::size_t Reps = 0;
  const double Start = nowSec(), Deadline = Start + A.Seconds;
  double InterleavedSetupS = 0, PeakRssMb = 0;
  do {
    const bool FullPass = Reps < OraclePasses || Reps % 2 == 0;
    for (std::size_t I = 0; I < K; ++I) {
      KernelKind Kind = W->Kernels[I];
      for (int C = 0; C < CallsPerRep[I]; ++C) {
        KernelOutput Out;
        CallMs[I].push_back(timeMs([&] { Out = Ctx.run(Kind, Cfg); }));
        ++Attempted;
        if (A.Corrupt == Kind)
          corruptOutput(Kind, Out, In->Source);
        if (!FullPass && Certified[I] && sameOutput(Out, *Certified[I])) {
          ++Identical;
          continue;
        }
        bool Ok = true;
        VerifyMs[I].push_back(
            timeMs([&] { Ok = Ctx.verify(Kind, Out, Cfg); }));
        Failed += Ok ? 0 : 1;
        if (Ok && !Certified[I])
          Certified[I] = std::move(Out);
      }
      if (CallMs[I].size() == 1)
        CallsPerRep[I] = std::clamp(
            static_cast<int>(std::ceil(ShortCallMs / CallMs[I][0])), 1,
            MaxCallsPerRep);
    }
    ++Reps;
    // Peak memory of set-up and one call of every kernel, taken before any
    // scratch input sits next to the real one.
    if (Reps == 1)
      PeakRssMb = peakRssMb();
    while (InterleavedSetupS < SetupShare * (nowSec() - Start)) {
      std::optional<Input> Scratch;
      InterleavedSetupS += setUp(Scratch);
    }
  } while (nowSec() < Deadline || Reps < OraclePasses);

  MetricList E2e, Ungated;
  E2e.push_back({"setup_s", median(SetupS), "s", SetupS.size()});
  double SuiteMs = 0, VerifyPassMs = 0;
  std::size_t MinOracleRuns = SIZE_MAX;
  std::vector<double> KernelMedianMs(K), KernelVerifyMs(K);
  for (std::size_t I = 0; I < K; ++I) {
    KernelMedianMs[I] = median(CallMs[I]);
    KernelVerifyMs[I] = median(VerifyMs[I]);
    SuiteMs += KernelMedianMs[I];
    VerifyPassMs += KernelVerifyMs[I];
    MinOracleRuns = std::min(MinOracleRuns, VerifyMs[I].size());
    (runOnEveryWorkload(W->Kernels[I]) ? E2e : Ungated)
        .push_back({std::string(kernelName(W->Kernels[I])) + "_ms",
                    KernelMedianMs[I], "ms", CallMs[I].size()});
  }
  E2e.push_back({"suite_s", SuiteMs / 1e3, "s", Reps});
  // One pass over the suite's outputs: each kernel's median oracle time.
  E2e.push_back({"verify_s", VerifyPassMs / 1e3, "s", MinOracleRuns});
  double FailedFrac = ratio(Failed, Attempted);
  E2e.push_back({"verified_frac", 1 - FailedFrac, "frac",
                 static_cast<std::size_t>(Attempted)});
  E2e.push_back({"peak_rss_mb", PeakRssMb, "MB"});
  printMetrics("end-to-end", E2e);
  if (!Ungated.empty())
    printMetrics("not gated (not run on every workload)", Ungated);
  std::printf("  failed_frac = %ld failed / %ld timed calls = %.6f "
              "(%ld oracle runs, %ld identical to a certified output)\n",
              Failed, Attempted, FailedFrac, Attempted - Identical, Identical);
  std::printf("\nper-call samples, ms (min median max)\n");
  for (std::size_t I = 0; I < K; ++I)
    std::printf("  %-8s %10.3f %10.3f %10.3f\n", kernelName(W->Kernels[I]),
                *std::min_element(CallMs[I].begin(), CallMs[I].end()),
                KernelMedianMs[I],
                *std::max_element(CallMs[I].begin(), CallMs[I].end()));

  if (!A.Trace) {
    printJson(Failed == 0, Attempted, Failed, E2e);
    return 0;
  }

  MetricList Layer;
  Layer.push_back({"graph.generate_ms", median(GenMs), "ms", GenMs.size()});
  Layer.push_back({"graph.sort_ms", median(SortMs), "ms", SortMs.size()});
  Layer.push_back({"graph.layout_ms", median(LayoutMs), "ms", LayoutMs.size()});
  Layer.push_back(
      {"graph.transpose_ms", median(TransposeMs), "ms", TransposeMs.size()});
  Layer.push_back(
      {"graph.aux_bytes", static_cast<double>(In->L.layoutAuxBytes()), "B"});
  Layer.push_back({"graph.bytes",
                   static_cast<double>(In->G.memoryFootprintBytes()), "B"});
  bool LayerOk = runLayerPass(Ctx, KernelMedianMs, KernelVerifyMs, Layer);
  printMetrics("per-layer", Layer);
  printJson(Failed == 0 && LayerOk, Attempted, Failed, Layer);
  return 0;
}
