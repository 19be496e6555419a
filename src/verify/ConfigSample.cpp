//===- verify/ConfigSample.cpp - Random kernel-config sampling ------------===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
//===----------------------------------------------------------------------===//

#include "verify/ConfigSample.h"

#include "graph/GraphView.h"
#include "sched/Prefetch.h"
#include "sched/UpdateEngine.h"
#include "simd/Targets.h"
#include "support/ParseEnum.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace egacs;
using namespace egacs::verify;

namespace {

template <typename T, std::size_t N>
T pick(Xoshiro256 &Rng, const T (&Palette)[N]) {
  return Palette[Rng.nextBounded(N)];
}

bool coin(Xoshiro256 &Rng) { return Rng.nextBounded(2) == 1; }

// Every value of the enum knobs that have no public table: the sampler
// draws from them and parseConfigSpec matches names against them.
constexpr UpdatePolicy AllUpdates[] = {
    UpdatePolicy::Atomic, UpdatePolicy::Combined, UpdatePolicy::Privatized};
constexpr PrefetchPolicy AllPrefetches[] = {
    PrefetchPolicy::None, PrefetchPolicy::Rows, PrefetchPolicy::RowsProps};
constexpr Direction AllDirections[] = {Direction::Push, Direction::Pull,
                                       Direction::Hybrid};

} // namespace

SampledRun verify::sampleRun(Xoshiro256 &Rng) {
  SampledRun R;
  R.Kernel = AllKernels[Rng.nextBounded(std::size(AllKernels))];

  // Only targets the executing CPU can run; Scalar1 is always supported.
  std::vector<simd::TargetKind> Supported;
  for (simd::TargetKind T : simd::AllTargets)
    if (simd::targetSupported(T))
      Supported.push_back(T);
  R.Target = Supported[Rng.nextBounded(Supported.size())];

  static constexpr int TaskPalette[] = {1, 1, 2, 3, 4, 7};
  R.Cfg.NumTasks = pick(Rng, TaskPalette);
  R.SerialTs = R.Cfg.NumTasks == 1 && coin(Rng);

  R.Cfg.IterationOutlining = coin(Rng);
  R.Cfg.NestedParallelism = coin(Rng);
  R.Cfg.CoopConversion = coin(Rng);
  R.Cfg.Fibers = coin(Rng);

  static constexpr std::int64_t Chunks[] = {1, 16, 256, 1024};
  R.Cfg.ChunkSize = pick(Rng, Chunks);

  R.Cfg.Update = pick(Rng, AllUpdates);

  R.Cfg.Prefetch = pick(Rng, AllPrefetches);
  static constexpr int PfDists[] = {0, 2, 8};
  R.Cfg.PrefetchDist = pick(Rng, PfDists);

  R.Cfg.Layout = pick(Rng, AllLayoutKinds);
  static constexpr std::int32_t Sigmas[] = {64, 1 << 12};
  R.Cfg.SellSigma = pick(Rng, Sigmas);

  R.Cfg.Dir = pick(Rng, AllDirections);
  static constexpr int Alphas[] = {4, 15};
  R.Cfg.AlphaNum = pick(Rng, Alphas);
  static constexpr int Betas[] = {2, 18};
  R.Cfg.BetaDenom = pick(Rng, Betas);
  static constexpr int Hybrids[] = {2, 20};
  R.Cfg.HybridDenominator = pick(Rng, Hybrids);

  static constexpr std::int32_t Deltas[] = {1, 64, 8192};
  R.Cfg.Delta = pick(Rng, Deltas);
  static constexpr int Fibers[] = {4, 256};
  R.Cfg.MaxFibersPerTask = pick(Rng, Fibers);
  static constexpr int NpBufs[] = {64, 4096};
  R.Cfg.NpBufferCapacity = pick(Rng, NpBufs);

  // Couple (damping, tolerance) so 50 power-iteration rounds provably
  // converge: the L1 residual contracts by d per round from at most 2d, so
  // tolerances down to ~4*d^36 still leave a 12-round margin. Draw the
  // tolerance log-uniformly in [that floor, 1e-2].
  static constexpr float Dampings[] = {0.5f, 0.6f, 0.7f, 0.85f};
  R.Cfg.PrDamping = pick(Rng, Dampings);
  double Lo = std::clamp(4.0 * std::pow(R.Cfg.PrDamping, 36.0), 1e-5, 9e-3);
  R.Cfg.PrTolerance = static_cast<float>(
      Lo * std::pow(1e-2 / Lo, Rng.nextDouble()));
  return R;
}

simd::TargetKind verify::parseTargetKind(const std::string &Name) {
  for (simd::TargetKind T : simd::AllTargets)
    if (Name == simd::targetName(T))
      return T;
  std::string Valid;
  for (simd::TargetKind T : simd::AllTargets) {
    if (!Valid.empty())
      Valid += '|';
    Valid += simd::targetName(T);
  }
  parseEnumFail("target", Name, Valid);
}

std::string verify::configSpec(const SampledRun &R) {
  char Buf[512];
  std::snprintf(
      Buf, sizeof(Buf),
      "kernel=%s,target=%s,tasks=%d,ts=%s,io=%d,np=%d,cc=%d,fib=%d,"
      "chunk=%lld,update=%s,prefetch=%s,pfdist=%d,layout=%s,sigma=%d,"
      "dir=%s,alpha=%d,beta=%d,hybrid=%d,delta=%d,fibcap=%d,npbuf=%d,"
      "damping=%.9g,tol=%.9g",
      kernelName(R.Kernel), simd::targetName(R.Target), R.Cfg.NumTasks,
      R.SerialTs ? "serial" : "pool", R.Cfg.IterationOutlining ? 1 : 0,
      R.Cfg.NestedParallelism ? 1 : 0, R.Cfg.CoopConversion ? 1 : 0,
      R.Cfg.Fibers ? 1 : 0, static_cast<long long>(R.Cfg.ChunkSize),
      updatePolicyName(R.Cfg.Update), prefetchPolicyName(R.Cfg.Prefetch),
      R.Cfg.PrefetchDist, layoutName(R.Cfg.Layout), R.Cfg.SellSigma,
      directionName(R.Cfg.Dir), R.Cfg.AlphaNum, R.Cfg.BetaDenom,
      R.Cfg.HybridDenominator, R.Cfg.Delta, R.Cfg.MaxFibersPerTask,
      R.Cfg.NpBufferCapacity,
      static_cast<double>(R.Cfg.PrDamping),
      static_cast<double>(R.Cfg.PrTolerance));
  return Buf;
}

namespace {

[[noreturn]] void specError(const std::string &Spec, const std::string &Why) {
  throw ConfigSpecError("bad --config spec '" + Spec + "': " + Why);
}

int specInt(const std::string &Spec, const std::string &Value) {
  try {
    return std::stoi(Value);
  } catch (...) {
    specError(Spec, "'" + Value + "' is not an integer");
  }
}

bool specBool(const std::string &Spec, const std::string &Value) {
  if (Value == "0" || Value == "false")
    return false;
  if (Value == "1" || Value == "true")
    return true;
  specError(Spec, "'" + Value + "' is not a boolean (0/1)");
}

float specFloat(const std::string &Spec, const std::string &Value) {
  try {
    return std::stof(Value);
  } catch (...) {
    specError(Spec, "'" + Value + "' is not a number");
  }
}

/// Matches \p Value against the names of \p Table; an unknown name throws
/// with the valid set, in the shape parseEnumFail prints.
template <typename T, std::size_t N, typename NameFn>
T specEnum(const std::string &Spec, const char *What, const std::string &Value,
           const T (&Table)[N], NameFn Name) {
  std::string Valid;
  for (T V : Table) {
    if (Value == Name(V))
      return V;
    if (!Valid.empty())
      Valid += '|';
    Valid += Name(V);
  }
  specError(Spec, std::string("unknown ") + What + " '" + Value +
                      "'; valid values are " + Valid);
}

} // namespace

SampledRun verify::parseConfigSpec(const std::string &Spec) {
  SampledRun R;
  std::size_t Pos = 0;
  while (Pos < Spec.size()) {
    std::size_t End = Spec.find(',', Pos);
    if (End == std::string::npos)
      End = Spec.size();
    std::string Item = Spec.substr(Pos, End - Pos);
    Pos = End + 1;
    if (Item.empty())
      continue;
    std::size_t Eq = Item.find('=');
    if (Eq == std::string::npos)
      specError(Spec, "'" + Item + "' is not key=value");
    std::string Key = Item.substr(0, Eq), Value = Item.substr(Eq + 1);

    if (Key == "kernel")
      R.Kernel = specEnum(Spec, "kernel", Value, AllKernels, kernelName);
    else if (Key == "target")
      R.Target =
          specEnum(Spec, "target", Value, simd::AllTargets, simd::targetName);
    else if (Key == "tasks")
      R.Cfg.NumTasks = specInt(Spec, Value);
    else if (Key == "ts") {
      if (Value == "serial")
        R.SerialTs = true;
      else if (Value == "pool")
        R.SerialTs = false;
      else
        specError(Spec, "ts must be serial or pool, got '" + Value + "'");
    } else if (Key == "io")
      R.Cfg.IterationOutlining = specBool(Spec, Value);
    else if (Key == "np")
      R.Cfg.NestedParallelism = specBool(Spec, Value);
    else if (Key == "cc")
      R.Cfg.CoopConversion = specBool(Spec, Value);
    else if (Key == "fib")
      R.Cfg.Fibers = specBool(Spec, Value);
    else if (Key == "chunk")
      R.Cfg.ChunkSize = specInt(Spec, Value);
    else if (Key == "update")
      R.Cfg.Update = specEnum(Spec, "update policy", Value, AllUpdates,
                              updatePolicyName);
    else if (Key == "prefetch")
      R.Cfg.Prefetch = specEnum(Spec, "prefetch policy", Value,
                                AllPrefetches, prefetchPolicyName);
    else if (Key == "pfdist")
      R.Cfg.PrefetchDist = specInt(Spec, Value);
    else if (Key == "layout")
      R.Cfg.Layout =
          specEnum(Spec, "layout", Value, AllLayoutKinds, layoutName);
    else if (Key == "sigma")
      R.Cfg.SellSigma = specInt(Spec, Value);
    else if (Key == "dir")
      R.Cfg.Dir =
          specEnum(Spec, "direction", Value, AllDirections, directionName);
    else if (Key == "alpha")
      R.Cfg.AlphaNum = specInt(Spec, Value);
    else if (Key == "beta")
      R.Cfg.BetaDenom = specInt(Spec, Value);
    else if (Key == "hybrid")
      R.Cfg.HybridDenominator = specInt(Spec, Value);
    else if (Key == "delta")
      R.Cfg.Delta = specInt(Spec, Value);
    else if (Key == "fibcap")
      R.Cfg.MaxFibersPerTask = specInt(Spec, Value);
    else if (Key == "npbuf")
      R.Cfg.NpBufferCapacity = specInt(Spec, Value);
    else if (Key == "damping")
      R.Cfg.PrDamping = specFloat(Spec, Value);
    else if (Key == "tol")
      R.Cfg.PrTolerance = specFloat(Spec, Value);
    else
      specError(Spec, "unknown key '" + Key + "'");
  }
  if (R.SerialTs && R.Cfg.NumTasks != 1)
    specError(Spec, "ts=serial requires tasks=1");
  return R;
}
