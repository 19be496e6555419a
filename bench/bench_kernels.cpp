//===- bench/bench_kernels.cpp - google-benchmark throughput suite --------===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
// A google-benchmark registered suite over the SPMD primitives and the
// graph kernels, for fine-grained regression tracking of the pieces the
// paper's figures aggregate: gathers (hardware and relaxed-atomic lane
// loops), relaxed scatters, CAS-loop min (per lane and conflict-combined,
// on distinct and on paired destinations) and float add, packed stores,
// cooperative and naive pushes, and whole-kernel throughput on each SIMD
// target. The primitive families alone (seconds, unlike kernel/):
//
//   bench_kernels --benchmark_filter='^(gather|scatter|cas|fadd|packed|push)'
//
//===----------------------------------------------------------------------===//

#include "graph/Generators.h"
#include "kernels/Kernels.h"
#include "simd/Atomics.h"
#include "simd/Targets.h"
#include "support/CpuInfo.h"
#include "support/Rng.h"
#include "worklist/Worklist.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>

using namespace egacs;
using namespace egacs::simd;

namespace {

constexpr int TableWords = 1 << 16;

std::vector<std::int32_t> &indexTable() {
  static std::vector<std::int32_t> Table = [] {
    std::vector<std::int32_t> T(TableWords);
    Xoshiro256 Rng(5);
    for (auto &V : T)
      V = static_cast<std::int32_t>(Rng.nextBounded(TableWords));
    return T;
  }();
  return Table;
}

/// True when the executing CPU can run backend BK.
template <typename BK> bool backendSupported() {
  std::string Name = BK::Name;
  if (Name.rfind("avx512", 0) == 0)
    return cpuInfo().HasAvx512f;
  if (Name.rfind("avx2", 0) == 0)
    return cpuInfo().HasAvx2;
  return true;
}

template <typename BK> void BM_Gather(benchmark::State &State) {
  if (!backendSupported<BK>()) {
    State.SkipWithError("target unsupported");
    return;
  }
  auto &Table = indexTable();
  VInt<BK> Idx = simd::load<BK>(Table.data());
  VMask<BK> All = maskAll<BK>();
  for (auto _ : State) {
    Idx = gather<BK>(Table.data(), Idx, All);
    benchmark::DoNotOptimize(Idx);
  }
  State.SetItemsProcessed(State.iterations() * BK::Width);
}

/// The relaxed-atomic lane loop behind bfs-tp's level filter and cc's label
/// reads, on the same dependent index chain as BM_Gather.
template <typename BK> void BM_GatherRelaxed(benchmark::State &State) {
  if (!backendSupported<BK>()) {
    State.SkipWithError("target unsupported");
    return;
  }
  auto &Table = indexTable();
  VInt<BK> Idx = simd::load<BK>(Table.data());
  VMask<BK> All = maskAll<BK>();
  for (auto _ : State) {
    Idx = gatherRelaxed<BK>(Table.data(), Idx, All);
    benchmark::DoNotOptimize(Idx);
  }
  State.SetItemsProcessed(State.iterations() * BK::Width);
}

/// Lane-spread destinations (one cache line per lane) for the write-side
/// primitives, so each lane's access is its own line and uncontended.
template <typename BK> VInt<BK> spreadLanes() {
  return programIndex<BK>() * splat<BK>(16);
}

template <typename BK> void BM_ScatterRelaxed(benchmark::State &State) {
  if (!backendSupported<BK>()) {
    State.SkipWithError("target unsupported");
    return;
  }
  std::vector<std::int32_t> Dst(16 * BK::Width);
  VInt<BK> Idx = spreadLanes<BK>();
  VInt<BK> V = programIndex<BK>();
  VMask<BK> All = maskAll<BK>();
  for (auto _ : State) {
    scatterRelaxed<BK>(Dst.data(), Idx, V, All);
    benchmark::DoNotOptimize(Dst.data());
    benchmark::ClobberMemory();
  }
  State.SetItemsProcessed(State.iterations() * BK::Width);
}

/// A vector min where lane l targets destination l >> \p LaneShift (one
/// cache line each): the value drops every iteration, so every CAS the
/// operation \p Min issues is uncontended and wins.
template <typename BK, typename MinFn>
void runCasMin(benchmark::State &State, int LaneShift, MinFn Min) {
  if (!backendSupported<BK>()) {
    State.SkipWithError("target unsupported");
    return;
  }
  std::vector<std::int32_t> Dst(16 * BK::Width, INT32_MAX);
  VInt<BK> Idx = (programIndex<BK>() >> LaneShift) * splat<BK>(16);
  VMask<BK> All = maskAll<BK>();
  std::int32_t Next = INT32_MAX - 1;
  for (auto _ : State) {
    VMask<BK> Won = Min(Dst.data(), Idx, splat<BK>(Next), All);
    benchmark::DoNotOptimize(Won);
    benchmark::ClobberMemory();
    if (--Next < 0) {
      State.PauseTiming();
      std::fill(Dst.begin(), Dst.end(), INT32_MAX);
      Next = INT32_MAX - 1;
      State.ResumeTiming();
    }
  }
  State.SetItemsProcessed(State.iterations() * BK::Width);
}

/// Uncontended atomicMinVector: one CAS per lane.
template <typename BK> void BM_CasMin(benchmark::State &State) {
  runCasMin<BK>(State, 0,
                [](auto... A) { return atomicMinVector<BK>(A...); });
}

/// atomicMinVectorCombined with every lane's destination distinct: the
/// duplicate test, then the same per-lane loop as BM_CasMin.
template <typename BK> void BM_CasMinCombinedDistinct(benchmark::State &State) {
  runCasMin<BK>(State, 0,
                [](auto... A) { return atomicMinVectorCombined<BK>(A...); });
}

/// atomicMinVectorCombined with lanes paired on Width/2 destinations: the
/// leader pass folds every odd lane into its even neighbour, so half the
/// lanes issue a CAS.
template <typename BK> void BM_CasMinCombinedDup(benchmark::State &State) {
  runCasMin<BK>(State, 1,
                [](auto... A) { return atomicMinVectorCombined<BK>(A...); });
}

/// Uncontended atomicAddVectorF: one float CAS loop per lane.
template <typename BK> void BM_FloatAdd(benchmark::State &State) {
  if (!backendSupported<BK>()) {
    State.SkipWithError("target unsupported");
    return;
  }
  std::vector<float> Dst(16 * BK::Width, 0.0f);
  VInt<BK> Idx = spreadLanes<BK>();
  VFloat<BK> V = splatF<BK>(1.0f);
  VMask<BK> All = maskAll<BK>();
  for (auto _ : State) {
    atomicAddVectorF<BK>(Dst.data(), Idx, V, All);
    benchmark::DoNotOptimize(Dst.data());
    benchmark::ClobberMemory();
  }
  State.SetItemsProcessed(State.iterations() * BK::Width);
}

template <typename BK> void BM_PackedStoreActive(benchmark::State &State) {
  alignas(64) std::int32_t Dst[64];
  VInt<BK> V = programIndex<BK>();
  std::uint64_t Bits = 0x5a5a5a5a5a5a5a5aull;
  VMask<BK> M = maskFromBits<BK>(Bits);
  for (auto _ : State) {
    int N = packedStoreActive<BK>(Dst, V, M);
    benchmark::DoNotOptimize(N);
    benchmark::DoNotOptimize(Dst[0]);
  }
  State.SetItemsProcessed(State.iterations() * BK::Width);
}

template <typename BK> void BM_CoopPush(benchmark::State &State) {
  Worklist WL(1 << 20);
  VInt<BK> V = programIndex<BK>();
  VMask<BK> M = maskAll<BK>();
  for (auto _ : State) {
    if (WL.size() + 2 * BK::Width >= static_cast<std::int32_t>(WL.capacity()))
      WL.clear();
    pushCoop<BK>(WL, V, M);
  }
  State.SetItemsProcessed(State.iterations() * BK::Width);
}

template <typename BK> void BM_NaivePush(benchmark::State &State) {
  Worklist WL(1 << 20);
  VInt<BK> V = programIndex<BK>();
  VMask<BK> M = maskAll<BK>();
  for (auto _ : State) {
    if (WL.size() + 2 * BK::Width >= static_cast<std::int32_t>(WL.capacity()))
      WL.clear();
    pushNaive<BK>(WL, V, M);
  }
  State.SetItemsProcessed(State.iterations() * BK::Width);
}

const Csr &benchGraph() {
  static Csr G = rmatGraph(12, 8, 77);
  return G;
}

void BM_Kernel(benchmark::State &State, KernelKind Kind, TargetKind Target) {
  if (!targetSupported(Target)) {
    State.SkipWithError("target unsupported");
    return;
  }
  const Csr &G = kernelNeedsSortedAdjacency(Kind)
                     ? [] {
                         static Csr Sorted =
                             benchGraph().sortedByDestination();
                         return std::cref(Sorted);
                       }()
                             .get()
                     : benchGraph();
  SerialTaskSystem TS;
  KernelConfig Cfg = KernelConfig::allOptimizations(TS, 1);
  Cfg.Delta = 2048;
  for (auto _ : State) {
    KernelOutput Out = runKernel(Kind, Target, G, Cfg, 0);
    benchmark::DoNotOptimize(Out);
  }
  State.SetItemsProcessed(State.iterations() * G.numEdges());
}

#define EGACS_REGISTER_PRIMITIVES(BK, NAME)                                    \
  BENCHMARK(BM_Gather<BK>)->Name("gather/" NAME);                              \
  BENCHMARK(BM_GatherRelaxed<BK>)->Name("gather_relaxed/" NAME);               \
  BENCHMARK(BM_ScatterRelaxed<BK>)->Name("scatter_relaxed/" NAME);             \
  BENCHMARK(BM_CasMin<BK>)->Name("cas_min/" NAME);                             \
  BENCHMARK(BM_CasMinCombinedDistinct<BK>)                                     \
      ->Name("cas_min_combined_distinct/" NAME);                               \
  BENCHMARK(BM_CasMinCombinedDup<BK>)->Name("cas_min_combined_dup/" NAME);     \
  BENCHMARK(BM_FloatAdd<BK>)->Name("fadd/" NAME);                              \
  BENCHMARK(BM_PackedStoreActive<BK>)->Name("packed_store/" NAME);             \
  BENCHMARK(BM_CoopPush<BK>)->Name("push_coop/" NAME);                         \
  BENCHMARK(BM_NaivePush<BK>)->Name("push_naive/" NAME)

EGACS_REGISTER_PRIMITIVES(ScalarBackend<8>, "avx1-i32x8");
#ifdef EGACS_HAVE_AVX2
EGACS_REGISTER_PRIMITIVES(Avx2Backend, "avx2-i32x8");
EGACS_REGISTER_PRIMITIVES(Avx2PumpedBackend, "avx2-i32x16");
#endif
#ifdef EGACS_HAVE_AVX512
EGACS_REGISTER_PRIMITIVES(Avx512HalfBackend, "avx512-i32x8");
EGACS_REGISTER_PRIMITIVES(Avx512Backend, "avx512-i32x16");
#endif

void registerKernelBenchmarks() {
  const TargetKind Targets[] = {
      TargetKind::Scalar1,
#ifdef EGACS_HAVE_AVX2
      TargetKind::Avx2x8,
#endif
#ifdef EGACS_HAVE_AVX512
      TargetKind::Avx512x16,
#endif
  };
  for (KernelKind Kind : AllKernels)
    for (TargetKind Target : Targets) {
      std::string Name = std::string("kernel/") + kernelName(Kind) + "/" +
                         targetName(Target);
      benchmark::RegisterBenchmark(
          Name.c_str(),
          [Kind, Target](benchmark::State &State) {
            BM_Kernel(State, Kind, Target);
          })
          ->Unit(benchmark::kMillisecond)
          ->Iterations(3);
    }
}

} // namespace

int main(int Argc, char **Argv) {
  benchmark::Initialize(&Argc, Argv);
  registerKernelBenchmarks();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
