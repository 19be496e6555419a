//===- bench/bench_table6_gather.cpp - Table VI: gather load latency ------===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
// Reproduces Table VI: average per-word load-to-use latency of AVX2/AVX512
// gathers versus batches of independent scalar loads, with the working set
// sized to hit a particular cache level. Chains are dependent (the loaded
// value is the next index), so out-of-order hardware can overlap the
// independent scalar chains but a gather cannot complete until its slowest
// lane does — the paper's explanation for Scalar8 beating the AVX2 gather.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "support/AlignedBuffer.h"
#include "support/Rng.h"

#if defined(EGACS_HAVE_AVX2) || defined(EGACS_HAVE_AVX512)
#include <immintrin.h>
#endif

using namespace egacs;
using namespace egacs::bench;

namespace {

/// Builds a random single-cycle permutation over [0, N) so every chain
/// visits the whole working set (classic pointer-chase construction).
AlignedBuffer<std::int32_t> makeChase(std::int32_t N, std::uint64_t Seed) {
  std::vector<std::int32_t> Order(static_cast<std::size_t>(N));
  for (std::int32_t I = 0; I < N; ++I)
    Order[static_cast<std::size_t>(I)] = I;
  Xoshiro256 Rng(Seed);
  for (std::int32_t I = N - 1; I > 0; --I)
    std::swap(Order[static_cast<std::size_t>(I)],
              Order[Rng.nextBounded(static_cast<std::uint64_t>(I) + 1)]);
  AlignedBuffer<std::int32_t> Chase(static_cast<std::size_t>(N));
  for (std::int32_t I = 0; I < N; ++I)
    Chase[static_cast<std::size_t>(Order[static_cast<std::size_t>(I)])] =
        Order[static_cast<std::size_t>((I + 1) % N)];
  return Chase;
}

/// K independent scalar chains; returns ns per loaded word.
template <int K>
double scalarChains(const std::int32_t *Chase, std::int32_t N, int Iters) {
  std::int32_t Cursor[K];
  for (int C = 0; C < K; ++C)
    Cursor[C] = (N / K) * C;
  Timer T;
  T.start();
  for (int I = 0; I < Iters; ++I)
    for (int C = 0; C < K; ++C)
      Cursor[C] = Chase[Cursor[C]];
  T.stop();
  // Defeat dead-code elimination.
  std::int32_t Sink = 0;
  for (int C = 0; C < K; ++C)
    Sink ^= Cursor[C];
  if (Sink == 0x7fffffff)
    std::puts("");
  return static_cast<double>(T.nanoseconds()) / Iters / K;
}

#ifdef EGACS_HAVE_AVX2
double avx2GatherChain(const std::int32_t *Chase, std::int32_t N,
                       int Iters) {
  __m256i V = _mm256_setr_epi32(0, N / 8, 2 * (N / 8), 3 * (N / 8),
                                4 * (N / 8), 5 * (N / 8), 6 * (N / 8),
                                7 * (N / 8));
  Timer T;
  T.start();
  for (int I = 0; I < Iters; ++I)
    V = _mm256_i32gather_epi32(Chase, V, 4);
  T.stop();
  alignas(32) std::int32_t Out[8];
  _mm256_store_si256(reinterpret_cast<__m256i *>(Out), V);
  if (Out[0] == 0x7fffffff)
    std::puts("");
  return static_cast<double>(T.nanoseconds()) / Iters / 8;
}
#endif

#ifdef EGACS_HAVE_AVX512
double avx512GatherChain(const std::int32_t *Chase, std::int32_t N,
                         int Iters) {
  alignas(64) std::int32_t Init[16];
  for (int L = 0; L < 16; ++L)
    Init[L] = (N / 16) * L;
  __m512i V = _mm512_load_si512(Init);
  Timer T;
  T.start();
  // The all-ones masked form is the same vpgatherdd; naming the pass-through
  // operand avoids GCC's -Wmaybe-uninitialized on the unmasked intrinsic.
  for (int I = 0; I < Iters; ++I)
    V = _mm512_mask_i32gather_epi32(V, 0xFFFF, V, Chase, 4);
  T.stop();
  alignas(64) std::int32_t Out[16];
  _mm512_store_si512(Out, V);
  if (Out[0] == 0x7fffffff)
    std::puts("");
  return static_cast<double>(T.nanoseconds()) / Iters / 16;
}
#endif

} // namespace

int main(int Argc, char **Argv) {
  BenchEnv Env(Argc, Argv);
  banner("Table VI - gather vs scalar load-to-use latency", Env);
  int Iters = static_cast<int>(Env.Opts.getInt("iters", 2000000));

  struct Level {
    const char *Name;
    std::int32_t Words;
  };
  // Working sets sized for typical L1 (32K), L2 (512K), L3 (8M+) caches.
  const Level Levels[] = {{"L1 (16KiB)", 4 * 1024},
                          {"L2 (256KiB)", 64 * 1024},
                          {"L3 (4MiB)", 1024 * 1024}};

  Table T({"config", Levels[0].Name, Levels[1].Name, Levels[2].Name});
  std::vector<std::vector<double>> Results;
  std::vector<std::string> Names;

  for (const Level &L : Levels) {
    AlignedBuffer<std::int32_t> Chase = makeChase(L.Words, 99);
    int ScaledIters =
        static_cast<int>(static_cast<std::int64_t>(Iters) * 4096 / L.Words) +
        1000;
    std::size_t Row = 0;
    auto Record = [&](const char *Name, double Ns) {
      if (Results.size() <= Row) {
        Results.emplace_back();
        Names.push_back(Name);
      }
      Results[Row++].push_back(Ns);
    };
    Record("Scalar1", scalarChains<1>(Chase.data(), L.Words, ScaledIters));
    Record("Scalar2", scalarChains<2>(Chase.data(), L.Words, ScaledIters));
    Record("Scalar4", scalarChains<4>(Chase.data(), L.Words, ScaledIters));
    Record("Scalar8", scalarChains<8>(Chase.data(), L.Words, ScaledIters));
    Record("Scalar16", scalarChains<16>(Chase.data(), L.Words, ScaledIters));
    Record("Scalar32", scalarChains<32>(Chase.data(), L.Words, ScaledIters));
#ifdef EGACS_HAVE_AVX2
    if (cpuInfo().HasAvx2)
      Record("AVX2 gather",
             avx2GatherChain(Chase.data(), L.Words, ScaledIters));
#endif
#ifdef EGACS_HAVE_AVX512
    if (cpuInfo().HasAvx512f)
      Record("AVX512 gather",
             avx512GatherChain(Chase.data(), L.Words, ScaledIters));
#endif
  }
  for (std::size_t Row = 0; Row < Results.size(); ++Row) {
    std::vector<std::string> Cells{Names[Row]};
    for (double Ns : Results[Row])
      Cells.push_back(Table::fmt(Ns, 2) + " ns");
    T.addRow(std::move(Cells));
  }
  T.print();
  std::printf("\npaper shape: per-word latency of batched independent "
              "scalar loads (Scalar8/16) beats the gather on out-of-order "
              "cores, because the gather retires only when its slowest lane "
              "arrives.\n");
  return 0;
}
