//===- simd/Avx2Backend.h - 8-wide and 4-wide AVX2 backends -----*- C++ -*-===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// AVX2 implementations of the SPMD backend contract. AVX2 (Haswell) added
/// the dedicated gather loads the paper highlights (Section II-A); it has no
/// scatter stores and no opmask registers, so scatters are lowered to scalar
/// loops and masks are all-ones integer vectors, exactly as ISPC lowers its
/// avx2-i32x8 target. packed_store_active uses the classic
/// permutevar8x32-with-LUT compression idiom.
///
//===----------------------------------------------------------------------===//

#ifndef EGACS_SIMD_AVX2BACKEND_H
#define EGACS_SIMD_AVX2BACKEND_H

#ifdef EGACS_HAVE_AVX2

#include <cstdint>
#include <immintrin.h>

namespace egacs::simd {

namespace detail {

/// Permutation table for 8-lane compression: entry M lists the indices of
/// the set bits of M in ascending order, padded with 0.
struct Avx2CompressTable {
  alignas(32) std::int32_t Perm[256][8];

  constexpr Avx2CompressTable() : Perm() {
    for (int M = 0; M < 256; ++M) {
      int N = 0;
      for (int I = 0; I < 8; ++I)
        if (M & (1 << I))
          Perm[M][N++] = I;
      for (; N < 8; ++N)
        Perm[M][N] = 0;
    }
  }
};

inline constexpr Avx2CompressTable Avx2Compress{};

} // namespace detail

/// Native 8-wide AVX2 backend (ISPC target avx2-i32x8).
struct Avx2Backend {
  static constexpr int Width = 8;
  static constexpr const char *Name = "avx2-i32x8";

  using VInt = __m256i;
  using VFloat = __m256;
  /// All-ones-per-active-lane integer vector (AVX2 has no opmasks).
  using Mask = __m256i;

  // --- Construction -------------------------------------------------------

  static VInt splat(std::int32_t X) { return _mm256_set1_epi32(X); }
  static VFloat splatF(float X) { return _mm256_set1_ps(X); }
  static VInt iota() { return _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7); }

  // --- Memory ---------------------------------------------------------------

  static VInt load(const std::int32_t *P) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i *>(P));
  }
  static VInt maskedLoad(const std::int32_t *P, Mask M) {
    return _mm256_maskload_epi32(P, M);
  }
  static void store(std::int32_t *P, VInt V) {
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(P), V);
  }
  static void maskedStore(std::int32_t *P, VInt V, Mask M) {
    _mm256_maskstore_epi32(P, M, V);
  }
  static VFloat loadF(const float *P) { return _mm256_loadu_ps(P); }
  static void storeF(float *P, VFloat V) { _mm256_storeu_ps(P, V); }

  static VInt gather(const std::int32_t *Base, VInt Idx, Mask M) {
    return _mm256_mask_i32gather_epi32(_mm256_setzero_si256(), Base, Idx, M,
                                       4);
  }
  /// Read-prefetch of the cache line holding \p P (_mm_prefetch wants a
  /// literal hint, hence the switch; locality follows the _MM_HINT_* scale).
  static void prefetch(const void *P, int Locality) {
    const char *C = static_cast<const char *>(P);
    switch (Locality) {
    case 0:
      _mm_prefetch(C, _MM_HINT_NTA);
      break;
    case 1:
      _mm_prefetch(C, _MM_HINT_T2);
      break;
    case 2:
      _mm_prefetch(C, _MM_HINT_T1);
      break;
    default:
      _mm_prefetch(C, _MM_HINT_T0);
      break;
    }
  }

  /// Per-lane prefetch of Base[Idx] for the active lanes (no gather-prefetch
  /// instruction exists on this line; same spill-and-loop idiom as scatter).
  static void gatherPrefetch(const void *Base, VInt Idx, Mask M,
                             int ElemSize) {
    alignas(32) std::int32_t Ix[8];
    store(Ix, Idx);
    const char *P = static_cast<const char *>(Base);
    unsigned Bits = maskBits(M);
    while (Bits) {
      int L = __builtin_ctz(Bits);
      Bits &= Bits - 1;
      prefetch(P + static_cast<std::int64_t>(Ix[L]) * ElemSize, 3);
    }
  }

  /// AVX2 has no scatter instruction; ISPC emits a scalar loop.
  static void scatter(std::int32_t *Base, VInt Idx, VInt V, Mask M) {
    alignas(32) std::int32_t Ix[8], Vx[8];
    store(Ix, Idx);
    store(Vx, V);
    unsigned Bits = maskBits(M);
    while (Bits) {
      int L = __builtin_ctz(Bits);
      Bits &= Bits - 1;
      Base[Ix[L]] = Vx[L];
    }
  }
  static VFloat gatherF(const float *Base, VInt Idx, Mask M) {
    return _mm256_mask_i32gather_ps(_mm256_setzero_ps(), Base, Idx,
                                    _mm256_castsi256_ps(M), 4);
  }
  static void scatterF(float *Base, VInt Idx, VFloat V, Mask M) {
    alignas(32) std::int32_t Ix[8];
    alignas(32) float Vx[8];
    store(Ix, Idx);
    storeF(Vx, V);
    unsigned Bits = maskBits(M);
    while (Bits) {
      int L = __builtin_ctz(Bits);
      Bits &= Bits - 1;
      Base[Ix[L]] = Vx[L];
    }
  }

  // --- Integer arithmetic and logic ------------------------------------------

  static VInt add(VInt A, VInt B) { return _mm256_add_epi32(A, B); }
  static VInt sub(VInt A, VInt B) { return _mm256_sub_epi32(A, B); }
  static VInt mul(VInt A, VInt B) { return _mm256_mullo_epi32(A, B); }
  static VInt min(VInt A, VInt B) { return _mm256_min_epi32(A, B); }
  static VInt max(VInt A, VInt B) { return _mm256_max_epi32(A, B); }
  static VInt and_(VInt A, VInt B) { return _mm256_and_si256(A, B); }
  static VInt or_(VInt A, VInt B) { return _mm256_or_si256(A, B); }
  static VInt xor_(VInt A, VInt B) { return _mm256_xor_si256(A, B); }
  static VInt shl(VInt A, int Sh) {
    return _mm256_sll_epi32(A, _mm_cvtsi32_si128(Sh));
  }
  static VInt shr(VInt A, int Sh) {
    return _mm256_srl_epi32(A, _mm_cvtsi32_si128(Sh));
  }
  static VInt shlv(VInt A, VInt Sh) { return _mm256_sllv_epi32(A, Sh); }

  // --- Float arithmetic --------------------------------------------------------

  static VFloat addF(VFloat A, VFloat B) { return _mm256_add_ps(A, B); }
  static VFloat subF(VFloat A, VFloat B) { return _mm256_sub_ps(A, B); }
  static VFloat mulF(VFloat A, VFloat B) { return _mm256_mul_ps(A, B); }
  static VFloat divF(VFloat A, VFloat B) { return _mm256_div_ps(A, B); }
  static VFloat toFloat(VInt A) { return _mm256_cvtepi32_ps(A); }
  static VInt toInt(VFloat A) { return _mm256_cvttps_epi32(A); }

  // --- Comparisons ----------------------------------------------------------

  static Mask cmpEq(VInt A, VInt B) { return _mm256_cmpeq_epi32(A, B); }
  static Mask cmpNe(VInt A, VInt B) { return maskNot(cmpEq(A, B)); }
  static Mask cmpLt(VInt A, VInt B) { return _mm256_cmpgt_epi32(B, A); }
  static Mask cmpLe(VInt A, VInt B) { return maskNot(cmpGt(A, B)); }
  static Mask cmpGt(VInt A, VInt B) { return _mm256_cmpgt_epi32(A, B); }
  static Mask cmpLtF(VFloat A, VFloat B) {
    return _mm256_castps_si256(_mm256_cmp_ps(A, B, _CMP_LT_OQ));
  }
  static Mask cmpGtF(VFloat A, VFloat B) {
    return _mm256_castps_si256(_mm256_cmp_ps(A, B, _CMP_GT_OQ));
  }

  // --- Select ----------------------------------------------------------------

  static VInt select(Mask M, VInt A, VInt B) {
    return _mm256_blendv_epi8(B, A, M);
  }
  static VFloat selectF(Mask M, VFloat A, VFloat B) {
    return _mm256_blendv_ps(B, A, _mm256_castsi256_ps(M));
  }

  // --- Mask algebra -------------------------------------------------------------

  static Mask maskAll() { return _mm256_set1_epi32(-1); }
  static Mask maskNone() { return _mm256_setzero_si256(); }
  static Mask maskFirstN(int N) { return cmpLt(iota(), splat(N)); }
  static Mask maskAnd(Mask A, Mask B) { return _mm256_and_si256(A, B); }
  static Mask maskOr(Mask A, Mask B) { return _mm256_or_si256(A, B); }
  static Mask maskNot(Mask A) {
    return _mm256_xor_si256(A, _mm256_set1_epi32(-1));
  }
  static Mask maskAndNot(Mask A, Mask B) { return _mm256_andnot_si256(B, A); }
  static bool any(Mask M) { return !_mm256_testz_si256(M, M); }
  static bool all(Mask M) { return maskBits(M) == 0xffu; }
  static int popcount(Mask M) {
    return __builtin_popcount(maskBits(M));
  }
  static std::uint64_t maskBits(Mask M) {
    return static_cast<unsigned>(
        _mm256_movemask_ps(_mm256_castsi256_ps(M)));
  }
  static Mask maskFromBits(std::uint64_t Bits) {
    // Broadcast the bits, isolate bit I in lane I, compare against the bit.
    __m256i Lane = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
    __m256i B = _mm256_set1_epi32(static_cast<int>(Bits & 0xff));
    return _mm256_cmpeq_epi32(_mm256_and_si256(B, Lane), Lane);
  }

  // --- Lane access ----------------------------------------------------------------

  static std::int32_t extract(VInt V, int LaneIdx) {
    alignas(32) std::int32_t Tmp[8];
    store(Tmp, V);
    return Tmp[LaneIdx];
  }
  static float extractF(VFloat V, int LaneIdx) {
    alignas(32) float Tmp[8];
    storeF(Tmp, V);
    return Tmp[LaneIdx];
  }

  // --- Reductions --------------------------------------------------------------------

  static std::int32_t reduceAdd(VInt V, Mask M) {
    VInt Zeroed = and_(V, M);
    __m128i Lo = _mm256_castsi256_si128(Zeroed);
    __m128i Hi = _mm256_extracti128_si256(Zeroed, 1);
    __m128i Sum = _mm_add_epi32(Lo, Hi);
    Sum = _mm_add_epi32(Sum, _mm_shuffle_epi32(Sum, _MM_SHUFFLE(1, 0, 3, 2)));
    Sum = _mm_add_epi32(Sum, _mm_shuffle_epi32(Sum, _MM_SHUFFLE(2, 3, 0, 1)));
    return _mm_cvtsi128_si32(Sum);
  }
  static std::int32_t reduceMin(VInt V, Mask M, std::int32_t Identity) {
    VInt Masked = select(M, V, splat(Identity));
    alignas(32) std::int32_t Tmp[8];
    store(Tmp, Masked);
    std::int32_t R = Identity;
    for (std::int32_t X : Tmp)
      if (X < R)
        R = X;
    return R;
  }
  static std::int32_t reduceMax(VInt V, Mask M, std::int32_t Identity) {
    VInt Masked = select(M, V, splat(Identity));
    alignas(32) std::int32_t Tmp[8];
    store(Tmp, Masked);
    std::int32_t R = Identity;
    for (std::int32_t X : Tmp)
      if (X > R)
        R = X;
    return R;
  }
  static float reduceAddF(VFloat V, Mask M) {
    VFloat Zeroed = selectF(M, V, _mm256_setzero_ps());
    __m128 Lo = _mm256_castps256_ps128(Zeroed);
    __m128 Hi = _mm256_extractf128_ps(Zeroed, 1);
    __m128 Sum = _mm_add_ps(Lo, Hi);
    Sum = _mm_add_ps(Sum, _mm_movehl_ps(Sum, Sum));
    Sum = _mm_add_ss(Sum, _mm_shuffle_ps(Sum, Sum, 1));
    return _mm_cvtss_f32(Sum);
  }

  // --- Compression ----------------------------------------------------------------------

  static int packedStoreActive(std::int32_t *Dst, VInt V, Mask M) {
    unsigned Bits = static_cast<unsigned>(maskBits(M));
    int N = __builtin_popcount(Bits);
    __m256i Perm = _mm256_load_si256(
        reinterpret_cast<const __m256i *>(detail::Avx2Compress.Perm[Bits]));
    __m256i Packed = _mm256_permutevar8x32_epi32(V, Perm);
    _mm256_maskstore_epi32(Dst, maskFirstN(N), Packed);
    return N;
  }

  static VInt compact(VInt V, Mask M) {
    unsigned Bits = static_cast<unsigned>(maskBits(M));
    __m256i Perm = _mm256_load_si256(
        reinterpret_cast<const __m256i *>(detail::Avx2Compress.Perm[Bits]));
    __m256i Packed = _mm256_permutevar8x32_epi32(V, Perm);
    return and_(Packed, maskFirstN(__builtin_popcount(Bits)));
  }
};

/// 4-wide AVX2 backend on xmm registers (ISPC target avx2-i32x4).
struct Avx2HalfBackend {
  static constexpr int Width = 4;
  static constexpr const char *Name = "avx2-i32x4";

  using VInt = __m128i;
  using VFloat = __m128;
  using Mask = __m128i;

  static VInt splat(std::int32_t X) { return _mm_set1_epi32(X); }
  static VFloat splatF(float X) { return _mm_set1_ps(X); }
  static VInt iota() { return _mm_setr_epi32(0, 1, 2, 3); }

  static VInt load(const std::int32_t *P) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i *>(P));
  }
  static VInt maskedLoad(const std::int32_t *P, Mask M) {
    return _mm_maskload_epi32(P, M);
  }
  static void store(std::int32_t *P, VInt V) {
    _mm_storeu_si128(reinterpret_cast<__m128i *>(P), V);
  }
  static void maskedStore(std::int32_t *P, VInt V, Mask M) {
    _mm_maskstore_epi32(P, M, V);
  }
  static VFloat loadF(const float *P) { return _mm_loadu_ps(P); }
  static void storeF(float *P, VFloat V) { _mm_storeu_ps(P, V); }

  static VInt gather(const std::int32_t *Base, VInt Idx, Mask M) {
    return _mm_mask_i32gather_epi32(_mm_setzero_si128(), Base, Idx, M, 4);
  }
  static void scatter(std::int32_t *Base, VInt Idx, VInt V, Mask M) {
    alignas(16) std::int32_t Ix[4], Vx[4];
    store(Ix, Idx);
    store(Vx, V);
    unsigned Bits = static_cast<unsigned>(maskBits(M));
    while (Bits) {
      int L = __builtin_ctz(Bits);
      Bits &= Bits - 1;
      Base[Ix[L]] = Vx[L];
    }
  }
  static VFloat gatherF(const float *Base, VInt Idx, Mask M) {
    return _mm_mask_i32gather_ps(_mm_setzero_ps(), Base, Idx,
                                 _mm_castsi128_ps(M), 4);
  }
  static void scatterF(float *Base, VInt Idx, VFloat V, Mask M) {
    alignas(16) std::int32_t Ix[4];
    alignas(16) float Vx[4];
    store(Ix, Idx);
    storeF(Vx, V);
    unsigned Bits = static_cast<unsigned>(maskBits(M));
    while (Bits) {
      int L = __builtin_ctz(Bits);
      Bits &= Bits - 1;
      Base[Ix[L]] = Vx[L];
    }
  }

  static VInt add(VInt A, VInt B) { return _mm_add_epi32(A, B); }
  static VInt sub(VInt A, VInt B) { return _mm_sub_epi32(A, B); }
  static VInt mul(VInt A, VInt B) { return _mm_mullo_epi32(A, B); }
  static VInt min(VInt A, VInt B) { return _mm_min_epi32(A, B); }
  static VInt max(VInt A, VInt B) { return _mm_max_epi32(A, B); }
  static VInt and_(VInt A, VInt B) { return _mm_and_si128(A, B); }
  static VInt or_(VInt A, VInt B) { return _mm_or_si128(A, B); }
  static VInt xor_(VInt A, VInt B) { return _mm_xor_si128(A, B); }
  static VInt shl(VInt A, int Sh) {
    return _mm_sll_epi32(A, _mm_cvtsi32_si128(Sh));
  }
  static VInt shr(VInt A, int Sh) {
    return _mm_srl_epi32(A, _mm_cvtsi32_si128(Sh));
  }
  static VInt shlv(VInt A, VInt Sh) { return _mm_sllv_epi32(A, Sh); }

  static VFloat addF(VFloat A, VFloat B) { return _mm_add_ps(A, B); }
  static VFloat subF(VFloat A, VFloat B) { return _mm_sub_ps(A, B); }
  static VFloat mulF(VFloat A, VFloat B) { return _mm_mul_ps(A, B); }
  static VFloat divF(VFloat A, VFloat B) { return _mm_div_ps(A, B); }
  static VFloat toFloat(VInt A) { return _mm_cvtepi32_ps(A); }
  static VInt toInt(VFloat A) { return _mm_cvttps_epi32(A); }

  static Mask cmpEq(VInt A, VInt B) { return _mm_cmpeq_epi32(A, B); }
  static Mask cmpNe(VInt A, VInt B) { return maskNot(cmpEq(A, B)); }
  static Mask cmpLt(VInt A, VInt B) { return _mm_cmplt_epi32(A, B); }
  static Mask cmpLe(VInt A, VInt B) { return maskNot(cmpGt(A, B)); }
  static Mask cmpGt(VInt A, VInt B) { return _mm_cmpgt_epi32(A, B); }
  static Mask cmpLtF(VFloat A, VFloat B) {
    return _mm_castps_si128(_mm_cmplt_ps(A, B));
  }
  static Mask cmpGtF(VFloat A, VFloat B) {
    return _mm_castps_si128(_mm_cmpgt_ps(A, B));
  }

  static VInt select(Mask M, VInt A, VInt B) {
    return _mm_blendv_epi8(B, A, M);
  }
  static VFloat selectF(Mask M, VFloat A, VFloat B) {
    return _mm_blendv_ps(B, A, _mm_castsi128_ps(M));
  }

  static Mask maskAll() { return _mm_set1_epi32(-1); }
  static Mask maskNone() { return _mm_setzero_si128(); }
  static Mask maskFirstN(int N) { return cmpLt(iota(), splat(N)); }
  static Mask maskAnd(Mask A, Mask B) { return _mm_and_si128(A, B); }
  static Mask maskOr(Mask A, Mask B) { return _mm_or_si128(A, B); }
  static Mask maskNot(Mask A) { return _mm_xor_si128(A, _mm_set1_epi32(-1)); }
  static Mask maskAndNot(Mask A, Mask B) { return _mm_andnot_si128(B, A); }
  static bool any(Mask M) { return !_mm_testz_si128(M, M); }
  static bool all(Mask M) { return maskBits(M) == 0xfu; }
  static int popcount(Mask M) {
    return __builtin_popcount(static_cast<unsigned>(maskBits(M)));
  }
  static std::uint64_t maskBits(Mask M) {
    return static_cast<unsigned>(_mm_movemask_ps(_mm_castsi128_ps(M)));
  }
  static Mask maskFromBits(std::uint64_t Bits) {
    __m128i Lane = _mm_setr_epi32(1, 2, 4, 8);
    __m128i B = _mm_set1_epi32(static_cast<int>(Bits & 0xf));
    return _mm_cmpeq_epi32(_mm_and_si128(B, Lane), Lane);
  }

  static std::int32_t extract(VInt V, int LaneIdx) {
    alignas(16) std::int32_t Tmp[4];
    store(Tmp, V);
    return Tmp[LaneIdx];
  }
  static float extractF(VFloat V, int LaneIdx) {
    alignas(16) float Tmp[4];
    storeF(Tmp, V);
    return Tmp[LaneIdx];
  }

  static std::int32_t reduceAdd(VInt V, Mask M) {
    VInt Zeroed = and_(V, M);
    VInt Sum =
        _mm_add_epi32(Zeroed, _mm_shuffle_epi32(Zeroed, _MM_SHUFFLE(1, 0, 3, 2)));
    Sum = _mm_add_epi32(Sum, _mm_shuffle_epi32(Sum, _MM_SHUFFLE(2, 3, 0, 1)));
    return _mm_cvtsi128_si32(Sum);
  }
  static std::int32_t reduceMin(VInt V, Mask M, std::int32_t Identity) {
    VInt Masked = select(M, V, splat(Identity));
    alignas(16) std::int32_t Tmp[4];
    store(Tmp, Masked);
    std::int32_t R = Identity;
    for (std::int32_t X : Tmp)
      if (X < R)
        R = X;
    return R;
  }
  static std::int32_t reduceMax(VInt V, Mask M, std::int32_t Identity) {
    VInt Masked = select(M, V, splat(Identity));
    alignas(16) std::int32_t Tmp[4];
    store(Tmp, Masked);
    std::int32_t R = Identity;
    for (std::int32_t X : Tmp)
      if (X > R)
        R = X;
    return R;
  }
  static float reduceAddF(VFloat V, Mask M) {
    VFloat Zeroed = selectF(M, V, _mm_setzero_ps());
    __m128 Sum = _mm_add_ps(Zeroed, _mm_movehl_ps(Zeroed, Zeroed));
    Sum = _mm_add_ss(Sum, _mm_shuffle_ps(Sum, Sum, 1));
    return _mm_cvtss_f32(Sum);
  }

  static int packedStoreActive(std::int32_t *Dst, VInt V, Mask M) {
    alignas(16) std::int32_t Tmp[4];
    store(Tmp, V);
    unsigned Bits = static_cast<unsigned>(maskBits(M));
    int N = 0;
    while (Bits) {
      int L = __builtin_ctz(Bits);
      Bits &= Bits - 1;
      Dst[N++] = Tmp[L];
    }
    return N;
  }

  static VInt compact(VInt V, Mask M) {
    alignas(16) std::int32_t Tmp[4] = {0, 0, 0, 0};
    packedStoreActive(Tmp, V, M);
    return load(Tmp);
  }
};

} // namespace egacs::simd

#endif // EGACS_HAVE_AVX2
#endif // EGACS_SIMD_AVX2BACKEND_H
