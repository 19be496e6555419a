//===- simd/Avx512Backend.h - 16-wide and 8-wide AVX512 backends -*- C++ -*-===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// AVX512 implementations of the SPMD backend contract. AVX512 added the
/// eight opmask registers (native per-lane predication), scatter stores, and
/// compress stores, so almost every SPMD primitive maps to one instruction —
/// exactly the hardware functionality the paper credits with making the
/// implicit-SPMD model viable on CPUs (Section II-A). The 8-wide variant
/// uses AVX512VL encodings on ymm registers (ISPC target avx512skx-i32x8).
///
//===----------------------------------------------------------------------===//

#ifndef EGACS_SIMD_AVX512BACKEND_H
#define EGACS_SIMD_AVX512BACKEND_H

#ifdef EGACS_HAVE_AVX512

#include <cstdint>
#include <immintrin.h>

namespace egacs::simd {

/// Native 16-wide AVX512F/VL backend (ISPC target avx512skx-i32x16).
struct Avx512Backend {
  static constexpr int Width = 16;
  static constexpr const char *Name = "avx512skx-i32x16";

  using VInt = __m512i;
  using VFloat = __m512;
  using Mask = __mmask16;

  static VInt splat(std::int32_t X) { return _mm512_set1_epi32(X); }
  static VFloat splatF(float X) { return _mm512_set1_ps(X); }
  static VInt iota() {
    return _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14,
                             15);
  }

  static VInt load(const std::int32_t *P) { return _mm512_loadu_si512(P); }
  static VInt maskedLoad(const std::int32_t *P, Mask M) {
    return _mm512_maskz_loadu_epi32(M, P);
  }
  static void store(std::int32_t *P, VInt V) { _mm512_storeu_si512(P, V); }
  static void maskedStore(std::int32_t *P, VInt V, Mask M) {
    _mm512_mask_storeu_epi32(P, M, V);
  }
  static VFloat loadF(const float *P) { return _mm512_loadu_ps(P); }
  static void storeF(float *P, VFloat V) { _mm512_storeu_ps(P, V); }

  static VInt gather(const std::int32_t *Base, VInt Idx, Mask M) {
    return _mm512_mask_i32gather_epi32(_mm512_setzero_si512(), M, Idx, Base,
                                       4);
  }
  static void scatter(std::int32_t *Base, VInt Idx, VInt V, Mask M) {
    _mm512_mask_i32scatter_epi32(Base, M, Idx, V, 4);
  }
  static VFloat gatherF(const float *Base, VInt Idx, Mask M) {
    return _mm512_mask_i32gather_ps(_mm512_setzero_ps(), M, Idx, Base, 4);
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

  /// Per-lane prefetch of Base[Idx] for the active lanes. The AVX512PF
  /// gather-prefetch instructions were KNL-only, so SKX lowers this to the
  /// same spill-and-loop idiom the scalar backends use.
  static void gatherPrefetch(const void *Base, VInt Idx, Mask M,
                             int ElemSize) {
    alignas(64) std::int32_t Ix[16];
    store(Ix, Idx);
    const char *P = static_cast<const char *>(Base);
    unsigned Bits = M;
    while (Bits) {
      int L = __builtin_ctz(Bits);
      Bits &= Bits - 1;
      prefetch(P + static_cast<std::int64_t>(Ix[L]) * ElemSize, 3);
    }
  }
  static void scatterF(float *Base, VInt Idx, VFloat V, Mask M) {
    _mm512_mask_i32scatter_ps(Base, M, Idx, V, 4);
  }

  static VInt add(VInt A, VInt B) { return _mm512_add_epi32(A, B); }
  static VInt sub(VInt A, VInt B) { return _mm512_sub_epi32(A, B); }
  static VInt mul(VInt A, VInt B) { return _mm512_mullo_epi32(A, B); }
  static VInt min(VInt A, VInt B) { return _mm512_min_epi32(A, B); }
  static VInt max(VInt A, VInt B) { return _mm512_max_epi32(A, B); }
  static VInt and_(VInt A, VInt B) { return _mm512_and_si512(A, B); }
  static VInt or_(VInt A, VInt B) { return _mm512_or_si512(A, B); }
  static VInt xor_(VInt A, VInt B) { return _mm512_xor_si512(A, B); }
  static VInt shl(VInt A, int Sh) {
    return _mm512_sll_epi32(A, _mm_cvtsi32_si128(Sh));
  }
  static VInt shr(VInt A, int Sh) {
    return _mm512_srl_epi32(A, _mm_cvtsi32_si128(Sh));
  }
  static VInt shlv(VInt A, VInt Sh) { return _mm512_sllv_epi32(A, Sh); }

  static VFloat addF(VFloat A, VFloat B) { return _mm512_add_ps(A, B); }
  static VFloat subF(VFloat A, VFloat B) { return _mm512_sub_ps(A, B); }
  static VFloat mulF(VFloat A, VFloat B) { return _mm512_mul_ps(A, B); }
  static VFloat divF(VFloat A, VFloat B) { return _mm512_div_ps(A, B); }
  static VFloat toFloat(VInt A) { return _mm512_cvtepi32_ps(A); }
  static VInt toInt(VFloat A) { return _mm512_cvttps_epi32(A); }

  static Mask cmpEq(VInt A, VInt B) { return _mm512_cmpeq_epi32_mask(A, B); }
  static Mask cmpNe(VInt A, VInt B) { return _mm512_cmpneq_epi32_mask(A, B); }
  static Mask cmpLt(VInt A, VInt B) { return _mm512_cmplt_epi32_mask(A, B); }
  static Mask cmpLe(VInt A, VInt B) { return _mm512_cmple_epi32_mask(A, B); }
  static Mask cmpGt(VInt A, VInt B) { return _mm512_cmpgt_epi32_mask(A, B); }
  static Mask cmpLtF(VFloat A, VFloat B) {
    return _mm512_cmp_ps_mask(A, B, _CMP_LT_OQ);
  }
  static Mask cmpGtF(VFloat A, VFloat B) {
    return _mm512_cmp_ps_mask(A, B, _CMP_GT_OQ);
  }

  static VInt select(Mask M, VInt A, VInt B) {
    return _mm512_mask_blend_epi32(M, B, A);
  }
  static VFloat selectF(Mask M, VFloat A, VFloat B) {
    return _mm512_mask_blend_ps(M, B, A);
  }

  static Mask maskAll() { return 0xffff; }
  static Mask maskNone() { return 0; }
  static Mask maskFirstN(int N) {
    return static_cast<Mask>((1u << (N >= 16 ? 16 : N)) - 1u);
  }
  static Mask maskAnd(Mask A, Mask B) { return A & B; }
  static Mask maskOr(Mask A, Mask B) { return A | B; }
  static Mask maskNot(Mask A) { return static_cast<Mask>(~A); }
  static Mask maskAndNot(Mask A, Mask B) { return A & static_cast<Mask>(~B); }
  static bool any(Mask M) { return M != 0; }
  static bool all(Mask M) { return M == 0xffff; }
  static int popcount(Mask M) { return __builtin_popcount(M); }
  static std::uint64_t maskBits(Mask M) { return M; }
  static Mask maskFromBits(std::uint64_t Bits) {
    return static_cast<Mask>(Bits & 0xffff);
  }

  static std::int32_t extract(VInt V, int LaneIdx) {
    alignas(64) std::int32_t Tmp[16];
    store(Tmp, V);
    return Tmp[LaneIdx];
  }
  static float extractF(VFloat V, int LaneIdx) {
    alignas(64) float Tmp[16];
    storeF(Tmp, V);
    return Tmp[LaneIdx];
  }

  static std::int32_t reduceAdd(VInt V, Mask M) {
    return _mm512_mask_reduce_add_epi32(M, V);
  }
  static std::int32_t reduceMin(VInt V, Mask M, std::int32_t Identity) {
    if (!M)
      return Identity;
    std::int32_t R = _mm512_mask_reduce_min_epi32(M, V);
    return R < Identity ? R : Identity;
  }
  static std::int32_t reduceMax(VInt V, Mask M, std::int32_t Identity) {
    if (!M)
      return Identity;
    std::int32_t R = _mm512_mask_reduce_max_epi32(M, V);
    return R > Identity ? R : Identity;
  }
  static float reduceAddF(VFloat V, Mask M) {
    return _mm512_mask_reduce_add_ps(M, V);
  }

  static int packedStoreActive(std::int32_t *Dst, VInt V, Mask M) {
    _mm512_mask_compressstoreu_epi32(Dst, M, V);
    return __builtin_popcount(M);
  }

  static VInt compact(VInt V, Mask M) {
    return _mm512_maskz_compress_epi32(M, V);
  }

  /// vpconflictd: Out[L] is a bitmask of earlier lanes (E < L) holding the
  /// same 32-bit index as lane L. Picked up by the SFINAE dispatch in
  /// simd/Atomics.h to accelerate in-vector conflict combining.
  static void conflictEarlier(VInt Idx, std::uint32_t *Out) {
    alignas(64) std::int32_t Tmp[16];
    _mm512_store_si512(reinterpret_cast<__m512i *>(Tmp),
                       _mm512_conflict_epi32(Idx));
    for (int L = 0; L < 16; ++L)
      Out[L] = static_cast<std::uint32_t>(Tmp[L]);
  }
};

/// 8-wide AVX512VL backend on ymm registers (ISPC target avx512skx-i32x8).
struct Avx512HalfBackend {
  static constexpr int Width = 8;
  static constexpr const char *Name = "avx512skx-i32x8";

  using VInt = __m256i;
  using VFloat = __m256;
  using Mask = __mmask8;

  static VInt splat(std::int32_t X) { return _mm256_set1_epi32(X); }
  static VFloat splatF(float X) { return _mm256_set1_ps(X); }
  static VInt iota() { return _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7); }

  static VInt load(const std::int32_t *P) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i *>(P));
  }
  static VInt maskedLoad(const std::int32_t *P, Mask M) {
    return _mm256_maskz_loadu_epi32(M, P);
  }
  static void store(std::int32_t *P, VInt V) {
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(P), V);
  }
  static void maskedStore(std::int32_t *P, VInt V, Mask M) {
    _mm256_mask_storeu_epi32(P, M, V);
  }
  static VFloat loadF(const float *P) { return _mm256_loadu_ps(P); }
  static void storeF(float *P, VFloat V) { _mm256_storeu_ps(P, V); }

  static VInt gather(const std::int32_t *Base, VInt Idx, Mask M) {
    return _mm256_mmask_i32gather_epi32(_mm256_setzero_si256(), M, Idx, Base,
                                        4);
  }
  static void scatter(std::int32_t *Base, VInt Idx, VInt V, Mask M) {
    _mm256_mask_i32scatter_epi32(Base, M, Idx, V, 4);
  }
  static VFloat gatherF(const float *Base, VInt Idx, Mask M) {
    return _mm256_mmask_i32gather_ps(_mm256_setzero_ps(), M, Idx, Base, 4);
  }

  /// See Avx512Backend::prefetch.
  static void prefetch(const void *P, int Locality) {
    Avx512Backend::prefetch(P, Locality);
  }

  /// See Avx512Backend::gatherPrefetch.
  static void gatherPrefetch(const void *Base, VInt Idx, Mask M,
                             int ElemSize) {
    alignas(32) std::int32_t Ix[8];
    store(Ix, Idx);
    const char *P = static_cast<const char *>(Base);
    unsigned Bits = M;
    while (Bits) {
      int L = __builtin_ctz(Bits);
      Bits &= Bits - 1;
      prefetch(P + static_cast<std::int64_t>(Ix[L]) * ElemSize, 3);
    }
  }
  static void scatterF(float *Base, VInt Idx, VFloat V, Mask M) {
    _mm256_mask_i32scatter_ps(Base, M, Idx, V, 4);
  }

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

  static VFloat addF(VFloat A, VFloat B) { return _mm256_add_ps(A, B); }
  static VFloat subF(VFloat A, VFloat B) { return _mm256_sub_ps(A, B); }
  static VFloat mulF(VFloat A, VFloat B) { return _mm256_mul_ps(A, B); }
  static VFloat divF(VFloat A, VFloat B) { return _mm256_div_ps(A, B); }
  static VFloat toFloat(VInt A) { return _mm256_cvtepi32_ps(A); }
  static VInt toInt(VFloat A) { return _mm256_cvttps_epi32(A); }

  static Mask cmpEq(VInt A, VInt B) { return _mm256_cmpeq_epi32_mask(A, B); }
  static Mask cmpNe(VInt A, VInt B) { return _mm256_cmpneq_epi32_mask(A, B); }
  static Mask cmpLt(VInt A, VInt B) { return _mm256_cmplt_epi32_mask(A, B); }
  static Mask cmpLe(VInt A, VInt B) { return _mm256_cmple_epi32_mask(A, B); }
  static Mask cmpGt(VInt A, VInt B) { return _mm256_cmpgt_epi32_mask(A, B); }
  static Mask cmpLtF(VFloat A, VFloat B) {
    return _mm256_cmp_ps_mask(A, B, _CMP_LT_OQ);
  }
  static Mask cmpGtF(VFloat A, VFloat B) {
    return _mm256_cmp_ps_mask(A, B, _CMP_GT_OQ);
  }

  static VInt select(Mask M, VInt A, VInt B) {
    return _mm256_mask_blend_epi32(M, B, A);
  }
  static VFloat selectF(Mask M, VFloat A, VFloat B) {
    return _mm256_mask_blend_ps(M, B, A);
  }

  static Mask maskAll() { return 0xff; }
  static Mask maskNone() { return 0; }
  static Mask maskFirstN(int N) {
    return static_cast<Mask>((1u << (N >= 8 ? 8 : N)) - 1u);
  }
  static Mask maskAnd(Mask A, Mask B) { return A & B; }
  static Mask maskOr(Mask A, Mask B) { return A | B; }
  static Mask maskNot(Mask A) { return static_cast<Mask>(~A); }
  static Mask maskAndNot(Mask A, Mask B) { return A & static_cast<Mask>(~B); }
  static bool any(Mask M) { return M != 0; }
  static bool all(Mask M) { return M == 0xff; }
  static int popcount(Mask M) { return __builtin_popcount(M); }
  static std::uint64_t maskBits(Mask M) { return M; }
  static Mask maskFromBits(std::uint64_t Bits) {
    return static_cast<Mask>(Bits & 0xff);
  }

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

  static std::int32_t reduceAdd(VInt V, Mask M) {
    return Avx512Backend::reduceAdd(_mm512_castsi256_si512(V), M);
  }
  static std::int32_t reduceMin(VInt V, Mask M, std::int32_t Identity) {
    return Avx512Backend::reduceMin(_mm512_castsi256_si512(V), M, Identity);
  }
  static std::int32_t reduceMax(VInt V, Mask M, std::int32_t Identity) {
    return Avx512Backend::reduceMax(_mm512_castsi256_si512(V), M, Identity);
  }
  static float reduceAddF(VFloat V, Mask M) {
    return Avx512Backend::reduceAddF(_mm512_castps256_ps512(V), M);
  }

  static int packedStoreActive(std::int32_t *Dst, VInt V, Mask M) {
    _mm256_mask_compressstoreu_epi32(Dst, M, V);
    return __builtin_popcount(M);
  }

  static VInt compact(VInt V, Mask M) {
    return _mm256_maskz_compress_epi32(M, V);
  }

  /// vpconflictd (VL form): see Avx512Backend::conflictEarlier.
  static void conflictEarlier(VInt Idx, std::uint32_t *Out) {
    alignas(32) std::int32_t Tmp[8];
    _mm256_store_si256(reinterpret_cast<__m256i *>(Tmp),
                       _mm256_conflict_epi32(Idx));
    for (int L = 0; L < 8; ++L)
      Out[L] = static_cast<std::uint32_t>(Tmp[L]);
  }
};

} // namespace egacs::simd

#endif // EGACS_HAVE_AVX512
#endif // EGACS_SIMD_AVX512BACKEND_H
