//===- simd/PumpedBackend.h - Double-pumped width extension -----*- C++ -*-===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Width doubling by issuing two independent native-width operations, the
/// way ISPC implements its x16 targets on 8-wide hardware ("ISPC simulates
/// 16-wide target by issuing two consecutive 8-wide vector instructions",
/// paper Section IV-B2). The two halves are architecturally independent, so
/// out-of-order cores extract extra ILP from them — the mechanism behind the
/// paper's observation that avx2-i32x16 can beat avx512-i32x16 on gathers.
///
//===----------------------------------------------------------------------===//

#ifndef EGACS_SIMD_PUMPEDBACKEND_H
#define EGACS_SIMD_PUMPEDBACKEND_H

#include <cstdint>

namespace egacs::simd {

template <typename B, const char *BackendName> struct PumpedBackend {
  static constexpr int Width = 2 * B::Width;
  static constexpr const char *Name = BackendName;

  struct VInt {
    typename B::VInt Lo, Hi;
  };
  struct VFloat {
    typename B::VFloat Lo, Hi;
  };
  struct Mask {
    typename B::Mask Lo, Hi;
  };

  static VInt splat(std::int32_t X) { return {B::splat(X), B::splat(X)}; }
  static VFloat splatF(float X) { return {B::splatF(X), B::splatF(X)}; }
  static VInt iota() {
    return {B::iota(), B::add(B::iota(), B::splat(B::Width))};
  }

  static VInt load(const std::int32_t *P) {
    return {B::load(P), B::load(P + B::Width)};
  }
  static VInt maskedLoad(const std::int32_t *P, Mask M) {
    return {B::maskedLoad(P, M.Lo), B::maskedLoad(P + B::Width, M.Hi)};
  }
  static void store(std::int32_t *P, VInt V) {
    B::store(P, V.Lo);
    B::store(P + B::Width, V.Hi);
  }
  static void maskedStore(std::int32_t *P, VInt V, Mask M) {
    B::maskedStore(P, V.Lo, M.Lo);
    B::maskedStore(P + B::Width, V.Hi, M.Hi);
  }
  static VFloat loadF(const float *P) {
    return {B::loadF(P), B::loadF(P + B::Width)};
  }
  static void storeF(float *P, VFloat V) {
    B::storeF(P, V.Lo);
    B::storeF(P + B::Width, V.Hi);
  }

  static VInt gather(const std::int32_t *Base, VInt Idx, Mask M) {
    return {B::gather(Base, Idx.Lo, M.Lo), B::gather(Base, Idx.Hi, M.Hi)};
  }
  static void scatter(std::int32_t *Base, VInt Idx, VInt V, Mask M) {
    B::scatter(Base, Idx.Lo, V.Lo, M.Lo);
    B::scatter(Base, Idx.Hi, V.Hi, M.Hi);
  }
  static VFloat gatherF(const float *Base, VInt Idx, Mask M) {
    return {B::gatherF(Base, Idx.Lo, M.Lo), B::gatherF(Base, Idx.Hi, M.Hi)};
  }

  static void prefetch(const void *P, int Locality) {
    B::prefetch(P, Locality);
  }
  static void gatherPrefetch(const void *Base, VInt Idx, Mask M,
                             int ElemSize) {
    B::gatherPrefetch(Base, Idx.Lo, M.Lo, ElemSize);
    B::gatherPrefetch(Base, Idx.Hi, M.Hi, ElemSize);
  }
  static void scatterF(float *Base, VInt Idx, VFloat V, Mask M) {
    B::scatterF(Base, Idx.Lo, V.Lo, M.Lo);
    B::scatterF(Base, Idx.Hi, V.Hi, M.Hi);
  }

#define EGACS_PUMP_BINOP(NAME)                                                 \
  static VInt NAME(VInt A, VInt C) {                                           \
    return {B::NAME(A.Lo, C.Lo), B::NAME(A.Hi, C.Hi)};                         \
  }
  EGACS_PUMP_BINOP(add)
  EGACS_PUMP_BINOP(sub)
  EGACS_PUMP_BINOP(mul)
  EGACS_PUMP_BINOP(min)
  EGACS_PUMP_BINOP(max)
  EGACS_PUMP_BINOP(and_)
  EGACS_PUMP_BINOP(or_)
  EGACS_PUMP_BINOP(xor_)
#undef EGACS_PUMP_BINOP

  static VInt shl(VInt A, int Sh) { return {B::shl(A.Lo, Sh), B::shl(A.Hi, Sh)}; }
  static VInt shr(VInt A, int Sh) { return {B::shr(A.Lo, Sh), B::shr(A.Hi, Sh)}; }
  static VInt shlv(VInt A, VInt Sh) {
    return {B::shlv(A.Lo, Sh.Lo), B::shlv(A.Hi, Sh.Hi)};
  }

#define EGACS_PUMP_BINOPF(NAME)                                                \
  static VFloat NAME(VFloat A, VFloat C) {                                     \
    return {B::NAME(A.Lo, C.Lo), B::NAME(A.Hi, C.Hi)};                         \
  }
  EGACS_PUMP_BINOPF(addF)
  EGACS_PUMP_BINOPF(subF)
  EGACS_PUMP_BINOPF(mulF)
  EGACS_PUMP_BINOPF(divF)
#undef EGACS_PUMP_BINOPF

  static VFloat toFloat(VInt A) { return {B::toFloat(A.Lo), B::toFloat(A.Hi)}; }
  static VInt toInt(VFloat A) { return {B::toInt(A.Lo), B::toInt(A.Hi)}; }

#define EGACS_PUMP_CMP(NAME)                                                   \
  static Mask NAME(VInt A, VInt C) {                                           \
    return {B::NAME(A.Lo, C.Lo), B::NAME(A.Hi, C.Hi)};                         \
  }
  EGACS_PUMP_CMP(cmpEq)
  EGACS_PUMP_CMP(cmpNe)
  EGACS_PUMP_CMP(cmpLt)
  EGACS_PUMP_CMP(cmpLe)
  EGACS_PUMP_CMP(cmpGt)
#undef EGACS_PUMP_CMP

  static Mask cmpLtF(VFloat A, VFloat C) {
    return {B::cmpLtF(A.Lo, C.Lo), B::cmpLtF(A.Hi, C.Hi)};
  }
  static Mask cmpGtF(VFloat A, VFloat C) {
    return {B::cmpGtF(A.Lo, C.Lo), B::cmpGtF(A.Hi, C.Hi)};
  }

  static VInt select(Mask M, VInt A, VInt C) {
    return {B::select(M.Lo, A.Lo, C.Lo), B::select(M.Hi, A.Hi, C.Hi)};
  }
  static VFloat selectF(Mask M, VFloat A, VFloat C) {
    return {B::selectF(M.Lo, A.Lo, C.Lo), B::selectF(M.Hi, A.Hi, C.Hi)};
  }

  static Mask maskAll() { return {B::maskAll(), B::maskAll()}; }
  static Mask maskNone() { return {B::maskNone(), B::maskNone()}; }
  static Mask maskFirstN(int N) {
    int NLo = N < B::Width ? N : B::Width;
    int NHi = N - NLo > 0 ? N - NLo : 0;
    return {B::maskFirstN(NLo), B::maskFirstN(NHi)};
  }
  static Mask maskAnd(Mask A, Mask C) {
    return {B::maskAnd(A.Lo, C.Lo), B::maskAnd(A.Hi, C.Hi)};
  }
  static Mask maskOr(Mask A, Mask C) {
    return {B::maskOr(A.Lo, C.Lo), B::maskOr(A.Hi, C.Hi)};
  }
  static Mask maskNot(Mask A) { return {B::maskNot(A.Lo), B::maskNot(A.Hi)}; }
  static Mask maskAndNot(Mask A, Mask C) {
    return {B::maskAndNot(A.Lo, C.Lo), B::maskAndNot(A.Hi, C.Hi)};
  }
  static bool any(Mask M) { return B::any(M.Lo) || B::any(M.Hi); }
  static bool all(Mask M) { return B::all(M.Lo) && B::all(M.Hi); }
  static int popcount(Mask M) {
    return B::popcount(M.Lo) + B::popcount(M.Hi);
  }
  static std::uint64_t maskBits(Mask M) {
    return B::maskBits(M.Lo) | (B::maskBits(M.Hi) << B::Width);
  }
  static Mask maskFromBits(std::uint64_t Bits) {
    return {B::maskFromBits(Bits), B::maskFromBits(Bits >> B::Width)};
  }

  static std::int32_t extract(VInt V, int LaneIdx) {
    return LaneIdx < B::Width ? B::extract(V.Lo, LaneIdx)
                              : B::extract(V.Hi, LaneIdx - B::Width);
  }
  static float extractF(VFloat V, int LaneIdx) {
    return LaneIdx < B::Width ? B::extractF(V.Lo, LaneIdx)
                              : B::extractF(V.Hi, LaneIdx - B::Width);
  }

  static std::int32_t reduceAdd(VInt V, Mask M) {
    return B::reduceAdd(V.Lo, M.Lo) + B::reduceAdd(V.Hi, M.Hi);
  }
  static std::int32_t reduceMin(VInt V, Mask M, std::int32_t Identity) {
    return B::reduceMin(V.Hi, M.Hi, B::reduceMin(V.Lo, M.Lo, Identity));
  }
  static std::int32_t reduceMax(VInt V, Mask M, std::int32_t Identity) {
    return B::reduceMax(V.Hi, M.Hi, B::reduceMax(V.Lo, M.Lo, Identity));
  }
  static float reduceAddF(VFloat V, Mask M) {
    return B::reduceAddF(V.Lo, M.Lo) + B::reduceAddF(V.Hi, M.Hi);
  }

  static int packedStoreActive(std::int32_t *Dst, VInt V, Mask M) {
    int N = B::packedStoreActive(Dst, V.Lo, M.Lo);
    return N + B::packedStoreActive(Dst + N, V.Hi, M.Hi);
  }

  static VInt compact(VInt V, Mask M) {
    alignas(64) std::int32_t Tmp[Width] = {};
    packedStoreActive(Tmp, V, M);
    return load(Tmp);
  }
};

} // namespace egacs::simd

#endif // EGACS_SIMD_PUMPEDBACKEND_H
