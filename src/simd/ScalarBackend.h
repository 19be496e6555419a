//===- simd/ScalarBackend.h - Reference scalar-loop backend -----*- C++ -*-===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reference SPMD backend: every varying value is a plain array of W
/// lanes and every operation is a loop. This serves three roles:
///  1. the semantic oracle the vector backends are property-tested against;
///  2. the paper's "AVX1" targets, where ISPC lowers integer gathers and
///     predication to scalar loops (no AVX1 integer gather/opmask exists);
///  3. with W == 1, the paper's serial baseline (Section IV-A: "derived from
///     our ISPC code by ... setting task_count and program_count to 1").
///
//===----------------------------------------------------------------------===//

#ifndef EGACS_SIMD_SCALARBACKEND_H
#define EGACS_SIMD_SCALARBACKEND_H

#include <cstdint>

namespace egacs::simd {

template <int W> struct ScalarBackend {
  static_assert(W >= 1 && W <= 64, "unsupported scalar emulation width");

  static constexpr int Width = W;
  static constexpr const char *Name = W == 1    ? "scalar-i32x1"
                                      : W == 4  ? "avx1-i32x4"
                                      : W == 8  ? "avx1-i32x8"
                                      : W == 16 ? "avx1-i32x16"
                                                : "scalar-i32xN";

  struct VInt {
    std::int32_t Lane[W];
  };
  struct VFloat {
    float Lane[W];
  };
  struct Mask {
    bool Lane[W];
  };

  // --- Construction -----------------------------------------------------

  static VInt splat(std::int32_t X) {
    VInt R;
    for (int I = 0; I < W; ++I)
      R.Lane[I] = X;
    return R;
  }

  static VFloat splatF(float X) {
    VFloat R;
    for (int I = 0; I < W; ++I)
      R.Lane[I] = X;
    return R;
  }

  /// programIndex: lane I holds I.
  static VInt iota() {
    VInt R;
    for (int I = 0; I < W; ++I)
      R.Lane[I] = I;
    return R;
  }

  // --- Memory ------------------------------------------------------------

  static VInt load(const std::int32_t *P) {
    VInt R;
    for (int I = 0; I < W; ++I)
      R.Lane[I] = P[I];
    return R;
  }

  static VInt maskedLoad(const std::int32_t *P, Mask M) {
    VInt R;
    for (int I = 0; I < W; ++I)
      R.Lane[I] = M.Lane[I] ? P[I] : 0;
    return R;
  }

  static void store(std::int32_t *P, VInt V) {
    for (int I = 0; I < W; ++I)
      P[I] = V.Lane[I];
  }

  static void maskedStore(std::int32_t *P, VInt V, Mask M) {
    for (int I = 0; I < W; ++I)
      if (M.Lane[I])
        P[I] = V.Lane[I];
  }

  static VFloat loadF(const float *P) {
    VFloat R;
    for (int I = 0; I < W; ++I)
      R.Lane[I] = P[I];
    return R;
  }

  static void storeF(float *P, VFloat V) {
    for (int I = 0; I < W; ++I)
      P[I] = V.Lane[I];
  }

  static VInt gather(const std::int32_t *Base, VInt Idx, Mask M) {
    VInt R;
    for (int I = 0; I < W; ++I)
      R.Lane[I] = M.Lane[I] ? Base[Idx.Lane[I]] : 0;
    return R;
  }

  static void scatter(std::int32_t *Base, VInt Idx, VInt V, Mask M) {
    for (int I = 0; I < W; ++I)
      if (M.Lane[I])
        Base[Idx.Lane[I]] = V.Lane[I];
  }

  // --- Software prefetch --------------------------------------------------

  /// Read-prefetch of the cache line holding \p P. \p Locality follows the
  /// _MM_HINT_* scale (0 = non-temporal .. 3 = keep in all levels); the
  /// builtin wants a literal, hence the switch.
  static void prefetch(const void *P, int Locality) {
    switch (Locality) {
    case 0:
      __builtin_prefetch(P, 0, 0);
      break;
    case 1:
      __builtin_prefetch(P, 0, 1);
      break;
    case 2:
      __builtin_prefetch(P, 0, 2);
      break;
    default:
      __builtin_prefetch(P, 0, 3);
      break;
    }
  }

  /// Per-lane prefetch of Base[Idx] for the active lanes, for elements of
  /// \p ElemSize bytes. No hardware has a true gather-prefetch on the SKX
  /// line (AVX512PF was KNL-only), so every backend lowers this to a loop.
  static void gatherPrefetch(const void *Base, VInt Idx, Mask M,
                             int ElemSize) {
    const char *P = static_cast<const char *>(Base);
    for (int I = 0; I < W; ++I)
      if (M.Lane[I])
        prefetch(P + static_cast<std::int64_t>(Idx.Lane[I]) * ElemSize, 3);
  }

  static VFloat gatherF(const float *Base, VInt Idx, Mask M) {
    VFloat R;
    for (int I = 0; I < W; ++I)
      R.Lane[I] = M.Lane[I] ? Base[Idx.Lane[I]] : 0.0f;
    return R;
  }

  static void scatterF(float *Base, VInt Idx, VFloat V, Mask M) {
    for (int I = 0; I < W; ++I)
      if (M.Lane[I])
        Base[Idx.Lane[I]] = V.Lane[I];
  }

  // --- Integer arithmetic and logic ---------------------------------------

  static VInt add(VInt A, VInt B) { return map(A, B, [](auto X, auto Y) {
                                      return X + Y;
                                    }); }
  static VInt sub(VInt A, VInt B) { return map(A, B, [](auto X, auto Y) {
                                      return X - Y;
                                    }); }
  static VInt mul(VInt A, VInt B) { return map(A, B, [](auto X, auto Y) {
                                      return X * Y;
                                    }); }
  static VInt min(VInt A, VInt B) { return map(A, B, [](auto X, auto Y) {
                                      return X < Y ? X : Y;
                                    }); }
  static VInt max(VInt A, VInt B) { return map(A, B, [](auto X, auto Y) {
                                      return X > Y ? X : Y;
                                    }); }
  static VInt and_(VInt A, VInt B) { return map(A, B, [](auto X, auto Y) {
                                       return X & Y;
                                     }); }
  static VInt or_(VInt A, VInt B) { return map(A, B, [](auto X, auto Y) {
                                      return X | Y;
                                    }); }
  static VInt xor_(VInt A, VInt B) { return map(A, B, [](auto X, auto Y) {
                                       return X ^ Y;
                                     }); }
  static VInt shl(VInt A, int Sh) {
    VInt R;
    for (int I = 0; I < W; ++I)
      R.Lane[I] = A.Lane[I] << Sh;
    return R;
  }
  static VInt shr(VInt A, int Sh) {
    VInt R;
    for (int I = 0; I < W; ++I)
      R.Lane[I] = static_cast<std::int32_t>(
          static_cast<std::uint32_t>(A.Lane[I]) >> Sh);
    return R;
  }
  /// Per-lane variable shift with x86 `vpsllvd` semantics: counts are
  /// treated as unsigned and any count >= 32 yields zero.
  static VInt shlv(VInt A, VInt Sh) {
    VInt R;
    for (int I = 0; I < W; ++I) {
      std::uint32_t C = static_cast<std::uint32_t>(Sh.Lane[I]);
      R.Lane[I] = C >= 32 ? 0
                          : static_cast<std::int32_t>(
                                static_cast<std::uint32_t>(A.Lane[I]) << C);
    }
    return R;
  }

  // --- Float arithmetic ----------------------------------------------------

  static VFloat addF(VFloat A, VFloat B) {
    return mapF(A, B, [](auto X, auto Y) { return X + Y; });
  }
  static VFloat subF(VFloat A, VFloat B) {
    return mapF(A, B, [](auto X, auto Y) { return X - Y; });
  }
  static VFloat mulF(VFloat A, VFloat B) {
    return mapF(A, B, [](auto X, auto Y) { return X * Y; });
  }
  static VFloat divF(VFloat A, VFloat B) {
    return mapF(A, B, [](auto X, auto Y) { return X / Y; });
  }
  static VFloat toFloat(VInt A) {
    VFloat R;
    for (int I = 0; I < W; ++I)
      R.Lane[I] = static_cast<float>(A.Lane[I]);
    return R;
  }
  static VInt toInt(VFloat A) {
    VInt R;
    for (int I = 0; I < W; ++I)
      R.Lane[I] = static_cast<std::int32_t>(A.Lane[I]);
    return R;
  }

  // --- Comparisons ---------------------------------------------------------

  static Mask cmpEq(VInt A, VInt B) { return cmp(A, B, [](auto X, auto Y) {
                                        return X == Y;
                                      }); }
  static Mask cmpNe(VInt A, VInt B) { return cmp(A, B, [](auto X, auto Y) {
                                        return X != Y;
                                      }); }
  static Mask cmpLt(VInt A, VInt B) { return cmp(A, B, [](auto X, auto Y) {
                                        return X < Y;
                                      }); }
  static Mask cmpLe(VInt A, VInt B) { return cmp(A, B, [](auto X, auto Y) {
                                        return X <= Y;
                                      }); }
  static Mask cmpGt(VInt A, VInt B) { return cmp(A, B, [](auto X, auto Y) {
                                        return X > Y;
                                      }); }
  static Mask cmpLtF(VFloat A, VFloat B) {
    Mask R;
    for (int I = 0; I < W; ++I)
      R.Lane[I] = A.Lane[I] < B.Lane[I];
    return R;
  }
  static Mask cmpGtF(VFloat A, VFloat B) {
    Mask R;
    for (int I = 0; I < W; ++I)
      R.Lane[I] = A.Lane[I] > B.Lane[I];
    return R;
  }

  // --- Select --------------------------------------------------------------

  static VInt select(Mask M, VInt A, VInt B) {
    VInt R;
    for (int I = 0; I < W; ++I)
      R.Lane[I] = M.Lane[I] ? A.Lane[I] : B.Lane[I];
    return R;
  }

  static VFloat selectF(Mask M, VFloat A, VFloat B) {
    VFloat R;
    for (int I = 0; I < W; ++I)
      R.Lane[I] = M.Lane[I] ? A.Lane[I] : B.Lane[I];
    return R;
  }

  // --- Mask algebra ----------------------------------------------------------

  static Mask maskAll() {
    Mask R;
    for (int I = 0; I < W; ++I)
      R.Lane[I] = true;
    return R;
  }
  static Mask maskNone() {
    Mask R;
    for (int I = 0; I < W; ++I)
      R.Lane[I] = false;
    return R;
  }
  /// Mask with the first \p N lanes active (loop tails).
  static Mask maskFirstN(int N) {
    Mask R;
    for (int I = 0; I < W; ++I)
      R.Lane[I] = I < N;
    return R;
  }
  static Mask maskAnd(Mask A, Mask B) {
    Mask R;
    for (int I = 0; I < W; ++I)
      R.Lane[I] = A.Lane[I] && B.Lane[I];
    return R;
  }
  static Mask maskOr(Mask A, Mask B) {
    Mask R;
    for (int I = 0; I < W; ++I)
      R.Lane[I] = A.Lane[I] || B.Lane[I];
    return R;
  }
  static Mask maskNot(Mask A) {
    Mask R;
    for (int I = 0; I < W; ++I)
      R.Lane[I] = !A.Lane[I];
    return R;
  }
  static Mask maskAndNot(Mask A, Mask B) {
    Mask R;
    for (int I = 0; I < W; ++I)
      R.Lane[I] = A.Lane[I] && !B.Lane[I];
    return R;
  }
  static bool any(Mask M) {
    for (int I = 0; I < W; ++I)
      if (M.Lane[I])
        return true;
    return false;
  }
  static bool all(Mask M) {
    for (int I = 0; I < W; ++I)
      if (!M.Lane[I])
        return false;
    return true;
  }
  static int popcount(Mask M) {
    int N = 0;
    for (int I = 0; I < W; ++I)
      N += M.Lane[I];
    return N;
  }
  /// lanemask(): bit I set iff lane I is active.
  static std::uint64_t maskBits(Mask M) {
    std::uint64_t Bits = 0;
    for (int I = 0; I < W; ++I)
      if (M.Lane[I])
        Bits |= std::uint64_t(1) << I;
    return Bits;
  }
  static Mask maskFromBits(std::uint64_t Bits) {
    Mask R;
    for (int I = 0; I < W; ++I)
      R.Lane[I] = (Bits >> I) & 1;
    return R;
  }

  // --- Lane access -----------------------------------------------------------

  static std::int32_t extract(VInt V, int LaneIdx) { return V.Lane[LaneIdx]; }
  static float extractF(VFloat V, int LaneIdx) { return V.Lane[LaneIdx]; }

  // --- Reductions ------------------------------------------------------------

  static std::int32_t reduceAdd(VInt V, Mask M) {
    std::int32_t Sum = 0;
    for (int I = 0; I < W; ++I)
      if (M.Lane[I])
        Sum += V.Lane[I];
    return Sum;
  }
  static std::int32_t reduceMin(VInt V, Mask M, std::int32_t Identity) {
    std::int32_t R = Identity;
    for (int I = 0; I < W; ++I)
      if (M.Lane[I] && V.Lane[I] < R)
        R = V.Lane[I];
    return R;
  }
  static std::int32_t reduceMax(VInt V, Mask M, std::int32_t Identity) {
    std::int32_t R = Identity;
    for (int I = 0; I < W; ++I)
      if (M.Lane[I] && V.Lane[I] > R)
        R = V.Lane[I];
    return R;
  }
  static float reduceAddF(VFloat V, Mask M) {
    float Sum = 0.0f;
    for (int I = 0; I < W; ++I)
      if (M.Lane[I])
        Sum += V.Lane[I];
    return Sum;
  }

  // --- Compression -----------------------------------------------------------

  /// packed_store_active(): writes active lanes of \p V consecutively to
  /// \p Dst; returns the number of values written.
  static int packedStoreActive(std::int32_t *Dst, VInt V, Mask M) {
    int N = 0;
    for (int I = 0; I < W; ++I)
      if (M.Lane[I])
        Dst[N++] = V.Lane[I];
    return N;
  }

  /// Packs active lanes of \p V to the front; inactive tail is zero.
  static VInt compact(VInt V, Mask M) {
    VInt R = splat(0);
    int N = 0;
    for (int I = 0; I < W; ++I)
      if (M.Lane[I])
        R.Lane[N++] = V.Lane[I];
    return R;
  }

private:
  template <typename FnT> static VInt map(VInt A, VInt B, FnT Fn) {
    VInt R;
    for (int I = 0; I < W; ++I)
      R.Lane[I] = Fn(A.Lane[I], B.Lane[I]);
    return R;
  }
  template <typename FnT> static VFloat mapF(VFloat A, VFloat B, FnT Fn) {
    VFloat R;
    for (int I = 0; I < W; ++I)
      R.Lane[I] = Fn(A.Lane[I], B.Lane[I]);
    return R;
  }
  template <typename FnT> static Mask cmp(VInt A, VInt B, FnT Fn) {
    Mask R;
    for (int I = 0; I < W; ++I)
      R.Lane[I] = Fn(A.Lane[I], B.Lane[I]);
    return R;
  }
};

} // namespace egacs::simd

#endif // EGACS_SIMD_SCALARBACKEND_H
