//===- simd/Ops.h - SPMD value wrappers and operators -----------*- C++ -*-===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ISPC-style "varying" value types over an arbitrary backend, with operator
/// overloads so kernels read like the scalar SPMD code the paper's compiler
/// consumes. Every wrapper optionally bumps a dynamic-operation counter
/// (enabled via simd::setOpCounting), which is how we reproduce the paper's
/// Pin-based dynamic instruction counts (Fig 7) without Pin. The check is an
/// inlined relaxed load of one flag; when it is set, each counted op adds
/// into the calling thread's statistic shard (support/Stats.h), so counting
/// costs a private increment per op and no shared cache line.
///
/// Naming follows ISPC where a counterpart exists:
///   programIndex() -> iota, laneMask() -> mask bits of the execution mask,
///   packedStoreActive(), reduceAdd(), popcount().
///
//===----------------------------------------------------------------------===//

#ifndef EGACS_SIMD_OPS_H
#define EGACS_SIMD_OPS_H

#include "simd/Backend.h"
#include "support/Stats.h"

#include <atomic>
#include <cstdint>
#include <type_traits>
#include <utility>

namespace egacs::simd {

namespace detail {
/// The op-counting switch, read once per wrapper call.
inline std::atomic<bool> OpCountingOn{false};
} // namespace detail

/// Returns true when dynamic-operation counting is enabled: an inlined
/// relaxed load, so the wrappers cost a load and a not-taken branch per op
/// while counting is off.
inline bool opCountingEnabled() {
  return detail::OpCountingOn.load(std::memory_order_relaxed);
}

/// Enables/disables dynamic-operation counting (global; wrappers running
/// concurrently with the toggle may miscount a few boundary operations).
void setOpCounting(bool Enabled);

namespace detail {
inline void countOps(std::uint64_t N) {
#ifdef EGACS_STATS
  if (opCountingEnabled())
    statAdd(Stat::SpmdOps, N);
#else
  (void)N;
#endif
}
inline void countGather() {
#ifdef EGACS_STATS
  if (opCountingEnabled()) {
    statAdd(Stat::SpmdOps, 1);
    statAdd(Stat::GatherOps, 1);
  }
#endif
}
inline void countScatter() {
#ifdef EGACS_STATS
  if (opCountingEnabled()) {
    statAdd(Stat::SpmdOps, 1);
    statAdd(Stat::ScatterOps, 1);
  }
#endif
}
} // namespace detail

template <typename B> struct VMask;
template <typename B> struct VFloat;

/// A varying int32 over backend \p B.
template <typename B> struct VInt {
  typename B::VInt V;

  VInt() = default;
  /*implicit*/ VInt(typename B::VInt V) : V(V) {}
  /// Splat construction from a uniform value.
  explicit VInt(std::int32_t X) : V(B::splat(X)) {}

  friend VInt operator+(VInt A, VInt C) {
    detail::countOps(1);
    return B::add(A.V, C.V);
  }
  friend VInt operator-(VInt A, VInt C) {
    detail::countOps(1);
    return B::sub(A.V, C.V);
  }
  friend VInt operator*(VInt A, VInt C) {
    detail::countOps(1);
    return B::mul(A.V, C.V);
  }
  friend VInt operator&(VInt A, VInt C) {
    detail::countOps(1);
    return B::and_(A.V, C.V);
  }
  friend VInt operator|(VInt A, VInt C) {
    detail::countOps(1);
    return B::or_(A.V, C.V);
  }
  friend VInt operator^(VInt A, VInt C) {
    detail::countOps(1);
    return B::xor_(A.V, C.V);
  }
  friend VInt operator<<(VInt A, int Sh) {
    detail::countOps(1);
    return B::shl(A.V, Sh);
  }
  friend VInt operator>>(VInt A, int Sh) {
    detail::countOps(1);
    return B::shr(A.V, Sh);
  }

  friend VMask<B> operator==(VInt A, VInt C) {
    detail::countOps(1);
    return {B::cmpEq(A.V, C.V)};
  }
  friend VMask<B> operator!=(VInt A, VInt C) {
    detail::countOps(1);
    return {B::cmpNe(A.V, C.V)};
  }
  friend VMask<B> operator<(VInt A, VInt C) {
    detail::countOps(1);
    return {B::cmpLt(A.V, C.V)};
  }
  friend VMask<B> operator<=(VInt A, VInt C) {
    detail::countOps(1);
    return {B::cmpLe(A.V, C.V)};
  }
  friend VMask<B> operator>(VInt A, VInt C) {
    detail::countOps(1);
    return {B::cmpGt(A.V, C.V)};
  }
  friend VMask<B> operator>=(VInt A, VInt C) {
    detail::countOps(1);
    return {B::cmpLe(C.V, A.V)};
  }
};

/// A varying float over backend \p B.
template <typename B> struct VFloat {
  typename B::VFloat V;

  VFloat() = default;
  /*implicit*/ VFloat(typename B::VFloat V) : V(V) {}
  explicit VFloat(float X) : V(B::splatF(X)) {}

  friend VFloat operator+(VFloat A, VFloat C) {
    detail::countOps(1);
    return B::addF(A.V, C.V);
  }
  friend VFloat operator-(VFloat A, VFloat C) {
    detail::countOps(1);
    return B::subF(A.V, C.V);
  }
  friend VFloat operator*(VFloat A, VFloat C) {
    detail::countOps(1);
    return B::mulF(A.V, C.V);
  }
  friend VFloat operator/(VFloat A, VFloat C) {
    detail::countOps(1);
    return B::divF(A.V, C.V);
  }
  friend VMask<B> operator<(VFloat A, VFloat C) {
    detail::countOps(1);
    return {B::cmpLtF(A.V, C.V)};
  }
  friend VMask<B> operator>(VFloat A, VFloat C) {
    detail::countOps(1);
    return {B::cmpGtF(A.V, C.V)};
  }
};

/// A per-lane execution mask over backend \p B.
template <typename B> struct VMask {
  typename B::Mask M;

  VMask() = default;
  /*implicit*/ VMask(typename B::Mask M) : M(M) {}

  friend VMask operator&(VMask A, VMask C) {
    detail::countOps(1);
    return {B::maskAnd(A.M, C.M)};
  }
  friend VMask operator|(VMask A, VMask C) {
    detail::countOps(1);
    return {B::maskOr(A.M, C.M)};
  }
  friend VMask operator~(VMask A) {
    detail::countOps(1);
    return {B::maskNot(A.M)};
  }
  /// A & ~C, the common divergence-handling idiom.
  friend VMask andNot(VMask A, VMask C) {
    detail::countOps(1);
    return {B::maskAndNot(A.M, C.M)};
  }
};

// --- Construction helpers ----------------------------------------------------

template <typename B> VInt<B> splat(std::int32_t X) { return VInt<B>(X); }
template <typename B> VFloat<B> splatF(float X) { return VFloat<B>(X); }
/// ISPC programIndex.
template <typename B> VInt<B> programIndex() { return {B::iota()}; }
template <typename B> VMask<B> maskAll() { return {B::maskAll()}; }
template <typename B> VMask<B> maskNone() { return {B::maskNone()}; }
template <typename B> VMask<B> maskFirstN(int N) { return {B::maskFirstN(N)}; }
template <typename B> VMask<B> maskFromBits(std::uint64_t Bits) {
  return {B::maskFromBits(Bits)};
}

// --- Memory -------------------------------------------------------------------

template <typename B> VInt<B> load(const std::int32_t *P) {
  detail::countOps(1);
  return {B::load(P)};
}
template <typename B> VInt<B> maskedLoad(const std::int32_t *P, VMask<B> M) {
  detail::countOps(1);
  return {B::maskedLoad(P, M.M)};
}
template <typename B> void store(std::int32_t *P, VInt<B> V) {
  detail::countOps(1);
  B::store(P, V.V);
}
template <typename B> void maskedStore(std::int32_t *P, VInt<B> V, VMask<B> M) {
  detail::countOps(1);
  B::maskedStore(P, V.V, M.M);
}
template <typename B> VFloat<B> loadF(const float *P) {
  detail::countOps(1);
  return {B::loadF(P)};
}
template <typename B> void storeF(float *P, VFloat<B> V) {
  detail::countOps(1);
  B::storeF(P, V.V);
}

template <typename B>
VInt<B> gather(const std::int32_t *Base, VInt<B> Idx, VMask<B> M) {
  detail::countGather();
  return {B::gather(Base, Idx.V, M.M)};
}
template <typename B>
void scatter(std::int32_t *Base, VInt<B> Idx, VInt<B> V, VMask<B> M) {
  detail::countScatter();
  B::scatter(Base, Idx.V, V.V, M.M);
}
template <typename B>
VFloat<B> gatherF(const float *Base, VInt<B> Idx, VMask<B> M) {
  detail::countGather();
  return {B::gatherF(Base, Idx.V, M.M)};
}
template <typename B>
void scatterF(float *Base, VInt<B> Idx, VFloat<B> V, VMask<B> M) {
  detail::countScatter();
  B::scatterF(Base, Idx.V, V.V, M.M);
}

// --- Select, min/max, conversions ---------------------------------------------

template <typename B> VInt<B> select(VMask<B> M, VInt<B> A, VInt<B> C) {
  detail::countOps(1);
  return {B::select(M.M, A.V, C.V)};
}
template <typename B> VFloat<B> selectF(VMask<B> M, VFloat<B> A, VFloat<B> C) {
  detail::countOps(1);
  return {B::selectF(M.M, A.V, C.V)};
}
template <typename B> VInt<B> vmin(VInt<B> A, VInt<B> C) {
  detail::countOps(1);
  return {B::min(A.V, C.V)};
}
template <typename B> VInt<B> vmax(VInt<B> A, VInt<B> C) {
  detail::countOps(1);
  return {B::max(A.V, C.V)};
}
/// Per-lane variable left shift (x86 `vpsllvd` semantics: counts are
/// unsigned, counts >= 32 produce zero). The bitmap-frontier test/set
/// sequences build per-lane bit masks with this.
template <typename B> VInt<B> shlv(VInt<B> A, VInt<B> Sh) {
  detail::countOps(1);
  return {B::shlv(A.V, Sh.V)};
}
template <typename B> VFloat<B> toFloat(VInt<B> A) {
  detail::countOps(1);
  return {B::toFloat(A.V)};
}
template <typename B> VInt<B> toInt(VFloat<B> A) {
  detail::countOps(1);
  return {B::toInt(A.V)};
}

// --- Mask queries ----------------------------------------------------------------

template <typename B> bool any(VMask<B> M) { return B::any(M.M); }
template <typename B> bool all(VMask<B> M) { return B::all(M.M); }
template <typename B> int popcount(VMask<B> M) { return B::popcount(M.M); }
/// ISPC lanemask(): a bit per active lane.
template <typename B> std::uint64_t maskBits(VMask<B> M) {
  return B::maskBits(M.M);
}

// --- Lane access -------------------------------------------------------------------

template <typename B> std::int32_t extract(VInt<B> V, int Lane) {
  return B::extract(V.V, Lane);
}
template <typename B> float extractF(VFloat<B> V, int Lane) {
  return B::extractF(V.V, Lane);
}
template <typename B> VInt<B> insert(VInt<B> V, int Lane, std::int32_t X) {
  return {B::insert(V.V, Lane, X)};
}

// --- Reductions ------------------------------------------------------------------------

template <typename B> std::int32_t reduceAdd(VInt<B> V, VMask<B> M) {
  detail::countOps(1);
  return B::reduceAdd(V.V, M.M);
}
template <typename B>
std::int32_t reduceMin(VInt<B> V, VMask<B> M, std::int32_t Identity) {
  detail::countOps(1);
  return B::reduceMin(V.V, M.M, Identity);
}
template <typename B>
std::int32_t reduceMax(VInt<B> V, VMask<B> M, std::int32_t Identity) {
  detail::countOps(1);
  return B::reduceMax(V.V, M.M, Identity);
}
template <typename B> float reduceAddF(VFloat<B> V, VMask<B> M) {
  detail::countOps(1);
  return B::reduceAddF(V.V, M.M);
}

// --- Compression -----------------------------------------------------------------------

/// ISPC packed_store_active(): writes active lanes consecutively, returns
/// the count.
template <typename B>
int packedStoreActive(std::int32_t *Dst, VInt<B> V, VMask<B> M) {
  detail::countOps(1);
  return B::packedStoreActive(Dst, V.V, M.M);
}

/// Packs active lanes to the front of the vector.
template <typename B> VInt<B> compact(VInt<B> V, VMask<B> M) {
  detail::countOps(1);
  return {B::compact(V.V, M.M)};
}

/// Records an inner-loop lane-occupancy sample: \p Active of Width slots.
template <typename B> void recordLaneUtilization(VMask<B> M) {
#ifdef EGACS_STATS
  if (opCountingEnabled()) {
    statAdd(Stat::InnerActiveLanes, static_cast<std::uint64_t>(popcount(M)));
    statAdd(Stat::InnerTotalLanes, B::Width);
  }
#else
  (void)M;
#endif
}

/// Records that the \p M-active lanes fetched their neighbor id via a
/// hardware gather (CSR edge-index indirection).
template <typename B> void recordNeighborGather(VMask<B> M) {
#ifdef EGACS_STATS
  if (opCountingEnabled())
    statAdd(Stat::NeighborGatherLanes,
            static_cast<std::uint64_t>(popcount(M)));
#else
  (void)M;
#endif
}

// --- Software prefetch -------------------------------------------------------

/// Temporal-locality hint for software prefetches (the _MM_HINT_* scale).
enum class PrefetchHint : int {
  NonTemporal = 0,
  Low = 1,
  Medium = 2,
  High = 3,
};

namespace detail {

/// SFINAE capability probe, like ConflictDetect in simd/Atomics.h: backends
/// that supply a native prefetch(addr, locality) hook get it called;
/// everything else degrades to a no-op (prefetching is only ever a hint).
template <typename B, typename = void> struct PrefetchDetect {
  static constexpr bool Native = false;
  static void run(const void *, int) {}
};

template <typename B>
struct PrefetchDetect<B, std::void_t<decltype(B::prefetch(
                             std::declval<const void *>(), 0))>> {
  static constexpr bool Native = true;
  static void run(const void *P, int Locality) { B::prefetch(P, Locality); }
};

/// Same probe for the vector gather-prefetch hook. The fallback walks the
/// active lanes through PrefetchDetect, so a backend with only the scalar
/// hook still prefetches every lane, and a backend with neither no-ops.
template <typename B, typename = void> struct GatherPrefetchDetect {
  static constexpr bool Native = false;
  static void run(const void *Base, typename B::VInt Idx, typename B::Mask M,
                  int ElemSize) {
    const char *P = static_cast<const char *>(Base);
    std::uint64_t Bits = B::maskBits(M);
    while (Bits) {
      int L = __builtin_ctzll(Bits);
      Bits &= Bits - 1;
      PrefetchDetect<B>::run(
          P + static_cast<std::int64_t>(B::extract(Idx, L)) * ElemSize, 3);
    }
  }
};

template <typename B>
struct GatherPrefetchDetect<
    B, std::void_t<decltype(B::gatherPrefetch(
           std::declval<const void *>(), std::declval<typename B::VInt>(),
           std::declval<typename B::Mask>(), 4))>> {
  static constexpr bool Native = true;
  static void run(const void *Base, typename B::VInt Idx, typename B::Mask M,
                  int ElemSize) {
    B::gatherPrefetch(Base, Idx, M, ElemSize);
  }
};

} // namespace detail

/// True when backend \p B lowers prefetch() to a real instruction.
template <typename B> constexpr bool hasNativePrefetch() {
  return detail::PrefetchDetect<B>::Native;
}

/// Hints the cache hierarchy to pull in the line holding \p P. Deliberately
/// NOT routed through the op counters: prefetches are scheduling hints, not
/// architectural SPMD operations, and must not perturb the Fig 7 counts.
template <typename B>
void prefetch(const void *P, PrefetchHint H = PrefetchHint::High) {
  detail::PrefetchDetect<B>::run(P, static_cast<int>(H));
}

/// Hints the lines holding Base[Idx[L]] (elements of \p ElemSize bytes) for
/// every active lane. Not op-counted, same as prefetch().
template <typename B>
void gatherPrefetch(const void *Base, VInt<B> Idx, VMask<B> M,
                    int ElemSize = 4) {
  detail::GatherPrefetchDetect<B>::run(Base, Idx.V, M.M, ElemSize);
}

/// Records that the \p M-active lanes fetched their neighbor id via a
/// unit-stride (contiguous) vector load.
template <typename B> void recordNeighborContig(VMask<B> M) {
#ifdef EGACS_STATS
  if (opCountingEnabled())
    statAdd(Stat::NeighborContigLanes,
            static_cast<std::uint64_t>(popcount(M)));
#else
  (void)M;
#endif
}

} // namespace egacs::simd

#endif // EGACS_SIMD_OPS_H
