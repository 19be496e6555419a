//===- simd/Atomics.h - SPMD atomic operations ------------------*- C++ -*-===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three classes of global atomics the paper describes (Section III-C):
///
///  1. scalar location, scalar value  -> one hardware atomic
///     (atomicAddGlobal on a uniform pointer);
///  2. vector locations, vector values -> a loop of hardware scalar atomics
///     over active lanes (CPUs have no vector atomic instructions);
///  3. scalar location, vector values  -> an in-register reduction followed
///     by a single hardware atomic (reduce-then-atomic).
///
/// Lock-free min/CAS variants return the mask of lanes whose update won,
/// which is what relaxation-based graph kernels (BFS/SSSP/CC/MST) branch on.
///
/// Every class-2 loop follows the spill-once rule (see "Lane access" in
/// simd/Ops.h): each input vector is stored once to a LaneArray, a vector
/// result is collected in one and reloaded once, and each active lane then
/// issues its own relaxed `__atomic_*` access in ascending lane order. The
/// independent scalar loads that the paper's Table VI measures as cheap stay
/// cheap that way; re-storing the vector per lane (extract) or patching a
/// lane into it per iteration (store, overwrite, reload) serialises the
/// loop on store-forwarding stalls.
///
/// This header also provides the contention-aware refinements behind
/// `UpdatePolicy` (sched/UpdateEngine.h):
///
///  * every CAS loop feeds the CasAttempts / CasFailures counters (under
///    EGACS_STATS) and applies a `_mm_pause`-based exponential backoff on
///    failure, so contended relaxations stop saturating the load port;
///  * `atomicAddVectorFCombined` / `atomicMinVectorCombined` perform
///    in-vector conflict combining: lanes that target the same destination
///    are pre-reduced in registers (SIMD-X's intra-warp aggregation, on
///    CPU), so each *distinct* destination costs one hardware atomic.
///    AVX512 backends detect the duplicates with `vpconflictd`; the other
///    backends use a lane loop with identical semantics.
///
//===----------------------------------------------------------------------===//

#ifndef EGACS_SIMD_ATOMICS_H
#define EGACS_SIMD_ATOMICS_H

#include "simd/Ops.h"

#include <cstdint>
#include <type_traits>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace egacs::simd {

/// A single CPU spin-relax hint (`pause` on x86; a compiler barrier
/// elsewhere).
inline void cpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#else
  __asm__ volatile("");
#endif
}

/// Exponential `_mm_pause`-based backoff for contended CAS loops. Without
/// it a failed weak CAS re-issues immediately and the spinning loads
/// saturate the core's load ports — the paper's "extensive use of cmpxchg"
/// bottleneck at its worst. The pause count doubles per failure up to a
/// small cap, so an uncontended retry costs a single pause.
class CasBackoff {
public:
  void pause() {
    for (int I = 0; I < Spins; ++I)
      cpuRelax();
    if (Spins < MaxSpins)
      Spins <<= 1;
  }

private:
  static constexpr int MaxSpins = 32;
  int Spins = 1;
};

namespace detail {
/// Feeds the CAS instrumentation counters. Compiles away (along with the
/// callers' local tallies) when EGACS_STATS is off, keeping the hot CAS
/// loops at their pre-instrumentation code.
inline void countCas(std::uint32_t Attempts, std::uint32_t Failures) {
#ifdef EGACS_STATS
  if (Attempts)
    statAdd(Stat::CasAttempts, Attempts);
  if (Failures)
    statAdd(Stat::CasFailures, Failures);
#else
  (void)Attempts;
  (void)Failures;
#endif
}
} // namespace detail

// --- Class 1: scalar location, scalar value ---------------------------------

/// Atomic fetch-add on a uniform location; returns the old value.
inline std::int32_t atomicAddGlobal(std::int32_t *P, std::int32_t V) {
  return __atomic_fetch_add(P, V, __ATOMIC_RELAXED);
}

inline std::int64_t atomicAddGlobal64(std::int64_t *P, std::int64_t V) {
  return __atomic_fetch_add(P, V, __ATOMIC_RELAXED);
}

/// Atomic min on a uniform location; returns true when the value shrank.
inline bool atomicMinGlobal(std::int32_t *P, std::int32_t V) {
  std::int32_t Old = __atomic_load_n(P, __ATOMIC_RELAXED);
  std::uint32_t Attempts = 0;
  CasBackoff Backoff;
  while (V < Old) {
    ++Attempts;
    if (__atomic_compare_exchange_n(P, &Old, V, /*weak=*/true,
                                    __ATOMIC_RELAXED, __ATOMIC_RELAXED)) {
      detail::countCas(Attempts, Attempts - 1);
      return true;
    }
    Backoff.pause();
  }
  detail::countCas(Attempts, Attempts);
  return false;
}

/// Atomic max on a uniform location; returns true when the value grew.
inline bool atomicMaxGlobal(std::int32_t *P, std::int32_t V) {
  std::int32_t Old = __atomic_load_n(P, __ATOMIC_RELAXED);
  std::uint32_t Attempts = 0;
  CasBackoff Backoff;
  while (V > Old) {
    ++Attempts;
    if (__atomic_compare_exchange_n(P, &Old, V, /*weak=*/true,
                                    __ATOMIC_RELAXED, __ATOMIC_RELAXED)) {
      detail::countCas(Attempts, Attempts - 1);
      return true;
    }
    Backoff.pause();
  }
  detail::countCas(Attempts, Attempts);
  return false;
}

/// Atomic min on a uniform 64-bit location; returns true when it shrank.
/// Bořůvka packs (weight << 32 | edge-id) so minima are unique per edge.
inline bool atomicMinGlobal64(std::int64_t *P, std::int64_t V) {
  std::int64_t Old = __atomic_load_n(P, __ATOMIC_RELAXED);
  std::uint32_t Attempts = 0;
  CasBackoff Backoff;
  while (V < Old) {
    ++Attempts;
    if (__atomic_compare_exchange_n(P, &Old, V, /*weak=*/true,
                                    __ATOMIC_RELAXED, __ATOMIC_RELAXED)) {
      detail::countCas(Attempts, Attempts - 1);
      return true;
    }
    Backoff.pause();
  }
  detail::countCas(Attempts, Attempts);
  return false;
}

/// Relaxed atomic load of a uniform location. Pairs reads with the CAS
/// writers above so racy-by-design algorithms (Bořůvka's hooking, label
/// propagation) stay data-race-free in the C++ memory model (and under
/// TSan) without ordering cost: on x86 this compiles to a plain mov.
inline std::int32_t atomicLoadGlobal(const std::int32_t *P) {
  return __atomic_load_n(P, __ATOMIC_RELAXED);
}

/// Relaxed atomic store to a uniform location; the writer-side pair of
/// atomicLoadGlobal for idempotent blind stores (MIS demotion/exclusion).
inline void atomicStoreGlobal(std::int32_t *P, std::int32_t V) {
  __atomic_store_n(P, V, __ATOMIC_RELAXED);
}

/// Atomic compare-and-swap on a uniform location.
inline bool atomicCasGlobal(std::int32_t *P, std::int32_t Expected,
                            std::int32_t Desired) {
  bool Won = __atomic_compare_exchange_n(P, &Expected, Desired, /*weak=*/false,
                                         __ATOMIC_RELAXED, __ATOMIC_RELAXED);
  detail::countCas(1, Won ? 0 : 1);
  return Won;
}

/// Atomic float add via a CAS loop on the bit pattern (PR's accumulation;
/// the paper notes PR's "extensive use of cmpxchg").
inline void atomicAddGlobalF(float *P, float V) {
  std::uint32_t *Bits = reinterpret_cast<std::uint32_t *>(P);
  std::uint32_t Old = __atomic_load_n(Bits, __ATOMIC_RELAXED);
  std::uint32_t Attempts = 0;
  CasBackoff Backoff;
  for (;;) {
    float OldF;
    __builtin_memcpy(&OldF, &Old, sizeof(float));
    float NewF = OldF + V;
    std::uint32_t New;
    __builtin_memcpy(&New, &NewF, sizeof(float));
    ++Attempts;
    if (__atomic_compare_exchange_n(Bits, &Old, New, /*weak=*/true,
                                    __ATOMIC_RELAXED, __ATOMIC_RELAXED)) {
      detail::countCas(Attempts, Attempts - 1);
      return;
    }
    Backoff.pause();
  }
}

// --- Class 2: vector locations, vector values ---------------------------------

/// Per-active-lane atomic add Base[Idx[l]] += Val[l]; returns old values.
template <typename B>
VInt<B> atomicAddVector(std::int32_t *Base, VInt<B> Idx, VInt<B> Val,
                        VMask<B> M) {
  detail::countOps(1);
  const auto IdxA = spill(Idx), ValA = spill(Val);
  LaneArray<B, std::int32_t> Old{};
  std::uint64_t Bits = maskBits(M);
  while (Bits) {
    int L = __builtin_ctzll(Bits);
    Bits &= Bits - 1;
    Old[L] = atomicAddGlobal(Base + IdxA[L], ValA[L]);
  }
  return reload(Old);
}

/// Per-active-lane relaxed-atomic gather of Base[Idx[l]]. Pairs racy-by-
/// design reads (label hooking, dense level scans) with the CAS writers
/// above: per lane this is the same x86 mov a hardware gather decomposes
/// into, but with race-free semantics under the C++ memory model (and
/// TSan). Counted as a gather so the Fig-7 op counts match the plain path.
template <typename B>
VInt<B> gatherRelaxed(const std::int32_t *Base, VInt<B> Idx, VMask<B> M) {
  detail::countGather();
  const auto IdxA = spill(Idx);
  LaneArray<B, std::int32_t> Out{};
  std::uint64_t Bits = maskBits(M);
  while (Bits) {
    int L = __builtin_ctzll(Bits);
    Bits &= Bits - 1;
    Out[L] = atomicLoadGlobal(Base + IdxA[L]);
  }
  return reload(Out);
}

/// Per-active-lane relaxed-atomic scatter Base[Idx[l]] = Val[l]. The writer
/// side of gatherRelaxed, for idempotent blind stores that race with reads
/// of the same property (MIS state demotion/exclusion): per lane the same
/// x86 mov a hardware scatter decomposes into, but race-free under the C++
/// memory model (and TSan). Counted as a scatter so the Fig-7 op counts
/// match the plain path.
template <typename B>
void scatterRelaxed(std::int32_t *Base, VInt<B> Idx, VInt<B> Val, VMask<B> M) {
  detail::countScatter();
  const auto IdxA = spill(Idx), ValA = spill(Val);
  std::uint64_t Bits = maskBits(M);
  while (Bits) {
    int L = __builtin_ctzll(Bits);
    Bits &= Bits - 1;
    atomicStoreGlobal(Base + IdxA[L], ValA[L]);
  }
}

/// Per-active-lane atomic min Base[Idx[l]] = min(., Val[l]); returns the mask
/// of lanes whose value strictly decreased (i.e. the relaxation succeeded).
template <typename B>
VMask<B> atomicMinVector(std::int32_t *Base, VInt<B> Idx, VInt<B> Val,
                         VMask<B> M) {
  detail::countOps(1);
  const auto IdxA = spill(Idx), ValA = spill(Val);
  std::uint64_t Bits = maskBits(M);
  std::uint64_t Won = 0;
  while (Bits) {
    int L = __builtin_ctzll(Bits);
    Bits &= Bits - 1;
    if (atomicMinGlobal(Base + IdxA[L], ValA[L]))
      Won |= std::uint64_t(1) << L;
  }
  return maskFromBits<B>(Won);
}

/// Per-active-lane CAS Base[Idx[l]]: Expected[l] -> Desired[l]; returns the
/// mask of lanes that won the exchange.
template <typename B>
VMask<B> atomicCasVector(std::int32_t *Base, VInt<B> Idx, VInt<B> Expected,
                         VInt<B> Desired, VMask<B> M) {
  detail::countOps(1);
  const auto IdxA = spill(Idx), ExpA = spill(Expected), DesA = spill(Desired);
  std::uint64_t Bits = maskBits(M);
  std::uint64_t Won = 0;
  while (Bits) {
    int L = __builtin_ctzll(Bits);
    Bits &= Bits - 1;
    if (atomicCasGlobal(Base + IdxA[L], ExpA[L], DesA[L]))
      Won |= std::uint64_t(1) << L;
  }
  return maskFromBits<B>(Won);
}

/// Per-active-lane atomic float add Base[Idx[l]] += Val[l].
template <typename B>
void atomicAddVectorF(float *Base, VInt<B> Idx, VFloat<B> Val, VMask<B> M) {
  detail::countOps(1);
  const auto IdxA = spill(Idx);
  const auto ValA = spill(Val);
  std::uint64_t Bits = maskBits(M);
  while (Bits) {
    int L = __builtin_ctzll(Bits);
    Bits &= Bits - 1;
    atomicAddGlobalF(Base + IdxA[L], ValA[L]);
  }
}

// --- In-vector conflict combining ------------------------------------------
//
// The paper names the per-lane CAS loop above the CPU bottleneck of PR and
// MST. When several lanes of one vector target the same destination — the
// common case for hub vertices of power-law graphs — the loop issues up to
// Width CAS chains against the *same* cache line back to back. Conflict
// combining pre-reduces those lanes in registers so each distinct
// destination costs exactly one hardware atomic (SIMD-X's intra-warp
// aggregation, arXiv:1812.04070, transplanted to CPU vectors).

namespace detail {

/// Fills Out[l] with the bitmask of lanes *earlier* than l that hold the
/// same index — exactly the `vpconflictd` result. Computed over all Width
/// lanes; callers mask with the active-lane bits. The generic
/// implementation is an O(Width^2) lane loop; AVX512 backends override it
/// with the native instruction via a `conflictEarlier` static.
template <typename B, typename = void> struct ConflictDetect {
  static void run(typename B::VInt Idx, std::uint32_t *Out) {
    alignas(64) std::int32_t IdxA[B::Width];
    B::store(IdxA, Idx);
    for (int L = 0; L < B::Width; ++L) {
      std::uint32_t Bits = 0;
      for (int E = 0; E < L; ++E)
        if (IdxA[E] == IdxA[L])
          Bits |= 1u << E;
      Out[L] = Bits;
    }
  }
};

template <typename B>
struct ConflictDetect<B, std::void_t<decltype(B::conflictEarlier(
                             std::declval<typename B::VInt>(),
                             static_cast<std::uint32_t *>(nullptr)))>> {
  static void run(typename B::VInt Idx, std::uint32_t *Out) {
    B::conflictEarlier(Idx, Out);
  }
};

} // namespace detail

/// Conflict-combined per-active-lane atomic float add: lanes targeting the
/// same destination are summed in registers (in lane order, starting from
/// the lowest active lane of each destination) and one CAS-loop atomic is
/// issued per *distinct* destination. The register pre-reduction
/// reassociates the float sum relative to the per-lane loop; the error is
/// bounded by the usual (K-1)·eps·Σ|v| recursive-summation bound for K
/// duplicate lanes (see UpdateEngineTest.FloatCombiningReassociationBound).
template <typename B>
void atomicAddVectorFCombined(float *Base, VInt<B> Idx, VFloat<B> Val,
                              VMask<B> M) {
  detail::countOps(1);
  std::uint64_t Act = maskBits(M);
  if (!Act)
    return;
  if ((Act & (Act - 1)) == 0) { // one active lane: nothing to combine
    int L = __builtin_ctzll(Act);
    atomicAddGlobalF(Base + extract(Idx, L), extractF(Val, L));
    return;
  }
  std::uint32_t Conf[B::Width];
  detail::ConflictDetect<B>::run(Idx.V, Conf);
  const auto IdxA = spill(Idx);
  const auto ValA = spill(Val);
  const std::uint32_t ActBits = static_cast<std::uint32_t>(Act);
  std::uint32_t Saved = 0;
  std::uint64_t Todo = Act;
  while (Todo) {
    int L = __builtin_ctzll(Todo);
    Todo &= Todo - 1;
    if (Conf[L] & ActBits)
      continue; // follower: an earlier active lane owns this destination
    float Sum = ValA[L];
    std::uint64_t Later = Todo;
    while (Later) {
      int F = __builtin_ctzll(Later);
      Later &= Later - 1;
      if (Conf[F] & (1u << L)) {
        Sum += ValA[F];
        ++Saved;
      }
    }
    atomicAddGlobalF(Base + IdxA[L], Sum);
  }
  EGACS_STAT_ADD(CombinedLanesSaved, Saved);
  (void)Saved;
}

/// Conflict-combined per-active-lane atomic min: lanes targeting the same
/// destination are pre-reduced to their minimum and one CAS loop runs per
/// distinct destination. The returned mask marks — for each destination
/// whose memory value strictly shrank — the first lane holding the winning
/// (minimum) value; duplicate lanes of that destination stay unset. Callers
/// that push Dst[lane] for won lanes therefore push the same destination
/// *set* as the per-lane loop, minus redundant duplicates, and the won
/// lane's Val always equals the value now in memory (which the per-lane
/// loop does not guarantee for interleaved duplicates).
template <typename B>
VMask<B> atomicMinVectorCombined(std::int32_t *Base, VInt<B> Idx, VInt<B> Val,
                                 VMask<B> M) {
  detail::countOps(1);
  std::uint64_t Act = maskBits(M);
  std::uint64_t Won = 0;
  if (!Act)
    return maskFromBits<B>(0);
  if ((Act & (Act - 1)) == 0) {
    int L = __builtin_ctzll(Act);
    if (atomicMinGlobal(Base + extract(Idx, L), extract(Val, L)))
      Won |= std::uint64_t(1) << L;
    return maskFromBits<B>(Won);
  }
  std::uint32_t Conf[B::Width];
  detail::ConflictDetect<B>::run(Idx.V, Conf);
  const auto IdxA = spill(Idx), ValA = spill(Val);
  const std::uint32_t ActBits = static_cast<std::uint32_t>(Act);
  std::uint32_t Saved = 0;
  std::uint64_t Todo = Act;
  while (Todo) {
    int L = __builtin_ctzll(Todo);
    Todo &= Todo - 1;
    if (Conf[L] & ActBits)
      continue;
    std::int32_t MinV = ValA[L];
    int MinLane = L;
    std::uint64_t Later = Todo;
    while (Later) {
      int F = __builtin_ctzll(Later);
      Later &= Later - 1;
      if (Conf[F] & (1u << L)) {
        ++Saved;
        if (ValA[F] < MinV) {
          MinV = ValA[F];
          MinLane = F;
        }
      }
    }
    if (atomicMinGlobal(Base + IdxA[L], MinV))
      Won |= std::uint64_t(1) << MinLane;
  }
  EGACS_STAT_ADD(CombinedLanesSaved, Saved);
  (void)Saved;
  return maskFromBits<B>(Won);
}

// --- Class 3: scalar location, vector values -----------------------------------

/// Reduces the active lanes of \p Val in registers, then issues exactly one
/// hardware atomic; returns the pre-add value of *P.
template <typename B>
std::int32_t atomicAddReduce(std::int32_t *P, VInt<B> Val, VMask<B> M) {
  return atomicAddGlobal(P, reduceAdd(Val, M));
}

/// Reduce-then-atomic for float accumulation into a uniform location.
template <typename B>
void atomicAddReduceF(float *P, VFloat<B> Val, VMask<B> M) {
  atomicAddGlobalF(P, reduceAddF(Val, M));
}

} // namespace egacs::simd

#endif // EGACS_SIMD_ATOMICS_H
