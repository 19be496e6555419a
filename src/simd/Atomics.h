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
///    backends compare broadcast lanes, with identical semantics. A vector
///    whose active destinations are all distinct takes the plain per-lane
///    loop, so combining costs only the duplicate test where nothing
///    collides.
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

namespace detail {
/// The class-2 min loop on spilled lanes: one atomicMinGlobal per set bit of
/// \p Bits, in ascending lane order; returns the bits of the lanes that won.
template <typename B>
std::uint64_t minLanes(std::int32_t *Base,
                       const LaneArray<B, std::int32_t> &IdxA,
                       const LaneArray<B, std::int32_t> &ValA,
                       std::uint64_t Bits) {
  std::uint64_t Won = 0;
  while (Bits) {
    int L = __builtin_ctzll(Bits);
    Bits &= Bits - 1;
    if (atomicMinGlobal(Base + IdxA[L], ValA[L]))
      Won |= std::uint64_t(1) << L;
  }
  return Won;
}

/// The class-2 float-add loop on spilled lanes: one atomicAddGlobalF per set
/// bit of \p Bits, in ascending lane order.
template <typename B>
void addLanesF(float *Base, const LaneArray<B, std::int32_t> &IdxA,
               const LaneArray<B, float> &ValA, std::uint64_t Bits) {
  while (Bits) {
    int L = __builtin_ctzll(Bits);
    Bits &= Bits - 1;
    atomicAddGlobalF(Base + IdxA[L], ValA[L]);
  }
}
} // namespace detail

/// Per-active-lane atomic min Base[Idx[l]] = min(., Val[l]); returns the mask
/// of lanes whose value strictly decreased (i.e. the relaxation succeeded).
template <typename B>
VMask<B> atomicMinVector(std::int32_t *Base, VInt<B> Idx, VInt<B> Val,
                         VMask<B> M) {
  detail::countOps(1);
  return maskFromBits<B>(
      detail::minLanes<B>(Base, spill(Idx), spill(Val), maskBits(M)));
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
  detail::addLanesF<B>(Base, spill(Idx), spill(Val), maskBits(M));
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
//
// Combining pays only for the lanes that collide. Each call first asks for
// the active lanes that have an earlier active duplicate (the "followers");
// when there are none — every active destination distinct, which 81-99 %
// of the calls of every measured workload are (EXPERIMENTS.md) — it runs
// the plain per-lane loop above, with the same winners as the class-2
// operation and nothing saved. Otherwise one O(W) pass folds every
// follower into its leader, the lowest active lane with the same index,
// and one atomic is issued per leader.

namespace detail {

/// Lanes of \p Idx equal to \p X, as a bitmask (one broadcast `cmpEq`).
template <typename B>
std::uint64_t equalLanes(typename B::VInt Idx, std::int32_t X) {
  return B::maskBits(B::cmpEq(Idx, B::splat(X)));
}

/// In-vector duplicate detection: `followers` returns the active lanes of
/// \p M that have an earlier *active* lane holding the same index, as a
/// bitmask. \p IdxA is \p Idx spilled (the callers spill it for their lane
/// loops anyway). The generic implementation compares each active lane's
/// broadcast index against the whole vector; AVX512 backends override it
/// with `vpconflictd` + `vptestmd` (the `conflictEarlierMask` static).
template <typename B, typename = void> struct ConflictDetect {
  static std::uint64_t followers(typename B::VInt Idx,
                                 const std::int32_t *IdxA, typename B::Mask M) {
    const std::uint64_t Act = B::maskBits(M);
    std::uint64_t Dup = 0;
    std::uint64_t Todo = Act & (Act - 1); // the lowest active lane leads
    while (Todo) {
      int L = __builtin_ctzll(Todo);
      Todo &= Todo - 1;
      if (equalLanes<B>(Idx, IdxA[L]) & Act & ((std::uint64_t(1) << L) - 1))
        Dup |= std::uint64_t(1) << L;
    }
    return Dup;
  }
};

template <typename B>
struct ConflictDetect<B, std::void_t<decltype(B::conflictEarlierMask(
                             std::declval<typename B::VInt>(),
                             std::declval<typename B::Mask>()))>> {
  static std::uint64_t followers(typename B::VInt Idx, const std::int32_t *,
                                 typename B::Mask M) {
    return B::maskBits(B::conflictEarlierMask(Idx, M));
  }
};

/// Calls \p Fold(Leader, Follower) once per follower in \p Dup, in
/// ascending follower order. A follower's leader is the lowest lane of
/// \p Act holding the same index: one broadcast `cmpEq` per follower.
template <typename B, typename FoldT>
void foldFollowers(typename B::VInt Idx, const std::int32_t *IdxA,
                   std::uint64_t Act, std::uint64_t Dup, FoldT Fold) {
  for (; Dup; Dup &= Dup - 1) {
    int F = __builtin_ctzll(Dup);
    Fold(__builtin_ctzll(equalLanes<B>(Idx, IdxA[F]) & Act), F);
  }
}

/// The followers among the active lanes \p M of \p Idx (see
/// ConflictDetect); zero without a detection pass when at most one lane is
/// active.
template <typename B>
std::uint64_t activeFollowers(VInt<B> Idx,
                              const LaneArray<B, std::int32_t> &IdxA,
                              VMask<B> M) {
  const std::uint64_t Act = maskBits(M);
  if (!(Act & (Act - 1)))
    return 0;
  return ConflictDetect<B>::followers(Idx.V, IdxA.Lane, M.M);
}

} // namespace detail

/// Conflict-combined per-active-lane atomic float add: lanes targeting the
/// same destination are summed in registers (in lane order, starting from
/// the lowest active lane of each destination) and one CAS-loop atomic is
/// issued per *distinct* destination. The register pre-reduction
/// reassociates the float sum relative to the per-lane loop; the error is
/// bounded by the usual (K-1)·eps·Σ|v| recursive-summation bound for K
/// duplicate lanes (see UpdateEngineTest.FloatCombiningReassociationBound).
/// Without duplicates among the active lanes this is atomicAddVectorF.
template <typename B>
void atomicAddVectorFCombined(float *Base, VInt<B> Idx, VFloat<B> Val,
                              VMask<B> M) {
  detail::countOps(1);
  const std::uint64_t Act = maskBits(M);
  const auto IdxA = spill(Idx);
  auto ValA = spill(Val);
  const std::uint64_t Dup = detail::activeFollowers(Idx, IdxA, M);
  if (Dup) {
    // Leaders precede their followers, so summing into ValA in place reads
    // every follower's own value.
    detail::foldFollowers<B>(Idx.V, IdxA.Lane, Act, Dup,
                             [&](int L, int F) { ValA[L] += ValA[F]; });
    EGACS_STAT_ADD(CombinedLanesSaved, __builtin_popcountll(Dup));
  }
  detail::addLanesF<B>(Base, IdxA, ValA, Act & ~Dup);
}

/// Conflict-combined per-active-lane atomic min: lanes targeting the same
/// destination are pre-reduced to their minimum and one CAS loop runs per
/// distinct destination. The returned mask marks — for each destination
/// whose memory value strictly shrank — the first lane holding the winning
/// (minimum) value; duplicate lanes of that destination stay unset. Callers
/// that push Dst[lane] for won lanes therefore push the same destination
/// *set* as the per-lane loop, minus redundant duplicates, and the won
/// lane's Val always equals the value now in memory (which the per-lane
/// loop does not guarantee for interleaved duplicates). Without duplicates
/// among the active lanes this is atomicMinVector.
template <typename B>
VMask<B> atomicMinVectorCombined(std::int32_t *Base, VInt<B> Idx, VInt<B> Val,
                                 VMask<B> M) {
  detail::countOps(1);
  const std::uint64_t Act = maskBits(M);
  const auto IdxA = spill(Idx);
  auto ValA = spill(Val);
  const std::uint64_t Dup = detail::activeFollowers(Idx, IdxA, M);
  if (!Dup)
    return maskFromBits<B>(detail::minLanes<B>(Base, IdxA, ValA, Act));
  // Fold each follower's value into its leader's slot in place; MinLane
  // remembers which lane holds the minimum (the lowest one on ties), and
  // starts as every leader itself.
  auto MinLane = spill(VInt<B>(B::iota()));
  detail::foldFollowers<B>(Idx.V, IdxA.Lane, Act, Dup, [&](int L, int F) {
    if (ValA[F] < ValA[L]) {
      ValA[L] = ValA[F];
      MinLane[L] = F;
    }
  });
  EGACS_STAT_ADD(CombinedLanesSaved, __builtin_popcountll(Dup));
  std::uint64_t Won = 0;
  for (std::uint64_t T = detail::minLanes<B>(Base, IdxA, ValA, Act & ~Dup);
       T; T &= T - 1)
    Won |= std::uint64_t(1) << MinLane[__builtin_ctzll(T)];
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
