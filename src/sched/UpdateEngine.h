//===- sched/UpdateEngine.h - Contention-aware update engine ----*- C++ -*-===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper names the "extensive use of cmpxchg" the CPU bottleneck of PR
/// and MST (Section V), and it equally throttles CC hooking and SSSP
/// relaxations: every active lane of a scatter issues its own CAS chain
/// against a random cache line. PIUMA (arXiv:2010.06277) identifies exactly
/// this random-scatter pattern as the dominant cost of irregular graph
/// updates; SIMD-X (arXiv:1812.04070) attacks it on GPUs with intra-warp
/// atomic aggregation. This header is the CPU counterpart: a
/// runtime-selectable *update engine* behind `KernelConfig::Update`.
///
///   UpdatePolicy::Atomic     - the baseline: one hardware CAS chain per
///                              active lane (simd/Atomics.h class 2).
///   UpdatePolicy::Combined   - in-vector conflict combining: lanes that
///                              target the same destination are pre-reduced
///                              in registers (vpconflictd on AVX512) so each
///                              *distinct* destination costs one CAS.
///   UpdatePolicy::Privatized - per-task accumulator arrays + a parallel
///                              merge-reduce phase on the LoopScheduler; no
///                              global CAS at all, at NumTasks x N memory.
///
/// Privatized applies to *commutative accumulation* (PR's float adds).
/// Min-relaxation kernels (BFS/SSSP/CC and Bořůvka's 64-bit packed mins)
/// degrade it to Combined: privatizing a min against
/// identity-initialized private copies manufactures spurious "wins", and
/// relaxation kernels branch on the won mask to push worklist entries —
/// deferring the min to a merge phase would defer (and duplicate) the
/// pushes past the bounded-capacity worklists. Combining is the contention
/// optimization that preserves push semantics exactly.
///
/// The engine instruments its two phases separately (UpdateScatterCritNanos
/// / UpdateMergeCritNanos, last-task-out accumulation like LoopScheduler):
/// on an oversubscribed CI container wall clock cannot show the contention
/// win, but the per-episode critical path can.
///
//===----------------------------------------------------------------------===//

#ifndef EGACS_SCHED_UPDATEENGINE_H
#define EGACS_SCHED_UPDATEENGINE_H

#include "sched/WorkStealing.h"
#include "simd/Atomics.h"
#include "support/AlignedBuffer.h"
#include "support/Stats.h"

#include <atomic>
#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

namespace egacs {

/// How scatter-heavy kernels issue their irregular read-modify-write
/// updates (see the file comment for the three strategies).
enum class UpdatePolicy {
  Atomic,     ///< one hardware CAS chain per active lane (baseline)
  Combined,   ///< in-vector conflict combining, one CAS per distinct dst
  Privatized, ///< per-task accumulators + parallel merge (adds only)
};

/// Human-readable policy name ("atomic", "combined", "privatized").
const char *updatePolicyName(UpdatePolicy P);

/// Parses "atomic", "combined", or "privatized"; reports unknown names to
/// stderr and exits non-zero (never silently falls back).
UpdatePolicy parseUpdatePolicy(const std::string &Name);

/// Policy dispatch for vector atomic-min relaxations (BFS/SSSP/CC and the
/// IrGL codegen's AtomicMin). Atomic keeps the exact pre-engine per-lane
/// loop; every other policy uses conflict combining (see the file comment
/// for why Privatized degrades to Combined on min-relaxations). The
/// returned won mask marks, per destination that shrank, the lane holding
/// the winning value — under Combined that lane's Val equals the value now
/// in memory, which SSSP's near/far classification relies on.
template <typename B>
simd::VMask<B> updateMinVector(UpdatePolicy P, std::int32_t *Base,
                               simd::VInt<B> Idx, simd::VInt<B> Val,
                               simd::VMask<B> M) {
  if (P == UpdatePolicy::Atomic)
    return simd::atomicMinVector<B>(Base, Idx, Val, M);
  return simd::atomicMinVectorCombined<B>(Base, Idx, Val, M);
}

/// Combined 64-bit min for Bořůvka's component minima: one
/// atomicMinGlobal64 per *distinct* component among the set lanes of
/// \p Bits. \p Comp[l] indexes \p Base; \p Packed[l] is the (weight << 32 |
/// edge-id) key. Equal-component lanes are pre-reduced in registers exactly
/// like atomicMinVectorCombined.
inline void updateMin64Combined(std::int64_t *Base, const std::int32_t *Comp,
                                const std::int64_t *Packed,
                                std::uint64_t Bits) {
  std::uint32_t Saved = 0;
  std::uint64_t Todo = Bits;
  while (Todo) {
    int L = __builtin_ctzll(Todo);
    Todo &= Todo - 1;
    std::int64_t MinV = Packed[L];
    std::uint64_t Later = Todo;
    while (Later) {
      int F = __builtin_ctzll(Later);
      Later &= Later - 1;
      if (Comp[F] == Comp[L]) {
        if (Packed[F] < MinV)
          MinV = Packed[F];
        Todo &= ~(std::uint64_t(1) << F);
        ++Saved;
      }
    }
    simd::atomicMinGlobal64(Base + Comp[L], MinV);
  }
  EGACS_STAT_ADD(CombinedLanesSaved, Saved);
  (void)Saved;
}

/// Last-task-out critical-path accumulator for one engine phase, the same
/// episode contract as LoopScheduler::taskEpilogue: every task of the
/// episode calls finish() exactly once, the caller's barrier orders the
/// reset before any task re-enters. All methods are no-ops when the engine
/// is not instrumented.
class UpdatePhaseTimer {
public:
  UpdatePhaseTimer(Stat CritStat, int NumTasks, bool Instrument)
      : CritStat(CritStat), NumTasks(NumTasks), Instrument(Instrument) {}

  /// Returns the phase start timestamp (0 when not instrumented).
  std::uint64_t start() const { return Instrument ? threadCpuNanos() : 0; }

  /// Records this task's busy time; the last task out adds the episode
  /// maximum to the phase's critical-path counter.
  void finish(std::uint64_t StartNs) {
    if (!Instrument)
      return;
    std::uint64_t BusyNs = threadCpuNanos() - StartNs;
    std::uint64_t Cur = EpisodeMaxNs.load(std::memory_order_relaxed);
    while (Cur < BusyNs &&
           !EpisodeMaxNs.compare_exchange_weak(Cur, BusyNs,
                                               std::memory_order_relaxed,
                                               std::memory_order_relaxed)) {
    }
    if (Exited.fetch_add(1, std::memory_order_acq_rel) + 1 == NumTasks) {
      statAdd(CritStat, EpisodeMaxNs.load(std::memory_order_relaxed));
      EpisodeMaxNs.store(0, std::memory_order_relaxed);
      Exited.store(0, std::memory_order_release);
    }
  }

private:
  const Stat CritStat;
  const int NumTasks;
  const bool Instrument;
  alignas(64) std::atomic<std::uint64_t> EpisodeMaxNs{0};
  alignas(64) std::atomic<int> Exited{0};
};

/// The update engine for commutative float accumulation (PR's rank
/// scatter): policy-dispatched per-vector add() in the scatter phase, plus
/// a parallel merge() phase that Privatized runs need (needsMerge()). The
/// Atomic path forwards straight to atomicAddVectorF — kernels that branch
/// on policy() before building their edge functor keep the exact
/// pre-engine inner loop.
class FloatAccumEngine {
public:
  /// \p NumSlots is the destination array length. \p Instrument enables
  /// the scatter/merge critical-path timers.
  FloatAccumEngine(UpdatePolicy Policy, std::int64_t NumSlots, int NumTasks,
                   bool Instrument)
      : Policy(Policy), NumSlots(NumSlots < 0 ? 0 : NumSlots),
        NumTasks(NumTasks < 1 ? 1 : NumTasks), Instrument(Instrument),
        ScatterCrit(Stat::UpdateScatterCritNanos, this->NumTasks, Instrument),
        MergeCrit(Stat::UpdateMergeCritNanos, this->NumTasks, Instrument) {
    if (Policy == UpdatePolicy::Privatized) {
      Priv.resize(static_cast<std::size_t>(this->NumTasks));
      for (auto &P : Priv) {
        P.allocate(static_cast<std::size_t>(this->NumSlots));
        P.zero();
      }
    }
  }

  FloatAccumEngine(const FloatAccumEngine &) = delete;
  FloatAccumEngine &operator=(const FloatAccumEngine &) = delete;

  UpdatePolicy policy() const { return Policy; }
  bool instrumented() const { return Instrument; }

  /// True when the pipe must run merge() as its own barrier phase between
  /// the scatter phase and any reader of the destination array.
  bool needsMerge() const { return Policy == UpdatePolicy::Privatized; }

  /// Scatter-phase critical-path hooks: bracket the kernel's scatter phase
  /// with StartNs = scatterStart() ... scatterFinish(StartNs) in every
  /// task. No-ops when not instrumented.
  std::uint64_t scatterStart() const { return ScatterCrit.start(); }
  void scatterFinish(std::uint64_t StartNs) { ScatterCrit.finish(StartNs); }

  /// Policy-dispatched Global[Idx[l]] += Val[l] over active lanes. Under
  /// Privatized nothing is written to \p Global until merge().
  template <typename B>
  void add(float *Global, int TaskIdx, simd::VInt<B> Idx, simd::VFloat<B> Val,
           simd::VMask<B> M) {
    using namespace simd;
    switch (Policy) {
    case UpdatePolicy::Atomic:
      atomicAddVectorF<B>(Global, Idx, Val, M);
      return;
    case UpdatePolicy::Combined:
      atomicAddVectorFCombined<B>(Global, Idx, Val, M);
      return;
    case UpdatePolicy::Privatized: {
      float *P = Priv[static_cast<std::size_t>(TaskIdx)].data();
      const auto IdxA = spill(Idx);
      const auto ValA = spill(Val);
      std::uint64_t Bits = maskBits(M);
      while (Bits) {
        int L = __builtin_ctzll(Bits);
        Bits &= Bits - 1;
        P[IdxA[L]] += ValA[L];
      }
      return;
    }
    }
  }

  /// Parallel merge-reduce phase (Privatized only; run as its own pipe
  /// phase so the caller's barrier separates it from the scatter). Every
  /// task calls this exactly once per episode. Each destination slot is
  /// dispatched to exactly one task by \p Sched, so the applies are plain,
  /// CAS-free writes; private state is reset for the next round in the
  /// same pass.
  void merge(float *Global, LoopScheduler &Sched, int TaskIdx,
             int TaskCount) {
    std::uint64_t T0 = MergeCrit.start();
    if (Policy == UpdatePolicy::Privatized) {
      Sched.forRanges(NumSlots, TaskIdx, TaskCount,
                      [&](std::int64_t B, std::int64_t E) {
                        for (int T = 0; T < NumTasks; ++T) {
                          float *P = Priv[static_cast<std::size_t>(T)].data();
                          for (std::int64_t I = B; I < E; ++I) {
                            Global[I] += P[I];
                            P[I] = 0.0f;
                          }
                        }
                      });
    }
    MergeCrit.finish(T0);
  }

private:
  const UpdatePolicy Policy;
  const std::int64_t NumSlots;
  const int NumTasks;
  const bool Instrument;

  UpdatePhaseTimer ScatterCrit;
  UpdatePhaseTimer MergeCrit;

  // Privatized: per-task full-length accumulators.
  std::vector<AlignedBuffer<float>> Priv;
};

} // namespace egacs

#endif // EGACS_SCHED_UPDATEENGINE_H
