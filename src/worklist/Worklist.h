//===- worklist/Worklist.h - Concurrent node worklists ----------*- C++ -*-===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The concurrent worklist at the heart of work-efficient graph algorithms
/// (paper Section III-C) and the three push strategies it measures:
///
///  * pushNaive      - one hardware atomic per active lane;
///  * pushCoop       - task-level Cooperative Conversion: popcnt(lanemask())
///                     sizes one atomic reservation, packed_store_active
///                     writes the lanes (paper's push_task listing);
///  * LocalPushBuffer- fiber-level Cooperative Conversion: fibers accumulate
///                     into a task-local buffer with a non-atomic cursor
///                     (lockstep execution within a task makes this safe)
///                     and flush with a single global atomic per round.
///
/// All pushes feed the AtomicPushes / ItemsPushed statistics behind
/// Table V.
///
//===----------------------------------------------------------------------===//

#ifndef EGACS_WORKLIST_WORKLIST_H
#define EGACS_WORKLIST_WORKLIST_H

#include "graph/Csr.h"
#include "simd/Atomics.h"
#include "simd/Ops.h"
#include "support/AlignedBuffer.h"
#include "support/Stats.h"

#include <cassert>
#include <cstdint>

namespace egacs {

/// A fixed-capacity append-only worklist of node ids.
class Worklist {
public:
  Worklist() = default;
  explicit Worklist(std::size_t Capacity) : Items(Capacity) {}

  void allocate(std::size_t Capacity) {
    Items.allocate(Capacity);
    Size = 0;
  }

  /// Number of items currently in the list.
  std::int32_t size() const {
    return __atomic_load_n(&Size, __ATOMIC_RELAXED);
  }
  bool empty() const { return size() == 0; }
  std::size_t capacity() const { return Items.size(); }

  NodeId *items() { return Items.data(); }
  const NodeId *items() const { return Items.data(); }
  NodeId operator[](std::int32_t I) const {
    assert(I >= 0 && I < size() && "worklist index out of range");
    return Items[static_cast<std::size_t>(I)];
  }

  /// The size cell, exposed for SPMD atomic reservations.
  std::int32_t *sizePtr() { return &Size; }

  void clear() { __atomic_store_n(&Size, 0, __ATOMIC_RELAXED); }

  /// Single-threaded push (initialization, serial baselines).
  void pushSerial(NodeId N) {
    assert(static_cast<std::size_t>(Size) < Items.size() &&
           "worklist overflow");
    Items[static_cast<std::size_t>(Size++)] = N;
  }

  /// Atomically reserves \p Count slots; returns the first index. Aborts on
  /// overflow — a worklist overrun would silently corrupt neighbouring
  /// allocations, so this check stays on in release builds. Debug builds
  /// fail through assert() first for a readable message.
  std::int32_t reserve(std::int32_t Count) {
    assert(Count >= 0 && "worklist reservation count must be non-negative");
    std::int32_t Idx = simd::atomicAddGlobal(&Size, Count);
    assert(static_cast<std::size_t>(Idx) + static_cast<std::size_t>(Count) <=
               Items.size() &&
           "worklist overflow: reserve() past capacity; size the list for "
           "the worst-case frontier");
    if (static_cast<std::size_t>(Idx) + static_cast<std::size_t>(Count) >
        Items.size())
      __builtin_trap();
    return Idx;
  }

private:
  AlignedBuffer<NodeId> Items;
  std::int32_t Size = 0;
};

/// An input/output worklist pair with O(1) swap, for level-synchronous
/// algorithms.
class WorklistPair {
public:
  explicit WorklistPair(std::size_t Capacity) : A(Capacity), B(Capacity) {}

  Worklist &in() { return *In; }
  Worklist &out() { return *Out; }

  /// Makes the output list the next input and clears the new output.
  void swap() {
    std::swap(In, Out);
    Out->clear();
  }

private:
  Worklist A, B;
  Worklist *In = &A;
  Worklist *Out = &B;
};

/// Unoptimized push: one hardware atomic per active lane.
template <typename BK>
void pushNaive(Worklist &WL, simd::VInt<BK> Values, simd::VMask<BK> M) {
  std::uint64_t Bits = simd::maskBits(M);
  EGACS_STAT_ADD(AtomicPushes, static_cast<std::uint64_t>(
                                   __builtin_popcountll(Bits)));
  EGACS_STAT_ADD(ItemsPushed, static_cast<std::uint64_t>(
                                  __builtin_popcountll(Bits)));
  const auto ValA = simd::spill(Values);
  while (Bits) {
    int L = __builtin_ctzll(Bits);
    Bits &= Bits - 1;
    std::int32_t Idx = WL.reserve(1);
    WL.items()[Idx] = ValA[L];
  }
}

/// Task-level Cooperative Conversion push: one atomic for all active lanes.
template <typename BK>
void pushCoop(Worklist &WL, simd::VInt<BK> Values, simd::VMask<BK> M) {
  int Count = simd::popcount(M);
  if (Count == 0)
    return;
  EGACS_STAT_ADD(AtomicPushes, 1);
  EGACS_STAT_ADD(ItemsPushed, static_cast<std::uint64_t>(Count));
  std::int32_t Idx = WL.reserve(Count);
  simd::packedStoreActive(WL.items() + Idx, Values, M);
}

/// Fiber-level Cooperative Conversion: a task-local staging buffer whose
/// cursor needs no atomics (fibers of one task execute in lockstep on one OS
/// thread), flushed to the global worklist with a single atomic.
class LocalPushBuffer {
public:
  explicit LocalPushBuffer(std::size_t Capacity) : Buf(Capacity) {}

  std::int32_t size() const { return Count; }

  /// Packs the active lanes into the local buffer (no atomics). The caller
  /// must flush() often enough that a full vector always fits.
  template <typename BK>
  void push(simd::VInt<BK> Values, simd::VMask<BK> M) {
    assert(static_cast<std::size_t>(Count) + BK::Width <= Buf.size() &&
           "local push buffer overflow; flush more often");
    int N = simd::packedStoreActive(Buf.data() + Count, Values, M);
    EGACS_STAT_ADD(ItemsPushed, static_cast<std::uint64_t>(N));
    Count += N;
  }

  /// Needs a flush before another full-width push could overflow.
  bool nearlyFull(int Width) const {
    return static_cast<std::size_t>(Count) + Width > Buf.size();
  }

  /// Drains the buffer into \p WL with one atomic reservation.
  void flush(Worklist &WL) {
    if (Count == 0)
      return;
    EGACS_STAT_ADD(AtomicPushes, 1);
    std::int32_t Idx = WL.reserve(Count);
    __builtin_memcpy(WL.items() + Idx, Buf.data(),
                     static_cast<std::size_t>(Count) * sizeof(NodeId));
    Count = 0;
  }

private:
  AlignedBuffer<NodeId> Buf;
  std::int32_t Count = 0;
};

} // namespace egacs

#endif // EGACS_WORKLIST_WORKLIST_H
