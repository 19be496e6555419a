//===- worklist/BitmapFrontier.h - Word-packed SIMD frontier ----*- C++ -*-===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dense frontier representation behind the direction-optimizing
/// traversal engine (kernels/Bfs.h et al.): one bit per node, packed into
/// 32-bit words so the SIMD surface can operate on it directly:
///
///  * testVector  - gather the lanes' words and AND against per-lane bit
///                  masks built with the variable shift (vpsllvd);
///  * setVector   - per-active-lane `lock or`; the fetch_or return value
///                  reveals which bits were *newly* set, so frontier sizes
///                  are tracked exactly without a popcount pass;
///  * toWorklist  - bitmap -> sparse queue conversion: per-task word slices
///                  are popcounted, prefix-summed, and expanded with
///                  packedStoreActive at exact offsets, yielding a globally
///                  sorted, duplicate-free queue (deterministic regardless
///                  of task count);
///  * fromWorklist- sparse -> bitmap scatter of a worklist's items.
///
/// Parallel use follows the kernels' phase discipline: within one round a
/// bitmap is either read (testVector on the current frontier) or written
/// (setVector on the next frontier), never both; the phases of a conversion
/// are barrier-separated by the caller. Per-task counters live in
/// cache-line-padded slots so the tracking itself stays TSan-clean and
/// contention-free.
///
//===----------------------------------------------------------------------===//

#ifndef EGACS_WORKLIST_BITMAPFRONTIER_H
#define EGACS_WORKLIST_BITMAPFRONTIER_H

#include "simd/Atomics.h"
#include "simd/Ops.h"
#include "support/AlignedBuffer.h"
#include "worklist/Worklist.h"

#include <cassert>
#include <cstdint>
#include <cstring>

namespace egacs {

/// A word-packed node-set with a SIMD test/set surface and exact
/// popcount-based size tracking. Bit n lives in word n>>5, position n&31.
class BitmapFrontier {
public:
  BitmapFrontier() = default;
  explicit BitmapFrontier(NodeId NumNodes, int TaskCount = 1) {
    allocate(NumNodes, TaskCount);
  }

  void allocate(NodeId NumNodes, int TaskCount) {
    assert(NumNodes >= 0 && TaskCount >= 1);
    N = NumNodes;
    NumTasks = TaskCount;
    Words.allocate(static_cast<std::size_t>(numWords()));
    // One cache line (CountStride int64s) per task so neighbouring tasks
    // never share a line through their counters.
    Counts.allocate(static_cast<std::size_t>(TaskCount) * CountStride);
    SliceCounts.allocate(static_cast<std::size_t>(TaskCount) * CountStride);
    Words.zero();
    resetCounts();
  }

  NodeId numNodes() const { return N; }
  std::int32_t numWords() const { return (N + 31) >> 5; }
  std::int32_t *words() { return Words.data(); }
  const std::int32_t *words() const { return Words.data(); }

  // --- Scalar (single-threaded) surface ----------------------------------

  /// Serial set; returns true when the bit was newly set.
  bool setSerial(NodeId Node) {
    assert(Node >= 0 && Node < N);
    std::int32_t Bit = std::int32_t(1) << (Node & 31);
    std::int32_t &W = Words[static_cast<std::size_t>(Node >> 5)];
    bool Fresh = (W & Bit) == 0;
    W |= Bit;
    return Fresh;
  }

  bool test(NodeId Node) const {
    assert(Node >= 0 && Node < N);
    return (simd::atomicLoadGlobal(
                Words.data() + static_cast<std::size_t>(Node >> 5)) >>
            (Node & 31)) &
           1;
  }

  /// Serial full clear (parallel callers use clearSlice under a barrier).
  void clearSerial() {
    Words.zero();
    resetCounts();
  }

  /// Serial all-set: every node's bit on, trailing pad bits of the last
  /// word off, the whole tally in task 0's counter. The initial "everything
  /// changed" frontier of the fixpoint kernels (pull-direction cc).
  void setAllSerial() {
    std::int64_t NW = numWords();
    if (NW > 0) {
      std::memset(Words.data(), 0xff,
                  static_cast<std::size_t>(NW) * sizeof(std::int32_t));
      int Tail = N & 31;
      if (Tail)
        Words[static_cast<std::size_t>(NW - 1)] =
            static_cast<std::int32_t>((std::uint32_t(1) << Tail) - 1);
    }
    resetCounts();
    addCount(0, N);
  }

  // --- Per-task exact size tracking ---------------------------------------

  void resetCounts() {
    std::memset(Counts.data(), 0, Counts.size() * sizeof(std::int64_t));
  }

  /// Adds \p Delta to task \p Task's padded counter slot (task-owned, no
  /// atomics needed).
  void addCount(int Task, std::int64_t Delta) {
    Counts[static_cast<std::size_t>(Task) * CountStride] += Delta;
  }

  /// Sum of all per-task counters: the number of set bits, provided every
  /// setter routed its newly-set tally through addCount. Call only between
  /// rounds (no concurrent addCount).
  std::int64_t totalCount() const {
    std::int64_t Total = 0;
    for (int T = 0; T < NumTasks; ++T)
      Total += Counts[static_cast<std::size_t>(T) * CountStride];
    return Total;
  }

  // --- SIMD surface --------------------------------------------------------

  /// Mask of active lanes whose node's bit is set: a word gather plus a
  /// variable-shift bit-mask test, no lane loop.
  template <typename BK>
  simd::VMask<BK> testVector(simd::VInt<BK> Nodes, simd::VMask<BK> M) const {
    using namespace simd;
    VInt<BK> W = gather<BK>(Words.data(), Nodes >> 5, M);
    VInt<BK> Bit = shlv<BK>(splat<BK>(1), Nodes & splat<BK>(31));
    return M & ((W & Bit) != splat<BK>(0));
  }

  /// Sets the active lanes' bits with one `fetch_or` per lane (concurrent
  /// setters of one word combine in hardware, like the GraphIt baseline's
  /// boundary bitvector) and returns how many bits were *newly* set —
  /// lanes whose bit was already present, and duplicate lanes within this
  /// vector, are not double-counted.
  template <typename BK>
  int setVector(simd::VInt<BK> Nodes, simd::VMask<BK> M) {
    const auto NodeA = simd::spill(Nodes);
    std::uint64_t Bits = simd::maskBits(M);
    int Fresh = 0;
    while (Bits) {
      int L = __builtin_ctzll(Bits);
      Bits &= Bits - 1;
      NodeId Node = NodeA[L];
      std::int32_t Bit = std::int32_t(1) << (Node & 31);
      std::int32_t Old = __atomic_fetch_or(
          Words.data() + static_cast<std::size_t>(Node >> 5), Bit,
          __ATOMIC_RELAXED);
      Fresh += (Old & Bit) == 0;
    }
    return Fresh;
  }

  // --- Parallel conversion phases ------------------------------------------
  //
  // Each helper operates on task Task's contiguous share of the word array;
  // the caller barrier-separates the phases. The static word partition makes
  // the sparse queue produced by toWorklistSlice globally sorted and
  // independent of the task count.

  /// Phase: zeroes task \p Task's word share (plain stores; disjoint).
  void clearSlice(int Task, int TaskCount) {
    std::int64_t W0, W1;
    wordShare(Task, TaskCount, W0, W1);
    if (W0 < W1)
      std::memset(Words.data() + W0, 0,
                  static_cast<std::size_t>(W1 - W0) * sizeof(std::int32_t));
    Counts[static_cast<std::size_t>(Task) * CountStride] = 0;
  }

  /// Phase: scatters task \p Task's share of \p WL's items into the bitmap
  /// (sparse -> bitmap) and tracks the newly-set tally in the task counter.
  template <typename BK>
  void fromWorklistSlice(const Worklist &WL, int Task, int TaskCount) {
    std::int64_t Size = WL.size();
    std::int64_t I0 = Task * Size / TaskCount;
    std::int64_t I1 = (Task + 1) * Size / TaskCount;
    int Fresh = 0;
    for (std::int64_t I = I0; I < I1; I += BK::Width) {
      int Valid = static_cast<int>(I1 - I < BK::Width ? I1 - I : BK::Width);
      simd::VMask<BK> Act = simd::maskFirstN<BK>(Valid);
      simd::VInt<BK> Nodes = simd::maskedLoad<BK>(WL.items() + I, Act);
      Fresh += setVector<BK>(Nodes, Act);
    }
    addCount(Task, Fresh);
  }

  /// Phase 1 of bitmap -> sparse: popcounts task \p Task's word share into
  /// its padded slice-count slot (SliceCounts is mutable scratch, so a
  /// const bitmap can still be converted).
  void countSlice(int Task, int TaskCount) const {
    std::int64_t W0, W1;
    wordShare(Task, TaskCount, W0, W1);
    std::int64_t C = 0;
    for (std::int64_t W = W0; W < W1; ++W)
      C += __builtin_popcount(
          static_cast<std::uint32_t>(simd::atomicLoadGlobal(Words.data() + W)));
    SliceCounts[static_cast<std::size_t>(Task) * CountStride] = C;
  }

  /// Phase 2 of bitmap -> sparse (after a barrier behind countSlice):
  /// expands task \p Task's word share into \p WL at the exact offset given
  /// by the preceding slices' counts — sub-word masks feed
  /// packedStoreActive, so each 32-bit word costs 32/Width packed stores
  /// instead of a bit loop. Items land sorted and duplicate-free.
  template <typename BK>
  void toWorklistSlice(Worklist &WL, int Task, int TaskCount) const {
    static_assert(BK::Width <= 32, "sub-word expansion assumes Width <= 32");
    std::int64_t W0, W1;
    wordShare(Task, TaskCount, W0, W1);
    std::int64_t Off = 0;
    for (int T = 0; T < Task; ++T)
      Off += SliceCounts[static_cast<std::size_t>(T) * CountStride];
    std::int64_t MyCount =
        SliceCounts[static_cast<std::size_t>(Task) * CountStride];
    assert(static_cast<std::size_t>(Off + MyCount) <= WL.capacity() &&
           "worklist too small for the frontier");
    NodeId *Out = WL.items() + Off;
    std::int64_t Cursor = 0;
    constexpr std::uint32_t SubMask =
        BK::Width >= 32 ? 0xffffffffu : ((1u << BK::Width) - 1u);
    simd::VInt<BK> Lane = simd::programIndex<BK>();
    for (std::int64_t W = W0; W < W1; ++W) {
      std::uint32_t BitsW = static_cast<std::uint32_t>(
          simd::atomicLoadGlobal(Words.data() + W));
      if (!BitsW)
        continue;
      for (int Sub = 0; Sub < 32; Sub += BK::Width) {
        std::uint32_t SubBits = (BitsW >> Sub) & SubMask;
        if (!SubBits)
          continue;
        simd::VMask<BK> M = simd::maskFromBits<BK>(SubBits);
        simd::VInt<BK> Nodes =
            simd::splat<BK>(static_cast<std::int32_t>((W << 5) + Sub)) + Lane;
        Cursor += simd::packedStoreActive<BK>(Out + Cursor, Nodes, M);
      }
    }
    assert(Cursor == MyCount && "slice count / expansion mismatch");
    if (MyCount)
      simd::atomicAddGlobal(WL.sizePtr(), static_cast<std::int32_t>(MyCount));
  }

  /// Single-threaded bitmap -> sparse conversion (tests, serial callers).
  template <typename BK> void toWorklist(Worklist &WL) const {
    countSlice(0, 1);
    toWorklistSlice<BK>(WL, 0, 1);
  }

private:
  /// Task's contiguous share [W0, W1) of the word array.
  void wordShare(int Task, int TaskCount, std::int64_t &W0,
                 std::int64_t &W1) const {
    std::int64_t NW = numWords();
    W0 = Task * NW / TaskCount;
    W1 = (Task + 1) * NW / TaskCount;
  }

  /// int64s per per-task counter slot: one full cache line.
  static constexpr std::size_t CountStride = 64 / sizeof(std::int64_t);

  NodeId N = 0;
  int NumTasks = 1;
  AlignedBuffer<std::int32_t> Words;
  AlignedBuffer<std::int64_t> Counts;
  mutable AlignedBuffer<std::int64_t> SliceCounts;
};

} // namespace egacs

#endif // EGACS_WORKLIST_BITMAPFRONTIER_H
