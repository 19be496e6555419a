//===- graph/Csr.cpp - Compressed sparse row graphs -----------------------===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
//===----------------------------------------------------------------------===//

#include "graph/Csr.h"

#include "runtime/TaskSystem.h"
#include "support/CpuInfo.h"
#include "support/PrefixSum.h"

#include <algorithm>
#include <cstdio>
#include <limits>

using namespace egacs;

namespace {

/// Arcs below which one more task does not pay for starting its thread.
constexpr std::int64_t MinArcsPerTask = 1 << 16;

/// Tasks to group \p Arcs arcs into \p Rows rows with on \p TS: one per
/// MinArcsPerTask arcs, at most one per worker, and few enough that the
/// tasks' per-row counters (Rows each) take no more room than the arcs.
int taskCount(const TaskSystem &TS, std::int64_t Arcs, NodeId Rows) {
  const std::int64_t Cap = std::max<std::int64_t>(
      1, std::min<std::int64_t>(TS.concurrency(),
                                Arcs / std::max<NodeId>(Rows, 1)));
  return static_cast<int>(std::clamp<std::int64_t>(
      (Arcs + MinArcsPerTask - 1) / MinArcsPerTask, 1, Cap));
}

/// Runs \p Fn for tasks [0, NumTasks) on \p TS; a single task runs on the
/// calling thread, starting none.
void runTasks(TaskSystem &TS, int NumTasks, const TaskFn &Fn) {
  if (NumTasks == 1)
    Fn(0, 1);
  else
    TS.launch(NumTasks, Fn);
}

/// Range [Begin, End) of task \p T's equal share of [0, N).
std::pair<std::size_t, std::size_t> share(std::size_t N, int T,
                                          int NumTasks) {
  return {N * static_cast<std::size_t>(T) / static_cast<std::size_t>(NumTasks),
          N * static_cast<std::size_t>(T + 1) /
              static_cast<std::size_t>(NumTasks)};
}

/// Splits nodes [0, N) into \p Parts ranges of about equal arc counts by
/// the offsets \p Rows (N+1 entries); range P is [Bounds[P], Bounds[P+1]).
std::vector<NodeId> splitByArcs(const EdgeId *Rows, NodeId N, int Parts) {
  std::vector<NodeId> Bounds(static_cast<std::size_t>(Parts) + 1, N);
  for (int P = 0; P < Parts; ++P)
    Bounds[static_cast<std::size_t>(P)] = static_cast<NodeId>(
        std::lower_bound(Rows, Rows + N,
                         static_cast<EdgeId>(std::int64_t{Rows[N]} * P /
                                             Parts)) -
        Rows);
  return Bounds;
}

/// Groups arcs by row: a counting sort in which every pass splits the
/// input, not the rows, among \p Tasks tasks. ForShare(T, NumTasks, Fn)
/// calls Fn(Row, Arc) for each arc of task T's share of the input, the same
/// arcs in the same order on both calls, the shares in input order;
/// Place(Slot, Arc) stores an arc. Each row gets its arcs in input order
/// for any task count. Returns the row offsets (NumRows+1 entries).
template <typename ForShareT, typename PlaceT>
AlignedBuffer<EdgeId> groupByRow(TaskSystem &TS, int Tasks, NodeId NumRows,
                                 const ForShareT &ForShare,
                                 const PlaceT &Place) {
  const std::size_t N = static_cast<std::size_t>(NumRows);
  // Task T's arcs per row; then where in each row they start.
  AlignedBuffer<EdgeId> Cursor(N * static_cast<std::size_t>(Tasks));
  runTasks(TS, Tasks, [&](int T, int NumTasks) {
    EdgeId *Mine = Cursor.data() + N * static_cast<std::size_t>(T);
    std::fill(Mine, Mine + N, 0);
    ForShare(T, NumTasks, [Mine](NodeId Row, const auto &) { ++Mine[Row]; });
  });
  AlignedBuffer<EdgeId> Rows(N + 1);
  runTasks(TS, Tasks, [&](int T, int NumTasks) {
    auto [Lo, Hi] = share(N, T, NumTasks);
    for (std::size_t R = Lo; R < Hi; ++R) {
      EdgeId Sum = 0;
      for (std::size_t U = 0; U < static_cast<std::size_t>(NumTasks); ++U)
        Sum += std::exchange(Cursor[N * U + R], Sum);
      Rows[R] = Sum;
    }
  });
  Rows[N] = 0;
  exclusivePrefixSum(Rows.data(), N + 1);
  runTasks(TS, Tasks, [&](int T, int NumTasks) {
    EdgeId *Mine = Cursor.data() + N * static_cast<std::size_t>(T);
    ForShare(T, NumTasks, [&](NodeId Row, const auto &Arc) {
      Place(Rows[static_cast<std::size_t>(Row)] + Mine[Row]++, Arc);
    });
  });
  return Rows;
}

/// An arc's sort key within its row: destination, then weight in signed
/// order, so ascending keys are sortedByDestination() order.
std::uint64_t arcKey(NodeId Dst, Weight W) {
  return (std::uint64_t{static_cast<std::uint32_t>(Dst)} << 32) |
         (static_cast<std::uint32_t>(W) ^ 0x80000000u);
}
NodeId keyDst(std::uint64_t Key) { return static_cast<NodeId>(Key >> 32); }
Weight keyWeight(std::uint64_t Key) {
  return static_cast<Weight>(static_cast<std::uint32_t>(Key) ^ 0x80000000u);
}

} // namespace

Csr::Csr(NodeId NumNodes, AlignedBuffer<EdgeId> RowStart,
         AlignedBuffer<NodeId> EdgeDst, AlignedBuffer<Weight> EdgeWeights,
         bool SortedRows)
    : NodeCount(NumNodes), RowsSorted(SortedRows), Rows(std::move(RowStart)),
      Dsts(std::move(EdgeDst)), Weights(std::move(EdgeWeights)) {
  assert(Rows.size() == static_cast<std::size_t>(NumNodes) + 1 &&
         "row array must have NumNodes+1 entries");
  EdgeCount = Rows[static_cast<std::size_t>(NumNodes)];
  assert(Dsts.size() >= static_cast<std::size_t>(EdgeCount) &&
         "destination array too small");
  assert((Weights.empty() ||
          Weights.size() >= static_cast<std::size_t>(EdgeCount)) &&
         "weight array too small");
  for (NodeId N = 0; N < NodeCount; ++N)
    MaxDeg = std::max(MaxDeg, degree(N));
}

Csr Csr::transpose() const {
  SpawnTaskSystem TS(cpuInfo().HardwareThreads);
  return transpose(TS);
}

Csr Csr::transpose(TaskSystem &TS) const {
  // Task T's share is the T-th range of sources, so each transposed row
  // lists its sources in ascending order, as a serial scatter would.
  const int Tasks = taskCount(TS, EdgeCount, NodeCount);
  const std::vector<NodeId> Bounds = splitByArcs(Rows.data(), NodeCount, Tasks);
  AlignedBuffer<NodeId> NewDsts(static_cast<std::size_t>(EdgeCount));
  AlignedBuffer<Weight> NewWeights;
  if (hasWeights())
    NewWeights.allocate(static_cast<std::size_t>(EdgeCount));
  AlignedBuffer<EdgeId> NewRows = groupByRow(
      TS, Tasks, NodeCount,
      [&](int T, int, const auto &Fn) {
        for (NodeId Src = Bounds[static_cast<std::size_t>(T)];
             Src < Bounds[static_cast<std::size_t>(T) + 1]; ++Src)
          for (EdgeId E = Rows[static_cast<std::size_t>(Src)];
               E < Rows[static_cast<std::size_t>(Src) + 1]; ++E)
            Fn(Dsts[static_cast<std::size_t>(E)], std::pair(Src, E));
      },
      [&](EdgeId Slot, std::pair<NodeId, EdgeId> Arc) {
        NewDsts[static_cast<std::size_t>(Slot)] = Arc.first;
        if (hasWeights())
          NewWeights[static_cast<std::size_t>(Slot)] =
              Weights[static_cast<std::size_t>(Arc.second)];
      });
  return Csr(NodeCount, std::move(NewRows), std::move(NewDsts),
             std::move(NewWeights), RowsSorted);
}

Csr Csr::sortedByDestination() const {
  AlignedBuffer<EdgeId> NewRows(static_cast<std::size_t>(NodeCount) + 1);
  for (std::size_t I = 0; I <= static_cast<std::size_t>(NodeCount); ++I)
    NewRows[I] = Rows[I];

  AlignedBuffer<NodeId> NewDsts(static_cast<std::size_t>(EdgeCount));
  AlignedBuffer<Weight> NewWeights;
  if (hasWeights())
    NewWeights.allocate(static_cast<std::size_t>(EdgeCount));

  if (RowsSorted) {
    std::copy_n(Dsts.data(), EdgeCount, NewDsts.data());
    if (hasWeights())
      std::copy_n(Weights.data(), EdgeCount, NewWeights.data());
    return Csr(NodeCount, std::move(NewRows), std::move(NewDsts),
               std::move(NewWeights), /*SortedRows=*/true);
  }
  std::vector<std::pair<NodeId, Weight>> Scratch;
  for (NodeId N = 0; N < NodeCount; ++N) {
    EdgeId Begin = Rows[static_cast<std::size_t>(N)];
    EdgeId End = Rows[static_cast<std::size_t>(N) + 1];
    Scratch.clear();
    for (EdgeId E = Begin; E < End; ++E)
      Scratch.push_back({Dsts[static_cast<std::size_t>(E)],
                         hasWeights() ? Weights[static_cast<std::size_t>(E)]
                                      : 0});
    std::sort(Scratch.begin(), Scratch.end());
    for (EdgeId E = Begin; E < End; ++E) {
      NewDsts[static_cast<std::size_t>(E)] =
          Scratch[static_cast<std::size_t>(E - Begin)].first;
      if (hasWeights())
        NewWeights[static_cast<std::size_t>(E)] =
            Scratch[static_cast<std::size_t>(E - Begin)].second;
    }
  }
  return Csr(NodeCount, std::move(NewRows), std::move(NewDsts),
             std::move(NewWeights), /*SortedRows=*/true);
}

std::size_t Csr::memoryFootprintBytes() const {
  std::size_t Bytes = (Rows.size() * sizeof(EdgeId)) +
                      (Dsts.size() * sizeof(NodeId)) +
                      (Weights.size() * sizeof(Weight));
  return Bytes;
}

bool egacs::csrEdgeCountValid(std::size_t Count) {
  // EdgeId is int32_t; RowStart[NumNodes] must hold the edge count, so the
  // largest representable graph has 2^31 - 1 edges.
  return Count <= static_cast<std::size_t>(
                      std::numeric_limits<EdgeId>::max());
}

namespace {

/// The Dedupe build. It never materializes the symmetrized arc list and
/// never sorts it whole: groupByRow scatters both directions of each input
/// edge into their rows as packed (destination, weight) keys, and then each
/// row is sorted and cut to its lightest arc per destination -- the rows the
/// global (source, destination, weight) sort and unique used to yield.
Csr buildDeduped(TaskSystem &TS, NodeId NumNodes, std::vector<RawEdge> Edges,
                 const BuildOptions &Opts) {
  assert(std::all_of(Edges.begin(), Edges.end(),
                     [NumNodes](const RawEdge &E) {
                       return E.Src >= 0 && E.Src < NumNodes && E.Dst >= 0 &&
                              E.Dst < NumNodes;
                     }) &&
         "edge endpoint out of range");
  const std::size_t N = static_cast<std::size_t>(NumNodes);
  const std::size_t MaxArcs = Edges.size() * (Opts.Symmetrize ? 2 : 1);
  const int Tasks =
      taskCount(TS, static_cast<std::int64_t>(MaxArcs), NumNodes);
  AlignedBuffer<std::uint64_t> Keys(MaxArcs);
  AlignedBuffer<EdgeId> Rows = groupByRow(
      TS, Tasks, NumNodes,
      [&](int T, int NumTasks, const auto &Fn) {
        auto [Begin, End] = share(Edges.size(), T, NumTasks);
        for (std::size_t I = Begin; I < End; ++I) {
          const RawEdge &E = Edges[I];
          if (E.Src == E.Dst && Opts.DropSelfLoops)
            continue;
          Fn(E.Src, arcKey(E.Dst, E.W));
          if (Opts.Symmetrize && E.Src != E.Dst)
            Fn(E.Dst, arcKey(E.Src, E.W));
        }
      },
      [&](EdgeId Slot, std::uint64_t Key) {
        Keys[static_cast<std::size_t>(Slot)] = Key;
      });
  Edges = {}; // the final arrays may reuse its memory

  // Sort and cut each row in place, over ranges of about equal arc counts.
  AlignedBuffer<EdgeId> Kept(N); // arcs kept per row
  const std::vector<NodeId> Bounds = splitByArcs(Rows.data(), NumNodes, Tasks);
  std::vector<char> TaskWeighted(static_cast<std::size_t>(Tasks));
  runTasks(TS, Tasks, [&](int T, int) {
    bool Weighted = false;
    for (std::size_t S = static_cast<std::size_t>(Bounds[T]);
         S < static_cast<std::size_t>(Bounds[T + 1]); ++S) {
      std::uint64_t *Begin = Keys.data() + Rows[S];
      std::uint64_t *End = Keys.data() + Rows[S + 1];
      std::sort(Begin, End);
      // The first key of each destination's run carries its least weight.
      End = std::unique(Begin, End, [](std::uint64_t A, std::uint64_t B) {
        return keyDst(A) == keyDst(B);
      });
      Kept[S] = static_cast<EdgeId>(End - Begin);
      Weighted = Weighted || std::any_of(Begin, End, [](std::uint64_t K) {
                   return keyWeight(K) != 0;
                 });
    }
    TaskWeighted[static_cast<std::size_t>(T)] = Weighted;
  });

  AlignedBuffer<EdgeId> Offsets(N + 1);
  std::copy_n(Kept.data(), N, Offsets.data());
  Offsets[N] = 0;
  exclusivePrefixSum(Offsets.data(), N + 1);
  const bool AnyWeight =
      std::find(TaskWeighted.begin(), TaskWeighted.end(), 1) !=
      TaskWeighted.end();
  AlignedBuffer<NodeId> Dsts(static_cast<std::size_t>(Offsets[N]));
  AlignedBuffer<Weight> Weights;
  if (AnyWeight)
    Weights.allocate(static_cast<std::size_t>(Offsets[N]));
  runTasks(TS, Tasks, [&](int T, int) {
    for (std::size_t S = static_cast<std::size_t>(Bounds[T]);
         S < static_cast<std::size_t>(Bounds[T + 1]); ++S)
      for (EdgeId J = 0; J < Kept[S]; ++J) {
        std::uint64_t Key = Keys[static_cast<std::size_t>(Rows[S] + J)];
        Dsts[static_cast<std::size_t>(Offsets[S] + J)] = keyDst(Key);
        if (AnyWeight)
          Weights[static_cast<std::size_t>(Offsets[S] + J)] = keyWeight(Key);
      }
  });
  return Csr(NumNodes, std::move(Offsets), std::move(Dsts), std::move(Weights),
             /*SortedRows=*/true);
}

} // namespace

Csr egacs::buildCsr(NodeId NumNodes, std::vector<RawEdge> Edges,
                    const BuildOptions &Opts) {
  SpawnTaskSystem TS(cpuInfo().HardwareThreads);
  return buildCsr(TS, NumNodes, std::move(Edges), Opts);
}

Csr egacs::buildCsr(TaskSystem &TS, NodeId NumNodes,
                    std::vector<RawEdge> Edges, const BuildOptions &Opts) {
  assert(NumNodes >= 0 && "negative node count");
  // Symmetrization at most doubles the edge count; validate the worst case
  // up front so the reserve below cannot already overflow EdgeId math.
  std::size_t WorstCase = Edges.size() * (Opts.Symmetrize ? 2 : 1);
  if (!csrEdgeCountValid(WorstCase)) {
    char Msg[256];
    std::snprintf(Msg, sizeof(Msg),
                  "buildCsr: %zu edges%s exceed the 32-bit EdgeId index "
                  "space (max %zu); rebuild with 64-bit edge ids or shard "
                  "the input",
                  Edges.size(),
                  Opts.Symmetrize ? " (after symmetrization)" : "",
                  static_cast<std::size_t>(std::numeric_limits<EdgeId>::max()));
    throw GraphSizeError(Msg);
  }
  if (Opts.Dedupe)
    return buildDeduped(TS, NumNodes, std::move(Edges), Opts);
  if (Opts.Symmetrize) {
    std::size_t Original = Edges.size();
    Edges.reserve(Original * 2);
    for (std::size_t I = 0; I < Original; ++I) {
      const RawEdge &E = Edges[I];
      if (E.Src != E.Dst)
        Edges.push_back({E.Dst, E.Src, E.W});
    }
  }
  if (Opts.DropSelfLoops)
    std::erase_if(Edges, [](const RawEdge &E) { return E.Src == E.Dst; });

  bool AnyWeight = false;
  for (const RawEdge &E : Edges)
    if (E.W != 0) {
      AnyWeight = true;
      break;
    }

  AlignedBuffer<EdgeId> Rows(static_cast<std::size_t>(NumNodes) + 1);
  Rows.zero();
  for (const RawEdge &E : Edges) {
    assert(E.Src >= 0 && E.Src < NumNodes && "edge source out of range");
    assert(E.Dst >= 0 && E.Dst < NumNodes && "edge destination out of range");
    ++Rows[static_cast<std::size_t>(E.Src)];
  }
  exclusivePrefixSum(Rows.data(), static_cast<std::size_t>(NumNodes) + 1);
  Rows[static_cast<std::size_t>(NumNodes)] =
      static_cast<EdgeId>(Edges.size());

  AlignedBuffer<NodeId> Dsts(Edges.size());
  AlignedBuffer<Weight> Weights;
  if (AnyWeight)
    Weights.allocate(Edges.size());

  std::vector<EdgeId> Cursor(Rows.data(), Rows.data() + NumNodes);
  for (const RawEdge &E : Edges) {
    EdgeId Slot = Cursor[static_cast<std::size_t>(E.Src)]++;
    Dsts[static_cast<std::size_t>(Slot)] = E.Dst;
    if (AnyWeight)
      Weights[static_cast<std::size_t>(Slot)] = E.W;
  }
  return Csr(NumNodes, std::move(Rows), std::move(Dsts), std::move(Weights));
}
