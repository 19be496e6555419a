//===- tests/LoopEquivalenceTest.cpp - Staged vs plain loop identity ------===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
// Prefetch staging is a property of the one worklist loop and the one node
// loop, switched off by an inactive plan. These tests pin that it is only a
// hint: under every plan (none, rows, rows+props at several distances) both
// loops must hand their body the same (values, mask, slot) sequence as
// under NoPrefetch, over CSR and SELL views (SELL's unaligned peel vector
// included), with fibers off, on with one fiber and on with several, and
// over scheduled ranges with tails. The inactive plan must issue no
// prefetch; an active one must issue some (so the stages really ran).
//
//===----------------------------------------------------------------------===//

#include "engine/VertexMap.h"
#include "graph/Generators.h"
#include "graph/GraphView.h"
#include "runtime/TaskSystem.h"
#include "sched/Prefetch.h"
#include "simd/Targets.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

using namespace egacs;
using namespace egacs::simd;

namespace {

using BK = ScalarBackend<8>;

/// One Body call: slot (NoSlot for the worklist loop), mask bits, and the
/// values of the active lanes.
using Call = std::tuple<std::int64_t, std::uint64_t, std::vector<NodeId>>;

Call record(VInt<BK> V, VMask<BK> M, std::int64_t Slot) {
  std::uint64_t Bits = maskBits(M);
  std::vector<NodeId> Lanes;
  for (int L = 0; L < BK::Width; ++L)
    if ((Bits >> L) & 1)
      Lanes.push_back(extract(V, L));
  return {Slot, Bits, Lanes};
}

/// A loop-shape configuration: task count and chunk size of the scheduled
/// ranges (a 13-item chunk leaves tails and unaligned range starts), and
/// the fiber setting.
struct Shape {
  int Tasks;
  std::int64_t Chunk;
  bool Fibers;
  int MaxFibers;

  std::string name() const {
    return "tasks=" + std::to_string(Tasks) + " chunk=" +
           std::to_string(Chunk) + " fibers=" + (Fibers ? "on" : "off") +
           " maxfibers=" + std::to_string(MaxFibers);
  }
};

const Shape Shapes[] = {
    {1, 1024, false, 1}, {1, 1024, true, 1}, {1, 1024, true, 4},
    {3, 13, false, 1},   {3, 13, true, 1},   {3, 13, true, 4},
};

/// The plans every loop must be indifferent to. The property arrays cover
/// all three index kinds so rows+props walks every inspect branch.
std::vector<PrefetchPlan> plans(const std::vector<std::int32_t> &NodeProp,
                                const std::vector<std::int32_t> &EdgeProp) {
  std::vector<PrefetchPlan> Out;
  for (PrefetchPolicy P : {PrefetchPolicy::None, PrefetchPolicy::Rows,
                           PrefetchPolicy::RowsProps})
    for (int Dist : {0, 1, 3, 8}) {
      PrefetchPlan PF;
      PF.Policy = P;
      PF.Dist = Dist;
      PF.addProp(NodeProp.data(), 4, PrefetchIndexKind::Node);
      PF.addProp(NodeProp.data(), 4, PrefetchIndexKind::Dst);
      PF.addProp(EdgeProp.data(), 4, PrefetchIndexKind::Edge);
      Out.push_back(PF);
    }
  return Out;
}

std::string planName(const PrefetchPlan &PF) {
  return std::string(prefetchPolicyName(PF.Policy)) +
         " dist=" + std::to_string(PF.Dist);
}

/// Runs the worklist loop (Node = false) or the node loop (Node = true)
/// over view \p V for every task of \p S on \p TS, returning each task's
/// calls in order; \p Issued accumulates the prefetches the plan issued.
template <typename VT>
std::vector<std::vector<Call>>
runLoop(TaskSystem &TS, const VT &V, bool Node, const Shape &S,
        const std::vector<NodeId> &Items, const PrefetchPlan &PF,
        std::uint64_t &Issued) {
  const std::int64_t Size =
      Node ? static_cast<std::int64_t>(V.numNodes())
           : static_cast<std::int64_t>(Items.size());
  LoopScheduler Sched(S.Tasks, S.Chunk, Size);
  KernelConfig Cfg;
  Cfg.Fibers = S.Fibers;
  Cfg.MaxFibersPerTask = S.MaxFibers;
  std::vector<std::vector<Call>> Calls(static_cast<std::size_t>(S.Tasks));
  std::vector<std::uint64_t> TaskIssued(static_cast<std::size_t>(S.Tasks));
  TS.launch(S.Tasks, [&](int TaskIdx, int TaskCount) {
    std::vector<Call> &Mine = Calls[static_cast<std::size_t>(TaskIdx)];
    PrefetchCounters C;
    if (Node)
      forEachNodeSlice<BK>(V, Sched, TaskIdx, TaskCount, PF, C,
                           [&](VInt<BK> Ids, VMask<BK> M, std::int64_t Slot) {
                             Mine.push_back(record(Ids, M, Slot));
                           });
    else
      forEachWorklistSlice<BK>(Cfg, V, Sched, Items.data(), Size, TaskIdx,
                               TaskCount, PF, C,
                               [&](VInt<BK> Vals, VMask<BK> M) {
                                 Mine.push_back(record(Vals, M, NoSlot));
                               });
    TaskIssued[static_cast<std::size_t>(TaskIdx)] = C.Issued;
  });
  for (std::uint64_t N : TaskIssued)
    Issued += N;
  return Calls;
}

/// Checks both loops over view \p V on \p TS. Serial task systems compare
/// each task's call sequence; a thread pool (which chunks a thief steals is
/// timing-dependent) compares the sorted union of all tasks' calls.
template <typename VT>
void expectStagingInvisible(TaskSystem &TS, bool Ordered, const VT &V,
                            const char *ViewName,
                            const std::vector<NodeId> &Items,
                            const std::vector<PrefetchPlan> &Plans) {
  auto Flatten = [&](std::vector<std::vector<Call>> Calls) {
    std::vector<Call> All;
    for (auto &T : Calls)
      All.insert(All.end(), T.begin(), T.end());
    if (!Ordered)
      std::sort(All.begin(), All.end());
    return All;
  };
  for (bool Node : {false, true})
    for (const Shape &S : Shapes) {
      std::uint64_t RefIssued = 0;
      std::vector<Call> Ref =
          Flatten(runLoop(TS, V, Node, S, Items, NoPrefetch, RefIssued));
      ASSERT_FALSE(Ref.empty());
      EXPECT_EQ(RefIssued, 0u);
      for (const PrefetchPlan &PF : Plans) {
        std::string Tag = std::string(ViewName) +
                          (Node ? " node loop " : " worklist loop ") +
                          S.name() + " " + planName(PF);
        std::uint64_t Issued = 0;
        EXPECT_EQ(Flatten(runLoop(TS, V, Node, S, Items, PF, Issued)), Ref)
            << Tag;
        if (PF.active())
          EXPECT_GT(Issued, 0u) << Tag;
        else
          EXPECT_EQ(Issued, 0u) << Tag;
      }
    }
}

struct Fixture {
  // 301 nodes: not a multiple of the width, so whole-range node loops end
  // on a tail vector.
  Csr G = uniformRandomGraph(301, /*Degree=*/6, /*Seed=*/17);
  std::vector<NodeId> Items;
  std::vector<std::int32_t> NodeProp, EdgeProp;
  std::vector<PrefetchPlan> Plans;
  LayoutOptions Opts;

  Fixture() {
    // A worklist in push order: repeats and non-monotone ids, 517 items.
    for (int I = 0; I < 517; ++I)
      Items.push_back(static_cast<NodeId>((I * 37 + I / 5) % G.numNodes()));
    NodeProp.assign(static_cast<std::size_t>(G.numNodes()), 0);
    EdgeProp.assign(static_cast<std::size_t>(G.numEdges()), 0);
    Plans = plans(NodeProp, EdgeProp);
    Opts.SellChunk = BK::Width;
    Opts.SellSigma = 64;
  }
};

TEST(LoopEquivalence, StagingNeverChangesBodyCallsSerial) {
  Fixture F;
  ASSERT_NE(F.G.numNodes() % BK::Width, 0);
  SerialTaskSystem TS;
  expectStagingInvisible(TS, /*Ordered=*/true, CsrView(F.G), "csr", F.Items,
                         F.Plans);
  expectStagingInvisible(TS, /*Ordered=*/true, SellView(F.G, F.Opts), "sell",
                         F.Items, F.Plans);
}

TEST(LoopEquivalence, StagingNeverChangesBodyCallsThreaded) {
  Fixture F;
  ThreadPoolTaskSystem TS(3);
  expectStagingInvisible(TS, /*Ordered=*/false, CsrView(F.G), "csr", F.Items,
                         F.Plans);
  expectStagingInvisible(TS, /*Ordered=*/false, SellView(F.G, F.Opts),
                         "sell", F.Items, F.Plans);
}

} // namespace
