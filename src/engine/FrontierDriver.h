//===- engine/FrontierDriver.h - Direction-optimizing driver ----*- C++ -*-===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The direction-optimizing frontier loop shared by the traversal kernels:
/// sparse (worklist push) rounds, dense (bitmap pull) rounds, the Beamer
/// alpha/beta switch between them, and the frontier-representation
/// conversions at each switch. Kernels supply the two round bodies; the
/// driver owns the bitmaps, the mode state machine, and the advance logic.
///
//===----------------------------------------------------------------------===//

#ifndef EGACS_ENGINE_FRONTIERDRIVER_H
#define EGACS_ENGINE_FRONTIERDRIVER_H

#include "engine/PipeDriver.h"
#include "worklist/BitmapFrontier.h"
#include "worklist/Worklist.h"

#include <utility>

namespace egacs {

/// The per-round mode of a direction-optimizing kernel. runPipe's phase
/// list is fixed across iterations, so the driver runs three fixed phases
/// (prepare / convert / main) whose bodies branch on the mode the previous
/// advance chose:
///   Push      - prepare/convert idle; main = sparse worklist round.
///   PullEnter - prepare clears both bitmaps; convert scatters the sparse
///               frontier into the current bitmap; main = pull scan.
///   Pull      - prepare clears the (just-swapped, still dirty) next
///               bitmap; main = pull scan.
///   PushEnter - prepare popcounts the current bitmap's word slices;
///               convert expands them into the input worklist (sorted,
///               duplicate-free); main = sparse round.
/// Every phase uses either the one scheduled loop of the round (the main
/// scan) or BitmapFrontier's static word shares, honouring the
/// LoopScheduler's one-scheduled-loop-per-barrier-episode contract.
enum class DirRoundMode { Push, PullEnter, Pull, PushEnter };

/// True for the modes whose main phase consumes the bitmap frontier.
inline bool dirModeIsPull(DirRoundMode M) {
  return M == DirRoundMode::PullEnter || M == DirRoundMode::Pull;
}

/// Trace/diagnostic name of \p M.
inline const char *dirRoundModeName(DirRoundMode M) {
  switch (M) {
  case DirRoundMode::Push:
    return "push";
  case DirRoundMode::PullEnter:
    return "pull-enter";
  case DirRoundMode::Pull:
    return "pull";
  case DirRoundMode::PushEnter:
    return "push-enter";
  }
  return "?";
}

/// Out-degree sum of the worklist \p WL under \p G — Beamer's scout count,
/// the numerator of the alpha test. Serial; runs in the advance step where
/// the frontier is at most a few percent of the nodes. (A push worklist may
/// hold duplicates — one push per label win — so the count can overcount;
/// it is only a switching heuristic.)
template <typename VT>
std::int64_t frontierEdges(const VT &G, const Worklist &WL) {
  const EdgeId *Rows = G.rowStart();
  std::int64_t Sum = 0;
  for (std::int32_t I = 0, E = WL.size(); I < E; ++I) {
    NodeId N = WL[I];
    Sum += Rows[N + 1] - Rows[N];
  }
  return Sum;
}

namespace engine {

/// Runs the direction-optimizing frontier loop over \p WL (kernel-owned and
/// kernel-seeded) until the frontier empties.
///
///  * SparseRound(TaskIdx, TaskCount) - one task's worklist push round,
///    WL.in() -> WL.out();
///  * PullRound(Cur, Next, TaskIdx, TaskCount) - one task's pull scan
///    consuming the bitmap \p Cur and producing \p Next (including its
///    addCount);
///  * OnAdvance() - serial per-round epilogue (level counters), run after
///    the frontier swap and before the empty test;
///  * InitialMode  - PullEnter for traversals seeded from a sparse source,
///    Pull with \p StartAllSet for label propagation where round 0's
///    frontier is every node;
///  * ScoutDecrements - when true the alpha test compares the scout count
///    against the *unexplored* edges (BFS visits each edge once); when
///    false against all edges (label propagation revisits edges).
///
/// Hybrid switching: go pull when the frontier's out-edges exceed
/// 1/Cfg.AlphaNum of the reference edge count, back to push when the
/// frontier shrinks under numNodes/Cfg.BetaDenom. Cfg.Dir == Pull pins pull
/// rounds (after the sparse-seeded entry round, if any).
template <typename BK, typename VT, typename SparseFnT, typename PullFnT,
          typename AdvanceFnT>
void frontierDriver(const KernelConfig &Cfg, const VT &G, WorklistPair &WL,
                    DirRoundMode InitialMode, bool StartAllSet,
                    bool ScoutDecrements, SparseFnT &&SparseRound,
                    PullFnT &&PullRound, AdvanceFnT &&OnAdvance) {
  BitmapFrontier BmpA(G.numNodes(), Cfg.NumTasks);
  BitmapFrontier BmpB(G.numNodes(), Cfg.NumTasks);
  BitmapFrontier *CurB = &BmpA, *NextB = &BmpB;
  if (StartAllSet)
    CurB->setAllSerial();
  DirRoundMode Mode = InitialMode;
  std::int64_t EdgesToCheck = static_cast<std::int64_t>(G.numEdges());
  const int Alpha = Cfg.AlphaNum > 0 ? Cfg.AlphaNum : 15;
  const int Beta = Cfg.BetaDenom > 0 ? Cfg.BetaDenom : 18;

  TaskFn Prepare = [&](int TaskIdx, int TaskCount) {
    switch (Mode) {
    case DirRoundMode::Push:
      return;
    case DirRoundMode::PullEnter:
      CurB->clearSlice(TaskIdx, TaskCount);
      NextB->clearSlice(TaskIdx, TaskCount);
      return;
    case DirRoundMode::Pull:
      NextB->clearSlice(TaskIdx, TaskCount);
      return;
    case DirRoundMode::PushEnter:
      CurB->countSlice(TaskIdx, TaskCount);
      return;
    }
  };
  TaskFn Convert = [&](int TaskIdx, int TaskCount) {
    if (Mode == DirRoundMode::PullEnter)
      CurB->fromWorklistSlice<BK>(WL.in(), TaskIdx, TaskCount);
    else if (Mode == DirRoundMode::PushEnter)
      CurB->toWorklistSlice<BK>(WL.in(), TaskIdx, TaskCount);
  };
  TaskFn Main = [&](int TaskIdx, int TaskCount) {
    if (dirModeIsPull(Mode))
      PullRound(*CurB, *NextB, TaskIdx, TaskCount);
    else
      SparseRound(TaskIdx, TaskCount);
  };

  std::vector<TaskFn> Phases{Prepare, Convert, Main};
  RoundFrontier Round0{StartAllSet ? G.numNodes() : WL.in().size(),
                       dirRoundModeName(Mode)};
  runPipe(Cfg, Round0, Phases, [&]() -> NextRound {
    bool WasPull = dirModeIsPull(Mode);
    std::int64_t FrontierSize;
    if (WasPull) {
      std::swap(CurB, NextB);
      FrontierSize = CurB->totalCount();
    } else {
      WL.swap();
      FrontierSize = WL.in().size();
    }
    OnAdvance();
    if (FrontierSize == 0)
      return std::nullopt;
    if (Cfg.Dir == Direction::Pull) {
      Mode = WasPull ? DirRoundMode::Pull : DirRoundMode::PullEnter;
      return RoundFrontier{FrontierSize, dirRoundModeName(Mode)};
    }
    if (!WasPull) {
      std::int64_t Scout = frontierEdges(G, WL.in());
      if (ScoutDecrements)
        EdgesToCheck -= Scout;
      if (Scout > EdgesToCheck / Alpha) {
        Mode = DirRoundMode::PullEnter;
        EGACS_STAT_ADD(DirectionSwitches, 1);
        EGACS_STAT_ADD(FrontierConversions, 1);
        EGACS_TRACED(if (Cfg.Trace)
                         Cfg.Trace->noteDirectionSwitch("push->pull");)
      } else {
        Mode = DirRoundMode::Push;
      }
    } else if (FrontierSize < G.numNodes() / Beta) {
      // The conversion phases refill WL.in() from the bitmap; the sparse
      // round then pushes into WL.out(). Both lists are stale from before
      // the pull stretch.
      WL.in().clear();
      WL.out().clear();
      Mode = DirRoundMode::PushEnter;
      EGACS_STAT_ADD(DirectionSwitches, 1);
      EGACS_STAT_ADD(FrontierConversions, 1);
      EGACS_TRACED(if (Cfg.Trace)
                       Cfg.Trace->noteDirectionSwitch("pull->push");)
    } else {
      Mode = DirRoundMode::Pull;
    }
    return RoundFrontier{FrontierSize, dirRoundModeName(Mode)};
  });
}

} // namespace engine

} // namespace egacs

#endif // EGACS_ENGINE_FRONTIERDRIVER_H
