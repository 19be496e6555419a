//===- kernels/Bfs.h - Breadth-first search variants ------------*- C++ -*-===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's four BFS variants (Table VIII, Table X), written as functor
/// definitions over the operator engine (engine/Engine.h): bfs-wl
/// (worklist-driven), bfs-cx (worklist with fiber-level Cooperative
/// Conversion, Table V), bfs-tp (topology-driven rescans), and bfs-hb
/// (hybrid sparse/dense rounds). All produce hop distances from the source
/// (InfDist when unreachable), certified by verify::checkBfsDistances.
///
//===----------------------------------------------------------------------===//

#ifndef EGACS_KERNELS_BFS_H
#define EGACS_KERNELS_BFS_H

#include "engine/Engine.h"
#include "kernels/Kernels.h"

#include <vector>

namespace egacs {

namespace bfs_detail {

/// One sparse (worklist) BFS round for one task: expands In's slice into
/// Out. When \p Local is non-null pushes aggregate fiber-locally.
template <typename BK, typename VT>
void bfsSparseRound(engine::Ctx<VT> &E, std::int32_t *Dist,
                    std::int32_t NextLevel, const Worklist &In, Worklist &Out,
                    bool FiberLevelCc) {
  using namespace simd;
  LocalPushBuffer *Local =
      FiberLevelCc && E.Cfg.Fibers ? &E.TL.Local : nullptr;
  VInt<BK> Next = splat<BK>(NextLevel);
  engine::edgeMapSparse<BK>(
      E, In, [&](VInt<BK>, VInt<BK> Dst, VInt<BK>, VMask<BK> EAct) {
        VMask<BK> Won =
            updateMinVector<BK>(E.Cfg.Update, Dist, Dst, Next, EAct);
        if (any(Won))
          pushFrontier<BK>(E.Cfg, Out, Local, Dst, Won);
      });
  if (Local)
    Local->flush(Out);
}

/// One dense (topology) BFS round for one task: expands every node on
/// \p Level. A null \p Out counts relaxations only (bfs-tp's fixpoint
/// test); otherwise winners are pushed into the next frontier (bfs-hb).
template <typename BK, typename VT>
std::int32_t bfsDenseRound(engine::Ctx<VT> &E, std::int32_t *Dist,
                           std::int32_t Level, Worklist *Out,
                           LocalPushBuffer *Local) {
  using namespace simd;
  std::int32_t Wins = 0;
  VInt<BK> Cur = splat<BK>(Level);
  VInt<BK> Next = splat<BK>(Level + 1);
  engine::edgeMapDense<BK>(
      E,
      [&](VInt<BK> Node, VMask<BK> Act) {
        // Relaxed gather: other tasks CAS Level+1 into Dist during this
        // same scan, and the == Cur test must not be a data race.
        return Act & (gatherRelaxed<BK>(Dist, Node, Act) == Cur);
      },
      [&](VInt<BK>, VInt<BK> Dst, VInt<BK>, VMask<BK> EAct) {
        VMask<BK> Won =
            updateMinVector<BK>(E.Cfg.Update, Dist, Dst, Next, EAct);
        if (Out) {
          if (any(Won))
            pushFrontier<BK>(E.Cfg, *Out, Local, Dst, Won);
        } else {
          Wins += popcount(Won);
        }
      });
  if (Local)
    Local->flush(*Out);
  return Wins;
}

/// The run's prefetch plan: Dist is touched through the relaxation's
/// destination gathers; \p Dense rounds also gather it by node order for
/// the level filter, making it hot through both index shapes.
inline PrefetchPlan bfsPlan(const KernelConfig &Cfg, const std::int32_t *Dist,
                            bool Dense = false) {
  PrefetchPlan PF = kernelPrefetchPlan(Cfg);
  planProp(PF, Dist, PrefetchIndexKind::Dst);
  if (Dense)
    planProp(PF, Dist, PrefetchIndexKind::Node);
  return PF;
}

/// Hop distances seeded at \p Source (InfDist elsewhere).
inline std::vector<std::int32_t> initDist(NodeId N, NodeId Source) {
  std::vector<std::int32_t> Dist(static_cast<std::size_t>(N), InfDist);
  if (N != 0)
    Dist[static_cast<std::size_t>(Source)] = 0;
  return Dist;
}

/// The direction-optimizing BFS behind bfs-wl and bfs-hb when Cfg.Dir is
/// Pull or Hybrid: exact sparse push rounds, plus pull rounds over the
/// transposed view \p GT that retire each still-unvisited destination on
/// its first in-frontier parent (lane-owned writes: no CAS, no pushes).
/// The frontier driver owns the bitmaps and the Beamer alpha/beta switch
/// against the shrinking unexplored-edge budget (engine/FrontierDriver.h).
template <typename BK, typename VT>
std::vector<std::int32_t> bfsDirection(const VT &G, const VT &GT,
                                       const KernelConfig &Cfg, NodeId Source,
                                       bool FiberLevelCc) {
  using namespace simd;
  std::vector<std::int32_t> Dist = initDist(G.numNodes(), Source);
  WorklistPair WL(static_cast<std::size_t>(G.numNodes()) + 64);
  WL.in().pushSerial(Source);
  engine::Run<VT> R(Cfg, G, G.numNodes() + 64, bfsPlan(Cfg, Dist.data()),
                    static_cast<std::size_t>(G.numNodes()) / Cfg.NumTasks +
                        4096);
  std::int32_t Level = 0;

  engine::frontierDriver<BK>(
      Cfg, G, WL,
      Cfg.Dir == Direction::Pull ? DirRoundMode::PullEnter
                                 : DirRoundMode::Push,
      /*StartAllSet=*/false, /*ScoutDecrements=*/true,
      [&](int TaskIdx, int TaskCount) {
        auto E = R.ctx(TaskIdx, TaskCount);
        bfsSparseRound<BK>(E, Dist.data(), Level + 1, WL.in(), WL.out(),
                           FiberLevelCc);
      },
      [&](BitmapFrontier &CurB, BitmapFrontier &NextB, int TaskIdx,
          int TaskCount) {
        auto E = R.ctx(GT, TaskIdx, TaskCount);
        std::int64_t Scanned = 0, Exits = 0, Fresh = 0;
        VInt<BK> Next = splat<BK>(Level + 1);
        engine::vertexMapDense<BK>(
            E, [&](VInt<BK> Node, VMask<BK> Act, std::int64_t Slot) {
              VMask<BK> Unvisited =
                  Act &
                  (gather<BK>(Dist.data(), Node, Act) == splat<BK>(InfDist));
              if (!any(Unvisited))
                return;
              VMask<BK> Found = maskNone<BK>();
              engine::edgeMapPull<BK>(
                  GT, Node, Unvisited,
                  [&](VInt<BK>, VInt<BK> Src, VInt<BK>, VMask<BK> Live) {
                    Scanned += popcount(Live);
                    VMask<BK> Hit = CurB.testVector<BK>(Src, Live);
                    Found = Found | Hit;
                    return Live & ~Hit;
                  },
                  Slot, &Exits);
              if (any(Found)) {
                scatter<BK>(Dist.data(), Node, Next, Found);
                Fresh += NextB.setVector<BK>(Node, Found);
              }
            });
        NextB.addCount(TaskIdx, Fresh);
        EGACS_STAT_ADD(PullEdgesScanned, static_cast<std::uint64_t>(Scanned));
        EGACS_STAT_ADD(PullEarlyExits, static_cast<std::uint64_t>(Exits));
      },
      [&] { ++Level; });
  return Dist;
}

/// The push-only worklist pipe shared by bfs-wl and bfs-cx (they differ
/// only in fiber-level CC and local-buffer sizing).
template <typename BK, typename VT>
std::vector<std::int32_t> bfsWorklist(const VT &G, const KernelConfig &Cfg,
                                      NodeId Source, bool FiberLevelCc,
                                      std::size_t LocalCapacity) {
  std::vector<std::int32_t> Dist = initDist(G.numNodes(), Source);
  if (G.numNodes() == 0)
    return Dist;
  WorklistPair WL(static_cast<std::size_t>(G.numNodes()) + 64);
  WL.in().pushSerial(Source);
  engine::Run<VT> R(Cfg, G, G.numNodes() + 64, bfsPlan(Cfg, Dist.data()),
                    LocalCapacity);
  std::int32_t Level = 0;

  runPipe(
      Cfg, {WL.in().size(), "push"},
      TaskFn([&](int TaskIdx, int TaskCount) {
        auto E = R.ctx(TaskIdx, TaskCount);
        bfsSparseRound<BK>(E, Dist.data(), Level + 1, WL.in(), WL.out(),
                           FiberLevelCc);
      }),
      [&]() -> NextRound {
        WL.swap();
        ++Level;
        if (WL.in().empty())
          return std::nullopt;
        return RoundFrontier{WL.in().size(), "push"};
      });
  return Dist;
}

} // namespace bfs_detail

/// bfs-wl: worklist level-synchronous BFS; a non-null transposed view \p GT
/// plus Cfg.Dir != Push engages the direction-optimizing driver.
template <typename BK, typename VT>
std::vector<std::int32_t> bfsWl(const VT &G, const KernelConfig &Cfg,
                                NodeId Source, const VT *GT = nullptr) {
  if (Cfg.Dir != Direction::Push && GT && G.numNodes() != 0)
    return bfs_detail::bfsDirection<BK>(G, *GT, Cfg, Source,
                                        /*FiberLevelCc=*/false);
  return bfs_detail::bfsWorklist<BK>(G, Cfg, Source, /*FiberLevelCc=*/false,
                                     /*LocalCapacity=*/8192);
}

/// bfs-cx: worklist BFS with fiber-level Cooperative Conversion (one atomic
/// push reservation per task per round when Fibers are enabled); the local
/// buffers hold a task's worst-case share of new frontier nodes.
template <typename BK, typename VT>
std::vector<std::int32_t> bfsCx(const VT &G, const KernelConfig &Cfg,
                                NodeId Source) {
  return bfs_detail::bfsWorklist<BK>(
      G, Cfg, Source, /*FiberLevelCc=*/true,
      static_cast<std::size_t>(G.numNodes()) / Cfg.NumTasks + 4096);
}

/// bfs-tp: topology-driven BFS (rescans all nodes every level).
template <typename BK, typename VT>
std::vector<std::int32_t> bfsTp(const VT &G, const KernelConfig &Cfg,
                                NodeId Source) {
  std::vector<std::int32_t> Dist = bfs_detail::initDist(G.numNodes(), Source);
  if (G.numNodes() == 0)
    return Dist;
  engine::Run<VT> R(Cfg, G, G.numNodes(),
                    bfs_detail::bfsPlan(Cfg, Dist.data(), /*Dense=*/true));
  std::int32_t Level = 0;
  std::int32_t Expanded = 0; // relaxations performed in the last round

  runPipe(
      Cfg, {G.numNodes(), "dense"},
      TaskFn([&](int TaskIdx, int TaskCount) {
        auto E = R.ctx(TaskIdx, TaskCount);
        std::int32_t Wins = bfs_detail::bfsDenseRound<BK>(
            E, Dist.data(), Level, /*Out=*/nullptr, /*Local=*/nullptr);
        if (Wins)
          simd::atomicAddGlobal(&Expanded, Wins);
      }),
      [&]() -> NextRound {
        ++Level;
        bool Continue = Expanded != 0;
        Expanded = 0;
        if (!Continue)
          return std::nullopt;
        return RoundFrontier{G.numNodes(), "dense"};
      });
  return Dist;
}

/// bfs-hb: hybrid BFS; dense rounds when the frontier exceeds 1/HybridDenom
/// of the nodes, sparse rounds otherwise. With Cfg.Dir != Push and a
/// transposed view \p GT, dense rounds become pull rounds over the bitmap
/// frontier (the direction-optimizing driver) instead of push rescans.
template <typename BK, typename VT>
std::vector<std::int32_t> bfsHb(const VT &G, const KernelConfig &Cfg,
                                NodeId Source, const VT *GT = nullptr) {
  if (Cfg.Dir != Direction::Push && GT && G.numNodes() != 0)
    return bfs_detail::bfsDirection<BK>(G, *GT, Cfg, Source,
                                        /*FiberLevelCc=*/true);
  int HybridDenom = Cfg.HybridDenominator;
  std::vector<std::int32_t> Dist = bfs_detail::initDist(G.numNodes(), Source);
  if (G.numNodes() == 0)
    return Dist;
  WorklistPair WL(static_cast<std::size_t>(G.numNodes()) + 64);
  WL.in().pushSerial(Source);
  engine::Run<VT> R(Cfg, G, G.numNodes() + 64,
                    bfs_detail::bfsPlan(Cfg, Dist.data(), /*Dense=*/true),
                    static_cast<std::size_t>(G.numNodes()) / Cfg.NumTasks +
                        4096);
  std::int32_t Level = 0;
  bool Dense = false;

  runPipe(
      Cfg, {WL.in().size(), "push"},
      TaskFn([&](int TaskIdx, int TaskCount) {
        auto E = R.ctx(TaskIdx, TaskCount);
        if (!Dense) {
          bfs_detail::bfsSparseRound<BK>(E, Dist.data(), Level + 1, WL.in(),
                                         WL.out(), /*FiberLevelCc=*/true);
          return;
        }
        // Dense round: the next frontier is still materialized so a later
        // sparse round can run.
        bfs_detail::bfsDenseRound<BK>(E, Dist.data(), Level, &WL.out(),
                                      Cfg.Fibers ? &E.TL.Local : nullptr);
      }),
      [&]() -> NextRound {
        WL.swap();
        ++Level;
        Dense = WL.in().size() >
                G.numNodes() / (HybridDenom > 0 ? HybridDenom : 20);
        if (WL.in().empty())
          return std::nullopt;
        return RoundFrontier{WL.in().size(), Dense ? "dense" : "push"};
      });
  return Dist;
}

} // namespace egacs

#endif // EGACS_KERNELS_BFS_H
