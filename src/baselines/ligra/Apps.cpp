//===- baselines/ligra/Apps.cpp - Mini-Ligra applications -----------------===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
//===----------------------------------------------------------------------===//

#include "baselines/ligra/Apps.h"

#include "engine/Engine.h"
#include "kernels/Mis.h"
#include "support/Rng.h"

#include <cmath>
#include <cstring>

using namespace egacs;
using namespace egacs::ligra;

namespace {

/// BFS functor: claim unvisited targets with a CAS on the level array.
struct BfsF {
  std::int32_t *Dist;
  std::int32_t NextLevel;

  bool updateAtomic(NodeId, NodeId D, EdgeId) {
    return simd::atomicCasGlobal(&Dist[D], InfDist, NextLevel);
  }
  bool update(NodeId, NodeId D, EdgeId) {
    // Dense pull runs under cond(D), so D is still unvisited.
    Dist[D] = NextLevel;
    return true;
  }
  bool cond(NodeId D) const {
    return __atomic_load_n(&Dist[D], __ATOMIC_RELAXED) == InfDist;
  }
};

/// Bellman-Ford functor: relax with atomic min, claim the round's push with
/// an exchange on a per-node round mark.
struct SsspF {
  const Csr *G;
  std::int32_t *Dist;
  std::int32_t *RoundMark;
  std::int32_t Round;

  bool updateAtomic(NodeId S, NodeId D, EdgeId E) {
    std::int32_t Cand =
        __atomic_load_n(&Dist[S], __ATOMIC_RELAXED) +
        G->edgeWeight()[static_cast<std::size_t>(E)];
    if (!simd::atomicMinGlobal(&Dist[D], Cand))
      return false;
    return __atomic_exchange_n(&RoundMark[D], Round, __ATOMIC_RELAXED) !=
           Round;
  }
  bool update(NodeId S, NodeId D, EdgeId E) { return updateAtomic(S, D, E); }
  bool cond(NodeId) const { return true; }
};

/// Label propagation functor, same dedupe trick as SSSP.
struct CcF {
  std::int32_t *Comp;
  std::int32_t *RoundMark;
  std::int32_t Round;

  bool updateAtomic(NodeId S, NodeId D, EdgeId) {
    std::int32_t Label = __atomic_load_n(&Comp[S], __ATOMIC_RELAXED);
    if (!simd::atomicMinGlobal(&Comp[D], Label))
      return false;
    return __atomic_exchange_n(&RoundMark[D], Round, __ATOMIC_RELAXED) !=
           Round;
  }
  bool update(NodeId S, NodeId D, EdgeId E) { return updateAtomic(S, D, E); }
  bool cond(NodeId) const { return true; }
};

} // namespace

std::vector<std::int32_t> egacs::ligra::ligraBfs(const LigraContext &Ctx,
                                                 const Csr &G,
                                                 NodeId Source) {
  std::vector<std::int32_t> Dist(static_cast<std::size_t>(G.numNodes()),
                                 InfDist);
  if (G.numNodes() == 0)
    return Dist;
  Dist[static_cast<std::size_t>(Source)] = 0;
  VertexSubset Frontier(G.numNodes(), Source);
  std::int32_t Level = 0;
  while (!Frontier.empty()) {
    BfsF F{Dist.data(), Level + 1};
    // Symmetric graphs: the transpose equals the graph itself.
    Frontier = edgeMap(Ctx, G, G, Frontier, F);
    ++Level;
  }
  return Dist;
}

std::vector<std::int32_t> egacs::ligra::ligraSssp(const LigraContext &Ctx,
                                                  const Csr &G,
                                                  NodeId Source) {
  assert(G.hasWeights() && "sssp needs edge weights");
  std::vector<std::int32_t> Dist(static_cast<std::size_t>(G.numNodes()),
                                 InfDist);
  if (G.numNodes() == 0)
    return Dist;
  Dist[static_cast<std::size_t>(Source)] = 0;
  std::vector<std::int32_t> RoundMark(static_cast<std::size_t>(G.numNodes()),
                                      -1);
  VertexSubset Frontier(G.numNodes(), Source);
  std::int32_t Round = 0;
  while (!Frontier.empty()) {
    SsspF F{&G, Dist.data(), RoundMark.data(), Round};
    Frontier = edgeMap(Ctx, G, G, Frontier, F);
    ++Round;
  }
  return Dist;
}

std::vector<std::int32_t> egacs::ligra::ligraCc(const LigraContext &Ctx,
                                                const Csr &G) {
  std::vector<std::int32_t> Comp(static_cast<std::size_t>(G.numNodes()));
  for (NodeId I = 0; I < G.numNodes(); ++I)
    Comp[static_cast<std::size_t>(I)] = I;
  std::vector<std::int32_t> RoundMark(static_cast<std::size_t>(G.numNodes()),
                                      -1);
  VertexSubset Frontier = allVertices(G.numNodes());
  std::int32_t Round = 0;
  while (!Frontier.empty()) {
    CcF F{Comp.data(), RoundMark.data(), Round};
    Frontier = edgeMap(Ctx, G, G, Frontier, F);
    ++Round;
  }
  return Comp;
}

std::vector<float> egacs::ligra::ligraPr(const LigraContext &Ctx,
                                         const Csr &G, float Damping,
                                         float Tolerance, int MaxRounds) {
  NodeId N = G.numNodes();
  std::vector<float> Rank(static_cast<std::size_t>(N),
                          N > 0 ? 1.0f / static_cast<float>(N) : 0.0f);
  if (N == 0)
    return Rank;
  std::vector<float> Contrib(static_cast<std::size_t>(N), 0.0f);
  const float Base = (1.0f - Damping) / static_cast<float>(N);

  for (int Round = 0; Round < MaxRounds; ++Round) {
    parallelForBlocked(*Ctx.TS, Ctx.NumTasks, N,
                       [&](std::int64_t Begin, std::int64_t End, int) {
                         for (std::int64_t U = Begin; U < End; ++U) {
                           EdgeId Deg = G.degree(static_cast<NodeId>(U));
                           Contrib[static_cast<std::size_t>(U)] =
                               Deg > 0 ? Rank[static_cast<std::size_t>(U)] /
                                             static_cast<float>(Deg)
                                       : 0.0f;
                         }
                       });
    // Dense pull: symmetric graphs make in-edges == out-edges.
    std::vector<float> TaskMax(static_cast<std::size_t>(Ctx.NumTasks), 0.0f);
    parallelForBlocked(
        *Ctx.TS, Ctx.NumTasks, N,
        [&](std::int64_t Begin, std::int64_t End, int TaskIdx) {
          float LocalMax = 0.0f;
          for (std::int64_t D = Begin; D < End; ++D) {
            float Sum = 0.0f;
            for (EdgeId E = G.rowStart()[D]; E < G.rowStart()[D + 1]; ++E)
              Sum += Contrib[static_cast<std::size_t>(
                  G.edgeDst()[static_cast<std::size_t>(E)])];
            float New = Base + Damping * Sum;
            LocalMax = std::max(
                LocalMax,
                std::fabs(New - Rank[static_cast<std::size_t>(D)]));
            Rank[static_cast<std::size_t>(D)] = New;
          }
          TaskMax[static_cast<std::size_t>(TaskIdx)] = LocalMax;
        });
    float MaxDiff = 0.0f;
    for (float M : TaskMax)
      MaxDiff = std::max(MaxDiff, M);
    if (MaxDiff <= Tolerance)
      break;
  }
  return Rank;
}

std::vector<std::int32_t> egacs::ligra::ligraMis(const LigraContext &Ctx,
                                                 const Csr &G,
                                                 std::uint64_t Seed) {
  NodeId N = G.numNodes();
  std::vector<std::int32_t> State(static_cast<std::size_t>(N), MisUndecided);
  if (N == 0)
    return State;
  std::vector<std::int32_t> Prio(static_cast<std::size_t>(N));
  for (NodeId I = 0; I < N; ++I)
    Prio[static_cast<std::size_t>(I)] = static_cast<std::int32_t>(
        hashMix64(Seed ^ static_cast<std::uint64_t>(I)) & 0x7fffffff);

  auto Beats = [&](NodeId A, NodeId B) {
    return Prio[static_cast<std::size_t>(A)] >
               Prio[static_cast<std::size_t>(B)] ||
           (Prio[static_cast<std::size_t>(A)] ==
                Prio[static_cast<std::size_t>(B)] &&
            A > B);
  };

  VertexSubset Undecided = allVertices(N);
  while (!Undecided.empty()) {
    // A node joins when it beats every not-yet-excluded neighbour. Treating
    // freshly joined (MisIn) neighbours as blockers too keeps the phase
    // race-free: if V joined concurrently, V beats U, so U must wait.
    // Neighbour states are read while their owners write them, so both
    // phases use relaxed atomic accesses (plain movs on x86).
    vertexMap(Ctx, Undecided, [&](NodeId U) {
      for (NodeId V : G.neighbors(U)) {
        if (V == U)
          continue;
        if (simd::atomicLoadGlobal(&State[static_cast<std::size_t>(V)]) !=
                MisOut &&
            Beats(V, U))
          return;
      }
      simd::atomicStoreGlobal(&State[static_cast<std::size_t>(U)], MisIn);
    });
    // Exclude neighbours of new members.
    vertexMap(Ctx, Undecided, [&](NodeId U) {
      if (State[static_cast<std::size_t>(U)] != MisUndecided)
        return;
      for (NodeId V : G.neighbors(U)) {
        if (simd::atomicLoadGlobal(&State[static_cast<std::size_t>(V)]) ==
            MisIn) {
          simd::atomicStoreGlobal(&State[static_cast<std::size_t>(U)], MisOut);
          return;
        }
      }
    });
    Undecided = vertexFilter(Ctx, Undecided, [&](NodeId U) {
      return State[static_cast<std::size_t>(U)] == MisUndecided;
    });
  }
  return State;
}
