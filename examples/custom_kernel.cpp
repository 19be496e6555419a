//===- examples/custom_kernel.cpp - Writing your own SPMD kernel ----------===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
// How a downstream user adds an algorithm on the public SPMD API: a k-core
// decomposition (repeatedly peel nodes of degree < k) written directly
// against the varying-value operators, worklists with Cooperative
// Conversion, and the Pipe driver with Iteration Outlining. Verified
// against a simple serial implementation.
//
//   $ ./custom_kernel [--scale=N] [--k=K]
//
//===----------------------------------------------------------------------===//

#include "graph/Generators.h"
#include "engine/Engine.h"
#include "simd/Targets.h"
#include "support/Options.h"

#include <cstdio>
#include <numeric>
#include <vector>

using namespace egacs;
using namespace egacs::simd;

namespace {

/// SPMD k-core: peel nodes whose remaining degree is below K until a fixed
/// point; nodes surviving with RemDeg >= K form the k-core.
///
/// The kernel demonstrates the core idioms:
///  * vertex vectors with tail masks (forEachWorklistSlice, unstaged by
///    the inactive prefetch plan NoPrefetch);
///  * per-lane edge iteration (plainForEachEdge) with gathers;
///  * vector atomics (atomicAddVector) and aggregated pushes (pushCoop);
///  * the outlined Pipe loop (runPipe): it takes round 0's frontier, and
///    the advance step returns the next round's frontier, or nullopt to
///    stop. runPipe hands each round's frontier to an attached trace, so
///    the kernel reports nothing itself.
template <typename BK>
std::vector<std::int32_t> kCore(const Csr &G, const KernelConfig &Cfg,
                                std::int32_t K) {
  NodeId N = G.numNodes();
  std::vector<std::int32_t> RemDeg(static_cast<std::size_t>(N));
  for (NodeId I = 0; I < N; ++I)
    RemDeg[static_cast<std::size_t>(I)] = G.degree(I);
  // 0 = alive, 1 = peeled.
  std::vector<std::int32_t> Peeled(static_cast<std::size_t>(N), 0);

  WorklistPair WL(static_cast<std::size_t>(N) + 64);
  for (NodeId I = 0; I < N; ++I)
    if (RemDeg[static_cast<std::size_t>(I)] < K)
      WL.in().pushSerial(I);
  auto Locals = makeTaskLocals(Cfg);
  // Shared work distributor: each task starts on its Listing 1 block and
  // idle tasks steal its untouched chunks.
  auto Sched = makeLoopScheduler(Cfg, N + 64);

  runPipe(
      Cfg, {WL.in().size(), "push"},
      TaskFn([&](int TaskIdx, int TaskCount) {
        TaskLocal &TL = *Locals[TaskIdx];
        auto OnEdge = [&](VInt<BK>, VInt<BK> Dst, VInt<BK>,
                          VMask<BK> EAct) {
          // Decrement the neighbour's remaining degree; neighbours that
          // drop below K for the first time are peeled next round.
          VInt<BK> Old =
              atomicAddVector<BK>(RemDeg.data(), Dst, splat<BK>(-1), EAct);
          VMask<BK> NowBelow = EAct & (Old == splat<BK>(K));
          if (any(NowBelow))
            pushFrontier<BK>(Cfg, WL.out(), nullptr, Dst, NowBelow);
        };
        forEachWorklistSlice<BK>(
            Cfg, G, *Sched, WL.in().items(), WL.in().size(), TaskIdx,
            TaskCount, NoPrefetch, TL.Pf, [&](VInt<BK> Node, VMask<BK> Act) {
              // Peel each node once (it enters the list exactly once).
              scatter<BK>(Peeled.data(), Node, splat<BK>(1), Act);
              visitEdges<BK>(Cfg, G, Node, Act, TL.Np, OnEdge);
            });
        flushEdges<BK>(Cfg, G, TL.Np, OnEdge);
      }),
      [&]() -> NextRound {
        WL.swap();
        if (WL.in().empty())
          return std::nullopt;
        return RoundFrontier{WL.in().size(), "push"};
      });
  return Peeled;
}

/// Serial oracle for verification.
std::vector<std::int32_t> kCoreRef(const Csr &G, std::int32_t K) {
  NodeId N = G.numNodes();
  std::vector<std::int32_t> Deg(static_cast<std::size_t>(N));
  for (NodeId I = 0; I < N; ++I)
    Deg[static_cast<std::size_t>(I)] = G.degree(I);
  std::vector<std::int32_t> Peeled(static_cast<std::size_t>(N), 0);
  std::vector<NodeId> Stack;
  for (NodeId I = 0; I < N; ++I)
    if (Deg[static_cast<std::size_t>(I)] < K)
      Stack.push_back(I);
  while (!Stack.empty()) {
    NodeId U = Stack.back();
    Stack.pop_back();
    if (Peeled[static_cast<std::size_t>(U)])
      continue;
    Peeled[static_cast<std::size_t>(U)] = 1;
    for (NodeId V : G.neighbors(U))
      if (!Peeled[static_cast<std::size_t>(V)] &&
          --Deg[static_cast<std::size_t>(V)] == K - 1)
        Stack.push_back(V);
  }
  return Peeled;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts(Argc, Argv);
  int Scale = static_cast<int>(Opts.getInt("scale", 3));
  std::int32_t K = static_cast<std::int32_t>(Opts.getInt("k", 5));

  Csr G = namedGraph("rmat", Scale);
  std::printf("graph: %d nodes, %d arcs; computing the %d-core\n",
              G.numNodes(), G.numEdges(), K);

  ThreadPoolTaskSystem Pool(4);
  KernelConfig Cfg = KernelConfig::allOptimizations(Pool, 4);
  TargetKind Target = targetSupported(TargetKind::Avx512x16)
                          ? TargetKind::Avx512x16
                      : targetSupported(TargetKind::Avx2x8)
                          ? TargetKind::Avx2x8
                          : TargetKind::Scalar8;

  std::vector<std::int32_t> Peeled = dispatchTarget(
      Target, [&]<typename BK>() { return kCore<BK>(G, Cfg, K); });
  std::vector<std::int32_t> Ref = kCoreRef(G, K);

  std::int64_t CoreSize = 0;
  for (std::int32_t P : Peeled)
    CoreSize += P == 0;
  bool Ok = Peeled == Ref;
  std::printf("%d-core size: %lld nodes (%.1f%%); verification: %s\n", K,
              static_cast<long long>(CoreSize),
              100.0 * static_cast<double>(CoreSize) / G.numNodes(),
              Ok ? "PASS" : "FAIL");
  return Ok ? 0 : 1;
}
