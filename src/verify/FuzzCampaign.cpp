//===- verify/FuzzCampaign.cpp - Property-based kernel fuzzing ------------===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
//===----------------------------------------------------------------------===//

#include "verify/FuzzCampaign.h"

#include "graph/Generators.h"
#include "verify/Shrinker.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <queue>
#include <utility>

using namespace egacs;
using namespace egacs::verify;

//===----------------------------------------------------------------------===//
// Graph sampling
//===----------------------------------------------------------------------===//

namespace {

FuzzGraph sampleBaseShape(Xoshiro256 &Rng) {
  switch (Rng.nextBounded(12)) {
  case 0:
    return {buildCsr(0, {}), "empty"};
  case 1:
    return {buildCsr(1, {}), "vertex"};
  case 2:
    return {buildCsr(1, {{0, 0, 0}}), "loop-vertex"};
  case 3: {
    NodeId K = 2 + static_cast<NodeId>(Rng.nextBounded(8));
    return {buildCsr(K, {}), "isolated(" + std::to_string(K) + ")"};
  }
  case 4: {
    NodeId K = 2 + static_cast<NodeId>(Rng.nextBounded(63));
    return {pathGraph(K), "path(" + std::to_string(K) + ")"};
  }
  case 5: {
    NodeId K = 3 + static_cast<NodeId>(Rng.nextBounded(62));
    return {cycleGraph(K), "cycle(" + std::to_string(K) + ")"};
  }
  case 6: {
    NodeId K = 1 + static_cast<NodeId>(Rng.nextBounded(64));
    return {starGraph(K), "star(" + std::to_string(K) + ")"};
  }
  case 7: {
    NodeId K = 2 + static_cast<NodeId>(Rng.nextBounded(11));
    return {completeGraph(K), "complete(" + std::to_string(K) + ")"};
  }
  case 8: {
    NodeId K = 512 + static_cast<NodeId>(Rng.nextBounded(1536));
    return {pathGraph(K), "chain(" + std::to_string(K) + ")"};
  }
  case 9: {
    int W = 2 + static_cast<int>(Rng.nextBounded(14));
    int H = 2 + static_cast<int>(Rng.nextBounded(14));
    std::uint64_t S = Rng.next();
    return {roadGraph(W, H, 0.05, S), "road(" + std::to_string(W) + "x" +
                                          std::to_string(H) + ",seed=" +
                                          std::to_string(S) + ")"};
  }
  case 10: {
    int Scale = 4 + static_cast<int>(Rng.nextBounded(4));
    int Ef = 1 + static_cast<int>(Rng.nextBounded(7));
    std::uint64_t S = Rng.next();
    return {rmatGraph(Scale, Ef, S), "rmat(s=" + std::to_string(Scale) +
                                         ",ef=" + std::to_string(Ef) +
                                         ",seed=" + std::to_string(S) + ")"};
  }
  default: {
    NodeId N = 16 + static_cast<NodeId>(Rng.nextBounded(1008));
    int Deg = 1 + static_cast<int>(Rng.nextBounded(7));
    std::uint64_t S = Rng.next();
    return {uniformRandomGraph(N, Deg, S),
            "random(n=" + std::to_string(N) + ",d=" + std::to_string(Deg) +
                ",seed=" + std::to_string(S) + ")"};
  }
  }
}

/// Rebuilds \p G as the simple destination-sorted graph the tri kernel's
/// contract requires (dedupe keeps the smallest weight per arc, which is
/// direction-symmetric for pair-hashed weights, so symmetry survives).
Csr simplifySorted(const Csr &G) {
  std::vector<RawEdge> Edges;
  Edges.reserve(static_cast<std::size_t>(G.numEdges()));
  for (NodeId U = 0; U < G.numNodes(); ++U) {
    auto Neighbors = G.neighbors(U);
    for (std::size_t I = 0; I < Neighbors.size(); ++I)
      Edges.push_back({U, Neighbors[I],
                       G.hasWeights() ? G.weights(U)[I] : 0});
  }
  BuildOptions Opts;
  Opts.Dedupe = true;
  Opts.DropSelfLoops = true;
  return buildCsr(G.numNodes(), std::move(Edges), Opts).sortedByDestination();
}

} // namespace

FuzzGraph verify::sampleFuzzGraph(Xoshiro256 &Rng) {
  FuzzGraph FG;
  if (Rng.nextBounded(8) == 0) {
    FuzzGraph A = sampleBaseShape(Rng);
    FuzzGraph B = sampleBaseShape(Rng);
    FG.G = disconnectedUnion(A.G, B.G);
    FG.Desc = "union(" + A.Desc + "," + B.Desc + ")";
  } else {
    FG = sampleBaseShape(Rng);
  }

  if (FG.G.numNodes() > 0 && Rng.nextBounded(3) == 0) {
    NodeId K = 1 + static_cast<NodeId>(Rng.nextBounded(4));
    FG.G = withSelfLoops(FG.G, K, Rng.next());
    FG.Desc += "+selfloops(" + std::to_string(K) + ")";
  }
  if (FG.G.numEdges() > 0 && Rng.nextBounded(3) == 0) {
    NodeId K = 1 + static_cast<NodeId>(Rng.nextBounded(8));
    FG.G = withDuplicateEdges(FG.G, K, Rng.next());
    FG.Desc += "+dups(" + std::to_string(K) + ")";
  }
  if (FG.G.numNodes() > 1 && Rng.nextBounded(2) == 0) {
    FG.G = shuffleNodeIds(FG.G, Rng.next());
    FG.Desc += "+shuffle";
  }
  if (FG.G.numEdges() > 0 && Rng.nextBounded(4) == 0) {
    static constexpr Weight MaxWs[] = {1, 10, 1000};
    Weight MaxW = MaxWs[Rng.nextBounded(3)];
    FG.G = withRandomWeights(FG.G, MaxW, Rng.next());
    FG.Desc += "+w(" + std::to_string(MaxW) + ")";
  }
  return FG;
}

//===----------------------------------------------------------------------===//
// Fault injection (oracle/replay self-test)
//===----------------------------------------------------------------------===//

bool verify::injectFault(FaultKind Fault, KernelKind Kind, const Csr &G,
                         NodeId Source, KernelOutput &Out) {
  const NodeId N = G.numNodes();
  switch (Fault) {
  case FaultKind::None:
    return true;

  case FaultKind::BfsOffByOne: {
    // Any finite non-source label bumped one level violates no-relaxation.
    for (NodeId V = 0; V < N; ++V)
      if (V != Source && Out.IntData[static_cast<std::size_t>(V)] != InfDist) {
        ++Out.IntData[static_cast<std::size_t>(V)];
        return true;
      }
    return false;
  }

  case FaultKind::SsspParentCycle: {
    // Give one unreachable component internally consistent labels (its true
    // distances from a phantom source inside it). Every arc check passes;
    // only the tight-chain sweep from the real source can reject it.
    NodeId Phantom = -1;
    for (NodeId V = 0; V < N; ++V)
      if (Out.IntData[static_cast<std::size_t>(V)] == InfDist) {
        Phantom = V;
        break;
      }
    if (Phantom < 0)
      return false;
    using Entry = std::pair<std::int64_t, NodeId>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> Q;
    std::vector<std::int64_t> D(static_cast<std::size_t>(N), -1);
    D[static_cast<std::size_t>(Phantom)] = 0;
    Q.push({0, Phantom});
    while (!Q.empty()) {
      auto [Du, U] = Q.top();
      Q.pop();
      if (Du != D[static_cast<std::size_t>(U)])
        continue;
      auto Neighbors = G.neighbors(U);
      for (std::size_t I = 0; I < Neighbors.size(); ++I) {
        NodeId V = Neighbors[I];
        std::int64_t W =
            Kind == KernelKind::SsspNf && G.hasWeights()
                ? static_cast<std::int64_t>(G.weights(U)[I])
                : 1;
        if (D[static_cast<std::size_t>(V)] < 0 ||
            Du + W < D[static_cast<std::size_t>(V)]) {
          D[static_cast<std::size_t>(V)] = Du + W;
          Q.push({Du + W, V});
        }
      }
    }
    for (NodeId V = 0; V < N; ++V)
      if (D[static_cast<std::size_t>(V)] >= 0)
        Out.IntData[static_cast<std::size_t>(V)] =
            static_cast<std::int32_t>(D[static_cast<std::size_t>(V)]);
    return true;
  }

  case FaultKind::CcMergedLabels: {
    std::int32_t First = N > 0 ? Out.IntData[0] : 0;
    std::int32_t Other = -1;
    for (NodeId V = 0; V < N; ++V)
      if (Out.IntData[static_cast<std::size_t>(V)] != First) {
        Other = Out.IntData[static_cast<std::size_t>(V)];
        break;
      }
    if (Other < 0)
      return false;
    for (NodeId V = 0; V < N; ++V)
      if (Out.IntData[static_cast<std::size_t>(V)] == Other)
        Out.IntData[static_cast<std::size_t>(V)] = First;
    return true;
  }

  case FaultKind::MisNotMaximal: {
    for (NodeId V = 0; V < N; ++V)
      if (Out.IntData[static_cast<std::size_t>(V)] == MisIn) {
        Out.IntData[static_cast<std::size_t>(V)] = MisOut;
        return true;
      }
    return false;
  }

  case FaultKind::MstWrongWeight:
    ++Out.Scalar0;
    return true;

  case FaultKind::PrMassLeak:
    if (N == 0)
      return false;
    Out.FloatData[0] += 0.25f;
    return true;

  case FaultKind::TriWrongCount:
    ++Out.Scalar0;
    return true;
  }
  return false;
}

OracleResult verify::runChecked(const SampledRun &R, const Csr &G,
                                NodeId Source, FaultKind Fault) {
  KernelOutput Out = runKernel(R.Kernel, R.Target, G, R.Cfg, Source);
  injectFault(Fault, R.Kernel, G, Source, Out);
  return checkKernelOutput(R.Kernel, G, Source, Out, R.Cfg);
}

//===----------------------------------------------------------------------===//
// Campaign
//===----------------------------------------------------------------------===//

FuzzCampaign::FuzzCampaign(FuzzOptions O) : Opts(std::move(O)) {}

TaskSystem &FuzzCampaign::taskSystem(bool Serial, int NumTasks) {
  if (Serial)
    return SerialTs;
  auto &Slot = Pools[NumTasks];
  if (!Slot)
    Slot = std::make_unique<ThreadPoolTaskSystem>(NumTasks);
  return *Slot;
}

bool FuzzCampaign::runSeed(std::uint64_t Seed, FuzzFailure &Failure) {
  Xoshiro256 Rng(Seed);
  // Always sample first so the RNG stream (and thus the sampled graph) is
  // a function of the seed alone; --config then replaces the sampled point
  // without disturbing the graph.
  SampledRun Sampled = sampleRun(Rng);
  SampledRun R =
      Opts.ConfigOverride.empty() ? Sampled : parseConfigSpec(Opts.ConfigOverride);

  Csr Local;
  const Csr *Base = nullptr;
  std::string Desc;
  if (Opts.PinnedGraph) {
    Base = Opts.PinnedGraph;
    Desc = Opts.PinnedDesc.empty() ? "pinned" : Opts.PinnedDesc;
  } else if (!Opts.GraphOverride.empty()) {
    Local = namedGraph(Opts.GraphOverride, 0, Seed);
    Base = &Local;
    Desc = Opts.GraphOverride + "(seed=" + std::to_string(Seed) + ")";
  } else {
    FuzzGraph FG = sampleFuzzGraph(Rng);
    Local = std::move(FG.G);
    Base = &Local;
    Desc = std::move(FG.Desc);
  }

  // sssp/mst need weights; attach them off-stream (hash of the seed) so a
  // --config override changing the kernel cannot shift the graph sample.
  if (kernelNeedsWeights(R.Kernel) && !Base->hasWeights() &&
      Base->numEdges() > 0) {
    static constexpr Weight MaxWs[] = {1, 10, 1000};
    Weight MaxW = MaxWs[hashMix64(Seed ^ 0x77eeull) % 3];
    Local = withRandomWeights(*Base, MaxW, hashMix64(Seed ^ 0x5eedull));
    Base = &Local;
    Desc += "+w(" + std::to_string(MaxW) + ")";
  }

  const Csr *PreTri = Base;
  Csr TriLocal;
  if (kernelNeedsSortedAdjacency(R.Kernel)) {
    TriLocal = simplifySorted(*Base);
    Base = &TriLocal;
    Desc += "+simple";
  }

  NodeId Source =
      Base->numNodes() > 0
          ? static_cast<NodeId>(
                Rng.nextBounded(static_cast<std::uint64_t>(Base->numNodes())))
          : 0;

  R.Cfg.TS = &taskSystem(R.SerialTs, R.Cfg.NumTasks);
  R.Cfg.Trace = Opts.Trace;
  ++TotalKernelRuns;
  OracleResult Res = runChecked(R, *Base, Source);
  if (Res.Ok)
    return true;

  Failure.Seed = Seed;
  Failure.Spec = configSpec(R);
  Failure.Source = Source;
  Failure.GraphDesc = Desc + " [n=" + std::to_string(PreTri->numNodes()) +
                      ",e=" + std::to_string(PreTri->numEdges()) + "]";
  Failure.Reason = Res.Reason;
  Failure.Record = "--seed=" + std::to_string(Seed) +
                   " --config=" + Failure.Spec +
                   " # source=" + std::to_string(Source) + " graph=" +
                   Failure.GraphDesc + " reason=" + Failure.Reason;

  if (Opts.Shrink) {
    FailsFn Fails = [&](const Csr &Candidate) {
      const Csr *RunG = &Candidate;
      Csr Prep;
      if (kernelNeedsSortedAdjacency(R.Kernel)) {
        Prep = simplifySorted(Candidate);
        RunG = &Prep;
      }
      if (kernelNeedsWeights(R.Kernel) && RunG->numEdges() > 0 &&
          !RunG->hasWeights())
        return false;
      NodeId S = Candidate.numNodes() > 0
                     ? Source % Candidate.numNodes()
                     : 0;
      ++TotalKernelRuns;
      return !runChecked(R, *RunG, S).Ok;
    };
    Csr Min = shrinkGraph(*PreTri, Fails, Opts.ShrinkBudget);
    Failure.MinNodes = Min.numNodes();
    Failure.MinEdges = Min.numEdges();
    if (!Opts.ArtifactDir.empty()) {
      Failure.ReproPath =
          Opts.ArtifactDir + "/repro-seed" + std::to_string(Seed) + ".txt";
      if (!writeEdgeListFile(Min, Failure.ReproPath))
        Failure.ReproPath.clear();
    }
  }
  return false;
}

std::vector<FuzzFailure> FuzzCampaign::run(FuzzStats &Stats) {
  auto Start = std::chrono::steady_clock::now();
  auto Elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         Start)
        .count();
  };
  std::vector<FuzzFailure> Failures;
  for (int I = 0; I < Opts.NumSeeds; ++I) {
    if (Opts.TimeBudgetSec > 0 && Elapsed() >= Opts.TimeBudgetSec) {
      std::fprintf(stderr,
                   "fuzz: time budget (%.1fs) reached after %d/%d seeds\n",
                   Opts.TimeBudgetSec, I, Opts.NumSeeds);
      break;
    }
    std::uint64_t Seed = Opts.BaseSeed + static_cast<std::uint64_t>(I);
    if (Opts.Verbose)
      std::fprintf(stderr, "fuzz: seed %llu\n",
                   static_cast<unsigned long long>(Seed));
    FuzzFailure F;
    if (!runSeed(Seed, F))
      Failures.push_back(std::move(F));
    ++Stats.SeedsRun;
  }
  Stats.Failures = static_cast<int>(Failures.size());
  Stats.KernelRuns = TotalKernelRuns;
  Stats.Seconds = Elapsed();
  return Failures;
}
