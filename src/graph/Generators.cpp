//===- graph/Generators.cpp - Synthetic input graphs ----------------------===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
//===----------------------------------------------------------------------===//

#include "graph/Generators.h"

#include "support/Rng.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <limits>

using namespace egacs;

namespace {

/// Rejects a generator request up front when its worst-case arc count
/// (after symmetrization) cannot be indexed by the 32-bit EdgeId, before
/// any edge is materialized. buildCsr would catch the overflow too, but
/// only after allocating the full raw edge list.
void checkGeneratorSize(const char *Generator, std::int64_t NumNodes,
                        std::uint64_t RequestedArcs) {
  char Msg[256];
  if (NumNodes > std::numeric_limits<NodeId>::max()) {
    std::snprintf(Msg, sizeof(Msg),
                  "%s: %lld nodes exceed the 32-bit NodeId space; lower the "
                  "scale",
                  Generator, static_cast<long long>(NumNodes));
    throw GraphSizeError(Msg);
  }
  // Symmetrization at most doubles the requested arcs.
  if (!csrEdgeCountValid(static_cast<std::size_t>(RequestedArcs) * 2)) {
    std::snprintf(Msg, sizeof(Msg),
                  "%s: %llu requested arcs (up to %llu after symmetrization) "
                  "exceed the 32-bit EdgeId index space; lower the scale or "
                  "edge factor",
                  Generator, static_cast<unsigned long long>(RequestedArcs),
                  static_cast<unsigned long long>(RequestedArcs * 2));
    throw GraphSizeError(Msg);
  }
}

} // namespace

Csr egacs::roadGraph(int Width, int Height, double DiagonalFraction,
                     std::uint64_t Seed) {
  assert(Width > 0 && Height > 0 && "grid must be non-empty");
  checkGeneratorSize("roadGraph",
                     static_cast<std::int64_t>(Width) * Height,
                     static_cast<std::uint64_t>(Width) * Height * 3);
  Xoshiro256 Rng(Seed);
  NodeId NumNodes = static_cast<NodeId>(Width) * Height;
  std::vector<RawEdge> Edges;
  Edges.reserve(static_cast<std::size_t>(NumNodes) * 2 + 16);

  auto Id = [Width](int X, int Y) {
    return static_cast<NodeId>(Y) * Width + X;
  };
  auto RoadWeight = [&Rng] {
    return static_cast<Weight>(1 + Rng.nextBounded(1000));
  };

  for (int Y = 0; Y < Height; ++Y) {
    for (int X = 0; X < Width; ++X) {
      if (X + 1 < Width)
        Edges.push_back({Id(X, Y), Id(X + 1, Y), RoadWeight()});
      if (Y + 1 < Height)
        Edges.push_back({Id(X, Y), Id(X, Y + 1), RoadWeight()});
      // Occasional diagonal "shortcut" roads keep the degree distribution
      // from being perfectly regular, like real road networks.
      if (X + 1 < Width && Y + 1 < Height &&
          Rng.nextDouble() < DiagonalFraction)
        Edges.push_back({Id(X, Y), Id(X + 1, Y + 1), RoadWeight()});
    }
  }
  BuildOptions Opts;
  Opts.Symmetrize = true;
  return buildCsr(NumNodes, std::move(Edges), Opts);
}

Csr egacs::rmatGraph(int Scale, int EdgeFactor, std::uint64_t Seed, double A,
                     double B, double C) {
  assert(Scale >= 1 && Scale < 31 && "unsupported RMAT scale");
  Xoshiro256 Rng(Seed);
  NodeId NumNodes = static_cast<NodeId>(1) << Scale;
  std::int64_t NumArcs = static_cast<std::int64_t>(EdgeFactor) * NumNodes;
  checkGeneratorSize("rmatGraph", NumNodes,
                     static_cast<std::uint64_t>(NumArcs));
  std::vector<RawEdge> Edges;
  Edges.reserve(static_cast<std::size_t>(NumArcs));

  for (std::int64_t I = 0; I < NumArcs; ++I) {
    NodeId Src = 0, Dst = 0;
    for (int Bit = 0; Bit < Scale; ++Bit) {
      double R = Rng.nextDouble();
      // Quadrant selection with slight parameter noise, as in Graph500, to
      // avoid exactly self-similar artifacts.
      double An = A * (0.95 + 0.1 * Rng.nextDouble());
      double Bn = B * (0.95 + 0.1 * Rng.nextDouble());
      double Cn = C * (0.95 + 0.1 * Rng.nextDouble());
      double Norm = An + Bn + Cn +
                    (1.0 - A - B - C) * (0.95 + 0.1 * Rng.nextDouble());
      R *= Norm;
      if (R < An) {
        // top-left: no bits set
      } else if (R < An + Bn) {
        Dst |= 1 << Bit;
      } else if (R < An + Bn + Cn) {
        Src |= 1 << Bit;
      } else {
        Src |= 1 << Bit;
        Dst |= 1 << Bit;
      }
    }
    Edges.push_back(
        {Src, Dst, static_cast<Weight>(1 + Rng.nextBounded(255))});
  }
  BuildOptions Opts;
  Opts.Symmetrize = true;
  Opts.DropSelfLoops = true;
  Opts.Dedupe = true;
  return buildCsr(NumNodes, std::move(Edges), Opts);
}

Csr egacs::uniformRandomGraph(NodeId NumNodes, int Degree,
                              std::uint64_t Seed) {
  assert(NumNodes > 1 && "graph must have at least two nodes");
  Xoshiro256 Rng(Seed);
  std::int64_t NumArcs = static_cast<std::int64_t>(Degree) * NumNodes;
  checkGeneratorSize("uniformRandomGraph", NumNodes,
                     static_cast<std::uint64_t>(NumArcs));
  std::vector<RawEdge> Edges;
  Edges.reserve(static_cast<std::size_t>(NumArcs));
  for (std::int64_t I = 0; I < NumArcs; ++I) {
    NodeId Src = static_cast<NodeId>(Rng.nextBounded(NumNodes));
    NodeId Dst = static_cast<NodeId>(Rng.nextBounded(NumNodes));
    Edges.push_back(
        {Src, Dst, static_cast<Weight>(1 + Rng.nextBounded(255))});
  }
  BuildOptions Opts;
  Opts.Symmetrize = true;
  Opts.DropSelfLoops = true;
  Opts.Dedupe = true;
  return buildCsr(NumNodes, std::move(Edges), Opts);
}

Csr egacs::pathGraph(NodeId NumNodes, bool Weighted) {
  std::vector<RawEdge> Edges;
  for (NodeId N = 0; N + 1 < NumNodes; ++N)
    Edges.push_back({N, N + 1, Weighted ? N + 1 : 1});
  BuildOptions Opts;
  Opts.Symmetrize = true;
  return buildCsr(NumNodes, std::move(Edges), Opts);
}

Csr egacs::cycleGraph(NodeId NumNodes) {
  std::vector<RawEdge> Edges;
  for (NodeId N = 0; N < NumNodes; ++N)
    Edges.push_back({N, static_cast<NodeId>((N + 1) % NumNodes), 1});
  BuildOptions Opts;
  Opts.Symmetrize = true;
  return buildCsr(NumNodes, std::move(Edges), Opts);
}

Csr egacs::starGraph(NodeId NumLeaves) {
  std::vector<RawEdge> Edges;
  for (NodeId N = 1; N <= NumLeaves; ++N)
    Edges.push_back({0, N, 1});
  BuildOptions Opts;
  Opts.Symmetrize = true;
  return buildCsr(NumLeaves + 1, std::move(Edges), Opts);
}

Csr egacs::completeGraph(NodeId NumNodes) {
  std::vector<RawEdge> Edges;
  for (NodeId S = 0; S < NumNodes; ++S)
    for (NodeId D = 0; D < NumNodes; ++D)
      if (S != D)
        Edges.push_back({S, D, 1});
  return buildCsr(NumNodes, std::move(Edges));
}

Csr egacs::shuffleNodeIds(const Csr &G, std::uint64_t Seed) {
  NodeId N = G.numNodes();
  std::vector<NodeId> Perm(static_cast<std::size_t>(N));
  for (NodeId I = 0; I < N; ++I)
    Perm[static_cast<std::size_t>(I)] = I;
  Xoshiro256 Rng(Seed);
  for (NodeId I = N - 1; I > 0; --I)
    std::swap(Perm[static_cast<std::size_t>(I)],
              Perm[Rng.nextBounded(static_cast<std::uint64_t>(I) + 1)]);

  std::vector<RawEdge> Edges;
  Edges.reserve(static_cast<std::size_t>(G.numEdges()));
  for (NodeId U = 0; U < N; ++U) {
    auto Neighbors = G.neighbors(U);
    for (std::size_t I = 0; I < Neighbors.size(); ++I) {
      Weight W = G.hasWeights() ? G.weights(U)[I] : 0;
      Edges.push_back({Perm[static_cast<std::size_t>(U)],
                       Perm[static_cast<std::size_t>(Neighbors[I])], W});
    }
  }
  return buildCsr(N, std::move(Edges));
}

Csr egacs::namedGraph(const std::string &Name, int Scale,
                      std::uint64_t Seed) {
  // Scale S roughly multiplies node count by 2^S over the smoke size.
  if (Name == "road") {
    int Side = 64 << (Scale / 2);
    int OtherSide = Scale % 2 ? Side * 2 : Side;
    return roadGraph(Side, OtherSide, 0.05, Seed);
  }
  if (Name == "rmat")
    return rmatGraph(12 + Scale, /*EdgeFactor=*/8, Seed);
  if (Name == "random")
    return uniformRandomGraph(static_cast<NodeId>(4096) << Scale,
                              /*Degree=*/4, Seed);
  assert(false && "unknown graph name (use road/rmat/random)");
  return pathGraph(2);
}

namespace {

/// Extracts all arcs of \p G as a rebuildable edge list.
std::vector<RawEdge> extractArcs(const Csr &G) {
  std::vector<RawEdge> Edges;
  Edges.reserve(static_cast<std::size_t>(G.numEdges()));
  for (NodeId U = 0; U < G.numNodes(); ++U) {
    auto Neighbors = G.neighbors(U);
    for (std::size_t I = 0; I < Neighbors.size(); ++I)
      Edges.push_back({U, Neighbors[I],
                       G.hasWeights() ? G.weights(U)[I] : 0});
  }
  return Edges;
}

} // namespace

Csr egacs::withSelfLoops(const Csr &G, NodeId Count, std::uint64_t Seed) {
  std::vector<RawEdge> Edges = extractArcs(G);
  if (G.numNodes() > 0) {
    Xoshiro256 Rng(Seed);
    Weight W = G.hasWeights() ? 1 : 0;
    for (NodeId I = 0; I < Count; ++I) {
      NodeId N = static_cast<NodeId>(
          Rng.nextBounded(static_cast<std::uint64_t>(G.numNodes())));
      Edges.push_back({N, N, W});
    }
  }
  return buildCsr(G.numNodes(), std::move(Edges));
}

Csr egacs::withDuplicateEdges(const Csr &G, NodeId Count,
                              std::uint64_t Seed) {
  std::vector<RawEdge> Edges = extractArcs(G);
  std::size_t Original = Edges.size();
  if (Original > 0) {
    Xoshiro256 Rng(Seed);
    for (NodeId I = 0; I < Count; ++I) {
      RawEdge E = Edges[Rng.nextBounded(Original)];
      Edges.push_back(E);
      // Duplicate the reverse arc too so symmetric graphs stay symmetric;
      // a self-loop is its own reverse and is added once.
      if (E.Src != E.Dst)
        Edges.push_back({E.Dst, E.Src, E.W});
    }
  }
  return buildCsr(G.numNodes(), std::move(Edges));
}

Csr egacs::withRandomWeights(const Csr &G, Weight MaxWeight,
                             std::uint64_t Seed) {
  assert(MaxWeight >= 1 && "weights must be positive");
  std::vector<RawEdge> Edges = extractArcs(G);
  for (RawEdge &E : Edges) {
    // Unordered-pair hash: both arcs of an undirected edge (and every
    // parallel copy) draw the same weight, keeping the graph symmetric.
    NodeId Lo = std::min(E.Src, E.Dst), Hi = std::max(E.Src, E.Dst);
    std::uint64_t Key = (static_cast<std::uint64_t>(
                             static_cast<std::uint32_t>(Lo))
                         << 32) |
                        static_cast<std::uint32_t>(Hi);
    E.W = static_cast<Weight>(
        1 + hashMix64(Seed ^ hashMix64(Key)) %
                static_cast<std::uint64_t>(MaxWeight));
  }
  return buildCsr(G.numNodes(), std::move(Edges));
}

Csr egacs::disconnectedUnion(const Csr &A, const Csr &B) {
  checkGeneratorSize("disconnectedUnion",
                     static_cast<std::int64_t>(A.numNodes()) + B.numNodes(),
                     static_cast<std::int64_t>(A.numEdges()) + B.numEdges());
  bool Weighted = A.hasWeights() || B.hasWeights();
  std::vector<RawEdge> Edges = extractArcs(A);
  NodeId Shift = A.numNodes();
  for (NodeId U = 0; U < B.numNodes(); ++U) {
    auto Neighbors = B.neighbors(U);
    for (std::size_t I = 0; I < Neighbors.size(); ++I)
      Edges.push_back({U + Shift, Neighbors[I] + Shift,
                       B.hasWeights() ? B.weights(U)[I] : 0});
  }
  if (Weighted)
    for (RawEdge &E : Edges)
      if (E.W == 0)
        E.W = 1;
  return buildCsr(A.numNodes() + B.numNodes(), std::move(Edges));
}
