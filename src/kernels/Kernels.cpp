//===- kernels/Kernels.cpp - Unified kernel entry points ------------------===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
//===----------------------------------------------------------------------===//

#include "kernels/Kernels.h"

#include "support/ParseEnum.h"
#include "engine/KernelTable.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>

using namespace egacs;
using namespace egacs::simd;

const char *egacs::directionName(Direction D) {
  switch (D) {
  case Direction::Push:
    return "push";
  case Direction::Pull:
    return "pull";
  case Direction::Hybrid:
    return "hybrid";
  }
  return "<invalid>";
}

Direction egacs::parseDirection(const std::string &Name) {
  if (Name == "push")
    return Direction::Push;
  if (Name == "pull")
    return Direction::Pull;
  if (Name == "hybrid")
    return Direction::Hybrid;
  parseEnumFail("direction", Name, "push|pull|hybrid");
}

const char *egacs::kernelName(KernelKind Kind) {
  switch (Kind) {
  case KernelKind::BfsWl:
    return "bfs-wl";
  case KernelKind::BfsCx:
    return "bfs-cx";
  case KernelKind::BfsTp:
    return "bfs-tp";
  case KernelKind::BfsHb:
    return "bfs-hb";
  case KernelKind::Cc:
    return "cc";
  case KernelKind::Tri:
    return "tri";
  case KernelKind::SsspNf:
    return "sssp";
  case KernelKind::Mis:
    return "mis";
  case KernelKind::Pr:
    return "pr";
  case KernelKind::Mst:
    return "mst";
  }
  assert(false && "invalid kernel kind");
  return "<invalid>";
}

KernelKind egacs::parseKernelKind(const std::string &Name) {
  for (KernelKind Kind : AllKernels)
    if (Name == kernelName(Kind))
      return Kind;
  std::string Valid;
  for (KernelKind Kind : AllKernels) {
    if (!Valid.empty())
      Valid += '|';
    Valid += kernelName(Kind);
  }
  parseEnumFail("kernel", Name, Valid);
}

bool egacs::kernelNeedsWeights(KernelKind Kind) {
  return Kind == KernelKind::SsspNf || Kind == KernelKind::Mst;
}

bool egacs::kernelNeedsSortedAdjacency(KernelKind Kind) {
  return Kind == KernelKind::Tri;
}

bool egacs::kernelUsesDirection(KernelKind Kind) {
  return Kind == KernelKind::BfsWl || Kind == KernelKind::BfsHb ||
         Kind == KernelKind::Cc || Kind == KernelKind::Pr;
}

// The CsrView (default-layout) instantiation lives here and only here
// (KernelsLayout.cpp declares it extern); SellView is instantiated in
// KernelsLayout.cpp to split compile time.
template KernelOutput egacs::runKernelView<CsrView>(KernelKind,
                                                    simd::TargetKind,
                                                    const CsrView &,
                                                    const KernelConfig &,
                                                    NodeId, const CsrView *);

KernelOutput egacs::runKernel(KernelKind Kind, TargetKind Target,
                              const Csr &G, const KernelConfig &Cfg,
                              NodeId Source) {
  bool WantsTranspose =
      Cfg.Dir != Direction::Push && kernelUsesDirection(Kind);
  if (Cfg.Layout != LayoutKind::Csr) {
    // Honour the runtime layout knob: build the requested view over the
    // bare CSR (the SELL chunk height follows the execution width) and
    // dispatch through it. The build cost is part of this call; harnesses
    // that want it outside the timed region prebuild an AnyLayout and use
    // the overload below.
    LayoutOptions Opts;
    Opts.SellChunk = simd::targetWidth(Target);
    Opts.SellSigma = Cfg.SellSigma;
    AnyLayout L = AnyLayout::build(Cfg.Layout, G, Opts);
    if (WantsTranspose)
      L.buildTranspose(Opts);
    return runKernel(Kind, Target, L, Cfg, Source);
  }
  if (WantsTranspose) {
    Csr T = G.transpose();
    CsrView TV(T);
    return runKernelView<CsrView>(Kind, Target, CsrView(G), Cfg, Source, &TV);
  }
  return runKernelView<CsrView>(Kind, Target, CsrView(G), Cfg, Source);
}
