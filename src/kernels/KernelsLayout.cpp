//===- kernels/KernelsLayout.cpp - SELL instantiation, AnyLayout dispatch -===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The explicit runKernelView instantiation for SellView and the runtime
/// AnyLayout dispatcher. A separate TU from Kernels.cpp so the 10-kernel x
/// all-targets template expansion of each layout compiles in parallel. The
/// dispatcher's CsrView arm links against the instantiation in Kernels.cpp;
/// the extern declaration below keeps this TU from compiling it again.
///
//===----------------------------------------------------------------------===//

#include "engine/KernelTable.h"

using namespace egacs;

extern template KernelOutput egacs::runKernelView<CsrView>(
    KernelKind, simd::TargetKind, const CsrView &, const KernelConfig &,
    NodeId, const CsrView *);

template KernelOutput egacs::runKernelView<SellView>(KernelKind,
                                                     simd::TargetKind,
                                                     const SellView &,
                                                     const KernelConfig &,
                                                     NodeId, const SellView *);

KernelOutput egacs::runKernel(KernelKind Kind, simd::TargetKind Target,
                              const AnyLayout &L, const KernelConfig &Cfg,
                              NodeId Source) {
  if (Cfg.Dir != Direction::Push && kernelUsesDirection(Kind) &&
      !L.hasTranspose()) {
    // The caller asked for a pull-capable direction but prebuilt the layout
    // without a transpose: rebuild one here with the options recovered from
    // the forward views so the shapes match. Callers that care about the
    // build cost call buildTranspose (or the loader cache) up front.
    LayoutOptions Opts;
    if (const SellView *S = L.sell()) {
      Opts.SellChunk = S->chunkWidth();
      Opts.SellSigma = S->sigma();
    }
    AnyLayout WithT = AnyLayout::build(L.kind(), L.csr(), Opts);
    WithT.buildTranspose(Opts);
    return runKernel(Kind, Target, WithT, Cfg, Source);
  }
  return L.visitWithTranspose([&](const auto &View, const auto *TV) {
    return runKernelView(Kind, Target, View, Cfg, Source, TV);
  });
}
