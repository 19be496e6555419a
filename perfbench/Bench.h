//===- perfbench/Bench.h - Shared state of the benchmark driver -*- C++ -*-===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Types shared by the end-to-end pass (driver.cpp) and the per-layer pass
/// (Layers.cpp): the workload table, the prepared input, and the metric list
/// both passes print.
///
//===----------------------------------------------------------------------===//

#ifndef EGACS_PERFBENCH_BENCH_H
#define EGACS_PERFBENCH_BENCH_H

#include "engine/KernelConfig.h"
#include "graph/Csr.h"
#include "graph/GraphView.h"
#include "kernels/Kernels.h"
#include "runtime/TaskSystem.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace egacs::perfbench {

/// One benchmark workload: an input class plus the configuration every
/// kernel runs under.
struct Workload {
  const char *Name;
  const char *Graph; ///< namedGraph() name
  LayoutKind Layout;
  Direction Dir;
  UpdatePolicy Update;
  PrefetchPolicy Prefetch;
  std::vector<KernelKind> Kernels;
};

/// The workload's input, built once per set-up: the graph, its
/// destination-sorted copy (tri), the prebuilt layout with its transpose
/// (non-CSR workloads, which do not run tri), and how long each step took.
struct Input {
  Csr G;
  Csr GSorted;
  AnyLayout L; ///< over G; empty on CSR workloads
  NodeId Source = 0;
  double GenerateMs = 0;
  double SortMs = 0;
  double LayoutMs = 0;
  double TransposeMs = 0;
};

/// Everything one pass needs to run a workload's kernels.
struct Context {
  const Workload &W;
  simd::TargetKind Target;
  int Tasks;
  TaskSystem &TS;
  const Input &In;

  /// The workload's kernel configuration (untraced, uninstrumented).
  KernelConfig config() const;
  /// The graph \p Kind consumes, which its oracle must also see.
  const Csr &graphFor(KernelKind Kind) const;
  /// One runKernel call on the prebuilt input; never builds a layout.
  KernelOutput run(KernelKind Kind, const KernelConfig &Cfg) const;
  /// True when \p Out passes the kernel's semantic oracle; prints the
  /// oracle's reason to stderr otherwise.
  bool verify(KernelKind Kind, const KernelOutput &Out,
              const KernelConfig &Cfg) const;
};

/// A named measurement with its unit and the number of samples behind it.
struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
  std::size_t Samples = 1;
};
using MetricList = std::vector<Metric>;

/// Runs the traced, counted and micro-benchmark passes and appends every
/// per-layer metric. \p UntracedMs is each kernel's timed-phase median in
/// Ctx.W.Kernels order, \p VerifyMs each kernel's median oracle time.
/// Returns false when a layer-pass output failed its oracle or the trace
/// dropped records.
bool runLayerPass(const Context &Ctx, const std::vector<double> &UntracedMs,
                  const std::vector<double> &VerifyMs, MetricList &Out);

// --- Small helpers ----------------------------------------------------------

inline double nowSec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Wall milliseconds of one call of \p F.
template <typename Fn> double timeMs(Fn &&F) {
  double T0 = nowSec();
  F();
  return (nowSec() - T0) * 1e3;
}

/// Median of \p V (mean of the middle pair for even sizes); 0 when empty.
inline double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  std::size_t M = V.size() / 2;
  return V.size() % 2 ? V[M] : (V[M - 1] + V[M]) / 2;
}

/// \p Num / \p Den, or 0 for an empty denominator.
inline double ratio(double Num, double Den) { return Den == 0 ? 0 : Num / Den; }

} // namespace egacs::perfbench

#endif // EGACS_PERFBENCH_BENCH_H
