//===- engine/KernelConfig.h - Kernel execution configuration --*- C++ -*-===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The knobs every EGACS kernel honours, mirroring the optimization axes of
/// the paper's evaluation: Iteration Outlining (IO), Nested Parallelism
/// (NP), task-level Cooperative Conversion (CC), and Fibers (which also
/// enables fiber-level CC in the BFS-CX/BFS-HB kernels). Fig 5's
/// configurations are specific combinations of these flags; Fig 6's
/// "+MT"/"+SIMD" axes come from NumTasks and the backend choice.
///
//===----------------------------------------------------------------------===//

#ifndef EGACS_ENGINE_KERNELCONFIG_H
#define EGACS_ENGINE_KERNELCONFIG_H

#include "graph/GraphView.h"
#include "runtime/TaskSystem.h"
#include "sched/Prefetch.h"
#include "sched/UpdateEngine.h"
#include "sched/WorkStealing.h"

#include <cstdint>

namespace egacs {

namespace trace {
class TraceSession;
} // namespace trace

/// Traversal direction for the frontier-driven kernels (bfs-hb, bfs-wl,
/// cc, pr). Push is the paper's topology/worklist push style; Pull drives
/// every round from the transposed graph (destinations gather in-neighbors
/// against a bitmap frontier, early-exiting on first hit); Hybrid switches
/// per round with the Beamer alpha/beta heuristic. Kernels without a
/// frontier ignore the knob.
enum class Direction {
  Push,
  Pull,
  Hybrid,
};

/// Returns the harness name of \p D ("push", "pull", "hybrid").
const char *directionName(Direction D);

/// Parses a --direction= value; prints the valid set and exits 2 on an
/// unknown name (command-line parsing helper, mirroring parseLayoutKind).
Direction parseDirection(const std::string &Name);

/// Optimization and execution configuration for one kernel run.
struct KernelConfig {
  /// Task system that executes SPMD tasks (non-owning). Required.
  TaskSystem *TS = nullptr;
  /// Number of ISPC-style tasks to launch. With Iteration Outlining this
  /// must not exceed TS->concurrency() (tasks barrier-sync inside one
  /// launch).
  int NumTasks = 1;

  /// Iteration Outlining: run the iterative Pipe inside one task launch,
  /// replacing per-iteration launches with barriers (paper III-A).
  bool IterationOutlining = true;
  /// Nested Parallelism: inspector-executor edge redistribution (III-B2).
  bool NestedParallelism = true;
  /// Task-level Cooperative Conversion of worklist pushes (III-C).
  bool CoopConversion = true;
  /// Fibers: thread-block emulation; enables fiber-level CC where the
  /// kernel supports it (III-B1).
  bool Fibers = true;

  /// SSSP near-far bucket width (input-specific, like the paper's DELTA).
  std::int32_t Delta = 8192;
  /// PageRank damping factor and convergence tolerance.
  float PrDamping = 0.85f;
  float PrTolerance = 1e-4f;
  /// Hard iteration cap for iterative kernels (safety net).
  int MaxIterations = 1 << 20;

  // --- Work distribution (inter-task load balance) -----------------------
  /// Granularity (vertices/edges/items) at which each task's Listing 1
  /// block is split into stealable chunks (sched/WorkStealing.h).
  std::int64_t ChunkSize = 1024;
  /// Record per-task busy time and per-episode critical path into the
  /// Sched* counters (small per-episode clock_gettime overhead).
  bool SchedInstrument = false;

  // --- Update engine (contention of irregular scatters) ------------------
  /// How the scatter-heavy kernels issue their irregular read-modify-write
  /// updates: per-lane hardware Atomics (baseline), in-vector conflict
  /// Combining, or Privatized per-task accumulators (sched/UpdateEngine.h).
  /// Atomic keeps the exact pre-engine code path.
  UpdatePolicy Update = UpdatePolicy::Atomic;

  // --- Prefetch pipeline (latency hiding for the irregular gathers) ------
  /// What the staged vertex loops prefetch ahead of the execute stage
  /// (sched/Prefetch.h): nothing (the exact pre-pipeline loops), row_ptr +
  /// neighbor-slot lines, or those plus the kernel's hot property arrays.
  PrefetchPolicy Prefetch = PrefetchPolicy::None;
  /// Lookahead of the row inspect stage, in vectors; the edge stage trails
  /// at half this distance. <= 0 inspects just before executing.
  int PrefetchDist = 8;

  // --- Graph layout (storage the SIMD loops consume) ---------------------
  /// Which GraphView the runtime-dispatch entry points build when handed a
  /// bare Csr: plain CSR (the paper's layout) or SELL-C-sigma slices.
  /// Statically typed call sites pass their view directly and ignore this.
  LayoutKind Layout = LayoutKind::Csr;
  /// SELL-C-sigma sorting window in nodes (the sigma knob of the layout
  /// ablation); C itself follows the execution target's SIMD width.
  std::int32_t SellSigma = 1 << 12;

  // --- Ablation knobs (defaults match the paper's choices) ---------------
  /// Cap on the dynamic fiber-count formula (paper: 256, set empirically).
  int MaxFibersPerTask = 256;
  /// Capacity of the NP fine-grained staging buffer, in (src, edge) pairs.
  int NpBufferCapacity = 4096;
  /// bfs-hb goes dense when |frontier| > numNodes / HybridDenominator.
  int HybridDenominator = 20;
  /// Traversal direction for the frontier kernels. Push keeps the exact
  /// legacy code paths (and their Fig-7 operation counts); Pull forces
  /// transposed-graph rounds; Hybrid switches per round on the Beamer
  /// alpha/beta heuristic below, generalizing HybridDenominator.
  Direction Dir = Direction::Push;
  /// Hybrid goes pull when frontier out-edges > unexplored edges / AlphaNum
  /// (Beamer's alpha; GAPBS default 15).
  int AlphaNum = 15;
  /// Hybrid returns to push when |frontier| < numNodes / BetaDenom
  /// (Beamer's beta; GAPBS default 18).
  int BetaDenom = 18;

  // --- Observability ------------------------------------------------------
  /// Tracing session recording per-round and per-operator spans for this
  /// run (non-owning; null = not traced). Only consulted in EGACS_TRACE
  /// builds — the instrumentation compiles away otherwise.
  trace::TraceSession *Trace = nullptr;

  /// Named optimization bundles matching the paper's Fig 5 series.
  static KernelConfig unoptimized(TaskSystem &TS, int NumTasks) {
    KernelConfig Cfg;
    Cfg.TS = &TS;
    Cfg.NumTasks = NumTasks;
    Cfg.IterationOutlining = false;
    Cfg.NestedParallelism = false;
    Cfg.CoopConversion = false;
    Cfg.Fibers = false;
    return Cfg;
  }

  static KernelConfig allOptimizations(TaskSystem &TS, int NumTasks) {
    KernelConfig Cfg;
    Cfg.TS = &TS;
    Cfg.NumTasks = NumTasks;
    return Cfg;
  }
};

} // namespace egacs

#endif // EGACS_ENGINE_KERNELCONFIG_H
