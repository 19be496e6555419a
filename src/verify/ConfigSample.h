//===- verify/ConfigSample.h - Random kernel-config sampling ----*- C++ -*-===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic sampling of one kernel-execution point across the full
/// configuration cross-product the harness exposes: kernel x SIMD target x
/// task count x UpdatePolicy x LayoutKind x PrefetchPolicy x Direction,
/// plus the paper's IO/NP/CC/Fibers bundle flags and the numeric
/// ablation knobs (chunk size, prefetch distance, SELL sigma, delta, fiber
/// cap, NP buffer, hybrid thresholds, pr damping/tolerance).
///
/// Every sampled point serializes to a one-line `key=value,...` spec string
/// and parses back to the identical point, so a fuzz failure can be replayed
/// either by seed (re-deriving the sample) or by pasting the printed
/// `--config=` spec — both reproduce the run byte-for-byte.
///
/// Sampling guarantees legality by construction:
///  * only targetSupported() SIMD targets are drawn;
///  * the task-system choice is part of the sample (serial only at 1 task)
///    and the campaign sizes thread pools to NumTasks, satisfying the
///    Iteration Outlining barrier constraint (workers == tasks);
///  * (PrDamping, PrTolerance) pairs are coupled so the power iteration
///    provably converges inside the kernel's 50-round cap, keeping the
///    PageRank residual oracle sound.
///
//===----------------------------------------------------------------------===//

#ifndef EGACS_VERIFY_CONFIGSAMPLE_H
#define EGACS_VERIFY_CONFIGSAMPLE_H

#include "engine/KernelConfig.h"
#include "kernels/Kernels.h"
#include "simd/Backend.h"
#include "support/Rng.h"

#include <stdexcept>
#include <string>

namespace egacs::verify {

/// One sampled execution point. Cfg.TS is left null: the campaign owns the
/// task systems and attaches one sized to Cfg.NumTasks (serial when
/// SerialTs is set, which sampling only allows at NumTasks == 1).
struct SampledRun {
  KernelKind Kernel = KernelKind::BfsWl;
  simd::TargetKind Target = simd::TargetKind::Scalar1;
  bool SerialTs = false;
  KernelConfig Cfg;
};

/// Draws one execution point from \p Rng (uniform over kernels and the
/// supported-target subset; knob values from small adversarial palettes).
SampledRun sampleRun(Xoshiro256 &Rng);

/// Serializes \p R to the replayable one-line spec ("kernel=bfs-wl,
/// target=avx2-i32x8,tasks=4,ts=pool,chunk=256,..."). Floats use %.9g,
/// which round-trips binary32 exactly.
std::string configSpec(const SampledRun &R);

/// A config spec that does not parse; what() names the spec and the fault.
class ConfigSpecError : public std::invalid_argument {
public:
  using std::invalid_argument::invalid_argument;
};

/// Parses a spec produced by configSpec (or hand-edited). Keys may appear
/// in any order; omitted keys keep their defaults. Throws ConfigSpecError
/// on an unknown key or a malformed value, including an unknown enum value
/// (kernel, target, layout, ...), whose message lists the valid set.
SampledRun parseConfigSpec(const std::string &Spec);

/// Parses an ISPC-style target name ("avx2-i32x8"); prints the valid set
/// and exits 2 on an unknown name.
simd::TargetKind parseTargetKind(const std::string &Name);

} // namespace egacs::verify

#endif // EGACS_VERIFY_CONFIGSAMPLE_H
