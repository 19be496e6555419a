//===- perfbench/Layers.cpp - Per-layer pass of the benchmark -------------===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
// Measures each layer from outside, through its public functions: the SIMD
// primitives and the runtime's launch and barrier on micro loops, the engine
// through a TraceSession attached to one run of each kernel, and the
// scheduler and worklist through the statistic counters of one counted run
// of each kernel. No end-to-end metric comes from here.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "runtime/Barrier.h"
#include "simd/Atomics.h"
#include "simd/Ops.h"
#include "simd/Targets.h"
#include "support/Stats.h"
#include "trace/Trace.h"

#include <climits>
#include <cstdio>

using namespace egacs;
using namespace egacs::perfbench;

namespace {

/// Repetitions of each micro loop; the median is reported.
constexpr int MicroPasses = 5;

/// Per-task span ring of the traced pass; a road bfs crosses ~760 rounds
/// with a few spans each, far below this.
constexpr std::size_t TraceRingSpans = 1u << 16;

/// Median over MicroPasses of \p Body's wall time, in ns per \p Ops, with
/// \p Reset run untimed before each pass.
template <typename ResetFn, typename BodyFn>
double microNs(std::int64_t Ops, ResetFn &&Reset, BodyFn &&Body) {
  std::vector<double> Ns;
  for (int P = 0; P < MicroPasses; ++P) {
    Reset();
    Ns.push_back(timeMs(Body) * 1e6 / static_cast<double>(Ops));
  }
  return median(Ns);
}

struct SimdTimes {
  double GatherNs, ScatterNs, CasMinNs, FaddNs, PackedStoreNs;
};

/// Times one vector operation of each SIMD primitive on one task, with the
/// lanes indexed by the graph's own arc-destination array.
struct ProbeSimd {
  const Csr &G;

  template <typename B> SimdTimes operator()() const {
    using namespace simd;
    const NodeId *Dst = G.edgeDst();
    const std::int64_t Vecs = G.numEdges() / B::Width;
    std::vector<std::int32_t> Prop(static_cast<std::size_t>(G.numNodes()));
    std::vector<float> PropF(Prop.size());
    std::vector<std::int32_t> Packed(static_cast<std::size_t>(G.numEdges()));
    const VMask<B> All = maskAll<B>();
    auto Idx = [&](std::int64_t V) { return simd::load<B>(Dst + V * B::Width); };
    auto NoReset = [] {};
    volatile std::int64_t Sink = 0;

    SimdTimes T{};
    T.GatherNs = microNs(Vecs, NoReset, [&] {
      VInt<B> Acc = splat<B>(0);
      for (std::int64_t V = 0; V < Vecs; ++V)
        Acc = Acc + gather<B>(Prop.data(), Idx(V), All);
      Sink = reduceAdd<B>(Acc, All);
    });
    T.ScatterNs = microNs(Vecs, NoReset, [&] {
      for (std::int64_t V = 0; V < Vecs; ++V)
        scatter<B>(Prop.data(), Idx(V), Idx(V), All);
    });
    // Every pass starts from "unreached", so the first lane per destination
    // wins its CAS and later ones lose, as in a relaxation round.
    T.CasMinNs = microNs(
        Vecs, [&] { std::fill(Prop.begin(), Prop.end(), INT_MAX); },
        [&] {
          for (std::int64_t V = 0; V < Vecs; ++V)
            atomicMinVector<B>(Prop.data(), Idx(V), Idx(V), All);
        });
    T.FaddNs = microNs(Vecs, NoReset, [&] {
      const VFloat<B> One = splatF<B>(1.0f);
      for (std::int64_t V = 0; V < Vecs; ++V)
        atomicAddVectorF<B>(PropF.data(), Idx(V), One, All);
    });
    T.PackedStoreNs = microNs(Vecs, NoReset, [&] {
      const VInt<B> One = splat<B>(1), Zero = splat<B>(0);
      std::int64_t Pos = 0;
      for (std::int64_t V = 0; V < Vecs; ++V) {
        VInt<B> I = Idx(V);
        Pos += packedStoreActive<B>(Packed.data() + Pos, I, (I & One) == Zero);
      }
      Sink = Pos;
    });
    (void)Sink;
    return T;
  }
};

/// Adds a ratio metric and prints it with its numerator and denominator.
void addRatio(MetricList &Out, const std::string &Name, double Num,
              double Den) {
  std::printf("  ratio %-32s = %.0f / %.0f\n", Name.c_str(), Num, Den);
  Out.push_back({Name, ratio(Num, Den), "ratio"});
}

} // namespace

bool egacs::perfbench::runLayerPass(const Context &Ctx,
                                    const std::vector<double> &UntracedMs,
                                    const std::vector<double> &VerifyMs,
                                    MetricList &Out) {
  bool Ok = true;
  const std::vector<KernelKind> &Kernels = Ctx.W.Kernels;
  auto indexOf = [&](KernelKind K) -> int {
    for (std::size_t I = 0; I < Kernels.size(); ++I)
      if (Kernels[I] == K)
        return static_cast<int>(I);
    return -1;
  };

  // --- simd: primitives over the workload's arc destinations -------------
  SimdTimes St = simd::dispatchTarget(Ctx.Target, ProbeSimd{Ctx.In.G});
  Out.push_back({"simd.gather_ns", St.GatherNs, "ns", MicroPasses});
  Out.push_back({"simd.scatter_ns", St.ScatterNs, "ns", MicroPasses});
  Out.push_back({"simd.cas_min_ns", St.CasMinNs, "ns", MicroPasses});
  Out.push_back({"simd.fadd_ns", St.FaddNs, "ns", MicroPasses});
  Out.push_back({"simd.packed_store_ns", St.PackedStoreNs, "ns", MicroPasses});

  // --- runtime: task launch and barrier episodes --------------------------
  constexpr int Episodes = 2000;
  auto NoReset = [] {};
  Out.push_back({"runtime.launch_us",
                 microNs(Episodes, NoReset,
                         [&] {
                           for (int E = 0; E < Episodes; ++E)
                             Ctx.TS.launch(Ctx.Tasks, [](int, int) {});
                         }) /
                     1e3,
                 "us", MicroPasses});
  Barrier Bar(Ctx.Tasks);
  Out.push_back({"runtime.barrier_us",
                 microNs(Episodes, NoReset,
                         [&] {
                           Ctx.TS.launch(Ctx.Tasks, [&](int, int) {
                             for (int E = 0; E < Episodes; ++E)
                               Bar.wait();
                           });
                         }) /
                     1e3,
                 "us", MicroPasses});

  // --- engine: one traced run per kernel -----------------------------------
  constexpr unsigned NumKinds = static_cast<unsigned>(trace::SpanKind::NumKinds);
  std::vector<double> KindMs(NumKinds), KindSlowestMs(NumKinds);
  std::vector<std::uint64_t> Rounds(Kernels.size());
  std::vector<double> RoundUs(Kernels.size());
  double TracedMs = 0, UntracedSumMs = 0;
  std::uint64_t Dropped = 0;
  for (std::size_t I = 0; I < Kernels.size(); ++I) {
    trace::TraceSession Session(TraceRingSpans);
    KernelConfig Cfg = Ctx.config();
    Cfg.Trace = &Session;
    KernelOutput Res;
    TracedMs += timeMs([&] { Res = Ctx.run(Kernels[I], Cfg); });
    UntracedSumMs += UntracedMs[I];
    Ok &= Ctx.verify(Kernels[I], Res, Cfg);
    Dropped += Session.droppedSpans() + Session.droppedRounds();
    Rounds[I] = Session.rounds().size();
    double RoundNs = 0;
    for (const trace::RoundRecord &R : Session.rounds())
      RoundNs += static_cast<double>(R.EndNs - R.BeginNs);
    RoundUs[I] = ratio(RoundNs / 1e3, static_cast<double>(Rounds[I]));
    std::vector<double> Slowest(NumKinds);
    for (std::size_t T = 0; T < Session.numTasks(); ++T) {
      std::vector<double> TaskMs(NumKinds);
      Session.task(T)->forEachSpan([&](const trace::Span &S) {
        TaskMs[static_cast<unsigned>(S.Kind)] +=
            static_cast<double>(S.EndNs - S.BeginNs) / 1e6;
      });
      for (unsigned K = 0; K < NumKinds; ++K) {
        KindMs[K] += TaskMs[K];
        Slowest[K] = std::max(Slowest[K], TaskMs[K]);
      }
    }
    for (unsigned K = 0; K < NumKinds; ++K)
      KindSlowestMs[K] += Slowest[K];
  }
  for (unsigned K = 0; K < NumKinds; ++K) {
    std::string Kind = trace::spanKindName(static_cast<trace::SpanKind>(K));
    Out.push_back({"engine." + Kind + ".ms", KindMs[K], "ms"});
    Out.push_back({"engine." + Kind + ".slowest_ms", KindSlowestMs[K], "ms"});
  }

  // --- counted pass: op counting and scheduler instrumentation on ---------
  std::vector<StatsSnapshot> Counts(Kernels.size());
  StatsSnapshot Suite;
  for (std::size_t I = 0; I < Kernels.size(); ++I) {
    KernelConfig Cfg = Ctx.config();
    Cfg.SchedInstrument = true;
    simd::setOpCounting(true);
    StatsSnapshot Before = StatsSnapshot::capture();
    KernelOutput Res = Ctx.run(Kernels[I], Cfg);
    Counts[I] = StatsSnapshot::capture() - Before;
    simd::setOpCounting(false);
    Ok &= Ctx.verify(Kernels[I], Res, Cfg);
    Suite += Counts[I];
  }
  auto suite = [&](Stat S) { return static_cast<double>(Suite.get(S)); };
  Out.push_back({"simd.spmd_ops", suite(Stat::SpmdOps), "count"});
  Out.push_back({"simd.gather_ops", suite(Stat::GatherOps), "count"});
  Out.push_back(
      {"engine.direction_switches", suite(Stat::DirectionSwitches), "count"});
  Out.push_back({"engine.pull_edges", suite(Stat::PullEdgesScanned), "count"});
  addRatio(Out, "engine.pull_early_exit_frac", suite(Stat::PullEarlyExits),
           suite(Stat::PullEdgesScanned));
  addRatio(Out, "sched.crit_ratio", suite(Stat::SchedCriticalNanos),
           suite(Stat::SchedTaskNanos) / Ctx.Tasks);
  double Contig = suite(Stat::NeighborContigLanes);
  addRatio(Out, "sched.contig_frac", Contig,
           Contig + suite(Stat::NeighborGatherLanes));
  Out.push_back({"sched.prefetches", suite(Stat::PrefetchesIssued), "count"});
  addRatio(Out, "worklist.atomics_per_item", suite(Stat::AtomicPushes),
           suite(Stat::ItemsPushed));
  Out.push_back(
      {"worklist.conversions", suite(Stat::FrontierConversions), "count"});

  // --- per kernel; kernels the workload does not run report 0 -------------
  for (KernelKind K : AllKernels) {
    std::string Name = kernelName(K);
    int I = indexOf(K);
    StatsSnapshot C = I < 0 ? StatsSnapshot() : Counts[I];
    auto get = [&](Stat S) { return static_cast<double>(C.get(S)); };
    addRatio(Out, Name + ".lane_occupancy", get(Stat::InnerActiveLanes),
             get(Stat::InnerTotalLanes));
    Out.push_back({Name + ".rounds",
                   I < 0 ? 0.0 : static_cast<double>(Rounds[I]), "count"});
    Out.push_back({Name + ".round_us", I < 0 ? 0.0 : RoundUs[I], "us"});
    Out.push_back({Name + ".cas_attempts", get(Stat::CasAttempts), "count"});
    addRatio(Out, Name + ".cas_fail_ratio", get(Stat::CasFailures),
             get(Stat::CasAttempts));
    Out.push_back({Name + ".items_pushed", get(Stat::ItemsPushed), "count"});
    Out.push_back({Name + ".verify_ms", I < 0 ? 0.0 : VerifyMs[I], "ms"});
  }

  // --- trace: overhead against the untraced medians, and completeness -----
  Out.push_back(
      {"trace.overhead_frac", ratio(TracedMs, UntracedSumMs) - 1, "frac"});
  Out.push_back({"trace.dropped", static_cast<double>(Dropped), "count"});
  if (Dropped != 0) {
    std::fprintf(stderr, "perfbench_driver: trace dropped %llu records\n",
                 static_cast<unsigned long long>(Dropped));
    Ok = false;
  }
  return Ok;
}
