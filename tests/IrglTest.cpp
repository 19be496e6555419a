//===- tests/IrglTest.cpp - Mini IrGL compiler tests ----------------------===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
// Pass-level unit tests (each optimization transforms exactly what it
// should), golden checks on the emitted SPMD C++, and an end-to-end test
// that compiles generated BFS with the host compiler, runs it, and checks
// the output against the oracle.
//
//===----------------------------------------------------------------------===//

#include "irgl/CodeGen.h"
#include "irgl/Passes.h"
#include "irgl/Samples.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

using namespace egacs::irgl;

namespace {

bool contains(const std::string &Haystack, const std::string &Needle) {
  return Haystack.find(Needle) != std::string::npos;
}

//===----------------------------------------------------------------------===//
// AST construction and dumping.
//===----------------------------------------------------------------------===//

TEST(IrglAst, ExprPrinting) {
  auto E = Expr::makeBin("+", Expr::makeLoad("dist", Expr::makeVar("src")),
                         Expr::makeInt(1));
  EXPECT_EQ(E->str(), "(dist[src] + 1)");
  auto Clone = E->clone();
  EXPECT_EQ(Clone->str(), E->str());
}

TEST(IrglAst, BfsProgramShape) {
  Program P = buildBfsProgram();
  EXPECT_EQ(P.Name, "bfs");
  ASSERT_EQ(P.Kernels.size(), 1u);
  ASSERT_EQ(P.Pipes.size(), 1u);
  EXPECT_NE(P.findKernel("bfs_op"), nullptr);
  EXPECT_EQ(P.findKernel("nonexistent"), nullptr);

  std::string Dump = dumpProgram(P);
  EXPECT_TRUE(contains(Dump, "ForAll(src in worklist.items)"));
  EXPECT_TRUE(contains(Dump, "won = atomicMin(dist[dst], (dist[src] + 1))"));
  EXPECT_TRUE(contains(Dump, "worklist.push(dst)"));
  EXPECT_FALSE(contains(Dump, "[outlined]"));
  EXPECT_FALSE(contains(Dump, "[cc="));
}

//===----------------------------------------------------------------------===//
// Passes.
//===----------------------------------------------------------------------===//

TEST(IrglPasses, IterationOutliningMarksPipesOnce) {
  Program P = buildBfsProgram();
  EXPECT_EQ(applyIterationOutlining(P), 1);
  EXPECT_TRUE(P.Pipes[0].Outlined);
  EXPECT_EQ(applyIterationOutlining(P), 0) << "pass must be idempotent";
}

TEST(IrglPasses, NestedParallelismSchedulesEdgeLoops) {
  Program P = buildSsspProgram();
  EXPECT_EQ(applyNestedParallelism(P), 1);
  EXPECT_TRUE(contains(dumpProgram(P), "[schedule=np]"));
  EXPECT_EQ(applyNestedParallelism(P), 0);
}

TEST(IrglPasses, CoopConversionAggregatesPushes) {
  Program P = buildBfsProgram();
  EXPECT_EQ(applyCooperativeConversion(P), 1);
  EXPECT_TRUE(contains(dumpProgram(P), "[cc=task]"));
  EXPECT_EQ(applyCooperativeConversion(P), 0);
}

TEST(IrglPasses, FibersRespectExactPushCount) {
  Program P = buildBfsProgram();
  // Without the exact-push-count property, Fibers must not upgrade pushes
  // to fiber-level CC (paper: only bfs-cx/bfs-hb qualify).
  EXPECT_EQ(applyFibers(P), 1);
  EXPECT_TRUE(P.Kernels[0].UseFibers);
  EXPECT_FALSE(contains(dumpProgram(P), "[cc=fiber]"));

  Program Q = buildBfsProgram();
  Q.Kernels[0].ExactPushCount = true;
  applyFibers(Q);
  EXPECT_TRUE(contains(dumpProgram(Q), "[cc=fiber]"));
}

TEST(IrglPasses, BundleRunsInCanonicalOrder) {
  Program P = buildBfsProgram();
  P.Kernels[0].ExactPushCount = true;
  runPasses(P, OptimizationBundle::all());
  std::string Dump = dumpProgram(P);
  EXPECT_TRUE(contains(Dump, "[outlined]"));
  EXPECT_TRUE(contains(Dump, "[schedule=np]"));
  // Fiber-level CC overrides task-level CC where applicable.
  EXPECT_TRUE(contains(Dump, "[cc=fiber]"));
  EXPECT_FALSE(contains(Dump, "[cc=task]"));
}

//===----------------------------------------------------------------------===//
// Code generation (golden substrings).
//===----------------------------------------------------------------------===//

TEST(IrglCodeGen, UnoptimizedBfsLowersToNaivePushes) {
  Program P = buildBfsProgram();
  std::string Cpp = emitCpp(P);
  EXPECT_TRUE(contains(Cpp, "struct bfs_State"));
  EXPECT_TRUE(contains(Cpp, "std::int32_t *dist"));
  EXPECT_TRUE(contains(Cpp, "plainForEachEdge<BK>"));
  EXPECT_TRUE(contains(Cpp, "pushNaive<BK>"));
  EXPECT_TRUE(contains(Cpp, "Cfg.IterationOutlining = false;"));
  EXPECT_FALSE(contains(Cpp, "npForEachEdge"));
  EXPECT_FALSE(contains(Cpp, "pushCoop"));
}

TEST(IrglCodeGen, OptimizedBfsLowersToOptimizedPrimitives) {
  Program P = buildBfsProgram();
  runPasses(P, OptimizationBundle::all());
  std::string Cpp = emitCpp(P);
  EXPECT_TRUE(contains(Cpp, "npForEachEdge<BK>"));
  EXPECT_TRUE(contains(Cpp, "TL.Np.flush<BK>(G, EdgeFn_0);"));
  EXPECT_TRUE(contains(Cpp, "pushCoop<BK>"));
  EXPECT_TRUE(contains(Cpp, "Cfg.IterationOutlining = true;"));
  EXPECT_FALSE(contains(Cpp, "pushNaive"));
}

TEST(IrglCodeGen, KernelsEmitPrefetchPlans) {
  // Every kernel seeds a plan from Cfg, registers its State arrays under
  // the index shape they are accessed through (dist[dst] -> Dst,
  // dist[src] -> Node, weight[e] -> Edge), arms the task scratch, and
  // drives its sweeps through the staged slice overloads.
  Program P = buildBfsProgram();
  runPasses(P, OptimizationBundle::all());
  std::string Cpp = emitCpp(P);
  EXPECT_TRUE(contains(Cpp, "PrefetchPlan PF = kernelPrefetchPlan(Cfg);"));
  EXPECT_TRUE(contains(Cpp,
                       "PF.addProp(State.dist, "
                       "static_cast<int>(sizeof(std::int32_t)), "
                       "PrefetchIndexKind::Dst);"));
  EXPECT_TRUE(contains(Cpp, "PrefetchIndexKind::Node);"));
  EXPECT_TRUE(contains(Cpp, "TL.armPrefetch(PF);"));
  EXPECT_TRUE(contains(Cpp, "TaskIdx, TaskCount, PF, TL.Pf,"));

  Program Q = buildSsspProgram();
  std::string Sssp = emitCpp(Q);
  EXPECT_TRUE(contains(Sssp, "PrefetchIndexKind::Edge);"));
}

TEST(IrglCodeGen, SsspLoadsWeightsThroughGathers) {
  Program P = buildSsspProgram();
  std::string Cpp = emitCpp(P);
  EXPECT_TRUE(contains(Cpp, "std::int32_t *weight"));
  EXPECT_TRUE(
      contains(Cpp, "gather<BK>(State.weight, V_e, M_edge)"));
}

TEST(IrglCodeGen, AtomicMinBindsWonMask) {
  Program P = buildBfsProgram();
  std::string Cpp = emitCpp(P);
  EXPECT_TRUE(
      contains(Cpp, "VMask<BK> M_won = updateMinVector<BK>(Cfg.Update"));
  EXPECT_TRUE(contains(Cpp, "& M_won;"));
}

TEST(IrglCodeGen, KernelsAreLayoutTemplated) {
  // The emitted kernels and pipes take any GraphView; worklist sweeps pass
  // NoSlot to the edge loops (push order), node sweeps thread the live
  // slot through so SELL layouts can use contiguous loads.
  Program P = buildBfsProgram();
  runPasses(P, OptimizationBundle::all());
  std::string Cpp = emitCpp(P);
  EXPECT_TRUE(contains(Cpp, "template <typename BK, typename GV>"));
  EXPECT_TRUE(contains(Cpp, "const GV &G"));
  EXPECT_TRUE(contains(Cpp, "TL.Np, EdgeFn_0, egacs::NoSlot);"));

  Program Q = buildBfsTpProgram();
  runPasses(Q, OptimizationBundle::all());
  std::string Tp = emitCpp(Q);
  EXPECT_TRUE(contains(Tp, "std::int64_t Slot"));
  EXPECT_TRUE(contains(Tp, "TL.Np, EdgeFn_0, Slot);"));
}

TEST(IrglCodeGen, LayoutKnobSelectsAutoDriverLayout) {
  Program P = buildBfsProgram();
  std::string Cpp = emitCpp(P);
  EXPECT_TRUE(contains(Cpp, "bfs_pipe_run_auto"));
  EXPECT_TRUE(contains(Cpp, "AnyLayout::build(LayoutKind::Csr, G, LOpts)"));

  CodeGenOptions Opts;
  Opts.Layout = egacs::LayoutKind::Sell;
  std::string Sell = emitCpp(P, Opts);
  EXPECT_TRUE(contains(Sell, "AnyLayout::build(LayoutKind::Sell, G, LOpts)"));
  EXPECT_TRUE(contains(Sell, "LOpts.SellChunk = BK::Width;"));
  EXPECT_TRUE(contains(Sell, "LOpts.SellSigma = Cfg.SellSigma;"));
}

//===----------------------------------------------------------------------===//
// End-to-end: compile the generated BFS with the host compiler and run it.
//===----------------------------------------------------------------------===//

/// Compiles a generated program plus a driver with the host compiler, runs
/// it, and expects exit code 0. The driver body receives the graph `G` and
/// must return non-zero on mismatch. The files go to a fresh directory per
/// call, removed after a pass and kept (its path in the failure) otherwise.
void compileAndRun(const std::string &TestName, Program P,
                   const OptimizationBundle &Bundle,
                   const std::string &DriverBody,
                   const CodeGenOptions &Opts = {}) {
#if !defined(EGACS_SRC_DIR) || !defined(EGACS_LIB_PATH)
  (void)TestName;
  (void)P;
  (void)Bundle;
  (void)DriverBody;
  (void)Opts;
  GTEST_SKIP() << "build paths not configured";
#else
  runPasses(P, Bundle);
  std::string Generated = emitCpp(P, Opts);

  std::string Template = ::testing::TempDir() + "/egacs_gen_" + TestName +
                         "_XXXXXX";
  ASSERT_NE(mkdtemp(Template.data()), nullptr)
      << "cannot create a directory like " << Template;
  const std::string Dir = Template;
  std::string GenPath = Dir + "/gen.h";
  std::string DriverPath = Dir + "/driver.cpp";
  std::string BinPath = Dir + "/bin";
  std::string LogPath = Dir + "/compile.log";
  {
    std::ofstream Gen(GenPath);
    Gen << Generated;
  }
  {
    std::ofstream Driver(DriverPath);
    Driver << "#include \"" << GenPath << "\"\n"
           << R"cpp(
#include "graph/Generators.h"
#include "simd/ScalarBackend.h"
#include "verify/Oracle.h"
#include <cstdio>

using namespace egacs;

int main() {
  Csr G = rmatGraph(8, 6, 42);
)cpp" << DriverBody
           << "}\n";
  }

#ifndef EGACS_GEN_FLAGS
#define EGACS_GEN_FLAGS ""
#endif
  std::string Compile = std::string("g++ -std=c++20 -O1 ") +
                        EGACS_GEN_FLAGS + " -I " + EGACS_SRC_DIR +
                        " " + DriverPath + " " + EGACS_LIB_PATH +
                        " -lpthread -o " + BinPath + " 2> " + LogPath;
  int CompileRc = std::system(Compile.c_str());
  ASSERT_EQ(CompileRc, 0) << "generated code failed to compile; see "
                          << LogPath;
  int RunRc = std::system((BinPath + " > /dev/null").c_str());
  ASSERT_EQ(RunRc, 0) << "generated " << TestName
                      << " produced wrong output; its files are in " << Dir;
  std::filesystem::remove_all(Dir);
#endif
}

TEST(IrglEndToEnd, GeneratedBfsCompilesAndMatchesOracle) {
  compileAndRun("bfs", buildBfsProgram(), OptimizationBundle::all(), R"cpp(
  std::vector<std::int32_t> Dist(static_cast<std::size_t>(G.numNodes()),
                                 InfDist);
  Dist[0] = 0;
  egacs::gen::bfs_State State;
  State.dist = Dist.data();
  SerialTaskSystem TS;
  KernelConfig Cfg = KernelConfig::allOptimizations(TS, 1);
  egacs::gen::bfs_pipe_run<simd::ScalarBackend<8>>(G, Cfg, State, 0);
  return verify::checkBfsDistances(G, 0, Dist).Ok ? 0 : 1;
)cpp");
}

TEST(IrglEndToEnd, GeneratedUnoptimizedBfsAlsoCorrect) {
  compileAndRun("bfs_unopt", buildBfsProgram(), OptimizationBundle::none(),
                R"cpp(
  std::vector<std::int32_t> Dist(static_cast<std::size_t>(G.numNodes()),
                                 InfDist);
  Dist[0] = 0;
  egacs::gen::bfs_State State;
  State.dist = Dist.data();
  SerialTaskSystem TS;
  KernelConfig Cfg = KernelConfig::unoptimized(TS, 1);
  egacs::gen::bfs_pipe_run<simd::ScalarBackend<4>>(G, Cfg, State, 0);
  return verify::checkBfsDistances(G, 0, Dist).Ok ? 0 : 1;
)cpp");
}

TEST(IrglEndToEnd, TracedGeneratedBfsReportsEveryRound) {
#if !defined(EGACS_TRACE) || !defined(EGACS_STATS)
  GTEST_SKIP() << "needs tracing and the counters compiled in";
#endif
  // A traced generated pipe closes its run and reports each round's
  // frontier through runPipe: one round per BFS level, every round a
  // push round with a real frontier, and the per-round counter deltas
  // summing to the whole run's.
  compileAndRun("bfs_traced", buildBfsProgram(), OptimizationBundle::all(),
                R"cpp(
  std::vector<std::int32_t> Dist(static_cast<std::size_t>(G.numNodes()),
                                 InfDist);
  Dist[0] = 0;
  egacs::gen::bfs_State State;
  State.dist = Dist.data();
  SerialTaskSystem TS;
  KernelConfig Cfg = KernelConfig::allOptimizations(TS, 1);
  trace::TraceSession S;
  Cfg.Trace = &S;
  StatsSnapshot Before = StatsSnapshot::capture();
  egacs::gen::bfs_pipe_run<simd::ScalarBackend<8>>(G, Cfg, State, 0);
  StatsSnapshot Run = StatsSnapshot::capture() - Before;
  if (!verify::checkBfsDistances(G, 0, Dist).Ok)
    return 1;
  int Failures = 0;
  std::int32_t Levels = 0;
  for (std::int32_t D : Dist)
    if (D != InfDist && D + 1 > Levels)
      Levels = D + 1;
  if (S.rounds().size() != static_cast<std::size_t>(Levels)) {
    std::fprintf(stderr, "%zu rounds for %d levels\n", S.rounds().size(),
                 Levels);
    ++Failures;
  }
  for (const trace::RoundRecord &R : S.rounds())
    if (R.Frontier < 0 || std::string(R.Mode) != "push") {
      std::fprintf(stderr, "round %u: frontier %lld, mode %s\n", R.Round,
                   static_cast<long long>(R.Frontier), R.Mode);
      ++Failures;
    }
  for (unsigned I = 0; I < static_cast<unsigned>(Stat::NumStats); ++I) {
    Stat St = static_cast<Stat>(I);
    std::uint64_t Sum = 0;
    for (const trace::RoundRecord &R : S.rounds())
      Sum += R.Delta.get(St);
    if (Sum != Run.get(St)) {
      std::fprintf(stderr, "%s: rounds sum to %llu, the run to %llu\n",
                   statName(St), static_cast<unsigned long long>(Sum),
                   static_cast<unsigned long long>(Run.get(St)));
      ++Failures;
    }
  }
  return Failures == 0 ? 0 : 2;
)cpp");
}

TEST(IrglCodeGen, TopologyKernelsEmitFixpointPipes) {
  Program P = buildBfsTpProgram();
  runPasses(P, OptimizationBundle::all());
  std::string Cpp = emitCpp(P);
  EXPECT_TRUE(contains(Cpp, "forEachNodeSlice<BK>"));
  EXPECT_TRUE(contains(Cpp, "ChangedCount += popcount(M_won);"));
  EXPECT_TRUE(contains(Cpp, "atomicAddGlobal(&Changed, ChangedCount);"));
  EXPECT_TRUE(contains(Cpp, "bool More = Changed != 0;"));
  EXPECT_FALSE(contains(Cpp, "WL.in().pushSerial"))
      << "fixpoint pipes have no frontier to seed";
}

TEST(IrglEndToEnd, GeneratedTopologyBfsCompilesAndMatchesOracle) {
  compileAndRun("bfstp", buildBfsTpProgram(), OptimizationBundle::all(),
                R"cpp(
  std::vector<std::int32_t> Dist(static_cast<std::size_t>(G.numNodes()),
                                 InfDist);
  Dist[0] = 0;
  egacs::gen::bfstp_State State;
  State.dist = Dist.data();
  SerialTaskSystem TS;
  KernelConfig Cfg = KernelConfig::allOptimizations(TS, 1);
  egacs::gen::bfstp_pipe_run<simd::ScalarBackend<8>>(G, Cfg, State, 0);
  return verify::checkBfsDistances(G, 0, Dist).Ok ? 0 : 1;
)cpp");
}

TEST(IrglEndToEnd, GeneratedCcCompilesAndMatchesOracle) {
  compileAndRun("cc", buildCcProgram(), OptimizationBundle::all(), R"cpp(
  std::vector<std::int32_t> Comp(static_cast<std::size_t>(G.numNodes()));
  for (NodeId N = 0; N < G.numNodes(); ++N)
    Comp[static_cast<std::size_t>(N)] = N;
  egacs::gen::cc_State State;
  State.comp = Comp.data();
  SerialTaskSystem TS;
  KernelConfig Cfg = KernelConfig::allOptimizations(TS, 1);
  // The generated pipe floods one source's label through its component, so
  // run it from each node that is still its own label, in id order: every
  // component then carries its minimum id, which is what the oracle checks.
  for (NodeId N = 0; N < G.numNodes(); ++N)
    if (Comp[static_cast<std::size_t>(N)] == N)
      egacs::gen::cc_pipe_run<simd::ScalarBackend<8>>(G, Cfg, State, N);
  return verify::checkComponents(G, Comp).Ok ? 0 : 1;
)cpp");
}

TEST(IrglEndToEnd, GeneratedSellLayoutBfsMatchesOracle) {
  // --layout=sell: the auto driver builds a SELL-C-sigma image with
  // C = BK::Width; the topology sweep's aligned slots take the
  // contiguous-load fast path in npForEachEdge.
  CodeGenOptions Opts;
  Opts.Layout = egacs::LayoutKind::Sell;
  compileAndRun("bfstp_sell", buildBfsTpProgram(), OptimizationBundle::all(),
                R"cpp(
  std::vector<std::int32_t> Dist(static_cast<std::size_t>(G.numNodes()),
                                 InfDist);
  Dist[0] = 0;
  egacs::gen::bfstp_State State;
  State.dist = Dist.data();
  SerialTaskSystem TS;
  KernelConfig Cfg = KernelConfig::allOptimizations(TS, 1);
  egacs::gen::bfstp_pipe_run_auto<simd::ScalarBackend<8>>(G, Cfg, State, 0);
  return verify::checkBfsDistances(G, 0, Dist).Ok ? 0 : 1;
)cpp",
                Opts);
}

TEST(IrglEndToEnd, GeneratedSsspCompilesAndMatchesOracle) {
  compileAndRun("sssp", buildSsspProgram(), OptimizationBundle::all(), R"cpp(
  std::vector<std::int32_t> Dist(static_cast<std::size_t>(G.numNodes()),
                                 InfDist);
  Dist[0] = 0;
  egacs::gen::sssp_State State;
  State.dist = Dist.data();
  State.weight = const_cast<std::int32_t *>(G.edgeWeight());
  SerialTaskSystem TS;
  KernelConfig Cfg = KernelConfig::allOptimizations(TS, 1);
  egacs::gen::sssp_pipe_run<simd::ScalarBackend<8>>(G, Cfg, State, 0);
  return verify::checkSsspDistances(G, 0, Dist).Ok ? 0 : 1;
)cpp");
}

} // namespace
