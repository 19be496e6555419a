//===- bench/bench_table2_launch.cpp - Table II: task launch overhead -----===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
// Reproduces Table II: time per launch of "empty" tasks, averaged over many
// continuous launches, for every task system. The paper launches as many
// tasks as hardware threads and finds pthread slowest and Cilk (here: the
// spin pool) fastest.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace egacs;
using namespace egacs::bench;

int main(int Argc, char **Argv) {
  BenchEnv Env(Argc, Argv);
  int Launches = static_cast<int>(Env.Opts.getInt("launches", 10000));
  banner("Table II - empty task launch overhead", Env);

  Table T({"task system", "launches", "tasks", "us/launch"});
  const TaskSystemKind Kinds[] = {TaskSystemKind::Spawn, TaskSystemKind::Pool,
                                  TaskSystemKind::SpinPool};
  for (TaskSystemKind Kind : Kinds) {
    auto TS = makeTaskSystem(Kind, Env.NumTasks);
    // Spawning threads is orders of magnitude slower; keep runtime sane.
    int N = Kind == TaskSystemKind::Spawn ? Launches / 20 + 1 : Launches;
    // Warm up the pool (first launch creates/wakes workers).
    TS->launch(Env.NumTasks, [](int, int) {});
    Timer Tm;
    Tm.start();
    for (int I = 0; I < N; ++I)
      TS->launch(Env.NumTasks, [](int, int) {});
    Tm.stop();
    T.addRow({TS->name(), Table::fmt(static_cast<std::uint64_t>(N)),
              Table::fmt(static_cast<std::uint64_t>(Env.NumTasks)),
              Table::fmt(Tm.milliseconds() * 1000.0 / N, 3)});
  }
  T.print();
  std::printf("\npaper shape: spawn-per-launch slowest; persistent spinning "
              "team fastest.\n");
  return 0;
}
