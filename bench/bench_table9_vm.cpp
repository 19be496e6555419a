//===- bench/bench_table9_vm.cpp - Table IX: virtual memory ---------------===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
// Reproduces Table IX: slowdown of each benchmark when physical memory is
// limited to 75% and 50% of its footprint, for CPU demand paging (the
// paper's cgroups methodology) and GPU UVM (the paper's pinned-cudaMalloc
// methodology), via the trace-driven paging simulator. The paper's input
// is OSM-EUR (174M nodes); ours is a scaled road network of the same class.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "vm/AccessTrace.h"

using namespace egacs;
using namespace egacs::bench;
using namespace egacs::vm;

namespace {

std::string slowdownCell(double Slowdown) {
  // The paper prints DNF for runs beyond 5 hours (>5000x).
  if (Slowdown > 5000.0)
    return "DNF";
  return Table::fmt(Slowdown, 2);
}

} // namespace

int main(int Argc, char **Argv) {
  BenchEnv Env(Argc, Argv);
  banner("Table IX - slowdown under limited physical memory", Env);
  // A larger road network (OSM-EUR stand-in); scale via --scale. Node ids
  // are shuffled: real road inputs are not numbered geographically, so
  // frontier gathers hit random pages (the mechanism behind the paper's
  // UVM collapse).
  int Side = 320 << (Env.Scale > 3 ? (Env.Scale - 3) / 2 : 0);
  Csr G = shuffleNodeIds(roadGraph(Side, Side, 0.05, 21), 22);
  // --layout=csr|sell: topology sweeps are traced through the
  // layout's real storage addresses, and the footprint includes the
  // layout's auxiliary arrays.
  AnyLayout Layout = AnyLayout::build(Env.Layout, G);
  std::printf("graph: %d nodes, %d arcs (road class, shuffled ids, "
              "OSM-EUR stand-in), layout=%s\n\n",
              G.numNodes(), G.numEdges(), layoutName(Env.Layout));

  Table T({"app", "footprint MB", "GPU 75%", "GPU 50%", "CPU 75%",
           "CPU 50%"});
  const char *Apps[] = {"bfs-wl", "cc", "tri", "sssp", "mis", "pr", "mst"};
  for (const char *App : Apps) {
    std::uint64_t Footprint = appFootprintBytes(App, Layout);
    auto Run = [&](bool Gpu, double Fraction) {
      std::uint64_t Resident =
          static_cast<std::uint64_t>(Fraction * Footprint);
      PagingSim Sim(Gpu ? PagingConfig::gpuUvm(Resident)
                        : PagingConfig::cpu(Resident));
      traceApp(App, Layout, 0, Sim);
      return Sim.slowdown();
    };
    T.addRow({App, Table::fmt(Footprint / (1024.0 * 1024.0), 1),
              slowdownCell(Run(true, 0.75)), slowdownCell(Run(true, 0.50)),
              slowdownCell(Run(false, 0.75)),
              slowdownCell(Run(false, 0.50))});
  }
  T.print();
  std::printf("\npaper shape: random-gather apps (bfs-wl, sssp, pr) thrash "
              "catastrophically under UVM (paper: >5000x, DNF) but degrade "
              "moderately under CPU paging; sweep-dominated apps (cc, tri, "
              "mis, mst) stay within ~2-60x everywhere.\n");
  return 0;
}
