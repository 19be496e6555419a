//===- examples/irgl_codegen.cpp - Driving the mini IrGL compiler ---------===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
// Shows the compiler pipeline end to end: build an IrGL program (BFS, CC,
// or SSSP), apply the selected throughput optimizations (the paper's IO /
// NP / CC / Fibers passes), and print both the optimized IrGL and the
// generated SPMD C++ — the output the paper's ISPC backend would produce.
//
//   $ ./irgl_codegen [--program=bfs|bfstp|cc|sssp] [--io=0] [--np=0] [--cc=0]
//                    [--fibers=0] [--emit=irgl|cpp|both]
//                    [--layout=csr|sell]
//                    [--direction=push|pull|hybrid] [--alpha=15] [--beta=18]
//
//===----------------------------------------------------------------------===//

#include "irgl/CodeGen.h"
#include "irgl/Passes.h"
#include "irgl/Samples.h"
#include "support/Options.h"

#include <cstdio>

using namespace egacs;
using namespace egacs::irgl;

int main(int Argc, char **Argv) {
  Options Opts(Argc, Argv);
  std::string Name = Opts.getString("program", "bfs");
  std::string Emit = Opts.getString("emit", "both");

  Program P = Name == "cc"      ? buildCcProgram()
              : Name == "sssp"  ? buildSsspProgram()
              : Name == "bfstp" ? buildBfsTpProgram()
                                : buildBfsProgram();

  OptimizationBundle Bundle;
  Bundle.IterationOutlining = Opts.getBool("io", true);
  Bundle.NestedParallelism = Opts.getBool("np", true);
  Bundle.CoopConversion = Opts.getBool("cc", true);
  Bundle.Fibers = Opts.getBool("fibers", true);
  runPasses(P, Bundle);

  if (Emit == "irgl" || Emit == "both") {
    std::printf("// ---- optimized IrGL ----\n%s\n",
                dumpProgram(P).c_str());
  }
  if (Emit == "cpp" || Emit == "both") {
    CodeGenOptions CG;
    CG.Layout = parseLayoutKind(Opts.getString("layout", "csr"));
    CG.Dir = parseDirection(Opts.getString("direction", "push"));
    CG.AlphaNum = static_cast<int>(Opts.getInt("alpha", CG.AlphaNum));
    CG.BetaDenom = static_cast<int>(Opts.getInt("beta", CG.BetaDenom));
    std::printf("// ---- generated SPMD C++ ----\n%s",
                emitCpp(P, CG).c_str());
  }
  return 0;
}
