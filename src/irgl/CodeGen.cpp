//===- irgl/CodeGen.cpp - SPMD C++ backend --------------------------------===//
//
// Part of the EGACS project, a reproduction of "Efficient Execution of Graph
// Algorithms on CPU with SIMD Extensions" (CGO 2021).
//
//===----------------------------------------------------------------------===//

#include "irgl/CodeGen.h"

#include <cassert>
#include <cstring>
#include <functional>
#include <map>
#include <set>
#include <utility>
#include <vector>

using namespace egacs::irgl;

namespace {

/// Emission state for one kernel body.
class Emitter {
public:
  Emitter(std::string &Out, const Program &P, bool Topology)
      : Out(Out), P(P), Topology(Topology) {}

  void line(const std::string &Text) {
    Out.append(static_cast<std::size_t>(Indent) * 2, ' ');
    Out += Text;
    Out += '\n';
  }

  void open(const std::string &Text) {
    line(Text);
    ++Indent;
  }

  void close(const std::string &Text = "}") {
    --Indent;
    line(Text);
  }

  /// Lowers \p E to a VInt expression under mask \p Mask.
  std::string expr(const Expr &E, const std::string &Mask) {
    switch (E.kind()) {
    case Expr::Kind::Var:
      return "V_" + E.name();
    case Expr::Kind::IntLit:
      return "splat<BK>(" + std::to_string(E.value()) + ")";
    case Expr::Kind::ArrayLoad:
      return "gather<BK>(State." + E.name() + ", " +
             expr(E.operand(0), Mask) + ", " + Mask + ")";
    case Expr::Kind::BinOp:
      return "(" + expr(E.operand(0), Mask) + " " + E.op() + " " +
             expr(E.operand(1), Mask) + ")";
    }
    assert(false && "invalid expr kind");
    return "<invalid>";
  }

  /// Lowers a condition to a VMask expression under \p Mask. A Var refers
  /// to a previously bound mask (e.g. an AtomicMin's won mask); comparisons
  /// lower to mask-producing operators.
  std::string cond(const Expr &E, const std::string &Mask) {
    if (E.kind() == Expr::Kind::Var)
      return "M_" + E.name();
    assert(E.kind() == Expr::Kind::BinOp && "conditions are comparisons");
    return "(" + expr(E.operand(0), Mask) + " " + E.op() + " " +
           expr(E.operand(1), Mask) + ")";
  }

  void stmt(const Stmt &S, const std::string &Mask) {
    switch (S.kind()) {
    case Stmt::Kind::ForAllNodes: {
      // Node sweeps run in layout (slot) order: the view's
      // forEachNodeSlice hands the body the node ids of each vector plus
      // the slot index, which SELL-sliced layouts use to take the
      // contiguous-load fast path in the edge loops below. The kernel's
      // prefetch plan stages the sweep (an inactive plan is the plain
      // loop).
      open("forEachNodeSlice<BK>(G, Sched, TaskIdx, TaskCount, PF, TL.Pf, "
           "[&](VInt<BK> V_" +
           S.Var + ", VMask<BK> M_outer, std::int64_t Slot) {");
      line("(void)Slot;");
      std::string Saved = SlotSym;
      SlotSym = "Slot";
      body(S, "M_outer");
      SlotSym = Saved;
      close("});");
      return;
    }
    case Stmt::Kind::ForAllItems: {
      // Worklist items arrive in push order, not layout order: edge loops
      // below must use the gather path (NoSlot). The kernel's prefetch
      // plan stages the item stream the same way.
      open("forEachWorklistSlice<BK>(Cfg, G, Sched, In.items(), In.size(), "
           "TaskIdx, TaskCount, PF, TL.Pf, [&](VInt<BK> V_" +
           S.Var + ", VMask<BK> M_outer) {");
      std::string Saved = SlotSym;
      SlotSym = "egacs::NoSlot";
      body(S, "M_outer");
      SlotSym = Saved;
      close("});");
      return;
    }
    case Stmt::Kind::ForAllEdges: {
      // The edge body was hoisted to a kernel-scope lambda so the NP
      // epilogue flush can replay it for staged low-degree edges.
      std::string FnName = edgeFnName(S);
      HasNpLoop |= S.Schedule == EdgeSchedule::NestedParallel;
      if (S.Schedule == EdgeSchedule::NestedParallel)
        line("npForEachEdge<BK>(G, V_" + S.Var + ", " + Mask + ", TL.Np, " +
             FnName + ", " + SlotSym + ");");
      else
        line("plainForEachEdge<BK>(G, V_" + S.Var + ", " + Mask + ", " +
             FnName + ", " + SlotSym + ");");
      return;
    }
    case Stmt::Kind::If: {
      std::string Refined = freshMask();
      line("VMask<BK> " + Refined + " = " + Mask + " & " +
           cond(*S.Cond, Mask) + ";");
      open("if (any(" + Refined + ")) {");
      body(S, Refined);
      close();
      return;
    }
    case Stmt::Kind::AtomicMin:
      // Relaxations go through the update engine: Cfg.Update == Atomic
      // keeps the per-lane CAS loop, other policies pre-reduce
      // same-destination lanes in registers (sched/UpdateEngine.h).
      line("VMask<BK> M_" + S.WonVar + " = updateMinVector<BK>(Cfg.Update, "
           "State." +
           S.Array + ", " + expr(*S.Index, Mask) + ", " +
           expr(*S.Value, Mask) + ", " + Mask + ");");
      if (Topology) {
        // Fixpoint pipes converge on the relaxation count.
        line("ChangedCount += popcount(M_" + S.WonVar + ");");
        UsesChanged = true;
      }
      return;
    case Stmt::Kind::ArrayStore:
      line("scatter<BK>(State." + S.Array + ", " + expr(*S.Index, Mask) +
           ", " + expr(*S.Value, Mask) + ", " + Mask + ");");
      return;
    case Stmt::Kind::WorklistPush:
      switch (S.Aggregation) {
      case PushAggregation::None:
        line("pushNaive<BK>(Out, " + expr(*S.Value, Mask) + ", " + Mask +
             ");");
        return;
      case PushAggregation::Task:
        line("pushCoop<BK>(Out, " + expr(*S.Value, Mask) + ", " + Mask +
             ");");
        return;
      case PushAggregation::Fiber:
        line("if (TL.Local.nearlyFull(BK::Width))");
        line("  TL.Local.flush(Out);");
        line("TL.Local.push<BK>(" + expr(*S.Value, Mask) + ", " + Mask +
             ");");
        UsesFiberCc = true;
        return;
      }
      return;
    }
    assert(false && "invalid stmt kind");
  }

  void body(const Stmt &S, const std::string &Mask) {
    for (const auto &Child : S.Body)
      stmt(*Child, Mask);
  }

  std::string freshMask() { return "M_" + std::to_string(MaskCounter++); }

  /// Hoists every edge loop's body into a kernel-scope lambda; returns the
  /// name of the lambda bound to each ForAllEdges statement.
  void hoistEdgeBodies(const Kernel &K) {
    int Counter = 0;
    for (const auto &Top : K.Body)
      const_cast<Stmt &>(*Top).walk([&](Stmt &S) {
        if (S.kind() != Stmt::Kind::ForAllEdges)
          return;
        std::string FnName = "EdgeFn_" + std::to_string(Counter++);
        EdgeFnNames[&S] = FnName;
        open("auto " + FnName + " = [&](VInt<BK> V_" + S.Var +
             ", VInt<BK> V_" + S.DstVar + ", VInt<BK> V_" + S.EdgeVar +
             ", VMask<BK> M_edge) {");
        body(S, "M_edge");
        close("};");
      });
  }

  std::string edgeFnName(const Stmt &S) const {
    auto It = EdgeFnNames.find(&S);
    assert(It != EdgeFnNames.end() && "edge loop body was not hoisted");
    return It->second;
  }

  /// The first hoisted edge lambda (for the NP epilogue flush).
  std::string firstEdgeFnName() const { return "EdgeFn_0"; }

  bool HasNpLoop = false;
  bool UsesFiberCc = false;
  bool UsesChanged = false;

  /// The slot argument edge loops pass to np/plainForEachEdge: the live
  /// `Slot` variable inside a node sweep (layout order), egacs::NoSlot
  /// inside worklist sweeps (push order).
  std::string SlotSym = "egacs::NoSlot";

private:
  std::string &Out;
  [[maybe_unused]] const Program &P;
  bool Topology;
  int Indent = 1;
  int MaskCounter = 0;
  std::map<const Stmt *, std::string> EdgeFnNames;
};

/// The C++ enumerator name for a layout kind (for emitted source).
const char *layoutEnumName(egacs::LayoutKind K) {
  switch (K) {
  case egacs::LayoutKind::Csr:
    return "Csr";
  case egacs::LayoutKind::Sell:
    return "Sell";
  }
  assert(false && "invalid layout kind");
  return "Csr";
}

/// The C++ enumerator name for a traversal direction (for emitted source).
const char *directionEnumName(egacs::Direction D) {
  switch (D) {
  case egacs::Direction::Push:
    return "Push";
  case egacs::Direction::Pull:
    return "Pull";
  case egacs::Direction::Hybrid:
    return "Hybrid";
  }
  assert(false && "invalid direction");
  return "Push";
}

/// Classifies every State-array reference of \p K by the variable indexing
/// it (loop node, edge destination, or CSR edge index) and renders the
/// kernel's prefetch-plan construction: kernelPrefetchPlan(Cfg) plus one
/// PF.addProp per distinct (array, index shape) pair. References indexed by
/// computed expressions are skipped — the inspect stages only follow index
/// streams readable from topology alone.
void emitPrefetchPlan(std::string &Out, const Program &P, const Kernel &K) {
  std::set<std::string> NodeVars, DstVars, EdgeVars;
  const_cast<Kernel &>(K).walk([&](Stmt &S) {
    switch (S.kind()) {
    case Stmt::Kind::ForAllNodes:
    case Stmt::Kind::ForAllItems:
      NodeVars.insert(S.Var);
      break;
    case Stmt::Kind::ForAllEdges:
      NodeVars.insert(S.Var);
      DstVars.insert(S.DstVar);
      EdgeVars.insert(S.EdgeVar);
      break;
    default:
      break;
    }
  });

  std::vector<std::pair<std::string, const char *>> Props;
  auto addRef = [&](const std::string &Array, const char *Kind) {
    for (const auto &Pr : Props)
      if (Pr.first == Array && std::strcmp(Pr.second, Kind) == 0)
        return;
    Props.emplace_back(Array, Kind);
  };
  auto classify = [&](const std::string &Array, const Expr &Idx) {
    if (Idx.kind() != Expr::Kind::Var)
      return;
    if (DstVars.count(Idx.name()))
      addRef(Array, "Dst");
    else if (EdgeVars.count(Idx.name()))
      addRef(Array, "Edge");
    else if (NodeVars.count(Idx.name()))
      addRef(Array, "Node");
  };
  std::function<void(const Expr &)> scanExpr = [&](const Expr &E) {
    if (E.kind() == Expr::Kind::ArrayLoad)
      classify(E.name(), E.operand(0));
    for (unsigned I = 0; I < E.numOperands(); ++I)
      scanExpr(E.operand(I));
  };
  const_cast<Kernel &>(K).walk([&](Stmt &S) {
    if (S.Cond)
      scanExpr(*S.Cond);
    if (S.Index) {
      classify(S.Array, *S.Index);
      scanExpr(*S.Index);
    }
    if (S.Value)
      scanExpr(*S.Value);
  });

  Out += "  PrefetchPlan PF = kernelPrefetchPlan(Cfg);\n";
  for (const auto &Pr : Props) {
    std::string ElemType = "std::int32_t";
    for (const ArrayDecl &A : P.Arrays)
      if (A.Name == Pr.first)
        ElemType = A.ElemType;
    Out += "  PF.addProp(State." + Pr.first + ", static_cast<int>(sizeof(" +
           ElemType + ")), PrefetchIndexKind::" + Pr.second + ");\n";
  }
  Out += "  TL.armPrefetch(PF);\n";
}

void emitKernel(std::string &Out, const Program &P, const Kernel &K) {
  Out += "/// Kernel " + K.Name;
  if (K.UseFibers)
    Out += " (fibers enabled)";
  Out += ".\ntemplate <typename BK, typename GV>\n";
  Out += "void " + K.Name +
         "_kernel(const KernelConfig &Cfg, LoopScheduler &Sched, "
         "const GV &G, " + P.Name +
         "_State &State, const Worklist &In, Worklist &Out, TaskLocal &TL, "
         "std::int32_t &Changed, int TaskIdx, int TaskCount) {\n";
  Out += "  using namespace egacs::simd;\n";
  Out += "  (void)Sched; (void)In; (void)Out; (void)TL; (void)Changed;\n";
  emitPrefetchPlan(Out, P, K);
  if (K.Topology)
    Out += "  std::int32_t ChangedCount = 0;\n";
  Emitter E(Out, P, K.Topology);
  E.hoistEdgeBodies(K);
  for (const auto &S : K.Body)
    E.stmt(*S, "M_outer");
  // Kernel epilogue: drain NP-staged low-degree edges through the hoisted
  // edge body, then fiber-local pushes. One edge loop per kernel is
  // supported when NP is enabled (all Table VIII operators satisfy this).
  if (E.HasNpLoop)
    Out += "  TL.Np.flush<BK>(G, " + E.firstEdgeFnName() + ");\n";
  if (E.UsesFiberCc)
    Out += "  TL.Local.flush(Out);\n";
  if (E.UsesChanged) {
    Out += "  if (ChangedCount)\n";
    Out += "    atomicAddGlobal(&Changed, ChangedCount);\n";
  }
  Out += "}\n\n";
}

void emitPipe(std::string &Out, const Program &P, const Pipe &Pp,
              const CodeGenOptions &Opts) {
  // A pipe whose kernels are all topology-driven converges on the
  // relaxation count; worklist pipes drain their frontier.
  bool Fixpoint = !Pp.Invocations.empty();
  for (const std::string &Inv : Pp.Invocations) {
    const Kernel *K = const_cast<Program &>(P).findKernel(Inv);
    Fixpoint &= K && K->Topology;
  }

  Out += "/// Pipe " + Pp.Name + (Pp.Outlined ? " (outlined)" : "") +
         (Fixpoint ? ": iterates its kernels to a relaxation fixpoint.\n"
                   : ": iterates its kernels until the worklist drains.\n");
  Out += "template <typename BK, typename GV>\n";
  Out += "void " + Pp.Name + "_run(const GV &G, KernelConfig Cfg, " +
         P.Name + "_State &State, NodeId Source) {\n";
  Out += "  Cfg.IterationOutlining = " +
         std::string(Pp.Outlined ? "true" : "false") + ";\n";
  if (Fixpoint) {
    Out += "  (void)Source;\n";
    Out += "  WorklistPair WL(64);\n";
  } else {
    Out += "  WorklistPair WL(2 * (static_cast<std::size_t>(G.numEdges()) + "
           "G.numNodes()) + 64);\n";
    Out += "  WL.in().pushSerial(Source);\n";
  }
  Out += "  auto Locals = makeTaskLocals(Cfg);\n";
  // Traced runs: open a run named after the pipe and hand each task its
  // span ring, mirroring engine::Run's wiring.
  Out += "  EGACS_TRACED(if (Cfg.Trace) {\n";
  Out += "    Cfg.Trace->beginRun(\"irgl:" + Pp.Name + "\");\n";
  Out += "    for (std::size_t T = 0; T < Locals.size(); ++T)\n";
  Out += "      Locals[T]->Trace = "
         "Cfg.Trace->taskTrace(static_cast<int>(T));\n";
  Out += "  })\n";
  // One shared scheduler per pipe run; sized for the largest loop any
  // kernel of the pipe can see (node sweeps or the worklist's capacity).
  Out += "  auto Sched = makeLoopScheduler(Cfg, "
         "2 * (static_cast<std::int64_t>(G.numEdges()) + G.numNodes()) + "
         "64);\n";
  Out += "  std::int32_t Changed = 0;\n";
  // Round 0's frontier: every node for a fixpoint sweep (as bfs-tp reports
  // it), the seeded worklist otherwise; the advance returns the next one.
  std::string Frontier =
      Fixpoint ? "{G.numNodes(), \"dense\"}" : "{WL.in().size(), \"push\"}";
  Out += "  runPipe(Cfg, " + Frontier + ", std::vector<TaskFn>{\n";
  for (const std::string &Inv : Pp.Invocations) {
    Out += "    TaskFn([&](int TaskIdx, int TaskCount) {\n";
    Out += "      " + Inv +
           "_kernel<BK>(Cfg, *Sched, G, State, WL.in(), WL.out(), "
           "*Locals[TaskIdx], Changed, TaskIdx, TaskCount);\n";
    Out += "    }),\n";
  }
  Out += "  }, [&]() -> NextRound {\n";
  if (Fixpoint) {
    Out += "    bool More = Changed != 0;\n";
    Out += "    Changed = 0;\n";
    Out += "    if (!More)\n";
  } else {
    Out += "    WL.swap();\n";
    Out += "    if (WL.in().empty())\n";
  }
  Out += "      return std::nullopt;\n";
  Out += "    return RoundFrontier" + Frontier + ";\n";
  Out += "  });\n";
  Out += "  EGACS_TRACED(if (Cfg.Trace) Cfg.Trace->endRun();)\n";
  Out += "}\n\n";

  // Convenience driver: the emitted kernels are layout-generic, this
  // materializes the layout the compiler was configured with (--layout=)
  // over a bare CSR and dispatches into the templated _run.
  Out += "/// Builds the " +
         std::string(egacs::layoutName(Opts.Layout)) +
         " layout over \\p G and runs " + Pp.Name + "_run through it.\n";
  Out += "template <typename BK>\n";
  Out += "void " + Pp.Name + "_run_auto(const Csr &G, KernelConfig Cfg, " +
         P.Name + "_State &State, NodeId Source) {\n";
  Out += "  LayoutOptions LOpts;\n";
  Out += "  LOpts.SellChunk = BK::Width;\n";
  Out += "  LOpts.SellSigma = Cfg.SellSigma;\n";
  Out += "  Cfg.Dir = Direction::" +
         std::string(directionEnumName(Opts.Dir)) + ";\n";
  Out += "  Cfg.AlphaNum = " + std::to_string(Opts.AlphaNum) + ";\n";
  Out += "  Cfg.BetaDenom = " + std::to_string(Opts.BetaDenom) + ";\n";
  Out += "  AnyLayout Layout = AnyLayout::build(LayoutKind::" +
         std::string(layoutEnumName(Opts.Layout)) + ", G, LOpts);\n";
  if (Opts.Dir != egacs::Direction::Push)
    Out += "  Layout.buildTranspose(LOpts);\n";
  Out += "  Layout.visit([&](const auto &View) {\n";
  Out += "    " + Pp.Name + "_run<BK>(View, Cfg, State, Source);\n";
  Out += "  });\n";
  Out += "}\n\n";
}

} // namespace

std::string egacs::irgl::emitCpp(const Program &P,
                                 const CodeGenOptions &Opts) {
  std::string Out;
  Out += "// Generated by the EGACS mini IrGL compiler from program '" +
         P.Name + "'.\n";
  Out += "// Backend: egacs SPMD C++ (the role ISPC plays in the paper).\n";
  Out += "#include \"engine/Engine.h\"\n";
  Out += "#include \"kernels/Kernels.h\"\n\n";
  Out += "namespace " + Opts.Namespace + " {\n\n";
  Out += "using namespace egacs;\n";
  Out += "using namespace egacs::simd;\n\n";

  // State struct: one pointer per program array.
  Out += "/// Arrays of program '" + P.Name + "'.\n";
  Out += "struct " + P.Name + "_State {\n";
  for (const ArrayDecl &A : P.Arrays)
    Out += "  " + A.ElemType + " *" + A.Name + " = nullptr;\n";
  Out += "};\n\n";

  for (const Kernel &K : P.Kernels)
    emitKernel(Out, P, K);
  for (const Pipe &Pp : P.Pipes)
    emitPipe(Out, P, Pp, Opts);

  Out += "} // namespace " + Opts.Namespace + "\n";
  return Out;
}
