//===- OptimizerTest.cpp - Locus-program optimizer tests (Section IV-C) -------===//

#include "src/analysis/RegionDiscovery.h"
#include "src/cir/Parser.h"
#include "src/locus/Interpreter.h"
#include "src/locus/LocusParser.h"
#include "src/locus/Optimizer.h"
#include "src/search/Search.h"
#include "src/support/Rng.h"
#include "src/workloads/Workloads.h"

#include <gtest/gtest.h>

namespace locus {
namespace {

using namespace lang;

std::unique_ptr<LocusProgram> parseL(const std::string &Src) {
  auto P = parseLocusProgram(Src);
  EXPECT_TRUE(P.ok()) << P.message();
  return P.ok() ? std::move(*P) : nullptr;
}

std::unique_ptr<cir::Program> parseC(const std::string &Src) {
  auto P = cir::parseProgram(Src);
  EXPECT_TRUE(P.ok()) << P.message();
  return P.ok() ? std::move(*P) : nullptr;
}

struct Optimized {
  std::unique_ptr<LocusProgram> Prog;
  OptimizeStats Stats;
};

Optimized optimize(const LocusProgram &Prog, cir::Program &Target) {
  ModuleRegistry Registry = ModuleRegistry::standard();
  transform::TransformContext TCtx;
  TCtx.Prog = &Target;
  Optimized Out;
  Out.Prog = optimizeLocusProgram(Prog, Target, Registry, TCtx, &Out.Stats);
  return Out;
}

TEST(LocusOptimizer, FoldsConstantsAndArithmetic) {
  auto LP = parseL(R"(
CodeReg matmul {
  a = 4;
  b = a * 2 + 1;
  c = b > 8;
  if (c) {
    print "big";
  } else {
    print "small";
  }
}
)");
  auto CP = parseC(workloads::dgemmSource(8, 8, 8));
  Optimized O = optimize(*LP, *CP);
  EXPECT_GT(O.Stats.ConstantsFolded, 0);
  EXPECT_EQ(O.Stats.BranchesPruned, 1);
  // The if is gone: its taken branch was inlined.
  const LBlock &Body = O.Prog->CodeRegs[0].second;
  bool HasIf = false;
  for (const LStmtPtr &S : Body.Stmts)
    if (S->Kind == LStmtKind::If)
      HasIf = true;
  EXPECT_FALSE(HasIf);
}

TEST(LocusOptimizer, SubstitutesQueries) {
  auto LP = parseL(R"(
CodeReg matmul {
  depth = BuiltIn.LoopNestDepth();
  if (depth > 1) {
    f = poweroftwo(2..8);
    RoseLocus.Tiling(loop="0", factor=[f, f]);
  }
}
)");
  auto CP = parseC(workloads::dgemmSource(8, 8, 8)); // depth 3
  Optimized O = optimize(*LP, *CP);
  EXPECT_EQ(O.Stats.QueriesSubstituted, 1);
  EXPECT_EQ(O.Stats.BranchesPruned, 1); // depth > 1 is constant-true
}

TEST(LocusOptimizer, PrunesDeadSubspaces) {
  // On a depth-1 nest the Fig. 13 tiling/unroll-and-jam constructs vanish.
  const char *Saxpy = R"(
#define N 16
double x[N];
double y[N];
int main() {
  int i;
#pragma @Locus loop=scop
  for (i = 0; i < N; i++)
    y[i] = y[i] + x[i];
}
)";
  auto LP = parseL(analysis::genericLocusProgram("scop"));
  auto CP = parseC(Saxpy);
  Optimized O = optimize(*LP, *CP);
  EXPECT_GE(O.Stats.QueriesSubstituted, 2);
  EXPECT_GT(O.Stats.BranchesPruned, 0);
  EXPECT_GT(O.Stats.StmtsRemoved, 0); // the depth>1 arm's statements died
}

TEST(LocusOptimizer, PreservesSpaceAndSemantics) {
  // The optimized program must expose the same space and produce the same
  // variants as the raw one.
  auto LP = parseL(analysis::genericLocusProgram("scop"));
  std::string Src = workloads::dgemmSource(12, 12, 12);
  size_t Pos = Src.find("loop=matmul");
  Src.replace(Pos, 11, "loop=scop");
  auto CP = parseC(Src);
  Optimized O = optimize(*LP, *CP);

  ModuleRegistry Registry = ModuleRegistry::standard();
  search::Space Raw, Opt;
  {
    auto C1 = CP->clone();
    transform::TransformContext T1;
    T1.Prog = C1.get();
    LocusInterpreter(*LP, Registry).extractSpace(*C1, Raw, T1);
    auto C2 = CP->clone();
    transform::TransformContext T2;
    T2.Prog = C2.get();
    LocusInterpreter(*O.Prog, Registry).extractSpace(*C2, Opt, T2);
  }
  ASSERT_EQ(Raw.Params.size(), Opt.Params.size());
  for (size_t I = 0; I < Raw.Params.size(); ++I) {
    EXPECT_EQ(Raw.Params[I].Id, Opt.Params[I].Id);
    EXPECT_EQ(Raw.Params[I].cardinality(), Opt.Params[I].cardinality());
  }

  // A pinned point produces structurally identical variants either way.
  Rng R(5);
  for (int Trial = 0; Trial < 5; ++Trial) {
    search::Point P = search::samplePoint(Raw, R);
    auto V1 = CP->clone();
    auto V2 = CP->clone();
    transform::TransformContext T1, T2;
    T1.Prog = V1.get();
    T2.Prog = V2.get();
    ExecOutcome O1 = LocusInterpreter(*LP, Registry).applyPoint(*V1, P, T1);
    ExecOutcome O2 = LocusInterpreter(*O.Prog, Registry).applyPoint(*V2, P, T2);
    EXPECT_EQ(O1.Ok, O2.Ok);
    EXPECT_EQ(O1.InvalidPoint, O2.InvalidPoint);
    EXPECT_EQ(O1.TransformsApplied, O2.TransformsApplied);
  }
}

TEST(LocusOptimizer, DoesNotFoldThroughLoopsOrSearchValues) {
  auto LP = parseL(R"(
CodeReg matmul {
  a = 1;
  for (i = 0; i < 3; i = i + 1) {
    a = a * 2;
  }
  choice = enum("x", "y");
  if (choice == "x") {
    print "px";
  }
  if (a > 4) {
    print "pa";
  }
}
)");
  auto CP = parseC(workloads::dgemmSource(8, 8, 8));
  Optimized O = optimize(*LP, *CP);
  // Neither conditional may be pruned: 'a' changes in the loop, 'choice' is
  // a search variable.
  int Ifs = 0;
  for (const LStmtPtr &S : O.Prog->CodeRegs[0].second.Stmts)
    if (S->Kind == LStmtKind::If)
      ++Ifs;
  EXPECT_EQ(Ifs, 2);
}

} // namespace
} // namespace locus
