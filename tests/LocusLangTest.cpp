//===- LocusLangTest.cpp - Locus language and interpreter tests --------------===//

#include "src/analysis/RegionDiscovery.h"
#include "src/cir/Parser.h"
#include "src/cir/PathIndex.h"
#include "src/cir/Printer.h"
#include "src/locus/Interpreter.h"
#include "src/locus/LocusParser.h"
#include "src/search/Search.h"
#include "src/workloads/Workloads.h"

#include <gtest/gtest.h>

namespace locus {
namespace {

using namespace lang;

std::unique_ptr<LocusProgram> parseLocusOrDie(const std::string &Src) {
  auto P = parseLocusProgram(Src);
  EXPECT_TRUE(P.ok()) << P.message();
  return P.ok() ? std::move(*P) : nullptr;
}

std::unique_ptr<cir::Program> parseCOrDie(const std::string &Src) {
  auto P = cir::parseProgram(Src);
  EXPECT_TRUE(P.ok()) << P.message();
  return P.ok() ? std::move(*P) : nullptr;
}

const search::ParamDef *findByLabel(const search::Space &S,
                                    const std::string &Label) {
  for (const search::ParamDef &P : S.Params)
    if (P.Label == Label)
      return &P;
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Parsing
//===----------------------------------------------------------------------===//

TEST(LocusParser, ParsesFig5) {
  auto P = parseLocusOrDie(workloads::dgemmLocusFig5());
  ASSERT_NE(P, nullptr);
  EXPECT_EQ(P->Imports.size(), 1u);
  EXPECT_EQ(P->OptSeqs.size(), 2u);
  EXPECT_EQ(P->Defs.size(), 1u);
  ASSERT_EQ(P->CodeRegs.size(), 1u);
  EXPECT_EQ(P->CodeRegs[0].first, "matmul");
}

TEST(LocusParser, ParsesFig7WithSearchBlock) {
  auto P = parseLocusOrDie(workloads::dgemmLocusFig7(512));
  ASSERT_NE(P, nullptr);
  EXPECT_TRUE(P->HasSearchBlock);
}

TEST(LocusParser, ParsesFig9Fig11Fig13) {
  EXPECT_NE(parseLocusOrDie(workloads::stencilLocusFig9(16, 128)), nullptr);
  for (const std::string &Kernel : workloads::kripkeKernels())
    EXPECT_NE(parseLocusOrDie(workloads::kripkeLocusFig11(Kernel)), nullptr)
        << Kernel;
  EXPECT_NE(parseLocusOrDie(analysis::genericLocusProgram("scop")), nullptr);
}

TEST(LocusParser, RangeLexing) {
  // "2..32" must not lex as a float.
  auto P = parseLocusOrDie("CodeReg r { x = poweroftwo(2..32); }");
  ASSERT_NE(P, nullptr);
}

TEST(LocusParser, ReportsSyntaxErrors) {
  EXPECT_FALSE(parseLocusProgram("CodeReg {").ok());
  EXPECT_FALSE(parseLocusProgram("OptSeq Foo() { x = ; }").ok());
  EXPECT_FALSE(parseLocusProgram("import 3;").ok());
}

//===----------------------------------------------------------------------===//
// Search settings
//===----------------------------------------------------------------------===//

TEST(LocusInterp, SearchBlockSettings) {
  auto P = parseLocusOrDie(workloads::dgemmLocusFig7(512));
  ModuleRegistry Reg = ModuleRegistry::standard();
  LocusInterpreter Interp(*P, Reg);
  auto Settings = Interp.searchSettings();
  ASSERT_TRUE(Settings.ok());
  EXPECT_EQ(Settings->getString("buildcmd"), "make clean; make");
  EXPECT_EQ(Settings->getString("runcmd"), "./matmul");
}

//===----------------------------------------------------------------------===//
// Space extraction
//===----------------------------------------------------------------------===//

TEST(LocusInterp, Fig5SpaceShape) {
  auto LP = parseLocusOrDie(workloads::dgemmLocusFig5());
  auto CP = parseCOrDie(workloads::dgemmSource(16, 16, 16));
  ModuleRegistry Reg = ModuleRegistry::standard();
  LocusInterpreter Interp(*LP, Reg);
  search::Space Space;
  transform::TransformContext TCtx;
  TCtx.Prog = CP.get();
  ExecOutcome O = Interp.extractSpace(*CP, Space, TCtx);
  ASSERT_TRUE(O.Ok) << O.Error;

  ASSERT_EQ(Space.Params.size(), 3u) << Space.describe();
  const search::ParamDef *TileI = findByLabel(Space, "tileI");
  ASSERT_NE(TileI, nullptr);
  EXPECT_EQ(TileI->Kind, search::ParamKind::Pow2);
  EXPECT_EQ(TileI->cardinality(), 5u); // 2,4,8,16,32
  const search::ParamDef *Or = findByLabel(Space, "or:tiletype");
  ASSERT_NE(Or, nullptr);
  EXPECT_EQ(Or->cardinality(), 2u);

  // Tiling2D's 25 points (5x5) are the paper's count for that OptSeq.
  EXPECT_EQ(Space.valueSize(), 25u);
  EXPECT_EQ(Space.fullSize(), 50u);
}

TEST(LocusInterp, Fig7SpaceMatchesPaperCount) {
  auto LP = parseLocusOrDie(workloads::dgemmLocusFig7(512));
  auto CP = parseCOrDie(workloads::dgemmSource(32, 32, 32));
  ModuleRegistry Reg = ModuleRegistry::standard();
  LocusInterpreter Interp(*LP, Reg);
  search::Space Space;
  transform::TransformContext TCtx;
  TCtx.Prog = CP.get();
  ExecOutcome O = Interp.extractSpace(*CP, Space, TCtx);
  ASSERT_TRUE(O.Ok) << O.Error;

  // 6 pow2 + OR-block + schedule enum + chunk integer.
  EXPECT_EQ(Space.Params.size(), 9u) << Space.describe();
  // The paper (via OpenTuner) reports 34,012,224 variants for Fig. 7:
  // 9^6 tile combinations x 2 schedules x 32 chunks.
  EXPECT_EQ(Space.valueSize(), 34012224u) << Space.describe();

  // Dependent ranges: tileI_2's max is tied to tileI.
  const search::ParamDef *TileI2 = findByLabel(Space, "tileI_2");
  ASSERT_NE(TileI2, nullptr);
  EXPECT_EQ(TileI2->Max, 512);
  const search::ParamDef *TileI = findByLabel(Space, "tileI");
  ASSERT_NE(TileI, nullptr);
  EXPECT_EQ(TileI2->DependsOnMaxParam, TileI->Id);
}

TEST(LocusInterp, Fig13ConditionalSpacePruning) {
  // A depth-1 nest: the interchange/unroll-and-jam constructs guarded by
  // depth > 1 must not enter the space (Section IV-C).
  const char *Saxpy = R"(
#define N 32
double x[N];
double y[N];
double a;
int main() {
  int i;
#pragma @Locus loop=scop
  for (i = 0; i < N; i++)
    y[i] = y[i] + a * x[i];
}
)";
  auto LP = parseLocusOrDie(analysis::genericLocusProgram("scop"));
  auto CP = parseCOrDie(Saxpy);
  ModuleRegistry Reg = ModuleRegistry::standard();
  LocusInterpreter Interp(*LP, Reg);
  search::Space Space;
  transform::TransformContext TCtx;
  TCtx.Prog = CP.get();
  ExecOutcome O = Interp.extractSpace(*CP, Space, TCtx);
  ASSERT_TRUE(O.Ok) << O.Error;

  EXPECT_EQ(findByLabel(Space, "permorder"), nullptr) << Space.describe();
  EXPECT_EQ(findByLabel(Space, "UAJfac"), nullptr) << Space.describe();
  EXPECT_NE(findByLabel(Space, "T1fac"), nullptr) << Space.describe();
  const search::ParamDef *T1 = findByLabel(Space, "indexT1");
  ASSERT_NE(T1, nullptr);
  EXPECT_EQ(T1->Min, 1);
  EXPECT_EQ(T1->Max, 1); // depth queried as 1

  // Depth-3 matmul keeps the full conditional space.
  auto CP2 = parseCOrDie(workloads::dgemmSource(16, 16, 16));
  // Rename region matmul -> scop for the generic program.
  std::string Src2 = workloads::dgemmSource(16, 16, 16);
  size_t Pos = Src2.find("loop=matmul");
  Src2.replace(Pos, 11, "loop=scop");
  auto CP3 = parseCOrDie(Src2);
  search::Space Space2;
  transform::TransformContext TCtx2;
  TCtx2.Prog = CP3.get();
  ExecOutcome O2 = Interp.extractSpace(*CP3, Space2, TCtx2);
  ASSERT_TRUE(O2.Ok) << O2.Error;
  EXPECT_NE(findByLabel(Space2, "permorder"), nullptr) << Space2.describe();
  EXPECT_NE(findByLabel(Space2, "UAJfac"), nullptr);
  const search::ParamDef *Perm = findByLabel(Space2, "permorder");
  EXPECT_EQ(Perm->PermSize, 3);
  EXPECT_EQ(Perm->cardinality(), 6u);
}

TEST(LocusInterp, IndirectAccessDisablesDependentConstructs) {
  const char *Indirect = R"(
#define N 32
double A[N];
double B[N];
int idx[N];
int main() {
  int i;
#pragma @Locus loop=scop
  for (i = 0; i < N; i++)
    A[idx[i]] = A[idx[i]] + B[i];
}
)";
  auto LP = parseLocusOrDie(analysis::genericLocusProgram("scop"));
  auto CP = parseCOrDie(Indirect);
  ModuleRegistry Reg = ModuleRegistry::standard();
  LocusInterpreter Interp(*LP, Reg);
  search::Space Space;
  transform::TransformContext TCtx;
  TCtx.Prog = CP.get();
  ExecOutcome O = Interp.extractSpace(*CP, Space, TCtx);
  ASSERT_TRUE(O.Ok) << O.Error;
  // IsDepAvailable() is false: only the final unroll survives.
  EXPECT_EQ(findByLabel(Space, "T1fac"), nullptr) << Space.describe();
  ASSERT_EQ(Space.Params.size(), 1u) << Space.describe();
  EXPECT_EQ(Space.Params[0].Kind, search::ParamKind::Pow2);
}

//===----------------------------------------------------------------------===//
// Concrete execution
//===----------------------------------------------------------------------===//

search::Point pointFor(const search::Space &Space,
                       const std::map<std::string, search::PointValue> &ByLabel) {
  search::Point P;
  for (const search::ParamDef &Def : Space.Params) {
    auto It = ByLabel.find(Def.Label);
    if (It != ByLabel.end()) {
      P.Values[Def.Id] = It->second;
      continue;
    }
    // Default: first enumerable value.
    P.Values[Def.Id] = search::enumerateValues(Def)[0];
  }
  return P;
}

TEST(LocusInterp, Fig5ConcreteBothAlternatives) {
  auto LP = parseLocusOrDie(workloads::dgemmLocusFig5());
  ModuleRegistry Reg = ModuleRegistry::standard();
  LocusInterpreter Interp(*LP, Reg);

  auto CP = parseCOrDie(workloads::dgemmSource(16, 16, 16));
  search::Space Space;
  transform::TransformContext TCtx;
  TCtx.Prog = CP.get();
  ASSERT_TRUE(Interp.extractSpace(*CP, Space, TCtx).Ok);

  // Alternative 0: 2D tiling (tileI=4, tileJ=8) then unroll.
  {
    auto Target = parseCOrDie(workloads::dgemmSource(16, 16, 16));
    transform::TransformContext Ctx;
    Ctx.Prog = Target.get();
    search::Point P = pointFor(Space, {{"or:tiletype", int64_t(0)},
                                       {"tileI", int64_t(4)},
                                       {"tileJ", int64_t(8)}});
    ExecOutcome O = Interp.applyPoint(*Target, P, Ctx);
    ASSERT_TRUE(O.Ok) << O.Error;
    EXPECT_FALSE(O.InvalidPoint) << O.InvalidReason;
    EXPECT_GE(O.TransformsApplied, 2); // tiling + unroll
    ASSERT_FALSE(O.Log.empty());
    EXPECT_EQ(O.Log[0], "Tiling selected: 2D");
    cir::Block *Region = Target->findRegions("matmul")[0];
    // 2 tile loops + 3 element loops; innermost unrolled by 4 into the k
    // remainder structure.
    EXPECT_GE(cir::listLoops(*Region).size(), 5u);
  }

  // Alternative 1: fixed 3D tiling, no unroll.
  {
    auto Target = parseCOrDie(workloads::dgemmSource(16, 16, 16));
    transform::TransformContext Ctx;
    Ctx.Prog = Target.get();
    search::Point P = pointFor(Space, {{"or:tiletype", int64_t(1)}});
    ExecOutcome O = Interp.applyPoint(*Target, P, Ctx);
    ASSERT_TRUE(O.Ok) << O.Error;
    ASSERT_FALSE(O.Log.empty());
    EXPECT_EQ(O.Log[0], "Tiling selected: 3D");
    cir::Block *Region = Target->findRegions("matmul")[0];
    EXPECT_EQ(cir::listLoops(*Region).size(), 6u);
  }
}

TEST(LocusInterp, Fig7DependentRangeInvalidatesPoint) {
  auto LP = parseLocusOrDie(workloads::dgemmLocusFig7(64));
  ModuleRegistry Reg = ModuleRegistry::standard();
  LocusInterpreter Interp(*LP, Reg);
  auto CP = parseCOrDie(workloads::dgemmSource(32, 32, 32));
  search::Space Space;
  transform::TransformContext TCtx;
  TCtx.Prog = CP.get();
  ASSERT_TRUE(Interp.extractSpace(*CP, Space, TCtx).Ok);

  // tileI_2 = 32 > tileI = 8 must invalidate the variant.
  auto Target = parseCOrDie(workloads::dgemmSource(32, 32, 32));
  transform::TransformContext Ctx;
  Ctx.Prog = Target.get();
  search::Point P = pointFor(Space, {{"tileI", int64_t(8)},
                                     {"tileK", int64_t(8)},
                                     {"tileJ", int64_t(8)},
                                     {"tileI_2", int64_t(32)},
                                     {"tileK_2", int64_t(4)},
                                     {"tileJ_2", int64_t(4)}});
  ExecOutcome O = Interp.applyPoint(*Target, P, Ctx);
  ASSERT_TRUE(O.Ok) << O.Error;
  EXPECT_TRUE(O.InvalidPoint);
  EXPECT_NE(O.InvalidReason.find("violates range"), std::string::npos)
      << O.InvalidReason;
}

TEST(LocusInterp, Fig9StencilConcrete) {
  auto LP = parseLocusOrDie(workloads::stencilLocusFig9(4, 16));
  ModuleRegistry Reg = ModuleRegistry::standard();
  LocusInterpreter Interp(*LP, Reg);
  std::string Src = workloads::stencilSource(workloads::StencilKind::Heat2D, 6, 10);
  auto CP = parseCOrDie(Src);
  search::Space Space;
  transform::TransformContext TCtx;
  TCtx.Prog = CP.get();
  ASSERT_TRUE(Interp.extractSpace(*CP, Space, TCtx).Ok);
  ASSERT_EQ(Space.Params.size(), 1u) << Space.describe();

  auto Target = parseCOrDie(Src);
  transform::TransformContext Ctx;
  Ctx.Prog = Target.get();
  search::Point P = pointFor(Space, {{"skew1", int64_t(4)}});
  ExecOutcome O = Interp.applyPoint(*Target, P, Ctx);
  ASSERT_TRUE(O.Ok) << O.Error;
  EXPECT_FALSE(O.InvalidPoint) << O.InvalidReason;
  cir::Block *Region = Target->findRegions("stencil")[0];
  EXPECT_EQ(cir::listLoops(*Region).size(), 6u); // 3 tile + 3 intra
  // Vector pragmas landed on the innermost loop.
  auto Inner = cir::listInnerLoops(*Region);
  ASSERT_EQ(Inner.size(), 1u);
  EXPECT_EQ(Inner[0].Loop->Pragmas.size(), 2u);
}

TEST(LocusInterp, UnknownRegionWarnsButSucceeds) {
  auto LP = parseLocusOrDie("CodeReg nothere { RoseLocus.LICM(); }");
  ModuleRegistry Reg = ModuleRegistry::standard();
  LocusInterpreter Interp(*LP, Reg);
  auto CP = parseCOrDie(workloads::dgemmSource(8, 8, 8));
  transform::TransformContext Ctx;
  Ctx.Prog = CP.get();
  ExecOutcome O = Interp.applyDirect(*CP, Ctx);
  EXPECT_TRUE(O.Ok) << O.Error;
  ASSERT_EQ(O.Log.size(), 1u);
  EXPECT_NE(O.Log[0].find("no code region"), std::string::npos);
}

TEST(LocusInterp, DefCannotInvokeModules) {
  const char *Src = R"(
def bad() {
  RoseLocus.LICM();
}
CodeReg matmul {
  bad();
}
)";
  auto LP = parseLocusOrDie(Src);
  ModuleRegistry Reg = ModuleRegistry::standard();
  LocusInterpreter Interp(*LP, Reg);
  auto CP = parseCOrDie(workloads::dgemmSource(8, 8, 8));
  transform::TransformContext Ctx;
  Ctx.Prog = CP.get();
  ExecOutcome O = Interp.applyDirect(*CP, Ctx);
  EXPECT_FALSE(O.Ok);
  EXPECT_NE(O.Error.find("def methods"), std::string::npos) << O.Error;
}

TEST(LocusInterp, ControlFlowAndDataStructures) {
  const char *Src = R"(
CodeReg matmul {
  xs = [1, 2, 3];
  total = 0;
  for (i = 0; i < len(xs); i = i + 1) {
    total = total + xs[i];
  }
  d = dict();
  t = (total, "done");
  while (total < 10) {
    total = total + 2;
  }
  print str(total) + " " + t[1];
}
)";
  auto LP = parseLocusOrDie(Src);
  ModuleRegistry Reg = ModuleRegistry::standard();
  LocusInterpreter Interp(*LP, Reg);
  auto CP = parseCOrDie(workloads::dgemmSource(8, 8, 8));
  transform::TransformContext Ctx;
  Ctx.Prog = CP.get();
  ExecOutcome O = Interp.applyDirect(*CP, Ctx);
  ASSERT_TRUE(O.Ok) << O.Error;
  ASSERT_EQ(O.Log.size(), 1u);
  EXPECT_EQ(O.Log[0], "10 done");
}

} // namespace
} // namespace locus
