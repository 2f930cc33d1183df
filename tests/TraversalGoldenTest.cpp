//===- TraversalGoldenTest.cpp - Pinned text of traversal-ordered output --===//
//
// Every analysis and transform walks the AST through the one traversal in
// src/cir/AstUtils.h, and the order of that walk shows up in text: variant
// code, LICM and scalar-replacement temporary names, dependence lists,
// parallel-safety witnesses, bounds findings and discovery reports. This
// test pins that text byte for byte against tests/golden/traversal.txt, so
// a change to the traversal that reorders anything fails here even when the
// variants stay semantically equivalent.
//
// The golden file holds one section per case, each introduced by a line
// "=== NAME". To review a deliberate change, compare the failure output
// against the file and edit the section by hand.
//
//===----------------------------------------------------------------------===//

#include "src/analysis/Dependence.h"
#include "src/analysis/ParallelSafety.h"
#include "src/analysis/RangeAnalysis.h"
#include "src/analysis/RegionDiscovery.h"
#include "src/cir/AstUtils.h"
#include "src/cir/Parser.h"
#include "src/cir/Printer.h"
#include "src/transform/AltdescPragmas.h"
#include "src/transform/FusionDistribution.h"
#include "src/transform/GenericTiling.h"
#include "src/transform/Interchange.h"
#include "src/transform/LicmScalarRepl.h"
#include "src/transform/Tiling.h"
#include "src/transform/Unroll.h"
#include "src/workloads/Workloads.h"

#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <tuple>

namespace locus {
namespace {

using namespace cir;
using namespace transform;

using Section = std::pair<std::string, std::string>;

const char *Matmul = R"(
#define M 12
#define N 10
#define K 9
double A[M][K];
double B[K][N];
double C[M][N];
double alpha;
double beta;
int main() {
  int i, j, k;
#pragma @Locus loop=r
  for (i = 0; i < M; i++)
    for (j = 0; j < N; j++)
      for (k = 0; k < K; k++)
        C[i][j] = beta * C[i][j] + alpha * A[i][k] * B[k][j];
  return 0;
}
)";

const char *Heat1d = R"(
#define T 7
#define N 30
double A[2][N + 2];
int main() {
  int t, i;
#pragma @Locus loop=r
  for (t = 0; t < T; t++)
    for (i = 1; i < N + 1; i++)
      A[(t + 1) % 2][i] = 0.125 * (A[t % 2][i + 1] - 2.0 * A[t % 2][i] + A[t % 2][i - 1]) + A[t % 2][i];
}
)";

const char *TwoLoops = R"(
#define N 16
double A[N];
double B[N];
double C[N];
int main() {
  int i;
#pragma @Locus block=r
  for (i = 0; i < N; i++)
    A[i] = B[i] + 1.0;
  for (i = 0; i < N; i++)
    C[i] = A[i] * 2.0;
#pragma @Locus endblock
}
)";

const char *Recurrence = R"(
#define N 16
double A[N];
double B[N];
double C[N];
double D[N];
int main() {
  int i;
#pragma @Locus loop=r
  for (i = 1; i < N; i++) {
    A[i] = A[i - 1] + B[i];
    C[i] = D[i] * 2.0;
  }
}
)";

const char *Placeholder = R"(
#define N 8
double A[N];
int main() {
  int i;
#pragma @Locus loop=r
  for (i = 0; i < N; i++) {
    A[i] = 1.0;
    compute_here();
  }
}
)";

// Three maximal invariant subtrees in one statement, so the temporaries'
// numbering follows the scan order.
const char *Invariants = R"(
#define N 12
double A[N][N];
double B[N];
double D[N];
double c;
double e;
int main() {
  int i, j;
#pragma @Locus loop=r
  for (i = 0; i < N; i++)
    for (j = 0; j < N; j++)
      A[i][j] = B[i] * c * A[i][j] + D[i] * e + c * e;
}
)";

const char *TwoGroups = R"(
#define N 10
double A[N][N];
double B[N][N];
double C[N][N];
double D[N][N];
int main() {
  int i, j, k;
#pragma @Locus loop=r
  for (i = 0; i < N; i++)
    for (j = 0; j < N; j++)
      for (k = 0; k < N; k++) {
        C[i][j] = C[i][j] + A[i][k] * B[k][j];
        D[j][i] = D[j][i] + A[i][k];
      }
}
)";

using ApplyFn = std::function<TransformResult(Block &, TransformContext &)>;

/// Parses \p Src, applies \p Apply to its region "r" and prints the region.
std::string variant(const std::string &Src, const ApplyFn &Apply) {
  auto P = parseProgram(Src);
  if (!P.ok())
    return "parse error: " + P.message();
  std::vector<Block *> Regions = (*P)->findRegions("r");
  if (Regions.size() != 1)
    return "expected one region r";
  TransformContext Ctx;
  Ctx.Prog = P->get();
  Ctx.Snippets["patch"] = "A[i] = A[i] * 3.0;";
  TransformResult R = Apply(*Regions[0], Ctx);
  if (!R.succeeded())
    return "transform failed: " + R.Message;
  return printStmt(*Regions[0]);
}

std::vector<Section> transformSections() {
  TilingArgs Band;
  Band.Factors = {4, 4, 4};
  TilingArgs Single;
  Single.SingleLoopDepth = 3;
  Single.Factors = {4};
  GenericTilingArgs Skew;
  Skew.Matrix = {{4, 0}, {-4, 4}};
  InterchangeArgs Inter;
  Inter.Order = {0, 2, 1};
  UnrollArgs Unr;
  Unr.LoopPath = "0.0.0";
  Unr.Factor = 4;
  UnrollAndJamArgs Jam;
  Jam.Depth = 2;
  Jam.Factor = 3;
  AltdescArgs Alt;
  Alt.StmtPath = "0.1";
  Alt.Source = "patch";

  const std::vector<std::tuple<std::string, const char *, ApplyFn>> Cases = {
      {"tiling-band", Matmul,
       [&](Block &R, TransformContext &C) { return applyTiling(R, Band, C); }},
      {"tiling-single", Matmul,
       [&](Block &R, TransformContext &C) {
         return applyTiling(R, Single, C);
       }},
      {"generic-tiling", Heat1d,
       [&](Block &R, TransformContext &C) {
         return applyGenericTiling(R, Skew, C);
       }},
      {"interchange", Matmul,
       [&](Block &R, TransformContext &C) {
         return applyInterchange(R, Inter, C);
       }},
      {"unroll", Matmul,
       [&](Block &R, TransformContext &C) { return applyUnroll(R, Unr, C); }},
      {"unroll-and-jam", Matmul,
       [&](Block &R, TransformContext &C) {
         return applyUnrollAndJam(R, Jam, C);
       }},
      {"fusion", TwoLoops,
       [](Block &R, TransformContext &C) {
         return applyFusion(R, FusionArgs(), C);
       }},
      {"distribution", Recurrence,
       [](Block &R, TransformContext &C) {
         return applyDistribution(R, DistributionArgs(), C);
       }},
      {"altdesc", Placeholder,
       [&](Block &R, TransformContext &C) { return applyAltdesc(R, Alt, C); }},
      {"licm", Invariants,
       [](Block &R, TransformContext &C) {
         return applyLicm(R, LicmArgs(), C);
       }},
      {"scalar-repl", TwoGroups,
       [](Block &R, TransformContext &C) {
         return applyScalarRepl(R, ScalarReplArgs(), C);
       }},
  };
  std::vector<Section> Out;
  for (const auto &[Name, Src, Apply] : Cases)
    Out.emplace_back(Name, variant(Src, Apply));
  return Out;
}

/// `omp parallel for` on loops whose classification yields private,
/// firstprivate and reduction clauses.
Section ompSection() {
  auto P = parseProgram(R"(
#define N 16
double A[N][N];
double x[N];
double s;
double t;
double w;
int main() {
  int i, j;
#pragma @Locus loop=r
  for (i = 0; i < N; i++) {
    t = x[i] * w;
    for (j = 0; j < N; j++) {
      A[i][j] = A[i][j] + t;
      s = s + A[i][j];
    }
  }
}
)");
  if (!P.ok())
    return {"omp-clauses", "parse error: " + P.message()};
  Block *Region = (*P)->findRegions("r")[0];
  TransformContext Ctx;
  OmpForArgs Omp;
  Omp.Schedule = "static";
  if (!applyOmpFor(*Region, Omp, Ctx).succeeded())
    return {"omp-clauses", "omp failed"};
  int Annotated = analysis::annotateOmpClauses(**P);
  return {"omp-clauses", "annotated " + std::to_string(Annotated) + "\n" +
                             printStmt(*Region)};
}

std::string renderDeps(const ForStmt &Root) {
  support::Diag Why;
  std::optional<analysis::DependenceInfo> Info =
      analysis::DependenceInfo::compute(Root, &Why);
  if (!Info)
    return "unavailable: " + Why.Message + "\n";
  const char *Kinds[] = {"flow", "anti", "output"};
  std::ostringstream Out;
  for (const analysis::Dependence &D : Info->deps()) {
    Out << D.SrcStmt << "->" << D.DstStmt << " " << D.Array << " "
        << Kinds[static_cast<int>(D.Kind)] << (D.IsScalar ? " scalar" : "")
        << " (" << std::string(D.Dirs.begin(), D.Dirs.end()) << ")\n";
  }
  return Out.str();
}

/// Dependences per outer nest, parallel-safety per loop, bounds and
/// discovery for one PolyBench kernel.
std::vector<Section> kernelSections(const std::string &Name) {
  std::vector<Section> Out;
  auto P = parseProgram(workloads::polybenchSource(Name, 16));
  if (!P.ok())
    return {{Name, "parse error: " + P.message()}};
  std::vector<const ForStmt *> Outer, All;
  collectOuterLoops(*(*P)->Body, Outer);
  collectAllLoops(*(*P)->Body, All);
  std::string Deps, Parallel;
  for (size_t I = 0; I < Outer.size(); ++I)
    Deps += "nest " + std::to_string(I) + "\n" + renderDeps(*Outer[I]);
  for (const ForStmt *L : All) {
    analysis::ParallelSafetyReport Rep = analysis::analyzeParallelLoop(*L);
    Parallel += L->Loc.str() + " " + L->Var + ": " + Rep.summary() + "\n";
    if (!Rep.clauses().empty())
      Parallel += "  clauses " + Rep.clauses() + "\n";
    for (const analysis::RaceWitness &W : Rep.Witnesses)
      Parallel += "  witness " + W.render() + "\n";
  }
  Out.emplace_back(Name + "-dependences", Deps);
  Out.emplace_back(Name + "-parallel", Parallel);
  Out.emplace_back(Name + "-bounds", analysis::checkBounds(**P).render());
  Out.emplace_back(Name + "-discover", analysis::discoverRegions(**P).render());
  return Out;
}

/// Findings for nested subscripts, `A[B[i + 2] + 2]`: the inner
/// reference's findings come before the outer one's.
Section indirectBoundsSection() {
  auto P = parseProgram(R"(
#define N 8
double A[N];
int B[N];
int main() {
  int i;
  for (i = 0; i < N; i++)
    A[B[i + 2] + 2] = A[B[i] - 1] + 1.0;
}
)");
  if (!P.ok())
    return {"bounds-indirect", "parse error: " + P.message()};
  return {"bounds-indirect", analysis::checkBounds(**P).render()};
}

std::vector<Section> allSections() {
  std::vector<Section> Out = transformSections();
  Out.push_back(ompSection());
  for (const char *Kernel : {"gemver", "trmm"})
    for (Section &S : kernelSections(Kernel))
      Out.push_back(std::move(S));
  Out.push_back(indirectBoundsSection());
  return Out;
}

/// Reads the golden file into name -> text (trailing newline of each
/// section body removed, as the sections are written with one).
std::map<std::string, std::string> readGolden(const std::string &Path) {
  std::ifstream In(Path);
  std::map<std::string, std::string> Out;
  std::string Line, Name, Body;
  bool InSection = false;
  auto Flush = [&] {
    if (!InSection)
      return;
    if (!Body.empty())
      Body.pop_back();
    Out[Name] = Body;
  };
  while (std::getline(In, Line)) {
    if (Line.rfind("=== ", 0) == 0) {
      Flush();
      Name = Line.substr(4);
      Body.clear();
      InSection = true;
      continue;
    }
    Body += Line + "\n";
  }
  Flush();
  return Out;
}

TEST(TraversalGolden, OutputMatchesPinnedText) {
  std::map<std::string, std::string> Golden = readGolden(LOCUS_GOLDEN_FILE);
  ASSERT_FALSE(Golden.empty()) << "cannot read " << LOCUS_GOLDEN_FILE;
  std::vector<Section> Actual = allSections();
  EXPECT_EQ(Actual.size(), Golden.size());
  for (const auto &[Name, Text] : Actual) {
    auto It = Golden.find(Name);
    ASSERT_NE(It, Golden.end()) << "no golden section " << Name;
    std::string Body = Text;
    while (!Body.empty() && Body.back() == '\n')
      Body.pop_back();
    EXPECT_EQ(It->second, Body) << "section " << Name;
  }
}

} // namespace
} // namespace locus
