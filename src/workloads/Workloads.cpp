//===- Workloads.cpp - Paper workloads and Locus programs ----------------------===//

#include "src/workloads/Workloads.h"


#include "src/support/Rng.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <sstream>
#include <string_view>

namespace locus {
namespace workloads {

//===----------------------------------------------------------------------===//
// DGEMM
//===----------------------------------------------------------------------===//

std::string dgemmSource(int M, int N, int K) {
  std::ostringstream Out;
  Out << "#define M " << M << "\n#define N " << N << "\n#define K " << K
      << "\n";
  Out << R"(
double A[M][K];
double B[K][N];
double C[M][N];
double alpha;
double beta;

int main()
{
  int i, j, k;
  double t_start, t_end;
  init_array();
  t_start = rtclock();
#pragma @Locus loop=matmul
  for (i = 0; i < M; i++)
    for (j = 0; j < N; j++)
      for (k = 0; k < K; k++)
        C[i][j] = beta * C[i][j] + alpha * A[i][k] * B[k][j];
  t_end = rtclock();
  print_array();
  return 0;
}
)";
  return Out.str();
}

std::string dgemmLocusFig5() {
  return R"(
import "RoseLocus";

def printstatus(type) {
  print "Tiling selected: " + type;
}

OptSeq Tiling2D() {
  tileI = poweroftwo(2..32);
  tileJ = poweroftwo(2..32);
  RoseLocus.Tiling(loop="0", factor=[tileI, tileJ]);
  return "2D";
}

OptSeq Tiling3D() {
  RoseLocus.Tiling(loop="0", factor=[4, 4, 8]);
  return "3D";
}

CodeReg matmul {
  tiledim = 4;
  tiletype = Tiling2D() OR Tiling3D();
  printstatus(tiletype);
  if (tiletype == "2D") {
    RoseLocus.Unroll(loop=innermost, factor=tiledim);
  }
}
)";
}

std::string dgemmLocusFig7(int MaxTile) {
  std::ostringstream Out;
  Out << R"(
Search {
  buildcmd = "make clean; make";
  runcmd = "./matmul";
}

CodeReg matmul {
  RoseLocus.Interchange(order=[0, 2, 1]);
)";
  Out << "  tileI = poweroftwo(2.." << MaxTile << ");\n"
      << "  tileK = poweroftwo(2.." << MaxTile << ");\n"
      << "  tileJ = poweroftwo(2.." << MaxTile << ");\n";
  Out << R"(  Pips.Tiling(loop="0", factor=[tileI, tileK, tileJ]);
  tileI_2 = poweroftwo(2..tileI);
  tileK_2 = poweroftwo(2..tileK);
  tileJ_2 = poweroftwo(2..tileJ);
  Pips.Tiling(loop="0.0.0.0", factor=[tileI_2, tileK_2, tileJ_2]);
  {
    Pragma.OMPFor(loop="0");
  } OR {
    Pragma.OMPFor(loop="0",
                  schedule=enum("static", "dynamic"),
                  chunk=integer(1..32));
  }
}
)";
  return Out.str();
}

//===----------------------------------------------------------------------===//
// Stencils
//===----------------------------------------------------------------------===//

const char *stencilName(StencilKind K) {
  switch (K) {
  case StencilKind::Jacobi1D:
    return "jacobi-1d";
  case StencilKind::Jacobi2D:
    return "jacobi-2d";
  case StencilKind::Heat1D:
    return "heat-1d";
  case StencilKind::Heat2D:
    return "heat-2d";
  case StencilKind::Seidel1D:
    return "seidel-1d";
  case StencilKind::Seidel2D:
    return "seidel-2d";
  }
  return "?";
}

std::string stencilSource(StencilKind K, int T, int N) {
  std::ostringstream Out;
  Out << "#define T " << T << "\n#define N " << N << "\n";
  switch (K) {
  case StencilKind::Jacobi1D:
    Out << R"(
double A[2][N + 2];
int main() {
  int t, i;
#pragma @Locus loop=stencil
  for (t = 0; t < T; t++)
    for (i = 1; i < N + 1; i++)
      A[(t + 1) % 2][i] = 0.33333 * (A[t % 2][i - 1] + A[t % 2][i] + A[t % 2][i + 1]);
  return 0;
}
)";
    break;
  case StencilKind::Heat1D:
    Out << R"(
double A[2][N + 2];
int main() {
  int t, i;
#pragma @Locus loop=stencil
  for (t = 0; t < T; t++)
    for (i = 1; i < N + 1; i++)
      A[(t + 1) % 2][i] = 0.125 * (A[t % 2][i + 1] - 2.0 * A[t % 2][i] + A[t % 2][i - 1]) + A[t % 2][i];
  return 0;
}
)";
    break;
  case StencilKind::Seidel1D:
    Out << R"(
double A[N + 2];
int main() {
  int t, i;
#pragma @Locus loop=stencil
  for (t = 0; t < T; t++)
    for (i = 1; i < N + 1; i++)
      A[i] = (A[i - 1] + A[i] + A[i + 1]) / 3.0;
  return 0;
}
)";
    break;
  case StencilKind::Jacobi2D:
    Out << R"(
double A[2][N + 2][N + 2];
int main() {
  int t, i, j;
#pragma @Locus loop=stencil
  for (t = 0; t < T; t++)
    for (i = 1; i < N + 1; i++)
      for (j = 1; j < N + 1; j++)
        A[(t + 1) % 2][i][j] = 0.2 * (A[t % 2][i][j] + A[t % 2][i - 1][j] + A[t % 2][i + 1][j] + A[t % 2][i][j - 1] + A[t % 2][i][j + 1]);
  return 0;
}
)";
    break;
  case StencilKind::Heat2D:
    Out << R"(
double A[2][N + 2][N + 2];
int main() {
  int t, i, j;
#pragma @Locus loop=stencil
  for (t = 0; t < T; t++)
    for (i = 1; i < N + 1; i++)
      for (j = 1; j < N + 1; j++)
        A[(t + 1) % 2][i][j] = 0.125 * (A[t % 2][i + 1][j] - 2.0 * A[t % 2][i][j] + A[t % 2][i - 1][j])
          + 0.125 * (A[t % 2][i][j + 1] - 2.0 * A[t % 2][i][j] + A[t % 2][i][j - 1])
          + A[t % 2][i][j];
  return 0;
}
)";
    break;
  case StencilKind::Seidel2D:
    Out << R"(
double A[N + 2][N + 2];
int main() {
  int t, i, j;
#pragma @Locus loop=stencil
  for (t = 0; t < T; t++)
    for (i = 1; i < N + 1; i++)
      for (j = 1; j < N + 1; j++)
        A[i][j] = (A[i - 1][j] + A[i][j - 1] + A[i][j] + A[i][j + 1] + A[i + 1][j]) / 5.0;
  return 0;
}
)";
    break;
  }
  return Out.str();
}

std::string stencilLocusFig9(int MinSkew, int MaxSkew) {
  std::ostringstream Out;
  Out << R"(
Search {
  buildcmd = "make clean; make";
  runcmd = "./stencil";
}

CodeReg stencil {
)";
  Out << "  skew1 = poweroftwo(" << MinSkew << ".." << MaxSkew << ");\n";
  Out << R"(  depth = BuiltIn.LoopNestDepth();
  if (depth == 2) {
    tmat = [[ skew1, 0],
            [-skew1, skew1]];
  } else {
    tmat = [[ skew1, 0, 0],
            [-skew1, skew1, 0],
            [-skew1, 0, skew1]];
  }
  Pips.GenericTiling(loop="0", factor=tmat);
  innerloops = BuiltIn.ListInnerLoops();
  Pragma.Ivdep(loop=innerloops[0]);
  Pragma.Vector(loop=innerloops[0]);
}
)";
  return Out.str();
}

//===----------------------------------------------------------------------===//
// Kripke proxy
//===----------------------------------------------------------------------===//

const std::vector<std::string> &kripkeLayouts() {
  static const std::vector<std::string> Layouts = {"DGZ", "DZG", "GDZ",
                                                   "GZD", "ZDG", "ZGD"};
  return Layouts;
}

const std::vector<std::string> &kripkeKernels() {
  static const std::vector<std::string> Kernels = {
      "Scattering", "LTimes", "LPlusTimes", "Source", "Sweep"};
  return Kernels;
}

namespace {

/// Linearized index expression for a 3D quantity stored in layout order.
/// \p First names the non-group non-zone axis variable ("nm" or "d") with
/// extent \p FirstN; G has extent NG and variable \p GVar; Z has extent NZ
/// and variable \p ZVar.
std::string layoutIndex(const std::string &Layout, const std::string &FirstVar,
                        int FirstN, const std::string &GVar, int NG,
                        const std::string &ZVar, int NZ) {
  struct Axis {
    std::string Var;
    int Extent;
  };
  std::map<char, Axis> Axes = {{'D', {FirstVar, FirstN}},
                               {'G', {GVar, NG}},
                               {'Z', {ZVar, NZ}}};
  // linear = ((a0 * n1) + a1) * n2 + a2
  const Axis &A0 = Axes[Layout[0]];
  const Axis &A1 = Axes[Layout[1]];
  const Axis &A2 = Axes[Layout[2]];
  std::ostringstream Out;
  Out << "(" << A0.Var << " * " << A1.Extent << " + " << A1.Var << ") * "
      << A2.Extent << " + " << A2.Var;
  return Out.str();
}

/// Loop descriptors per kernel, in skeleton order. Role: 'D' (direction or
/// moment axis), 'G' (group), 'Z' (zone), or a tied follower (lower case)
/// that must stay glued after the previous loop.
struct KernelShape {
  std::vector<std::pair<std::string, char>> Loops; // (var, role)
  char ParallelRole;                               // role to OMP-parallelize
  std::string AltdescPath; ///< hierarchical path of the placeholder
};

KernelShape kernelShape(const std::string &Kernel) {
  if (Kernel == "Scattering")
    return KernelShape{
        {{"nm", 'D'}, {"g", 'G'}, {"gp", 'g'}, {"zone", 'Z'}, {"mix", 'z'}},
        'Z',
        "0.0.0.0.0.3"};
  if (Kernel == "LTimes")
    return KernelShape{{{"nm", 'D'}, {"d", 'd'}, {"g", 'G'}, {"zone", 'Z'}},
                       'Z',
                       "0.0.0.0.0"};
  if (Kernel == "LPlusTimes")
    return KernelShape{{{"d", 'D'}, {"nm", 'd'}, {"g", 'G'}, {"zone", 'Z'}},
                       'Z',
                       "0.0.0.0.0"};
  if (Kernel == "Source")
    return KernelShape{{{"g", 'G'}, {"zone", 'Z'}, {"mix", 'z'}}, 'Z',
                       "0.0.0.1"};
  assert(Kernel == "Sweep" && "unknown Kripke kernel");
  return KernelShape{{{"d", 'D'}, {"g", 'G'}, {"zone", 'Z'}}, 'D', "0.0.0.0"};
}

/// Computes the interchange order placing loops according to the layout's
/// axis order, keeping tied followers glued behind their leaders.
std::vector<int> layoutOrder(const KernelShape &Shape,
                             const std::string &Layout) {
  // Position of each role letter in the layout.
  auto RolePos = [&](char Role) -> int {
    char Axis = Role == 'd' ? 'D' : (Role == 'g' ? 'G' : (Role == 'z' ? 'Z' : Role));
    for (size_t I = 0; I < Layout.size(); ++I)
      if (Layout[I] == Axis)
        return static_cast<int>(I);
    return 3;
  };
  // Build groups: a leader plus its glued followers.
  std::vector<std::vector<int>> Groups;
  for (size_t I = 0; I < Shape.Loops.size(); ++I) {
    char Role = Shape.Loops[I].second;
    bool Follower = Role == 'g' || Role == 'z' || Role == 'd';
    if (Follower && !Groups.empty())
      Groups.back().push_back(static_cast<int>(I));
    else
      Groups.push_back({static_cast<int>(I)});
  }
  std::stable_sort(Groups.begin(), Groups.end(),
                   [&](const std::vector<int> &A, const std::vector<int> &B) {
                     char RA = Shape.Loops[static_cast<size_t>(A[0])].second;
                     char RB = Shape.Loops[static_cast<size_t>(B[0])].second;
                     return RolePos(RA) < RolePos(RB);
                   });
  std::vector<int> Order;
  for (const auto &G : Groups)
    for (int I : G)
      Order.push_back(I);
  return Order;
}

/// The path "0.0...0" with \p Depth components.
std::string pathOfDepth(int Depth) {
  std::string P = "0";
  for (int I = 1; I < Depth; ++I)
    P += ".0";
  return P;
}

/// Position (depth) of the loop with the parallel role after interchange.
int parallelDepth(const KernelShape &Shape, const std::vector<int> &Order) {
  for (size_t P = 0; P < Order.size(); ++P) {
    char Role = Shape.Loops[static_cast<size_t>(Order[P])].second;
    char Axis = Role == 'd' ? 'D' : (Role == 'g' ? 'G' : (Role == 'z' ? 'Z' : Role));
    if (Axis == Shape.ParallelRole)
      return static_cast<int>(P) + 1;
  }
  return 1;
}

} // namespace

std::string kripkeKernelSource(const KripkeConfig &C,
                               const std::string &Kernel) {
  std::ostringstream Out;
  int NM = C.NumMoments, NG = C.NumGroups, NZ = C.NumZones, ND = C.NumDirections;
  int NMIX = NZ * C.MaxMixed;
  Out << "#define NM " << NM << "\n#define NG " << NG << "\n#define NZ " << NZ
      << "\n#define ND " << ND << "\n#define NMAT " << C.NumMaterials
      << "\n#define NCOEF " << C.NumCoeffs << "\n#define NMIX " << NMIX
      << "\n";

  if (Kernel == "Scattering") {
    Out << R"(
double phi[NM * NG * NZ];
double phi_out[NM * NG * NZ];
double sigs[NMAT * NCOEF * NG * NG];
int zones_mixed[NZ];
int num_mixed[NZ];
int mixed_material[NMIX];
double mixed_fraction[NMIX];
int moment_to_coeff[NM];
int main() {
  int nm, g, gp, zone, mix;
#pragma @Locus loop=Scattering
  for (nm = 0; nm < NM; nm++)
    for (g = 0; g < NG; g++)
      for (gp = 0; gp < NG; gp++)
        for (zone = 0; zone < NZ; zone++)
          for (mix = zones_mixed[zone]; mix < zones_mixed[zone] + num_mixed[zone]; mix++) {
            int material = mixed_material[mix];
            double fraction = mixed_fraction[mix];
            int n = moment_to_coeff[nm];
            address_calc();
            phi_out[idx_out] += sigs[idx_sigs] * phi[idx_phi] * fraction;
          }
  return 0;
}
)";
    return Out.str();
  }

  if (Kernel == "LTimes") {
    Out << R"(
double phi[NM * NG * NZ];
double psi[ND * NG * NZ];
double ell[NM * ND];
int main() {
  int nm, d, g, zone;
#pragma @Locus loop=LTimes
  for (nm = 0; nm < NM; nm++)
    for (d = 0; d < ND; d++)
      for (g = 0; g < NG; g++)
        for (zone = 0; zone < NZ; zone++) {
          address_calc();
          phi[idx_phi] += ell[nm * ND + d] * psi[idx_psi];
        }
  return 0;
}
)";
    return Out.str();
  }

  if (Kernel == "LPlusTimes") {
    Out << R"(
double rhs[ND * NG * NZ];
double phi_out[NM * NG * NZ];
double ell_plus[ND * NM];
int main() {
  int d, nm, g, zone;
#pragma @Locus loop=LPlusTimes
  for (d = 0; d < ND; d++)
    for (nm = 0; nm < NM; nm++)
      for (g = 0; g < NG; g++)
        for (zone = 0; zone < NZ; zone++) {
          address_calc();
          rhs[idx_rhs] += ell_plus[d * NM + nm] * phi_out[idx_phi];
        }
  return 0;
}
)";
    return Out.str();
  }

  if (Kernel == "Source") {
    Out << R"(
double phi_out[NM * NG * NZ];
int zones_mixed[NZ];
int num_mixed[NZ];
double mixed_fraction[NMIX];
int main() {
  int g, zone, mix;
#pragma @Locus loop=Source
  for (g = 0; g < NG; g++)
    for (zone = 0; zone < NZ; zone++)
      for (mix = zones_mixed[zone]; mix < zones_mixed[zone] + num_mixed[zone]; mix++) {
        double fraction = mixed_fraction[mix];
        address_calc();
        phi_out[idx_phi] += 0.5 * fraction;
      }
  return 0;
}
)";
    return Out.str();
  }

  assert(Kernel == "Sweep" && "unknown Kripke kernel");
  Out << R"(
double psi[ND * NG * NZ];
double rhs[ND * NG * NZ];
double sigt[NZ];
int main() {
  int d, g, zone;
#pragma @Locus loop=Sweep
  for (d = 0; d < ND; d++)
    for (g = 0; g < NG; g++)
      for (zone = 1; zone < NZ; zone++) {
        address_calc();
        psi[idx_psi] = (rhs[idx_rhs] + 2.0 * psi[idx_prev]) / (1.0 + sigt[zone]);
      }
  return 0;
}
)";
  return Out.str();
}

std::map<std::string, std::string> kripkeSnippets(const KripkeConfig &C,
                                                  const std::string &Kernel) {
  std::map<std::string, std::string> Snips;
  int NM = C.NumMoments, NG = C.NumGroups, NZ = C.NumZones, ND = C.NumDirections;
  for (const std::string &L : kripkeLayouts()) {
    std::ostringstream S;
    if (Kernel == "Scattering") {
      S << "int idx_out = " << layoutIndex(L, "nm", NM, "g", NG, "zone", NZ)
        << ";\n";
      S << "int idx_phi = " << layoutIndex(L, "nm", NM, "gp", NG, "zone", NZ)
        << ";\n";
      S << "int idx_sigs = material * " << C.NumCoeffs * NG * NG << " + n * "
        << NG * NG << " + g * " << NG << " + gp;\n";
    } else if (Kernel == "LTimes") {
      S << "int idx_phi = " << layoutIndex(L, "nm", NM, "g", NG, "zone", NZ)
        << ";\n";
      S << "int idx_psi = " << layoutIndex(L, "d", ND, "g", NG, "zone", NZ)
        << ";\n";
    } else if (Kernel == "LPlusTimes") {
      S << "int idx_rhs = " << layoutIndex(L, "d", ND, "g", NG, "zone", NZ)
        << ";\n";
      S << "int idx_phi = " << layoutIndex(L, "nm", NM, "g", NG, "zone", NZ)
        << ";\n";
    } else if (Kernel == "Source") {
      S << "int idx_phi = " << layoutIndex(L, "0", NM, "g", NG, "zone", NZ)
        << ";\n";
    } else if (Kernel == "Sweep") {
      S << "int idx_psi = " << layoutIndex(L, "d", ND, "g", NG, "zone", NZ)
        << ";\n";
      S << "int idx_rhs = " << layoutIndex(L, "d", ND, "g", NG, "zone", NZ)
        << ";\n";
      S << "int idx_prev = "
        << layoutIndex(L, "d", ND, "g", NG, "(zone - 1)", NZ) << ";\n";
    }
    Snips[Kernel + "_" + L] = S.str();
  }
  return Snips;
}

std::string kripkeLocusFig11(const std::string &Kernel) {
  KernelShape Shape = kernelShape(Kernel);
  std::ostringstream Out;
  Out << "datalayout = enum(";
  const auto &Layouts = kripkeLayouts();
  for (size_t I = 0; I < Layouts.size(); ++I)
    Out << (I ? ", " : "") << '"' << Layouts[I] << '"';
  Out << ");\n\n";
  Out << "CodeReg " << Kernel << " {\n";
  for (size_t I = 0; I < Layouts.size(); ++I) {
    std::vector<int> Order = layoutOrder(Shape, Layouts[I]);
    int ParDepth = parallelDepth(Shape, Order);
    Out << "  " << (I == 0 ? "if" : "} elif") << " (datalayout == \""
        << Layouts[I] << "\") {\n";
    Out << "    looporder = [";
    for (size_t J = 0; J < Order.size(); ++J)
      Out << (J ? ", " : "") << Order[J];
    Out << "];\n";
    Out << "    omploop = \"" << pathOfDepth(ParDepth) << "\";\n";
  }
  Out << "  }\n";
  Out << "  sourcepath = \"" << Kernel << "_\" + datalayout;\n";
  Out << "  BuiltIn.Altdesc(stmt=\"" << Shape.AltdescPath
      << "\", source=sourcepath);\n";
  Out << "  RoseLocus.Interchange(order=looporder);\n";
  Out << "  RoseLocus.LICM();\n";
  Out << "  RoseLocus.ScalarRepl();\n";
  Out << "  Pragma.OMPFor(loop=omploop);\n";
  Out << "}\n";
  return Out.str();
}

std::string kripkeHandOptimizedSource(const KripkeConfig &C,
                                      const std::string &Kernel,
                                      const std::string &Layout) {
  // Build the hand-tuned version: loops in layout order, address computation
  // inlined, OpenMP on the parallel loop. This is what the paper's six
  // per-layout source versions look like.
  KernelShape Shape = kernelShape(Kernel);
  std::vector<int> Order = layoutOrder(Shape, Layout);
  int ParDepth = parallelDepth(Shape, Order);
  int NM = C.NumMoments, NG = C.NumGroups, NZ = C.NumZones, ND = C.NumDirections;
  int NMIX = NZ * C.MaxMixed;

  std::ostringstream Out;
  Out << "#define NM " << NM << "\n#define NG " << NG << "\n#define NZ " << NZ
      << "\n#define ND " << ND << "\n#define NMAT " << C.NumMaterials
      << "\n#define NCOEF " << C.NumCoeffs << "\n#define NMIX " << NMIX
      << "\n";

  // Declarations per kernel.
  if (Kernel == "Scattering")
    Out << "double phi[NM * NG * NZ];\ndouble phi_out[NM * NG * NZ];\n"
           "double sigs[NMAT * NCOEF * NG * NG];\nint zones_mixed[NZ];\n"
           "int num_mixed[NZ];\nint mixed_material[NMIX];\n"
           "double mixed_fraction[NMIX];\nint moment_to_coeff[NM];\n";
  else if (Kernel == "LTimes")
    Out << "double phi[NM * NG * NZ];\ndouble psi[ND * NG * NZ];\n"
           "double ell[NM * ND];\n";
  else if (Kernel == "LPlusTimes")
    Out << "double rhs[ND * NG * NZ];\ndouble phi_out[NM * NG * NZ];\n"
           "double ell_plus[ND * NM];\n";
  else if (Kernel == "Source")
    Out << "double phi_out[NM * NG * NZ];\nint zones_mixed[NZ];\n"
           "int num_mixed[NZ];\ndouble mixed_fraction[NMIX];\n";
  else
    Out << "double psi[ND * NG * NZ];\ndouble rhs[ND * NG * NZ];\n"
           "double sigt[NZ];\n";

  Out << "int main() {\n  int nm, d, g, gp, zone, mix;\n";

  // Loop headers in interchanged order.
  struct Bound {
    std::string Lo, Hi;
  };
  std::map<std::string, Bound> Bounds = {
      {"nm", {"0", "NM"}},
      {"d", {"0", "ND"}},
      {"g", {"0", "NG"}},
      {"gp", {"0", "NG"}},
      {"zone", {Kernel == "Sweep" ? "1" : "0", "NZ"}},
      {"mix", {"zones_mixed[zone]", "zones_mixed[zone] + num_mixed[zone]"}},
  };
  int Indent = 2;
  for (size_t P = 0; P < Order.size(); ++P) {
    const std::string &Var = Shape.Loops[static_cast<size_t>(Order[P])].first;
    const Bound &B = Bounds[Var];
    if (static_cast<int>(P) + 1 == ParDepth)
      Out << std::string(static_cast<size_t>(Indent), ' ')
          << "#pragma omp parallel for\n";
    Out << std::string(static_cast<size_t>(Indent), ' ') << "for (" << Var
        << " = " << B.Lo << "; " << Var << " < " << B.Hi << "; " << Var
        << "++)\n";
    Indent += 2;
  }
  std::string Pad(static_cast<size_t>(Indent), ' ');
  Out << std::string(static_cast<size_t>(Indent - 2), ' ') << "{\n";

  // Body with inlined addresses.
  auto Idx = [&](const std::string &First, int FirstN, const std::string &GV,
                 const std::string &ZV) {
    return layoutIndex(Layout, First, FirstN, GV, NG, ZV, NZ);
  };
  if (Kernel == "Scattering") {
    Out << Pad << "int material = mixed_material[mix];\n";
    Out << Pad << "double fraction = mixed_fraction[mix];\n";
    Out << Pad << "int n = moment_to_coeff[nm];\n";
    Out << Pad << "phi_out[" << Idx("nm", NM, "g", "zone") << "] += sigs[material * "
        << C.NumCoeffs * NG * NG << " + n * " << NG * NG << " + g * " << NG
        << " + gp] * phi[" << Idx("nm", NM, "gp", "zone")
        << "] * fraction;\n";
  } else if (Kernel == "LTimes") {
    Out << Pad << "phi[" << Idx("nm", NM, "g", "zone")
        << "] += ell[nm * ND + d] * psi[" << Idx("d", ND, "g", "zone")
        << "];\n";
  } else if (Kernel == "LPlusTimes") {
    Out << Pad << "rhs[" << Idx("d", ND, "g", "zone")
        << "] += ell_plus[d * NM + nm] * phi_out[" << Idx("nm", NM, "g", "zone")
        << "];\n";
  } else if (Kernel == "Source") {
    Out << Pad << "double fraction = mixed_fraction[mix];\n";
    Out << Pad << "phi_out[" << Idx("0", NM, "g", "zone")
        << "] += 0.5 * fraction;\n";
  } else {
    Out << Pad << "psi[" << Idx("d", ND, "g", "zone") << "] = (rhs["
        << Idx("d", ND, "g", "zone") << "] + 2.0 * psi["
        << Idx("d", ND, "g", "(zone - 1)") << "]) / (1.0 + sigt[zone]);\n";
  }
  Out << std::string(static_cast<size_t>(Indent - 2), ' ') << "}\n";
  Out << "  return 0;\n}\n";
  return Out.str();
}

void initKripkeArrays(eval::ProgramEvaluator &Eval, const KripkeConfig &C) {
  Rng R(C.Seed);
  int NZ = C.NumZones;
  std::vector<int64_t> ZonesMixed(static_cast<size_t>(NZ));
  std::vector<int64_t> NumMixed(static_cast<size_t>(NZ));
  int64_t Offset = 0;
  for (int Z = 0; Z < NZ; ++Z) {
    int64_t Count = R.range(1, C.MaxMixed);
    ZonesMixed[static_cast<size_t>(Z)] = Offset;
    NumMixed[static_cast<size_t>(Z)] = Count;
    Offset += Count;
  }
  size_t NMIX = static_cast<size_t>(NZ * C.MaxMixed);
  std::vector<int64_t> Material(NMIX, 0);
  std::vector<double> Fraction(NMIX, 0.0);
  for (size_t I = 0; I < static_cast<size_t>(Offset); ++I) {
    Material[I] = R.range(0, C.NumMaterials - 1);
    Fraction[I] = 0.2 + 0.8 * R.uniform();
  }
  std::vector<int64_t> MomentToCoeff(static_cast<size_t>(C.NumMoments));
  for (int M = 0; M < C.NumMoments; ++M)
    MomentToCoeff[static_cast<size_t>(M)] = M % C.NumCoeffs;

  // Arrays absent from a particular kernel are silently skipped.
  (void)Eval.setIntArray("zones_mixed", ZonesMixed);
  (void)Eval.setIntArray("num_mixed", NumMixed);
  (void)Eval.setIntArray("mixed_material", Material);
  (void)Eval.setDoubleArray("mixed_fraction", Fraction);
  (void)Eval.setIntArray("moment_to_coeff", MomentToCoeff);
}

//===----------------------------------------------------------------------===//
// Loop-nest corpus (Table I)
//===----------------------------------------------------------------------===//

const std::vector<std::pair<std::string, int>> &corpusSuites() {
  static const std::vector<std::pair<std::string, int>> Suites = {
      {"ALPBench", 13},      {"ASC-Sequoia", 1},
      {"Cortexsuite", 47},   {"FreeBench", 30},
      {"PRK", 37},           {"LivermoreLoops", 11},
      {"MediaBench", 39},    {"Netlib", 18},
      {"NPB", 208},          {"Polybench", 93},
      {"Scimark2", 4},       {"SPEC2000", 71},
      {"SPEC2006", 50},      {"TSVC", 156},
      {"Libraries", 61},     {"NeuralNetKernels", 17},
  };
  return Suites;
}

namespace {

/// One synthetic loop-nest pattern; sizes are drawn per instance.
std::string corpusPattern(int Pattern, Rng &R) {
  int N = static_cast<int>(R.range(24, 64));
  int M = static_cast<int>(R.range(16, 48));
  int K = static_cast<int>(R.range(8, 32));
  std::ostringstream Out;
  Out << "#define N " << N << "\n#define M " << M << "\n#define K " << K
      << "\n";
  switch (Pattern) {
  case 0: // matmul-like 3-deep perfect nest
    Out << R"(
double A[N][K];
double B[K][M];
double C[N][M];
int main() {
  int i, j, k;
#pragma @Locus loop=scop
  for (i = 0; i < N; i++)
    for (j = 0; j < M; j++)
      for (k = 0; k < K; k++)
        C[i][j] = C[i][j] + A[i][k] * B[k][j];
}
)";
    break;
  case 1: // transposed copy: interchange-sensitive
    Out << R"(
double A[N][N];
double B[N][N];
int main() {
  int i, j;
#pragma @Locus loop=scop
  for (i = 0; i < N; i++)
    for (j = 0; j < N; j++)
      B[j][i] = A[i][j] * 2.0;
}
)";
    break;
  case 2: // 2D stencil-like with a carried dependence
    Out << R"(
double A[N][N];
int main() {
  int i, j;
#pragma @Locus loop=scop
  for (i = 1; i < N; i++)
    for (j = 1; j < N - 1; j++)
      A[i][j] = 0.25 * (A[i - 1][j] + A[i - 1][j + 1] + A[i - 1][j - 1] + A[i][j]);
}
)";
    break;
  case 3: // reduction
    Out << R"(
double A[N][M];
double s[1];
int main() {
  int i, j;
#pragma @Locus loop=scop
  for (i = 0; i < N; i++)
    for (j = 0; j < M; j++)
      s[0] = s[0] + A[i][j] * A[i][j];
}
)";
    break;
  case 4: // imperfect nest: init + inner accumulation
    Out << R"(
double A[N][M];
double y[N];
double x[M];
int main() {
  int i, j;
#pragma @Locus loop=scop
  for (i = 0; i < N; i++) {
    y[i] = 0.0;
    for (j = 0; j < M; j++)
      y[i] = y[i] + A[i][j] * x[j];
  }
}
)";
    break;
  case 5: // indirect access: dependences unavailable
    Out << R"(
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
    break;
  case 6: // 1-deep streaming saxpy
    Out << R"(
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
    break;
  case 7: // triangular nest (non-rectangular)
    Out << R"(
double A[N][N];
double b[N];
int main() {
  int i, j;
#pragma @Locus loop=scop
  for (i = 0; i < N; i++)
    for (j = i; j < N; j++)
      A[i][j] = A[i][j] + b[i] * b[j];
}
)";
    break;
  case 8: // multi-statement distributable body
    Out << R"(
double A[N];
double B[N];
double C[N];
double D[N];
int main() {
  int i;
#pragma @Locus loop=scop
  for (i = 0; i < N; i++) {
    A[i] = C[i] * 1.5;
    B[i] = D[i] + 2.0;
  }
}
)";
    break;
  default: // 4-deep perfect nest (tensor-contraction flavor)
    Out << R"(
double A[K][K][K][K];
double B[K][K][K][K];
int main() {
  int i, j, k, l;
#pragma @Locus loop=scop
  for (i = 1; i < K; i++)
    for (j = 0; j < K; j++)
      for (k = 0; k < K; k++)
        for (l = 0; l < K; l++)
          B[i][j][k][l] = A[i - 1][j][k][l] + A[i][j][k][l] * 0.5;
}
)";
    break;
  }
  return Out.str();
}

} // namespace

std::vector<CorpusEntry> loopCorpus(double Scale, uint64_t Seed) {
  std::vector<CorpusEntry> Corpus;
  Rng R(Seed);
  const int NumPatterns = 10;
  int PatternCursor = 0;
  for (const auto &[Suite, PaperCount] : corpusSuites()) {
    int Count = std::max(1, static_cast<int>(PaperCount * Scale + 0.5));
    for (int I = 0; I < Count; ++I) {
      CorpusEntry E;
      E.Suite = Suite;
      E.Name = Suite + "-" + std::to_string(I);
      E.Source = corpusPattern(PatternCursor % NumPatterns, R);
      ++PatternCursor;
      Corpus.push_back(std::move(E));
    }
  }
  return Corpus;
}

const std::vector<std::string> &polybenchKernels() {
  static const std::vector<std::string> Names = {
      "gemver", "atax", "bicg", "mvt", "syrk", "gesummv", "trmm", "2mm"};
  return Names;
}

std::string polybenchSource(const std::string &Name, int N) {
  // One {name, text-after-the-#define-line} entry per examples/polybench
  // kernel, embedded at configure time (see src/CMakeLists.txt).
  struct Embedded {
    std::string_view Name, Body;
  };
  static constexpr Embedded Kernels[] = {
#include "PolybenchKernels.inc"
  };
  for (const Embedded &K : Kernels)
    if (K.Name == Name)
      return "#define N " + std::to_string(N) + "\n" + std::string(K.Body);
  assert(false && "unknown polybench kernel");
  return "";
}

} // namespace workloads
} // namespace locus
