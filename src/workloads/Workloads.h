//===- Workloads.h - Paper workloads and Locus programs ---------*- C++ -*-===//
///
/// \file
/// The baseline kernels and optimization programs of the paper's evaluation
/// (Section V), parameterized by problem size so tests run tiny instances
/// and benchmarks run large ones:
///
///  - DGEMM (Fig. 3) with the Fig. 5 tiling-choice program and the Fig. 7
///    two-level-tiling + OpenMP search program,
///  - six stencils (Jacobi/Heat/Seidel x 1D/2D, Fig. 8) with the Fig. 9
///    skewed-tiling program,
///  - a Kripke proxy (Scattering, LTimes, LPlusTimes, Source, Sweep
///    skeletons; Fig. 10) with the Fig. 11 layout-selection program and the
///    per-layout address-computation snippets,
///  - the Fig. 13 generic loop-nest program and a synthetic loop-nest corpus
///    standing in for the paper's 856 extracted nests (Table I).
///
//===----------------------------------------------------------------------===//
#ifndef LOCUS_WORKLOADS_WORKLOADS_H
#define LOCUS_WORKLOADS_WORKLOADS_H

#include "src/eval/Evaluator.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace locus {
namespace workloads {

//===----------------------------------------------------------------------===//
// DGEMM
//===----------------------------------------------------------------------===//

/// The Fig. 3 baseline: naive triple loop, region "matmul".
std::string dgemmSource(int M, int N, int K);

/// The Fig. 5 program: Tiling2D OR Tiling3D with a conditional unroll.
std::string dgemmLocusFig5();

/// The Fig. 7 program: interchange + two-level hierarchical tiling with
/// dependent pow2 ranges + an OR block over OpenMP schedules. \p MaxTile
/// bounds the first-level tile range (512 in the paper).
std::string dgemmLocusFig7(int MaxTile);

//===----------------------------------------------------------------------===//
// Stencils
//===----------------------------------------------------------------------===//

enum class StencilKind { Jacobi1D, Jacobi2D, Heat1D, Heat2D, Seidel1D, Seidel2D };

const char *stencilName(StencilKind K);

/// Baseline stencil source (region "stencil"); T time steps, N points per
/// spatial dimension.
std::string stencilSource(StencilKind K, int T, int N);

/// The Fig. 9 program generalized over nest depth: Skewing-1 GenericTiling
/// with skew factor poweroftwo(MinSkew..MaxSkew) plus ivdep/vector on the
/// innermost loop.
std::string stencilLocusFig9(int MinSkew, int MaxSkew);

//===----------------------------------------------------------------------===//
// Kripke proxy
//===----------------------------------------------------------------------===//

struct KripkeConfig {
  int NumMoments = 4;
  int NumGroups = 6;
  int NumZones = 48;
  int MaxMixed = 3;  ///< max mixture entries per zone
  int NumMaterials = 3;
  int NumCoeffs = 4; ///< legendre coefficients (moment_to_coeff range)
  int NumDirections = 8;
  uint64_t Seed = 7;
};

/// The six data layouts (permutations of D, G, Z).
const std::vector<std::string> &kripkeLayouts();

/// Kripke kernel names: Scattering, LTimes, LPlusTimes, Source, Sweep.
const std::vector<std::string> &kripkeKernels();

/// The Fig. 10 skeleton for one kernel (region named after the kernel),
/// with an address_calc() placeholder where Altdesc splices the layout's
/// address computation.
std::string kripkeKernelSource(const KripkeConfig &C,
                               const std::string &Kernel);

/// The Fig. 11 program for one kernel: layout enum -> Altdesc snippet +
/// interchange + LICM + scalar replacement + OMP.
std::string kripkeLocusFig11(const std::string &Kernel);

/// The per-layout address snippets ("scatter_DGZ.txt", ...) for a kernel,
/// keyed by "<kernel>_<layout>".
std::map<std::string, std::string> kripkeSnippets(const KripkeConfig &C,
                                                  const std::string &Kernel);

/// The hand-optimized variant of a kernel for one layout (the comparison
/// target of Fig. 12).
std::string kripkeHandOptimizedSource(const KripkeConfig &C,
                                      const std::string &Kernel,
                                      const std::string &Layout);

/// Initializes the index arrays (zones_mixed, num_mixed, mixed_material,
/// moment_to_coeff) deterministically; call via OrchestratorOptions::InitHook.
void initKripkeArrays(eval::ProgramEvaluator &Eval, const KripkeConfig &C);

//===----------------------------------------------------------------------===//
// Loop-nest corpus (Table I)
//===----------------------------------------------------------------------===//

struct CorpusEntry {
  std::string Suite; ///< one of the 16 benchmark-suite names of Table I
  std::string Name;
  std::string Source; ///< MiniC with region "scop"
};

/// The 16 suite names of Table I with the paper's loop-nest counts.
const std::vector<std::pair<std::string, int>> &corpusSuites();

/// Generates a deterministic synthetic corpus. \p Scale scales the paper's
/// per-suite nest counts (1.0 reproduces all 856; benches default lower).
std::vector<CorpusEntry> loopCorpus(double Scale, uint64_t Seed);

//===----------------------------------------------------------------------===//
// Unannotated PolyBench-style kernels (region-discovery inputs)
//===----------------------------------------------------------------------===//

/// Names of the unannotated PolyBench-style kernels: "gemver", "atax",
/// "bicg", "mvt", "syrk", "gesummv", "trmm", "2mm". Unlike every other
/// workload these carry no `#pragma @Locus` markers — they are the inputs
/// region discovery must find nests in by itself (`locus_cli --discover`),
/// and the corpus the static bounds verifier proves in bounds
/// (`locus_cli --bounds-check`); trmm's triangular inner loop (`k < i`)
/// is the dependent-range proof case.
const std::vector<std::string> &polybenchKernels();

/// Pragma-free MiniC source of PolyBench kernel \p Name at problem size
/// \p N (all arrays N or NxN, dgemm-style init_array/rtclock/print_array
/// harness). Asserts on unknown names.
std::string polybenchSource(const std::string &Name, int N);

} // namespace workloads
} // namespace locus

#endif // LOCUS_WORKLOADS_WORKLOADS_H
