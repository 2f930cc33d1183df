//===- stencil_tuning.cpp - Skewed time-tiling search on stencils -------------===//
//
// Reproduces the Section V-B workflow on one stencil: the Fig. 9 program
// applies Pips.GenericTiling with a Skewing-1 matrix whose tile size is a
// poweroftwo search variable, plus vectorization pragmas; the search picks
// the best skew block for the simulated cache hierarchy, and the result is
// compared against the Pluto-style fixed heuristic.
//
//===----------------------------------------------------------------------===//

#include "src/baseline/Pluto.h"
#include "src/cir/Parser.h"
#include "src/cir/Printer.h"
#include "src/driver/Orchestrator.h"
#include "src/locus/LocusParser.h"
#include "src/workloads/Workloads.h"

#include <cmath>
#include <cstdio>

using namespace locus;

int main(int argc, char **argv) {
  workloads::StencilKind Kind = workloads::StencilKind::Heat2D;
  if (argc > 1) {
    std::string Name = argv[1];
    for (workloads::StencilKind K :
         {workloads::StencilKind::Jacobi1D, workloads::StencilKind::Jacobi2D,
          workloads::StencilKind::Heat1D, workloads::StencilKind::Heat2D,
          workloads::StencilKind::Seidel1D, workloads::StencilKind::Seidel2D})
      if (Name == workloads::stencilName(K))
        Kind = K;
  }

  bool Is1D = Kind == workloads::StencilKind::Jacobi1D ||
              Kind == workloads::StencilKind::Heat1D ||
              Kind == workloads::StencilKind::Seidel1D;
  int T = 24, N = Is1D ? 4096 : 64;
  std::string Source = workloads::stencilSource(Kind, T, N);
  std::printf("stencil: %s (T=%d, N=%d)\n", workloads::stencilName(Kind), T, N);

  auto Baseline = cir::parseProgram(Source);
  auto Prog = lang::parseLocusProgram(workloads::stencilLocusFig9(4, 64));
  if (!Baseline.ok() || !Prog.ok()) {
    std::fprintf(stderr, "parse error\n");
    return 1;
  }

  driver::OrchestratorOptions Opts;
  Opts.SearcherName = "exhaustive"; // one pow2 dimension: enumerate it
  Opts.MaxEvaluations = 16;
  driver::Orchestrator Orch(**Prog, **Baseline, Opts);
  auto R = Orch.runSearch();
  if (!R.ok()) {
    std::fprintf(stderr, "search failed: %s\n", R.message().c_str());
    return 1;
  }

  std::printf("space: %s", R->Space.describe().c_str());
  for (const auto &Rec : R->Search.History)
    if (Rec.Failure == search::FailureKind::None)
      std::printf("  skew=%-4lld -> %12.0f cycles\n",
                  (long long)std::get<int64_t>(Rec.P.Values.begin()->second),
                  Rec.Metric);
  std::printf("Locus best: %.0f cycles (speedup %.2fx over baseline)\n",
              R->BestCycles, R->Speedup);

  // Pluto-style fixed heuristic for comparison.
  eval::EvalOptions Check;
  Check.CountCost = false;
  eval::RunResult Base = eval::evaluateProgram(**Baseline, Check);
  baseline::PlutoOutcome Pluto = baseline::runPluto(
      **Baseline, "stencil", baseline::PlutoOptions{},
      [&](const cir::Program &Cand) {
        eval::RunResult V = eval::evaluateProgram(Cand, Check);
        return V.Ok && std::abs(V.Checksum - Base.Checksum) <
                           1e-6 * std::max(1.0, std::abs(Base.Checksum));
      });
  eval::RunResult PlutoRun = eval::evaluateProgram(*Pluto.Program);
  if (PlutoRun.Ok && R->BaselineCycles > 0)
    std::printf("Pluto (%s): %.0f cycles (speedup %.2fx)\n",
                Pluto.Summary.c_str(), PlutoRun.Cycles,
                R->BaselineCycles / PlutoRun.Cycles);

  if (!R->BaselineChosen)
    std::printf("\n=== Locus-generated code ===\n%s",
                cir::printProgram(*R->BestProgram).c_str());
  return 0;
}
