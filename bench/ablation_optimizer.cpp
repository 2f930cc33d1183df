//===- ablation_optimizer.cpp - Section IV-C program-optimizer ablation -------===//
//
// Measures the effect of optimizing the Locus program itself (constant
// propagation/folding, query pre-execution, dead-branch elimination) before
// interpretation. The direct program is re-interpreted once per assessed
// variant, so the paper applies these optimizations ahead of the search.
//
// Reported: optimizer statistics on Fig. 11 (Kripke) and Fig. 13 programs,
// the interpretation time per materialized variant with and without the
// optimizer, and a check that both modes produce identical spaces.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "src/analysis/RegionDiscovery.h"
#include "src/driver/Orchestrator.h"
#include "src/locus/Interpreter.h"
#include "src/locus/LocusParser.h"
#include "src/locus/Optimizer.h"
#include "src/workloads/Workloads.h"

#include <benchmark/benchmark.h>

#include <chrono>

using namespace locus;

namespace {

double timeApplyPoints(const lang::LocusProgram &Prog,
                       const cir::Program &Baseline,
                       const std::map<std::string, std::string> &Snippets,
                       int Iterations) {
  lang::ModuleRegistry Registry = lang::ModuleRegistry::standard();
  lang::LocusInterpreter Interp(Prog, Registry);
  search::Space Space;
  {
    auto Clone = Baseline.clone();
    transform::TransformContext TCtx;
    TCtx.Prog = Clone.get();
    TCtx.Snippets = Snippets;
    Interp.extractSpace(*Clone, Space, TCtx);
  }
  Rng R(3);
  auto Start = std::chrono::steady_clock::now();
  for (int I = 0; I < Iterations; ++I) {
    search::Point P = search::samplePoint(Space, R);
    auto Variant = Baseline.clone();
    transform::TransformContext TCtx;
    TCtx.Prog = Variant.get();
    TCtx.Snippets = Snippets;
    lang::ExecOutcome O = Interp.applyPoint(*Variant, P, TCtx);
    benchmark::DoNotOptimize(O.TransformsApplied);
  }
  auto End = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(End - Start).count() /
         Iterations;
}

void reportProgram(const char *Title, const std::string &LocusText,
                   const cir::Program &Baseline,
                   const std::map<std::string, std::string> &Snippets) {
  auto Prog = lang::parseLocusProgram(LocusText);
  if (!Prog.ok()) {
    std::fprintf(stderr, "parse error: %s\n", Prog.message().c_str());
    return;
  }
  lang::ModuleRegistry Registry = lang::ModuleRegistry::standard();

  auto Clone = Baseline.clone();
  transform::TransformContext TCtx;
  TCtx.Prog = Clone.get();
  TCtx.Snippets = Snippets;
  lang::OptimizeStats Stats;
  std::unique_ptr<lang::LocusProgram> Optimized =
      lang::optimizeLocusProgram(**Prog, *Clone, Registry, TCtx, &Stats);

  // Spaces must agree.
  search::Space RawSpace, OptSpace;
  {
    auto C1 = Baseline.clone();
    transform::TransformContext T1;
    T1.Prog = C1.get();
    T1.Snippets = Snippets;
    lang::LocusInterpreter(*(*Prog), Registry).extractSpace(*C1, RawSpace, T1);
    auto C2 = Baseline.clone();
    transform::TransformContext T2;
    T2.Prog = C2.get();
    T2.Snippets = Snippets;
    lang::LocusInterpreter(*Optimized, Registry)
        .extractSpace(*C2, OptSpace, T2);
  }

  const int Iters = 60;
  double RawUs = timeApplyPoints(**Prog, Baseline, Snippets, Iters);
  double OptUs = timeApplyPoints(*Optimized, Baseline, Snippets, Iters);

  std::printf("%s\n", Title);
  std::printf("  queries substituted %d, constants folded %d, branches "
              "pruned %d, statements removed %d\n",
              Stats.QueriesSubstituted, Stats.ConstantsFolded,
              Stats.BranchesPruned, Stats.StmtsRemoved);
  std::printf("  space: raw %llu vs optimized %llu points (%s)\n",
              (unsigned long long)RawSpace.fullSize(),
              (unsigned long long)OptSpace.fullSize(),
              RawSpace.fullSize() == OptSpace.fullSize() ? "identical"
                                                         : "DIFFER");
  std::printf("  variant materialization: raw %.1f us vs optimized %.1f us "
              "(%.2fx)\n\n",
              RawUs, OptUs, RawUs / OptUs);
}

void runAblation() {
  bench::banner("Ablation: Section IV-C optimizations on Locus programs");

  // Fig. 11: the six-way layout conditional plus queries.
  workloads::KripkeConfig C;
  C.NumZones = 24;
  auto Kripke = bench::mustParse(workloads::kripkeKernelSource(C, "Scattering"));
  reportProgram("Fig. 11 (Kripke Scattering)",
                workloads::kripkeLocusFig11("Scattering"), *Kripke,
                workloads::kripkeSnippets(C, "Scattering"));

  // Fig. 13: query-guarded conditional space on a depth-3 nest.
  std::string Src = workloads::dgemmSource(24, 24, 24);
  size_t Pos = Src.find("loop=matmul");
  Src.replace(Pos, 11, "loop=scop");
  auto Dgemm = bench::mustParse(Src);
  reportProgram("Fig. 13 (generic program, depth-3 nest)",
                analysis::genericLocusProgram("scop"), *Dgemm, {});

  // Fig. 5: constant propagation through OptSeqs and defs.
  auto Matmul = bench::mustParse(workloads::dgemmSource(24, 24, 24));
  reportProgram("Fig. 5 (tiling choice)", workloads::dgemmLocusFig5(),
                *Matmul, {});
}

void BM_OptimizeFig13(benchmark::State &State) {
  auto Prog = lang::parseLocusProgram(analysis::genericLocusProgram("scop"));
  std::string Src = workloads::dgemmSource(16, 16, 16);
  size_t Pos = Src.find("loop=matmul");
  Src.replace(Pos, 11, "loop=scop");
  auto Baseline = bench::mustParse(Src);
  lang::ModuleRegistry Registry = lang::ModuleRegistry::standard();
  for (auto _ : State) {
    auto Clone = Baseline->clone();
    transform::TransformContext TCtx;
    TCtx.Prog = Clone.get();
    auto Optimized =
        lang::optimizeLocusProgram(**Prog, *Clone, Registry, TCtx);
    benchmark::DoNotOptimize(Optimized->CodeRegs.size());
  }
}
BENCHMARK(BM_OptimizeFig13);

} // namespace

int main(int argc, char **argv) {
  runAblation();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
