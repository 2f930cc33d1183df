//===- table1_loopnests.cpp - Table I: arbitrary loop nests --------------------===//
//
// Regenerates Table I and the Section V-D summary statistics: the Fig. 13
// generic Locus program runs over a corpus of loop nests (a deterministic
// synthetic stand-in for the paper's 856 nests extracted from 16 benchmark
// suites), searching interchange / tiling / unroll-and-jam / distribution /
// unrolling where the dependence and shape queries allow them. Pluto's
// fixed heuristic runs on the same nests.
//
// Reported, with the paper's values for reference:
//   per-suite nest counts and variants assessed        (Table I)
//   average best speedup: Locus 1.15 vs Pluto 1.05     (Section V-D)
//   nests transformed:    Locus 822 vs Pluto 397
//   speedup > 1.05:       Locus 360 vs Pluto 170
//   head-to-head wins among both-optimized nests: Locus 129/170
//
// Knobs: LOCUS_BENCH_SCALE (corpus scale, 1.0 = 856 nests, default 0.05),
//        LOCUS_BENCH_BUDGET (assessments per nest, paper 500, default 30).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "src/analysis/RegionDiscovery.h"
#include "src/baseline/Pluto.h"
#include "src/driver/Orchestrator.h"
#include "src/locus/LocusParser.h"
#include "src/workloads/Workloads.h"

#include <benchmark/benchmark.h>

#include <cmath>
#include <map>

using namespace locus;

namespace {

struct SuiteStats {
  int Nests = 0;
  long long Variants = 0;
};

void runTable1() {
  double Scale = bench::envDouble("LOCUS_BENCH_SCALE", 0.05);
  int Budget = bench::envInt("LOCUS_BENCH_BUDGET", 30);
  bench::banner("Table I + Section V-D: arbitrary loop nests");
  std::printf("corpus scale %.3f (paper: 856 nests), %d assessments per nest "
              "(paper: 500)\n\n",
              Scale, Budget);

  std::vector<workloads::CorpusEntry> Corpus = workloads::loopCorpus(Scale, 3);
  auto Prog = lang::parseLocusProgram(analysis::genericLocusProgram("scop"));
  if (!Prog.ok())
    std::exit(1);

  machine::MachineConfig M = machine::MachineConfig::tiny();
  std::map<std::string, SuiteStats> Suites;
  long long TotalVariants = 0;
  int LocusTransformed = 0, PlutoTransformed = 0;
  int LocusAbove105 = 0, PlutoAbove105 = 0;
  int BothOptimized = 0, LocusWins = 0;
  double LocusSpeedupSum = 0, PlutoSpeedupSum = 0;
  int Measured = 0;

  for (const workloads::CorpusEntry &E : Corpus) {
    auto Baseline = cir::parseProgram(E.Source);
    if (!Baseline.ok())
      continue;
    double Base = bench::mustRun(**Baseline, M).Cycles;

    // Locus search.
    driver::OrchestratorOptions Opts;
    Opts.SearcherName = "bandit";
    Opts.MaxEvaluations = Budget;
    Opts.Eval.Machine = M;
    driver::Orchestrator Orch(**Prog, **Baseline, Opts);
    auto R = Orch.runSearch();
    if (!R.ok())
      continue;
    // "Transformed" in the paper's sense: Locus generated at least one
    // valid (legally transformed) variant for this nest.
    bool LocusDid = (R->Search.Evaluations - R->Search.InvalidPoints) > 0 &&
                    !R->Space.Params.empty();
    double LocusSpeedup = R->Speedup;

    // Pluto with the paper's Section V-D flags: -tile, -prevector, -unroll
    // (no -parallel; both tools' variants ran sequentially under GCC -O3).
    baseline::PlutoOptions POpts;
    POpts.TrySkewedTiling = false;
    POpts.Parallel = false;
    baseline::PlutoOutcome Pluto =
        baseline::runPluto(**Baseline, "scop", POpts);
    double PlutoCycles = bench::mustRun(*Pluto.Program, M).Cycles;
    double PlutoSpeedup = Base / PlutoCycles;

    SuiteStats &S = Suites[E.Suite];
    ++S.Nests;
    S.Variants += R->Search.Evaluations;
    TotalVariants += R->Search.Evaluations;
    ++Measured;
    LocusSpeedupSum += LocusSpeedup;
    PlutoSpeedupSum += PlutoSpeedup;
    if (LocusDid)
      ++LocusTransformed;
    if (Pluto.Transformed)
      ++PlutoTransformed;
    if (LocusSpeedup > 1.05)
      ++LocusAbove105;
    if (Pluto.Transformed && PlutoSpeedup > 1.05)
      ++PlutoAbove105;
    if (Pluto.Transformed && PlutoSpeedup > 1.05 && LocusSpeedup > 1.05) {
      ++BothOptimized;
      if (LocusSpeedup > PlutoSpeedup)
        ++LocusWins;
    }
  }

  std::printf("%-20s %10s %14s\n", "Benchmark", "loop nests",
              "variants assessed");
  for (const auto &[Suite, Count] : workloads::corpusSuites()) {
    auto It = Suites.find(Suite);
    if (It == Suites.end())
      continue;
    std::printf("%-20s %10d %14lld   (paper: %d nests)\n", Suite.c_str(),
                It->second.Nests, It->second.Variants, Count);
  }
  std::printf("%-20s %10d %14lld   (paper: 856 / 45899)\n\n", "Total",
              Measured, TotalVariants);

  if (Measured) {
    std::printf("average best speedup:  Locus %.3f  Pluto %.3f  "
                "(paper: 1.15 / 1.05)\n",
                LocusSpeedupSum / Measured, PlutoSpeedupSum / Measured);
    std::printf("nests transformed:     Locus %d/%d (%.0f%%)  Pluto %d/%d "
                "(%.0f%%)  (paper: 822/856 = 96%%, 397/856 = 46%%)\n",
                LocusTransformed, Measured,
                100.0 * LocusTransformed / Measured, PlutoTransformed,
                Measured, 100.0 * PlutoTransformed / Measured);
    std::printf("speedup > 1.05:        Locus %d  Pluto %d  (paper: 360 / "
                "170)\n",
                LocusAbove105, PlutoAbove105);
    if (BothOptimized)
      std::printf("head-to-head (both > 1.05): Locus faster on %d of %d "
                  "(paper: 129 of 170)\n",
                  LocusWins, BothOptimized);
  }
}

void BM_Fig13SearchOneNest(benchmark::State &State) {
  std::vector<workloads::CorpusEntry> Corpus = workloads::loopCorpus(0.01, 3);
  auto Prog = lang::parseLocusProgram(analysis::genericLocusProgram("scop"));
  auto Baseline = cir::parseProgram(Corpus[0].Source);
  for (auto _ : State) {
    driver::OrchestratorOptions Opts;
    Opts.SearcherName = "random";
    Opts.MaxEvaluations = 10;
    Opts.Eval.Machine = machine::MachineConfig::tiny();
    driver::Orchestrator Orch(**Prog, **Baseline, Opts);
    auto R = Orch.runSearch();
    benchmark::DoNotOptimize(R.ok());
  }
}
BENCHMARK(BM_Fig13SearchOneNest);

} // namespace

int main(int argc, char **argv) {
  runTable1();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
