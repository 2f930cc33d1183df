//===- arbitrary_loops.cpp - The Fig. 13 generic program on unknown nests -----===//
//
// Section V-D: one 37-line Locus program optimizes arbitrary loop nests whose
// structure is not known in advance. Queries (IsDepAvailable,
// IsPerfectLoopNest, LoopNestDepth) segment the space; interchange, tiling,
// unroll-and-jam, optional distribution and unrolling are searched only where
// legal. This example runs it over a small slice of the synthetic corpus and
// prints one row per nest.
//
//===----------------------------------------------------------------------===//

#include "src/analysis/RegionDiscovery.h"
#include "src/cir/Parser.h"
#include "src/driver/Orchestrator.h"
#include "src/locus/LocusParser.h"
#include "src/workloads/Workloads.h"

#include <cstdio>

using namespace locus;

int main(int argc, char **argv) {
  double Scale = argc > 1 ? std::atof(argv[1]) : 0.02;
  std::vector<workloads::CorpusEntry> Corpus = workloads::loopCorpus(Scale, 3);
  auto Prog = lang::parseLocusProgram(analysis::genericLocusProgram("scop"));
  if (!Prog.ok()) {
    std::fprintf(stderr, "locus parse error: %s\n", Prog.message().c_str());
    return 1;
  }

  std::printf("%-22s %8s %10s %10s %9s\n", "nest", "space", "assessed",
              "speedup", "variant");
  int Transformed = 0;
  for (const workloads::CorpusEntry &E : Corpus) {
    auto Baseline = cir::parseProgram(E.Source);
    if (!Baseline.ok()) {
      std::printf("%-22s parse error\n", E.Name.c_str());
      continue;
    }
    driver::OrchestratorOptions Opts;
    Opts.SearcherName = "bandit";
    Opts.MaxEvaluations = 25;
    Opts.Eval.Machine = machine::MachineConfig::tiny();
    driver::Orchestrator Orch(**Prog, **Baseline, Opts);
    auto R = Orch.runSearch();
    if (!R.ok()) {
      std::printf("%-22s error: %s\n", E.Name.c_str(), R.message().c_str());
      continue;
    }
    if (!R->BaselineChosen)
      ++Transformed;
    std::printf("%-22s %8llu %10d %9.2fx %9s\n", E.Name.c_str(),
                (unsigned long long)R->Space.fullSize(),
                R->Search.Evaluations, R->Speedup,
                R->BaselineChosen ? "baseline" : "tuned");
  }
  std::printf("\n%d / %zu nests improved over their baselines\n", Transformed,
              Corpus.size());
  return 0;
}
