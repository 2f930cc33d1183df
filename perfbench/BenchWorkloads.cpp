//===- BenchWorkloads.cpp - The benchmark's three search workloads -------------===//

#include "BenchWorkloads.h"

#include "src/analysis/RegionDiscovery.h"
#include "src/cir/Parser.h"
#include "src/locus/LocusParser.h"
#include "src/support/Hashing.h"
#include "src/workloads/Workloads.h"

#include <algorithm>
#include <functional>

namespace perfbench {

using namespace locus;

namespace {

uint64_t splitmix(uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

/// Search seed of job \p Index: fixed per workload and job, so every run
/// repeats the same fixed-budget search and its time, counts and best point
/// are comparable across runs and commits.
uint64_t searchSeed(const std::string &Workload, size_t Index) {
  return splitmix(fnv1a(Workload) + Index) % 1000000007ULL;
}

double unitDouble(uint64_t &State) {
  State = splitmix(State);
  return static_cast<double>(State >> 11) * 0x1.0p-53;
}

/// The generated inputs: every double array and every double scalar without
/// an initializer gets values in [0, 1) drawn from the benchmark seed, so
/// that --seed chooses the data every variant runs on. The cycle model
/// depends on addresses only, so the data never changes which points a
/// search visits, only the checksums every variant must reproduce.
std::function<void(eval::ProgramEvaluator &)>
seededInputs(const cir::Program &P, uint64_t Seed) {
  std::vector<std::pair<std::string, std::vector<double>>> Arrays;
  std::vector<std::pair<std::string, double>> Scalars;
  for (const auto &G : P.Globals) {
    if (G->Elem != cir::ElemType::Double)
      continue;
    uint64_t State = splitmix(Seed) ^ fnv1a(G->Name);
    if (G->isArray()) {
      int64_t Total = 1;
      for (int64_t D : G->Dims)
        Total *= D;
      std::vector<double> V(static_cast<size_t>(Total));
      for (double &X : V)
        X = unitDouble(State);
      Arrays.emplace_back(G->Name, std::move(V));
    } else if (!G->Init) {
      Scalars.emplace_back(G->Name, unitDouble(State));
    }
  }
  return [Arrays = std::move(Arrays),
          Scalars = std::move(Scalars)](eval::ProgramEvaluator &E) {
    // A variant that lost an array fails its checksum comparison; the
    // search classifies that, so errors here need no handling.
    for (const auto &[Name, Values] : Arrays)
      (void)E.setDoubleArray(Name, Values);
    for (const auto &[Name, Value] : Scalars)
      (void)E.setScalar(Name, Value);
  };
}

driver::OrchestratorOptions baseOptions(const std::string &Searcher,
                                        int Budget, uint64_t Seed) {
  driver::OrchestratorOptions Opts;
  Opts.SearcherName = Searcher;
  Opts.MaxEvaluations = Budget;
  Opts.Seed = Seed;
  Opts.Jobs = 1;
  Opts.Eval.Machine = machine::MachineConfig::xeonE5v3();
  Opts.JournalSyncMode = search::JournalSync::Flush;
  return Opts;
}

Expected<std::shared_ptr<const cir::Program>> parseC(const std::string &Src,
                                                     Tracer *T) {
  ScopedSpan S(T, "cir.parse");
  auto P = cir::parseProgram(Src);
  if (!P.ok())
    return Expected<std::shared_ptr<const cir::Program>>::error(
        "baseline parse error: " + P.message());
  return std::shared_ptr<const cir::Program>(std::move(*P));
}

Expected<std::shared_ptr<const lang::LocusProgram>>
parseLocus(const std::string &Src, Tracer *T) {
  ScopedSpan S(T, "locus.parse");
  auto P = lang::parseLocusProgram(Src);
  if (!P.ok())
    return Expected<std::shared_ptr<const lang::LocusProgram>>::error(
        "Locus parse error: " + P.message());
  return std::shared_ptr<const lang::LocusProgram>(std::move(*P));
}

Expected<Workload> buildDgemm(const WorkloadConfig &Cfg, Workload W, int N,
                              const std::string &Searcher, int Budget,
                              Tracer *T) {
  auto Baseline = parseC(workloads::dgemmSource(N, N, N), T);
  if (!Baseline.ok())
    return Expected<Workload>::error(Baseline.message());
  auto LProg = parseLocus(workloads::dgemmLocusFig7(std::max(8, N / 2)), T);
  if (!LProg.ok())
    return Expected<Workload>::error(LProg.message());
  W.Jobs.push_back(Job{"matmul", *LProg, *Baseline,
                       baseOptions(Searcher, Budget, searchSeed(Cfg.Name, 0))});
  W.Jobs.back().Opts.InitHook = seededInputs(**Baseline, Cfg.Seed);
  return W;
}

Expected<Workload> buildPolybench(const WorkloadConfig &Cfg, Workload W,
                                  int N, int Budget, Tracer *T) {
  for (const std::string &Kernel : workloads::polybenchKernels()) {
    auto Source = parseC(workloads::polybenchSource(Kernel, N), T);
    if (!Source.ok())
      return Expected<Workload>::error(Kernel + ": " + Source.message());
    analysis::DiscoveryOptions DOpts;
    DOpts.Machine = machine::MachineConfig::xeonE5v3();
    analysis::DiscoveryReport Report;
    std::unique_ptr<cir::Program> Annotated;
    {
      ScopedSpan S(T, "analysis.discover");
      Report = analysis::discoverRegions(**Source, DOpts);
      Annotated = (*Source)->clone();
      Expected<int> Injected = analysis::annotateRegions(*Annotated, Report);
      if (!Injected.ok())
        return Expected<Workload>::error(Kernel + ": annotation failed: " +
                                         Injected.message());
    }
    std::shared_ptr<const cir::Program> Baseline(std::move(Annotated));
    auto Inputs = seededInputs(*Baseline, Cfg.Seed);
    for (const analysis::NestCandidate *C : Report.annotatable()) {
      auto LProg = parseLocus(analysis::genericLocusProgram(*C), T);
      if (!LProg.ok())
        return Expected<Workload>::error(Kernel + "/" + C->Name + ": " +
                                         LProg.message());
      uint64_t Seed = searchSeed(Cfg.Name, W.Jobs.size());
      W.Jobs.push_back(Job{Kernel + "/" + C->Name, *LProg, Baseline,
                           baseOptions("bandit", Budget, Seed)});
      W.Jobs.back().Opts.InitHook = Inputs;
    }
  }
  return W;
}

} // namespace

const std::vector<std::string> &workloadNames() {
  static const std::vector<std::string> Names = {
      "dgemm-fig7", "polybench-cold", "dgemm-serve"};
  return Names;
}

Expected<Workload> buildWorkload(const WorkloadConfig &Cfg, Tracer *T) {
  Workload W;
  W.Name = Cfg.Name;
  bool Smoke = Cfg.Smoke;
  if (Cfg.Name == "dgemm-fig7") {
    W.NominalRepS = 1.2;
    return buildDgemm(Cfg, std::move(W), Smoke ? 24 : 64, "bandit",
                      Smoke ? 8 : 40, T);
  }
  if (Cfg.Name == "polybench-cold") {
    W.ColdStore = true;
    W.NominalRepS = 1.3;
    return buildPolybench(Cfg, std::move(W), Smoke ? 8 : 16, Smoke ? 6 : 40,
                          T);
  }
  if (Cfg.Name == "dgemm-serve") {
    W.Served = true;
    W.NominalRepS = 1.5;
    auto R = buildDgemm(Cfg, std::move(W), Smoke ? 16 : 32, "de",
                        Smoke ? 8 : 96, T);
    if (R.ok())
      for (Job &J : R->Jobs)
        J.Opts.Serve.Workers = 2;
    return R;
  }
  return Expected<Workload>::error("unknown workload '" + Cfg.Name + "'");
}

std::vector<std::string> workerArgv(const WorkloadConfig &Cfg,
                                    const std::string &QueueDir) {
  std::vector<std::string> Argv = {Cfg.SelfExe,  "--service-worker", QueueDir,
                                   "--workload", Cfg.Name,           "--seed",
                                   std::to_string(Cfg.Seed)};
  if (Cfg.Smoke)
    Argv.push_back("--smoke");
  return Argv;
}

void placeState(Workload &W, const WorkloadConfig &Cfg,
                const std::string &StateDir) {
  for (size_t I = 0; I < W.Jobs.size(); ++I) {
    driver::OrchestratorOptions &O = W.Jobs[I].Opts;
    std::string Tag = "job" + std::to_string(I);
    if (W.ColdStore) {
      O.CacheDir = StateDir + "/store";
      O.JournalPath = StateDir + "/" + Tag + ".journal";
    }
    if (W.Served) {
      O.Serve.QueueDir = StateDir + "/" + Tag + ".queue";
      O.Serve.WorkerArgv = [Cfg, Q = O.Serve.QueueDir](int, int) {
        return workerArgv(Cfg, Q);
      };
    }
  }
}

} // namespace perfbench
