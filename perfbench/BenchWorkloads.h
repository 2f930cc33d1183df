//===- BenchWorkloads.h - The benchmark's three search workloads -*- C++ -*-===//
///
/// \file
/// Each workload is a fixed set of fixed-budget searches, each one a call to
/// driver::Orchestrator::runSearch with a fixed search seed. The benchmark
/// seed generates the program inputs: the contents of every array and the
/// scalar coefficients. Sizes, budgets and search seeds are fixed, so every
/// run repeats the same search on different data, and its time depends on
/// the code measured, not on which points a seed happens to visit.
///
///  dgemm-fig7      Fig. 7 program on DGEMM order 64, xeon, bandit, jobs 1,
///                  in-memory cache. Evaluate-bound.
///  polybench-cold  The 8 PolyBench kernels at N=16, discovered, annotated
///                  and tuned with the generic Fig. 13 program (16 regions),
///                  xeon, bandit, a fresh empty --cache-dir per repetition
///                  and per-region journals with --journal-sync flush.
///                  Bound by per-evaluation fixed costs and commit writes.
///  dgemm-serve     Fig. 7 DGEMM order 32, xeon, de, served by 2 managed
///                  worker processes (this binary re-executed). Bound by the
///                  queue round trip.
///
//===----------------------------------------------------------------------===//
#ifndef LOCUS_PERFBENCH_BENCHWORKLOADS_H
#define LOCUS_PERFBENCH_BENCHWORKLOADS_H

#include "Trace.h"

#include "src/cir/Ast.h"
#include "src/driver/Orchestrator.h"
#include "src/locus/LocusAst.h"
#include "src/support/Error.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// One fixed-budget search of a workload.
struct Job {
  std::string Label;
  std::shared_ptr<const locus::lang::LocusProgram> LProg;
  std::shared_ptr<const locus::cir::Program> Baseline;
  locus::driver::OrchestratorOptions Opts;
};

struct WorkloadConfig {
  std::string Name;
  uint64_t Seed = 1;
  /// Reduced sizes and budgets for the benchmark's own smoke test.
  bool Smoke = false;
  /// This executable, re-executed as the serve workload's worker fleet.
  std::string SelfExe;
};

struct Workload {
  std::string Name;
  std::vector<Job> Jobs;
  /// Searches use a durable store and journals that start empty.
  bool ColdStore = false;
  bool Served = false;
  /// Wall time of one timed repetition and the set-up repetitions before it
  /// on the 4-core host the benchmark was tuned on; turns --seconds into a
  /// repetition count.
  double NominalRepS = 1;
};

/// The workload names, in the order the benchmark documents them.
const std::vector<std::string> &workloadNames();

/// Builds a workload from its generated inputs: parses the sources and,
/// for PolyBench, discovers and annotates the regions. Spans for those
/// calls go to \p T when non-null. The jobs carry no state paths yet.
locus::Expected<Workload> buildWorkload(const WorkloadConfig &Cfg,
                                        Tracer *T = nullptr);

/// Points every job's durable state (store, journals, queue) at \p StateDir,
/// which must exist.
void placeState(Workload &W, const WorkloadConfig &Cfg,
                const std::string &StateDir);

/// Worker-fleet argv for the serve workload.
std::vector<std::string> workerArgv(const WorkloadConfig &Cfg,
                                    const std::string &QueueDir);

} // namespace perfbench

#endif // LOCUS_PERFBENCH_BENCHWORKLOADS_H
