//===- TracedSearch.h - runSearch rebuilt from public calls, with spans -*- C++ -*-===//
///
/// \file
/// The traced run cannot instrument src/, so it drives the same public
/// functions driver::Orchestrator::runSearch calls, in the same order and
/// with the same options, and wraps each call in a span: program
/// optimization and space extraction (locus), the baseline evaluation
/// (eval), store preload and appends, cache key and lookup, journal
/// appends and the searcher itself (search), the legality oracle
/// (analysis), materialization through LocusInterpreter::applyPoint
/// (locus), printProgram (cir), ProgramEvaluator::prepare and run (eval)
/// and, in serve mode, Coordinator start, assess and shutdown (service).
///
/// The rebuilt search must replay the timed run exactly: same points, same
/// outcomes, same best point. The benchmark checks that, so a drift between
/// this file and the Orchestrator shows as a failed cross-check, never as
/// silently different numbers.
///
//===----------------------------------------------------------------------===//
#ifndef LOCUS_PERFBENCH_TRACEDSEARCH_H
#define LOCUS_PERFBENCH_TRACEDSEARCH_H

#include "Trace.h"

#include "src/driver/Orchestrator.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// One call of the objective, as the traced run saw it.
struct AssessRecord {
  uint64_t PointId = 0;
  std::string PointKey;
  bool Materialized = false; ///< applyPoint succeeded with a valid variant
  int TransformsApplied = 0;
  size_t VariantBytes = 0; ///< printed variant text
  bool CacheHit = false;
  bool Evaluated = false; ///< reached ProgramEvaluator::run
  locus::eval::RunResult Run;
  /// The evaluated variant, kept for the per-iteration probes.
  std::unique_ptr<locus::cir::Program> Variant;
};

struct TracedSearchResult {
  locus::search::SearchResult Search;
  double BaselineCycles = 0;
  double BestCycles = 0;
  double Speedup = 1.0;
  bool BaselineChosen = false;
  locus::eval::RunResult BestRun;
  locus::service::ServiceStats Service;
  bool Served = false;
  int Classified = 0; ///< points the legality oracle classified
  std::vector<AssessRecord> Assessed;
  /// Point id (as carried by the spans) -> point key.
  std::map<uint64_t, std::string> PointKeys;
};

/// Runs one search the way Orchestrator::runSearch does, recording spans
/// into \p T. Native-metric and resume options are not supported (the
/// benchmark uses neither).
locus::Expected<TracedSearchResult>
tracedRunSearch(const locus::lang::LocusProgram &LProg,
                const locus::cir::Program &Baseline,
                const locus::driver::OrchestratorOptions &Opts, Tracer &T);

} // namespace perfbench

#endif // LOCUS_PERFBENCH_TRACEDSEARCH_H
