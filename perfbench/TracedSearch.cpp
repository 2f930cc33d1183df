//===- TracedSearch.cpp - runSearch rebuilt from public calls, with spans ------===//

#include "TracedSearch.h"

#include "src/analysis/LegalityOracle.h"
#include "src/analysis/TransformPlan.h"
#include "src/cir/Printer.h"
#include "src/locus/Modules.h"
#include "src/locus/Optimizer.h"
#include "src/search/EvalCache.h"
#include "src/search/FaultTolerance.h"
#include "src/search/Journal.h"
#include "src/search/PersistentEvalCache.h"

#include <atomic>
#include <cmath>
#include <limits>
#include <map>
#include <mutex>
#include <optional>

namespace perfbench {

using namespace locus;

namespace {

/// Hands out one id per distinct point, shared by every span of that point
/// and unique across the process (a traced run holds several searches).
class PointIds {
public:
  uint64_t get(const std::string &Key) {
    static std::atomic<uint64_t> Next{1};
    std::lock_guard<std::mutex> L(M);
    auto [It, Inserted] = Ids.emplace(Key, 0);
    if (Inserted)
      It->second = Next.fetch_add(1);
    return It->second;
  }

  std::map<uint64_t, std::string> byId() const {
    std::lock_guard<std::mutex> L(M);
    std::map<uint64_t, std::string> Out;
    for (const auto &[Key, Id] : Ids)
      Out.emplace(Id, Key);
    return Out;
  }

private:
  mutable std::mutex M; ///< guards Ids
  std::map<std::string, uint64_t> Ids;
};

transform::TransformContext makeContext(const driver::OrchestratorOptions &Opts,
                                        cir::Program *Prog, bool VerifyEach) {
  transform::TransformContext TCtx;
  TCtx.RequireDeps = Opts.RequireDeps;
  TCtx.Prog = Prog;
  TCtx.Snippets = Opts.Snippets;
  TCtx.VerifyEach = VerifyEach && Opts.VerifyEach;
  TCtx.TrustParallel = Opts.TrustParallel;
  TCtx.AllowSnippetFiles = Opts.AllowSnippetFiles;
  return TCtx;
}

/// The Orchestrator's variant objective with a span around every layer call.
class TracedObjective : public search::BatchObjective {
public:
  TracedObjective(const lang::LocusProgram &LProg,
                  const lang::ModuleRegistry &Registry,
                  const cir::Program &Baseline,
                  const driver::OrchestratorOptions &Opts,
                  double BaselineChecksum, uint64_t DeadlineIterations,
                  search::VariantOutcomeCache *Cache, bool Persistent,
                  Tracer &T, PointIds &Ids)
      : LProg(LProg), Registry(Registry), Baseline(Baseline), Opts(Opts),
        BaselineChecksum(BaselineChecksum),
        DeadlineIterations(DeadlineIterations), Cache(Cache),
        InsertSpan(Persistent ? "search.store_append" : "search.cache_insert"),
        T(T), Ids(Ids) {}

  search::EvalOutcome assess(const search::Point &P) override {
    AssessRecord Rec;
    Rec.PointKey = P.key();
    Rec.PointId = Ids.get(Rec.PointKey);
    search::EvalOutcome Out;
    {
      ScopedSpan Root(&T, "driver.assess", Rec.PointId);
      Out = assessTraced(P, Rec);
    }
    std::lock_guard<std::mutex> L(M);
    Records.push_back(std::move(Rec));
    return Out;
  }

  std::vector<AssessRecord> takeRecords() {
    std::lock_guard<std::mutex> L(M);
    return std::move(Records);
  }

private:
  search::EvalOutcome assessTraced(const search::Point &P, AssessRecord &Rec) {
    using search::EvalOutcome;
    using search::FailureKind;
    std::unique_ptr<cir::Program> Variant;
    lang::ExecOutcome Exec;
    {
      ScopedSpan S(&T, "locus.materialize");
      Variant = Baseline.clone();
      transform::TransformContext TCtx = makeContext(Opts, Variant.get(), true);
      lang::LocusInterpreter Interp(LProg, Registry);
      Exec = Interp.applyPoint(*Variant, P, TCtx);
    }
    Rec.TransformsApplied = Exec.TransformsApplied;
    if (!Exec.Ok)
      return EvalOutcome::fail(FailureKind::TransformIllegal, Exec.Error);
    if (Exec.InvalidPoint)
      return EvalOutcome::fail(Exec.IllegalTransform
                                   ? FailureKind::TransformIllegal
                                   : FailureKind::InvalidPoint,
                               Exec.InvalidReason);
    Rec.Materialized = true;

    search::CacheKey Key;
    if (Cache) {
      std::string Text;
      {
        ScopedSpan S(&T, "cir.print");
        Text = cir::printProgram(*Variant);
      }
      Rec.VariantBytes = Text.size();
      {
        ScopedSpan S(&T, "search.key");
        Key = search::makeCacheKey(Text);
      }
      std::optional<EvalOutcome> Hit;
      {
        ScopedSpan S(&T, "search.cache_lookup");
        Hit = Cache->lookup(Key, P.key());
      }
      if (Hit) {
        Rec.CacheHit = true;
        return *Hit;
      }
    }

    EvalOutcome Out = evaluateVariant(std::move(Variant), Rec);
    if (Cache && Out.Failure != FailureKind::MetricUnstable) {
      ScopedSpan S(&T, InsertSpan);
      Cache->insert(Key, P.key(), Out);
    }
    return Out;
  }

  search::EvalOutcome evaluateVariant(std::unique_ptr<cir::Program> Variant,
                                      AssessRecord &Rec) {
    using search::EvalOutcome;
    using search::FailureKind;
    eval::EvalOptions EOpts = Opts.Eval;
    if (DeadlineIterations > 0)
      EOpts.MaxIterations = std::min(EOpts.MaxIterations, DeadlineIterations);
    eval::ProgramEvaluator Eval(*Variant, EOpts);
    Status Prep = Status::success();
    {
      ScopedSpan S(&T, "eval.prepare");
      Prep = Eval.prepare();
    }
    if (!Prep.ok())
      return EvalOutcome::fail(FailureKind::PrepareFailed, Prep.message());
    if (Opts.InitHook)
      Opts.InitHook(Eval);
    eval::RunResult Run;
    {
      ScopedSpan S(&T, "eval.run");
      Run = Eval.run();
    }
    Rec.Evaluated = true;
    Rec.Run = Run;
    Rec.Variant = std::move(Variant);
    if (!Run.Ok) {
      bool DeadlineHit =
          Run.Error.find("iteration budget exceeded") != std::string::npos;
      return EvalOutcome::fail(DeadlineHit ? FailureKind::BudgetExceeded
                                           : FailureKind::RuntimeTrap,
                               Run.Error);
    }
    if (!std::isfinite(Run.Cycles))
      return EvalOutcome::fail(FailureKind::MetricUnstable,
                               "non-finite cycle metric");
    if (!std::isnan(BaselineChecksum)) {
      double Tol =
          Opts.ChecksumRtol * std::max(1.0, std::abs(BaselineChecksum));
      if (std::isnan(Run.Checksum) ||
          std::abs(Run.Checksum - BaselineChecksum) > Tol)
        return EvalOutcome::fail(FailureKind::ChecksumMismatch,
                                 "checksum " + std::to_string(Run.Checksum) +
                                     " vs baseline " +
                                     std::to_string(BaselineChecksum));
    }
    return EvalOutcome::success(Run.Cycles);
  }

  const lang::LocusProgram &LProg;
  const lang::ModuleRegistry &Registry;
  const cir::Program &Baseline;
  const driver::OrchestratorOptions &Opts;
  double BaselineChecksum;
  uint64_t DeadlineIterations;
  search::VariantOutcomeCache *Cache;
  const char *InsertSpan;
  Tracer &T;
  PointIds &Ids;
  std::mutex M; ///< guards Records
  std::vector<AssessRecord> Records;
};

/// DistributedObjective with a span around each Coordinator::assess.
class TracedDistributed : public search::BatchObjective {
public:
  TracedDistributed(service::Coordinator &C, search::Objective &Fallback,
                    Tracer &T, PointIds &Ids)
      : C(C), Fallback(Fallback), T(T), Ids(Ids) {}
  search::EvalOutcome assess(const search::Point &P) override {
    ScopedSpan S(&T, "service.task", Ids.get(P.key()));
    return C.assess(P, Fallback);
  }

private:
  service::Coordinator &C;
  search::Objective &Fallback;
  Tracer &T;
  PointIds &Ids;
};

lang::Value planArgToValue(const analysis::PlanArg &A) {
  using analysis::PlanArg;
  switch (A.K) {
  case PlanArg::Kind::Int:
    return lang::Value(A.Int);
  case PlanArg::Kind::Float:
    return lang::Value(A.Float);
  case PlanArg::Kind::Str:
    return lang::Value(A.Str);
  case PlanArg::Kind::List: {
    std::vector<lang::Value> Items;
    for (const PlanArg &I : A.List)
      Items.push_back(planArgToValue(I));
    return lang::Value::list(std::move(Items));
  }
  default:
    return lang::Value::none();
  }
}

/// Clone + applyPoint + prepare + run of one point outside the search (the
/// re-materialization of the winner).
Expected<eval::RunResult> runPoint(const lang::LocusProgram &LProg,
                                   const lang::ModuleRegistry &Registry,
                                   const cir::Program &Baseline,
                                   const driver::OrchestratorOptions &Opts,
                                   const search::Point &P, Tracer &T) {
  std::unique_ptr<cir::Program> Variant;
  lang::ExecOutcome Exec;
  {
    ScopedSpan S(&T, "locus.materialize");
    Variant = Baseline.clone();
    transform::TransformContext TCtx = makeContext(Opts, Variant.get(), true);
    lang::LocusInterpreter Interp(LProg, Registry);
    Exec = Interp.applyPoint(*Variant, P, TCtx);
  }
  if (!Exec.Ok || Exec.InvalidPoint)
    return Expected<eval::RunResult>::error(
        "re-materializing the best variant failed: " +
        (Exec.Ok ? Exec.InvalidReason : Exec.Error));
  eval::ProgramEvaluator Eval(*Variant, Opts.Eval);
  Status Prep = Status::success();
  {
    ScopedSpan S(&T, "eval.prepare");
    Prep = Eval.prepare();
  }
  if (!Prep.ok())
    return Expected<eval::RunResult>::error(Prep.message());
  if (Opts.InitHook)
    Opts.InitHook(Eval);
  ScopedSpan S(&T, "eval.run");
  eval::RunResult R = Eval.run();
  if (!R.Ok)
    return Expected<eval::RunResult>::error(R.Error);
  return R;
}

} // namespace

Expected<TracedSearchResult>
tracedRunSearch(const lang::LocusProgram &LProgIn, const cir::Program &Baseline,
                const driver::OrchestratorOptions &OptsIn, Tracer &T) {
  using Ret = Expected<TracedSearchResult>;
  driver::OrchestratorOptions Opts = OptsIn;
  if (Opts.TrustParallel)
    Opts.Eval.TrustParallel = true;
  if (Opts.NativeMetric || Opts.ResumeFromJournal)
    return Ret::error("the traced search supports neither native metrics nor "
                      "resume");
  TracedSearchResult Result;
  PointIds Ids;

  std::optional<lang::ModuleRegistry> RegistryStore;
  {
    ScopedSpan S(&T, "locus.registry");
    RegistryStore.emplace(lang::ModuleRegistry::standard());
  }
  const lang::ModuleRegistry &Registry = *RegistryStore;

  std::unique_ptr<lang::LocusProgram> Optimized;
  if (Opts.OptimizeProgram) {
    ScopedSpan S(&T, "locus.optimize");
    std::unique_ptr<cir::Program> Clone = Baseline.clone();
    transform::TransformContext TCtx = makeContext(Opts, Clone.get(), false);
    Optimized =
        lang::optimizeLocusProgram(LProgIn, *Clone, Registry, TCtx, nullptr);
  }
  const lang::LocusProgram &LProg = Optimized ? *Optimized : LProgIn;

  search::Space Space;
  analysis::TransformPlan Plan;
  {
    ScopedSpan S(&T, "locus.extract");
    std::unique_ptr<cir::Program> Target = Baseline.clone();
    transform::TransformContext TCtx = makeContext(Opts, Target.get(), false);
    lang::LocusInterpreter Interp(LProg, Registry);
    lang::ExecOutcome Extract = Interp.extractSpace(
        *Target, Space, TCtx, Opts.StaticPrune ? &Plan : nullptr);
    if (!Extract.Ok)
      return Ret::error("space extraction failed: " + Extract.Error);
  }

  std::optional<eval::RunResult> BaseRun;
  {
    ScopedSpan S(&T, "eval.baseline");
    eval::ProgramEvaluator Eval(Baseline, Opts.Eval);
    if (Eval.prepare().ok()) {
      if (Opts.InitHook)
        Opts.InitHook(Eval);
      eval::RunResult R = Eval.run();
      if (R.Ok)
        BaseRun = R;
    }
  }
  double BaselineChecksum = std::numeric_limits<double>::quiet_NaN();
  uint64_t DeadlineIterations = 0;
  if (BaseRun) {
    Result.BaselineCycles = BaseRun->Cycles;
    BaselineChecksum = BaseRun->Checksum;
    if (Opts.VariantDeadlineFactor > 0 && BaseRun->LoopIterations > 0) {
      double Budget = Opts.VariantDeadlineFactor *
                      static_cast<double>(BaseRun->LoopIterations);
      DeadlineIterations = Budget >= static_cast<double>(UINT64_MAX)
                               ? UINT64_MAX
                               : static_cast<uint64_t>(Budget);
    }
  } else {
    Result.BaselineCycles = std::numeric_limits<double>::infinity();
  }

  search::EvalCache MemCache;
  std::unique_ptr<search::PersistentEvalCache> DiskCache;
  search::VariantOutcomeCache *Cache = nullptr;
  if (Opts.UseEvalCache) {
    if (!Opts.CacheDir.empty()) {
      ScopedSpan S(&T, "search.store_load");
      search::PersistentCacheOptions PCOpts;
      PCOpts.Dir = Opts.CacheDir;
      PCOpts.ReadOnly = Opts.CacheReadOnly;
      DiskCache = std::make_unique<search::PersistentEvalCache>(PCOpts);
      Cache = DiskCache.get();
    } else {
      Cache = &MemCache;
    }
  }
  TracedObjective Objective(LProg, Registry, Baseline, Opts, BaselineChecksum,
                            DeadlineIterations, Cache, DiskCache != nullptr, T,
                            Ids);

  std::unique_ptr<search::Searcher> Searcher =
      search::makeSearcher(Opts.SearcherName);
  if (!Searcher)
    return Ret::error("unknown search module: " + Opts.SearcherName);

  std::unique_ptr<service::Coordinator> Coord;
  std::unique_ptr<TracedDistributed> Dist;
  bool ServeMode = !Opts.Serve.QueueDir.empty();
  if (ServeMode) {
    ScopedSpan S(&T, "service.start");
    service::CoordinatorOptions COpts = Opts.Serve;
    COpts.SpaceFingerprint = Space.fingerprint();
    COpts.ConfigDigest =
        search::journalConfigDigest(Opts.SearcherName, Opts.Seed);
    COpts.StopFlag = Opts.StopFlag;
    auto C = service::Coordinator::start(std::move(COpts));
    if (!C.ok())
      return Ret::error(C.message());
    Coord = std::move(*C);
    Dist = std::make_unique<TracedDistributed>(*Coord, Objective, T, Ids);
    Result.Served = true;
  }
  search::Objective &Inner =
      Dist ? static_cast<search::Objective &>(*Dist) : Objective;
  search::GuardedObjective Guarded(Inner, Opts.Guard);
  search::SearchOptions SOpts;
  SOpts.MaxEvaluations = Opts.MaxEvaluations;
  SOpts.Seed = Opts.Seed;
  SOpts.Jobs = ServeMode ? std::max(1, std::max(Opts.Jobs, Opts.Serve.Workers))
                         : Opts.Jobs;
  SOpts.StopFlag = Opts.StopFlag;

  std::optional<analysis::LegalityOracle> Oracle;
  if (Opts.StaticPrune) {
    analysis::ModuleInvoker Invoker =
        [&Registry, &Opts](const std::string &Module, const std::string &Member,
                           const std::map<std::string, analysis::PlanArg> &Args,
                           cir::Block &Region,
                           cir::Program &Prog) -> transform::TransformResult {
      const lang::ModuleMember *M = Registry.find(Module, Member);
      if (!M)
        return transform::TransformResult::error("unknown module member " +
                                                 Module + "." + Member);
      transform::TransformContext ReplayCtx = makeContext(Opts, &Prog, false);
      lang::ModuleArgs MArgs;
      for (const auto &[Key, Arg] : Args)
        MArgs[Key] = planArgToValue(Arg);
      lang::ModuleCallContext Ctx{&Region, &Prog, &ReplayCtx};
      return M->Fn(MArgs, Ctx).Result;
    };
    {
      ScopedSpan S(&T, "analysis.oracle_build");
      Oracle.emplace(Baseline, Space, std::move(Plan), std::move(Invoker));
    }
    SOpts.StaticFilter = [&](const search::Point &P) {
      ScopedSpan S(&T, "analysis.classify", Ids.get(P.key()));
      ++Result.Classified;
      return Oracle->classify(P);
    };
  }

  search::SearchJournal Journal;
  if (!Opts.JournalPath.empty()) {
    ScopedSpan S(&T, "search.journal_open");
    search::JournalHeader Header;
    Header.SpaceFingerprint = Space.fingerprint();
    Header.ConfigDigest =
        search::journalConfigDigest(Opts.SearcherName, Opts.Seed);
    auto J = search::SearchJournal::open(Opts.JournalPath, Opts.JournalSyncMode,
                                         Header, nullptr);
    if (!J.ok())
      return Ret::error(J.message());
    Journal = std::move(*J);
    SOpts.OnFreshEval = [&](const search::EvalRecord &Rec) {
      ScopedSpan S(&T, "search.journal_append", Ids.get(Rec.P.key()));
      (void)Journal.append(Rec);
    };
  }

  {
    ScopedSpan S(&T, "search.search");
    T.setAsyncParent(S.id());
    Result.Search = Searcher->search(Space, Guarded, SOpts);
    T.setAsyncParent(-1);
  }
  if (Oracle)
    Result.Search.PrunedStaticByRange = Oracle->rangePrunedCount();
  if (Coord) {
    ScopedSpan S(&T, "service.shutdown");
    Coord->shutdown();
    Result.Service = Coord->stats();
  }
  if (Cache) {
    search::EvalCacheStats CStats = Cache->stats();
    Result.Search.CacheHits = CStats.Hits;
    Result.Search.CacheMisses = CStats.Misses;
    Result.Search.CacheDedupSaves = CStats.DedupSaves;
  }
  if (DiskCache) {
    search::PersistentCacheStats PStats = DiskCache->persistentStats();
    Result.Search.CacheLoadedPersistent = PStats.LoadedEntries;
    Result.Search.CachePersistedAppends = PStats.AppendedEntries;
    Result.Search.CacheWarnings = PStats.Warnings;
    Result.Search.CacheDegraded = PStats.Degraded;
  }
  Result.Assessed = Objective.takeRecords();
  Result.PointKeys = Ids.byId();

  if (!Result.Search.Found ||
      Result.Search.BestMetric >= Result.BaselineCycles) {
    if (!BaseRun)
      return Ret::error(
          "no valid variant found and the baseline is not executable");
    Result.BaselineChosen = true;
    Result.BestCycles = Result.BaselineCycles;
    Result.BestRun = *BaseRun;
    return Result;
  }
  ScopedSpan S(&T, "driver.best");
  Expected<eval::RunResult> Best =
      runPoint(LProg, Registry, Baseline, Opts, Result.Search.Best, T);
  if (!Best.ok())
    return Ret::error(Best.message());
  Result.BestRun = *Best;
  Result.BestCycles = Best->Cycles;
  Result.Speedup = Result.BaselineCycles / Result.BestCycles;
  return Result;
}

} // namespace perfbench
