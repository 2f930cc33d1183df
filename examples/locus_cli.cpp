//===- locus_cli.cpp - Command-line driver for the Locus system ---------------===//
//
// The tool a downstream user runs, wrapping the full pipeline: search (or
// direct) runs of a Locus program over a C source, the tuning-service
// coordinator and worker, pragma-free region discovery, source-only bounds
// proofs, and journal/queue inspection. Every option is one row of the
// Options table below; running the tool without arguments prints the usage
// generated from it.
//
//===----------------------------------------------------------------------===//

#include "src/analysis/Dependence.h"
#include "src/analysis/ParallelSafety.h"
#include "src/analysis/RangeAnalysis.h"
#include "src/analysis/RegionDiscovery.h"
#include "src/analysis/TransformPlan.h"
#include "src/analysis/Verifier.h"
#include "src/cir/AstUtils.h"
#include "src/cir/Parser.h"
#include "src/cir/Printer.h"
#include "src/driver/Orchestrator.h"
#include "src/eval/NativeEvaluator.h"
#include "src/locus/LocusParser.h"
#include "src/locus/LocusPrinter.h"
#include "src/search/PointCodec.h"
#include "src/support/RecordLog.h"
#include "src/support/Signals.h"
#include "src/support/StringUtils.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <string_view>
#include <sys/stat.h>
#include <unistd.h>

using namespace locus;

namespace {

std::string readFile(const std::string &Path, bool &Ok) {
  std::ifstream In(Path);
  Ok = static_cast<bool>(In);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

bool writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  Out << Text;
  return static_cast<bool>(Out);
}

/// Everything the command line sets; each option's setter writes here.
struct CliConfig {
  driver::OrchestratorOptions Opts;
  bool Direct = false, Native = false, Lint = false, LintStrict = false;
  bool RaceCheck = false, Tune = false, Serve = false, Worker = false;
  int ServeWorkers = 1;
  int DiscoverTop = 0; ///< 0 tunes every annotatable candidate
  std::string PointPath, EmitC, ExportDirect, ExportPoint, QueueDir, WorkerId;
};

/// The invocation forms (bit set); every option names the ones accepting it.
namespace mode {
constexpr unsigned Search = 1, Serve = 2, Worker = 4, Discover = 8,
                   Bounds = 16;
/// Modes that run a search: options shaping one.
constexpr unsigned Tuning = Search | Serve | Discover;
/// Modes that build the evaluation objective, a spawned worker included.
constexpr unsigned Objective = Tuning | Worker;
} // namespace mode

struct ModeInfo {
  unsigned Bit;
  char Letter;
  const char *Name;
  const char *Synopsis;
};

const ModeInfo AllModes[] = {
    {mode::Search, 's', "search", "PROGRAM.locus SOURCE.c [options]"},
    {mode::Serve, 'v', "--serve",
     "PROGRAM.locus SOURCE.c --serve --queue-dir DIR [options]"},
    {mode::Worker, 'w', "--worker",
     "PROGRAM.locus SOURCE.c --worker --queue-dir DIR [options]"},
    {mode::Discover, 'd', "--discover", "--discover SOURCE.c [options]"},
    {mode::Bounds, 'b', "--bounds-check", "--bounds-check SOURCE.c [options]"},
};

/// Validates an option's value (nullptr for a flag) and stores it. Returns
/// Accepted, or for a bad value what the option wants instead.
using Setter = const char *(*)(CliConfig &, const char *);
constexpr const char *Accepted = nullptr;

struct CliOption {
  const char *Name;
  const char *Value; ///< value placeholder; nullptr for a flag
  const char *Help;
  unsigned Modes;
  /// A --serve coordinator passes the option on to the workers it spawns,
  /// so that they build the identical objective (machine model,
  /// tolerances, cache).
  bool Forward;
  Setter Set;
};

/// Stores \p V in \p Out when it is an integer no smaller than \p Min.
template <typename T> const char *setInt(T &Out, const char *V, T Min) {
  T X;
  if (!parseNumber(V, X) || X < Min)
    return Min > 0 ? "a positive integer" : "a non-negative integer";
  Out = X;
  return Accepted;
}

/// Stores \p V in \p Out when it is a finite number above zero.
const char *setPositive(double &Out, const char *V) {
  double X;
  if (!parseNumber(V, X) || !std::isfinite(X) || X <= 0)
    return "a positive number";
  Out = X;
  return Accepted;
}

using Cfg = CliConfig;
constexpr CliOption Options[] = {
    {"--direct", nullptr,
     "run the direct workflow (no search constructs, or all pinned)",
     mode::Search, false,
     [](Cfg &C, const char *) { C.Direct = true; return Accepted; }},
    {"--point", "FILE",
     "apply the point pinned in FILE (checked against the space; no search)",
     mode::Search, false,
     [](Cfg &C, const char *V) { C.PointPath = V; return Accepted; }},
    {"--search", "NAME",
     "search module: bandit (default), tpe, random, hillclimb, de, exhaustive",
     mode::Tuning, false,
     [](Cfg &C, const char *V) -> const char * {
       if (!search::makeSearcher(V))
         return "a known search module";
       C.Opts.SearcherName = V;
       return Accepted;
     }},
    {"--budget", "N", "variant assessments (default 100)", mode::Tuning, false,
     [](Cfg &C, const char *V) { return setInt(C.Opts.MaxEvaluations, V, 0); }},
    {"--seed", "N", "search seed (default 42)", mode::Tuning, false,
     [](Cfg &C, const char *V) { return setInt(C.Opts.Seed, V, uint64_t{0}); }},
    {"--jobs", "N",
     "concurrent evaluation workers (default 1; same trajectory as serial)",
     mode::Tuning, false,
     [](Cfg &C, const char *V) { return setInt(C.Opts.Jobs, V, 1); }},
    {"--no-eval-cache", nullptr,
     "re-simulate points that materialize to an already-seen variant",
     mode::Objective, true,
     [](Cfg &C, const char *) {
       C.Opts.UseEvalCache = false;
       return Accepted;
     }},
    {"--cache-dir", "DIR",
     "persist the evaluation cache in DIR/evalcache.rlog (shareable)",
     mode::Objective, true,
     [](Cfg &C, const char *V) { C.Opts.CacheDir = V; return Accepted; }},
    {"--cache-readonly", nullptr,
     "read a shared --cache-dir without appending to it", mode::Objective,
     true,
     [](Cfg &C, const char *) {
       C.Opts.CacheReadOnly = true;
       return Accepted;
     }},
    {"--machine", "xeon|tiny", "simulated machine (default xeon)",
     mode::Objective, true,
     [](Cfg &C, const char *V) -> const char * {
       if (std::strcmp(V, "xeon") == 0)
         C.Opts.Eval.Machine = machine::MachineConfig::xeonE5v3();
       else if (std::strcmp(V, "tiny") == 0)
         C.Opts.Eval.Machine = machine::MachineConfig::tiny();
       else
         return "xeon or tiny";
       return Accepted;
     }},
    {"--cores", "N", "override the machine's core count", mode::Objective,
     true,
     [](Cfg &C, const char *V) {
       return setInt(C.Opts.Eval.Machine.Cores, V, 1);
     }},
    {"--emit-c", "FILE", "write the best variant as compilable C",
     mode::Search | mode::Serve, false,
     [](Cfg &C, const char *V) { C.EmitC = V; return Accepted; }},
    {"--export-direct", "FILE",
     "write the best point as a direct Locus program (Section II)",
     mode::Search | mode::Serve, false,
     [](Cfg &C, const char *V) { C.ExportDirect = V; return Accepted; }},
    {"--export-point", "FILE", "write the best point in serialized form",
     mode::Search | mode::Serve, false,
     [](Cfg &C, const char *V) { C.ExportPoint = V; return Accepted; }},
    {"--native", nullptr,
     "also compile and time the best variant in the sandbox; its checksum "
     "must match the simulator's",
     mode::Search | mode::Serve, false,
     [](Cfg &C, const char *) { C.Native = true; return Accepted; }},
    {"--native-metric", nullptr,
     "measure every variant natively (the simulator without a compiler)",
     mode::Objective, true,
     [](Cfg &C, const char *) { C.Opts.NativeMetric = true; return Accepted; }},
    {"--native-timeout", "SECS",
     "ceiling on each sandboxed native run (default 10)", mode::Objective,
     true,
     [](Cfg &C, const char *V) {
       return setPositive(C.Opts.Native.RunTimeoutSeconds, V);
     }},
    {"--keep-workdirs", nullptr,
     "keep each native evaluation's work directory", mode::Objective, true,
     [](Cfg &C, const char *) {
       C.Opts.Native.KeepWorkDir = true;
       return Accepted;
     }},
    {"--checksum-rtol", "X",
     "relative tolerance of checksum validation (default 1e-6)",
     mode::Objective, true,
     [](Cfg &C, const char *V) { return setPositive(C.Opts.ChecksumRtol, V); }},
    {"--journal", "FILE",
     "append every assessed variant to FILE (crash-safe record log)",
     mode::Tuning, false,
     [](Cfg &C, const char *V) { C.Opts.JournalPath = V; return Accepted; }},
    {"--journal-sync", "flush|full",
     "per-record durability: full fsyncs (default), flush reaches the kernel",
     mode::Tuning, false,
     [](Cfg &C, const char *V) -> const char * {
       bool Ok = false;
       C.Opts.JournalSyncMode = search::parseJournalSync(V, Ok);
       return Ok ? Accepted : "flush or full";
     }},
    {"--resume", nullptr,
     "reload --journal and continue the interrupted search", mode::Tuning,
     false,
     [](Cfg &C, const char *) {
       C.Opts.ResumeFromJournal = true;
       return Accepted;
     }},
    {"--race-check", nullptr,
     "print the parallel-safety report of every region loop; exit 0",
     mode::Search, false,
     [](Cfg &C, const char *) { C.RaceCheck = true; return Accepted; }},
    {"--trust-parallel", nullptr,
     "parallelize and model even provably racy loops", mode::Objective, true,
     [](Cfg &C, const char *) {
       C.Opts.TrustParallel = true;
       return Accepted;
     }},
    {"--lint", nullptr,
     "static diagnostics only (verifier, dependences, races, bounds); exit 0",
     mode::Search, false,
     [](Cfg &C, const char *) { C.Lint = true; return Accepted; }},
    {"--lint-strict", nullptr,
     "like --lint, but any finding exits 1 (also for --bounds-check)",
     mode::Search | mode::Bounds, false,
     [](Cfg &C, const char *) {
       C.Lint = C.LintStrict = true;
       return Accepted;
     }},
    {"--verify-each", nullptr,
     "run the CIR verifier after every applied transformation",
     mode::Objective, true,
     [](Cfg &C, const char *) { C.Opts.VerifyEach = true; return Accepted; }},
    {"--no-static-prune", nullptr,
     "disable the static legality oracle (every point is evaluated)",
     mode::Tuning, false,
     [](Cfg &C, const char *) { C.Opts.StaticPrune = false; return Accepted; }},
    {"--tune", nullptr,
     "annotate the candidates and tune each under the generic program",
     mode::Discover, false,
     [](Cfg &C, const char *) { C.Tune = true; return Accepted; }},
    {"--discover-top", "N",
     "with --tune, tune only the N hottest candidates (default all)",
     mode::Discover, false,
     [](Cfg &C, const char *V) { return setInt(C.DiscoverTop, V, 1); }},
    {"--serve", nullptr,
     "dispatch evaluations to worker processes through a durable queue",
     mode::Serve, false,
     [](Cfg &C, const char *) { C.Serve = true; return Accepted; }},
    {"--worker", nullptr, "evaluate the tasks of a --serve queue",
     mode::Worker, false,
     [](Cfg &C, const char *) { C.Worker = true; return Accepted; }},
    {"--queue-dir", "DIR", "the tuning service's queue directory",
     mode::Serve | mode::Worker, false,
     [](Cfg &C, const char *V) { C.QueueDir = V; return Accepted; }},
    {"--workers", "N",
     "worker processes to spawn (default 1; 0 for an external fleet)",
     mode::Serve, false,
     [](Cfg &C, const char *V) { return setInt(C.ServeWorkers, V, 0); }},
    {"--lease-timeout", "SECS",
     "seconds until an unanswered task lease expires", mode::Serve, false,
     [](Cfg &C, const char *V) {
       return setPositive(C.Opts.Serve.LeaseTimeoutSeconds, V);
     }},
    {"--worker-id", "ID", "this worker's name in the queue (default pidN)",
     mode::Worker, false,
     [](Cfg &C, const char *V) { C.WorkerId = V; return Accepted; }},
};

constexpr bool workersAcceptForwardedOptions() {
  for (const CliOption &O : Options)
    if (O.Forward && !(O.Modes & mode::Worker))
      return false;
  return true;
}
static_assert(workersAcceptForwardedOptions(),
              "a worker must accept every option --serve forwards to it");

const CliOption *findOption(std::string_view Name) {
  for (const CliOption &O : Options)
    if (Name == O.Name)
      return &O;
  return nullptr;
}

std::string modeNames(unsigned Bits) {
  std::string Out;
  for (const ModeInfo &M : AllModes)
    if (Bits & M.Bit)
      Out += (Out.empty() ? "" : ", ") + std::string(M.Name);
  return Out;
}

int usage(const char *Argv0) {
  std::fprintf(stderr, "usage:\n");
  for (const ModeInfo &M : AllModes)
    std::fprintf(stderr, "  %s %s\n", Argv0, M.Synopsis);
  std::fprintf(stderr, "  %s --journal-dump FILE | --queue-dump DIR-or-FILE\n",
               Argv0);
  std::fprintf(stderr, "\noptions; letters name the modes accepting each (");
  for (const ModeInfo &M : AllModes)
    std::fprintf(stderr, "%s%c %s", M.Bit == mode::Search ? "" : ", ",
                 M.Letter, M.Name);
  std::fprintf(stderr, "),\n* marks those --serve passes on to its workers:\n");
  for (const CliOption &O : Options) {
    std::string Head = std::string(O.Name) + (O.Value ? " " : "") +
                       (O.Value ? O.Value : "");
    std::string Letters;
    for (const ModeInfo &M : AllModes)
      Letters += O.Modes & M.Bit ? M.Letter : '-';
    std::fprintf(stderr, "  %-25s %s%c %s\n", Head.c_str(), Letters.c_str(),
                 O.Forward ? '*' : ' ', O.Help);
  }
  return 2;
}

/// A command-line error: one line naming the problem, exit code 2.
int fail(const char *Argv0, const std::string &Message) {
  std::fprintf(stderr, "%s: %s (run without arguments for usage)\n", Argv0,
               Message.c_str());
  return 2;
}

/// --journal-dump / --queue-dump: human-readable inspection of a CRC-framed
/// RecordLog file — header, per-record byte offset and payload summary, and
/// an explicit note when a torn tail was found. Queue dumps additionally
/// fold the records and print the resulting task state.
int dumpRecordLog(std::string Path, bool Queue) {
  struct stat St;
  if (Queue && ::stat(Path.c_str(), &St) == 0 && S_ISDIR(St.st_mode))
    Path = service::TaskQueue::queueFilePath(Path);
  auto Scan = support::RecordLog::scan(Path);
  if (!Scan.ok()) {
    std::fprintf(stderr, "%s: %s\n", Path.c_str(), Scan.message().c_str());
    return 1;
  }
  if (Scan->Header.empty() && Scan->Records.empty() && !Scan->TornTail) {
    std::printf("%s: empty or missing record log\n", Path.c_str());
    return 0;
  }
  std::printf("%s: record log, %zu record(s), %llu intact bytes\n",
              Path.c_str(), Scan->Records.size(),
              (unsigned long long)Scan->GoodBytes);

  // The header payload pins the file to a space + config; show both the
  // parsed fingerprints (when the format is recognized) and the raw text.
  if (Queue) {
    auto H = service::parseQueueHeader(Scan->Header);
    if (H.ok())
      std::printf("header: queue v1, space fingerprint %016llx, config "
                  "digest %016llx\n",
                  (unsigned long long)H->SpaceFingerprint,
                  (unsigned long long)H->ConfigDigest);
    else
      std::printf("header: unrecognized (%s)\n", H.message().c_str());
  } else {
    search::JournalHeader H;
    if (search::SearchJournal::parseHeader(Scan->Header, H))
      std::printf("header: journal, space fingerprint %016llx, config "
                  "digest %016llx\n",
                  (unsigned long long)H.SpaceFingerprint,
                  (unsigned long long)H.ConfigDigest);
    else
      std::printf("header: unrecognized journal header\n");
  }

  uint64_t Off = support::RecordLog::headerBlockSize(Scan->Header.size());
  service::QueueState State;
  for (size_t I = 0; I < Scan->Records.size(); ++I) {
    const std::string &Payload = Scan->Records[I];
    std::string Summary;
    if (Queue) {
      auto R = service::parseQueueRecord(Payload);
      if (R.ok()) {
        Summary = service::queueRecordKindName(R->K);
        if (R->K != service::QueueRecord::Kind::Shutdown)
          Summary += " id=" + std::to_string(R->Id);
        switch (R->K) {
        case service::QueueRecord::Kind::Lease:
        case service::QueueRecord::Kind::Heartbeat:
          Summary += " epoch=" + std::to_string(R->Epoch) + " worker=" +
                     R->Worker;
          break;
        case service::QueueRecord::Kind::Expire:
          Summary += " epoch=" + std::to_string(R->Epoch);
          break;
        case service::QueueRecord::Kind::Result:
          Summary += " epoch=" + std::to_string(R->Epoch) + " worker=" +
                     R->Worker + " " +
                     (R->Out.ok() ? "metric=" + std::to_string(R->Out.Metric)
                                  : std::string(search::failureKindName(
                                        R->Out.Failure)));
          break;
        default:
          break;
        }
        State.apply(*R);
      } else {
        Summary = "unparseable: " + R.message();
      }
    } else {
      // Journal records are single JSON lines; the first stretch is the
      // point itself, which is the useful part at a glance.
      Summary = Payload.substr(0, 96);
      if (Payload.size() > 96)
        Summary += "...";
      for (char &C : Summary)
        if (C == '\n')
          C = ' ';
    }
    std::printf("  @%-8llu %5zu bytes  %s\n", (unsigned long long)Off,
                Payload.size(), Summary.c_str());
    Off += 8 + Payload.size();
  }
  if (Scan->TornTail)
    std::printf("torn tail at offset %llu: %s (recovery truncates to %llu "
                "bytes)\n",
                (unsigned long long)Scan->TornOffset, Scan->Why.c_str(),
                (unsigned long long)Scan->GoodBytes);
  if (Queue) {
    uint64_t Done = 0, Open = 0, Claimed = 0, Quarantined = 0;
    for (const auto &[Id, T] : State.Tasks) {
      if (T.Done)
        ++Done;
      else if (!T.LeaseWorker.empty())
        ++Claimed;
      else
        ++Open;
      if (T.Quarantined)
        ++Quarantined;
    }
    std::printf("state: %zu task(s): %llu done (%llu quarantined), %llu "
                "claimed, %llu open; %llu stale result(s) discarded%s\n",
                State.Tasks.size(), (unsigned long long)Done,
                (unsigned long long)Quarantined, (unsigned long long)Claimed,
                (unsigned long long)Open,
                (unsigned long long)State.StaleResultsDiscarded,
                State.ShutdownSeen ? "; shutdown announced" : "");
  }
  return 0;
}

using cir::collectAllLoops;
using cir::collectOuterLoops;

/// Parallel-safety report (--race-check): for every outer loop of every
/// region — plus any nested loop already carrying an `omp parallel for`
/// pragma — print the verdict for parallelizing it, the data-sharing
/// classification of every referenced variable, and a located witness for
/// every proven race. Advisory: always exits 0.
int runRaceCheck(const cir::Program &Baseline) {
  for (const std::string &Name : Baseline.regionNames()) {
    for (const cir::Block *Region : Baseline.findRegions(Name)) {
      std::vector<const cir::ForStmt *> Outer, All;
      collectOuterLoops(*Region, Outer);
      collectAllLoops(*Region, All);
      std::vector<const cir::ForStmt *> Targets = Outer;
      for (const cir::ForStmt *For : All)
        if (analysis::hasOmpParallelFor(*For) &&
            std::find(Targets.begin(), Targets.end(), For) == Targets.end())
          Targets.push_back(For);

      for (const cir::ForStmt *For : Targets) {
        analysis::ParallelSafetyReport Rep =
            analysis::analyzeParallelLoop(*For);
        std::printf("region '%s': loop '%s' (%s)%s: %s\n", Name.c_str(),
                    For->Var.c_str(), For->Loc.str().c_str(),
                    analysis::hasOmpParallelFor(*For) ? " [omp parallel for]"
                                                      : "",
                    Rep.summary().c_str());
        for (const analysis::RaceWitness &W : Rep.Witnesses)
          std::printf("  witness: %s\n", W.render().c_str());
        if (Rep.Verdict == analysis::ParallelVerdict::Safe) {
          std::string Clauses = Rep.clauses();
          if (!Clauses.empty())
            std::printf("  clauses: %s\n", Clauses.c_str());
        }
        for (const analysis::VarInfo &V : Rep.Vars) {
          std::string Class = analysis::varClassName(V.Class);
          if (V.Class == analysis::VarClass::Reduction && V.Reduction)
            Class += std::string("(") + analysis::redOpName(*V.Reduction) + ")";
          std::printf("  %-16s %-17s %s\n",
                      (V.Name + (V.IsArray ? "[]" : "")).c_str(), Class.c_str(),
                      V.Why.c_str());
        }
      }
    }
  }
  return 0;
}

/// --bounds-check: source-only symbolic range analysis over every array
/// subscript. Prints the report (per-finding located witnesses, summary
/// line); exits 0 unless \p Strict, in which case any non-proven subscript
/// exits 1.
int runBoundsCheck(const cir::Program &Baseline, bool Strict) {
  analysis::BoundsReport Report = analysis::checkBounds(Baseline);
  std::printf("%s\n", Report.render().c_str());
  return Strict && !Report.clean() ? 1 : 0;
}

/// Static diagnostics: CIR verifier findings plus dependence-availability
/// warnings for regions the optimization program wants to transform with
/// dependence-based modules, race findings for loops that are (or that
/// the optimization program asks to be) parallelized, and bounds findings
/// for subscripts range analysis cannot prove in bounds. Exits 0 (lint
/// never gates a build) unless \p Strict, in which case any printed
/// finding exits 1.
int runLint(const lang::LocusProgram &Prog, const cir::Program &Baseline,
            bool Strict) {
  support::DiagEngine Diags;
  analysis::verifyProgram(Baseline, Diags);

  // Which regions have dependence information on their outer loop nests?
  std::map<std::string, bool> DepAvailable;
  for (const std::string &Name : Baseline.regionNames()) {
    bool Available = true;
    for (const cir::Block *Region : Baseline.findRegions(Name)) {
      std::vector<const cir::ForStmt *> Loops;
      collectOuterLoops(*Region, Loops);
      for (const cir::ForStmt *For : Loops) {
        support::Diag Why;
        if (!analysis::DependenceInfo::compute(*For, &Why)) {
          Available = false;
          if (!Why.Message.empty()) {
            Why.Region = Name;
            Diags.report(Why.Sev, Why.Loc, Why.Region, Why.Message);
          }
        }
      }
    }
    DepAvailable[Name] = Available;
  }

  // Race findings: any loop already carrying `omp parallel for` whose
  // parallel safety the analyzer refutes (or cannot establish) is worth a
  // warning — the search's applyOmpFor gate only sees loops the
  // optimization program parallelizes, not pragmas baked into the source.
  for (const std::string &Name : Baseline.regionNames()) {
    for (const cir::Block *Region : Baseline.findRegions(Name)) {
      std::vector<const cir::ForStmt *> Loops;
      collectAllLoops(*Region, Loops);
      for (const cir::ForStmt *For : Loops) {
        if (!analysis::hasOmpParallelFor(*For))
          continue;
        analysis::ParallelSafetyReport Rep =
            analysis::analyzeParallelLoop(*For);
        if (Rep.Verdict == analysis::ParallelVerdict::Racy) {
          std::string Msg = "loop '" + For->Var +
                            "' carries 'omp parallel for' but is racy";
          if (!Rep.Witnesses.empty())
            Msg += ": " + Rep.Witnesses.front().render();
          Diags.warning(For->Loc, Name, Msg);
        } else if (Rep.Verdict == analysis::ParallelVerdict::Unknown) {
          Diags.warning(For->Loc, Name,
                        "loop '" + For->Var +
                            "' carries 'omp parallel for' but its parallel "
                            "safety cannot be established: " +
                            Rep.WhyUnknown);
        }
      }
    }
  }

  // Extract the plan and flag dependence-based transformations aimed at
  // regions without dependence information: at run time those calls will be
  // rejected (RequireDeps) or applied blindly.
  static const std::set<std::string> NeedsDeps = {
      "Tiling", "GenericTiling", "Interchange",
      "UnrollAndJam", "Fusion", "Distribute"};
  std::unique_ptr<cir::Program> Clone = Baseline.clone();
  transform::TransformContext TCtx;
  TCtx.Prog = Clone.get();
  lang::ModuleRegistry Registry = lang::ModuleRegistry::standard();
  lang::LocusInterpreter Interp(Prog, Registry);
  search::Space Space;
  analysis::TransformPlan Plan;
  lang::ExecOutcome Exec = Interp.extractSpace(*Clone, Space, TCtx, &Plan);
  if (Exec.Ok) {
    std::set<std::string> Seen;
    for (const analysis::PlanEntry &E : Plan.Entries) {
      if (E.K != analysis::PlanEntry::Kind::ModuleCall ||
          !NeedsDeps.count(E.Member))
        continue;
      auto It = DepAvailable.find(E.Region);
      if (It == DepAvailable.end() || It->second)
        continue;
      std::string Key = E.Module + "." + E.Member + "@" + E.Region;
      if (!Seen.insert(Key).second)
        continue;
      Diags.warning({}, E.Region,
                    E.Module + "." + E.Member + " (optimization program line " +
                        std::to_string(E.Line) +
                        ") transforms a region without dependence "
                        "information; its legality cannot be checked");
    }
  }

  // Discovery findings: loop nests living outside every @Locus region.
  // Rejected candidates surface their located rejection reason; annotatable
  // ones get a coverage hint. Advisory like the rest of lint (exit 0).
  analysis::DiscoveryReport Disc = analysis::discoverRegions(Baseline);
  for (const analysis::NestCandidate &C : Disc.Candidates) {
    if (C.Verdict == analysis::CandidateVerdict::Rejected) {
      support::SrcLoc Loc = C.Why.Loc.valid() ? C.Why.Loc : C.Loc;
      Diags.warning(Loc, "",
                    "discovery: loop nest at " + C.Loc.str() +
                        " is not optimizable: " + C.Why.Message);
    } else {
      Diags.warning(C.Loc, "",
                    "loop nest `for (" + C.LoopVar +
                        ")` is not covered by any @Locus region; discovery "
                        "ranks it as " +
                        C.Name + " (" +
                        analysis::candidateVerdictName(C.Verdict) + ")");
    }
  }

  // Bounds findings: subscripts range analysis cannot prove in bounds.
  // Violations carry a concrete witness; unproven ones say what is missing.
  analysis::BoundsReport Bounds = analysis::checkBounds(Baseline);
  for (const analysis::SubscriptFinding &F : Bounds.Findings)
    Diags.warning(F.Loc, F.Region, F.witness());

  int Printed = 0;
  for (const support::Diag &D : Diags.all())
    if (D.Sev != support::DiagSeverity::Note) {
      std::printf("%s\n", D.render().c_str());
      ++Printed;
    }
  return Strict && Printed > 0 ? 1 : 0;
}

/// --discover [--tune]: scan an unannotated source, print the ranked
/// report, and optionally annotate the top candidates and tune each one
/// under the generated generic program. Report-only mode always exits 0;
/// tune mode exits 1 when any candidate's search fails.
int runDiscover(const cir::Program &Baseline, driver::OrchestratorOptions Opts,
                int TopN, bool Tune) {
  analysis::DiscoveryOptions DOpts;
  DOpts.Machine = Opts.Eval.Machine;
  analysis::DiscoveryReport Report = analysis::discoverRegions(Baseline, DOpts);
  std::printf("%s", Report.render().c_str());
  if (!Tune)
    return 0;

  std::unique_ptr<cir::Program> Annotated = Baseline.clone();
  Expected<int> Injected = analysis::annotateRegions(*Annotated, Report, TopN);
  if (!Injected.ok()) {
    std::fprintf(stderr, "annotation failed: %s\n", Injected.message().c_str());
    return 1;
  }
  std::printf("annotated %d region(s)\n", *Injected);

  const std::string JournalBase = Opts.JournalPath;
  int Failures = 0;
  for (const analysis::NestCandidate *C : Report.annotatable(TopN)) {
    auto Prog = lang::parseLocusProgram(analysis::genericLocusProgram(*C));
    if (!Prog.ok()) {
      std::fprintf(stderr, "candidate %s: bad generic program: %s\n",
                   C->Name.c_str(), Prog.message().c_str());
      ++Failures;
      continue;
    }
    // One journal per candidate: each search has its own space fingerprint.
    if (!JournalBase.empty())
      Opts.JournalPath = JournalBase + "." + C->Name;
    driver::Orchestrator Orch(**Prog, *Annotated, Opts);
    auto R = Orch.runSearch();
    if (!R.ok()) {
      std::fprintf(stderr, "candidate %s: search failed: %s\n", C->Name.c_str(),
                   R.message().c_str());
      ++Failures;
      continue;
    }
    std::printf("candidate %s (%s, depth %d): %llu points, assessed %d, "
                "baseline %.0f -> best %.0f cycles, speedup %.2fx%s\n",
                C->Name.c_str(), C->Loc.str().c_str(), C->Depth,
                (unsigned long long)R->Space.fullSize(), R->Search.Evaluations,
                R->BaselineCycles, R->BestCycles, R->Speedup,
                R->BaselineChosen ? " (baseline kept)" : "");
  }
  return Failures ? 1 : 0;
}

} // namespace

int main(int argc, char **argv) {
  if (argc >= 2 && (std::strcmp(argv[1], "--journal-dump") == 0 ||
                    std::strcmp(argv[1], "--queue-dump") == 0)) {
    if (argc != 3)
      return usage(argv[0]);
    return dumpRecordLog(argv[2], std::strcmp(argv[1], "--queue-dump") == 0);
  }
  if (argc < 3)
    return usage(argv[0]);
  bool Discover = std::strcmp(argv[1], "--discover") == 0;
  bool BoundsCheck = std::strcmp(argv[1], "--bounds-check") == 0;
  std::string ProgramPath = Discover || BoundsCheck ? "" : argv[1];
  std::string SourcePath = argv[2];

  CliConfig C;
  // The CLI is an interactive tool: snippet arguments may name files on
  // disk (the paper's scatter_DZG.txt workflow). Search-internal replay
  // still runs with the flag's effect confined to module invocations the
  // user asked for.
  C.Opts.AllowSnippetFiles = true;
  std::vector<const CliOption *> Given;
  // What a spawned worker replays, in command-line order.
  std::vector<std::string> ForwardArgs;
  for (int I = 3; I < argc; ++I) {
    const CliOption *O = findOption(argv[I]);
    if (!O)
      return fail(argv[0], std::string("unknown option ") + argv[I]);
    const char *V = nullptr;
    if (O->Value) {
      if (I + 1 >= argc)
        return fail(argv[0],
                    std::string(O->Name) + " needs a value " + O->Value);
      V = argv[++I];
    }
    if (const char *Want = O->Set(C, V))
      return fail(argv[0], std::string(O->Name) + " wants " + Want +
                               ", got '" + V + "'");
    Given.push_back(O);
    if (O->Forward) {
      ForwardArgs.push_back(O->Name);
      if (V)
        ForwardArgs.push_back(V);
    }
  }
  unsigned Mode = Discover      ? mode::Discover
                  : BoundsCheck ? mode::Bounds
                  : C.Serve     ? mode::Serve
                  : C.Worker    ? mode::Worker
                                : mode::Search;
  for (const CliOption *O : Given)
    if (!(O->Modes & Mode))
      return fail(argv[0], std::string(O->Name) + " is not valid in " +
                               modeNames(Mode) + " mode (only in " +
                               modeNames(O->Modes) + ")");
  if ((Mode == mode::Serve || Mode == mode::Worker) && C.QueueDir.empty())
    return fail(argv[0], modeNames(Mode) + " requires --queue-dir");
  driver::OrchestratorOptions &Opts = C.Opts;

  bool Ok = false;
  std::string CText = readFile(SourcePath, Ok);
  if (!Ok) {
    std::fprintf(stderr, "cannot read %s\n", SourcePath.c_str());
    return 1;
  }
  auto Baseline = cir::parseProgram(CText);
  if (!Baseline.ok()) {
    std::fprintf(stderr, "%s: %s\n", SourcePath.c_str(),
                 Baseline.message().c_str());
    return 1;
  }

  if (BoundsCheck)
    return runBoundsCheck(**Baseline, C.LintStrict);
  if (Discover)
    return runDiscover(**Baseline, Opts, C.DiscoverTop, C.Tune);

  std::string LocusText = readFile(ProgramPath, Ok);
  if (!Ok) {
    std::fprintf(stderr, "cannot read %s\n", ProgramPath.c_str());
    return 1;
  }
  auto Prog = lang::parseLocusProgram(LocusText);
  if (!Prog.ok()) {
    std::fprintf(stderr, "%s: %s\n", ProgramPath.c_str(),
                 Prog.message().c_str());
    return 1;
  }

  if (C.RaceCheck)
    return runRaceCheck(**Baseline);
  if (C.Lint)
    return runLint(**Prog, **Baseline, C.LintStrict);

  // Degrade gracefully on compiler-less hosts: native measurement is an
  // upgrade, not a requirement, so fall back to the simulator with a clear
  // diagnostic instead of failing the whole run.
  if (Opts.NativeMetric &&
      !eval::nativeCompilerAvailable(Opts.Native.Compiler)) {
    std::fprintf(stderr,
                 "warning: --native-metric: compiler '%s' is not available; "
                 "falling back to the simulator metric\n",
                 Opts.Native.Compiler.c_str());
    Opts.NativeMetric = false;
  }

  // Graceful SIGTERM/SIGINT: the flag is checked between evaluations, the
  // journal's last record is already synced, and partial results are
  // reported with a clean exit code.
  support::installShutdownFlag();
  Opts.StopFlag = support::shutdownFlag();

  if (C.Serve) {
    Opts.Serve.QueueDir = C.QueueDir;
    Opts.Serve.Workers = C.ServeWorkers;
    // Workers re-exec this binary with the same program/source and the
    // eval-relevant flags, in worker mode against the same queue dir.
    char ExeBuf[4096];
    ssize_t N = ::readlink("/proc/self/exe", ExeBuf, sizeof(ExeBuf) - 1);
    std::string Exe = N > 0 ? std::string(ExeBuf, static_cast<size_t>(N))
                            : std::string(argv[0]);
    std::vector<std::string> BaseArgv = {Exe, ProgramPath, SourcePath,
                                         "--worker", "--queue-dir", C.QueueDir};
    BaseArgv.insert(BaseArgv.end(), ForwardArgs.begin(), ForwardArgs.end());
    Opts.Serve.WorkerArgv = [BaseArgv](int, int) { return BaseArgv; };
  }

  driver::Orchestrator Orch(**Prog, **Baseline, Opts);

  if (C.Worker) {
    service::WorkerOptions WOpts;
    WOpts.QueueDir = C.QueueDir;
    WOpts.WorkerId =
        C.WorkerId.empty() ? "pid" + std::to_string(::getpid()) : C.WorkerId;
    WOpts.StopFlag = Opts.StopFlag;
    auto WR = Orch.runWorker(WOpts);
    if (!WR.ok()) {
      std::fprintf(stderr, "worker failed: %s\n", WR.message().c_str());
      return 1;
    }
    std::printf("worker %s: %llu task(s) evaluated, %llu claim(s) lost, "
                "%llu heartbeat(s)\n",
                WOpts.WorkerId.c_str(),
                (unsigned long long)WR->TasksEvaluated,
                (unsigned long long)WR->ClaimsLost,
                (unsigned long long)WR->Heartbeats);
    return 0;
  }

  std::unique_ptr<cir::Program> Best;
  double BestChecksum = std::numeric_limits<double>::quiet_NaN();

  if (C.Direct || !C.PointPath.empty()) {
    Expected<driver::DirectResult> R = [&] {
      using Ret = Expected<driver::DirectResult>;
      if (C.PointPath.empty())
        return Orch.runDirect();
      std::string PointText = readFile(C.PointPath, Ok);
      if (!Ok)
        return Ret::error("cannot read " + C.PointPath);
      // The point must pin every parameter of the extracted space. No
      // search runs, so nothing is journaled.
      Expected<search::Space> Space = Orch.extractSpace();
      if (!Space.ok())
        return Ret::error(Space.message());
      auto P = search::deserializePoint(PointText, *Space);
      if (!P.ok())
        return Ret::error(C.PointPath + ": " + P.message());
      return Orch.runPoint(*P);
    }();
    if (!R.ok()) {
      std::fprintf(stderr, "direct run failed: %s\n", R.message().c_str());
      return 1;
    }
    std::printf("direct variant: %.0f simulated cycles, %d transformations "
                "applied\n",
                R->Run.Cycles, R->Exec.TransformsApplied);
    for (const std::string &Line : R->Exec.Log)
      std::printf("  %s\n", Line.c_str());
    Best = std::move(R->Variant);
    BestChecksum = R->Run.Checksum;
  } else {
    auto R = Orch.runSearch();
    if (!R.ok()) {
      std::fprintf(stderr, "search failed: %s\n", R.message().c_str());
      return 1;
    }
    std::printf("space: %llu points (%zu parameters)\n",
                (unsigned long long)R->Space.fullSize(),
                R->Space.Params.size());
    std::printf("%s", R->Space.describe().c_str());
    std::printf("assessed %d variants (%d invalid, %d duplicates",
                R->Search.Evaluations, R->Search.InvalidPoints,
                R->Search.DuplicateHits);
    if (R->Search.ReplayedEvaluations > 0)
      std::printf(", %d replayed from journal", R->Search.ReplayedEvaluations);
    if (R->Search.PrunedStatic > 0) {
      std::printf(", %d pruned statically", R->Search.PrunedStatic);
      if (R->Search.PrunedStaticByRange > 0)
        std::printf(" (%d by range)", R->Search.PrunedStaticByRange);
    }
    std::printf(")\n");
    for (int K = 1; K < search::NumFailureKinds; ++K)
      if (int N = R->Search.FailureCounts[static_cast<size_t>(K)])
        std::printf("  %-17s %d\n",
                    search::failureKindName(static_cast<search::FailureKind>(K)),
                    N);
    if (R->Search.PoolJobs > 1)
      std::printf("pool: %d workers, %d batches (widest %d), %d of %d "
                  "assessments dispatched in parallel\n",
                  R->Search.PoolJobs, R->Search.Batches, R->Search.MaxBatch,
                  R->Search.PooledEvaluations, R->Search.Evaluations);
    if (R->Search.CacheHits || R->Search.CacheMisses)
      std::printf("eval cache: %llu hits / %llu misses, %llu cross-point "
                  "dedup saves\n",
                  (unsigned long long)R->Search.CacheHits,
                  (unsigned long long)R->Search.CacheMisses,
                  (unsigned long long)R->Search.CacheDedupSaves);
    if (!Opts.CacheDir.empty()) {
      std::printf("persistent cache: %llu loaded, %llu appended",
                  (unsigned long long)R->Search.CacheLoadedPersistent,
                  (unsigned long long)R->Search.CachePersistedAppends);
      if (R->Search.CacheWarnings)
        std::printf(", %llu warnings",
                    (unsigned long long)R->Search.CacheWarnings);
      if (R->Search.CacheDegraded)
        std::printf(" (degraded to in-memory)");
      std::printf("\n");
    }
    if (R->Guard.UnstableRetries || R->Guard.QuarantinedPoints)
      std::printf("guards: %d unstable retries (%d recovered), %d points "
                  "quarantined (%d rejects)\n",
                  R->Guard.UnstableRetries, R->Guard.UnstableRecovered,
                  R->Guard.QuarantinedPoints, R->Guard.QuarantineRejects);
    if (R->Served) {
      const service::ServiceStats &S = R->Service;
      std::printf("service: %llu task(s) (%llu from workers, %llu recovered, "
                  "%llu local), %d worker(s) spawned (%llu death(s), %llu "
                  "respawn(s)), %llu lease expiries, %llu stale result(s) "
                  "discarded, %llu quarantined%s\n",
                  (unsigned long long)S.TasksSubmitted,
                  (unsigned long long)S.WorkerResults,
                  (unsigned long long)S.RecoveredResults,
                  (unsigned long long)S.LocalFallbackEvals, S.WorkersSpawned,
                  (unsigned long long)S.WorkerDeaths,
                  (unsigned long long)S.WorkerRespawns,
                  (unsigned long long)S.LeaseExpiries,
                  (unsigned long long)S.StaleResultsDiscarded,
                  (unsigned long long)S.QuarantinedTasks,
                  S.Degraded ? " (degraded to in-process)" : "");
    }
    if (R->Search.Stopped)
      std::printf("interrupted: partial results after %d evaluation(s)\n",
                  R->Search.Evaluations);
    if (Opts.NativeMetric)
      std::printf("baseline %.6f s -> best %.6f s, speedup %.2fx%s\n",
                  R->BaselineCycles, R->BestCycles, R->Speedup,
                  R->BaselineChosen ? " (baseline kept)" : "");
    else
      std::printf("baseline %.0f cycles -> best %.0f cycles, speedup %.2fx%s\n",
                  R->BaselineCycles, R->BestCycles, R->Speedup,
                  R->BaselineChosen ? " (baseline kept)" : "");
    Best = std::move(R->BestProgram);
    const search::Point &BestPoint = R->Search.Best;
    if (R->BestRun.Ok)
      BestChecksum = R->BestRun.Checksum;

    if (!C.ExportPoint.empty() && !R->BaselineChosen)
      if (!writeFile(C.ExportPoint, search::serializePoint(BestPoint)))
        std::fprintf(stderr, "cannot write %s\n", C.ExportPoint.c_str());
    if (!C.ExportDirect.empty() && !R->BaselineChosen) {
      auto DirectProg = lang::exportDirectProgram(**Prog, BestPoint);
      if (DirectProg.ok()) {
        if (!writeFile(C.ExportDirect, lang::printLocusProgram(**DirectProg)))
          std::fprintf(stderr, "cannot write %s\n", C.ExportDirect.c_str());
        else
          std::printf("direct program written to %s\n",
                      C.ExportDirect.c_str());
      } else {
        std::fprintf(stderr, "direct export failed: %s\n",
                     DirectProg.message().c_str());
      }
    }
  }

  if (!C.EmitC.empty() && Best) {
    if (!writeFile(C.EmitC, eval::emitNativeC(*Best)))
      std::fprintf(stderr, "cannot write %s\n", C.EmitC.c_str());
    else
      std::printf("C source written to %s\n", C.EmitC.c_str());
  }
  if (C.Native && Best) {
    eval::NativeResult NR = eval::evaluateNative(*Best, Opts.Native);
    if (NR.Ok) {
      std::printf("native run: %.6f s (checksum %.6f)\n", NR.Seconds,
                  NR.Checksum);
      // Native-vs-simulator validation: the emitted harness initializes
      // arrays exactly like the simulator, so the checksums must agree
      // within --checksum-rtol; a mismatch means the unparsed variant does
      // not compute what the simulated one did.
      if (!std::isnan(BestChecksum)) {
        double Tol = Opts.ChecksumRtol * std::max(1.0, std::abs(BestChecksum));
        if (std::abs(NR.Checksum - BestChecksum) > Tol) {
          std::fprintf(stderr,
                       "native checksum %.9f disagrees with the simulator's "
                       "%.9f (rtol %g)\n",
                       NR.Checksum, BestChecksum, Opts.ChecksumRtol);
          return 1;
        }
        std::printf("native checksum matches the simulator (rtol %g)\n",
                    Opts.ChecksumRtol);
      }
    } else {
      std::fprintf(stderr, "native run failed (%s): %s\n",
                   search::failureKindName(NR.Failure), NR.Error.c_str());
    }
    if (!NR.WorkDir.empty())
      std::printf("native workdir kept: %s\n", NR.WorkDir.c_str());
  }
  return 0;
}
