//===- main.cpp - Locus search benchmark ---------------------------------------===//
//
// One run of one workload:
//
//   locus_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   --work-dir DIR [--smoke] [--record FILE]
//                   [--trace-out FILE] [--commit SHA]
//
//  1. Set-up and timed repetitions alternate, about S seconds' worth. A set-up
//     repetition builds the workload from its inputs and runs every search
//     with a zero evaluation budget (and, served, starts the worker fleet);
//     a timed repetition runs the workload's
//     fixed-budget searches (driver::Orchestrator::runSearch). Every
//     repetition must reproduce the first one's points and counts exactly
//     (the exact-count gate).
//  2. Checks, untimed: the baseline and every best variant are compiled
//     with the host cc and their checksums compared with the interpreted
//     baseline; the served search must match the same search run locally.
//  3. With --trace 1, one more repetition runs through TracedSearch with a
//     span around each layer call, must replay the timed points exactly,
//     and yields the per-layer metrics.
//
// Timing estimator. Each repetition is cut into segments at the start of
// every variant run (the evaluator's init hook); the trajectory is fixed,
// so segment k is the same work in every repetition. search_s, cpu_s and
// setup_s sum, over segments, each segment's fastest time across the run's
// repetitions. On a shared host, other tenants slow single repetitions by
// up to half for seconds at a time; the per-segment minimum removes that
// interference where a median of whole repetitions keeps it. The number of
// repetitions is fixed by --seconds and the workload's nominal repetition
// time, not by how many fit, so the estimate is taken over the same number
// of samples whatever the speed of the code measured. The median and tail
// of whole repetitions are printed beside each metric. The serve workers'
// CPU time is cut the same way, at every task claim, from the claim
// reports the workers write. Slow phases of the host that outlast a run are
// measured with the benchmark's own calibration loops: the computing part of
// each time metric is scaled by the host factor (reference time of the loops
// / their fastest time in this run), and the record keeps the estimates as
// measured.
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics (end-to-end metrics with --trace 0, per-layer metrics
// with --trace 1). The exit code is 0 only when every check passed.
//
// The binary re-executes itself as the serve workload's worker fleet:
//   locus_perfbench --service-worker QUEUE_DIR --workload dgemm-serve
//                   --seed N [--smoke] --worker-id ID
//
//===----------------------------------------------------------------------===//

#include "BenchWorkloads.h"
#include "Trace.h"
#include "TracedSearch.h"

#include "src/eval/NativeEvaluator.h"
#include "src/search/Journal.h"
#include "src/service/Coordinator.h"
#include "src/service/TaskQueue.h"
#include "src/support/Hashing.h"
#include "src/support/Signals.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <sys/resource.h>
#include <thread>
#include <unistd.h>
#include <vector>

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) ||    \
    __has_feature(undefined_behavior_sanitizer)
#define PERFBENCH_SANITIZED 1
#endif
#endif

namespace fs = std::filesystem;
using namespace locus;
using namespace perfbench;

namespace {

/// Set-up repetitions before each timed repetition: set-up is short, so it
/// is sampled more often.
constexpr int SetupsPerRep = 3;
/// Timed repetitions per run, each preceded by its set-up repetitions:
/// --seconds / the workload's nominal repetition time, within these limits.
constexpr double MinReps = 3, MaxReps = 200;
/// A run stops early, with fewer repetitions than planned, after this long,
/// so that even a much slower build ends within the three minutes a run may
/// take.
constexpr double DeadlineS = 140;
/// The calibration loops' fastest time on the 4-core host the benchmark was
/// tuned on: the time metrics are stated at that host's speed.
constexpr double CalibrationReferenceS = 7.65e-3;
/// How long set-up waits for the serve workload's workers to report ready.
constexpr double WorkerReadyTimeoutS = 20;
/// Evaluated variants re-run by the per-iteration probes of the traced run.
constexpr size_t MaxProbes = 12;

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  bool Smoke = false;
  std::string WorkDir;
  std::string Record;
  std::string TraceOut;
  std::string Commit = "unknown";
  std::string ServiceQueue; ///< worker mode when set
  std::string WorkerId;
};

[[noreturn]] void die(const std::string &Msg) {
  std::fprintf(stderr, "locus_perfbench: %s\n", Msg.c_str());
  std::exit(2);
}

void parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I < Argc; ++I) {
    std::string K = Argv[I];
    auto Next = [&]() -> std::string {
      if (I + 1 >= Argc)
        die("missing value for " + K);
      return Argv[++I];
    };
    auto Number = [&](const std::string &V) {
      char *End = nullptr;
      double D = std::strtod(V.c_str(), &End);
      if (V.empty() || *End != '\0' || !std::isfinite(D) || D < 0)
        die("bad number for " + K + ": '" + V + "'");
      return D;
    };
    if (K == "--workload")
      A.Workload = Next();
    else if (K == "--seed")
      A.Seed = static_cast<uint64_t>(Number(Next()));
    else if (K == "--seconds")
      A.Seconds = Number(Next());
    else if (K == "--trace")
      A.Trace = Number(Next()) != 0;
    else if (K == "--smoke")
      A.Smoke = true;
    else if (K == "--work-dir")
      A.WorkDir = Next();
    else if (K == "--record")
      A.Record = Next();
    else if (K == "--trace-out")
      A.TraceOut = Next();
    else if (K == "--commit")
      A.Commit = Next();
    else if (K == "--service-worker")
      A.ServiceQueue = Next();
    else if (K == "--worker-id")
      A.WorkerId = Next();
    else
      die("unknown argument '" + K + "'");
  }
  const auto &Names = workloadNames();
  if (std::find(Names.begin(), Names.end(), A.Workload) == Names.end())
    die("unknown workload '" + A.Workload + "'");
}

std::string selfExe(const char *Argv0) {
  std::error_code EC;
  fs::path P = fs::read_symlink("/proc/self/exe", EC);
  return EC ? std::string(Argv0) : P.string();
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

/// The median's companion: the highest percentile with at least ten samples
/// beyond it, as text (none below 20 samples, where it would not exceed the
/// median).
std::string tailText(std::vector<double> V, const char *Unit) {
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  char Buf[160];
  if (N < 20) {
    std::snprintf(Buf, sizeof(Buf), "n=%zu, too few for a tail percentile", N);
    return Buf;
  }
  size_t P = 100 * (N - 10) / N;
  size_t Idx = (P * N + 99) / 100 - 1;
  std::snprintf(Buf, sizeof(Buf), "p%zu %.6f %s, n=%zu", P, V[Idx], Unit, N);
  return Buf;
}

double cpuSeconds(int Who) {
  rusage U{};
  getrusage(Who, &U);
  return U.ru_utime.tv_sec + U.ru_utime.tv_usec * 1e-6 + U.ru_stime.tv_sec +
         U.ru_stime.tv_usec * 1e-6;
}

/// The benchmark's own fixed loops: an integer dependency chain (LCG step,
/// xorshift, data-dependent branch) and a pointer chase through a 256 KiB
/// table, a million steps each. No change to Locus can change their time, so
/// their fastest time in a run measures how fast the host ran during it.
class HostCalibration {
public:
  HostCalibration() : Next(1 << 16) {
    for (size_t I = 0; I < Next.size(); ++I)
      Next[I] = static_cast<uint32_t>((I * 2654435761u + 12345) % Next.size());
  }

  void sample() {
    double T0 = nowSeconds();
    uint64_t X = 1;
    for (uint64_t I = 0; I < 1000000; ++I) {
      X = X * 6364136223846793005ULL + 1442695040888963407ULL;
      X ^= X >> 17;
      if (X & 1)
        X += I;
    }
    uint32_t P = 0;
    for (int I = 0; I < 1000000; ++I)
      P = Next[P] ^ static_cast<uint32_t>(X & 1);
    Sink = X + P;
    Fastest = std::min(Fastest, nowSeconds() - T0);
  }

  double seconds() const { return Fastest; }
  /// Multiplies computing time measured in this run into reference-host
  /// seconds.
  double factor() const { return CalibrationReferenceS / Fastest; }

private:
  std::vector<uint32_t> Next;
  double Fastest = std::numeric_limits<double>::infinity();
  volatile uint64_t Sink = 0;
};

double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

void freshDir(const std::string &Dir) {
  std::error_code EC;
  fs::remove_all(Dir, EC);
  fs::create_directories(Dir, EC);
  if (EC)
    die("cannot create " + Dir + ": " + EC.message());
}

bool isRealFailure(search::FailureKind K) {
  using search::FailureKind;
  return K == FailureKind::PrepareFailed || K == FailureKind::RuntimeTrap ||
         K == FailureKind::BudgetExceeded ||
         K == FailureKind::ChecksumMismatch ||
         K == FailureKind::MetricUnstable;
}

/// Digest of a trajectory: every point, its outcome and its metric bits.
uint64_t historyDigest(const search::SearchResult &S) {
  uint64_t H = fnv1a("history");
  for (const search::EvalRecord &R : S.History) {
    H = fnv1a(R.P.key(), H);
    H = hashCombine(H, static_cast<uint64_t>(R.Failure));
    uint64_t Bits = 0;
    std::memcpy(&Bits, &R.Metric, sizeof(Bits));
    H = hashCombine(H, Bits);
  }
  return H;
}

/// What one search produced, reduced to the facts the gates compare.
struct JobOutcome {
  bool Ok = false;
  std::string Error;
  uint64_t History = 0;
  int Evaluations = 0;
  int Pruned = 0;
  int PrunedByRange = 0;
  uint64_t CacheHits = 0;
  uint64_t CacheMisses = 0;
  uint64_t WorkerResults = 0;
  uint64_t TasksSubmitted = 0;
  uint64_t ServiceFailures = 0; ///< lease expiries + quarantines + fallback
  std::string BestKey;
  double BestCycles = 0;
  double Speedup = 1;
  uint64_t BestIterations = 0;
  uint64_t BestAccesses = 0;
  uint64_t BestL1Misses = 0;
  int PointFailures = 0;

  /// The fields that must repeat bit for bit; empty when equal.
  std::string diff(const JobOutcome &O) const {
    std::ostringstream D;
    auto Cmp = [&](const char *Name, auto A, auto B) {
      if (!(A == B))
        D << " " << Name << " " << A << " vs " << B << ";";
    };
    Cmp("points", History, O.History);
    Cmp("assessed", Evaluations, O.Evaluations);
    Cmp("pruned", Pruned, O.Pruned);
    Cmp("pruned-by-range", PrunedByRange, O.PrunedByRange);
    Cmp("cache-hits", CacheHits, O.CacheHits);
    Cmp("cache-misses", CacheMisses, O.CacheMisses);
    Cmp("worker-results", WorkerResults, O.WorkerResults);
    Cmp("best-point", BestKey, O.BestKey);
    Cmp("best-cycles", BestCycles, O.BestCycles);
    Cmp("best-iterations", BestIterations, O.BestIterations);
    Cmp("best-accesses", BestAccesses, O.BestAccesses);
    Cmp("best-l1-misses", BestL1Misses, O.BestL1Misses);
    return D.str();
  }
};

template <typename R>
JobOutcome summarize(const R &Res, const eval::RunResult &BestRun) {
  JobOutcome O;
  O.Ok = true;
  const search::SearchResult &S = Res.Search;
  O.History = historyDigest(S);
  O.Evaluations = S.Evaluations;
  O.Pruned = S.PrunedStatic;
  O.PrunedByRange = S.PrunedStaticByRange;
  O.CacheHits = S.CacheHits;
  O.CacheMisses = S.CacheMisses;
  O.WorkerResults = Res.Service.WorkerResults;
  O.TasksSubmitted = Res.Service.TasksSubmitted;
  O.ServiceFailures = Res.Service.LeaseExpiries + Res.Service.QuarantinedTasks +
                      Res.Service.LocalFallbackEvals;
  O.BestKey = Res.BaselineChosen ? std::string("<baseline>") : S.Best.key();
  O.BestCycles = Res.BestCycles;
  O.Speedup = Res.Speedup;
  O.BestIterations = BestRun.LoopIterations;
  if (!BestRun.Cache.empty()) {
    O.BestAccesses = BestRun.Cache[0].Hits + BestRun.Cache[0].Misses;
    O.BestL1Misses = BestRun.Cache[0].Misses;
  }
  for (const search::EvalRecord &Rec : S.History)
    O.PointFailures += isRealFailure(Rec.Failure);
  return O;
}

std::string workerReadyPath(const std::string &QueueDir,
                            const std::string &WorkerId) {
  return QueueDir + "/perfbench-" + WorkerId + ".ready";
}

std::string workerClaimsPath(const std::string &QueueDir,
                             const std::string &WorkerId) {
  return QueueDir + "/perfbench-" + WorkerId + ".claims";
}

/// What a serve worker reported: its own CPU time at every claim, written
/// as it claims, because the coordinator's shutdown may kill it before it
/// returns.
struct WorkerReport {
  std::string Id;
  std::vector<std::pair<uint64_t, double>> Claims; ///< task id, CPU at claim
};

std::vector<WorkerReport> readWorkerReports(const std::string &QueueDir) {
  std::vector<WorkerReport> Out;
  std::error_code EC;
  for (const auto &E : fs::directory_iterator(QueueDir, EC)) {
    std::string Name = E.path().filename().string();
    if (Name.rfind("perfbench-", 0) != 0 || E.path().extension() != ".claims")
      continue;
    std::ifstream In(E.path());
    WorkerReport R;
    R.Id = E.path().stem().string().substr(10);
    uint64_t Id = 0;
    double Cpu = 0;
    while (In >> Id >> Cpu)
      R.Claims.emplace_back(Id, Cpu);
    Out.push_back(std::move(R));
  }
  return Out;
}

struct RepResult {
  double WallS = 0;
  double CpuS = 0; ///< the process's own CPU time plus its reaped children's
  /// Wall clock and the process's own CPU time at the start, before every
  /// variant run (the evaluator's init hook) and at the end: the repetition
  /// cut into segments that are the same work in every repetition.
  std::vector<double> WallMarks, CpuMarks;
  /// CPU time of the children a served repetition reaped, cut by the
  /// workers' reports into the same work in every repetition: each worker
  /// slot's start-up (to its first claim), each task but a worker's last
  /// (from its claim to the worker's next claim) and the rest (each
  /// worker's last task and its end).
  std::map<std::string, double> ChildCpu;
  std::vector<JobOutcome> Jobs;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
};

using KeepFn = std::function<void(size_t, driver::SearchWorkflowResult &)>;

/// Runs every search of the workload once through the public driver.
/// \p Keep receives each search's result (for the correctness checks).
RepResult runRep(const Workload &W, const KeepFn &Keep = nullptr) {
  RepResult Rep;
  std::mutex MarkM; ///< guards the marks: a degraded served search evaluates
                    ///< on pool threads
  auto Mark = [&Rep, &MarkM] {
    std::lock_guard<std::mutex> L(MarkM);
    Rep.WallMarks.push_back(nowSeconds());
    Rep.CpuMarks.push_back(cpuSeconds(RUSAGE_SELF));
  };
  Mark();
  double Child0 = cpuSeconds(RUSAGE_CHILDREN);
  for (size_t I = 0; I < W.Jobs.size(); ++I) {
    const Job &J = W.Jobs[I];
    driver::OrchestratorOptions Opts = J.Opts;
    Opts.InitHook = [&Mark,
                     Inner = J.Opts.InitHook](eval::ProgramEvaluator &E) {
      if (Inner)
        Inner(E);
      Mark();
    };
    driver::Orchestrator Orch(*J.LProg, *J.Baseline, Opts);
    auto R = Orch.runSearch();
    JobOutcome O;
    if (R.ok()) {
      O = summarize(*R, R->BestRun);
      if (Keep)
        Keep(I, *R);
    } else {
      O.Error = J.Label + ": " + R.message();
    }
    Rep.Jobs.push_back(std::move(O));
  }
  Mark();
  double ChildS = cpuSeconds(RUSAGE_CHILDREN) - Child0;
  double Reported = 0;
  for (size_t I = 0; I < W.Jobs.size(); ++I) {
    const std::string &Q = W.Jobs[I].Opts.Serve.QueueDir;
    if (Q.empty())
      continue;
    std::string Job = "job" + std::to_string(I) + "/";
    for (const WorkerReport &R : readWorkerReports(Q)) {
      if (R.Claims.empty())
        continue;
      // Worker ids are w<slot>.<attempt>; a respawn adds to its slot.
      std::string Slot = R.Id.substr(0, R.Id.find('.'));
      Rep.ChildCpu[Job + "start/" + Slot] += R.Claims[0].second;
      for (size_t K = 0; K + 1 < R.Claims.size(); ++K)
        Rep.ChildCpu[Job + "task/" + std::to_string(R.Claims[K].first)] +=
            R.Claims[K + 1].second - R.Claims[K].second;
      Reported += R.Claims.back().second;
    }
  }
  Rep.ChildCpu["rest"] = std::max(0.0, ChildS - Reported);
  Rep.WallS = Rep.WallMarks.back() - Rep.WallMarks.front();
  Rep.CpuS = Rep.CpuMarks.back() - Rep.CpuMarks.front() + ChildS;
  for (size_t I = 0; I < Rep.Jobs.size(); ++I) {
    const JobOutcome &O = Rep.Jobs[I];
    int Budget = std::max(1, W.Jobs[I].Opts.MaxEvaluations);
    uint64_t Points = static_cast<uint64_t>(O.Ok ? O.Evaluations : Budget);
    Rep.Attempted += Points + O.TasksSubmitted;
    Rep.Failed += O.Ok ? O.PointFailures + O.ServiceFailures : Points;
  }
  return Rep;
}

struct TimeEstimate {
  double WallS = 0; ///< sum of per-segment fastest wall times
  double SelfS = 0; ///< the same for the process's own CPU time
  double CpuS = 0;  ///< SelfS plus the children's CPU segments
};

/// A repetition's time with interference from other tenants filtered out:
/// the sum over segments of each segment's fastest time across \p Reps.
/// Children's CPU segments are matched by key. Whole repetitions stand in
/// for segments when the segment counts differ (a drifting trajectory,
/// which the exact-count gate reports).
TimeEstimate estimateTimes(const std::vector<RepResult> &Reps) {
  constexpr double Inf = std::numeric_limits<double>::infinity();
  TimeEstimate E;
  size_t N = Reps.front().WallMarks.size();
  if (!std::all_of(Reps.begin(), Reps.end(), [N](const RepResult &R) {
        return R.WallMarks.size() == N;
      })) {
    E.WallS = E.CpuS = Inf;
    for (const RepResult &Rep : Reps) {
      E.WallS = std::min(E.WallS, Rep.WallS);
      E.CpuS = std::min(E.CpuS, Rep.CpuS);
    }
    return E;
  }
  for (size_t K = 0; K + 1 < N; ++K) {
    double Wall = Inf, Cpu = Inf;
    for (const RepResult &Rep : Reps) {
      Wall = std::min(Wall, Rep.WallMarks[K + 1] - Rep.WallMarks[K]);
      Cpu = std::min(Cpu, Rep.CpuMarks[K + 1] - Rep.CpuMarks[K]);
    }
    E.WallS += Wall;
    E.SelfS += Cpu;
  }
  E.CpuS = E.SelfS;
  std::map<std::string, double> Child;
  for (const RepResult &Rep : Reps)
    for (const auto &[Key, S] : Rep.ChildCpu) {
      auto [It, New] = Child.emplace(Key, S);
      if (!New)
        It->second = std::min(It->second, S);
    }
  for (const auto &[Key, S] : Child)
    E.CpuS += S;
  return E;
}

/// The serve workload's fleet start: a coordinator on a fresh queue with
/// the search's options spawns the managed workers; done when every worker
/// has reported ready (started and built its inputs). The shutdown after
/// that is not part of the set-up and is left to the caller.
Expected<std::unique_ptr<service::Coordinator>>
startFleet(const Job &J, const search::Space &Space, std::string &Error) {
  service::CoordinatorOptions C = J.Opts.Serve;
  C.SpaceFingerprint = Space.fingerprint();
  C.ConfigDigest = search::journalConfigDigest(J.Opts.SearcherName, J.Opts.Seed);
  auto Coord = service::Coordinator::start(C);
  if (!Coord.ok())
    return Coord;
  double Deadline = nowSeconds() + WorkerReadyTimeoutS;
  for (int Slot = 0; Slot < C.Workers; ++Slot) {
    // The coordinator names a slot's first worker w<slot>.0.
    std::string Ready = workerReadyPath(C.QueueDir,
                                        "w" + std::to_string(Slot) + ".0");
    while (!fs::exists(Ready)) {
      if (nowSeconds() > Deadline) {
        Error = "worker of slot " + std::to_string(Slot) +
                " did not report ready within " +
                std::to_string(static_cast<int>(WorkerReadyTimeoutS)) + " s";
        return Coord;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  return Coord;
}

/// Set-up: the same calls a search makes before its first proposal, with a
/// zero evaluation budget, starting from the generated inputs. The first
/// segment is building the workload (parsing, discovery, annotation). For
/// the served workload the zero-budget search runs without its fleet and
/// the last segment is the fleet start (startFleet): a served zero-budget
/// search would race its coordinator's shutdown against the spawns.
RepResult measureSetup(const WorkloadConfig &Cfg, const std::string &Dir,
                       std::string &Error) {
  freshDir(Dir);
  double Wall0 = nowSeconds(), Cpu0 = cpuSeconds(RUSAGE_SELF);
  auto W = buildWorkload(Cfg);
  if (!W.ok()) {
    Error = W.message();
    return RepResult();
  }
  placeState(*W, Cfg, Dir);
  std::vector<service::CoordinatorOptions> Serve;
  for (Job &J : W->Jobs) {
    J.Opts.MaxEvaluations = 0;
    Serve.push_back(J.Opts.Serve);
    J.Opts.Serve = service::CoordinatorOptions();
  }
  std::vector<search::Space> Spaces;
  RepResult R = runRep(*W, [&](size_t, driver::SearchWorkflowResult &Res) {
    Spaces.push_back(Res.Space);
  });
  for (const JobOutcome &O : R.Jobs)
    if (!O.Ok)
      Error = O.Error;
  std::vector<std::unique_ptr<service::Coordinator>> Fleets;
  if (W->Served && Error.empty()) {
    for (size_t I = 0; I < W->Jobs.size() && Error.empty(); ++I) {
      W->Jobs[I].Opts.Serve = Serve[I];
      auto C = startFleet(W->Jobs[I], Spaces[I], Error);
      if (!C.ok())
        Error = C.message();
      else
        Fleets.push_back(std::move(*C));
    }
    R.WallMarks.push_back(nowSeconds());
    R.CpuMarks.push_back(cpuSeconds(RUSAGE_SELF));
  }
  R.WallMarks.insert(R.WallMarks.begin(), Wall0);
  R.CpuMarks.insert(R.CpuMarks.begin(), Cpu0);
  R.WallS = R.WallMarks.back() - Wall0;
  for (auto &C : Fleets)
    C->shutdown();
  return R;
}

//===----------------------------------------------------------------------===//
// Worker mode
//===----------------------------------------------------------------------===//

int runWorkerMode(const Args &A, const std::string &Exe) {
  support::installShutdownFlag();
  WorkloadConfig Cfg{A.Workload, A.Seed, A.Smoke, Exe};
  auto W = buildWorkload(Cfg);
  if (!W.ok() || W->Jobs.size() != 1) {
    std::fprintf(stderr, "worker: %s\n",
                 W.ok() ? "expected one search" : W.message().c_str());
    return 1;
  }
  driver::OrchestratorOptions Opts = W->Jobs[0].Opts;
  Opts.Serve = service::CoordinatorOptions();
  driver::Orchestrator Orch(*W->Jobs[0].LProg, *W->Jobs[0].Baseline, Opts);
  service::WorkerOptions WOpts;
  WOpts.QueueDir = A.ServiceQueue;
  WOpts.WorkerId = A.WorkerId.empty() ? "w" + std::to_string(getpid())
                                      : A.WorkerId;
  WOpts.StopFlag = support::shutdownFlag();
  std::ofstream Claims(workerClaimsPath(A.ServiceQueue, WOpts.WorkerId));
  Claims.precision(17);
  WOpts.OnClaim = [&Claims](uint64_t Id) {
    Claims << Id << " " << cpuSeconds(RUSAGE_SELF) << std::endl;
  };
  // Set-up measures the fleet start up to this file (startFleet).
  std::ofstream(workerReadyPath(A.ServiceQueue, WOpts.WorkerId)).flush();
  auto R = Orch.runWorker(WOpts);
  if (!R.ok()) {
    std::fprintf(stderr, "worker %s: %s\n", WOpts.WorkerId.c_str(),
                 R.message().c_str());
    return 1;
  }
  return 0;
}

/// Claims lost in a finished queue: leases that came after the winning
/// lease of their task and epoch, or after the task's result. Read from
/// the queue log, because workers may be killed before they report.
uint64_t claimsLost(const std::string &QueueDir) {
  service::TaskQueueOptions QOpts;
  QOpts.Dir = QueueDir;
  QOpts.RequireHeaderMatch = false;
  auto Q = service::TaskQueue::open(QOpts);
  if (!Q.ok())
    return 0;
  std::set<std::pair<uint64_t, uint64_t>> Leased;
  std::set<uint64_t> Done;
  uint64_t Lost = 0;
  service::QueueState State;
  (void)Q->poll(State, [&](const service::QueueRecord &R) {
    if (R.K == service::QueueRecord::Kind::Result)
      Done.insert(R.Id);
    else if (R.K == service::QueueRecord::Kind::Lease)
      Lost += Done.count(R.Id) || !Leased.insert({R.Id, R.Epoch}).second;
  });
  return Lost;
}

//===----------------------------------------------------------------------===//
// Correctness checks
//===----------------------------------------------------------------------===//

struct CheckLog {
  std::vector<std::string> Passed, Failed, Skipped;
  void pass(const std::string &S) { Passed.push_back(S); }
  void fail(const std::string &S) { Failed.push_back(S); }
  void skip(const std::string &S) { Skipped.push_back(S); }
};

/// The first line of compiler output that names an error.
std::string firstErrorLine(const std::string &Text) {
  std::istringstream In(Text);
  std::string Line;
  while (std::getline(In, Line))
    if (Line.find("error") != std::string::npos)
      return Line.substr(Line.find("error"));
  return Text.substr(0, Text.find('\n'));
}

bool checksumClose(double A, double B, double Rtol) {
  return !std::isnan(A) && !std::isnan(B) &&
         std::abs(A - B) <= Rtol * std::max(1.0, std::abs(B));
}

/// Native reference: compile with the host cc and compare checksums with
/// the interpreted baseline. A baseline the native emitter cannot compile
/// leaves its searches unverified (reported, never passed); a workload with
/// no verifiable baseline at all fails, and so does any best variant that
/// does not compile or match once its baseline did. The compilations run
/// four at a time; each gets its own work directory.
void nativeChecks(const Workload &W,
                  const std::vector<std::unique_ptr<cir::Program>> &Best,
                  const std::string &Dir, CheckLog &Log) {
  eval::NativeOptions NOpts;
  NOpts.Repeats = 1;
  NOpts.WorkDir = Dir;
  if (!eval::nativeCompilerAvailable(NOpts.Compiler)) {
    Log.skip("native reference: no '" + NOpts.Compiler + "' on this host");
    return;
  }
  // Distinct baselines first, then every best variant.
  std::vector<const cir::Program *> Progs;
  std::map<const cir::Program *, size_t> BaseIdx;
  for (const Job &J : W.Jobs)
    if (BaseIdx.emplace(J.Baseline.get(), Progs.size()).second)
      Progs.push_back(J.Baseline.get());
  size_t NumBases = Progs.size();
  for (const auto &B : Best)
    if (B)
      Progs.push_back(B.get());
  std::vector<eval::NativeResult> Native(Progs.size());
  std::atomic<size_t> Next{0};
  {
    std::vector<std::jthread> Pool;
    for (int T = 0; T < 4; ++T)
      Pool.emplace_back([&] {
        for (size_t I = Next++; I < Progs.size(); I = Next++)
          Native[I] = eval::evaluateNative(*Progs[I], NOpts);
      });
  }

  // Interpreted checksum per baseline; NaN where the native reference is
  // unavailable.
  std::vector<double> BaseSum(NumBases,
                              std::numeric_limits<double>::quiet_NaN());
  std::vector<bool> Reported(NumBases, false);
  size_t BestIdx = NumBases;
  for (size_t I = 0; I < W.Jobs.size(); ++I) {
    const Job &J = W.Jobs[I];
    double Rtol = J.Opts.ChecksumRtol;
    size_t B = BaseIdx[J.Baseline.get()];
    if (!Reported[B]) {
      Reported[B] = true;
      eval::RunResult Interp = eval::evaluateProgram(*J.Baseline, J.Opts.Eval);
      const eval::NativeResult &N = Native[B];
      std::string What = "native baseline " + J.Label;
      if (!Interp.Ok)
        Log.fail(What + ": interpreted baseline failed: " + Interp.Error);
      else if (!N.Ok && N.Failure == search::FailureKind::PrepareFailed)
        Log.skip(What + ": the native emitter's C does not compile, so this "
                        "kernel's searches are unverified: " +
                 firstErrorLine(N.Error));
      else if (!N.Ok)
        Log.fail(What + ": " + N.Error);
      else if (!checksumClose(N.Checksum, Interp.Checksum, Rtol))
        Log.fail(What + ": checksum " + std::to_string(N.Checksum) +
                 " vs interpreted " + std::to_string(Interp.Checksum));
      else {
        Log.pass(What);
        BaseSum[B] = Interp.Checksum;
      }
    }
    if (!Best[I])
      continue; // the baseline was kept: checked above
    const eval::NativeResult &N = Native[BestIdx++];
    if (std::isnan(BaseSum[B]))
      continue; // unverifiable, reported with its baseline
    std::string What = "native best variant " + J.Label;
    if (!N.Ok)
      Log.fail(What + ": " + N.Error);
    else if (!checksumClose(N.Checksum, BaseSum[B], Rtol))
      Log.fail(What + ": checksum " + std::to_string(N.Checksum) +
               " vs interpreted baseline " + std::to_string(BaseSum[B]));
    else
      Log.pass(What);
  }
  if (std::all_of(BaseSum.begin(), BaseSum.end(),
                  [](double S) { return std::isnan(S); }))
    Log.fail("native reference: no baseline of the workload could be "
             "verified natively");
}

//===----------------------------------------------------------------------===//
// Traced run and per-layer metrics
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

struct ProbeTotals {
  double OnS = 0, OffS = 0, FixedOnS = 0, FixedOffS = 0;
  double Iterations = 0, Accesses = 0;
  int Runs = 0;
};

/// Fastest of up to 9 runs of one prepared variant; short runs repeat until
/// 50 ms are spent so that a ~1 ms run is not a single clock reading.
double timedRun(const cir::Program &P, const eval::EvalOptions &O,
                eval::RunResult *Out) {
  eval::ProgramEvaluator E(P, O);
  if (!E.prepare().ok())
    return -1;
  double Best = std::numeric_limits<double>::infinity(), Spent = 0;
  for (int I = 0; I < 9 && (I == 0 || Spent < 0.05); ++I) {
    double T0 = nowSeconds();
    eval::RunResult R = E.run();
    double Dt = nowSeconds() - T0;
    Best = std::min(Best, Dt);
    Spent += Dt;
    if (Out)
      *Out = std::move(R);
  }
  return Best;
}

/// Re-runs a sample of evaluated variants with cost accounting on and off,
/// and with a zero iteration budget (set-up only), to split a run into its
/// per-iteration, per-access and fixed parts. Also the exact-count gate:
/// the cost-on re-run must reproduce the traced run's counts.
ProbeTotals probeVariants(const std::vector<AssessRecord> &Recs,
                          const eval::EvalOptions &Base, CheckLog &Log) {
  std::vector<const AssessRecord *> Evaluated;
  for (const AssessRecord &R : Recs)
    if (R.Evaluated && R.Run.Ok && R.Variant)
      Evaluated.push_back(&R);
  ProbeTotals T;
  size_t N = Evaluated.size();
  size_t Take = std::min(N, MaxProbes);
  for (size_t K = 0; K < Take; ++K) {
    const AssessRecord &R = *Evaluated[K * N / Take];
    eval::EvalOptions On = Base, Off = Base;
    Off.CountCost = false;
    eval::RunResult Again;
    double TOn = timedRun(*R.Variant, On, &Again);
    double TOff = timedRun(*R.Variant, Off, nullptr);
    eval::EvalOptions FOn = On, FOff = Off;
    FOn.MaxIterations = FOff.MaxIterations = 0;
    double TFOn = timedRun(*R.Variant, FOn, nullptr);
    double TFOff = timedRun(*R.Variant, FOff, nullptr);
    uint64_t Acc = R.Run.Cache.empty()
                       ? 0
                       : R.Run.Cache[0].Hits + R.Run.Cache[0].Misses;
    uint64_t AccAgain = Again.Cache.empty()
                            ? 0
                            : Again.Cache[0].Hits + Again.Cache[0].Misses;
    if (Again.LoopIterations != R.Run.LoopIterations || AccAgain != Acc ||
        Again.Cycles != R.Run.Cycles)
      Log.fail("exact counts: re-running point " + R.PointKey +
               " changed iterations/accesses/cycles");
    T.OnS += TOn;
    T.OffS += TOff;
    T.FixedOnS += TFOn;
    T.FixedOffS += TFOff;
    T.Iterations += static_cast<double>(R.Run.LoopIterations);
    T.Accesses += static_cast<double>(Acc);
    ++T.Runs;
  }
  return T;
}

struct SpanStats {
  double TotalS = 0;
  int Count = 0;
  double mean() const { return Count ? TotalS / Count : 0; }
};

struct TracedRun {
  double WallS = 0;
  double UnattributedS = 0;
  std::map<std::string, SpanStats> ByName;     ///< span durations by name
  std::map<std::string, SpanStats> PointByName; ///< the same, point spans only
  std::map<std::string, double> SelfByName;    ///< self time by span name
  std::map<std::string, double> LayerSelfS;    ///< self time by layer
  std::vector<Span> Spans;
  std::vector<TracedSearchResult> Jobs;
};

/// Span statistics of one traced repetition rooted at span \p Root.
void collectSpans(Tracer &T, int Root, TracedRun &Out) {
  Out.Spans = T.spans();
  std::vector<double> Self = selfTimes(Out.Spans);
  // Only spans under Root count toward the repetition's wall.
  std::vector<bool> Under(Out.Spans.size(), false);
  for (size_t I = 0; I < Out.Spans.size(); ++I) {
    int P = static_cast<int>(I);
    while (P >= 0 && P != Root)
      P = Out.Spans[static_cast<size_t>(P)].Parent;
    Under[I] = P == Root;
  }
  const Span &R = Out.Spans[static_cast<size_t>(Root)];
  Out.WallS = R.End - R.Start;
  Out.UnattributedS = Self[static_cast<size_t>(Root)];
  for (size_t I = 0; I < Out.Spans.size(); ++I) {
    if (!Under[I] || static_cast<int>(I) == Root)
      continue;
    const Span &S = Out.Spans[I];
    for (auto *Map : {&Out.ByName, &Out.PointByName}) {
      if (Map == &Out.PointByName && S.Point == 0)
        continue;
      SpanStats &St = (*Map)[S.Name];
      St.TotalS += S.End - S.Start;
      ++St.Count;
    }
    Out.SelfByName[S.Name] += Self[I];
    Out.LayerSelfS[std::string(layerOf(S.Name))] += Self[I];
  }
}

/// Runs the traced repetition and derives every per-layer metric.
std::vector<Metric> tracedMetrics(const WorkloadConfig &Cfg, Workload &W,
                                  const std::string &Dir,
                                  const RepResult &Reference,
                                  double TimedWallS, const Args &A,
                                  CheckLog &Log) {
  std::vector<Metric> M;
  auto Add = [&](const std::string &Name, double V, const char *Unit) {
    M.push_back(Metric{Name, V, Unit});
  };

  // Set-up calls that runSearch does not make: parsing and discovery.
  Tracer SetupT;
  {
    ScopedSpan Root(&SetupT, "bench.setup");
    auto Built = buildWorkload(Cfg, &SetupT);
    if (!Built.ok())
      Log.fail("traced set-up: " + Built.message());
  }
  TracedRun Setup;
  collectSpans(SetupT, 0, Setup);

  freshDir(Dir);
  placeState(W, Cfg, Dir);
  Tracer T;
  TracedRun Run;
  int Root = T.begin("bench.run");
  for (size_t I = 0; I < W.Jobs.size(); ++I) {
    const Job &J = W.Jobs[I];
    auto R = tracedRunSearch(*J.LProg, *J.Baseline, J.Opts, T);
    if (!R.ok()) {
      Log.fail("traced search " + J.Label + ": " + R.message());
      Run.Jobs.emplace_back();
      continue;
    }
    JobOutcome O = summarize(*R, R->BestRun);
    std::string D = O.diff(Reference.Jobs[I]);
    if (D.empty())
      Log.pass("traced run replays " + J.Label);
    else
      Log.fail("traced run diverges from the timed run on " + J.Label + ":" +
               D);
    Run.Jobs.push_back(std::move(*R));
  }
  T.end(Root);
  collectSpans(T, Root, Run);
  if (!A.TraceOut.empty() && !T.writeChromeTrace(A.TraceOut))
    Log.fail("cannot write trace " + A.TraceOut);

  // Per-point facts the spans do not carry.
  double Proposals = 0, Classified = 0, Pruned = 0, Lookups = 0, Hits = 0;
  double Records = 0, Invalid = 0, Transforms = 0, Bytes = 0, Materialized = 0;
  double Iterations = 0, Accesses = 0, L1Misses = 0;
  uint64_t LeaseExpiries = 0, Fallback = 0, Lost = 0;
  std::vector<AssessRecord> All;
  for (size_t I = 0; I < Run.Jobs.size(); ++I) {
    TracedSearchResult &R = Run.Jobs[I];
    Proposals += R.Search.Evaluations + R.Search.DuplicateHits;
    Classified += R.Classified;
    Pruned += R.Search.PrunedStatic;
    Lookups += static_cast<double>(R.Search.CacheHits + R.Search.CacheMisses);
    Hits += static_cast<double>(R.Search.CacheHits);
    LeaseExpiries += R.Service.LeaseExpiries;
    Fallback += R.Service.LocalFallbackEvals;
    if (R.Served)
      Lost += claimsLost(W.Jobs[I].Opts.Serve.QueueDir);
    for (AssessRecord &Rec : R.Assessed) {
      ++Records;
      Transforms += Rec.TransformsApplied;
      if (!Rec.Materialized) {
        ++Invalid;
        continue;
      }
      ++Materialized;
      Bytes += static_cast<double>(Rec.VariantBytes);
      if (Rec.Evaluated) {
        Iterations += static_cast<double>(Rec.Run.LoopIterations);
        if (!Rec.Run.Cache.empty()) {
          Accesses += static_cast<double>(Rec.Run.Cache[0].Hits +
                                          Rec.Run.Cache[0].Misses);
          L1Misses += static_cast<double>(Rec.Run.Cache[0].Misses);
        }
      }
      All.push_back(std::move(Rec));
    }
  }

  // Service overhead: each served task against the in-process assess time
  // of the same point, from a local replay of the same search.
  double Overhead = 0;
  if (W.Served && !Run.Jobs.empty() && Run.Jobs[0].Served) {
    auto Durations = [](const std::vector<Span> &Spans, const char *Name,
                        const std::map<uint64_t, std::string> &Keys) {
      std::map<std::string, double> ByKey;
      for (const Span &S : Spans) {
        auto It = Keys.find(S.Point);
        if (S.Name == Name && It != Keys.end())
          ByKey[It->second] = S.End - S.Start;
      }
      return ByKey;
    };
    std::map<std::string, double> Task =
        Durations(Run.Spans, "service.task", Run.Jobs[0].PointKeys);
    driver::OrchestratorOptions Local = W.Jobs[0].Opts;
    Local.Serve = service::CoordinatorOptions();
    Tracer LocalT;
    auto LR = tracedRunSearch(*W.Jobs[0].LProg, *W.Jobs[0].Baseline, Local,
                              LocalT);
    if (!LR.ok()) {
      Log.fail("local replay of the served search: " + LR.message());
    } else {
      std::map<std::string, double> InProcess =
          Durations(LocalT.spans(), "driver.assess", LR->PointKeys);
      double Sum = 0;
      int N = 0;
      for (const auto &[Key, Dt] : Task) {
        auto It = InProcess.find(Key);
        if (It == InProcess.end())
          continue;
        Sum += Dt - It->second;
        ++N;
      }
      Overhead = N ? Sum / N : 0;
    }
  }

  ProbeTotals P = probeVariants(All, W.Jobs[0].Opts.Eval, Log);

  // Per-call means: point spans for per-point work, all spans for set-up.
  auto MeanMs = [&](const char *Name) {
    return Run.PointByName[Name].mean() * 1e3;
  };
  auto MeanUs = [&](const char *Name) {
    return Run.PointByName[Name].mean() * 1e6;
  };
  auto SetupMs = [&](const char *Name) {
    return Run.ByName[Name].mean() * 1e3;
  };

  double NsPerIter =
      P.Iterations > 0 ? (P.OffS - P.FixedOffS) / P.Iterations * 1e9 : 0;
  double NsPerAccess =
      P.Accesses > 0
          ? ((P.OnS - P.FixedOnS) - (P.OffS - P.FixedOffS)) / P.Accesses * 1e9
          : 0;
  Add("eval.ns_per_iter", NsPerIter, "ns");
  Add("machine.ns_per_access", NsPerAccess, "ns");
  Add("eval.fixed_ms", P.Runs ? P.FixedOnS / P.Runs * 1e3 : 0, "ms");
  Add("eval.prepare_ms", MeanMs("eval.prepare"), "ms");
  Add("eval.run_ms", MeanMs("eval.run"), "ms");
  Add("eval.iterations", Iterations, "count");
  Add("machine.accesses", Accesses, "count");
  Add("machine.l1_miss_ratio", Accesses > 0 ? L1Misses / Accesses : 0,
      "ratio");
  Add("locus.materialize_ms", MeanMs("locus.materialize"), "ms");
  Add("cir.print_us", MeanUs("cir.print"), "us");
  Add("search.key_us", MeanUs("search.key"), "us");
  Add("search.cache_lookup_us", MeanUs("search.cache_lookup"), "us");
  Add("search.propose_us",
      Proposals > 0 ? Run.SelfByName["search.search"] / Proposals * 1e6 : 0,
      "us");
  Add("locus.transforms_per_point", Records > 0 ? Transforms / Records : 0,
      "count");
  Add("locus.invalid_ratio", Records > 0 ? Invalid / Records : 0, "ratio");
  Add("cir.variant_kb", Materialized > 0 ? Bytes / Materialized / 1024 : 0,
      "KiB");
  Add("analysis.classify_us", MeanUs("analysis.classify"), "us");
  Add("analysis.prune_ratio", Classified > 0 ? Pruned / Classified : 0,
      "ratio");
  Add("search.journal_append_us", MeanUs("search.journal_append"), "us");
  Add("search.store_append_us", MeanUs("search.store_append"), "us");
  Add("search.cache_hit_ratio", Lookups > 0 ? Hits / Lookups : 0, "ratio");
  Add("search.cache_lookups", Lookups, "count");
  Add("locus.extract_ms", SetupMs("locus.extract"), "ms");
  Add("analysis.oracle_build_ms", SetupMs("analysis.oracle_build"), "ms");
  Add("analysis.discover_ms", Setup.ByName["analysis.discover"].mean() * 1e3,
      "ms");
  Add("search.store_load_ms", SetupMs("search.store_load"), "ms");
  Add("service.task_ms", MeanMs("service.task"), "ms");
  Add("service.overhead_ms", Overhead * 1e3, "ms");
  Add("service.lease_expiries", static_cast<double>(LeaseExpiries), "count");
  Add("service.local_fallback", static_cast<double>(Fallback), "count");
  Add("service.claims_lost", static_cast<double>(Lost), "count");
  for (const char *Layer :
       {"driver", "search", "analysis", "locus", "cir", "eval", "service"})
    Add(std::string(Layer) + ".self_ms", Run.LayerSelfS[Layer] * 1e3, "ms");
  Add("trace.wall_s", Run.WallS, "s");
  Add("trace.overhead_ratio", TimedWallS > 0 ? Run.WallS / TimedWallS - 1 : 0,
      "ratio");
  Add("trace.unattributed_ratio",
      Run.WallS > 0 ? Run.UnattributedS / Run.WallS : 0, "ratio");
  return M;
}

//===----------------------------------------------------------------------===//
// Output
//===----------------------------------------------------------------------===//

std::string jsonEscape(const std::string &S) {
  std::string O;
  for (char C : S) {
    if (C == '"' || C == '\\')
      O += '\\';
    if (static_cast<unsigned char>(C) < 0x20) {
      O += ' ';
      continue;
    }
    O += C;
  }
  return O;
}

std::string number(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string resultJson(bool Correct, uint64_t Attempted, uint64_t Failed,
                       const std::vector<Metric> &Metrics) {
  std::ostringstream O;
  O << "{\"correct\": " << (Correct ? "true" : "false")
    << ", \"attempted\": " << Attempted << ", \"failed\": " << Failed
    << ", \"metrics\": {";
  for (size_t I = 0; I < Metrics.size(); ++I)
    O << (I ? ", " : "") << "\"" << Metrics[I].Name
      << "\": {\"value\": " << number(Metrics[I].Value) << ", \"unit\": \""
      << Metrics[I].Unit << "\"}";
  O << "}}";
  return O.str();
}

} // namespace

int main(int argc, char **argv) {
  Args A;
  parseArgs(argc, argv, A);
  std::string Exe = selfExe(argv[0]);
  if (!A.ServiceQueue.empty())
    return runWorkerMode(A, Exe);

#if defined(PERFBENCH_SANITIZED)
  die("refusing to measure a sanitizer build");
#endif
#if !defined(__OPTIMIZE__)
  die("refusing to measure an unoptimized build");
#endif
  if (A.WorkDir.empty())
    die("--work-dir is required");

  WorkloadConfig Cfg{A.Workload, A.Seed, A.Smoke, Exe};
  CheckLog Log;
  std::string Root = A.WorkDir;
  freshDir(Root);
  std::printf("workload %s, seed %llu, %.0f s, build %s, compiler %s, "
              "machine model xeonE5v3, nproc %u, commit %s%s\n",
              A.Workload.c_str(), static_cast<unsigned long long>(A.Seed),
              A.Seconds, PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
              std::thread::hardware_concurrency(), A.Commit.c_str(),
              A.Smoke ? ", smoke" : "");

  auto Built = buildWorkload(Cfg);
  if (!Built.ok())
    die(Built.message());
  Workload W = std::move(*Built);

  // Set-up and timed repetitions alternate, so both sample the whole
  // window: interference from other tenants of a shared host comes in
  // bursts of several seconds, and a metric estimated from one burst would
  // differ from run to run. The first timed repetition is the reference
  // every other one (and the traced run) must reproduce exactly.
  std::vector<RepResult> Setups, Reps;
  std::vector<double> SetupS;
  std::vector<std::unique_ptr<cir::Program>> BestPrograms(W.Jobs.size());
  size_t Planned =
      A.Smoke ? 1
              : static_cast<size_t>(std::clamp(
                    std::round(A.Seconds / W.NominalRepS), MinReps, MaxReps));
  HostCalibration Host;
  double Start = nowSeconds();
  uint64_t Attempted = 0, Failed = 0;
  while (true) {
    Host.sample();
    for (int I = 0; I < SetupsPerRep; ++I) {
      std::string Err;
      Setups.push_back(measureSetup(Cfg, Root + "/setup", Err));
      if (!Err.empty())
        die("set-up: " + Err);
      SetupS.push_back(Setups.back().WallS);
    }
    std::string Dir = Root + "/rep";
    freshDir(Dir);
    placeState(W, Cfg, Dir);
    bool First = Reps.empty();
    RepResult Rep = runRep(W, [&](size_t I, driver::SearchWorkflowResult &R) {
      if (First && !R.BaselineChosen)
        BestPrograms[I] = std::move(R.BestProgram);
    });
    bool RepOk = true;
    for (size_t I = 0; I < Rep.Jobs.size(); ++I) {
      const JobOutcome &O = Rep.Jobs[I];
      if (!O.Ok) {
        Log.fail("search " + O.Error);
        RepOk = false;
        continue;
      }
      if (!First) {
        std::string D = O.diff(Reps.front().Jobs[I]);
        if (!D.empty()) {
          Log.fail("exact counts drift on " + W.Jobs[I].Label + ":" + D);
          RepOk = false;
        }
      }
    }
    Attempted += Rep.Attempted;
    Failed += RepOk ? Rep.Failed : Rep.Attempted;
    Reps.push_back(std::move(Rep));
    if (Reps.size() >= Planned)
      break;
    if (nowSeconds() - Start > DeadlineS) {
      std::printf("warning: stopped after %zu of %zu repetitions at the "
                  "%.0f s deadline\n",
                  Reps.size(), Planned, DeadlineS);
      break;
    }
  }
  double PeakRss = peakRssMb();
  std::vector<double> Wall, Cpu;
  for (const RepResult &R : Reps) {
    Wall.push_back(R.WallS);
    Cpu.push_back(R.CpuS);
  }
  const RepResult &Ref = Reps.front();

  // Correctness checks, untimed.
  nativeChecks(W, BestPrograms, Root, Log);
  if (W.Served) {
    const Job &J = W.Jobs[0];
    driver::OrchestratorOptions Local = J.Opts;
    Local.Serve = service::CoordinatorOptions();
    driver::Orchestrator Orch(*J.LProg, *J.Baseline, Local);
    auto R = Orch.runSearch();
    if (!R.ok())
      Log.fail("local run of the served search: " + R.message());
    else {
      JobOutcome L = summarize(*R, R->BestRun);
      const JobOutcome &S = Ref.Jobs[0];
      if (L.BestKey != S.BestKey || L.BestCycles != S.BestCycles ||
          L.History != S.History)
        Log.fail("served search differs from the local run: best " +
                 S.BestKey + " (" + number(S.BestCycles) + ") vs " +
                 L.BestKey + " (" + number(L.BestCycles) + ")");
      else
        Log.pass("served best point and cycles equal the local run");
    }
  }

  double LogSpeedup = 0;
  for (const JobOutcome &O : Ref.Jobs)
    LogSpeedup += std::log(O.Ok && O.Speedup > 0 ? O.Speedup : 1.0);
  double Speedup = std::exp(LogSpeedup / static_cast<double>(Ref.Jobs.size()));

  TimeEstimate Search = estimateTimes(Reps);
  TimeEstimate SetupEst = estimateTimes(Setups);
  double F = Host.factor();
  // The host factor scales this process's computing, not its waiting (on
  // the serve workload's workers, spawns and queue polls): of a wall-clock
  // estimate, the part the process's own CPU time covers.
  auto AtReference = [F](const TimeEstimate &E) {
    return E.WallS + std::min(E.SelfS, E.WallS) * (F - 1);
  };
  std::vector<Metric> E2E = {
      {"search_s", AtReference(Search), "s"},
      {"setup_s", AtReference(SetupEst), "s"},
      {"cpu_s", Search.CpuS * F, "s"},
      {"peak_rss_mb", PeakRss, "MB"},
      {"best_speedup", Speedup, "x"},
      {"ok_ratio",
       Attempted ? 1.0 - static_cast<double>(Failed) / Attempted : 0, "ratio"},
  };
  std::printf("host speed: calibration loops %.6f s at their fastest, factor "
              "%.4f; as measured: search_s %.6f s, setup_s %.6f s, cpu_s "
              "%.6f s\n",
              Host.seconds(), F, Search.WallS, SetupEst.WallS, Search.CpuS);
  std::printf("search_s    %.6f s; repetitions: median %.6f s, %s\n",
              E2E[0].Value, median(Wall), tailText(Wall, "s").c_str());
  std::printf("setup_s     %.6f s; repetitions: median %.6f s, %s\n",
              E2E[1].Value, median(SetupS), tailText(SetupS, "s").c_str());
  std::printf("cpu_s       %.6f s; repetitions: median %.6f s, %s\n",
              E2E[2].Value, median(Cpu), tailText(Cpu, "s").c_str());
  std::printf("peak_rss_mb %.1f MB\n", PeakRss);
  std::printf("best_speedup %.4fx (geometric mean over %zu search(es))\n",
              Speedup, Ref.Jobs.size());
  std::printf("fail_ratio  %llu / %llu (ok_ratio %.6f)\n",
              static_cast<unsigned long long>(Failed),
              static_cast<unsigned long long>(Attempted), E2E.back().Value);
  {
    int Points = 0, Pruned = 0, ByRange = 0;
    uint64_t Hits = 0, Misses = 0, Worker = 0;
    for (const JobOutcome &O : Ref.Jobs) {
      Points += O.Evaluations;
      Pruned += O.Pruned;
      ByRange += O.PrunedByRange;
      Hits += O.CacheHits;
      Misses += O.CacheMisses;
      Worker += O.WorkerResults;
    }
    std::printf("counts per repetition: %d points, %d pruned (%d by range), "
                "%llu cache hits / %llu misses, %llu worker results; "
                "%zu repetitions agree\n",
                Points, Pruned, ByRange, static_cast<unsigned long long>(Hits),
                static_cast<unsigned long long>(Misses),
                static_cast<unsigned long long>(Worker), Reps.size());
  }

  std::vector<Metric> Out = E2E;
  if (A.Trace)
    Out = tracedMetrics(Cfg, W, Root + "/traced", Ref, median(Wall),
                        A, Log);

  for (const std::string &S : Log.Passed)
    std::printf("check passed: %s\n", S.c_str());
  for (const std::string &S : Log.Skipped)
    std::printf("check skipped: %s\n", S.c_str());
  for (const std::string &S : Log.Failed)
    std::printf("check FAILED: %s\n", S.c_str());
  if (A.Trace)
    for (const Metric &M : Out)
      std::printf("  %-28s %14.6f %s\n", M.Name.c_str(), M.Value,
                  M.Unit.c_str());

  bool Correct = Log.Failed.empty();
  if (!A.Record.empty()) {
    std::ofstream R(A.Record);
    R << "{\"workload\": \"" << jsonEscape(A.Workload) << "\", \"seed\": "
      << A.Seed << ", \"trace\": " << (A.Trace ? 1 : 0)
      << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
      << "\", \"compiler\": \"" << jsonEscape(PERFBENCH_COMPILER)
      << "\", \"machine_model\": \"xeonE5v3\", \"nproc\": "
      << std::thread::hardware_concurrency() << ", \"commit\": \""
      << jsonEscape(A.Commit) << "\", \"repetitions\": " << Reps.size()
      << ", \"host_factor\": " << number(F) << ", \"measured\": {\"search_s\": "
      << number(Search.WallS) << ", \"setup_s\": " << number(SetupEst.WallS)
      << ", \"cpu_s\": " << number(Search.CpuS) << "}"
      << ", \"result\": " << resultJson(Correct, Attempted, Failed, Out)
      << "}\n";
  }
  std::error_code EC;
  fs::remove_all(Root, EC);
  std::printf("%s\n", resultJson(Correct, Attempted, Failed, Out).c_str());
  return Correct ? 0 : 1;
}
