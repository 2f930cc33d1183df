//===- SubprocessTest.cpp - Sandboxed execution tests -------------------------===//
//
// Exercises the sandbox against a deliberately misbehaving helper binary
// (tests/helpers/subprocess_victim.cpp, built by CMake without sanitizers),
// so no compiler is needed at test run time: timeout kill + SIGTERM->SIGKILL
// escalation, signal classification, rlimit enforcement, output-capture
// caps, process-group cleanup, hermetic TempDirs — and a search-level suite
// that drives every searcher over real hanging/crashing/garbage-printing
// subprocesses and checks the per-kind counters and the best point.
//
//===----------------------------------------------------------------------===//

#include "src/eval/NativeEvaluator.h"
#include "src/search/Search.h"
#include "src/support/Hashing.h"
#include "src/support/Subprocess.h"

#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <limits>
#include <thread>

#include <sys/stat.h>
#include <unistd.h>

namespace locus {
namespace {

using namespace search;
using support::runSubprocess;
using support::SpawnExit;
using support::SubprocessOptions;
using support::SubprocessResult;
using support::TempDir;

const char *victimPath() { return LOCUS_SUBPROCESS_VICTIM; }

SubprocessOptions victim(std::initializer_list<std::string> Args) {
  SubprocessOptions Opts;
  Opts.Argv.push_back(victimPath());
  Opts.Argv.insert(Opts.Argv.end(), Args.begin(), Args.end());
  return Opts;
}

bool processAlive(pid_t Pid) {
  return kill(Pid, 0) == 0 || errno != ESRCH;
}

bool fileExists(const std::string &Path) {
  struct stat St;
  return stat(Path.c_str(), &St) == 0;
}

//===----------------------------------------------------------------------===//
// Exit classification
//===----------------------------------------------------------------------===//

TEST(Subprocess, CleanExitCapturesOutput) {
  SubprocessResult R = runSubprocess(victim({"metric", "0.25", "7.5"}));
  ASSERT_EQ(R.Exit, SpawnExit::Exited) << R.describe();
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_TRUE(R.ok());
  EXPECT_EQ(R.Stdout, "LOCUS_TIME 0.250000000\nLOCUS_CHECKSUM 7.500000000\n");
  EXPECT_TRUE(R.Stderr.empty());
  EXPECT_FALSE(R.StdoutTruncated);
}

TEST(Subprocess, NonzeroExitCode) {
  SubprocessResult R = runSubprocess(victim({"exit", "3"}));
  ASSERT_EQ(R.Exit, SpawnExit::Exited);
  EXPECT_EQ(R.ExitCode, 3);
  EXPECT_FALSE(R.ok());
  EXPECT_EQ(R.describe(), "exited 3");
}

TEST(Subprocess, SegfaultClassifiesAsSignal) {
  SubprocessResult R = runSubprocess(victim({"segv"}));
  ASSERT_EQ(R.Exit, SpawnExit::Signaled) << R.describe();
  EXPECT_EQ(R.Signal, SIGSEGV);
  EXPECT_EQ(R.describe(), "killed by SIGSEGV");
}

TEST(Subprocess, AbortClassifiesAsSignal) {
  SubprocessResult R = runSubprocess(victim({"abrt"}));
  ASSERT_EQ(R.Exit, SpawnExit::Signaled) << R.describe();
  EXPECT_EQ(R.Signal, SIGABRT);
}

TEST(Subprocess, SpawnFailureIsReported) {
  SubprocessOptions Opts;
  Opts.Argv = {"/nonexistent/locus-no-such-binary"};
  SubprocessResult R = runSubprocess(Opts);
  ASSERT_EQ(R.Exit, SpawnExit::SpawnFailed);
  EXPECT_NE(R.SpawnError.find("locus-no-such-binary"), std::string::npos);
}

TEST(Subprocess, SignalNames) {
  EXPECT_EQ(support::signalName(SIGSEGV), "SIGSEGV");
  EXPECT_EQ(support::signalName(SIGKILL), "SIGKILL");
  EXPECT_EQ(support::signalName(SIGXCPU), "SIGXCPU");
  EXPECT_EQ(support::signalName(1000), "signal 1000");
}

//===----------------------------------------------------------------------===//
// Watchdog: deadline, escalation, process-group kill
//===----------------------------------------------------------------------===//

TEST(Subprocess, TimeoutKillsSleepingChild) {
  SubprocessOptions Opts = victim({"sleep", "30"});
  Opts.Limits.WallClockSeconds = 0.3;
  Opts.Limits.TermGraceSeconds = 2.0;
  SubprocessResult R = runSubprocess(Opts);
  ASSERT_EQ(R.Exit, SpawnExit::TimedOut) << R.describe();
  // A sleeping child dies on the first SIGTERM; no escalation needed.
  EXPECT_FALSE(R.TermEscalated);
  EXPECT_LT(R.ElapsedSeconds, 5.0);
  EXPECT_NE(R.describe().find("timed out"), std::string::npos);
}

TEST(Subprocess, SigtermIgnoringChildIsEscalatedToSigkill) {
  SubprocessOptions Opts = victim({"hang", "3600"});
  Opts.Limits.WallClockSeconds = 0.3;
  Opts.Limits.TermGraceSeconds = 0.3;
  SubprocessResult R = runSubprocess(Opts);
  ASSERT_EQ(R.Exit, SpawnExit::TimedOut) << R.describe();
  EXPECT_TRUE(R.TermEscalated);
  EXPECT_EQ(R.Signal, SIGKILL);
  EXPECT_LT(R.ElapsedSeconds, 5.0);
  EXPECT_NE(R.describe().find("SIGTERM escalated to SIGKILL"),
            std::string::npos);
}

TEST(Subprocess, ProcessGroupKillReapsGrandchildren) {
  // The victim forks a SIGTERM-ignoring grandchild, reports its pid, and
  // hangs. The watchdog must take out the whole process group.
  SubprocessOptions Opts = victim({"orphan", "3600"});
  Opts.Limits.WallClockSeconds = 0.4;
  Opts.Limits.TermGraceSeconds = 0.2;
  SubprocessResult R = runSubprocess(Opts);
  ASSERT_EQ(R.Exit, SpawnExit::TimedOut) << R.describe();
  int ChildPid = 0;
  ASSERT_EQ(std::sscanf(R.Stdout.c_str(), "CHILD %d", &ChildPid), 1)
      << R.Stdout;
  ASSERT_GT(ChildPid, 0);
  // The grandchild must be gone (give the kernel a moment to reap).
  bool Gone = false;
  for (int I = 0; I < 100 && !Gone; ++I) {
    Gone = !processAlive(ChildPid);
    if (!Gone)
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(Gone) << "grandchild " << ChildPid
                    << " survived the group kill";
}

TEST(Subprocess, NoDeadlineMeansNoTimeout) {
  SubprocessOptions Opts = victim({"sleep", "0.1"});
  // WallClockSeconds stays 0: no watchdog.
  SubprocessResult R = runSubprocess(Opts);
  EXPECT_EQ(R.Exit, SpawnExit::Exited);
  EXPECT_TRUE(R.ok());
}

//===----------------------------------------------------------------------===//
// Rlimits
//===----------------------------------------------------------------------===//

TEST(Subprocess, CpuLimitDeliversSigxcpu) {
  if (!support::rlimitsSupported())
    GTEST_SKIP() << "rlimits unsupported on this host";
  SubprocessOptions Opts = victim({"spin", "30"});
  Opts.Limits.CpuSeconds = 1;
  Opts.Limits.WallClockSeconds = 20; // backstop, should not fire
  SubprocessResult R = runSubprocess(Opts);
  ASSERT_EQ(R.Exit, SpawnExit::Signaled) << R.describe();
  EXPECT_TRUE(R.Signal == SIGXCPU || R.Signal == SIGKILL) << R.Signal;
}

TEST(Subprocess, FileSizeLimitDeliversSigxfsz) {
  if (!support::rlimitsSupported())
    GTEST_SKIP() << "rlimits unsupported on this host";
  TempDir Work("locus-sbx-");
  ASSERT_TRUE(Work.valid());
  SubprocessOptions Opts = victim({"fwrite", "big.out"});
  Opts.WorkDir = Work.path();
  Opts.Limits.FileSizeBytes = 1 << 20; // 1 MiB, victim writes 64 MiB
  Opts.Limits.WallClockSeconds = 20;
  SubprocessResult R = runSubprocess(Opts);
  ASSERT_EQ(R.Exit, SpawnExit::Signaled) << R.describe();
  EXPECT_EQ(R.Signal, SIGXFSZ);
  // The partial file is capped at the limit.
  struct stat St;
  ASSERT_EQ(stat((Work.path() + "/big.out").c_str(), &St), 0);
  EXPECT_LE(St.st_size, 1 << 20);
}

TEST(Subprocess, AddressSpaceLimitStopsAllocation) {
  if (!support::rlimitsSupported())
    GTEST_SKIP() << "rlimits unsupported on this host";
  // 64 MiB cap, victim touches 512 MiB: malloc fails and the victim aborts.
  SubprocessOptions Opts = victim({"oom", "512"});
  Opts.Limits.AddressSpaceBytes = 64L * 1024 * 1024;
  Opts.Limits.WallClockSeconds = 20;
  SubprocessResult R = runSubprocess(Opts);
  ASSERT_EQ(R.Exit, SpawnExit::Signaled) << R.describe();
  EXPECT_EQ(R.Signal, SIGABRT);
  EXPECT_NE(R.Stderr.find("allocation failed"), std::string::npos)
      << R.Stderr;
}

//===----------------------------------------------------------------------===//
// Output capture
//===----------------------------------------------------------------------===//

TEST(Subprocess, CaptureCapTruncatesWithoutBlockingTheChild) {
  // The victim writes 4 MiB — far beyond both the cap and the kernel pipe
  // buffer. The sandbox must keep draining (or the child blocks forever)
  // while retaining only the cap.
  SubprocessOptions Opts = victim({"spew", "4194304"});
  Opts.Limits.MaxCaptureBytes = 1000;
  Opts.Limits.WallClockSeconds = 10;
  SubprocessResult R = runSubprocess(Opts);
  ASSERT_EQ(R.Exit, SpawnExit::Exited) << R.describe();
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_EQ(R.Stdout.size(), 1000u);
  EXPECT_TRUE(R.StdoutTruncated);
  EXPECT_EQ(R.Stdout.find_first_not_of('x'), std::string::npos);
}

TEST(Subprocess, ArgvIsNeverShellInterpreted) {
  TempDir Work("locus-sbx-");
  ASSERT_TRUE(Work.valid());
  std::string Trap = "; touch " + Work.path() + "/pwned";
  SubprocessOptions Opts = victim({"exit", "0", Trap});
  Opts.WorkDir = Work.path();
  SubprocessResult R = runSubprocess(Opts);
  EXPECT_TRUE(R.ok()) << R.describe();
  EXPECT_FALSE(fileExists(Work.path() + "/pwned"))
      << "argument was interpreted by a shell";
}

TEST(Subprocess, RunsInRequestedWorkDir) {
  TempDir Work("locus-sbx-");
  ASSERT_TRUE(Work.valid());
  SubprocessOptions Opts = victim({"fwrite", "here.txt"});
  Opts.WorkDir = Work.path();
  Opts.Limits.WallClockSeconds = 20;
  SubprocessResult R = runSubprocess(Opts);
  EXPECT_TRUE(R.ok()) << R.describe();
  EXPECT_TRUE(fileExists(Work.path() + "/here.txt"));
}

//===----------------------------------------------------------------------===//
// TempDir: hermetic workdirs
//===----------------------------------------------------------------------===//

TEST(SubprocessTempDir, UniquePathsAndRecursiveCleanup) {
  std::string P1, P2;
  {
    TempDir A("locus-t-"), B("locus-t-");
    ASSERT_TRUE(A.valid());
    ASSERT_TRUE(B.valid());
    P1 = A.path();
    P2 = B.path();
    EXPECT_NE(P1, P2);
    // Populate a nested tree; the destructor must remove all of it.
    ASSERT_EQ(mkdir((P1 + "/sub").c_str(), 0755), 0);
    std::ofstream(P1 + "/sub/file.txt") << "x";
    std::ofstream(P1 + "/top.txt") << "y";
  }
  EXPECT_FALSE(fileExists(P1));
  EXPECT_FALSE(fileExists(P2));
}

TEST(SubprocessTempDir, ReleaseKeepsTheDirectory) {
  std::string Kept;
  {
    TempDir T("locus-t-");
    ASSERT_TRUE(T.valid());
    Kept = T.release();
    EXPECT_EQ(T.path(), "");
  }
  EXPECT_TRUE(fileExists(Kept));
  rmdir(Kept.c_str());
}

TEST(SubprocessTempDir, RespectsBaseDirectory) {
  TempDir Base("locus-base-");
  ASSERT_TRUE(Base.valid());
  TempDir Inner("work-", Base.path());
  ASSERT_TRUE(Inner.valid());
  EXPECT_EQ(Inner.path().rfind(Base.path() + "/work-", 0), 0u)
      << Inner.path();
}

//===----------------------------------------------------------------------===//
// Concurrency: the sandbox under parallel callers (TSan coverage)
//===----------------------------------------------------------------------===//

TEST(Subprocess, ConcurrentRunsAreIndependent) {
  constexpr int Threads = 4, PerThread = 3;
  std::vector<std::thread> Ts;
  std::array<int, Threads> Failures{};
  for (int T = 0; T < Threads; ++T)
    Ts.emplace_back([T, &Failures] {
      for (int I = 0; I < PerThread; ++I) {
        double Want = 0.001 * (T * PerThread + I + 1);
        char Buf[32];
        std::snprintf(Buf, sizeof(Buf), "%.6f", Want);
        SubprocessResult R =
            runSubprocess(victim({"metric", Buf, "2.0"}));
        double Secs = 0, Sum = 0;
        if (!R.ok() ||
            !eval::parseNativeOutput(R.Stdout, Secs, Sum).ok() ||
            std::abs(Secs - Want) > 1e-9 || Sum != 2.0)
          ++Failures[T];
      }
    });
  for (std::thread &T : Ts)
    T.join();
  for (int T = 0; T < Threads; ++T)
    EXPECT_EQ(Failures[T], 0) << "thread " << T;
}

//===----------------------------------------------------------------------===//
// Subprocess-level fault injection: every searcher completes a search over
// real hanging / crashing / garbage-printing binaries with correct per-kind
// counters and an unchanged best point.
//===----------------------------------------------------------------------===//

enum class VictimMode { Clean, Hang, Segv, ExitNonzero, Garbage };

/// Deterministic per-point fault decision (~3/10 of the space misbehaves).
VictimMode modeFor(const Point &P, uint64_t Seed) {
  uint64_t H = fnv1a(P.key(), hashCombine(0x9e3779b97f4a7c15ULL, Seed));
  switch (H % 10) {
  case 0:
    return VictimMode::Hang;
  case 1:
    return (H >> 8) % 2 ? VictimMode::Segv : VictimMode::ExitNonzero;
  case 2:
    return VictimMode::Garbage;
  default:
    return VictimMode::Clean;
  }
}

FailureKind expectedKind(VictimMode M) {
  switch (M) {
  case VictimMode::Clean:
    return FailureKind::None;
  case VictimMode::Hang:
    return FailureKind::BudgetExceeded;
  case VictimMode::Segv:
  case VictimMode::ExitNonzero:
    return FailureKind::RuntimeTrap;
  case VictimMode::Garbage:
    return FailureKind::MetricUnstable;
  }
  return FailureKind::None;
}

Space victimSpace() {
  Space S;
  ParamDef A;
  A.Id = "a";
  A.Label = "a";
  A.Kind = ParamKind::Pow2;
  A.Min = 2;
  A.Max = 64;
  S.Params.push_back(A);
  ParamDef B;
  B.Id = "b";
  B.Label = "b";
  B.Kind = ParamKind::IntRange;
  B.Min = 0;
  B.Max = 15;
  S.Params.push_back(B);
  return S;
}

/// Separable metric with a unique optimum at a=16, b=7.
double victimMetric(const Point &P) {
  double A = static_cast<double>(P.getInt("a"));
  double B = static_cast<double>(P.getInt("b"));
  return 0.001 * (std::abs(std::log2(A) - 4.0) * 3 + std::abs(B - 7.0) + 1);
}

/// Every assessment spawns a real subprocess: clean points run the victim
/// in metric mode (the sandbox parses its harness output), faulty points
/// run it in a misbehaving mode, and the outcome flows through the exact
/// classification path the native evaluator uses. Stateless per call, so
/// the evaluation pool may assess points concurrently.
class SandboxedVictimObjective : public BatchObjective {
public:
  explicit SandboxedVictimObjective(uint64_t Seed) : Seed(Seed) {}

  EvalOutcome assess(const Point &P) override {
    VictimMode M = modeFor(P, Seed);
    SubprocessOptions Opts;
    Opts.Argv.push_back(victimPath());
    switch (M) {
    case VictimMode::Clean: {
      char Buf[32];
      std::snprintf(Buf, sizeof(Buf), "%.6f", victimMetric(P));
      Opts.Argv.insert(Opts.Argv.end(), {"metric", Buf, "2.0"});
      break;
    }
    case VictimMode::Hang:
      Opts.Argv.insert(Opts.Argv.end(), {"hang", "3600"});
      break;
    case VictimMode::Segv:
      Opts.Argv.push_back("segv");
      break;
    case VictimMode::ExitNonzero:
      Opts.Argv.insert(Opts.Argv.end(), {"exit", "3"});
      break;
    case VictimMode::Garbage:
      Opts.Argv.push_back("garbage");
      break;
    }
    Opts.Limits.WallClockSeconds = 0.25;
    Opts.Limits.TermGraceSeconds = 0.1;
    return eval::toEvalOutcome(eval::classifyNativeRun(runSubprocess(Opts)));
  }

private:
  uint64_t Seed;
};

/// Picks an injection seed whose fault map leaves the global optimum clean,
/// so the faulty and fault-free runs must agree on the best point.
uint64_t cleanOptimumSeed(const Space &S) {
  Point Best;
  Best.Values["a"] = int64_t(16);
  Best.Values["b"] = int64_t(7);
  (void)S;
  for (uint64_t Seed = 1;; ++Seed)
    if (modeFor(Best, Seed) == VictimMode::Clean)
      return Seed;
}

class SubprocessFaultSurvival : public ::testing::TestWithParam<const char *> {
};

TEST_P(SubprocessFaultSurvival, SearchCompletesOverMisbehavingBinaries) {
  Space S = victimSpace();
  uint64_t Seed = cleanOptimumSeed(S);
  SandboxedVictimObjective Obj(Seed);

  SearchOptions Opts;
  Opts.MaxEvaluations = 40;
  Opts.Seed = 7;
  auto Searcher = makeSearcher(GetParam());
  ASSERT_NE(Searcher, nullptr);
  SearchResult R = Searcher->search(S, Obj, Opts);

  // The search completed its budget; no fault took it down.
  EXPECT_LE(R.Evaluations, Opts.MaxEvaluations) << GetParam();
  EXPECT_EQ(static_cast<int>(R.History.size()), R.Evaluations) << GetParam();
  ASSERT_TRUE(R.Found) << GetParam();

  // Every record is classified exactly as its injected mode demands:
  // hang -> BudgetExceeded, SIGSEGV / nonzero exit -> RuntimeTrap,
  // garbage stdout -> MetricUnstable.
  int Faults = 0;
  for (const EvalRecord &Rec : R.History) {
    FailureKind Want = expectedKind(modeFor(Rec.P, Seed));
    EXPECT_EQ(Rec.Failure, Want)
        << GetParam() << " point " << Rec.P.key() << ": got "
        << failureKindName(Rec.Failure) << " want "
        << failureKindName(Want) << " (" << Rec.Detail << ")";
    if (Want == FailureKind::RuntimeTrap &&
        modeFor(Rec.P, Seed) == VictimMode::Segv) {
      EXPECT_NE(Rec.Detail.find("SIGSEGV"), std::string::npos) << GetParam();
    }
    if (Rec.Failure != FailureKind::None)
      ++Faults;
  }
  EXPECT_EQ(Faults, R.InvalidPoints) << GetParam();
  int PerKindSum = 0;
  for (int K = 1; K < NumFailureKinds; ++K)
    PerKindSum += R.FailureCounts[static_cast<size_t>(K)];
  EXPECT_EQ(PerKindSum, R.InvalidPoints) << GetParam();

  // The winning point is clean and its metric is the victim's reported
  // time, parsed from real subprocess output.
  EXPECT_EQ(modeFor(R.Best, Seed), VictimMode::Clean) << GetParam();
  EXPECT_NEAR(R.BestMetric, victimMetric(R.Best), 1e-9) << GetParam();

  // Fault injection never changes the seeded best point: the same searcher
  // over the always-clean objective (same metric) agrees wherever it
  // explores a superset — both must at least agree when the faulty run
  // already found the global optimum.
  LambdaObjective CleanObj(LambdaObjective::OutcomeFn(
      [](const Point &P) { return EvalOutcome::success(victimMetric(P)); }));
  SearchResult CleanR = makeSearcher(GetParam())->search(S, CleanObj, Opts);
  ASSERT_TRUE(CleanR.Found) << GetParam();
  EXPECT_LE(CleanR.BestMetric, R.BestMetric + 1e-12) << GetParam();

  // No orphaned victims: everything the search spawned is gone.
  // (Processes are reaped synchronously by runSubprocess; a leak would be
  // a hang in one of the assessments above.)
}

INSTANTIATE_TEST_SUITE_P(AllSearchers, SubprocessFaultSurvival,
                         ::testing::Values("exhaustive", "random", "hillclimb",
                                           "de", "bandit", "tpe"),
                         [](const ::testing::TestParamInfo<const char *> &I) {
                           return std::string(I.param);
                         });

TEST(SubprocessFaults, ExhaustiveFindsCleanOptimumAndJobsParity) {
  // Exhaustive over the whole 96-point space: the best point must be the
  // global optimum (seeded clean), identical with and without faults, and
  // identical between --jobs 1 and --jobs 4 (concurrent sandboxed
  // measurements commit in proposal order).
  Space S = victimSpace();
  uint64_t Seed = cleanOptimumSeed(S);

  SearchOptions Opts;
  Opts.MaxEvaluations = 96;
  Opts.Seed = 3;

  SandboxedVictimObjective Serial(Seed);
  SearchResult R1 = makeSearcher("exhaustive")->search(S, Serial, Opts);

  SearchOptions POpts = Opts;
  POpts.Jobs = 4;
  SandboxedVictimObjective Parallel(Seed);
  SearchResult R4 = makeSearcher("exhaustive")->search(S, Parallel, POpts);

  LambdaObjective CleanObj(LambdaObjective::OutcomeFn(
      [](const Point &P) { return EvalOutcome::success(victimMetric(P)); }));
  SearchResult RC = makeSearcher("exhaustive")->search(S, CleanObj, Opts);

  ASSERT_TRUE(R1.Found);
  ASSERT_TRUE(R4.Found);
  ASSERT_TRUE(RC.Found);
  EXPECT_EQ(R1.Best.key(), RC.Best.key())
      << "faults changed the best point";
  EXPECT_EQ(R1.Best.key(), R4.Best.key()) << "jobs changed the best point";
  EXPECT_EQ(R1.FailureCounts, R4.FailureCounts);
  EXPECT_EQ(R1.Evaluations, R4.Evaluations);
  EXPECT_GT(R4.PooledEvaluations, 0);
  EXPECT_EQ(R1.Best.getInt("a"), 16);
  EXPECT_EQ(R1.Best.getInt("b"), 7);
}

//===----------------------------------------------------------------------===//
// classifyNativeRun: the evaluator-facing classification (no compiler)
//===----------------------------------------------------------------------===//

TEST(SubprocessClassify, RunPhaseMapping) {
  using eval::classifyNativeRun;
  {
    SubprocessResult R = runSubprocess(victim({"metric", "0.5", "3.0"}));
    eval::NativeResult N = classifyNativeRun(R);
    ASSERT_TRUE(N.Ok) << N.Error;
    EXPECT_EQ(N.Failure, FailureKind::None);
    EXPECT_DOUBLE_EQ(N.Seconds, 0.5);
    EXPECT_DOUBLE_EQ(N.Checksum, 3.0);
  }
  {
    SubprocessOptions Opts = victim({"hang", "3600"});
    Opts.Limits.WallClockSeconds = 0.2;
    Opts.Limits.TermGraceSeconds = 0.1;
    eval::NativeResult N = classifyNativeRun(runSubprocess(Opts));
    EXPECT_FALSE(N.Ok);
    EXPECT_EQ(N.Failure, FailureKind::BudgetExceeded);
    EXPECT_NE(N.Error.find("timed out"), std::string::npos) << N.Error;
  }
  {
    eval::NativeResult N = classifyNativeRun(runSubprocess(victim({"segv"})));
    EXPECT_EQ(N.Failure, FailureKind::RuntimeTrap);
    EXPECT_NE(N.Error.find("SIGSEGV"), std::string::npos) << N.Error;
  }
  {
    eval::NativeResult N =
        classifyNativeRun(runSubprocess(victim({"exit", "9"})));
    EXPECT_EQ(N.Failure, FailureKind::RuntimeTrap);
    EXPECT_NE(N.Error.find("status 9"), std::string::npos) << N.Error;
  }
  {
    eval::NativeResult N =
        classifyNativeRun(runSubprocess(victim({"garbage"})));
    EXPECT_EQ(N.Failure, FailureKind::MetricUnstable);
    EXPECT_NE(N.Error.find("malformed run output"), std::string::npos)
        << N.Error;
  }
  {
    // Output past the capture cap cannot be validated -> unstable.
    SubprocessOptions Opts = victim({"spew", "100000"});
    Opts.Limits.MaxCaptureBytes = 512;
    eval::NativeResult N = classifyNativeRun(runSubprocess(Opts));
    EXPECT_EQ(N.Failure, FailureKind::MetricUnstable);
  }
}

} // namespace
} // namespace locus
