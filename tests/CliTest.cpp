//===- CliTest.cpp - locus_cli command-line contract ----------------------===//
//
// Runs the built locus_cli binary: option validation (every bad command
// line exits 2 naming the option, before any work), --point validation
// against the extracted space, and served-vs-local journal identity, which
// holds only when --serve forwards the objective's options to its workers.
//
//===----------------------------------------------------------------------===//

#include "src/support/RecordLog.h"
#include "src/support/Subprocess.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <sys/stat.h>

namespace locus {
namespace {

const char *ProgramText = R"(import "RoseLocus";
OptSeq Tiling2D() {
  tileI = poweroftwo(2..32);
  tileJ = poweroftwo(2..32);
  RoseLocus.Tiling(loop="0", factor=[tileI, tileJ]);
  return "2D";
}
CodeReg matmul {
  tiledim = 4;
  tiletype = Tiling2D();
  if (tiletype == "2D") {
    RoseLocus.Unroll(loop=innermost, factor=tiledim);
  }
}
)";

const char *KernelText = R"(#define M 24
#define N 24
#define K 24
double A[M][K]; double B[K][N]; double C[M][N];
int main() {
  int i, j, k;
#pragma @Locus loop=matmul
  for (i = 0; i < M; i++)
    for (j = 0; j < N; j++)
      for (k = 0; k < K; k++)
        C[i][j] = C[i][j] + A[i][k] * B[k][j];
  return 0;
}
)";

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

void writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream(Path, std::ios::binary) << Text;
}

bool exists(const std::string &Path) {
  struct stat St;
  return ::stat(Path.c_str(), &St) == 0;
}

/// A scratch directory holding the Locus program and the kernel.
class Cli : public ::testing::Test {
protected:
  void SetUp() override {
    ASSERT_TRUE(Dir.valid());
    writeFile(path("prog.locus"), ProgramText);
    writeFile(path("kernel.c"), KernelText);
  }

  std::string path(const std::string &Name) const {
    return Dir.path() + "/" + Name;
  }

  support::SubprocessResult run(const std::vector<std::string> &Args) const {
    support::SubprocessOptions Opts;
    Opts.Argv.push_back(LOCUS_CLI);
    Opts.Argv.insert(Opts.Argv.end(), Args.begin(), Args.end());
    Opts.WorkDir = Dir.path();
    Opts.Limits.WallClockSeconds = 120;
    return support::runSubprocess(Opts);
  }

  /// A search over the program and kernel with \p Extra options.
  support::SubprocessResult search(std::vector<std::string> Extra) const {
    std::vector<std::string> Args = {"prog.locus", "kernel.c"};
    Args.insert(Args.end(), Extra.begin(), Extra.end());
    return run(Args);
  }

  support::TempDir Dir{"locus-cli-"};
};

TEST_F(Cli, BadCommandLinesExitTwoNamingTheOption) {
  struct Case {
    std::vector<std::string> Args;
    std::string Option;
  };
  const std::vector<Case> Cases = {
      {{"prog.locus", "kernel.c", "--bogus"}, "--bogus"},
      {{"prog.locus", "kernel.c", "--budget"}, "--budget"},
      {{"prog.locus", "kernel.c", "--budget", "abc"}, "--budget"},
      {{"prog.locus", "kernel.c", "--budget", "12x"}, "--budget"},
      {{"prog.locus", "kernel.c", "--jobs", "0"}, "--jobs"},
      {{"prog.locus", "kernel.c", "--machine", "foo"}, "--machine"},
      {{"prog.locus", "kernel.c", "--journal-sync", "none"}, "--journal-sync"},
      {{"prog.locus", "kernel.c", "--seed", "-1"}, "--seed"},
      {{"prog.locus", "kernel.c", "--tune"}, "--tune"},
      {{"prog.locus", "kernel.c", "--workers", "2"}, "--workers"},
      {{"--bounds-check", "kernel.c", "--budget", "5"}, "--budget"},
      {{"--discover", "kernel.c", "--serve"}, "--serve"},
      // Search options shape only discover-and-tune.
      {{"--discover", "kernel.c", "--budget", "5", "--journal", "x.rlog"},
       "--budget"},
      {{"--discover", "kernel.c", "--discover-top", "1"}, "--discover-top"},
  };
  for (const Case &C : Cases) {
    SCOPED_TRACE(C.Args.back());
    support::SubprocessResult R = run(C.Args);
    EXPECT_EQ(R.Exit, support::SpawnExit::Exited) << R.describe();
    EXPECT_EQ(R.ExitCode, 2) << R.Stdout << R.Stderr;
    EXPECT_NE(R.Stderr.find(C.Option), std::string::npos) << R.Stderr;
    // Refused before any work: nothing was searched or printed.
    EXPECT_EQ(R.Stdout, "");
  }
}

TEST_F(Cli, DiscoverTuneTakesSearchOptions) {
  // The kernel without its pragma: discovery has a nest to annotate.
  std::string Plain = KernelText;
  size_t Pragma = Plain.find("#pragma");
  Plain.erase(Pragma, Plain.find("for (i") - Pragma);
  writeFile(path("plain.c"), Plain);
  support::SubprocessResult R =
      run({"--discover", "plain.c", "--tune", "--budget", "5", "--machine",
           "tiny", "--journal", "d.rlog"});
  ASSERT_TRUE(R.ok()) << R.describe() << R.Stderr;
  EXPECT_NE(R.Stdout.find("assessed 5"), std::string::npos) << R.Stdout;
}

TEST_F(Cli, EarlierFormatCacheDirDegradesWithOneWarning) {
  // A cache store as the tab-separated v1 format wrote it.
  ASSERT_EQ(::mkdir(path("cache").c_str(), 0755), 0);
  {
    support::RecordLogOptions LogOpts;
    LogOpts.Header = "locus-evalcache v1";
    auto Log = support::RecordLog::open(path("cache/evalcache.rlog"), LogOpts);
    ASSERT_TRUE(Log.ok()) << Log.message();
    ASSERT_TRUE(
        Log->append("0000000000000001\tfffffffffffffffe\tNone\t1\tp\t").ok());
  }
  support::SubprocessResult R =
      search({"--budget", "4", "--machine", "tiny", "--cache-dir", "cache"});
  ASSERT_TRUE(R.ok()) << R.describe() << R.Stderr;
  EXPECT_NE(R.Stdout.find("assessed"), std::string::npos) << R.Stdout;
  size_t First = R.Stderr.find("warning: persistent eval cache degraded");
  ASSERT_NE(First, std::string::npos) << R.Stderr;
  EXPECT_EQ(R.Stderr.find("warning:", First + 1), std::string::npos)
      << R.Stderr;
}

TEST_F(Cli, PointMissingAParameterIsRefusedWithoutJournaling) {
  support::SubprocessResult Export =
      search({"--budget", "2", "--export-point", "full.point"});
  ASSERT_TRUE(Export.ok()) << Export.describe() << Export.Stderr;
  std::string Point = readFile(path("full.point"));
  size_t FirstLineEnd = Point.find('\n');
  ASSERT_NE(FirstLineEnd, std::string::npos);
  ASSERT_NE(Point.find('\n', FirstLineEnd + 1), std::string::npos)
      << "the space should have two parameters: " << Point;
  writeFile(path("partial.point"), Point.substr(0, FirstLineEnd + 1));

  support::SubprocessResult Partial =
      search({"--point", "partial.point", "--journal", "tune.rlog"});
  EXPECT_EQ(Partial.ExitCode, 1) << Partial.Stdout << Partial.Stderr;
  EXPECT_NE(Partial.Stderr.find("does not pin"), std::string::npos)
      << Partial.Stderr;
  EXPECT_TRUE(!exists(path("tune.rlog")) ||
              readFile(path("tune.rlog")).empty());

  // The complete point applies directly: no search, so still no journal.
  support::SubprocessResult Full =
      search({"--point", "full.point", "--journal", "tune.rlog"});
  ASSERT_TRUE(Full.ok()) << Full.describe() << Full.Stderr;
  EXPECT_NE(Full.Stdout.find("direct variant"), std::string::npos);
  EXPECT_EQ(Full.Stdout.find("assessed"), std::string::npos) << Full.Stdout;
  EXPECT_FALSE(exists(path("tune.rlog")));
}

TEST_F(Cli, ServedTinyMachineJournalEqualsLocal) {
  const std::vector<std::string> Common = {"--budget", "16", "--machine",
                                           "tiny"};
  auto WithCommon = [&](std::vector<std::string> Extra) {
    Extra.insert(Extra.begin(), Common.begin(), Common.end());
    return Extra;
  };
  support::SubprocessResult Local = search(
      WithCommon({"--journal", "local.rlog", "--journal-sync", "flush"}));
  ASSERT_TRUE(Local.ok()) << Local.describe() << Local.Stderr;
  support::SubprocessResult Served =
      search(WithCommon({"--journal", "served.rlog", "--serve", "--queue-dir",
                         "queue", "--workers", "2"}));
  ASSERT_TRUE(Served.ok()) << Served.describe() << Served.Stderr;
  EXPECT_NE(Served.Stdout.find("from workers"), std::string::npos)
      << Served.Stdout;
  // Managed workers take their graceful exit and print their summary.
  for (int Slot : {0, 1}) {
    std::string Log =
        readFile(path("queue/worker-" + std::to_string(Slot) + ".log"));
    EXPECT_NE(Log.find("task(s) evaluated"), std::string::npos)
        << "worker-" << Slot << ".log: " << Log;
  }

  std::string LocalBytes = readFile(path("local.rlog"));
  ASSERT_FALSE(LocalBytes.empty());
  EXPECT_EQ(LocalBytes, readFile(path("served.rlog")));

  // The machine model shows in the journal, so a worker that fell back to
  // the default (xeon) machine would have been caught above.
  support::SubprocessResult Xeon =
      search({"--budget", "16", "--journal", "xeon.rlog"});
  ASSERT_TRUE(Xeon.ok()) << Xeon.describe() << Xeon.Stderr;
  EXPECT_NE(LocalBytes, readFile(path("xeon.rlog")));
}

} // namespace
} // namespace locus
