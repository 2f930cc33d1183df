//===- RecordLogTest.cpp - Crash-safe record-file substrate tests -------------===//
//
// Framing round-trips, every recovery edge the torture harness relies on
// (empty file, header-only, torn header, torn record, flipped bytes,
// mid-file corruption, leftover compaction temp), compaction, and the
// multi-process/thread locking contract of support::RecordLog.
//
//===----------------------------------------------------------------------===//

#include "src/support/RecordLog.h"
#include "src/support/Subprocess.h"

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <sys/resource.h>
#include <sys/stat.h>
#include <thread>
#include <unistd.h>

namespace locus {
namespace {

using support::RecordLog;
using support::RecordLogOptions;
using support::RecordLogScan;

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

void writeFile(const std::string &Path, const std::string &Data) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out << Data;
}

bool fileExists(const std::string &Path) {
  struct stat St;
  return ::stat(Path.c_str(), &St) == 0;
}

struct LogFixture {
  support::TempDir Dir{"locus-rlog-"};
  std::string Path = Dir.path() + "/test.rlog";
};

TEST(RecordLog, Crc32cKnownVectors) {
  // The iSCSI test vector: CRC-32C of "123456789".
  EXPECT_EQ(support::crc32c("123456789"), 0xe3069283u);
  EXPECT_EQ(support::crc32c(""), 0u);
  // Seeding chains: crc(a+b) == crc(b, seeded with crc(a)).
  EXPECT_EQ(support::crc32c("123456789"),
            support::crc32c("456789", support::crc32c("123")));
}

TEST(RecordLog, AppendScanRoundTrip) {
  LogFixture F;
  RecordLogOptions Opts;
  Opts.Header = "hdr v1";
  {
    auto Log = RecordLog::open(F.Path, Opts);
    ASSERT_TRUE(Log.ok()) << Log.message();
    EXPECT_TRUE(Log->append("alpha").ok());
    EXPECT_TRUE(Log->append("").ok()); // empty payloads are legal records
    std::string Binary("\x00\x01\xff\n\r", 5);
    EXPECT_TRUE(Log->append(Binary).ok());
  }
  auto Scan = RecordLog::scan(F.Path);
  ASSERT_TRUE(Scan.ok()) << Scan.message();
  EXPECT_EQ(Scan->Header, "hdr v1");
  ASSERT_EQ(Scan->Records.size(), 3u);
  EXPECT_EQ(Scan->Records[0], "alpha");
  EXPECT_EQ(Scan->Records[1], "");
  EXPECT_EQ(Scan->Records[2], std::string("\x00\x01\xff\n\r", 5));
  EXPECT_FALSE(Scan->TornTail);
  EXPECT_FALSE(Scan->MidFileCorruption);
  EXPECT_EQ(Scan->GoodBytes, readFile(F.Path).size());
}

TEST(RecordLog, MissingFileScansEmptyAndHeaderMismatchIsAnError) {
  LogFixture F;
  auto Scan = RecordLog::scan(F.Path);
  ASSERT_TRUE(Scan.ok());
  EXPECT_TRUE(Scan->Records.empty());

  RecordLogOptions A;
  A.Header = "app A";
  { auto Log = RecordLog::open(F.Path, A); ASSERT_TRUE(Log.ok()); }
  RecordLogOptions B;
  B.Header = "app B";
  auto Mismatch = RecordLog::open(F.Path, B);
  EXPECT_FALSE(Mismatch.ok());
  B.CheckHeader = [](const std::string &) { return Status::success(); };
  auto Tolerant = RecordLog::open(F.Path, B);
  EXPECT_TRUE(Tolerant.ok()) << Tolerant.message();
}

TEST(RecordLog, EmptyFileIsInitializedLikeAMissingOne) {
  LogFixture F;
  writeFile(F.Path, "");
  RecordLogOptions Opts;
  Opts.Header = "h";
  auto Log = RecordLog::open(F.Path, Opts);
  ASSERT_TRUE(Log.ok()) << Log.message();
  EXPECT_TRUE(Log->append("r").ok());
  auto Scan = RecordLog::scan(F.Path);
  ASSERT_TRUE(Scan.ok());
  EXPECT_EQ(Scan->Header, "h");
  EXPECT_EQ(Scan->Records.size(), 1u);
}

TEST(RecordLog, HeaderOnlyFileHasNoRecords) {
  LogFixture F;
  writeFile(F.Path, RecordLog::encodeHeaderBlock("only header"));
  auto Scan = RecordLog::scan(F.Path);
  ASSERT_TRUE(Scan.ok()) << Scan.message();
  EXPECT_EQ(Scan->Header, "only header");
  EXPECT_TRUE(Scan->Records.empty());
  EXPECT_FALSE(Scan->TornTail);
}

TEST(RecordLog, TornHeaderIsRecoverableTearing) {
  // A crash while writing the very first block leaves a prefix of the
  // prologue; open() must rebuild the file rather than error out.
  LogFixture F;
  std::string Block = RecordLog::encodeHeaderBlock("the header");
  writeFile(F.Path, Block.substr(0, Block.size() / 2));
  RecordLogOptions Opts;
  Opts.Header = "the header";
  RecordLogScan Recovery;
  auto Log = RecordLog::open(F.Path, Opts, &Recovery);
  ASSERT_TRUE(Log.ok()) << Log.message();
  EXPECT_TRUE(Recovery.TornTail);
  EXPECT_TRUE(Log->append("after recovery").ok());
  auto Scan = RecordLog::scan(F.Path);
  ASSERT_TRUE(Scan.ok());
  EXPECT_EQ(Scan->Header, "the header");
  ASSERT_EQ(Scan->Records.size(), 1u);
  EXPECT_EQ(Scan->Records[0], "after recovery");
}

TEST(RecordLog, GarbageFileIsBadMagic) {
  LogFixture F;
  writeFile(F.Path, "this is not a record log at all, not even close\n");
  auto Scan = RecordLog::scan(F.Path);
  ASSERT_FALSE(Scan.ok());
  EXPECT_NE(Scan.message().find("bad magic at byte 0"), std::string::npos)
      << Scan.message();
  RecordLogOptions Opts;
  auto Log = RecordLog::open(F.Path, Opts);
  EXPECT_FALSE(Log.ok());
}

TEST(RecordLog, TornTailAtEveryTruncationPointRecoversThePrefix) {
  // Truncate a 3-record file at every byte inside the last frame: the scan
  // must flag a torn tail and keep exactly the first two records; open()
  // must amputate the tail and leave an appendable log.
  LogFixture F;
  RecordLogOptions Opts;
  Opts.Header = "h";
  {
    auto Log = RecordLog::open(F.Path, Opts);
    ASSERT_TRUE(Log.ok());
    ASSERT_TRUE(Log->append("one").ok());
    ASSERT_TRUE(Log->append("two").ok());
    ASSERT_TRUE(Log->append("three").ok());
  }
  std::string Full = readFile(F.Path);
  uint64_t LastFrame = Full.size() - RecordLog::encodeFrame("three").size();
  for (uint64_t Cut = LastFrame + 1; Cut < Full.size(); ++Cut) {
    writeFile(F.Path, Full.substr(0, Cut));
    auto Scan = RecordLog::scan(F.Path);
    ASSERT_TRUE(Scan.ok()) << "cut at " << Cut << ": " << Scan.message();
    EXPECT_TRUE(Scan->TornTail) << "cut at " << Cut;
    EXPECT_FALSE(Scan->MidFileCorruption) << "cut at " << Cut;
    EXPECT_EQ(Scan->TornOffset, LastFrame) << "cut at " << Cut;
    ASSERT_EQ(Scan->Records.size(), 2u) << "cut at " << Cut;
  }
  // Recovery truncates and the log keeps working.
  writeFile(F.Path, Full.substr(0, Full.size() - 2));
  RecordLogScan Recovery;
  auto Log = RecordLog::open(F.Path, Opts, &Recovery);
  ASSERT_TRUE(Log.ok()) << Log.message();
  EXPECT_TRUE(Recovery.TornTail);
  EXPECT_TRUE(Log->append("three-again").ok());
  auto Scan = RecordLog::scan(F.Path);
  ASSERT_TRUE(Scan.ok());
  ASSERT_EQ(Scan->Records.size(), 3u);
  EXPECT_EQ(Scan->Records[2], "three-again");
}

TEST(RecordLog, FlippedByteBeforeTailIsMidFileCorruption) {
  LogFixture F;
  RecordLogOptions Opts;
  Opts.Header = "h";
  {
    auto Log = RecordLog::open(F.Path, Opts);
    ASSERT_TRUE(Log.ok());
    ASSERT_TRUE(Log->append("record-one").ok());
    ASSERT_TRUE(Log->append("record-two").ok());
  }
  std::string Full = readFile(F.Path);
  uint64_t FirstFrame = RecordLog::headerBlockSize(1); // header "h"
  // Flip one payload byte of the first record (past its 8-byte frame
  // prologue) while the second record stays intact behind it.
  std::string Bad = Full;
  Bad[FirstFrame + 8 + 3] ^= 0x40;
  writeFile(F.Path, Bad);
  auto Scan = RecordLog::scan(F.Path);
  ASSERT_TRUE(Scan.ok()) << Scan.message();
  EXPECT_TRUE(Scan->TornTail);
  EXPECT_TRUE(Scan->MidFileCorruption);
  EXPECT_EQ(Scan->TornOffset, FirstFrame);
  EXPECT_NE(Scan->Why.find("CRC mismatch"), std::string::npos) << Scan->Why;
  EXPECT_TRUE(Scan->Records.empty()); // nothing before the damage survives
}

TEST(RecordLog, CorruptFinalRecordIsTearingNotRot) {
  // Damage confined to the very last complete frame cannot be told apart
  // from a crashed writer that got the full length down with garbage in
  // it, so it classifies as recoverable tearing — only damage with intact
  // data *behind* it is flagged as mid-file corruption.
  LogFixture F;
  RecordLogOptions Opts;
  Opts.Header = "h";
  {
    auto Log = RecordLog::open(F.Path, Opts);
    ASSERT_TRUE(Log.ok());
    ASSERT_TRUE(Log->append("solo").ok());
  }
  std::string Full = readFile(F.Path);
  Full[Full.size() - 1] ^= 0x01;
  writeFile(F.Path, Full);
  auto Scan = RecordLog::scan(F.Path);
  ASSERT_TRUE(Scan.ok());
  EXPECT_TRUE(Scan->TornTail);
  EXPECT_FALSE(Scan->MidFileCorruption);
  EXPECT_NE(Scan->Why.find("corrupt final record"), std::string::npos)
      << Scan->Why;
  EXPECT_TRUE(Scan->Records.empty());
}

TEST(RecordLog, CompactionRewritesAndLeftoverTempIsRemoved) {
  LogFixture F;
  RecordLogOptions Opts;
  Opts.Header = "h";
  auto Log = RecordLog::open(F.Path, Opts);
  ASSERT_TRUE(Log.ok());
  for (int I = 0; I < 10; ++I)
    ASSERT_TRUE(Log->append("record " + std::to_string(I)).ok());
  uint64_t Before = readFile(F.Path).size();
  ASSERT_TRUE(Log->compact({"kept-a", "kept-b"}).ok());
  EXPECT_LT(readFile(F.Path).size(), Before);
  // The same writer keeps appending to the new inode.
  ASSERT_TRUE(Log->append("post-compact").ok());
  auto Scan = RecordLog::scan(F.Path);
  ASSERT_TRUE(Scan.ok());
  EXPECT_EQ(Scan->Header, "h");
  ASSERT_EQ(Scan->Records.size(), 3u);
  EXPECT_EQ(Scan->Records[0], "kept-a");
  EXPECT_EQ(Scan->Records[2], "post-compact");

  // A compactor that crashed after writing its temp but before the rename
  // leaves <path>.compact-tmp; reopening removes it and trusts the live
  // file.
  Log->close();
  std::string Tmp = F.Path + ".compact-tmp";
  writeFile(Tmp, "half-written compaction");
  auto Reopened = RecordLog::open(F.Path, Opts);
  ASSERT_TRUE(Reopened.ok()) << Reopened.message();
  EXPECT_FALSE(fileExists(Tmp));
  auto Scan2 = RecordLog::scan(F.Path);
  ASSERT_TRUE(Scan2.ok());
  EXPECT_EQ(Scan2->Records.size(), 3u);
}

TEST(RecordLog, SecondWriterSeesCompactedFile) {
  // Writer A compacts while writer B holds an fd to the old inode; B's next
  // append must land in the new file, not the unlinked one.
  LogFixture F;
  RecordLogOptions Opts;
  Opts.Header = "h";
  auto A = RecordLog::open(F.Path, Opts);
  ASSERT_TRUE(A.ok());
  ASSERT_TRUE(A->append("a1").ok());
  auto B = RecordLog::open(F.Path, Opts);
  ASSERT_TRUE(B.ok());
  ASSERT_TRUE(A->compact({"compacted"}).ok());
  ASSERT_TRUE(B->append("b-after-compaction").ok());
  auto Scan = RecordLog::scan(F.Path);
  ASSERT_TRUE(Scan.ok());
  ASSERT_EQ(Scan->Records.size(), 2u);
  EXPECT_EQ(Scan->Records[0], "compacted");
  EXPECT_EQ(Scan->Records[1], "b-after-compaction");
}

TEST(RecordLog, ScanFromReadsOnlyWhatWasAppendedSinceTheCursor) {
  LogFixture F;
  RecordLogOptions Opts;
  Opts.Header = "h";
  auto Log = RecordLog::open(F.Path, Opts);
  ASSERT_TRUE(Log.ok());
  ASSERT_TRUE(Log->append("r0").ok());
  ASSERT_TRUE(Log->append("r1").ok());

  support::RecordLogCursor Cursor;
  auto First = RecordLog::scanFrom(F.Path, Cursor);
  ASSERT_TRUE(First.ok()) << First.message();
  EXPECT_TRUE(First->Restarted); // a fresh cursor reads from the header
  EXPECT_EQ(First->Header, "h");
  ASSERT_EQ(First->Records.size(), 2u);
  EXPECT_EQ(Cursor.Offset, readFile(F.Path).size());

  ASSERT_TRUE(Log->append("r2").ok());
  ASSERT_TRUE(Log->append("r3").ok());
  auto Next = RecordLog::scanFrom(F.Path, Cursor);
  ASSERT_TRUE(Next.ok()) << Next.message();
  EXPECT_FALSE(Next->Restarted);
  ASSERT_EQ(Next->Records.size(), 2u);
  EXPECT_EQ(Next->Records[0], "r2");
  EXPECT_EQ(Next->Records[1], "r3");
  EXPECT_EQ(Cursor.Offset, readFile(F.Path).size());

  auto Nothing = RecordLog::scanFrom(F.Path, Cursor);
  ASSERT_TRUE(Nothing.ok());
  EXPECT_FALSE(Nothing->Restarted);
  EXPECT_TRUE(Nothing->Records.empty());

  // A half-written frame stops the resumed read where a full scan stops;
  // once an open amputates it, the cursor resumes at the same record.
  std::string Frame = RecordLog::encodeFrame("torn");
  std::ofstream(F.Path, std::ios::binary | std::ios::app)
      << Frame.substr(0, Frame.size() / 2);
  uint64_t Before = Cursor.Offset;
  auto Torn = RecordLog::scanFrom(F.Path, Cursor);
  ASSERT_TRUE(Torn.ok());
  EXPECT_TRUE(Torn->TornTail);
  EXPECT_EQ(Torn->TornOffset, Before);
  EXPECT_TRUE(Torn->Records.empty());
  EXPECT_EQ(Cursor.Offset, Before);
  Log->close();
  auto Reopened = RecordLog::open(F.Path, Opts);
  ASSERT_TRUE(Reopened.ok()) << Reopened.message();
  ASSERT_TRUE(Reopened->append("r4").ok());
  auto After = RecordLog::scanFrom(F.Path, Cursor);
  ASSERT_TRUE(After.ok());
  EXPECT_FALSE(After->Restarted);
  ASSERT_EQ(After->Records.size(), 1u);
  EXPECT_EQ(After->Records[0], "r4");
}

TEST(RecordLog, ScanFromRestartsOnAReplacedOrShortenedFile) {
  LogFixture F;
  RecordLogOptions Opts;
  Opts.Header = "h";
  auto Log = RecordLog::open(F.Path, Opts);
  ASSERT_TRUE(Log.ok());
  for (int I = 0; I < 4; ++I)
    ASSERT_TRUE(Log->append("record " + std::to_string(I)).ok());
  support::RecordLogCursor Cursor;
  ASSERT_TRUE(RecordLog::scanFrom(F.Path, Cursor).ok());

  // Compaction renames a new inode over the path: read it from the start.
  ASSERT_TRUE(Log->compact({"kept-a", "kept-b"}).ok());
  auto Compacted = RecordLog::scanFrom(F.Path, Cursor);
  ASSERT_TRUE(Compacted.ok()) << Compacted.message();
  EXPECT_TRUE(Compacted->Restarted);
  EXPECT_EQ(Compacted->Header, "h");
  ASSERT_EQ(Compacted->Records.size(), 2u);
  EXPECT_EQ(Compacted->Records[0], "kept-a");

  // Same inode, but shorter than the cursor (an open amputated damage the
  // reader had already passed): read it from the start too.
  ASSERT_TRUE(Log->append("kept-c").ok());
  ASSERT_TRUE(RecordLog::scanFrom(F.Path, Cursor).ok());
  uint64_t Size = readFile(F.Path).size();
  ASSERT_EQ(::truncate(F.Path.c_str(), static_cast<off_t>(Size - 1)), 0);
  auto Shortened = RecordLog::scanFrom(F.Path, Cursor);
  ASSERT_TRUE(Shortened.ok()) << Shortened.message();
  EXPECT_TRUE(Shortened->Restarted);
  ASSERT_EQ(Shortened->Records.size(), 2u);
  EXPECT_TRUE(Shortened->TornTail);

  // A removed file reads as empty and forgets the cursor.
  ASSERT_EQ(::unlink(F.Path.c_str()), 0);
  auto Missing = RecordLog::scanFrom(F.Path, Cursor);
  ASSERT_TRUE(Missing.ok());
  EXPECT_TRUE(Missing->Records.empty());
  EXPECT_EQ(Cursor.Offset, 0u);
}

TEST(RecordLog, ConcurrentAppendersNeverTearFrames) {
  // Two open writers, four threads, interleaved appends: every record must
  // scan back intact (frame atomicity under the in-process mutex + flock).
  LogFixture F;
  RecordLogOptions Opts;
  Opts.Header = "h";
  auto A = RecordLog::open(F.Path, Opts);
  auto B = RecordLog::open(F.Path, Opts);
  ASSERT_TRUE(A.ok());
  ASSERT_TRUE(B.ok());
  constexpr int PerThread = 25;
  auto Pump = [PerThread](RecordLog &Log, const std::string &Tag) {
    for (int I = 0; I < PerThread; ++I)
      ASSERT_TRUE(Log.append(Tag + ":" + std::to_string(I) +
                             std::string(64, 'x')).ok());
  };
  std::thread T1(Pump, std::ref(*A), "a1"), T2(Pump, std::ref(*A), "a2");
  std::thread T3(Pump, std::ref(*B), "b1"), T4(Pump, std::ref(*B), "b2");
  T1.join(); T2.join(); T3.join(); T4.join();
  auto Scan = RecordLog::scan(F.Path);
  ASSERT_TRUE(Scan.ok()) << Scan.message();
  EXPECT_FALSE(Scan->TornTail);
  ASSERT_EQ(Scan->Records.size(), 4u * PerThread);
  int Counts[4] = {0, 0, 0, 0};
  for (const std::string &R : Scan->Records) {
    if (R.compare(0, 3, "a1:") == 0) ++Counts[0];
    else if (R.compare(0, 3, "a2:") == 0) ++Counts[1];
    else if (R.compare(0, 3, "b1:") == 0) ++Counts[2];
    else if (R.compare(0, 3, "b2:") == 0) ++Counts[3];
  }
  for (int C : Counts)
    EXPECT_EQ(C, PerThread);
}

TEST(RecordLog, DiskFullAmputatesThePartialFrameAndRecovers) {
  // RLIMIT_FSIZE makes writes past the cap fail with EFBIG (SIGXFSZ
  // ignored): append() must report the error, amputate any partial frame,
  // and leave the on-disk log scanning clean.
  if (!support::rlimitsSupported())
    GTEST_SKIP() << "setrlimit unavailable";
  LogFixture F;
  RecordLogOptions Opts;
  Opts.Header = "h";
  auto Log = RecordLog::open(F.Path, Opts);
  ASSERT_TRUE(Log.ok());
  ASSERT_TRUE(Log->append("fits").ok());
  uint64_t Size = readFile(F.Path).size();

  struct sigaction Old, Ign;
  std::memset(&Ign, 0, sizeof(Ign));
  Ign.sa_handler = SIG_IGN;
  ASSERT_EQ(::sigaction(SIGXFSZ, &Ign, &Old), 0);
  struct rlimit OldLim;
  ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &OldLim), 0);
  struct rlimit Cap = OldLim;
  Cap.rlim_cur = Size + 6; // room for part of the next frame, not all of it
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &Cap), 0);

  Status Blocked = Log->append(std::string(128, 'z'));
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &OldLim), 0);
  ASSERT_EQ(::sigaction(SIGXFSZ, &Old, nullptr), 0);

  EXPECT_FALSE(Blocked.ok());
  auto Scan = RecordLog::scan(F.Path);
  ASSERT_TRUE(Scan.ok()) << Scan.message();
  EXPECT_FALSE(Scan->TornTail) << Scan->Why;
  ASSERT_EQ(Scan->Records.size(), 1u);
  EXPECT_EQ(Scan->Records[0], "fits");
  // With the limit lifted the same writer appends successfully again.
  EXPECT_TRUE(Log->append("after the squeeze").ok());
  auto Scan2 = RecordLog::scan(F.Path);
  ASSERT_TRUE(Scan2.ok());
  EXPECT_EQ(Scan2->Records.size(), 2u);
}

} // namespace
} // namespace locus
