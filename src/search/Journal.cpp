//===- Journal.cpp - Crash-safe search journal ----------------------------===//

#include "src/search/Journal.h"

#include "src/search/PointCodec.h"
#include "src/support/Hashing.h"
#include "src/support/RecordCodec.h"

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

#include <fcntl.h>
#include <unistd.h>

namespace locus {
namespace search {

namespace {

using support::hex16;

/// What the file is, judged by its first bytes.
enum class FileFormat {
  Missing,   ///< ENOENT or empty
  RecordLog, ///< starts with the RecordLog magic
  LegacyJsonl, ///< starts with '{' — a v1 journal line
  Unknown,
};

FileFormat sniffFormat(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return FileFormat::Missing;
  char Buf[8] = {};
  In.read(Buf, sizeof(Buf));
  std::streamsize N = In.gcount();
  if (N <= 0)
    return FileFormat::Missing;
  // A short prefix of the magic is still "record log" (a torn header file
  // that RecordLog::open knows how to rebuild).
  if (std::memcmp(Buf, "LOCRLOG1", static_cast<size_t>(N) < 8
                                       ? static_cast<size_t>(N)
                                       : 8) == 0)
    return FileFormat::RecordLog;
  if (Buf[0] == '{')
    return FileFormat::LegacyJsonl;
  return FileFormat::Unknown;
}

/// Atomically replaces \p Path with \p Image: temp file in the same
/// directory, fsync, rename, fsync the directory. Used by the one-time
/// v1 -> v2 migration so a crash leaves either the old journal or the new.
Status writeFileAtomic(const std::string &Path, const std::string &Image) {
  std::string Tmp = Path + ".migrate-tmp";
  int Fd = ::open(Tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (Fd < 0)
    return Status::error("cannot create " + Tmp + ": " + std::strerror(errno));
  size_t Done = 0;
  while (Done < Image.size()) {
    ssize_t N = ::write(Fd, Image.data() + Done, Image.size() - Done);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      break;
    Done += static_cast<size_t>(N);
  }
  bool Ok = Done == Image.size() && ::fsync(Fd) == 0;
  ::close(Fd);
  if (!Ok) {
    ::unlink(Tmp.c_str());
    return Status::error("cannot write " + Tmp + ": " + std::strerror(errno));
  }
  if (::rename(Tmp.c_str(), Path.c_str()) != 0) {
    ::unlink(Tmp.c_str());
    return Status::error("cannot rename " + Tmp + " over " + Path + ": " +
                         std::strerror(errno));
  }
  size_t Slash = Path.find_last_of('/');
  std::string Dir = Slash == std::string::npos
                        ? "."
                        : (Slash == 0 ? "/" : Path.substr(0, Slash));
  int DirFd = ::open(Dir.c_str(), O_RDONLY | O_CLOEXEC);
  if (DirFd >= 0) {
    (void)::fsync(DirFd);
    ::close(DirFd);
  }
  return Status::success();
}

/// Builds the single actionable --resume refusal for a header that does not
/// match the current run. The header payload starts at byte 16 (magic 8 +
/// length 4 + CRC 4) of the journal file.
std::string headerMismatchError(const std::string &Path,
                                const JournalHeader &OnDisk,
                                const JournalHeader &Expect) {
  if (OnDisk.SpaceFingerprint != Expect.SpaceFingerprint)
    return "journal " + Path +
           " was written for a different search space (journal header at "
           "byte 16 has space fingerprint 0x" +
           hex16(OnDisk.SpaceFingerprint) + ", this run's space is 0x" +
           hex16(Expect.SpaceFingerprint) +
           "): resuming would replay points into the wrong space; remove "
           "the journal or rerun with the original program";
  return "journal " + Path +
         " was written by a different search configuration (journal header "
         "at byte 16 has config digest 0x" +
         hex16(OnDisk.ConfigDigest) + ", this run's is 0x" +
         hex16(Expect.ConfigDigest) +
         "): searcher or seed changed since the journal was written; remove "
         "the journal or rerun with the original --searcher/--seed";
}

} // namespace

JournalSync parseJournalSync(std::string_view Name, bool &Ok) {
  Ok = true;
  if (Name == "flush")
    return JournalSync::Flush;
  if (Name == "full")
    return JournalSync::Full;
  Ok = false;
  return JournalSync::Full;
}

uint64_t journalConfigDigest(std::string_view SearcherName, uint64_t Seed) {
  return hashCombine(fnv1a(SearcherName), Seed);
}

std::string SearchJournal::encodeHeader(const JournalHeader &H) {
  return support::encodeRunHeader(JournalHeaderTag, H);
}

bool SearchJournal::parseHeader(std::string_view Text, JournalHeader &H) {
  return support::parseRunHeader(JournalHeaderTag, Text, H);
}

Expected<SearchJournal>
SearchJournal::open(const std::string &Path, JournalSync Sync,
                    const JournalHeader &Header,
                    const std::vector<EvalRecord> *MigrateRecords) {
  FileFormat Format = sniffFormat(Path);
  if (Format == FileFormat::LegacyJsonl) {
    if (!MigrateRecords)
      return Expected<SearchJournal>::error(
          "journal " + Path +
          " is in the legacy v1 (JSONL) format; resume from it (which "
          "migrates it to the checksummed v2 format) or remove it");
    // One-time migration: rewrite the whole journal in v2 framing with the
    // records the caller already loaded, atomically.
    std::string Image =
        support::RecordLog::encodeHeaderBlock(encodeHeader(Header));
    for (const EvalRecord &R : *MigrateRecords)
      Image += support::RecordLog::encodeFrame(encodeLine(R));
    if (Status S = writeFileAtomic(Path, Image); !S.ok())
      return Expected<SearchJournal>::error("cannot migrate legacy journal: " +
                                            S.message());
  }

  support::RecordLogOptions Opts;
  Opts.Header = encodeHeader(Header);
  // Compared structurally for located diagnostics, not byte-wise.
  Opts.CheckHeader = [&](const std::string &Text) {
    JournalHeader OnDisk;
    if (!SearchJournal::parseHeader(Text, OnDisk))
      return Status::error("journal " + Path +
                           " has an unrecognized header (written by an "
                           "incompatible version?); remove it to start fresh");
    if (!(OnDisk == Header))
      return Status::error(headerMismatchError(Path, OnDisk, Header));
    return Status::success();
  };
  Opts.FsyncEachRecord = Sync == JournalSync::Full;
  Expected<support::RecordLog> Log = support::RecordLog::open(Path, Opts);
  if (!Log.ok())
    return Expected<SearchJournal>::error("cannot open journal: " +
                                          Log.message());
  SearchJournal J;
  J.Log = std::move(*Log);
  return J;
}

Status SearchJournal::append(const EvalRecord &R) {
  if (!Log.isOpen())
    return Status::error("journal is not open");
  return Log.append(encodeLine(R));
}

std::string SearchJournal::encodeLine(const EvalRecord &R) {
  support::RecordWriter W;
  W.str("point", serializePoint(R.P));
  support::putOutcome(W, R.Metric, R.Failure, R.Detail);
  return W.take();
}

Expected<EvalRecord> SearchJournal::decodeLine(const std::string &Line,
                                               const Space &S) {
  using E = Expected<EvalRecord>;
  Expected<support::RecordFields> F = support::RecordFields::parse(Line);
  if (!F.ok())
    return E::error("malformed journal record: " + F.message());
  std::string PointText;
  EvalOutcome Out;
  if (Status St = F->get("point", PointText); !St.ok())
    return E::error("journal record: " + St.message());
  if (Status St = support::getOutcome(*F, Out); !St.ok())
    return E::error("journal record: " + St.message());
  Expected<Point> P = deserializePoint(PointText, S);
  if (!P.ok())
    return E::error("journal point does not match space: " + P.message());

  EvalRecord R;
  R.P = std::move(*P);
  R.Metric = Out.Metric;
  R.Failure = Out.Failure;
  R.Detail = std::move(Out.Detail);
  return R;
}

Expected<SearchJournal::LoadResult>
SearchJournal::load(const std::string &Path, const Space &S,
                    const JournalHeader *Expect) {
  LoadResult Result;
  FileFormat Format = sniffFormat(Path);
  if (Format == FileFormat::Missing)
    return Result; // a missing journal is an empty journal

  if (Format == FileFormat::Unknown)
    return Expected<LoadResult>::error(
        "journal " + Path +
        ": bad magic at byte 0 — neither a v2 record log nor a v1 JSONL "
        "journal; was the path overwritten by another tool?");

  if (Format == FileFormat::RecordLog) {
    Expected<support::RecordLogScan> ScanOr = support::RecordLog::scan(Path);
    if (!ScanOr.ok())
      return Expected<LoadResult>::error("cannot load journal: " +
                                         ScanOr.message());
    support::RecordLogScan Scan = std::move(*ScanOr);
    if (Scan.MidFileCorruption)
      // Damage with intact records after it: silently resuming from the
      // prefix would replay a different (shorter) history than the run that
      // wrote the journal actually took. Refuse, with the location.
      return Expected<LoadResult>::error(
          "corrupt journal " + Path + ": " + Scan.Why +
          "; records after the damage cannot be trusted — remove the "
          "journal (or restore it from a copy) to proceed");
    if (!Scan.Header.empty()) {
      if (!parseHeader(Scan.Header, Result.Header))
        return Expected<LoadResult>::error(
            "journal " + Path +
            " has an unrecognized header (written by an incompatible "
            "version?); remove it to start fresh");
      if (Expect && !(Result.Header == *Expect))
        return Expected<LoadResult>::error(
            headerMismatchError(Path, Result.Header, *Expect));
    } else if (!Scan.TornTail) {
      return Expected<LoadResult>::error(
          "journal " + Path + " has an empty header; remove it to start "
          "fresh");
    }
    if (Scan.TornTail) {
      Result.DroppedTailLines = 1;
      Result.Warning = "recovered journal " + Path + ": " + Scan.Why +
                       "; dropped the record being written when the run "
                       "died and kept " +
                       std::to_string(Scan.Records.size()) +
                       " intact records";
    }
    for (size_t I = 0; I < Scan.Records.size(); ++I) {
      Expected<EvalRecord> R = decodeLine(Scan.Records[I], S);
      if (!R.ok())
        // The frame's CRC is intact, so this is not disk damage: the
        // journal belongs to another space or another version.
        return Expected<LoadResult>::error(
            "corrupt journal line: record " + std::to_string(I + 1) + " of " +
            Path + ": " + R.message());
      Result.Records.push_back(std::move(*R));
    }
    return Result;
  }

  // Legacy v1: plain JSONL, no header, no checksums. Loaded for migration;
  // the space-membership validation in decodeLine is the only check.
  Result.Legacy = true;
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return Expected<LoadResult>::error("cannot read journal " + Path);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  std::string Text = Buf.str();

  size_t Pos = 0;
  while (Pos < Text.size()) {
    size_t Nl = Text.find('\n', Pos);
    bool TornTail = Nl == std::string::npos;
    std::string Line =
        Text.substr(Pos, TornTail ? std::string::npos : Nl - Pos);
    Pos = TornTail ? Text.size() : Nl + 1;
    if (Line.empty())
      continue;
    Expected<EvalRecord> R = decodeLine(Line, S);
    if (!R.ok()) {
      // A line missing its terminating newline is the one the crashed
      // writer was in the middle of; discard it. Undecodable but complete
      // lines (including points from a different space) are real errors.
      if (TornTail) {
        Result.DroppedTailLines = 1;
        Result.Warning = "recovered legacy journal " + Path +
                         ": dropped a torn final line";
        break;
      }
      return Expected<LoadResult>::error("corrupt journal line: " +
                                         R.message());
    }
    Result.Records.push_back(std::move(*R));
  }
  return Result;
}

} // namespace search
} // namespace locus
