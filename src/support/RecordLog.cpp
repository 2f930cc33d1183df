//===- RecordLog.cpp - Crash-safe append-only record file -----------------===//

#include "src/support/RecordLog.h"

#include "src/support/Posix.h"

#include <array>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

namespace locus {
namespace support {

namespace {

constexpr char Magic[8] = {'L', 'O', 'C', 'R', 'L', 'O', 'G', '1'};
constexpr uint64_t MagicSize = sizeof(Magic);
/// Records larger than this are implausible for any Locus payload; a length
/// field claiming more is treated as corruption, not a giant record.
constexpr uint32_t MaxRecordBytes = 1u << 30;
constexpr const char *CompactTmpSuffix = ".compact-tmp";

void putU32(std::string &Out, uint32_t V) {
  Out.push_back(static_cast<char>(V & 0xff));
  Out.push_back(static_cast<char>((V >> 8) & 0xff));
  Out.push_back(static_cast<char>((V >> 16) & 0xff));
  Out.push_back(static_cast<char>((V >> 24) & 0xff));
}

uint32_t getU32(std::string_view Data, uint64_t Pos) {
  return static_cast<uint32_t>(static_cast<unsigned char>(Data[Pos])) |
         static_cast<uint32_t>(static_cast<unsigned char>(Data[Pos + 1])) << 8 |
         static_cast<uint32_t>(static_cast<unsigned char>(Data[Pos + 2]))
             << 16 |
         static_cast<uint32_t>(static_cast<unsigned char>(Data[Pos + 3]))
             << 24;
}

std::string dirnameOf(const std::string &Path) {
  size_t Slash = Path.find_last_of('/');
  if (Slash == std::string::npos)
    return ".";
  if (Slash == 0)
    return "/";
  return Path.substr(0, Slash);
}

Status errnoStatus(const std::string &What, const std::string &Path) {
  return Status::error(What + " " + Path + ": " + std::strerror(errno));
}

int openLockFile(const std::string &Path) {
  return retryOpen((Path + ".lock").c_str(), O_RDWR | O_CREAT | O_CLOEXEC,
                   0644);
}

/// Blocking flock via the shared EINTR-safe wrapper; Fd < 0 is tolerated
/// (lockless degradation for readers on unwritable directories).
void flockRetry(int Fd, int Op) { (void)retryFlock(Fd, Op); }

bool writeAll(int Fd, const char *Data, size_t Size, size_t *Written) {
  return retryWriteAll(Fd, Data, Size, Written);
}

bool readWholeFd(int Fd, std::string &Out) {
  Out.clear();
  return retryReadToEnd(Fd, Out);
}

Status fsyncDirOf(const std::string &Path) {
  int Fd = retryOpen(dirnameOf(Path).c_str(), O_RDONLY | O_CLOEXEC);
  if (Fd < 0)
    return errnoStatus("cannot open directory of", Path);
  int Rc = ::fsync(Fd);
  ::close(Fd);
  if (Rc != 0)
    return errnoStatus("cannot fsync directory of", Path);
  return Status::success();
}

/// Crash-injection hook for the torture harness: LOCUS_RECORDLOG_CRASH_AT
/// = "N" or "N:B" SIGKILLs the process on the Nth append (0-based, counted
/// process-wide) after writing only B bytes of the frame (default: half),
/// simulating a machine dying mid-write at a chosen point. Parsed once; a
/// no-op when unset, so production runs pay one atomic increment.
struct CrashInjector {
  bool Armed = false;
  long AtAppend = -1;
  long PartialBytes = -1;
  std::atomic<long> Appends{0};

  CrashInjector() {
    const char *Spec = std::getenv("LOCUS_RECORDLOG_CRASH_AT");
    if (!Spec || !*Spec)
      return;
    char *End = nullptr;
    AtAppend = std::strtol(Spec, &End, 10);
    if (End && *End == ':')
      PartialBytes = std::strtol(End + 1, nullptr, 10);
    Armed = AtAppend >= 0;
  }

  /// Returns the number of frame bytes to write before dying, or -1 to
  /// proceed normally.
  long partialBytesForThisAppend(size_t FrameSize) {
    if (!Armed)
      return -1;
    long Index = Appends.fetch_add(1, std::memory_order_relaxed);
    if (Index != AtAppend)
      return -1;
    long Partial = PartialBytes >= 0 ? PartialBytes
                                     : static_cast<long>(FrameSize / 2);
    if (Partial > static_cast<long>(FrameSize))
      Partial = static_cast<long>(FrameSize);
    return Partial;
  }
};

CrashInjector &crashInjector() {
  static CrashInjector Injector;
  return Injector;
}

/// Parses the record frames of \p Data, which starts at file offset \p Base,
/// appending intact records to Scan and stopping at the first torn or
/// corrupt frame. Offsets in Scan are file offsets.
void parseFrames(std::string_view Data, uint64_t Base, RecordLogScan &Scan) {
  uint64_t Pos = 0;
  Scan.GoodBytes = Base;
  while (Pos < Data.size()) {
    uint64_t At = Base + Pos;
    if (Data.size() - Pos < 8) {
      Scan.TornTail = true;
      Scan.TornOffset = At;
      Scan.Why = "torn record frame at byte " + std::to_string(At) +
                 " (file ends inside the length prefix)";
      return;
    }
    uint32_t Len = getU32(Data, Pos);
    uint32_t Crc = getU32(Data, Pos + 4);
    if (Len > MaxRecordBytes) {
      Scan.TornTail = true;
      Scan.MidFileCorruption = true;
      Scan.TornOffset = At;
      Scan.Why = "record length field at byte " + std::to_string(At) +
                 " is implausible (" + std::to_string(Len) + " bytes)";
      return;
    }
    if (Data.size() - Pos - 8 < Len) {
      Scan.TornTail = true;
      Scan.TornOffset = At;
      Scan.Why = "torn record at byte " + std::to_string(At) +
                 " (frame claims " + std::to_string(Len) +
                 " payload bytes, file ends first)";
      return;
    }
    std::string_view Payload(Data.data() + Pos + 8, Len);
    if (crc32c(Payload) != Crc) {
      Scan.TornTail = true;
      // A complete frame whose checksum fails is damage, not a torn write.
      Scan.MidFileCorruption = Pos + 8 + Len < Data.size();
      Scan.TornOffset = At;
      Scan.Why = "record CRC mismatch at byte " + std::to_string(At) +
                 (Scan.MidFileCorruption ? " (mid-file corruption)"
                                         : " (corrupt final record)");
      return;
    }
    Scan.Records.emplace_back(Payload);
    Pos += 8 + Len;
    Scan.GoodBytes = Base + Pos;
  }
}

/// Parses a whole file image. Returns an error only for "this is not a
/// record log at all" (bad magic) and mid-prologue damage that cannot be
/// told apart from a foreign file; torn/corrupt data after a valid header
/// lands in the scan flags instead.
Expected<RecordLogScan> parseImage(const std::string &Data) {
  RecordLogScan Scan;
  if (Data.empty()) {
    Scan.TornTail = true; // an empty file has not even a header: rewrite it
    Scan.Why = "empty file";
    return Scan;
  }
  uint64_t Prefix = Data.size() < MagicSize ? Data.size() : MagicSize;
  if (std::memcmp(Data.data(), Magic, Prefix) != 0)
    return Expected<RecordLogScan>::error(
        "bad magic at byte 0: not a Locus record log (or an unsupported "
        "version)");
  if (Data.size() < MagicSize + 8) {
    // Crashed during the initial header write: recoverable by rewriting.
    Scan.TornTail = true;
    Scan.TornOffset = Data.size();
    Scan.Why = "torn header (file ends at byte " +
               std::to_string(Data.size()) + " inside the header block)";
    return Scan;
  }
  uint32_t HdrLen = getU32(Data, MagicSize);
  uint32_t HdrCrc = getU32(Data, MagicSize + 4);
  if (HdrLen > MaxRecordBytes)
    return Expected<RecordLogScan>::error(
        "header length field at byte " + std::to_string(MagicSize) +
        " is implausible (" + std::to_string(HdrLen) + " bytes)");
  uint64_t HdrEnd = MagicSize + 8 + HdrLen;
  if (Data.size() < HdrEnd) {
    Scan.TornTail = true;
    Scan.TornOffset = Data.size();
    Scan.Why = "torn header (file ends at byte " +
               std::to_string(Data.size()) + " inside the header payload)";
    return Scan;
  }
  std::string_view HdrPayload(Data.data() + MagicSize + 8, HdrLen);
  if (crc32c(HdrPayload) != HdrCrc)
    return Expected<RecordLogScan>::error(
        "header CRC mismatch at byte " + std::to_string(MagicSize + 8) +
        ": the header payload is damaged");
  Scan.Header = std::string(HdrPayload);
  parseFrames(std::string_view(Data).substr(HdrEnd), HdrEnd, Scan);
  return Scan;
}

} // namespace

uint32_t crc32c(std::string_view Data, uint32_t Seed) {
  // Reflected Castagnoli polynomial, one-byte-at-a-time table.
  static const auto Table = [] {
    std::array<uint32_t, 256> T{};
    for (uint32_t I = 0; I < 256; ++I) {
      uint32_t C = I;
      for (int K = 0; K < 8; ++K)
        C = (C & 1) ? 0x82f63b78u ^ (C >> 1) : C >> 1;
      T[I] = C;
    }
    return T;
  }();
  uint32_t Crc = ~Seed;
  for (unsigned char B : Data)
    Crc = Table[(Crc ^ B) & 0xff] ^ (Crc >> 8);
  return ~Crc;
}

std::string RecordLog::encodeFrame(std::string_view Payload) {
  std::string Frame;
  Frame.reserve(Payload.size() + 8);
  putU32(Frame, static_cast<uint32_t>(Payload.size()));
  putU32(Frame, crc32c(Payload));
  Frame.append(Payload);
  return Frame;
}

std::string RecordLog::encodeHeaderBlock(std::string_view Header) {
  std::string Block(Magic, MagicSize);
  putU32(Block, static_cast<uint32_t>(Header.size()));
  putU32(Block, crc32c(Header));
  Block.append(Header);
  return Block;
}

uint64_t RecordLog::headerBlockSize(uint64_t HeaderBytes) {
  return MagicSize + 8 + HeaderBytes;
}

RecordLog::~RecordLog() { close(); }

RecordLog::RecordLog(RecordLog &&Other) noexcept
    : Path(std::move(Other.Path)), Header(std::move(Other.Header)),
      FsyncEachRecord(Other.FsyncEachRecord), Fd(Other.Fd),
      LockFd(Other.LockFd), Mutex(std::move(Other.Mutex)) {
  Other.Fd = -1;
  Other.LockFd = -1;
}

RecordLog &RecordLog::operator=(RecordLog &&Other) noexcept {
  if (this != &Other) {
    close();
    Path = std::move(Other.Path);
    Header = std::move(Other.Header);
    FsyncEachRecord = Other.FsyncEachRecord;
    Fd = Other.Fd;
    LockFd = Other.LockFd;
    Mutex = std::move(Other.Mutex);
    Other.Fd = -1;
    Other.LockFd = -1;
  }
  return *this;
}

void RecordLog::close() {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
  if (LockFd >= 0) {
    ::close(LockFd);
    LockFd = -1;
  }
}

Expected<RecordLog> RecordLog::open(const std::string &Path,
                                    const RecordLogOptions &Opts,
                                    RecordLogScan *Recovery) {
  RecordLog Log;
  Log.Path = Path;
  Log.Header = Opts.Header;
  Log.FsyncEachRecord = Opts.FsyncEachRecord;

  Log.LockFd = openLockFile(Path);
  if (Log.LockFd < 0)
    return Expected<RecordLog>::error("cannot create lock file " + Path +
                                      ".lock: " + std::strerror(errno));
  flockRetry(Log.LockFd, LOCK_EX);
  // Everything below runs under the exclusive lock; release on every exit.
  auto Fail = [&](std::string Msg) {
    flockRetry(Log.LockFd, LOCK_UN);
    Log.close();
    return Expected<RecordLog>::error(std::move(Msg));
  };

  // A leftover temp file means a compactor crashed before its rename; the
  // live file is still authoritative, the temp is garbage.
  ::unlink((Path + CompactTmpSuffix).c_str());

  Log.Fd = retryOpen(Path.c_str(), O_RDWR | O_CREAT | O_APPEND | O_CLOEXEC,
                     0644);
  if (Log.Fd < 0)
    return Fail("cannot open " + Path + " for append: " +
                std::strerror(errno));

  std::string Image;
  if (::lseek(Log.Fd, 0, SEEK_SET) < 0 || !readWholeFd(Log.Fd, Image))
    return Fail("cannot read " + Path + ": " + std::strerror(errno));

  if (Image.empty()) {
    std::string Block = encodeHeaderBlock(Opts.Header);
    if (!writeAll(Log.Fd, Block.data(), Block.size(), nullptr))
      return Fail(errnoStatus("cannot write header to", Path).message());
    // The header anchors every future recovery; force it down once.
    (void)::fsync(Log.Fd);
  } else {
    Expected<RecordLogScan> Scan = parseImage(Image);
    if (!Scan.ok())
      return Fail(Path + ": " + Scan.message());
    // Judge the header before recovery truncates anything. A torn header
    // (GoodBytes == 0) has no payload to judge; it is rebuilt below.
    if (Scan->GoodBytes > 0) {
      Status Verdict;
      if (Opts.CheckHeader)
        Verdict = Opts.CheckHeader(Scan->Header);
      else if (Scan->Header != Opts.Header)
        Verdict = Status::error(Path + ": header mismatch (the file was "
                                       "written with a different header "
                                       "payload)");
      if (!Verdict.ok())
        return Fail(Verdict.message());
    }
    if (Scan->TornTail) {
      // Recovery: drop the torn/corrupt tail. When even the header is torn
      // (GoodBytes == 0) the file is rebuilt from the magic up.
      if (::ftruncate(Log.Fd, static_cast<off_t>(Scan->GoodBytes)) != 0)
        return Fail(errnoStatus("cannot truncate torn tail of", Path)
                        .message());
      if (Scan->GoodBytes == 0) {
        std::string Block = encodeHeaderBlock(Opts.Header);
        if (!writeAll(Log.Fd, Block.data(), Block.size(), nullptr))
          return Fail(errnoStatus("cannot rewrite header of", Path)
                          .message());
        Scan->Header = Opts.Header;
      }
      (void)::fsync(Log.Fd);
    }
    if (Recovery)
      *Recovery = std::move(*Scan);
  }
  flockRetry(Log.LockFd, LOCK_UN);
  return Log;
}

Status RecordLog::reopenIfReplaced() {
  struct stat OnDisk, Ours;
  if (::stat(Path.c_str(), &OnDisk) != 0)
    return errnoStatus("log file vanished:", Path);
  if (::fstat(Fd, &Ours) != 0)
    return errnoStatus("cannot fstat", Path);
  if (OnDisk.st_ino == Ours.st_ino && OnDisk.st_dev == Ours.st_dev)
    return Status::success();
  // A compaction renamed a new file over the path; appending to the old
  // unlinked inode would lose the record. Switch to the new one.
  int NewFd = retryOpen(Path.c_str(), O_RDWR | O_APPEND | O_CLOEXEC);
  if (NewFd < 0)
    return errnoStatus("cannot reopen compacted", Path);
  ::close(Fd);
  Fd = NewFd;
  return Status::success();
}

Status RecordLog::writeFrame(std::string_view Frame) {
  if (long Partial = crashInjector().partialBytesForThisAppend(Frame.size());
      Partial >= 0) {
    // Torture mode: persist a prefix of the frame, then die as abruptly as
    // the kernel allows. The fsync makes the torn bytes real on disk.
    size_t Written = 0;
    (void)writeAll(Fd, Frame.data(), static_cast<size_t>(Partial), &Written);
    (void)::fsync(Fd);
    ::raise(SIGKILL);
  }

  struct stat Before;
  bool HaveBefore = ::fstat(Fd, &Before) == 0;
  size_t Written = 0;
  if (!writeAll(Fd, Frame.data(), Frame.size(), &Written)) {
    // A partial frame (disk full, RLIMIT_FSIZE with SIGXFSZ ignored) would
    // read as a torn tail forever; amputate it now so the log stays clean
    // and later appends can succeed if space frees up.
    if (HaveBefore && Written > 0)
      (void)::ftruncate(Fd, Before.st_size);
    return errnoStatus("short write to", Path);
  }
  if (FsyncEachRecord && ::fsync(Fd) != 0)
    return errnoStatus("cannot fsync", Path);
  return Status::success();
}

Status RecordLog::append(std::string_view Payload) {
  std::lock_guard<std::mutex> Guard(*Mutex);
  if (Fd < 0)
    return Status::error("record log is not open");
  flockRetry(LockFd, LOCK_EX);
  Status S = reopenIfReplaced();
  if (S.ok())
    S = writeFrame(RecordLog::encodeFrame(Payload));
  flockRetry(LockFd, LOCK_UN);
  return S;
}

Status RecordLog::compact(const std::vector<std::string> &Records) {
  std::lock_guard<std::mutex> Guard(*Mutex);
  if (Fd < 0)
    return Status::error("record log is not open");
  flockRetry(LockFd, LOCK_EX);
  auto Done = [&](Status S) {
    flockRetry(LockFd, LOCK_UN);
    return S;
  };

  std::string Tmp = Path + CompactTmpSuffix;
  int TmpFd =
      retryOpen(Tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (TmpFd < 0)
    return Done(errnoStatus("cannot create compaction file", Tmp));
  std::string Image = encodeHeaderBlock(Header);
  for (const std::string &R : Records)
    Image += encodeFrame(R);
  bool Ok = writeAll(TmpFd, Image.data(), Image.size(), nullptr) &&
            ::fsync(TmpFd) == 0;
  ::close(TmpFd);
  if (!Ok) {
    ::unlink(Tmp.c_str());
    return Done(errnoStatus("cannot write compaction file", Tmp));
  }
  if (::rename(Tmp.c_str(), Path.c_str()) != 0) {
    ::unlink(Tmp.c_str());
    return Done(errnoStatus("cannot rename compaction file over", Path));
  }
  // Make the rename itself durable before anyone appends to the new file.
  if (Status S = fsyncDirOf(Path); !S.ok())
    return Done(S);
  int NewFd = retryOpen(Path.c_str(), O_RDWR | O_APPEND | O_CLOEXEC);
  if (NewFd < 0)
    return Done(errnoStatus("cannot reopen compacted", Path));
  ::close(Fd);
  Fd = NewFd;
  return Done(Status::success());
}

Expected<RecordLogScan> RecordLog::scan(const std::string &Path) {
  RecordLogCursor Fresh;
  return scanFrom(Path, Fresh);
}

Expected<RecordLogScan> RecordLog::scanFrom(const std::string &Path,
                                            RecordLogCursor &Cursor) {
  int Fd = retryOpen(Path.c_str(), O_RDONLY | O_CLOEXEC);
  if (Fd < 0) {
    if (errno == ENOENT) {
      Cursor = {};
      return RecordLogScan{}; // a missing log is an empty log
    }
    return Expected<RecordLogScan>::error("cannot open " + Path + ": " +
                                          std::strerror(errno));
  }
  // Shared lock so a concurrent writer's frame is never read half-written.
  // On unwritable directories the lock file may be uncreatable; degrade to
  // a lockless read (writers there are impossible anyway).
  int LockFd = openLockFile(Path);
  flockRetry(LockFd, LOCK_SH);
  struct stat St;
  bool ReadOk = ::fstat(Fd, &St) == 0;
  bool Resume = ReadOk && Cursor.Offset > 0 &&
                static_cast<uint64_t>(St.st_dev) == Cursor.Dev &&
                static_cast<uint64_t>(St.st_ino) == Cursor.Ino &&
                static_cast<uint64_t>(St.st_size) >= Cursor.Offset;
  std::string Image;
  if (ReadOk && Resume)
    ReadOk = ::lseek(Fd, static_cast<off_t>(Cursor.Offset), SEEK_SET) >= 0;
  if (ReadOk)
    ReadOk = readWholeFd(Fd, Image);
  int ReadErrno = errno;
  flockRetry(LockFd, LOCK_UN);
  if (LockFd >= 0)
    ::close(LockFd);
  ::close(Fd);
  if (!ReadOk)
    return Expected<RecordLogScan>::error("cannot read " + Path + ": " +
                                          std::strerror(ReadErrno));
  Expected<RecordLogScan> Scan = RecordLogScan{};
  if (Resume) {
    Scan->Restarted = false;
    parseFrames(Image, Cursor.Offset, *Scan);
  } else {
    Scan = parseImage(Image);
    if (!Scan.ok())
      return Expected<RecordLogScan>::error(Path + ": " + Scan.message());
  }
  Cursor = {static_cast<uint64_t>(St.st_dev), static_cast<uint64_t>(St.st_ino),
            Scan->GoodBytes};
  return Scan;
}

} // namespace support
} // namespace locus
