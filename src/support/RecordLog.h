//===- RecordLog.h - Crash-safe append-only record file ---------*- C++ -*-===//
///
/// \file
/// The durable-state substrate shared by the search journal and the
/// persistent evaluation cache. Long tuning runs die mid-write — machines
/// reboot, jobs hit walltime, disks fill — and both stateful components need
/// the same guarantees, so they are built on one primitive:
///
///  - an append-only file of length-prefixed records, each protected by a
///    CRC32C so a flipped bit anywhere is detected, never silently replayed;
///  - a versioned magic header with an application payload (space
///    fingerprints, config digests) that is itself CRC-protected;
///  - recovery on open: the file is scanned record by record and any torn
///    or corrupt *tail* (the frame a crashed writer was in the middle of)
///    is truncated away with a warning; corruption *before* the tail is an
///    error that names the byte offset;
///  - atomic-rename compaction: a rewritten copy is fsynced, renamed over
///    the live file, and the directory entry fsynced, so a crash leaves
///    either the old or the new file, never a mix;
///  - flock-based multi-process exclusion through a sidecar ".lock" file
///    (exclusive for writers and compaction, shared for readers). The lock
///    lives on a file that is never renamed, so compaction cannot orphan a
///    waiter's lock; appenders re-stat the path after locking and reopen
///    when a compaction swapped the inode underneath them.
///
/// On-disk layout (all integers little-endian):
///
///   +--------------------------------------------------------------+
///   | magic "LOCRLOG1" (8) | hdr len u32 | hdr crc32c u32 | header |
///   +--------------------------------------------------------------+
///   | rec len u32 | rec crc32c u32 | payload bytes | ...           |
///   +--------------------------------------------------------------+
///
/// Writes are raw fd writes (no stdio buffer): a completed append has
/// reached the kernel, so it survives a process crash; FsyncEachRecord
/// additionally forces it to stable storage per record.
///
//===----------------------------------------------------------------------===//
#ifndef LOCUS_SUPPORT_RECORDLOG_H
#define LOCUS_SUPPORT_RECORDLOG_H

#include "src/support/Error.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace locus {
namespace support {

/// CRC-32C (Castagnoli, the iSCSI/ext4 polynomial) over a byte sequence.
/// Table-driven software implementation; stable across platforms.
uint32_t crc32c(std::string_view Data, uint32_t Seed = 0);

/// Result of scanning a record file.
struct RecordLogScan {
  std::string Header;               ///< application header payload
  std::vector<std::string> Records; ///< every intact record, in file order
  /// Offset one past the last intact record: the recovery truncation point.
  uint64_t GoodBytes = 0;
  /// True when a torn or corrupt tail was found (and excluded from Records).
  bool TornTail = false;
  /// True when the damage is a *complete* frame whose CRC fails (or an
  /// implausible length field with data after it) — bit rot or an external
  /// edit, not the tearing a crashed writer leaves. Callers that must not
  /// silently drop history (the journal under --resume) treat this as a
  /// hard error; the cache salvages the intact prefix either way.
  bool MidFileCorruption = false;
  /// Byte offset of the damage when TornTail; human-readable reason in Why.
  uint64_t TornOffset = 0;
  std::string Why;
  /// Set by scanFrom when it read the file from its header (Records then
  /// holds every record, Header the header payload) rather than resuming
  /// at the cursor (Records holds only the new ones, Header is empty).
  bool Restarted = true;
};

/// Where an incremental reader (RecordLog::scanFrom) stopped: the identity
/// of the file it read and the offset one past the last intact record.
struct RecordLogCursor {
  uint64_t Dev = 0;
  uint64_t Ino = 0;
  uint64_t Offset = 0; ///< 0 = nothing read yet
};

/// Options for opening a RecordLog writer.
struct RecordLogOptions {
  /// Application header payload written on create.
  std::string Header;
  /// Judges the header payload of an existing file before open changes
  /// anything, tail recovery included: an error refuses the open with its
  /// message and leaves the file byte-identical. Unset, the payload must
  /// equal \p Header. Owners set it to accept any compatible header or to
  /// name what differs.
  std::function<Status(const std::string &OnDisk)> CheckHeader;
  /// fsync after every appended record (machine-crash durability). Off, a
  /// completed append still reaches the kernel (process-crash durability).
  bool FsyncEachRecord = false;
};

/// An open append-only record file. Thread-safe: concurrent append() calls
/// from one process are serialized internally; cross-process writers are
/// serialized by the sidecar flock. Movable, not copyable.
class RecordLog {
public:
  RecordLog() = default;
  ~RecordLog();
  RecordLog(RecordLog &&Other) noexcept;
  RecordLog &operator=(RecordLog &&Other) noexcept;
  RecordLog(const RecordLog &) = delete;
  RecordLog &operator=(const RecordLog &) = delete;

  /// Opens \p Path for appending, creating it (magic + header) when absent
  /// or empty. An existing file is verified (magic, version, header CRC,
  /// then the header payload through CheckHeader) and only then recovered:
  /// a torn or corrupt tail is truncated away, reported through \p Recovery
  /// when non-null. A refused open never modifies the file. Corruption that
  /// is not a tail is NOT an error here — every record after the damage is
  /// unreachable, so it is treated as the torn tail and truncated; callers
  /// that must distinguish (the journal) scan first and decide. A leftover
  /// compaction temp file from a crashed compactor is removed.
  static Expected<RecordLog> open(const std::string &Path,
                                  const RecordLogOptions &Opts = {},
                                  RecordLogScan *Recovery = nullptr);

  /// Appends one record under the cross-process lock. If a compaction
  /// replaced the file since open, the writer transparently reopens the new
  /// inode first. Returns an error on I/O failure (e.g. disk full); the log
  /// stays usable for later attempts.
  Status append(std::string_view Payload);

  /// Rewrites the file to contain exactly \p Records (same header) via
  /// write-temp / fsync / atomic rename / fsync-directory, holding the
  /// exclusive lock so no appender interleaves. On success the writer
  /// continues on the new file.
  Status compact(const std::vector<std::string> &Records);

  bool isOpen() const { return Fd >= 0; }
  void close();
  const std::string &path() const { return Path; }

  /// Reads and verifies \p Path without opening it for writing, under the
  /// shared lock. A missing file yields an empty scan. Never truncates.
  static Expected<RecordLogScan> scan(const std::string &Path);

  /// scan(), resumed: reads and CRC-checks only the bytes appended after
  /// \p Cursor and advances it past the last intact record. The file is
  /// read from its header again (Restarted) when the cursor is fresh, when
  /// the path names another inode (a compaction renamed a new file over
  /// it), or when the file is shorter than the cursor (an open amputated a
  /// damaged tail).
  static Expected<RecordLogScan> scanFrom(const std::string &Path,
                                          RecordLogCursor &Cursor);

  /// Encodes one record frame (length + CRC + payload), exposed for tests
  /// that construct corrupt files byte by byte.
  static std::string encodeFrame(std::string_view Payload);

  /// Serializes the magic + header block.
  static std::string encodeHeaderBlock(std::string_view Header);

  /// Size of the fixed file prologue for a given header payload.
  static uint64_t headerBlockSize(uint64_t HeaderBytes);

private:
  Status reopenIfReplaced();
  Status writeFrame(std::string_view Frame);

  std::string Path;
  std::string Header;
  bool FsyncEachRecord = false;
  int Fd = -1;     ///< the log file, O_APPEND
  int LockFd = -1; ///< the sidecar ".lock" file
  /// Serializes append()/compact() within the process (flock is
  /// per-process-per-fd, not per-thread).
  std::shared_ptr<std::mutex> Mutex = std::make_shared<std::mutex>();
};

} // namespace support
} // namespace locus

#endif // LOCUS_SUPPORT_RECORDLOG_H
