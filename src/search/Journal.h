//===- Journal.h - Crash-safe search journal --------------------*- C++ -*-===//
///
/// \file
/// An append-only journal of evaluation records. Long tuning runs die —
/// machines reboot, jobs hit walltime, evaluators wedge — and without a
/// journal every assessed variant is lost with them. Each fresh evaluation
/// is appended as one support::RecordCodec payload inside a CRC32C-framed
/// record (support::RecordLog) and pushed toward stable storage per the
/// configurable JournalSync policy, so at most the record being written
/// when the process died is lost.
///
/// The v2 format puts a header in front of the records carrying a
/// fingerprint of the search space and a digest of the search configuration
/// (searcher name + seed). --resume refuses a journal whose header does not
/// match the current run with a located diagnostic, instead of silently
/// replaying an unrelated run's history into the wrong space. Integrity is
/// checked per record: a torn *tail* (the frame a crashed writer was in the
/// middle of) is discarded with a warning and the resume continues from the
/// intact prefix; a CRC mismatch anywhere earlier is damage and a hard
/// error naming the byte offset. v1 journals (plain JSONL, no header, no
/// checksums) are still loaded, and an open() over one migrates it to v2
/// with an atomic rewrite.
///
/// Record payload (one EvalRecord, unchanged from v1; support::RecordCodec):
///   {"point":"<serialized point>","metric":<double>,
///    "failure":"<FailureKind name>","detail":"<string>"}
///
/// Loaded records feed SearchOptions::Replay, which replays the interrupted
/// run's trajectory through the searcher before fresh evaluations resume.
///
//===----------------------------------------------------------------------===//
#ifndef LOCUS_SEARCH_JOURNAL_H
#define LOCUS_SEARCH_JOURNAL_H

#include "src/search/Search.h"
#include "src/support/Error.h"
#include "src/support/RecordCodec.h"
#include "src/support/RecordLog.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace locus {
namespace search {

/// How far append() pushes each record toward stable storage before
/// returning. Appends are unbuffered fd writes, so every record reaches the
/// kernel (process-crash safe); Full additionally fsyncs per record and
/// survives a machine crash (power loss, panic).
enum class JournalSync : uint8_t {
  Flush, ///< kernel-buffered writes (process-crash safe)
  Full,  ///< fsync per record (machine-crash safe; the default)
};

/// Parses a sync-mode name ("flush", "full"); sets Ok=false (and returns
/// Full) on unknown names.
JournalSync parseJournalSync(std::string_view Name, bool &Ok);

/// Identity of the run a journal belongs to, stored in the v2 header.
using JournalHeader = support::RunHeader;

/// First line of a v2 journal header (support::encodeRunHeader).
inline constexpr std::string_view JournalHeaderTag = "locus-journal v2";

/// Digest of the search configuration knobs that determine a trajectory.
/// Budget and --jobs are deliberately excluded: a resume legitimately runs
/// with a larger budget, and N-job runs are trajectory-identical to serial
/// ones, so neither invalidates a journal.
uint64_t journalConfigDigest(std::string_view SearcherName, uint64_t Seed);

class SearchJournal {
public:
  SearchJournal() = default;
  SearchJournal(SearchJournal &&) noexcept = default;
  SearchJournal &operator=(SearchJournal &&) noexcept = default;
  SearchJournal(const SearchJournal &) = delete;
  SearchJournal &operator=(const SearchJournal &) = delete;

  /// Opens \p Path for appending, creating it (with \p Header) when absent.
  /// An existing v2 journal is verified — magic, CRCs, header equality with
  /// \p Header — and a torn tail is truncated away. An existing v1 (plain
  /// JSONL) journal is migrated to v2 via an atomic rewrite when
  /// \p MigrateRecords carries its already-loaded records (pass the result
  /// of load()); without them, a v1 file is an error directing the caller
  /// to --resume or remove it.
  static Expected<SearchJournal>
  open(const std::string &Path, JournalSync Sync = JournalSync::Full,
       const JournalHeader &Header = {},
       const std::vector<EvalRecord> *MigrateRecords = nullptr);

  /// Appends one record and pushes it toward stable storage per the
  /// configured JournalSync. Internally serialized: concurrent callers
  /// append whole records in call order (the search loop commits batch
  /// results in proposal order, so journal order equals trajectory order
  /// even with a parallel evaluation pool).
  Status append(const EvalRecord &R);

  bool isOpen() const { return Log.isOpen(); }
  void close() { Log.close(); }

  struct LoadResult {
    std::vector<EvalRecord> Records;
    /// Number of discarded torn tail records (0 or 1): the record the
    /// crashed writer was in the middle of.
    int DroppedTailLines = 0;
    /// Human-readable description of the recovery when DroppedTailLines.
    std::string Warning;
    /// Header of a v2 journal; zeroed for legacy files.
    JournalHeader Header;
    /// True when the file was a v1 plain-JSONL journal.
    bool Legacy = false;
  };

  /// Loads a journal and validates every point against \p Space. A missing
  /// file loads as zero records. Refused with a located, actionable error:
  /// bad magic, a CRC mismatch before the tail, an undecodable record, a
  /// point from another space, or (when \p Expect is non-null) a header
  /// whose fingerprint/digest differs from the current run.
  static Expected<LoadResult> load(const std::string &Path, const Space &S,
                                   const JournalHeader *Expect = nullptr);

  /// Encodes one record payload (no framing, no newline).
  static std::string encodeLine(const EvalRecord &R);

  /// Decodes one record payload; the point is validated against \p Space.
  static Expected<EvalRecord> decodeLine(const std::string &Line,
                                         const Space &S);

  /// (De)serializes the v2 header payload ("locus-journal v2\nspace=...").
  static std::string encodeHeader(const JournalHeader &H);
  static bool parseHeader(std::string_view Text, JournalHeader &H);

private:
  support::RecordLog Log;
};

} // namespace search
} // namespace locus

#endif // LOCUS_SEARCH_JOURNAL_H
