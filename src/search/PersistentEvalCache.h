//===- PersistentEvalCache.h - Durable shared evaluation cache --*- C++ -*-===//
///
/// \file
/// The on-disk promotion of EvalCache: evaluation outcomes keyed by the
/// 128-bit content hash of the unparsed variant text, persisted to a
/// crash-safe RecordLog inside a cache directory that may be shared across
/// runs, processes, and tenants. A variant simulated for one search is free
/// for every later search that materializes the same program — which is
/// what makes repeat tuning of similar kernels cheap (the MetaSchedule
/// database idea, applied to our content-addressed cache).
///
/// Operational contract:
///
///  - startup loads every intact entry from <dir>/evalcache.rlog into the
///    in-memory EvalCache; lookups are pure memory operations afterwards;
///  - committed outcomes (never MetricUnstable — a flaky reading must be
///    re-measured, not immortalized) are appended as CRC-framed records,
///    safe under --jobs N (internal mutex) and under concurrent processes
///    sharing the directory (RecordLog's flock protocol);
///  - entries are support::RecordCodec payloads (variant key, point key,
///    outcome) under the header "locus-evalcache v2";
///  - the store is advisory, never load-bearing: any I/O or corruption
///    error — unreadable directory, torn file, disk full, read-only mount,
///    a store of another format version — emits one warning through the
///    sink and degrades to plain in-memory behavior. A broken cache can cost
///    re-evaluations, never the search;
///  - duplicate entries (two processes racing on the same variant) are
///    tolerated on disk — first-loaded wins in memory — and compacted away
///    with an atomic rename when they outnumber useful entries.
///
//===----------------------------------------------------------------------===//
#ifndef LOCUS_SEARCH_PERSISTENTEVALCACHE_H
#define LOCUS_SEARCH_PERSISTENTEVALCACHE_H

#include "src/search/EvalCache.h"
#include "src/support/RecordLog.h"

#include <functional>
#include <string>

namespace locus {
namespace search {

struct PersistentCacheOptions {
  /// Directory holding the store ("<dir>/evalcache.rlog"); created when
  /// absent. Empty is invalid (callers wanting no persistence use
  /// EvalCache directly).
  std::string Dir;
  /// Load and serve entries but never write: for tenants that may consume
  /// a shared store but not grow it (the CLI's --cache-readonly).
  bool ReadOnly = false;
  /// fsync per appended entry. Off by default: a lost cache entry costs one
  /// re-evaluation, so kernel-level durability is the right trade.
  bool FsyncEachRecord = false;
};

struct PersistentCacheStats {
  uint64_t LoadedEntries = 0;   ///< intact entries preloaded at startup
  uint64_t AppendedEntries = 0; ///< entries this process appended
  uint64_t Warnings = 0;        ///< I/O or format problems surfaced
  bool Degraded = false;        ///< persistence off after an error
  bool RecoveredTornTail = false; ///< startup truncated a torn/corrupt tail
  bool Compacted = false;         ///< startup rewrote the store
};

/// Durable VariantOutcomeCache. Construction never fails: every error path
/// lands in a warning plus in-memory degradation.
class PersistentEvalCache : public VariantOutcomeCache {
public:
  using WarnSink = std::function<void(const std::string &)>;

  /// Opens (or creates) the store and preloads it. \p Warn receives
  /// human-readable degradation/recovery messages; null means stderr.
  explicit PersistentEvalCache(PersistentCacheOptions Opts,
                               WarnSink Warn = nullptr);

  std::optional<EvalOutcome> lookup(const CacheKey &Key,
                                    const std::string &PointKey) override;
  void insert(const CacheKey &Key, const std::string &PointKey,
              const EvalOutcome &Outcome) override;
  EvalCacheStats stats() const override;

  PersistentCacheStats persistentStats() const;

  /// Encodes one store entry, a support::RecordCodec payload (exposed for
  /// tests).
  static std::string encodeEntry(const CacheKey &Key,
                                 const std::string &PointKey,
                                 const EvalOutcome &Outcome);
  /// Strict inverse of encodeEntry; false on any malformed field.
  static bool decodeEntry(const std::string &Record, CacheKey &Key,
                          std::string &PointKey, EvalOutcome &Outcome);

  /// The store file inside a cache directory.
  static std::string storePath(const std::string &Dir);

private:
  void warn(const std::string &Msg);
  void degrade(const std::string &Why);

  PersistentCacheOptions Opts;
  WarnSink Warn;
  EvalCache Mem;
  support::RecordLog Log; ///< open iff writing is possible and not degraded
  mutable std::mutex M;   ///< guards Pers and Log state transitions
  PersistentCacheStats Pers;
};

} // namespace search
} // namespace locus

#endif // LOCUS_SEARCH_PERSISTENTEVALCACHE_H
