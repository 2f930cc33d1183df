//===- RecordCodec.h - The payload codec of every durable record *- C++ -*-===//
///
/// \file
/// The search journal, the task queue and the persistent evaluation cache
/// all store the same facts on support::RecordLog: a point, an evaluation
/// outcome (metric, failure kind, detail) and a header pinning the file to
/// one search space and configuration. This module is their one encoding:
///
///  - a record payload is a flat JSON object of string and number fields,
///    written in call order on one line (control bytes are escaped);
///  - a reader keeps each number's raw token and parses it strictly
///    (parseNumber) into the type the caller asks for, so 64-bit ids and
///    digests round-trip exactly and a signed token never reads as an
///    unsigned id; unknown keys are ignored;
///  - an outcome is the fields "metric", "failure" and "detail"; a failure's
///    infinite sentinel metric is written as 0 and restored on read;
///  - a header is "<tag>\nspace=<hex16>\nconfig=<hex16>\n", where the tag
///    names the store and its format version.
///
//===----------------------------------------------------------------------===//
#ifndef LOCUS_SUPPORT_RECORDCODEC_H
#define LOCUS_SUPPORT_RECORDCODEC_H

#include "src/support/Error.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace locus {
namespace search {
struct EvalOutcome;
enum class FailureKind : uint8_t;
} // namespace search

namespace support {

/// Builds one record payload, a field at a time.
class RecordWriter {
public:
  RecordWriter &str(std::string_view Key, std::string_view Value);
  RecordWriter &u64(std::string_view Key, uint64_t Value);
  /// Written with 17 significant digits, so a finite double round-trips.
  RecordWriter &f64(std::string_view Key, double Value);
  /// The finished payload.
  std::string take();

private:
  void key(std::string_view Key);
  std::string Out = "{";
};

/// One parsed record payload.
class RecordFields {
public:
  /// Refuses anything but one flat object of string and number fields.
  static Expected<RecordFields> parse(std::string_view Payload);

  /// Each getter fails, naming the key, when the field is absent, has the
  /// other type, or (numbers) does not parse as the requested type.
  Status get(std::string_view Key, std::string &Out) const;
  Status get(std::string_view Key, uint64_t &Out) const;
  Status get(std::string_view Key, double &Out) const;

private:
  struct Field {
    std::string Key;
    std::string Text; ///< unescaped string, or the raw number token
    bool IsString = false;
  };
  const Field *find(std::string_view Key, bool WantString, Status &Err) const;

  std::vector<Field> Fields;
};

/// Writes an outcome's "metric", "failure" and "detail" fields.
void putOutcome(RecordWriter &W, double Metric, search::FailureKind Failure,
                std::string_view Detail);
/// Reads them back; a failure's metric is restored to infinity.
Status getOutcome(const RecordFields &F, search::EvalOutcome &Out);

/// Identity of the run a journal or task queue belongs to.
struct RunHeader {
  /// search::Space::fingerprint() of the space the stored points pin.
  uint64_t SpaceFingerprint = 0;
  /// search::journalConfigDigest() of the searcher configuration.
  uint64_t ConfigDigest = 0;

  bool operator==(const RunHeader &O) const = default;
};

/// "<Tag>\nspace=<hex16>\nconfig=<hex16>\n".
std::string encodeRunHeader(std::string_view Tag, const RunHeader &H);
/// Inverse of encodeRunHeader; false for another tag (another store
/// or format version) or a malformed field.
bool parseRunHeader(std::string_view Tag, std::string_view Text,
                    RunHeader &H);

/// \p V as 16 lower-case hex digits.
std::string hex16(uint64_t V);

} // namespace support
} // namespace locus

#endif // LOCUS_SUPPORT_RECORDCODEC_H
