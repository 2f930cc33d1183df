//===- RecordCodec.cpp - The payload codec of every durable record --------===//

#include "src/support/RecordCodec.h"

#include "src/search/Search.h"
#include "src/support/StringUtils.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

namespace locus {
namespace support {

namespace {

void appendEscaped(std::string &Out, std::string_view S) {
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
}

/// Parses a JSON string starting at Text[Pos] (which must be '"'); advances
/// Pos past the closing quote.
bool parseString(std::string_view Text, size_t &Pos, std::string &Out) {
  if (Pos >= Text.size() || Text[Pos] != '"')
    return false;
  ++Pos;
  Out.clear();
  while (Pos < Text.size()) {
    char C = Text[Pos];
    if (C == '"') {
      ++Pos;
      return true;
    }
    if (C == '\\') {
      if (Pos + 1 >= Text.size())
        return false;
      char E = Text[Pos + 1];
      Pos += 2;
      switch (E) {
      case '"':
        Out += '"';
        break;
      case '\\':
        Out += '\\';
        break;
      case '/':
        Out += '/';
        break;
      case 'n':
        Out += '\n';
        break;
      case 'r':
        Out += '\r';
        break;
      case 't':
        Out += '\t';
        break;
      case 'u': {
        if (Pos + 4 > Text.size())
          return false;
        unsigned Code = 0;
        if (!parseNumber(Text.substr(Pos, 4), Code, 16))
          return false;
        Pos += 4;
        // The writer escapes only control bytes this way.
        Out += static_cast<char>(Code);
        break;
      }
      default:
        return false;
      }
      continue;
    }
    Out += C;
    ++Pos;
  }
  return false; // unterminated
}

void skipSpace(std::string_view Text, size_t &Pos) {
  while (Pos < Text.size() && (Text[Pos] == ' ' || Text[Pos] == '\t'))
    ++Pos;
}

bool expectChar(std::string_view Text, size_t &Pos, char C) {
  skipSpace(Text, Pos);
  if (Pos >= Text.size() || Text[Pos] != C)
    return false;
  ++Pos;
  return true;
}

} // namespace

//===----------------------------------------------------------------------===//
// RecordWriter
//===----------------------------------------------------------------------===//

void RecordWriter::key(std::string_view Key) {
  if (Out.size() > 1)
    Out += ',';
  Out += '"';
  appendEscaped(Out, Key);
  Out += "\":";
}

RecordWriter &RecordWriter::str(std::string_view Key, std::string_view Value) {
  key(Key);
  Out += '"';
  appendEscaped(Out, Value);
  Out += '"';
  return *this;
}

RecordWriter &RecordWriter::u64(std::string_view Key, uint64_t Value) {
  key(Key);
  Out += std::to_string(Value);
  return *this;
}

RecordWriter &RecordWriter::f64(std::string_view Key, double Value) {
  key(Key);
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", Value);
  Out += Buf;
  return *this;
}

std::string RecordWriter::take() {
  Out += '}';
  return std::move(Out);
}

//===----------------------------------------------------------------------===//
// RecordFields
//===----------------------------------------------------------------------===//

Expected<RecordFields> RecordFields::parse(std::string_view Text) {
  using E = Expected<RecordFields>;
  RecordFields R;
  R.Fields.reserve(8); // a queue result, the largest record, has 7
  size_t Pos = 0;
  if (!expectChar(Text, Pos, '{'))
    return E::error("record is not a JSON object");
  skipSpace(Text, Pos);
  if (Pos < Text.size() && Text[Pos] == '}') {
    ++Pos;
  } else {
    do {
      Field F;
      skipSpace(Text, Pos);
      if (!parseString(Text, Pos, F.Key))
        return E::error("malformed record key");
      if (!expectChar(Text, Pos, ':'))
        return E::error("missing ':' after record key '" + F.Key + "'");
      skipSpace(Text, Pos);
      F.IsString = Pos < Text.size() && Text[Pos] == '"';
      if (F.IsString) {
        if (!parseString(Text, Pos, F.Text))
          return E::error("malformed string value for '" + F.Key + "'");
      } else {
        size_t End = std::min(Text.find_first_of(",} \t", Pos), Text.size());
        if (End == Pos)
          return E::error("missing value for '" + F.Key + "'");
        F.Text = Text.substr(Pos, End - Pos);
        Pos = End;
      }
      R.Fields.push_back(std::move(F));
    } while (expectChar(Text, Pos, ','));
    if (!expectChar(Text, Pos, '}'))
      return E::error("unterminated record");
  }
  skipSpace(Text, Pos);
  if (Pos != Text.size())
    return E::error("trailing bytes after the record");
  return R;
}

const RecordFields::Field *RecordFields::find(std::string_view Key,
                                              bool WantString,
                                              Status &Err) const {
  for (const Field &F : Fields) {
    if (F.Key != Key)
      continue;
    if (F.IsString == WantString)
      return &F;
    Err = Status::error("field '" + std::string(Key) + "' is " +
                        (F.IsString ? "a string" : "a number") + ", want " +
                        (WantString ? "a string" : "a number"));
    return nullptr;
  }
  Err = Status::error("missing field '" + std::string(Key) + "'");
  return nullptr;
}

Status RecordFields::get(std::string_view Key, std::string &Out) const {
  Status Err;
  const Field *F = find(Key, /*WantString=*/true, Err);
  if (F)
    Out = F->Text;
  return Err;
}

Status RecordFields::get(std::string_view Key, uint64_t &Out) const {
  Status Err;
  const Field *F = find(Key, /*WantString=*/false, Err);
  if (F && !parseNumber(F->Text, Out))
    return Status::error("field '" + std::string(Key) +
                         "' wants an unsigned integer, got '" + F->Text + "'");
  return Err;
}

Status RecordFields::get(std::string_view Key, double &Out) const {
  Status Err;
  const Field *F = find(Key, /*WantString=*/false, Err);
  if (F && !parseNumber(F->Text, Out))
    return Status::error("field '" + std::string(Key) +
                         "' wants a number, got '" + F->Text + "'");
  return Err;
}

//===----------------------------------------------------------------------===//
// Outcomes and headers
//===----------------------------------------------------------------------===//

void putOutcome(RecordWriter &W, double Metric, search::FailureKind Failure,
                std::string_view Detail) {
  // A failure carries an infinite sentinel metric that JSON cannot express;
  // getOutcome recomputes it from the failure kind.
  W.f64("metric", std::isfinite(Metric) ? Metric : 0)
      .str("failure", search::failureKindName(Failure))
      .str("detail", Detail);
}

Status getOutcome(const RecordFields &F, search::EvalOutcome &Out) {
  double Metric = 0;
  std::string Kind;
  if (Status S = F.get("metric", Metric); !S.ok())
    return S;
  if (Status S = F.get("failure", Kind); !S.ok())
    return S;
  bool KindOk = false;
  Out.Failure = search::parseFailureKind(Kind, KindOk);
  if (!KindOk)
    return Status::error("unknown failure kind: " + Kind);
  Out.Metric = Out.ok() ? Metric : std::numeric_limits<double>::infinity();
  return F.get("detail", Out.Detail);
}

std::string hex16(uint64_t V) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

std::string encodeRunHeader(std::string_view Tag, const RunHeader &H) {
  std::string Out(Tag);
  Out += "\nspace=";
  Out += hex16(H.SpaceFingerprint);
  Out += "\nconfig=";
  Out += hex16(H.ConfigDigest);
  Out += '\n';
  return Out;
}

bool parseRunHeader(std::string_view Tag, std::string_view Text,
                    RunHeader &H) {
  H = RunHeader{};
  auto TakeLine = [&Text]() -> std::string_view {
    size_t Nl = Text.find('\n');
    std::string_view Line = Text.substr(0, Nl);
    Text = Nl == std::string_view::npos ? std::string_view()
                                        : Text.substr(Nl + 1);
    return Line;
  };
  if (TakeLine() != Tag)
    return false;
  auto ParseField = [&TakeLine](std::string_view Name, uint64_t &Out) {
    std::string_view Line = TakeLine();
    if (Line.substr(0, Name.size()) != Name)
      return false;
    return parseNumber(Line.substr(Name.size()), Out, 16);
  };
  return ParseField("space=", H.SpaceFingerprint) &&
         ParseField("config=", H.ConfigDigest);
}

} // namespace support
} // namespace locus
