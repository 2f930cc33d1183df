//===- RecordCodecTest.cpp - The shared durable-record codec --------------===//
//
// The payload codec behind the journal, the task queue and the evaluation
// cache: field round trips (64-bit numbers exactly, escapes), strict
// refusals, the shared outcome rule, and a golden journal (header and
// records) whose bytes were captured from the journal's previous, private
// encoder.
//
//===----------------------------------------------------------------------===//

#include "src/search/Journal.h"
#include "src/support/RecordCodec.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <unistd.h>

namespace locus {
namespace {

using support::RecordFields;
using support::RecordWriter;

TEST(RecordCodec, FieldsRoundTripExactly) {
  const uint64_t Max = std::numeric_limits<uint64_t>::max();
  const std::string Text = std::string("q\" b\\ n\n t\t c") + '\x01' + " end";
  std::string Payload = RecordWriter()
                            .u64("id", Max)
                            .f64("x", 0.1 + 0.2)
                            .str("text", Text)
                            .take();
  EXPECT_EQ(Payload.find('\n'), std::string::npos) << "one line per record";
  auto F = RecordFields::parse(Payload);
  ASSERT_TRUE(F.ok()) << F.message();
  uint64_t Id = 0;
  double X = 0;
  std::string Back;
  ASSERT_TRUE(F->get("id", Id).ok());
  ASSERT_TRUE(F->get("x", X).ok());
  ASSERT_TRUE(F->get("text", Back).ok());
  EXPECT_EQ(Id, Max);
  EXPECT_EQ(X, 0.1 + 0.2);
  EXPECT_EQ(Back, Text);
}

TEST(RecordCodec, UnknownKeysAreIgnoredAndMissingOnesNamed) {
  auto F = RecordFields::parse(R"({"new":"field","n":7, "id" : 3 })");
  ASSERT_TRUE(F.ok()) << F.message();
  uint64_t Id = 0;
  EXPECT_TRUE(F->get("id", Id).ok());
  EXPECT_EQ(Id, 3u);
  std::string S;
  Status Missing = F->get("epoch", Id);
  ASSERT_FALSE(Missing.ok());
  EXPECT_NE(Missing.message().find("'epoch'"), std::string::npos);
  EXPECT_FALSE(F->get("n", S).ok()) << "a number is not a string";
  EXPECT_FALSE(F->get("new", Id).ok()) << "a string is not a number";
}

TEST(RecordCodec, RefusesMalformedPayloadsAndNumbers) {
  for (const char *Bad : {"", "nonsense", "{", R"({"a":1)", R"({"a":})",
                          R"({"a":"unterminated})", R"({"a":1} trailing)",
                          R"({"a" 1})", R"({"a":"\q"})"})
    EXPECT_FALSE(RecordFields::parse(Bad).ok()) << Bad;
  auto F = RecordFields::parse(
      R"({"neg":-1,"junk":1x,"big":18446744073709551616})");
  ASSERT_TRUE(F.ok()) << F.message();
  uint64_t U = 0;
  double D = 0;
  EXPECT_FALSE(F->get("neg", U).ok()) << "a signed token is not an id";
  EXPECT_TRUE(F->get("neg", D).ok());
  EXPECT_FALSE(F->get("junk", D).ok());
  EXPECT_FALSE(F->get("big", U).ok()) << "out of range";
}

TEST(RecordCodec, FailureWritesZeroAndReadsBackInfinity) {
  RecordWriter W;
  support::putOutcome(W, std::numeric_limits<double>::infinity(),
                      search::FailureKind::BudgetExceeded, "slow");
  std::string Payload = W.take();
  EXPECT_EQ(Payload,
            R"({"metric":0,"failure":"BudgetExceeded","detail":"slow"})");
  auto F = RecordFields::parse(Payload);
  ASSERT_TRUE(F.ok());
  search::EvalOutcome Out;
  ASSERT_TRUE(support::getOutcome(*F, Out).ok());
  EXPECT_EQ(Out.Failure, search::FailureKind::BudgetExceeded);
  EXPECT_TRUE(std::isinf(Out.Metric));
  EXPECT_EQ(Out.Detail, "slow");

  auto Unknown = RecordFields::parse(
      R"({"metric":1,"failure":"Sideways","detail":""})");
  ASSERT_TRUE(Unknown.ok());
  EXPECT_FALSE(support::getOutcome(*Unknown, Out).ok());
}

/// The journal bytes below were written by the journal's own encoder before
/// it moved onto the shared codec; the move must not change one byte.
TEST(RecordCodec, JournalBytesAreUnchanged) {
  search::Space S;
  search::ParamDef A;
  A.Id = A.Label = "a";
  A.Kind = search::ParamKind::Pow2;
  A.Min = 2;
  A.Max = 64;
  S.Params.push_back(A);
  search::ParamDef B;
  B.Id = B.Label = "b";
  B.Kind = search::ParamKind::IntRange;
  B.Min = 0;
  B.Max = 15;
  S.Params.push_back(B);

  std::string Path = std::string(::testing::TempDir()) + "golden-journal-" +
                     std::to_string(::getpid()) + ".rlog";
  std::remove(Path.c_str());
  search::JournalHeader H{0x0123456789abcdefull, 0xfedcba9876543210ull};
  const std::string Detail =
      std::string("quote \" backslash \\ newline \n control ") + '\x01' +
      " end";
  {
    auto J = search::SearchJournal::open(Path, search::JournalSync::Flush, H);
    ASSERT_TRUE(J.ok()) << J.message();
    search::EvalRecord Ok;
    Ok.P.Values["a"] = 16;
    Ok.P.Values["b"] = 7;
    Ok.Failure = search::FailureKind::None;
    Ok.Metric = 0.1 + 0.2;
    search::EvalRecord Bad;
    Bad.P.Values["a"] = 4;
    Bad.P.Values["b"] = 15;
    Bad.Failure = search::FailureKind::RuntimeTrap;
    Bad.Metric = std::numeric_limits<double>::infinity();
    Bad.Detail = Detail;
    ASSERT_TRUE(J->append(Ok).ok());
    ASSERT_TRUE(J->append(Bad).ok());
  }
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  auto Loaded = search::SearchJournal::load(Path, S, &H);
  std::remove(Path.c_str());
  ASSERT_TRUE(Loaded.ok()) << Loaded.message();
  ASSERT_EQ(Loaded->Records.size(), 2u);
  EXPECT_EQ(Loaded->Records[0].Metric, 0.1 + 0.2);
  EXPECT_TRUE(std::isinf(Loaded->Records[1].Metric));
  EXPECT_EQ(Loaded->Records[1].Detail, Detail);

  static const char Golden[] =
      "LOCRLOG1"
      "\x40\x00\x00\x00"
      "\xe6\x57\x04\xc3"
      "locus-journal v2\nspace=0123456789abcdef\nconfig=fedcba9876543210\n"
      "\x59\x00\x00\x00"
      "\x3d\x6c\xbe\xbc"
      R"({"point":"a = i:16\nb = i:7\n","metric":0.30000000000000004,)"
      R"("failure":"None","detail":""})"
      "\x81\x00\x00\x00"
      "\x72\xbf\x0b\xdf"
      R"({"point":"a = i:4\nb = i:15\n","metric":0,"failure":"RuntimeTrap",)"
      R"("detail":"quote \" backslash \\ newline \n control \u0001 end"})";
  EXPECT_EQ(Buf.str(), std::string(Golden, sizeof(Golden) - 1));
}

} // namespace
} // namespace locus
