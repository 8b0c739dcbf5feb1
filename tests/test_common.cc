#include <gtest/gtest.h>

#include "src/common/interner.h"
#include "src/common/result.h"
#include "src/common/status.h"
#include "src/common/string_util.h"

namespace gqlite {
namespace {

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status s = Status::SyntaxError("unexpected token");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kSyntaxError);
  EXPECT_EQ(s.message(), "unexpected token");
  EXPECT_EQ(s.ToString(), "SyntaxError: unexpected token");
}

TEST(Status, CopyIsCheapAndShared) {
  Status a = Status::Internal("boom");
  Status b = a;
  EXPECT_EQ(b.message(), "boom");
  EXPECT_EQ(b.code(), StatusCode::kInternal);
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

Result<int> Doubled(int x) {
  GQL_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  return v * 2;
}

TEST(Result, ValuePath) {
  Result<int> r = Doubled(21);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(Result, ErrorPath) {
  Result<int> r = Doubled(-1);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(StringUtil, CaseConversion) {
  EXPECT_EQ(AsciiToLower("MaTcH"), "match");
  EXPECT_EQ(AsciiToUpper("MaTcH"), "MATCH");
  EXPECT_TRUE(AsciiEqualsIgnoreCase("OPTIONAL", "optional"));
  EXPECT_FALSE(AsciiEqualsIgnoreCase("OPTIONAL", "option"));
}

TEST(StringUtil, Utf8CaseMappingInvalidBytesPassThrough) {
  EXPECT_EQ(Utf8ToUpper("ärger"), "ÄRGER");
  EXPECT_EQ(Utf8ToLower("ÄRGER"), "ärger");
  // Lone continuation / invalid lead bytes stay byte-identical.
  EXPECT_EQ(Utf8ToUpper(std::string_view("a\x80z", 3)),
            std::string_view("A\x80Z", 3));
  // Overlong encodings (C1 A1 would decode to 'a') must not be
  // normalized into a shorter valid sequence.
  EXPECT_EQ(Utf8ToUpper(std::string_view("\xC1\xA1", 2)),
            std::string_view("\xC1\xA1", 2));
  // Truncated sequence at end of string.
  EXPECT_EQ(Utf8ToLower(std::string_view("A\xC3", 2)),
            std::string_view("a\xC3", 2));
}

TEST(StringUtil, SplitBy) {
  std::vector<std::string> parts = SplitBy("one--two--three", "--");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "two");
}

TEST(StringUtil, TrimAndPredicates) {
  EXPECT_EQ(TrimView("  x y  "), "x y");
  EXPECT_EQ(LTrimView("  z"), "z");
  EXPECT_EQ(RTrimView("z  "), "z");
  EXPECT_TRUE(StartsWith("hello", "he"));
  EXPECT_TRUE(EndsWith("hello", "lo"));
  EXPECT_TRUE(Contains("hello", "ell"));
  EXPECT_FALSE(Contains("hello", "xyz"));
}

TEST(Interner, InternAndLookup) {
  StringInterner in;
  SymbolId a = in.Intern("Person");
  SymbolId b = in.Intern("Movie");
  SymbolId a2 = in.Intern("Person");
  EXPECT_EQ(a, a2);
  EXPECT_NE(a, b);
  EXPECT_EQ(in.ToString(a), "Person");
  EXPECT_EQ(in.Lookup("Movie"), b);
  EXPECT_EQ(in.Lookup("Nope"), kNoSymbol);
  EXPECT_EQ(in.Intern(""), kNoSymbol);
}

TEST(Interner, ManyStringsStableIds) {
  StringInterner in;
  // Appended in order: GCC 12's -Wrestrict misfires on
  // `"s" + std::to_string(i)` in Release builds.
  auto name = [](int i) {
    std::string s = "s";
    s += std::to_string(i);
    return s;
  };
  std::vector<SymbolId> ids;
  for (int i = 0; i < 1000; ++i) ids.push_back(in.Intern(name(i)));
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(in.ToString(ids[i]), name(i));
    EXPECT_EQ(in.Lookup(name(i)), ids[i]);
  }
}

}  // namespace
}  // namespace gqlite
