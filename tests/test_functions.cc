// Per-function tests for the built-in function library ℱ (§4.1 assumes "a
// finite set ℱ of predefined functions"): entity accessors, list/path
// helpers, scalar conversions, math, strings, temporal constructors —
// each with its null-propagation and error behaviour.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "src/eval/evaluator.h"
#include "src/eval/functions.h"
#include "src/frontend/parser.h"

namespace gqlite {
namespace {

class FunctionsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ada_ = g_.CreateNode({"Person", "Pioneer"},
                         {{"name", Value::String("Ada")},
                          {"born", Value::Int(1815)}});
    babbage_ = g_.CreateNode({"Person"},
                             {{"name", Value::String("Charles")}});
    knows_ = g_.CreateRelationship(ada_, babbage_, "KNOWS",
                                   {{"since", Value::Int(1833)}})
                 .value();
    env_.Set("ada", Value::Node(ada_));
    env_.Set("charles", Value::Node(babbage_));
    env_.Set("knows", Value::Relationship(knows_));
    Path p;
    p.nodes = {ada_, babbage_};
    p.rels = {knows_};
    env_.Set("p", Value::MakePath(p));
  }

  Result<Value> Eval(const std::string& text) {
    auto expr = ParseExpression(text);
    if (!expr.ok()) return expr.status();
    EvalContext ctx;
    ctx.graph = &g_;
    static ValueMap no_params;
    ctx.parameters = &no_params;
    return EvaluateExpr(**expr, env_, ctx);
  }

  Value Must(const std::string& text) {
    auto r = Eval(text);
    EXPECT_TRUE(r.ok()) << text << ": " << r.status().ToString();
    return r.ok() ? *r : Value::Null();
  }

  PropertyGraph g_;
  NodeId ada_, babbage_;
  RelId knows_;
  MapEnvironment env_;
};

TEST_F(FunctionsTest, EntityAccessors) {
  EXPECT_EQ(Must("id(ada)").AsInt(), 0);
  EXPECT_EQ(Must("id(knows)").AsInt(), 0);
  Value labels = Must("labels(ada)");
  ASSERT_TRUE(labels.is_list());
  EXPECT_EQ(labels.AsList().size(), 2u);
  EXPECT_EQ(Must("type(knows)").AsString(), "KNOWS");
  EXPECT_EQ(Must("startNode(knows)").AsNode(), ada_);
  EXPECT_EQ(Must("endNode(knows)").AsNode(), babbage_);
  Value props = Must("properties(ada)");
  ASSERT_TRUE(props.is_map());
  EXPECT_EQ(props.AsMap().at("born").AsInt(), 1815);
  Value keys = Must("keys(knows)");
  ASSERT_EQ(keys.AsList().size(), 1u);
  EXPECT_EQ(keys.AsList()[0].AsString(), "since");
  EXPECT_EQ(Must("degree(ada)").AsInt(), 1);
  EXPECT_EQ(Must("outDegree(ada)").AsInt(), 1);
  EXPECT_EQ(Must("inDegree(ada)").AsInt(), 0);
}

TEST_F(FunctionsTest, EntityAccessorNulls) {
  EXPECT_TRUE(Must("id(null)").is_null());
  EXPECT_TRUE(Must("labels(null)").is_null());
  EXPECT_TRUE(Must("type(null)").is_null());
  EXPECT_EQ(Eval("labels(1)").status().code(), StatusCode::kTypeError);
  EXPECT_EQ(Eval("type(ada)").status().code(), StatusCode::kTypeError);
}

TEST_F(FunctionsTest, PathFunctions) {
  EXPECT_EQ(Must("length(p)").AsInt(), 1);
  Value ns = Must("nodes(p)");
  ASSERT_EQ(ns.AsList().size(), 2u);
  EXPECT_EQ(ns.AsList()[0].AsNode(), ada_);
  Value rs = Must("relationships(p)");
  ASSERT_EQ(rs.AsList().size(), 1u);
  EXPECT_EQ(rs.AsList()[0].AsRelationship(), knows_);
}

TEST_F(FunctionsTest, ListFunctions) {
  EXPECT_EQ(Must("size([1, 2, 3])").AsInt(), 3);
  EXPECT_EQ(Must("size('abc')").AsInt(), 3);
  EXPECT_EQ(Must("size({a: 1})").AsInt(), 1);
  EXPECT_EQ(Must("head([7, 8])").AsInt(), 7);
  EXPECT_TRUE(Must("head([])").is_null());
  EXPECT_EQ(Must("last([7, 8])").AsInt(), 8);
  Value t = Must("tail([1, 2, 3])");
  ASSERT_EQ(t.AsList().size(), 2u);
  EXPECT_EQ(t.AsList()[0].AsInt(), 2);
  Value rev = Must("reverse([1, 2, 3])");
  EXPECT_EQ(rev.AsList()[0].AsInt(), 3);
  EXPECT_EQ(Must("reverse('abc')").AsString(), "cba");
}

TEST_F(FunctionsTest, Range) {
  Value r = Must("range(1, 5)");
  ASSERT_EQ(r.AsList().size(), 5u);  // inclusive
  EXPECT_EQ(r.AsList()[4].AsInt(), 5);
  r = Must("range(0, 10, 3)");
  ASSERT_EQ(r.AsList().size(), 4u);  // 0 3 6 9
  r = Must("range(5, 1, -2)");
  ASSERT_EQ(r.AsList().size(), 3u);  // 5 3 1
  EXPECT_EQ(Must("range(5, 1)").AsList().size(), 0u);
  EXPECT_FALSE(Eval("range(1, 5, 0)").ok());
}

TEST_F(FunctionsTest, Coalesce) {
  EXPECT_EQ(Must("coalesce(null, null, 3)").AsInt(), 3);
  EXPECT_EQ(Must("coalesce(1, 2)").AsInt(), 1);
  EXPECT_TRUE(Must("coalesce(null, null)").is_null());
  EXPECT_EQ(Must("coalesce(ada.nope, 'fallback')").AsString(), "fallback");
}

TEST_F(FunctionsTest, Conversions) {
  EXPECT_EQ(Must("toString(42)").AsString(), "42");
  EXPECT_EQ(Must("toString(2.5)").AsString(), "2.5");
  EXPECT_EQ(Must("toString(true)").AsString(), "true");
  EXPECT_EQ(Must("toInteger('42')").AsInt(), 42);
  EXPECT_EQ(Must("toInteger('42.9')").AsInt(), 42);
  EXPECT_EQ(Must("toInteger(3.99)").AsInt(), 3);
  EXPECT_TRUE(Must("toInteger('nope')").is_null());
  EXPECT_DOUBLE_EQ(Must("toFloat('2.5')").AsFloat(), 2.5);
  EXPECT_DOUBLE_EQ(Must("toFloat(2)").AsFloat(), 2.0);
  EXPECT_TRUE(Must("toBoolean('TRUE')").AsBool());
  EXPECT_FALSE(Must("toBoolean('false')").AsBool());
  EXPECT_TRUE(Must("toBoolean('?')").is_null());
  EXPECT_TRUE(Must("toString(null)").is_null());
}

TEST_F(FunctionsTest, Math) {
  EXPECT_EQ(Must("abs(-5)").AsInt(), 5);
  EXPECT_DOUBLE_EQ(Must("abs(-2.5)").AsFloat(), 2.5);
  EXPECT_EQ(Must("sign(-3)").AsInt(), -1);
  EXPECT_EQ(Must("sign(0)").AsInt(), 0);
  EXPECT_DOUBLE_EQ(Must("ceil(1.1)").AsFloat(), 2.0);
  EXPECT_DOUBLE_EQ(Must("floor(1.9)").AsFloat(), 1.0);
  EXPECT_DOUBLE_EQ(Must("round(1.5)").AsFloat(), 2.0);
  EXPECT_DOUBLE_EQ(Must("sqrt(16)").AsFloat(), 4.0);
  EXPECT_DOUBLE_EQ(Must("exp(0)").AsFloat(), 1.0);
  EXPECT_DOUBLE_EQ(Must("log(e())").AsFloat(), 1.0);
  EXPECT_DOUBLE_EQ(Must("log10(100)").AsFloat(), 2.0);
  EXPECT_NEAR(Must("sin(pi() / 2)").AsFloat(), 1.0, 1e-12);
  EXPECT_NEAR(Must("cos(0)").AsFloat(), 1.0, 1e-12);
  EXPECT_NEAR(Must("atan2(1, 1)").AsFloat(), M_PI / 4, 1e-12);
  EXPECT_TRUE(Must("sqrt(null)").is_null());
}

TEST_F(FunctionsTest, Strings) {
  EXPECT_EQ(Must("toUpper('MiXeD')").AsString(), "MIXED");
  EXPECT_EQ(Must("toLower('MiXeD')").AsString(), "mixed");
  EXPECT_EQ(Must("trim('  x  ')").AsString(), "x");
  EXPECT_EQ(Must("lTrim('  x')").AsString(), "x");
  EXPECT_EQ(Must("rTrim('x  ')").AsString(), "x");
  EXPECT_EQ(Must("replace('banana', 'na', 'NA')").AsString(), "baNANA");
  EXPECT_EQ(Must("replace('aaa', 'a', '')").AsString(), "");
  Value parts = Must("split('a,b,,c', ',')");
  ASSERT_EQ(parts.AsList().size(), 4u);
  EXPECT_EQ(parts.AsList()[2].AsString(), "");
  EXPECT_EQ(Must("substring('hello', 1)").AsString(), "ello");
  EXPECT_EQ(Must("substring('hello', 1, 3)").AsString(), "ell");
  EXPECT_EQ(Must("substring('hi', 99)").AsString(), "");
  EXPECT_EQ(Must("left('hello', 2)").AsString(), "he");
  EXPECT_EQ(Must("right('hello', 2)").AsString(), "lo");
  EXPECT_TRUE(Must("toUpper(null)").is_null());
  EXPECT_FALSE(Eval("substring('x', -1)").ok());
}

TEST_F(FunctionsTest, TemporalConstructors) {
  EXPECT_EQ(Must("date('2018-06-10')").AsDate().ToString(), "2018-06-10");
  EXPECT_EQ(Must("localtime('12:31:14.5')").AsLocalTime().ToString(),
            "12:31:14.5");
  EXPECT_EQ(Must("time('10:00:00+01:00')").AsTime().offset_seconds, 3600);
  EXPECT_EQ(Must("localdatetime('2018-06-10T12:00:00')")
                .AsLocalDateTime()
                .ToString(),
            "2018-06-10T12:00:00");
  EXPECT_EQ(Must("datetime('2018-06-10T12:00:00Z')")
                .AsDateTime()
                .offset_seconds,
            0);
  EXPECT_EQ(Must("duration('P2W')").AsDuration().days, 14);
  EXPECT_TRUE(Must("date(null)").is_null());
  EXPECT_FALSE(Eval("date('junk')").ok());
  Value between =
      Must("durationBetween(date('2018-06-10'), date('2018-07-01'))");
  EXPECT_EQ(between.AsDuration().days, 21);
}

TEST_F(FunctionsTest, ArityErrors) {
  EXPECT_FALSE(Eval("id()").ok());
  EXPECT_FALSE(Eval("id(ada, charles)").ok());
  EXPECT_FALSE(Eval("range(1)").ok());
  EXPECT_FALSE(Eval("pi(1)").ok());
}

TEST_F(FunctionsTest, UnknownFunction) {
  auto r = Eval("frobnicate(1)");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kEvaluationError);
  EXPECT_NE(r.status().message().find("frobnicate"), std::string::npos);
}

TEST_F(FunctionsTest, CaseInsensitiveNames) {
  EXPECT_EQ(Must("TOUPPER('x')").AsString(), "X");
  EXPECT_EQ(Must("CoAlEsCe(null, 7)").AsInt(), 7);
}

TEST_F(FunctionsTest, StringFunctionsCountCodePointsNotBytes) {
  // 'héllo' is 5 characters in 6 bytes; byte-oriented implementations
  // split the 'é' and emit invalid UTF-8.
  EXPECT_EQ(Must("reverse('héllo')").AsString(), "olléh");
  EXPECT_EQ(Must("size('héllo')").AsInt(), 5);
  EXPECT_EQ(Must("length('héllo')").AsInt(), 5);
  EXPECT_EQ(Must("substring('héllo', 1, 2)").AsString(), "él");
  EXPECT_EQ(Must("substring('héllo', 1)").AsString(), "éllo");
  EXPECT_EQ(Must("substring('héllo', 5)").AsString(), "");
  EXPECT_EQ(Must("left('héllo', 2)").AsString(), "hé");
  EXPECT_EQ(Must("right('héllo', 4)").AsString(), "éllo");
  EXPECT_EQ(Must("right('héllo', 99)").AsString(), "héllo");
  // Multi-byte beyond Latin-1: 3-byte CJK and a 4-byte emoji.
  EXPECT_EQ(Must("size('日本語')").AsInt(), 3);
  EXPECT_EQ(Must("reverse('日本語')").AsString(), "語本日");
  EXPECT_EQ(Must("size('a👍b')").AsInt(), 3);
  EXPECT_EQ(Must("reverse('a👍b')").AsString(), "b👍a");
  EXPECT_EQ(Must("substring('a👍b', 1, 1)").AsString(), "👍");
  // split() on a multi-byte separator keeps pieces intact.
  Value parts = Must("split('héxllo', 'é')");
  ASSERT_TRUE(parts.is_list());
  ASSERT_EQ(parts.AsList().size(), 2u);
  EXPECT_EQ(parts.AsList()[0].AsString(), "h");
  EXPECT_EQ(parts.AsList()[1].AsString(), "xllo");
}

TEST_F(FunctionsTest, UnicodeCaseMapping) {
  // ASCII fast path.
  EXPECT_EQ(Must("toUpper('hello!')").AsString(), "HELLO!");
  EXPECT_EQ(Must("toLower('HeLLo!')").AsString(), "hello!");
  // Latin-1 Supplement.
  EXPECT_EQ(Must("toUpper('café')").AsString(), "CAFÉ");
  EXPECT_EQ(Must("toLower('ÀÉÎÕÜ')").AsString(), "àéîõü");
  EXPECT_EQ(Must("toUpper('àéîõü')").AsString(), "ÀÉÎÕÜ");
  // × and ÷ sit inside the letter ranges but are not letters.
  EXPECT_EQ(Must("toUpper('a×b÷c')").AsString(), "A×B÷C");
  // ÿ's uppercase lives in Latin Extended-A.
  EXPECT_EQ(Must("toUpper('ÿ')").AsString(), "Ÿ");
  EXPECT_EQ(Must("toLower('Ÿ')").AsString(), "ÿ");
  // Latin Extended-A pairs (even/upper and odd/upper subranges).
  EXPECT_EQ(Must("toUpper('āćłńšž')").AsString(), "ĀĆŁŃŠŽ");
  EXPECT_EQ(Must("toLower('ĀĆŁŃŠŽ')").AsString(), "āćłńšž");
  // Asymmetric exceptions: dotted/dotless i, long s; ß has no simple
  // uppercase and passes through.
  EXPECT_EQ(Must("toLower('İ')").AsString(), "i");
  EXPECT_EQ(Must("toUpper('ı')").AsString(), "I");
  EXPECT_EQ(Must("toUpper('ſ')").AsString(), "S");
  EXPECT_EQ(Must("toUpper('straße')").AsString(), "STRAßE");
  // Greek, including final sigma and tonos/dialytika accents.
  EXPECT_EQ(Must("toUpper('αβγδς')").AsString(), "ΑΒΓΔΣ");
  EXPECT_EQ(Must("toLower('ΑΒΓΔΣ')").AsString(), "αβγδσ");
  EXPECT_EQ(Must("toUpper('αέρας')").AsString(), "ΑΈΡΑΣ");
  EXPECT_EQ(Must("toLower('ΑΈΡΙΟ')").AsString(), "αέριο");
  EXPECT_EQ(Must("toUpper('ήίόύώϊ')").AsString(), "ΉΊΌΎΏΪ");
  EXPECT_EQ(Must("toLower('ΉΊΌΎΏΪ')").AsString(), "ήίόύώϊ");
  // Cyrillic (basic + Ё).
  EXPECT_EQ(Must("toUpper('привёт')").AsString(), "ПРИВЁТ");
  EXPECT_EQ(Must("toLower('ПРИВЁТ')").AsString(), "привёт");
  // Out-of-table code points pass through unchanged.
  EXPECT_EQ(Must("toUpper('日本語a👍')").AsString(), "日本語A👍");
}

TEST_F(FunctionsTest, ToIntegerTrimsWhitespace) {
  EXPECT_EQ(Must("toInteger('  42  ')").AsInt(), 42);
  EXPECT_EQ(Must("toInteger('\\t-7\\n')").AsInt(), -7);
  EXPECT_EQ(Must("toInteger(' 42.9 ')").AsInt(), 42);
  EXPECT_TRUE(Must("toInteger('   ')").is_null());
  EXPECT_TRUE(Must("toInteger('4 2')").is_null());
  // strtod-isms Neo4j rejects: hex and lowercase inf/nan...
  EXPECT_TRUE(Must("toInteger(' 0x1A ')").is_null());
  EXPECT_TRUE(Must("toFloat('inf')").is_null());
  EXPECT_TRUE(Must("toFloat('nan')").is_null());
  // ...but the exact-case Java forms convert (Double.parseDouble).
  EXPECT_TRUE(std::isinf(Must("toFloat('Infinity')").AsFloat()));
  EXPECT_LT(Must("toFloat('-Infinity')").AsFloat(), 0);
  EXPECT_TRUE(std::isnan(Must("toFloat('NaN')").AsFloat()));
  EXPECT_TRUE(Must("toInteger('Infinity')").is_null());
  EXPECT_EQ(Must("toInteger('+5')").AsInt(), 5);
  EXPECT_EQ(Must("toInteger(' 6e2 ')").AsInt(), 600);
  EXPECT_DOUBLE_EQ(Must("toFloat(' 3.5 ')").AsFloat(), 3.5);
  // Full 64-bit precision (a double-roundtrip would land on ...5808).
  EXPECT_EQ(Must("toInteger('9223372036854775807')").AsInt(),
            INT64_MAX);
}

TEST_F(FunctionsTest, AbsAndToIntegerOverflow) {
  EXPECT_EQ(Must("abs(-9223372036854775807)").AsInt(), INT64_MAX);
  auto r = Eval("abs(-9223372036854775807 - 1)");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kEvaluationError);
  EXPECT_NE(r.status().message().find("integer overflow"), std::string::npos);
  // toInteger on a float that cannot fit raises; huge float strings are
  // a conversion failure → null.
  EXPECT_FALSE(Eval("toInteger(1e300)").ok());
  EXPECT_TRUE(Must("toInteger('1e300')").is_null());
}

}  // namespace
}  // namespace gqlite
