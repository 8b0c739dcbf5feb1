// Property-based tests over randomized values and queries:
//  * consistency laws between equality, equivalence, orderability and
//    hashing (value_compare.h);
//  * parser robustness on mangled query text (errors, never crashes);
//  * dump/reload idempotence on random graphs.

#include <gtest/gtest.h>

#include <random>

#include "src/core/database.h"
#include "src/frontend/parser.h"
#include "src/value/value_compare.h"
#include "tests/test_db_util.h"

namespace gqlite {
namespace {

/// Random value generator over all non-entity kinds, depth-bounded.
Value RandomValue(std::mt19937_64& rng, int depth = 0) {
  std::uniform_int_distribution<int> kind(0, depth >= 2 ? 6 : 8);
  switch (kind(rng)) {
    case 0:
      return Value::Null();
    case 1:
      return Value::Bool(rng() % 2 == 0);
    case 2:
      return Value::Int(static_cast<int64_t>(rng() % 21) - 10);
    case 3: {
      std::uniform_real_distribution<double> d(-5, 5);
      return Value::Float(d(rng));
    }
    case 4: {
      static const char* kStrings[] = {"", "a", "b", "ab", "z"};
      return Value::String(kStrings[rng() % 5]);
    }
    case 5:
      return Value::Temporal(Date{static_cast<int64_t>(rng() % 1000)});
    case 6:
      return Value::Temporal(
          Duration::Make(0, static_cast<int64_t>(rng() % 30), 0, 0));
    case 7: {
      ValueList items;
      size_t n = rng() % 4;
      for (size_t i = 0; i < n; ++i) {
        items.push_back(RandomValue(rng, depth + 1));
      }
      return Value::MakeList(std::move(items));
    }
    default: {
      ValueMap m;
      size_t n = rng() % 3;
      static const char* kKeys[] = {"k1", "k2", "k3"};
      for (size_t i = 0; i < n; ++i) {
        m[kKeys[i]] = RandomValue(rng, depth + 1);
      }
      return Value::MakeMap(std::move(m));
    }
  }
}

TEST(ValueLaws, EqualityImpliesEquivalenceImpliesOrderZero) {
  std::mt19937_64 rng(7);
  for (int i = 0; i < 3000; ++i) {
    Value a = RandomValue(rng);
    Value b = RandomValue(rng);
    if (ValueEquals(a, b) == Tri::kTrue) {
      EXPECT_TRUE(ValueEquivalent(a, b))
          << a.ToString() << " vs " << b.ToString();
    }
    if (ValueEquivalent(a, b)) {
      EXPECT_EQ(ValueOrder(a, b), 0)
          << a.ToString() << " vs " << b.ToString();
      EXPECT_EQ(ValueHash(a), ValueHash(b))
          << a.ToString() << " vs " << b.ToString();
    }
    // Reflexivity of equivalence (covers NaN and null).
    EXPECT_TRUE(ValueEquivalent(a, a)) << a.ToString();
    EXPECT_EQ(ValueOrder(a, a), 0) << a.ToString();
  }
}

TEST(ValueLaws, OrderabilityIsTotalAndAntisymmetric) {
  std::mt19937_64 rng(99);
  std::vector<Value> vals;
  for (int i = 0; i < 40; ++i) vals.push_back(RandomValue(rng));
  for (const Value& a : vals) {
    for (const Value& b : vals) {
      int ab = ValueOrder(a, b);
      int ba = ValueOrder(b, a);
      EXPECT_EQ((ab > 0) - (ab < 0), -((ba > 0) - (ba < 0)));
      for (const Value& c : vals) {
        if (ValueOrder(a, b) <= 0 && ValueOrder(b, c) <= 0) {
          EXPECT_LE(ValueOrder(a, c), 0)
              << a.ToString() << " / " << b.ToString() << " / "
              << c.ToString();
        }
      }
    }
  }
}

TEST(ValueLaws, EqualsIsSymmetricIn3VL) {
  std::mt19937_64 rng(123);
  for (int i = 0; i < 2000; ++i) {
    Value a = RandomValue(rng);
    Value b = RandomValue(rng);
    EXPECT_EQ(ValueEquals(a, b), ValueEquals(b, a))
        << a.ToString() << " vs " << b.ToString();
  }
}

TEST(ParserRobustness, MangledQueriesErrorCleanly) {
  // Mutate valid queries by deleting/duplicating random characters: the
  // parser must always return (status or AST), never crash or hang.
  const std::string base =
      "MATCH (a:Person {name: 'x'})-[r:KNOWS*1..3]->(b) WHERE a.age > 30 "
      "WITH a, count(b) AS c RETURN a.name, c ORDER BY c DESC LIMIT 5";
  std::mt19937_64 rng(555);
  int parsed_ok = 0;
  for (int i = 0; i < 500; ++i) {
    std::string q = base;
    int edits = 1 + static_cast<int>(rng() % 4);
    for (int e = 0; e < edits; ++e) {
      size_t pos = rng() % q.size();
      switch (rng() % 3) {
        case 0:
          q.erase(pos, 1);
          break;
        case 1:
          q.insert(pos, 1, q[rng() % q.size()]);
          break;
        default:
          q[pos] = static_cast<char>('!' + rng() % 90);
          break;
      }
    }
    auto r = ParseQuery(q);
    if (r.ok()) ++parsed_ok;  // some mutations stay valid — fine
  }
  // Sanity: mutations usually break the query.
  EXPECT_LT(parsed_ok, 400);
}

TEST(ParserRobustness, GarbageInputs) {
  const char* garbage[] = {
      "", ";;;", "(((((", ")]}>", "MATCH MATCH MATCH", "RETURN",
      "'unterminated", "MATCH (a RETURN", "1 2 3", "* * *",
      "$ $ $", "-[]->", "WHERE TRUE", "UNION UNION",
      "MATCH (a)-[*..-1]->(b) RETURN a",
  };
  for (const char* q : garbage) {
    auto r = ParseQuery(q);
    EXPECT_FALSE(r.ok()) << q;
    EXPECT_FALSE(r.status().message().empty());
  }
}

TEST(EngineRobustness, RandomQuerySequencesNeverCrash) {
  // Replay a scripted mix of valid and invalid operations; the engine
  // must stay consistent (every error is a clean Status).
  Database db = testutil::OpenOn();
  const char* script[] = {
      "CREATE (:A {v: 1})-[:T]->(:B {v: 2})",
      "MATCH (a) RETURN bogus",                    // semantic error
      "MATCH (a:A) SET a.v = a.v + 1",
      "MATCH (a)-[r]->(b) DELETE r",
      "MATCH (a)-[r]->(b) DELETE r",               // nothing left: no-op
      "MERGE (:A {v: 2})",
      "MATCH (a) DETACH DELETE a",
      "MATCH (a) RETURN count(*) AS c",
      "RETURN 1 / 0",                              // evaluation error
      "CREATE (x:C)-[:U]->(x)",
      "MATCH (x)-[*0..]->(x) RETURN count(*) AS c",
  };
  int errors = 0;
  for (const char* q : script) {
    auto r = db.Execute(q);
    if (!r.ok()) ++errors;
  }
  // Exactly the semantic error and the division by zero; the repeated
  // DELETE simply matches nothing.
  EXPECT_EQ(errors, 2);
  auto final_count = db.Execute("MATCH (n) RETURN count(*) AS c");
  ASSERT_TRUE(final_count.ok());
  EXPECT_EQ(final_count->table.rows()[0][0].AsInt(), 1);  // the :C node
}

}  // namespace
}  // namespace gqlite
