// TCK-style acceptance scenarios (the openCypher project publishes a
// Technology Compatibility Kit, §5; these tests follow its
// given-setup/when-query/then-rows style). Every scenario runs through
// BOTH executors — the reference interpreter and the Volcano runtime —
// so the suite doubles as a parity harness on handwritten cases.
//
// Expected rows are written as formatted cell values (FormatValue), with
// row order ignored unless the query has ORDER BY (the harness sorts
// both sides canonically).

#include <gtest/gtest.h>

#include <cstdlib>

#include "src/core/database.h"
#include "src/plan/runtime.h"
#include "tests/test_db_util.h"

namespace gqlite {
namespace {

struct Scenario {
  const char* name;
  std::vector<const char*> setup;
  const char* query;
  std::vector<std::vector<const char*>> expected;  // formatted cells
  bool ordered = false;
};

std::vector<Scenario> Scenarios() {
  return {
      // ---- MATCH basics ----------------------------------------------------
      {"match all nodes on empty graph", {}, "MATCH (n) RETURN n", {}},
      {"match returns every node",
       {"CREATE (:A), (:B)"},
       "MATCH (n) RETURN count(*) AS c",
       {{"2"}}},
      {"label filters",
       {"CREATE (:A {v: 1}), (:B {v: 2}), (:A:B {v: 3})"},
       "MATCH (n:A) RETURN n.v AS v ORDER BY v",
       {{"1"}, {"3"}},
       true},
      {"property map in node pattern",
       {"CREATE ({v: 1, w: 1}), ({v: 1, w: 2})"},
       "MATCH (n {v: 1, w: 2}) RETURN n.w AS w",
       {{"2"}}},
      {"anonymous nodes do not join",
       {"CREATE (:A)-[:T]->(:B), (:A)-[:T]->(:B)"},
       "MATCH ()-[:T]->() RETURN count(*) AS c",
       {{"2"}}},
      {"direction matters",
       {"CREATE (a:A)-[:T]->(b:B)"},
       "MATCH (b:B)-[:T]->(a:A) RETURN count(*) AS c",
       {{"0"}}},
      {"undirected matches both ways",
       {"CREATE (a:A)-[:T]->(b:B)"},
       "MATCH (x)-[:T]-(y) RETURN count(*) AS c",
       {{"2"}}},
      {"multiple types",
       {"CREATE (a)-[:X]->(b), (a)-[:Y]->(b), (a)-[:Z]->(b)"},
       "MATCH ()-[r:X|Y]->() RETURN count(*) AS c",
       {{"2"}}},
      {"pattern tuple is a join",
       {"CREATE (a:A)-[:T]->(b:B), (b)-[:U]->(c:C)"},
       "MATCH (a:A)-[:T]->(m), (m)-[:U]->(c:C) RETURN count(*) AS c",
       {{"1"}}},
      {"relationship variable reuse joins",
       {"CREATE (a:A)-[:T {w: 1}]->(b:B)"},
       "MATCH (a)-[r]->(b) MATCH (x)-[r]->(y) RETURN count(*) AS c",
       {{"1"}}},

      // ---- Variable length --------------------------------------------------
      {"star means one or more",
       {"CREATE (a:S)-[:T]->(b)-[:T]->(c)"},
       "MATCH (a:S)-[:T*]->(x) RETURN count(*) AS c",
       {{"2"}}},
      {"zero length includes self",
       {"CREATE (a:S)-[:T]->(b)"},
       "MATCH (a:S)-[:T*0..1]->(x) RETURN count(*) AS c",
       {{"2"}}},
      {"exact length",
       {"CREATE (a:S)-[:T]->(b)-[:T]->(c)-[:T]->(d)"},
       "MATCH (:S)-[:T*3]->(x) RETURN count(*) AS c",
       {{"1"}}},
      {"variable length respects rel uniqueness",
       {"CREATE (a)-[:T]->(b), (b)-[:T]->(a)"},
       "MATCH (x)-[:T*4]->(y) RETURN count(*) AS c",
       {{"0"}}},  // only 2 rels exist; a length-4 trail is impossible
      {"size of relationship list",
       {"CREATE (a:S)-[:T]->(b)-[:T]->(c)"},
       "MATCH (:S)-[rs:T*1..2]->() RETURN size(rs) AS n ORDER BY n",
       {{"1"}, {"2"}},
       true},

      // A relationship-pattern property constraint must only be evaluated
      // for candidate relationships — a row with none never evaluates the
      // (here: overflowing) expression. Guards the batched runtime's
      // lazily-hoisted constraint evaluation.
      {"rel property constraint unevaluated without candidates",
       {"CREATE (:P {big: 9223372036854775807})"},
       "MATCH (a:P)-[:NOPE {w: a.big + a.big}]->(b) RETURN b",
       {}},
      {"varlength property constraint unevaluated without candidates",
       {"CREATE (:P {big: 9223372036854775807})"},
       "MATCH (a:P)-[:NOPE*1..2 {w: a.big + a.big}]->(b) RETURN b",
       {}},
      // Keys short-circuit left to right per candidate: when every
      // candidate fails an earlier key, a later (erroring) expression is
      // never evaluated.
      {"rel property constraint keys short-circuit",
       {"CREATE (:P {big: 9223372036854775807})-[:T {ok: 1}]->(:Q)"},
       "MATCH (a:P)-[:T {ok: 2, w: a.big + a.big}]->(b) RETURN b",
       {}},

      // ---- OPTIONAL MATCH ---------------------------------------------------
      {"optional match pads with null",
       {"CREATE (:A)"},
       "MATCH (a:A) OPTIONAL MATCH (a)-[:T]->(b) RETURN b",
       {{"null"}}},
      {"optional match keeps matches",
       {"CREATE (:A)-[:T]->(:B {v: 7})"},
       "MATCH (a:A) OPTIONAL MATCH (a)-[:T]->(b) RETURN b.v AS v",
       {{"7"}}},
      {"where inside optional decides padding",
       {"CREATE (:A)-[:T]->(:B {v: 1})"},
       "MATCH (a:A) OPTIONAL MATCH (a)-[:T]->(b) WHERE b.v > 5 RETURN b",
       {{"null"}}},
      {"optional then aggregate counts zero",
       {"CREATE (:A)"},
       "MATCH (a:A) OPTIONAL MATCH (a)-[:T]->(b) RETURN count(b) AS c",
       {{"0"}}},

      // ---- WHERE and null handling ------------------------------------------
      {"where drops null comparisons",
       {"CREATE ({v: 1}), ({v: 2}), ({w: 3})"},
       "MATCH (n) WHERE n.v > 1 RETURN count(*) AS c",
       {{"1"}}},
      {"is null predicate",
       {"CREATE ({v: 1}), ({w: 1})"},
       "MATCH (n) WHERE n.v IS NULL RETURN count(*) AS c",
       {{"1"}}},
      {"label predicate in where",
       {"CREATE (:A), (:B), (:A:B)"},
       "MATCH (n) WHERE n:A AND NOT n:B RETURN count(*) AS c",
       {{"1"}}},
      {"pattern predicate in where",
       {"CREATE (:A)-[:T]->(), (:A)"},
       "MATCH (a:A) WHERE (a)-[:T]->() RETURN count(*) AS c",
       {{"1"}}},
      {"negated pattern predicate",
       {"CREATE (:A)-[:T]->(), (:A)"},
       "MATCH (a:A) WHERE NOT (a)-[:T]->() RETURN count(*) AS c",
       {{"1"}}},
      {"in list with nulls",
       {"CREATE ({v: 1}), ({v: 2})"},
       "MATCH (n) WHERE n.v IN [1, null] RETURN count(*) AS c",
       {{"1"}}},

      // ---- WITH pipeline ----------------------------------------------------
      {"with renames and filters",
       {"CREATE ({v: 1}), ({v: 2}), ({v: 3})"},
       "MATCH (n) WITH n.v AS v WHERE v >= 2 RETURN sum(v) AS s",
       {{"5"}}},
      {"with distinct",
       {"CREATE ({v: 1}), ({v: 1}), ({v: 2})"},
       "MATCH (n) WITH DISTINCT n.v AS v RETURN count(*) AS c",
       {{"2"}}},
      {"with limit then expand",
       {"CREATE (:A {v: 1})-[:T]->(:B), (:A {v: 2})-[:T]->(:B)"},
       "MATCH (a:A) WITH a ORDER BY a.v LIMIT 1 MATCH (a)-[:T]->(b) "
       "RETURN count(*) AS c",
       {{"1"}}},
      {"aggregate then continue",
       {"CREATE ({v: 1}), ({v: 2})"},
       "MATCH (n) WITH count(*) AS n1 MATCH (m) RETURN n1 + count(m) AS t",
       {{"4"}}},

      // ---- RETURN details ----------------------------------------------------
      {"return expression columns get derived names",
       {"CREATE ({v: 41})"},
       "MATCH (n) RETURN n.v + 1",
       {{"42"}}},
      {"return distinct rows",
       {"CREATE ({v: 1}), ({v: 1})"},
       "MATCH (n) RETURN DISTINCT n.v AS v",
       {{"1"}}},
      {"order by with nulls last ascending",
       {"CREATE ({v: 2}), ({v: 1}), ({w: 0})"},
       "MATCH (n) RETURN n.v AS v ORDER BY v",
       {{"1"}, {"2"}, {"null"}},
       true},
      {"skip and limit window",
       {"CREATE ({v: 1}), ({v: 2}), ({v: 3}), ({v: 4})"},
       "MATCH (n) RETURN n.v AS v ORDER BY v SKIP 1 LIMIT 2",
       {{"2"}, {"3"}},
       true},

      // ---- UNWIND ------------------------------------------------------------
      {"unwind literal list", {}, "UNWIND [1, 2, 3] AS x RETURN x ORDER BY x",
       {{"1"}, {"2"}, {"3"}},
       true},
      {"unwind empty list gives no rows",
       {},
       "UNWIND [] AS x RETURN x",
       {}},
      {"unwind range",
       {},
       "UNWIND range(1, 3) AS x RETURN sum(x) AS s",
       {{"6"}}},
      {"unwind collected list round trip",
       {"CREATE ({v: 1}), ({v: 2})"},
       "MATCH (n) WITH collect(n.v) AS vs UNWIND vs AS v RETURN v ORDER BY v",
       {{"1"}, {"2"}},
       true},

      // ---- UNION -------------------------------------------------------------
      {"union deduplicates",
       {"CREATE (:A {v: 1}), (:B {v: 1})"},
       "MATCH (a:A) RETURN a.v AS v UNION MATCH (b:B) RETURN b.v AS v",
       {{"1"}}},
      {"union all keeps duplicates",
       {"CREATE (:A {v: 1}), (:B {v: 1})"},
       "MATCH (a:A) RETURN a.v AS v UNION ALL MATCH (b:B) RETURN b.v AS v",
       {{"1"}, {"1"}}},

      // ---- Expressions in query context ---------------------------------------
      {"case in return",
       {"CREATE ({v: 1}), ({v: 2})"},
       "MATCH (n) RETURN CASE WHEN n.v = 1 THEN 'one' ELSE 'more' END AS w "
       "ORDER BY w",
       {{"'more'"}, {"'one'"}},
       true},
      {"list comprehension over collect",
       {"CREATE ({v: 1}), ({v: 2}), ({v: 3})"},
       "MATCH (n) WITH collect(n.v) AS vs "
       "RETURN [x IN vs WHERE x > 1 | x * 2] AS doubled",
       {{"[4, 6]"}}},
      {"path functions",
       {"CREATE (:S {v: 1})-[:T {w: 9}]->({v: 2})"},
       "MATCH p = (:S)-[:T]->() RETURN length(p) AS len, "
       "size(nodes(p)) AS ns, size(relationships(p)) AS rs",
       {{"1", "2", "1"}}},
      {"labels and type functions",
       {"CREATE (:A:B)-[:REL]->()"},
       "MATCH (a:A)-[r]->() RETURN size(labels(a)) AS nl, type(r) AS t",
       {{"2", "'REL'"}}},
      {"coalesce over missing property",
       {"CREATE ({v: 1}), ({w: 2})"},
       "MATCH (n) RETURN coalesce(n.v, -1) AS v ORDER BY v",
       {{"-1"}, {"1"}},
       true},

      // ---- Self loops & cycles -------------------------------------------------
      {"self loop matches once each direction",
       {"CREATE (a:L), (a)-[:T]->(a)"},
       "MATCH (x:L)-[:T]-(y) RETURN count(*) AS c",
       {{"1"}}},
      {"two node cycle",
       {"CREATE (a)-[:T]->(b), (b)-[:T]->(a)"},
       "MATCH (x)-[:T]->(y)-[:T]->(x) RETURN count(*) AS c",
       {{"2"}}},

      // ---- Temporal --------------------------------------------------------------
      {"temporal ordering",
       {"CREATE ({d: date('2018-06-10')}), ({d: date('2018-01-01')})"},
       "MATCH (n) RETURN n.d AS d ORDER BY d LIMIT 1",
       {{"2018-01-01"}},
       true},
      {"duration components in query",
       {},
       "RETURN duration('P1Y6M3DT12H').months AS m, "
       "duration('P1Y6M3DT12H').days AS d",
       {{"18", "3"}}},

      // ---- Second batch: interactions & edge cases ------------------------------
      {"two optional matches stack nulls",
       {"CREATE (:A)"},
       "MATCH (a:A) OPTIONAL MATCH (a)-[:X]->(x) "
       "OPTIONAL MATCH (a)-[:Y]->(y) RETURN x, y",
       {{"null", "null"}}},
      {"optional match on bound null stays null",
       {"CREATE (:A)"},
       "MATCH (a:A) OPTIONAL MATCH (a)-[:X]->(x) "
       "OPTIONAL MATCH (x)-[:Y]->(z) RETURN z",
       {{"null"}}},
      {"match after optional uses bound value",
       {"CREATE (:A)-[:X]->(:B)-[:Y]->(:C)"},
       "MATCH (a:A) OPTIONAL MATCH (a)-[:X]->(b) MATCH (b)-[:Y]->(c) "
       "RETURN count(c) AS n",
       {{"1"}}},
      {"where between two matches filters the pipeline",
       {"CREATE (:A {v: 1})-[:T]->(:B), (:A {v: 2})-[:T]->(:B)"},
       "MATCH (a:A) WITH a WHERE a.v = 1 MATCH (a)-[:T]->(b) "
       "RETURN count(b) AS n",
       {{"1"}}},
      {"cartesian product of disconnected patterns",
       {"CREATE (:A), (:A), (:B), (:B), (:B)"},
       "MATCH (a:A), (b:B) RETURN count(*) AS c",
       {{"6"}}},
      {"cartesian with predicate join",
       {"CREATE (:A {k: 1}), (:A {k: 2}), (:B {k: 1})"},
       "MATCH (a:A), (b:B) WHERE a.k = b.k RETURN count(*) AS c",
       {{"1"}}},
      {"var-length both directions",
       {"CREATE (a:S)-[:T]->(b), (c)-[:T]->(a)"},
       "MATCH (:S)-[:T*1]-(x) RETURN count(*) AS c",
       {{"2"}}},
      {"deep chain exact bound",
       {"CREATE (n0:S)-[:T]->(n1)-[:T]->(n2)-[:T]->(n3)-[:T]->(n4)"},
       "MATCH (:S)-[:T*4]->(x) RETURN count(*) AS c",
       {{"1"}}},
      {"distinct nodes of undirected triangle",
       {"CREATE (a)-[:T]->(b), (b)-[:T]->(c), (c)-[:T]->(a)"},
       "MATCH (x)-[:T]-(y) RETURN count(DISTINCT x) AS c",
       {{"3"}}},
      {"merge inside pipeline per row",
       {"CREATE ({v: 1}), ({v: 2}), ({v: 1})"},
       "MATCH (n) MERGE (k:Key {v: n.v}) RETURN count(DISTINCT k) AS c",
       {{"2"}}},
      {"set from matched value",
       {"CREATE (:A {v: 5})-[:T]->(:B)"},
       "MATCH (a:A)-[:T]->(b:B) SET b.copied = a.v WITH b "
       "RETURN b.copied AS c",
       {{"5"}}},
      {"aliasing keeps entity identity",
       {"CREATE (:A {v: 3})"},
       "MATCH (a:A) WITH a AS b RETURN b.v AS v",
       {{"3"}}},
      {"count on null-only column is zero",
       {"CREATE (:A), (:A)"},
       "MATCH (a:A) OPTIONAL MATCH (a)-[:T]->(m) "
       "RETURN count(m) AS c, count(*) AS rows",
       {{"0", "2"}}},
      {"collect of nodes renders entities",
       {"CREATE (:A {v: 1})"},
       "MATCH (a:A) RETURN size(collect(a)) AS n",
       {{"1"}}},
      {"string functions compose",
       {},
       "RETURN toUpper(trim('  ok  ')) + '!' AS s",
       {{"'OK!'"}}},
      {"arithmetic null propagation through projection",
       {"CREATE ({v: 1}), ({})"},
       "MATCH (n) RETURN n.v * 2 AS d ORDER BY d",
       {{"2"}, {"null"}},
       true},
      {"parameterless quantifier over literal",
       {},
       "RETURN all(x IN [1, 2, 3] WHERE x > 0) AS a, "
       "single(x IN [1, 2] WHERE x = 2) AS s",
       {{"true", "true"}}},
      {"reduce in query",
       {},
       "RETURN reduce(a = 0, x IN range(1, 4) | a + x) AS s",
       {{"10"}}},
      {"union of three parts",
       {"CREATE (:A {v: 1}), (:B {v: 2}), (:C {v: 2})"},
       "MATCH (a:A) RETURN a.v AS v UNION MATCH (b:B) RETURN b.v AS v "
       "UNION MATCH (c:C) RETURN c.v AS v",
       {{"1"}, {"2"}}},
      {"zero length var with label filter",
       {"CREATE (:A:Stop), (:A)-[:T]->(:Stop)"},
       "MATCH (a:A)-[:T*0..1]->(s:Stop) RETURN count(*) AS c",
       {{"2"}}},
      {"relationship property in var-length all steps",
       {"CREATE (:S)-[:T {ok: true}]->()-[:T {ok: false}]->(:E)"},
       "MATCH (:S)-[:T*2 {ok: true}]->(x) RETURN count(*) AS c",
       {{"0"}}},
      {"index into collect",
       {"CREATE ({v: 10}), ({v: 20})"},
       "MATCH (n) WITH collect(n.v) AS vs RETURN vs[0] + vs[1] AS s",
       {{"30"}}},
      {"nested maps and lists in properties",
       {"CREATE ({data: [1, [2, 3]]})"},
       "MATCH (n) RETURN n.data[1][0] AS x",
       {{"2"}}},
      {"boolean property filter shortcut",
       {"CREATE ({flag: true}), ({flag: false}), ({})"},
       "MATCH (n) WHERE n.flag RETURN count(*) AS c",
       {{"1"}}},
      {"remove then optional read",
       {"CREATE (:A {v: 1})"},
       "MATCH (a:A) REMOVE a.v WITH a RETURN a.v AS v",
       {{"null"}}},

      // ---- Third batch: OPTIONAL MATCH ------------------------------------
      {"optional match two-hop pads both columns",
       {"CREATE (:A)-[:T]->(:B)"},
       "MATCH (a:A) OPTIONAL MATCH (a)-[:X]->(b)-[:Y]->(c) RETURN b, c",
       {{"null", "null"}}},
      {"optional match keeps multiplicity",
       {"CREATE (a:A), (a)-[:T]->(:B), (a)-[:T]->(:B)"},
       "MATCH (a:A) OPTIONAL MATCH (a)-[:T]->(b) RETURN count(b) AS c",
       {{"2"}}},
      {"optional match with property map mismatch pads",
       {"CREATE (:A)-[:T]->(:B {v: 2})"},
       "MATCH (a:A) OPTIONAL MATCH (a)-[:T]->(b {v: 1}) RETURN b",
       {{"null"}}},
      {"optional match with zero anchor rows yields zero rows",
       {},
       "MATCH (a:A) OPTIONAL MATCH (a)-[:T]->(b) RETURN a, b",
       {}},
      {"optional match undirected finds either direction",
       {"CREATE (:A)<-[:T]-(:B)"},
       "MATCH (a:A) OPTIONAL MATCH (a)-[:T]-(b:B) RETURN count(b) AS c",
       {{"1"}}},
      {"optional then is-null filter counts unmatched",
       {"CREATE (:A)-[:T]->(:B), (:A), (:A)"},
       "MATCH (a:A) OPTIONAL MATCH (a)-[:T]->(b) WITH a, b "
       "WHERE b IS NULL RETURN count(a) AS c",
       {{"2"}}},
      {"optional match property of null is null",
       {"CREATE (:A)"},
       "MATCH (a:A) OPTIONAL MATCH (a)-[:T]->(b) RETURN b.v AS v",
       {{"null"}}},

      // ---- Third batch: WITH + WHERE chains -------------------------------
      {"with where chain filters twice",
       {"CREATE ({v: 1}), ({v: 2}), ({v: 3})"},
       "MATCH (n) WITH n.v * 2 AS d WHERE d > 2 "
       "WITH d + 1 AS e WHERE e < 7 RETURN sum(e) AS s",
       {{"5"}}},
      {"with distinct then where",
       {"CREATE ({v: 1}), ({v: 1}), ({v: 2}), ({v: 3})"},
       "MATCH (n) WITH DISTINCT n.v AS v WHERE v >= 2 "
       "RETURN count(*) AS c",
       {{"2"}}},
      {"with order limit then aggregate",
       {"CREATE ({v: 3}), ({v: 1}), ({v: 2})"},
       "MATCH (n) WITH n.v AS v ORDER BY v LIMIT 2 RETURN sum(v) AS s",
       {{"3"}}},
      {"with star and extra item",
       {"CREATE ({v: 1}), ({v: 2})"},
       "MATCH (n) WITH *, n.v AS v WHERE v = 1 RETURN count(n) AS c",
       {{"1"}}},
      {"having style filter on aggregate",
       {"CREATE ({g: 1}), ({g: 1}), ({g: 2})"},
       "MATCH (n) WITH n.g AS g, count(*) AS c WHERE c > 1 RETURN g",
       {{"1"}}},
      {"with window skip limit",
       {"CREATE ({v: 1}), ({v: 2}), ({v: 3}), ({v: 4})"},
       "MATCH (n) WITH n.v AS v ORDER BY v SKIP 1 LIMIT 2 "
       "RETURN sum(v) AS s",
       {{"5"}}},
      {"aggregate feeds next where",
       {"CREATE ({v: 1}), ({v: 2}), ({v: 3})"},
       "MATCH (n) WITH count(*) AS c MATCH (m) WHERE m.v < c "
       "RETURN count(m) AS k",
       {{"2"}}},
      {"with chain renames value twice",
       {"CREATE ({v: 5})"},
       "MATCH (n) WITH n.v AS a WITH a AS b WITH b + 1 AS c RETURN c",
       {{"6"}}},

      // ---- Third batch: UNWIND --------------------------------------------
      {"double unwind cross product",
       {},
       "UNWIND [1, 2] AS x UNWIND [10, 20] AS y RETURN x + y AS s "
       "ORDER BY s",
       {{"11"}, {"12"}, {"21"}, {"22"}},
       true},
      {"unwind null yields one null row (Figure 7 fidelity)",
       {},
       "UNWIND null AS x RETURN x",
       {{"null"}}},
      {"unwind scalar yields one row",
       {},
       "UNWIND 5 AS x RETURN x",
       {{"5"}}},
      {"unwind nested lists",
       {},
       "UNWIND [[1, 2], [3]] AS l RETURN size(l) AS s ORDER BY s",
       {{"1"}, {"2"}},
       true},
      {"unwind range with step",
       {},
       "UNWIND range(0, 6, 2) AS x RETURN sum(x) AS s",
       {{"12"}}},
      {"unwind drives match",
       {"CREATE ({v: 1}), ({v: 2}), ({v: 3})"},
       "UNWIND [1, 3] AS id MATCH (n {v: id}) RETURN sum(n.v) AS s",
       {{"4"}}},
      {"unwind distinct collect",
       {"CREATE ({v: 1}), ({v: 1}), ({v: 2})"},
       "MATCH (n) WITH collect(DISTINCT n.v) AS vs UNWIND vs AS v "
       "RETURN count(v) AS c",
       {{"2"}}},

      // ---- Third batch: MERGE ---------------------------------------------
      {"merge creates when absent",
       {},
       "MERGE (n:X {v: 1}) RETURN n.v AS v",
       {{"1"}}},
      {"merge matches existing",
       {"CREATE (:X {v: 1})"},
       "MERGE (n:X {v: 1}) RETURN count(*) AS c",
       {{"1"}}},
      {"merge on create set",
       {},
       "MERGE (n:X {v: 1}) ON CREATE SET n.s = 'new' RETURN n.s AS s",
       {{"'new'"}}},
      {"merge on match set",
       {"CREATE (:X {v: 1})"},
       "MERGE (n:X {v: 1}) ON MATCH SET n.s = 'old' RETURN n.s AS s",
       {{"'old'"}}},
      {"merge relationship between matched nodes",
       {"CREATE (:A), (:B)"},
       "MATCH (a:A), (b:B) MERGE (a)-[r:L]->(b) RETURN count(r) AS c",
       {{"1"}}},
      {"merge in setup is idempotent",
       {"CREATE ({v: 1}), ({v: 1})", "MATCH (n) MERGE (k:K {v: n.v})"},
       "MATCH (k:K) RETURN count(*) AS c",
       {{"1"}}},

      // ---- Third batch: DELETE / SET / REMOVE -----------------------------
      {"delete in setup removes nodes",
       {"CREATE (:D {v: 1}), (:D {v: 2}), (:D {v: 3})",
        "MATCH (d:D {v: 1}) DELETE d"},
       "MATCH (d:D) RETURN count(*) AS c",
       {{"2"}}},
      {"detach delete removes relationships",
       {"CREATE (:A)-[:T]->(:B)", "MATCH (a:A) DETACH DELETE a"},
       "MATCH ()-[r]->() RETURN count(r) AS c",
       {{"0"}}},
      {"set two properties in one clause",
       {"CREATE (:S)"},
       "MATCH (n:S) SET n.a = 1, n.b = 2 WITH n RETURN n.a + n.b AS s",
       {{"3"}}},
      {"set plus-equals merges maps",
       {"CREATE (:S {a: 1})"},
       "MATCH (n:S) SET n += {a: 10, b: 2} WITH n RETURN n.a + n.b AS s",
       {{"12"}}},
      {"set equals replaces all properties",
       {"CREATE (:S {a: 1, b: 2})"},
       "MATCH (n:S) SET n = {x: 5} WITH n RETURN n.x AS x, n.a AS a",
       {{"5", "null"}}},
      {"set adds label",
       {"CREATE (:S)"},
       "MATCH (n:S) SET n:Extra WITH n RETURN size(labels(n)) AS c",
       {{"2"}}},
      {"remove label",
       {"CREATE (:A:B)"},
       "MATCH (n:A) REMOVE n:B WITH n RETURN size(labels(n)) AS c",
       {{"1"}}},
      {"remove property then coalesce",
       {"CREATE (:S {v: 1})"},
       "MATCH (n:S) REMOVE n.v WITH n RETURN coalesce(n.v, -1) AS v",
       {{"-1"}}},

      // ---- Third batch: SKIP / LIMIT --------------------------------------
      {"limit zero returns nothing",
       {"CREATE ({v: 1}), ({v: 2})"},
       "MATCH (n) RETURN n.v AS v LIMIT 0",
       {}},
      {"skip past end returns nothing",
       {"CREATE ({v: 1})"},
       "MATCH (n) RETURN n.v AS v SKIP 5",
       {}},
      {"descending order with window",
       {"CREATE ({v: 1}), ({v: 2}), ({v: 3}), ({v: 4})"},
       "MATCH (n) RETURN n.v AS v ORDER BY v DESC SKIP 1 LIMIT 2",
       {{"3"}, {"2"}},
       true},
      {"order by two keys mixed directions",
       {"CREATE ({a: 1, b: 2}), ({a: 1, b: 1}), ({a: 0, b: 9})"},
       "MATCH (n) RETURN n.a AS a, n.b AS b ORDER BY a, b DESC",
       {{"0", "9"}, {"1", "2"}, {"1", "1"}},
       true},
      {"limit applies after order in with",
       {"CREATE ({v: 3}), ({v: 1}), ({v: 2})"},
       "MATCH (n) WITH n ORDER BY n.v DESC LIMIT 1 RETURN n.v AS v",
       {{"3"}}},

      // ---- Third batch: three-valued null logic ---------------------------
      {"null equals null is null in where",
       {"CREATE ({v: 1})"},
       "MATCH (n) WHERE null = null RETURN count(*) AS c",
       {{"0"}}},
      {"null comparisons project null",
       {},
       "RETURN null = null AS a, null <> null AS b",
       {{"null", "null"}}},
      {"three valued and or truth table",
       {},
       "RETURN true OR null AS a, false OR null AS b, true AND null AS c, "
       "false AND null AS d",
       {{"true", "null", "null", "false"}}},
      {"not null is null",
       {},
       "RETURN NOT null AS x",
       {{"null"}}},
      {"xor with null is null",
       {},
       "RETURN true XOR null AS x",
       {{"null"}}},
      {"in list three valued",
       {},
       "RETURN 1 IN [1, null] AS hit, 2 IN [1, null] AS maybe",
       {{"true", "null"}}},
      {"null arithmetic propagates",
       {},
       "RETURN null + 1 AS a, null * 2 AS b",
       {{"null", "null"}}},
      {"negated comparison drops nulls too",
       {"CREATE ({v: 1}), ({v: 2}), ({})"},
       "MATCH (n) WHERE NOT (n.v > 1) RETURN count(*) AS c",
       {{"1"}}},
      {"coalesce skips leading nulls",
       {},
       "RETURN coalesce(null, null, 7, 8) AS v",
       {{"7"}}},

      // ---- Third batch: list comprehensions -------------------------------
      {"comprehension map only",
       {},
       "RETURN [x IN [1, 2, 3] | x * x] AS xs",
       {{"[1, 4, 9]"}}},
      {"comprehension filter only",
       {},
       "RETURN [x IN [1, 2, 3] WHERE x % 2 = 1] AS xs",
       {{"[1, 3]"}}},
      {"nested comprehension",
       {},
       "RETURN [x IN [1, 2] | [y IN [1, 2] | x * y]] AS xs",
       {{"[[1, 2], [2, 4]]"}}},
      {"comprehension filters nulls",
       {},
       "RETURN size([x IN [1, null, 3] WHERE x IS NOT NULL]) AS c",
       {{"2"}}},
      {"reduce over filtered range",
       {},
       "RETURN reduce(s = 0, x IN [y IN range(1, 4) WHERE y > 1] | s + x) "
       "AS s",
       {{"9"}}},
      {"quantifier over comprehension",
       {},
       "RETURN all(y IN [x IN [2, 4] | x] WHERE y % 2 = 0) AS a",
       {{"true"}}},

      // ---- Third batch: aggregates ----------------------------------------
      {"aggregates on empty input",
       {},
       "MATCH (n:None) RETURN count(n) AS c, sum(n.v) AS s, avg(n.v) AS a, "
       "collect(n.v) AS l",
       {{"0", "0", "null", "[]"}}},
      {"count distinct versus count",
       {"CREATE ({v: 1}), ({v: 1}), ({v: 2})"},
       "MATCH (n) RETURN count(n.v) AS c, count(DISTINCT n.v) AS d",
       {{"3", "2"}}},

      // An aggregate may sit anywhere inside a projection item; the item
      // is evaluated per group over the aggregate's value.
      {"aggregate under index",
       {"CREATE (:N {k: 1, v: 1}), (:N {k: 1, v: 2}), (:N {k: 2, v: 3})"},
       "MATCH (n:N) RETURN collect(n.v)[0] AS first",
       {{"1"}}},
      {"aggregate under slice",
       {"CREATE (:N {k: 1, v: 1}), (:N {k: 1, v: 2}), (:N {k: 2, v: 3})"},
       "MATCH (n:N) RETURN collect(n.v)[0..2] AS firsts",
       {{"[1, 2]"}}},
      {"aggregate under CASE",
       {"CREATE (:N {k: 1, v: 1}), (:N {k: 1, v: 2}), (:N {k: 2, v: 3})"},
       "MATCH (n:N) RETURN CASE WHEN count(*) > 1 THEN 'many' ELSE 'few' END "
       "AS size",
       {{"'many'"}}},
      {"aggregate under property access",
       {"CREATE (:N {k: 1, v: 1}), (:N {k: 1, v: 2}), (:N {k: 2, v: 3})"},
       "MATCH (n:N) RETURN {vs: collect(n.v)}.vs AS vs",
       {{"[1, 2, 3]"}}},
      {"aggregate under list comprehension list",
       {"CREATE (:N {k: 1, v: 1}), (:N {k: 1, v: 2}), (:N {k: 2, v: 3})"},
       "MATCH (n:N) RETURN [x IN collect(n.v) WHERE x > 1] AS big",
       {{"[2, 3]"}}},
      {"aggregate under quantifier list",
       {"CREATE (:N {k: 1, v: 1}), (:N {k: 1, v: 2}), (:N {k: 2, v: 3})"},
       "MATCH (n:N) RETURN any(x IN collect(n.v) WHERE x > 2) AS some",
       {{"true"}}},
      {"aggregate under reduce list",
       {"CREATE (:N {k: 1, v: 1}), (:N {k: 1, v: 2}), (:N {k: 2, v: 3})"},
       "MATCH (n:N) RETURN reduce(s = 0, x IN collect(n.v) | s + x) AS total",
       {{"6"}}},
      {"grouped aggregate under index",
       {"CREATE (:N {k: 1, v: 1}), (:N {k: 1, v: 2}), (:N {k: 2, v: 3})"},
       "MATCH (n:N) RETURN n.k AS k, collect(n.v)[0] AS first ORDER BY k",
       {{"1", "1"}, {"2", "3"}},
       true},

      // A pattern predicate's property map may read a variable that the
      // pattern tuple binds later: the filter waits for both scans.
      {"pattern predicate map reads the later-bound variable",
       {"CREATE (:A {id: 1})-[:T]->(:B {id: 7}), "
        "(:A {id: 2})-[:T]->(:B {id: 8}), (:B {id: 9})"},
       "MATCH (a:A), (b:B) WHERE (a)-[:T]->({id: b.id}) "
       "RETURN a.id AS a, b.id AS b",
       {{"1", "7"}, {"2", "8"}}},
      {"pattern predicate map reads the later-bound variable, reversed",
       {"CREATE (:A {id: 1})-[:T]->(:B {id: 7}), "
        "(:A {id: 2})-[:T]->(:B {id: 8}), (:B {id: 9})"},
       "MATCH (b:B), (a:A) WHERE ({id: a.id})-[:T]->(b) "
       "RETURN a.id AS a, b.id AS b",
       {{"1", "7"}, {"2", "8"}}},
  };
}

/// Compares a measured result against the scenario's expected rows
/// (canonically sorted on both sides unless the query is ordered).
void CheckRows(const Scenario& s, const QueryResult& result) {
  std::vector<std::vector<std::string>> got;
  const Table& t = s.ordered ? result.table : result.table.Sorted();
  for (const auto& row : t.rows()) {
    std::vector<std::string> cells;
    for (const auto& v : row) cells.push_back(v.ToString());
    got.push_back(std::move(cells));
  }
  std::vector<std::vector<std::string>> want;
  for (const auto& row : s.expected) {
    std::vector<std::string> cells;
    for (const char* c : row) cells.emplace_back(c);
    want.push_back(std::move(cells));
  }
  if (!s.ordered) std::sort(want.begin(), want.end());
  auto got_sorted = got;
  if (!s.ordered) std::sort(got_sorted.begin(), got_sorted.end());
  EXPECT_EQ(got_sorted, want) << s.name << "\n" << result.table.ToString();
}

class TckTest : public ::testing::TestWithParam<ExecutionMode> {};

TEST_P(TckTest, Scenarios) {
  for (const Scenario& s : Scenarios()) {
    EngineOptions opts;
    opts.mode = GetParam();
    Database db = testutil::OpenOn(nullptr, opts);
    for (const char* setup : s.setup) {
      auto r = db.Execute(setup);
      ASSERT_TRUE(r.ok()) << s.name << " setup: " << r.status().ToString();
    }
    auto result = db.Execute(s.query);
    ASSERT_TRUE(result.ok()) << s.name << ": " << result.status().ToString();
    CheckRows(s, *result);
  }
}

INSTANTIATE_TEST_SUITE_P(BothExecutors, TckTest,
                         ::testing::Values(ExecutionMode::kInterpreter,
                                           ExecutionMode::kVolcano),
                         [](const auto& pinfo) {
                           return pinfo.param == ExecutionMode::kInterpreter
                                      ? "Interpreter"
                                      : "Volcano";
                         });

// Fourth executor leg: every scenario runs through the batched Volcano
// runtime at the smallest and the default morsel size, and the produced
// rows must be identical (as a bag) to the reference interpreter's — the
// comparison that catches off-by-one bugs at batch boundaries, which the
// expected-rows check alone can miss when a bug drops and duplicates
// symmetric rows.
class TckBatchTest : public ::testing::TestWithParam<size_t> {};

TEST_P(TckBatchTest, BatchedRuntimeMatchesInterpreter) {
  // GQLITE_BATCH_SIZE overrides every engine's morsel size, which would
  // silently turn this leg into a duplicate of the override's size.
  auto effective = EffectiveBatchSize(GetParam());
  if (!effective.ok() || *effective != GetParam()) {
    GTEST_SKIP() << "GQLITE_BATCH_SIZE overrides this leg's batch size";
  }
  for (const Scenario& s : Scenarios()) {
    EngineOptions iopts;
    iopts.mode = ExecutionMode::kInterpreter;
    Database interp = testutil::OpenOn(nullptr, iopts);
    EngineOptions bopts;
    bopts.mode = ExecutionMode::kVolcano;
    bopts.batch_size = GetParam();
    Database batched = testutil::OpenOn(nullptr, bopts);
    for (const char* setup : s.setup) {
      ASSERT_TRUE(interp.Execute(setup).ok()) << s.name;
      ASSERT_TRUE(batched.Execute(setup).ok()) << s.name;
    }
    auto want = interp.Execute(s.query);
    ASSERT_TRUE(want.ok()) << s.name << ": " << want.status().ToString();
    auto got = batched.Execute(s.query);
    ASSERT_TRUE(got.ok()) << s.name << ": " << got.status().ToString();
    CheckRows(s, *got);
    EXPECT_TRUE(want->table.SameBag(got->table))
        << s.name << " (batch_size=" << GetParam() << ")\ninterpreter:\n"
        << want->table.ToString() << "batched:\n" << got->table.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(MorselSizes, TckBatchTest,
                         ::testing::Values(size_t{1}, size_t{1024}),
                         [](const auto& pinfo) {
                           return "Batch" + std::to_string(pinfo.param);
                         });

// Fifth executor leg: every scenario runs through the morsel-driven
// PARALLEL runtime at four workers and must produce the same bag as the
// reference interpreter. Scenario graphs are small (often a single
// morsel) — the leg's value is routing coverage: parallel-safe plans
// take the worker-pool path, everything else (UNION, aggregating WITH,
// OPTIONAL MATCH at the driving position, updating setups) must fall
// back to the serial runtime and still agree.
TEST(TckParallel, ParallelRuntimeMatchesInterpreter) {
  // GQLITE_THREADS overrides every engine's worker count, which would
  // silently change what this leg tests (the TSan CI job sets it to 4 on
  // purpose — that keeps this leg at 4 workers, not a skip).
  auto effective = EffectiveNumThreads(4);
  if (!effective.ok() || *effective != 4u) {
    GTEST_SKIP() << "GQLITE_THREADS overrides this leg's worker count";
  }
  for (const Scenario& s : Scenarios()) {
    EngineOptions iopts;
    iopts.mode = ExecutionMode::kInterpreter;
    Database interp = testutil::OpenOn(nullptr, iopts);
    EngineOptions popts;
    popts.num_threads = 4;
    Database parallel = testutil::OpenOn(nullptr, popts);
    for (const char* setup : s.setup) {
      ASSERT_TRUE(interp.Execute(setup).ok()) << s.name;
      ASSERT_TRUE(parallel.Execute(setup).ok()) << s.name;
    }
    auto want = interp.Execute(s.query);
    ASSERT_TRUE(want.ok()) << s.name << ": " << want.status().ToString();
    auto got = parallel.Execute(s.query);
    ASSERT_TRUE(got.ok()) << s.name << ": " << got.status().ToString();
    CheckRows(s, *got);
    EXPECT_TRUE(want->table.SameBag(got->table))
        << s.name << " (num_threads=4)\ninterpreter:\n"
        << want->table.ToString() << "parallel:\n" << got->table.ToString();
  }
}

// Third executor leg: every scenario also runs through the plan cache —
// Prepare once, then (for read queries) execute repeatedly via both the
// prepared handle and the query text, all against the same expected rows.
// This is the "cached plans are indistinguishable from fresh planning"
// guarantee the cache must uphold.
TEST(TckPlanCache, CachedPlansMatchFreshPlanning) {
  for (const Scenario& s : Scenarios()) {
    // Volcano mode, plan cache on (defaults).
    Database db = testutil::OpenOn();
    for (const char* setup : s.setup) {
      auto r = db.Execute(setup);
      ASSERT_TRUE(r.ok()) << s.name << " setup: " << r.status().ToString();
    }
    auto stmt = db.Prepare(s.query);
    ASSERT_TRUE(stmt.ok()) << s.name << ": " << stmt.status().ToString();
    auto first = db.Execute(*stmt);
    ASSERT_TRUE(first.ok()) << s.name << ": " << first.status().ToString();
    CheckRows(s, *first);
    if (stmt->updating()) continue;  // re-running would mutate again

    // Second execution reuses the cached plan; the text path shares it
    // too (auto-parameterized key). Both must reproduce the first run.
    auto again = db.Execute(*stmt);
    ASSERT_TRUE(again.ok()) << s.name << ": " << again.status().ToString();
    EXPECT_TRUE(first->table.SameBag(again->table))
        << s.name << "\nfirst:\n" << first->table.ToString()
        << "cached:\n" << again->table.ToString();
    auto text = db.Execute(s.query);
    ASSERT_TRUE(text.ok()) << s.name << ": " << text.status().ToString();
    EXPECT_TRUE(first->table.SameBag(text->table)) << s.name;
    EXPECT_GE(db.engine().plan_cache_stats().hits, 2u) << s.name;
  }
}

}  // namespace
}  // namespace gqlite
