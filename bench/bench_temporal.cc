// Experiment E19 (README.md): Cypher 10 temporal types (§6) — parse,
// format, compare and add micro-benchmarks, plus an end-to-end query mix.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/temporal/temporal_parse.h"

namespace gqlite {
namespace {

void BM_ParseDate(benchmark::State& state) {
  for (auto _ : state) {
    auto d = ParseDate("2018-06-10");
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_ParseDate);

void BM_ParseDateTime(benchmark::State& state) {
  for (auto _ : state) {
    auto d = ParseZonedDateTime("2018-06-10T14:30:00.123456789+02:00");
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_ParseDateTime);

void BM_ParseDuration(benchmark::State& state) {
  for (auto _ : state) {
    auto d = ParseDuration("P1Y2M10DT2H30M14.5S");
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_ParseDuration);

void BM_DateArithmetic(benchmark::State& state) {
  Date d = Date::FromYmd(2018, 1, 31);
  Duration month = Duration::Make(1, 0, 0, 0);
  for (auto _ : state) {
    d = AddDuration(d, month);
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_DateArithmetic);

void BM_FormatDateTime(benchmark::State& state) {
  ZonedDateTime dt{{Date::FromYmd(2018, 6, 10), LocalTime::FromHms(14, 30, 0)},
                   7200};
  for (auto _ : state) {
    std::string s = dt.ToString();
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_FormatDateTime);

void BM_TemporalQueryMix(benchmark::State& state) {
  // End to end: events with datetime properties, range filters and
  // duration arithmetic inside a query.
  auto g = std::make_shared<PropertyGraph>();
  for (int i = 0; i < 365; ++i) {
    Date day = AddDuration(Date::FromYmd(2018, 1, 1),
                           Duration::Make(0, i, 0, 0));
    g->CreateNode({"Event"}, {{"on", Value::Temporal(day)},
                              {"idx", Value::Int(i)}});
  }
  Database db = bench::MakeDatabase(g);
  for (auto _ : state) {
    Table t = bench::MustRun(
        db,
        "MATCH (e:Event) WHERE e.on >= date('2018-06-01') AND "
        "e.on < date('2018-06-01') + duration('P1M') "
        "RETURN count(*) AS june");
    if (t.rows()[0][0].AsInt() != 30) {
      state.SkipWithError("wrong June day count");
      return;
    }
    benchmark::DoNotOptimize(t);
  }
}
BENCHMARK(BM_TemporalQueryMix);

}  // namespace
}  // namespace gqlite

GQLITE_BENCH_MAIN()
