#include "src/plan/runtime.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>

namespace gqlite {

namespace {

/// Parses a positive size_t override from the environment. The override
/// must be a clean decimal in [1, max]: trailing junk, signs of
/// non-numeric input, values the variable cannot mean (0, negatives,
/// out-of-range) are InvalidArgument errors naming the variable — a
/// garbage override silently clamped is a misconfiguration nobody
/// notices until results are wrong or the CI leg stops testing what it
/// claims to.
Result<size_t> ParseEnvOverride(const char* name, const char* text,
                                size_t max) {
  // strtoll would skip leading whitespace; an override with stray spaces
  // is as suspect as any other garbage.
  if (text[0] == '\0' || (!std::isdigit(static_cast<unsigned char>(text[0])) &&
                          text[0] != '-' && text[0] != '+')) {
    return Status::InvalidArgument(std::string(name) + ": \"" + text +
                                   "\" is not an integer");
  }
  errno = 0;
  char* end = nullptr;
  long long v = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0') {
    return Status::InvalidArgument(std::string(name) + ": \"" + text +
                                   "\" is not an integer");
  }
  if (errno == ERANGE) {
    return Status::InvalidArgument(std::string(name) + ": \"" + text +
                                   "\" overflows");
  }
  if (v <= 0) {
    return Status::InvalidArgument(std::string(name) + ": must be >= 1, got " +
                                   std::string(text));
  }
  if (static_cast<unsigned long long>(v) > max) {
    return Status::InvalidArgument(std::string(name) + ": " +
                                   std::string(text) + " exceeds the cap of " +
                                   std::to_string(max));
  }
  return static_cast<size_t>(v);
}

}  // namespace

Result<size_t> EffectiveBatchSize(size_t configured) {
  constexpr size_t kMaxBatchSize = size_t{1} << 20;
  const char* env = std::getenv("GQLITE_BATCH_SIZE");
  if (env != nullptr && env[0] != '\0') {  // empty means unset, per custom
    return ParseEnvOverride("GQLITE_BATCH_SIZE", env, kMaxBatchSize);
  }
  if (configured == 0) configured = 1;
  if (configured > kMaxBatchSize) configured = kMaxBatchSize;
  return configured;
}

Result<size_t> EffectiveNumThreads(size_t configured) {
  constexpr size_t kMaxThreads = 256;
  const char* env = std::getenv("GQLITE_THREADS");
  if (env != nullptr && env[0] != '\0') {  // empty means unset, per custom
    return ParseEnvOverride("GQLITE_THREADS", env, kMaxThreads);
  }
  if (configured == 0) configured = 1;
  if (configured > kMaxThreads) configured = kMaxThreads;
  return configured;
}

Result<Table> ExecutePlan(Plan* plan, size_t batch_size, BatchStats* stats) {
  GQL_RETURN_IF_ERROR(plan->root->Open());
  return DrainPlan(plan->root.get(), batch_size, stats);
}

Result<std::string> ExplainQuery(CatalogRef catalog, GraphPtr graph,
                                 const ValueMap* params,
                                 const PlannerOptions& options,
                                 uint64_t* rand_state, const ast::Query& q) {
  Planner planner(std::move(catalog), std::move(graph), params, options, rand_state);
  GQL_ASSIGN_OR_RETURN(Plan plan, planner.PlanQuery(q));
  std::string out = "Batched Volcano runtime (morsel size " +
                    std::to_string(options.batch_size) + ")\n";
  if (options.num_threads > 1) {
    if (plan.parallel.safe) {
      out += "Parallel: " + std::to_string(options.num_threads) +
             " workers, morsel-partitioned scan, " +
             plan.parallel.merge_shape + "\n";
    } else {
      out += "Parallel: serial (" + plan.parallel.reason + ")\n";
    }
  }
  out += ExplainPlan(*plan.root);
  return out;
}

}  // namespace gqlite
