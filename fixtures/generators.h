#ifndef GQLITE_FIXTURES_GENERATORS_H_
#define GQLITE_FIXTURES_GENERATORS_H_

#include <cstdint>
#include <string>

#include "src/graph/graph_catalog.h"

namespace gqlite {
namespace workload {

/// Deterministic synthetic graph generators (all seeded) standing in for
/// the production datasets the paper's §3 industry examples run on; see
/// README, "Deliberate departures from the paper".

/// A directed chain n0 -[:NEXT]-> n1 -> ... of `n` nodes labeled `label`,
/// each with property idx = i. Used by variable-length path sweeps (E16).
GraphPtr MakeChain(size_t n, const std::string& label = "Node",
                   const std::string& type = "NEXT");

/// A directed cycle of `n` nodes (chain plus a closing edge).
GraphPtr MakeCycle(size_t n, const std::string& label = "Node",
                   const std::string& type = "NEXT");

/// rows × cols grid, edges RIGHT and DOWN. Node property: row, col.
GraphPtr MakeGrid(size_t rows, size_t cols);

/// Complete directed graph on n nodes (both directions, no self loops),
/// type KNOWS. Worst case for homomorphic var-length matching (E13).
GraphPtr MakeClique(size_t n);

/// Citation-style graph generalizing Figure 1: researchers author
/// publications; publications cite earlier publications (a DAG);
/// researchers supervise students. Types AUTHORS / CITES / SUPERVISES,
/// labels Researcher / Publication / Student. Properties: name, acmid.
struct CitationConfig {
  size_t num_researchers = 100;
  size_t pubs_per_researcher = 3;
  size_t students_per_researcher = 2;
  double avg_cites_per_pub = 2.0;
  uint64_t seed = 42;
};
GraphPtr MakeCitationGraph(const CitationConfig& cfg);

/// Layered data-center dependency network for the §3 network-management
/// query: `layers` tiers of `per_layer` Service nodes; every service
/// depends on `fanout` services of the next tier down (DEPENDS_ON points
/// from dependent to dependency). Node 0 of the bottom tier is the "core
/// switch" everything transitively depends on.
struct DependencyConfig {
  size_t layers = 4;
  size_t per_layer = 50;
  size_t fanout = 2;
  uint64_t seed = 7;
};
GraphPtr MakeDependencyNetwork(const DependencyConfig& cfg);

/// Fraud-ring graph for the §3 fraud-detection query: AccountHolder nodes
/// HAS-linked to personal-information nodes labeled SSN / PhoneNumber /
/// Address. `num_rings` rings of `ring_size` holders share a single SSN
/// (and some shared phones/addresses); the remaining holders have private
/// information. AccountHolder property: uniqueId.
struct FraudConfig {
  size_t num_holders = 1000;
  size_t num_rings = 10;
  size_t ring_size = 3;
  uint64_t seed = 99;
};
GraphPtr MakeFraudGraph(const FraudConfig& cfg);

/// Social network for E14/E18: Person nodes with FRIEND relationships
/// carrying a `since` year property, and City nodes with IN edges
/// (person lives in city). Degree distribution is uniform around
/// avg_friends.
struct SocialConfig {
  size_t num_people = 1000;
  double avg_friends = 8.0;
  size_t num_cities = 20;
  uint64_t seed = 1234;
};
GraphPtr MakeSocialNetwork(const SocialConfig& cfg);

/// Erdős–Rényi style random directed graph: n nodes, m edges of type T,
/// labels drawn from {A, B, C}. Used by the interpreter/runtime parity
/// property tests.
GraphPtr MakeRandomGraph(size_t n, size_t m, uint64_t seed);

}  // namespace workload
}  // namespace gqlite

#endif  // GQLITE_FIXTURES_GENERATORS_H_
