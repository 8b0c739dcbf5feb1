#include "fixtures/generators.h"

#include <random>
#include <string_view>

namespace gqlite {
namespace workload {

namespace {

PropertyList IdxProp(size_t i) {
  return {{"idx", Value::Int(static_cast<int64_t>(i))}};
}

/// `prefix` followed by the decimal `i`, appended in order: GCC 12's
/// -Wrestrict misfires on `"literal" + std::to_string(i)` in Release.
Value Numbered(std::string_view prefix, size_t i) {
  std::string s(prefix);
  s += std::to_string(i);
  return Value::String(std::move(s));
}

}  // namespace

GraphPtr MakeChain(size_t n, const std::string& label,
                   const std::string& type) {
  auto g = std::make_shared<PropertyGraph>();
  std::vector<NodeId> ids;
  ids.reserve(n);
  for (size_t i = 0; i < n; ++i) ids.push_back(g->CreateNode({label}, IdxProp(i)));
  for (size_t i = 0; i + 1 < n; ++i) {
    g->CreateRelationship(ids[i], ids[i + 1], type).value();
  }
  return g;
}

GraphPtr MakeCycle(size_t n, const std::string& label,
                   const std::string& type) {
  auto g = std::make_shared<PropertyGraph>();
  std::vector<NodeId> ids;
  ids.reserve(n);
  for (size_t i = 0; i < n; ++i) ids.push_back(g->CreateNode({label}, IdxProp(i)));
  for (size_t i = 0; i < n; ++i) {
    g->CreateRelationship(ids[i], ids[(i + 1) % n], type).value();
  }
  return g;
}

GraphPtr MakeGrid(size_t rows, size_t cols) {
  auto g = std::make_shared<PropertyGraph>();
  std::vector<NodeId> ids(rows * cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      ids[r * cols + c] = g->CreateNode(
          {"Cell"}, {{"row", Value::Int(static_cast<int64_t>(r))},
                     {"col", Value::Int(static_cast<int64_t>(c))}});
    }
  }
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) {
        g->CreateRelationship(ids[r * cols + c], ids[r * cols + c + 1], "RIGHT")
            .value();
      }
      if (r + 1 < rows) {
        g->CreateRelationship(ids[r * cols + c], ids[(r + 1) * cols + c], "DOWN")
            .value();
      }
    }
  }
  return g;
}

GraphPtr MakeClique(size_t n) {
  auto g = std::make_shared<PropertyGraph>();
  std::vector<NodeId> ids;
  ids.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    ids.push_back(g->CreateNode({"Person"}, IdxProp(i)));
  }
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (i != j) g->CreateRelationship(ids[i], ids[j], "KNOWS").value();
    }
  }
  return g;
}

GraphPtr MakeCitationGraph(const CitationConfig& cfg) {
  auto g = std::make_shared<PropertyGraph>();
  std::mt19937_64 rng(cfg.seed);
  std::vector<NodeId> pubs;
  int64_t acmid = 100;
  size_t student_no = 0;
  for (size_t i = 0; i < cfg.num_researchers; ++i) {
    NodeId r = g->CreateNode({"Researcher"}, {{"name", Numbered("R", i)}});
    for (size_t s = 0; s < cfg.students_per_researcher; ++s) {
      // Every other researcher supervises; mirrors Figure 1 where one
      // researcher has no students.
      if (i % 2 == 0) {
        NodeId st = g->CreateNode(
            {"Student"}, {{"name", Numbered("S", student_no++)}});
        g->CreateRelationship(r, st, "SUPERVISES").value();
      }
    }
    for (size_t p = 0; p < cfg.pubs_per_researcher; ++p) {
      NodeId pub =
          g->CreateNode({"Publication"}, {{"acmid", Value::Int(acmid++)}});
      g->CreateRelationship(r, pub, "AUTHORS").value();
      // Cite earlier publications only: a DAG, like real citations.
      if (!pubs.empty()) {
        std::poisson_distribution<int> ncites(cfg.avg_cites_per_pub);
        int k = ncites(rng);
        std::uniform_int_distribution<size_t> pick(0, pubs.size() - 1);
        for (int c = 0; c < k; ++c) {
          g->CreateRelationship(pub, pubs[pick(rng)], "CITES").value();
        }
      }
      pubs.push_back(pub);
    }
  }
  return g;
}

GraphPtr MakeDependencyNetwork(const DependencyConfig& cfg) {
  auto g = std::make_shared<PropertyGraph>();
  std::mt19937_64 rng(cfg.seed);
  std::vector<std::vector<NodeId>> tiers(cfg.layers);
  for (size_t l = 0; l < cfg.layers; ++l) {
    for (size_t i = 0; i < cfg.per_layer; ++i) {
      tiers[l].push_back(g->CreateNode(
          {"Service"},
          {{"name", Value::String("svc-" + std::to_string(l) + "-" +
                                  std::to_string(i))},
           {"tier", Value::Int(static_cast<int64_t>(l))}}));
    }
  }
  // Tier l services depend on tier l-1 services; everything in tier l-1
  // index 0 position funnels to node 0 so one component dominates.
  for (size_t l = 1; l < cfg.layers; ++l) {
    for (size_t i = 0; i < cfg.per_layer; ++i) {
      std::uniform_int_distribution<size_t> pick(0, cfg.per_layer - 1);
      // Always depend on the tier's "core" service plus random others.
      g->CreateRelationship(tiers[l][i], tiers[l - 1][0], "DEPENDS_ON").value();
      for (size_t f = 1; f < cfg.fanout; ++f) {
        g->CreateRelationship(tiers[l][i], tiers[l - 1][pick(rng)],
                              "DEPENDS_ON")
            .value();
      }
    }
  }
  return g;
}

GraphPtr MakeFraudGraph(const FraudConfig& cfg) {
  auto g = std::make_shared<PropertyGraph>();
  std::mt19937_64 rng(cfg.seed);
  size_t holder_no = 0;
  auto make_holder = [&] {
    return g->CreateNode({"AccountHolder"},
                         {{"uniqueId", Numbered("H", holder_no++)}});
  };
  auto pii = [&](const char* label, const char* prefix, size_t i) {
    return g->CreateNode({label}, {{"value", Numbered(prefix, i)}});
  };
  // Fraud rings: ring_size holders share one SSN; half the rings also
  // share a phone number.
  for (size_t ring = 0; ring < cfg.num_rings; ++ring) {
    NodeId ssn = pii("SSN", "ssn-ring-", ring);
    NodeId phone = pii("PhoneNumber", "phone-ring-", ring);
    for (size_t m = 0; m < cfg.ring_size; ++m) {
      NodeId h = make_holder();
      g->CreateRelationship(h, ssn, "HAS").value();
      if (ring % 2 == 0) g->CreateRelationship(h, phone, "HAS").value();
      // Plus a private address each.
      NodeId addr = pii("Address", "addr-", holder_no);
      g->CreateRelationship(h, addr, "HAS").value();
    }
  }
  // Honest holders with private PII.
  while (holder_no < cfg.num_holders) {
    NodeId h = make_holder();
    size_t i = holder_no;
    g->CreateRelationship(h, pii("SSN", "ssn-", i), "HAS").value();
    g->CreateRelationship(h, pii("PhoneNumber", "phone-", i), "HAS").value();
    g->CreateRelationship(h, pii("Address", "addr-", i), "HAS").value();
  }
  return g;
}

GraphPtr MakeSocialNetwork(const SocialConfig& cfg) {
  auto g = std::make_shared<PropertyGraph>();
  std::mt19937_64 rng(cfg.seed);
  std::vector<NodeId> people;
  people.reserve(cfg.num_people);
  for (size_t i = 0; i < cfg.num_people; ++i) {
    people.push_back(g->CreateNode({"Person"}, {{"name", Numbered("P", i)}}));
  }
  std::vector<NodeId> cities;
  for (size_t c = 0; c < cfg.num_cities; ++c) {
    cities.push_back(g->CreateNode({"City"}, {{"name", Numbered("City", c)}}));
  }
  std::uniform_int_distribution<size_t> pick_person(0, cfg.num_people - 1);
  std::uniform_int_distribution<size_t> pick_city(0, cfg.num_cities - 1);
  std::uniform_int_distribution<int64_t> pick_year(1990, 2017);
  size_t num_friend_edges =
      static_cast<size_t>(cfg.avg_friends * cfg.num_people / 2.0);
  for (size_t e = 0; e < num_friend_edges; ++e) {
    size_t a = pick_person(rng);
    size_t b = pick_person(rng);
    if (a == b) continue;
    g->CreateRelationship(people[a], people[b], "FRIEND",
                          {{"since", Value::Int(pick_year(rng))}})
        .value();
  }
  for (size_t i = 0; i < cfg.num_people; ++i) {
    g->CreateRelationship(people[i], cities[pick_city(rng)], "IN").value();
  }
  return g;
}

GraphPtr MakeRandomGraph(size_t n, size_t m, uint64_t seed) {
  auto g = std::make_shared<PropertyGraph>();
  std::mt19937_64 rng(seed);
  static const char* kLabels[] = {"A", "B", "C"};
  static const char* kTypes[] = {"T", "U"};
  std::vector<NodeId> ids;
  ids.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    std::vector<std::string> labels;
    labels.push_back(kLabels[rng() % 3]);
    if (rng() % 4 == 0) labels.push_back(kLabels[rng() % 3]);
    ids.push_back(g->CreateNode(
        labels, {{"v", Value::Int(static_cast<int64_t>(rng() % 10))}}));
  }
  if (n == 0) return g;
  for (size_t e = 0; e < m; ++e) {
    NodeId a = ids[rng() % n];
    NodeId b = ids[rng() % n];
    g->CreateRelationship(a, b, kTypes[rng() % 2],
                          {{"w", Value::Int(static_cast<int64_t>(rng() % 5))}})
        .value();
  }
  return g;
}

}  // namespace workload
}  // namespace gqlite
