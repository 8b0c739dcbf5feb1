#include "src/plan/planner.h"

#include <algorithm>
#include <set>

#include "src/exec/parallel.h"
#include "src/frontend/analyzer.h"
#include "src/plan/logical_plan.h"

namespace gqlite {

using namespace ast;  // NOLINT(build/namespaces)

/// Mutable state while building one MATCH pipeline: the operator tip, the
/// pending WHERE conjuncts, and the relationship columns bound so far in
/// this clause (relationship-isomorphism scope).
struct Planner::PipelineState {
  OperatorPtr tip;
  std::vector<const Expr*> pending_filters;
  std::vector<int> clause_rel_cols;
  const ast::MatchClause* clause = nullptr;

  bool Bound(const std::string& name) const {
    const auto& s = tip->schema();
    return std::find(s.begin(), s.end(), name) != s.end();
  }
  int ColIndex(const std::string& name) const {
    const auto& s = tip->schema();
    for (size_t i = 0; i < s.size(); ++i) {
      if (s[i] == name) return static_cast<int>(i);
    }
    return -1;
  }
};

ExecContext* Planner::MakeContext(Plan* plan, GraphPtr graph) {
  auto ctx = std::make_unique<ExecContext>();
  ExecContext* raw = ctx.get();
  ctx->graph = graph.get();
  ctx->graph_owner = std::move(graph);
  ctx->match = options_.match;
  ctx->batch_size = options_.batch_size;
  ctx->eval.graph = raw->graph;
  ctx->eval.parameters = params_;
  ctx->eval.rand_state = rand_state_;
  MatchOptions match = options_.match;
  // Capture the context (stable: heap-allocated, owned by the plan) and
  // read parameters/rand_state through it at call time — the engine
  // rebinds them on every execution of a cached plan.
  ctx->eval.pattern_predicate = [raw, match](
                                    const Pattern& p,
                                    const Environment& env) -> Result<bool> {
    EvalContext inner;
    inner.graph = raw->graph;
    inner.parameters = raw->eval.parameters;
    inner.rand_state = raw->eval.rand_state;
    return ExistsMatch(p, *raw->graph, env, inner, match);
  };
  plan->contexts.push_back(std::move(ctx));
  return plan->contexts.back().get();
}

Status Planner::BuildParallelInstances(const Query& q, Plan* plan) {
  if (options_.num_threads <= 1) return Status::OK();
  ParallelCandidate first = AnalyzeParallelCandidate(plan->root.get());
  if (!first.ok) {
    plan->parallel.reason = std::move(first.reason);
    return Status::OK();
  }
  if (QueryCallsNondeterministicFunction(q)) {
    plan->parallel.reason = "rand() requires the serial runtime";
    return Status::OK();
  }
  plan->parallel.merge_shape = std::move(first.merge_shape);
  plan->parallel.projections.push_back(first.projection);
  plan->parallel.scans.push_back(first.scan);
  // One structurally identical pipeline instance per extra worker —
  // operators are stateful single-use pipelines, so workers cannot share
  // them. Planning is deterministic over an unchanged graph; only the
  // fresh-column counter differs (hidden '#' names), which the merge
  // concatenates positionally.
  for (size_t i = 1; i < options_.num_threads; ++i) {
    GQL_ASSIGN_OR_RETURN(OperatorPtr instance, PlanSingle(q.parts[0], plan));
    ParallelCandidate c = AnalyzeParallelCandidate(instance.get());
    if (!c.ok) {
      return Status::Internal("parallel instance diverged from the plan: " +
                              c.reason);
    }
    if (c.merge_shape != plan->parallel.merge_shape) {
      return Status::Internal(
          "parallel instance diverged from the plan: merge shape '" +
          c.merge_shape + "'");
    }
    plan->parallel.projections.push_back(c.projection);
    plan->parallel.scans.push_back(c.scan);
    plan->extra_roots.push_back(std::move(instance));
  }
  plan->parallel.safe = true;
  return Status::OK();
}

Result<Plan> Planner::PlanQuery(const Query& q) {
  Plan plan;
  if (q.parts.size() == 1) {
    GQL_ASSIGN_OR_RETURN(plan.root, PlanSingle(q.parts[0], &plan));
    GQL_RETURN_IF_ERROR(BuildParallelInstances(q, &plan));
    return plan;
  }
  if (options_.num_threads > 1) {
    plan.parallel.reason = "UNION materializes whole sub-plans";
  }
  std::vector<OperatorPtr> parts;
  for (const auto& part : q.parts) {
    GQL_ASSIGN_OR_RETURN(OperatorPtr p, PlanSingle(part, &plan));
    parts.push_back(std::move(p));
  }
  // Mixed UNION/UNION ALL: fold left. ALL appends; DISTINCT deduplicates
  // the accumulated result (mirrors the interpreter's left fold).
  std::vector<std::string> schema = parts[0]->schema();
  OperatorPtr acc = std::move(parts[0]);
  for (size_t i = 1; i < parts.size(); ++i) {
    std::vector<OperatorPtr> two;
    two.push_back(std::move(acc));
    two.push_back(std::move(parts[i]));
    acc = std::make_unique<UnionOp>(std::move(two), q.union_all[i - 1],
                                    schema, options_.batch_size);
  }
  plan.root = std::move(acc);
  return plan;
}

Result<OperatorPtr> Planner::PlanSingle(const SingleQuery& q, Plan* plan) {
  GraphPtr saved_graph = graph_;
  ExecContext* ctx = MakeContext(plan, graph_);
  // Unit driving table (Figure 6).
  static const Table* kUnit = new Table(Table::Unit());
  OperatorPtr tip = std::make_unique<ArgumentOp>(std::vector<std::string>{},
                                                 kUnit);
  Status st = Status::OK();
  for (const auto& clause : q.clauses) {
    switch (clause->kind) {
      case Clause::Kind::kMatch: {
        auto r = PlanMatch(static_cast<const MatchClause&>(*clause),
                           std::move(tip), plan, ctx);
        if (!r.ok()) {
          st = r.status();
          break;
        }
        tip = std::move(r).value();
        break;
      }
      case Clause::Kind::kWith: {
        const auto& w = static_cast<const WithClause&>(*clause);
        std::vector<std::string> schema;
        if (w.body.star) {
          schema = tip->schema();
          // Hidden planner columns are internal; drop them at projections.
          schema.erase(std::remove_if(schema.begin(), schema.end(),
                                      [](const std::string& s) {
                                        return !s.empty() && s[0] == '#';
                                      }),
                       schema.end());
        }
        for (const auto& item : w.body.items) {
          schema.push_back(item.alias ? *item.alias
                                      : DerivedColumnName(*item.expr));
        }
        tip = std::make_unique<ProjectionOp>(std::move(tip), ctx, &w.body,
                                             w.where.get(), schema);
        break;
      }
      case Clause::Kind::kReturn: {
        const auto& r = static_cast<const ReturnClause&>(*clause);
        std::vector<std::string> schema;
        if (r.body.star) {
          schema = tip->schema();
          schema.erase(std::remove_if(schema.begin(), schema.end(),
                                      [](const std::string& s) {
                                        return !s.empty() && s[0] == '#';
                                      }),
                       schema.end());
        }
        for (const auto& item : r.body.items) {
          schema.push_back(item.alias ? *item.alias
                                      : DerivedColumnName(*item.expr));
        }
        tip = std::make_unique<ProjectionOp>(std::move(tip), ctx, &r.body,
                                             nullptr, schema);
        break;
      }
      case Clause::Kind::kUnwind: {
        const auto& u = static_cast<const UnwindClause&>(*clause);
        tip = std::make_unique<UnwindOp>(std::move(tip), ctx, u.expr.get(),
                                         u.var);
        break;
      }
      case Clause::Kind::kFromGraph: {
        const auto& f = static_cast<const FromGraphClause&>(*clause);
        GraphPtr g;
        // The catalog locks internally; FROM GRAPH resolution is its only
        // planner touchpoint.
        if (f.url) {
          auto rg = catalog_.ResolveUrl(*f.url);
          if (!rg.ok()) {
            st = rg.status();
            break;
          }
          g = *rg;
          catalog_.RegisterGraph(f.name, g);
        } else {
          auto rg = catalog_.Resolve(f.name);
          if (!rg.ok()) {
            st = rg.status();
            break;
          }
          g = *rg;
        }
        graph_ = g;
        ctx = MakeContext(plan, g);
        break;
      }
      default:
        st = Status::Unimplemented(
            "the Volcano runtime only executes read queries; updating "
            "clauses and RETURN GRAPH run on the interpreter");
        break;
    }
    GQL_RETURN_IF_ERROR(st);
  }
  graph_ = saved_graph;

  // RETURN * in the runtime keeps the projection of visible columns; but a
  // RETURN-less read query cannot reach here (analyzer guarantees).
  return tip;
}

Result<OperatorPtr> Planner::PlanMatch(const MatchClause& m,
                                       OperatorPtr input, Plan* plan,
                                       ExecContext* ctx) {
  std::vector<std::string> input_schema = input->schema();
  auto argument =
      std::make_unique<ArgumentOp>(input_schema, /*source=*/nullptr);
  ArgumentOp* argument_ptr = argument.get();

  PipelineState state;
  state.tip = std::move(argument);
  state.clause = &m;
  if (m.where) state.pending_filters = SplitConjuncts(*m.where);

  PlaceReadyFilters(&state, ctx, nullptr, nullptr, nullptr);

  // A variable-length relationship variable bound by an earlier clause
  // requires a list-equality join the pipeline does not implement.
  bool bound_varlength = false;
  for (const auto& path : m.pattern.paths) {
    for (const auto& hop : path.hops) {
      if (hop.rel.var && hop.rel.length &&
          std::find(input_schema.begin(), input_schema.end(),
                    *hop.rel.var) != input_schema.end()) {
        bound_varlength = true;
      }
    }
  }

  // Node isomorphism (§8) constrains node repetition *per matched path*,
  // including variable-length interior nodes — state that individual
  // Expand operators cannot see. Those patterns run on the reference
  // matcher operator.
  bool needs_matcher =
      options_.match.morphism == Morphism::kNodeIsomorphism;

  if (!PipelinePlannable(m.pattern) || bound_varlength || needs_matcher) {
    // Fallback: reference matcher as an operator.
    std::vector<std::string> new_cols;
    {
      std::set<std::string> bound(input_schema.begin(), input_schema.end());
      for (const std::string& v : PatternVariables(m.pattern)) {
        if (!bound.contains(v)) new_cols.push_back(v);
      }
    }
    state.tip = std::make_unique<MatcherOp>(std::move(state.tip), ctx,
                                            &m.pattern, new_cols);
    PlaceReadyFilters(&state, ctx, nullptr, nullptr, nullptr);
  } else {
    // PlanChain places ready filters itself, after the anchor and after
    // every expand step (pushdown) — including cross-path conjuncts that
    // become ready at the end of a later chain.
    for (const auto& path : m.pattern.paths) {
      GQL_RETURN_IF_ERROR(PlanChain(path, &state, plan, ctx));
    }
  }
  // Any conjunct still pending references unbound variables — the
  // analyzer should have rejected it; fail loudly rather than silently
  // dropping a predicate.
  if (!state.pending_filters.empty()) {
    return Status::PlanError("WHERE predicate references unbound variables");
  }

  std::vector<std::string> out_schema = state.tip->schema();
  // The Apply's output estimate is its RHS chain's (exact for the common
  // unit driving table); the Argument replays one driving row at a time.
  double chain_est = state.tip->est_rows();
  argument_ptr->set_est_rows(1.0);
  auto apply = std::make_unique<ApplyOp>(std::move(input),
                                         std::move(state.tip), argument_ptr,
                                         m.optional, out_schema);
  if (chain_est >= 0) apply->set_est_rows(chain_est);
  return OperatorPtr(std::move(apply));
}

namespace {

/// Estimated selectivity of one placed filter for the EXPLAIN `est.
/// rows` annotations — the same per-constraint factors the cost model
/// uses: label checks multiply label fractions, property equalities
/// against a variable-free expression use 1/NDV from the snapshot's
/// sketches, anything else a fixed 0.25.
double FilterSelectivity(const Expr& e, const GraphStatistics& stats,
                         const std::set<std::string>& rel_vars) {
  double n = std::max<double>(stats.NodeCount(), 1.0);
  if (e.kind == Expr::Kind::kLabelCheck) {
    const auto& lc = static_cast<const LabelCheckExpr&>(e);
    double sel = 1.0;
    for (const auto& l : lc.labels) {
      sel *= std::min(static_cast<double>(stats.NodesWithLabel(l)) / n, 1.0);
    }
    return sel;
  }
  if (e.kind == Expr::Kind::kBinary) {
    const auto& b = static_cast<const BinaryExpr&>(e);
    if (b.op == BinaryOp::kEq) {
      const Expr* prop = nullptr;
      const Expr* other = nullptr;
      if (b.lhs->kind == Expr::Kind::kProperty) {
        prop = b.lhs.get();
        other = b.rhs.get();
      } else if (b.rhs->kind == Expr::Kind::kProperty) {
        prop = b.rhs.get();
        other = b.lhs.get();
      }
      if (prop != nullptr && ExprVariables(*other).empty()) {
        const auto& pe = static_cast<const PropertyExpr&>(*prop);
        if (pe.object->kind == Expr::Kind::kVariable) {
          const auto& var = static_cast<const VariableExpr&>(*pe.object);
          double ndv = rel_vars.contains(var.name)
                           ? stats.RelPropertyNdv(pe.key)
                           : stats.NodePropertyNdv(pe.key);
          return ndv >= 1.0 ? 1.0 / ndv : 0.1;
        }
      }
    }
  }
  return 0.25;
}

/// Folds WHERE-visible constraints into the per-position chain
/// constraints so anchor/direction choice sees them *before* the
/// filters are placed: top-level `n:Label` conjuncts add labels (also
/// making them eligible for the label-index scan), top-level
/// `n.k = <variable-free expr>` conjuncts add equality keys.
void AugmentFromWhere(const std::vector<const Expr*>& conjuncts,
                      const std::vector<std::string>& node_cols,
                      std::vector<NodeConstraint>* constraints) {
  auto each_position = [&](const std::string& var, auto&& fn) {
    for (size_t i = 0; i < node_cols.size(); ++i) {
      if (node_cols[i] == var) fn((*constraints)[i]);
    }
  };
  for (const Expr* e : conjuncts) {
    if (e->kind == Expr::Kind::kLabelCheck) {
      const auto& lc = static_cast<const LabelCheckExpr&>(*e);
      if (lc.object->kind != Expr::Kind::kVariable) continue;
      const auto& var = static_cast<const VariableExpr&>(*lc.object);
      each_position(var.name, [&](NodeConstraint& nc) {
        for (const auto& l : lc.labels) {
          if (std::find(nc.labels.begin(), nc.labels.end(), l) ==
              nc.labels.end()) {
            nc.labels.push_back(l);
          }
        }
      });
      continue;
    }
    if (e->kind != Expr::Kind::kBinary) continue;
    const auto& b = static_cast<const BinaryExpr&>(*e);
    if (b.op != BinaryOp::kEq) continue;
    const Expr* prop = nullptr;
    const Expr* other = nullptr;
    if (b.lhs->kind == Expr::Kind::kProperty) {
      prop = b.lhs.get();
      other = b.rhs.get();
    } else if (b.rhs->kind == Expr::Kind::kProperty) {
      prop = b.rhs.get();
      other = b.lhs.get();
    }
    if (prop == nullptr || !ExprVariables(*other).empty()) continue;
    const auto& pe = static_cast<const PropertyExpr&>(*prop);
    if (pe.object->kind != Expr::Kind::kVariable) continue;
    const auto& var = static_cast<const VariableExpr&>(*pe.object);
    each_position(var.name,
                  [&](NodeConstraint& nc) { nc.eq_props.push_back(pe.key); });
  }
}

}  // namespace

void Planner::PlaceReadyFilters(PipelineState* state, ExecContext* ctx,
                                const GraphStatistics* stats,
                                const std::set<std::string>* rel_vars,
                                double* est) {
  static const std::set<std::string> kNoRelVars;
  for (auto it = state->pending_filters.begin();
       it != state->pending_filters.end();) {
    bool ready = true;
    for (const std::string& v : ExprVariables(**it)) {
      if (!state->Bound(v)) {
        ready = false;
        break;
      }
    }
    if (!ready) {
      ++it;
      continue;
    }
    state->tip = std::make_unique<FilterOp>(std::move(state->tip), ctx, *it);
    if (est != nullptr && stats != nullptr) {
      *est *= FilterSelectivity(**it, *stats,
                                rel_vars ? *rel_vars : kNoRelVars);
      *est = std::max(*est, 0.001);
      state->tip->set_est_rows(*est);
    }
    it = state->pending_filters.erase(it);
  }
}

Status Planner::PlanChain(const PathPattern& path, PipelineState* state,
                          Plan* plan, ExecContext* ctx) {
  GraphStatistics stats(*graph_);
  CostModel cost(stats);
  size_t num_nodes = path.hops.size() + 1;

  auto node_at = [&](size_t i) -> const NodePattern& {
    return i == 0 ? path.start : path.hops[i - 1].node;
  };

  // Column assignment.
  std::vector<std::string> node_cols(num_nodes);
  std::vector<std::string> rel_cols(path.hops.size());
  std::vector<bool> node_bound(num_nodes);
  for (size_t i = 0; i < num_nodes; ++i) {
    const NodePattern& np = node_at(i);
    node_cols[i] = np.var ? *np.var
                          : "#n" + std::to_string(fresh_counter_++);
    node_bound[i] = np.var && state->Bound(*np.var);
  }
  for (size_t i = 0; i < path.hops.size(); ++i) {
    const RelPattern& rp = path.hops[i].rel;
    rel_cols[i] = rp.var ? *rp.var : "#r" + std::to_string(fresh_counter_++);
  }
  // Shared node variables within this chain: a later occurrence of the
  // same column is planned as ExpandInto, which the per-position bound
  // flags below track dynamically.

  // Per-position constraints for costing: pattern labels and inline
  // property keys, augmented with WHERE-visible label checks and
  // equality conjuncts.
  std::vector<NodeConstraint> constraints(num_nodes);
  for (size_t i = 0; i < num_nodes; ++i) {
    const NodePattern& np = node_at(i);
    constraints[i].labels = np.labels;
    for (const auto& kv : np.properties) {
      constraints[i].eq_props.push_back(kv.first);
    }
  }
  AugmentFromWhere(state->pending_filters, node_cols, &constraints);

  std::set<std::string> rel_vars(rel_cols.begin(), rel_cols.end());

  // Decide the whole chain up front: anchor, per-hop direction, and
  // per-hop physical operator.
  CostModel::ChainDecision decision =
      cost.DecideChain(path, constraints, node_bound,
                       options_.expand_strategy, options_.direction_policy);
  size_t anchor = decision.anchor;

  // Constraint helpers: synthesized filters are owned by the plan.
  auto add_node_constraints = [&](size_t i, bool skip_label_index_label,
                                  const std::string& scanned_label) {
    const NodePattern& np = node_at(i);
    std::vector<std::string> labels = np.labels;
    if (skip_label_index_label) {
      labels.erase(std::remove(labels.begin(), labels.end(), scanned_label),
                   labels.end());
    }
    if (!labels.empty()) {
      auto check = std::make_unique<LabelCheckExpr>(
          std::make_unique<VariableExpr>(node_cols[i]), labels);
      state->pending_filters.push_back(check.get());
      plan->synthesized.push_back(std::move(check));
    }
    for (const auto& [key, expr] : np.properties) {
      auto eq = std::make_unique<BinaryExpr>(
          BinaryOp::kEq,
          std::make_unique<PropertyExpr>(
              std::make_unique<VariableExpr>(node_cols[i]), key),
          CloneExpr(*expr));
      state->pending_filters.push_back(eq.get());
      plan->synthesized.push_back(std::move(eq));
    }
  };

  // Emit the anchor. The label index scan picks the cheapest label among
  // the pattern's AND the WHERE-augmented ones (label pushdown into the
  // scan); any remaining checks stay as filters.
  double cur_est;
  if (!node_bound[anchor]) {
    std::string scanned_label;
    double scan_rows = static_cast<double>(stats.NodeCount());
    for (const auto& l : constraints[anchor].labels) {
      double c = static_cast<double>(stats.NodesWithLabel(l));
      if (scanned_label.empty() || c < scan_rows) {
        scan_rows = c;
        scanned_label = l;
      }
    }
    if (!scanned_label.empty()) {
      state->tip = std::make_unique<NodeByLabelScanOp>(
          std::move(state->tip), ctx, node_cols[anchor], scanned_label);
    } else {
      state->tip = std::make_unique<AllNodesScanOp>(std::move(state->tip),
                                                    ctx, node_cols[anchor]);
    }
    state->tip->set_est_rows(scan_rows);
    cur_est = std::max(scan_rows, 0.001);
    node_bound[anchor] = true;
    add_node_constraints(anchor, !scanned_label.empty(), scanned_label);
  } else {
    // Bound from the driving table: re-check this occurrence's
    // constraints.
    add_node_constraints(anchor, false, "");
    cur_est = 1.0;
  }
  PlaceReadyFilters(state, ctx, &stats, &rel_vars, &cur_est);

  auto expand_step = [&](const CostModel::ChainStep& cs) -> Status {
    size_t hop_idx = cs.hop;
    bool to_right = cs.to_right;
    const RelPattern& rp = path.hops[hop_idx].rel;
    size_t from_i = to_right ? hop_idx : hop_idx + 1;
    size_t to_i = to_right ? hop_idx + 1 : hop_idx;

    ExpandSpec spec;
    spec.from_col = state->ColIndex(node_cols[from_i]);
    if (spec.from_col < 0) {
      return Status::Internal("planner lost track of a bound column");
    }
    spec.types = rp.types;
    spec.direction = rp.direction;
    if (!to_right) {
      // Traversing the hop right-to-left flips the pattern arrow.
      if (rp.direction == Direction::kRight) {
        spec.direction = Direction::kLeft;
      } else if (rp.direction == Direction::kLeft) {
        spec.direction = Direction::kRight;
      }
    }
    spec.uniqueness_cols = state->clause_rel_cols;
    spec.rel_props = rp.properties.empty() ? nullptr : &rp.properties;

    bool rel_bound = state->Bound(rel_cols[hop_idx]);
    if (rel_bound && !rp.length) {
      // The hop must bind exactly the pre-bound relationship; it joins
      // this clause's isomorphism scope for *later* hops (via
      // clause_rel_cols below) but must not conflict with itself.
      spec.bound_rel_col = state->ColIndex(rel_cols[hop_idx]);
      spec.rel_var.clear();
    } else {
      spec.rel_var = rel_cols[hop_idx];
    }

    bool target_bound = node_bound[to_i] ||
                        state->Bound(node_cols[to_i]);
    if (target_bound) {
      spec.to_col = state->ColIndex(node_cols[to_i]);
    } else {
      spec.to_var = node_cols[to_i];
    }

    // Expected rows out of this operator alone (target-node filters are
    // annotated on their own FilterOps): the directional typed fan,
    // collapsed by 1/N when expanding into an already-bound node.
    double mult = cost.ExpandFactor(rp, !to_right, constraints[from_i]);
    if (target_bound) {
      mult /= std::max<double>(stats.NodeCount(), 1.0);
    }
    cur_est = std::max(cur_est * mult, 0.001);

    if (rp.length) {
      HopRange range = EffectiveRange(rp, options_.match.max_var_length);
      int64_t hi = range.hi;
      if (range.unbounded &&
          options_.match.morphism != Morphism::kHomomorphism) {
        // Edge isomorphism bounds path length by the relationship count.
        hi = std::min<int64_t>(hi,
                               static_cast<int64_t>(graph_->NumRels()));
      }
      state->tip = std::make_unique<VarLengthExpandOp>(
          std::move(state->tip), ctx, std::move(spec), range.lo, hi);
    } else if (cs.hash_join) {
      state->tip = std::make_unique<HashJoinExpandOp>(std::move(state->tip),
                                                      ctx, std::move(spec));
    } else {
      state->tip = std::make_unique<ExpandOp>(std::move(state->tip), ctx,
                                              std::move(spec));
    }
    state->tip->set_est_rows(cur_est);
    // Track the relationship column for isomorphism (named, hidden or
    // pre-bound).
    int rel_col_idx = state->ColIndex(rel_cols[hop_idx]);
    if (rel_col_idx >= 0) state->clause_rel_cols.push_back(rel_col_idx);

    if (!target_bound) {
      node_bound[to_i] = true;
      add_node_constraints(to_i, false, "");
    } else if (!node_bound[to_i]) {
      // Bound from the driving table (ExpandInto): re-check constraints.
      node_bound[to_i] = true;
      add_node_constraints(to_i, false, "");
    }
    return Status::OK();
  };

  for (const CostModel::ChainStep& cs : decision.steps) {
    GQL_RETURN_IF_ERROR(expand_step(cs));
    PlaceReadyFilters(state, ctx, &stats, &rel_vars, &cur_est);
  }
  return Status::OK();
}

}  // namespace gqlite
