#include "src/plan/operators.h"

#include <algorithm>
#include <cstdio>

#include "src/frontend/analyzer.h"
#include "src/frontend/ast_printer.h"
#include "src/value/value_compare.h"

namespace gqlite {

namespace {

std::vector<std::string> Extend(const std::vector<std::string>& base,
                                std::initializer_list<std::string> extra) {
  std::vector<std::string> out = base;
  for (const auto& e : extra) {
    if (!e.empty()) out.push_back(e);
  }
  return out;
}

/// True if relationship `r` already occurs in one of the uniqueness
/// columns (single relationships or relationship lists) of `row` — the
/// relationship-isomorphism check.
bool RelAlreadyUsed(RelId r, const ValueList& row,
                    const std::vector<int>& cols) {
  for (int c : cols) {
    const Value& v = row[c];
    if (v.is_relationship() && v.AsRelationship() == r) return true;
    if (v.is_list()) {
      for (const Value& e : v.AsList()) {
        if (e.is_relationship() && e.AsRelationship() == r) return true;
      }
    }
  }
  return false;
}

/// Type check against the spec's pre-resolved type ids (see
/// ExpandSpec::type_ids) — one integer compare per wanted type.
bool TypeOk(const PropertyGraph& g, const ExpandSpec& spec, RelId r) {
  if (spec.type_ids.empty()) return true;
  SymbolId t = g.RelTypeId(r);
  for (SymbolId want : spec.type_ids) {
    if (want == t) return true;
  }
  return false;
}

/// Compiles the spec's relationship-property constraint values against
/// the driving row's columns (call from the constructor).
void CompileRelProps(const std::vector<std::string>& schema,
                     ExpandSpec* spec) {
  if (spec->rel_props == nullptr) return;
  for (const auto& [key, value] : *spec->rel_props) {
    spec->rel_prop_values.push_back(CompiledExpr::Compile(*value, schema));
  }
}

/// Resolves the spec's type names and property keys against the bound
/// graph and binds its property values (call from Open(): the graph is
/// fixed per execution, ids are stable per graph).
void BindSpec(const ExecContext& ctx, ExpandSpec* spec) {
  const PropertyGraph& g = *ctx.graph;
  spec->type_ids.clear();
  for (const auto& t : spec->types) spec->type_ids.push_back(g.LookupType(t));
  spec->rel_prop_keys.clear();
  if (spec->rel_props == nullptr) return;
  for (const auto& [key, value] : *spec->rel_props) {
    spec->rel_prop_keys.push_back(g.keys().Lookup(key));
  }
  for (CompiledExpr& e : spec->rel_prop_values) e.Bind(ctx.eval);
}

}  // namespace

// ---- LazyPropWants ----------------------------------------------------------

Result<bool> LazyPropWants::Ok(const ExecContext& ctx, const ExpandSpec& spec,
                               const ValueList& row, RelId r) {
  const auto& values = spec.rel_prop_values;
  for (size_t i = 0; i < values.size(); ++i) {
    if (i >= wants_.size()) {
      // Key i's constraint value is evaluated at the first candidate
      // that survives keys 0..i-1 — exactly when the per-candidate
      // reference check would evaluate it, so an erroring expression
      // behind a mismatching earlier key stays unevaluated.
      GQL_ASSIGN_OR_RETURN(const Value* want, values[i].Evaluate(row));
      wants_.push_back(*want);
    }
    if (ValueEquals(ctx.graph->RelPropertyById(r, spec.rel_prop_keys[i]),
                    wants_[i]) != Tri::kTrue) {
      return false;
    }
  }
  return true;
}

// ---- BatchCursor ------------------------------------------------------------

Result<const ValueList*> BatchCursor::Current(Operator* child,
                                              size_t capacity) {
  while (!done_ && pos_ >= batch_.size()) {
    if (batch_.capacity() != capacity) batch_ = RowBatch(capacity);
    GQL_ASSIGN_OR_RETURN(bool ok, child->NextBatch(&batch_));
    pos_ = 0;
    if (!ok) done_ = true;
  }
  if (done_) return static_cast<const ValueList*>(nullptr);
  return &batch_.row(pos_);
}

// ---- ArgumentOp -------------------------------------------------------------

Result<bool> ArgumentOp::NextBatchImpl(RowBatch* out) {
  if (single_row_ != nullptr) {
    if (done_single_) return false;
    done_single_ = true;
    out->Append(*single_row_);
    return true;
  }
  if (source_ == nullptr) return false;
  while (pos_ < source_->NumRows() && !out->full()) {
    out->Append(source_->rows()[pos_++]);
  }
  return !out->empty();
}

// ---- NodeScanOp -------------------------------------------------------------

NodeScanOp::NodeScanOp(OperatorPtr child, const ExecContext* ctx,
                       std::string var, std::string label)
    : Operator(nullptr, {}), ctx_(ctx), var_(var), label_(std::move(label)) {
  child_ = std::move(child);
  schema_ = Extend(child_->schema(), {var});
}

void NodeScanOp::AddPredicate(const ast::Expr* pred) {
  pred_exprs_.push_back(pred);
  preds_.push_back(CompiledExpr::Compile(*pred, schema_));
}

size_t NodeScanOp::ScanDomainSize() const {
  const PropertyGraph& g = *ctx_->graph;
  return label_.empty() ? g.NumNodeSlots() : g.NodesWithLabel(label_).size();
}

Status NodeScanOp::Open() {
  for (CompiledExpr& p : preds_) p.Bind(ctx_->eval);
  input_.Reset();
  pos_ = range_begin_;
  return child_->Open();
}

Result<bool> NodeScanOp::NextBatchImpl(RowBatch* out) {
  const PropertyGraph& g = *ctx_->graph;
  const std::vector<NodeId>* postings =
      label_.empty() ? nullptr : &g.NodesWithLabel(label_);
  const size_t end = std::min(range_end_, ScanDomainSize());
  while (!out->full()) {
    GQL_ASSIGN_OR_RETURN(const ValueList* in,
                         input_.Current(child_.get(), out->capacity()));
    if (in == nullptr) break;
    while (pos_ < end && !out->full()) {
      NodeId n = postings != nullptr ? (*postings)[pos_] : NodeId{pos_};
      ++pos_;
      if (postings == nullptr && !g.IsNodeAlive(n)) continue;
      ++rows_examined_;
      ValueList& row = out->AppendFrom(*in);
      row.push_back(Value::Node(n));
      for (const CompiledExpr& pred : preds_) {
        GQL_ASSIGN_OR_RETURN(Tri keep, pred.EvaluatePredicate(row));
        if (keep != Tri::kTrue) {
          out->PopBack();
          break;
        }
      }
    }
    if (pos_ >= end) {
      input_.Advance();
      pos_ = range_begin_;
    }
  }
  return !out->empty();
}

std::string NodeScanOp::Describe() const {
  std::string out = label_.empty() ? "AllNodesScan(" : "NodeByLabelScan(";
  out += var_;
  if (!label_.empty()) {
    out += ':';
    out += label_;
  }
  out += ')';
  for (size_t i = 0; i < pred_exprs_.size(); ++i) {
    out += i == 0 ? " WHERE " : " AND ";
    out += UnparseExpr(*pred_exprs_[i]);
  }
  return out;
}

void NodeScanOp::AbsorbCounters(const Operator& other) {
  Operator::AbsorbCounters(other);
  rows_examined_ += static_cast<const NodeScanOp&>(other).rows_examined_;
}

// ---- ExpandOp ---------------------------------------------------------------

ExpandOp::ExpandOp(OperatorPtr child, const ExecContext* ctx, ExpandSpec spec)
    : Operator(nullptr, {}), ctx_(ctx), spec_(std::move(spec)) {
  child_ = std::move(child);
  schema_ = child_->schema();
  CompileRelProps(schema_, &spec_);
  if (!spec_.rel_var.empty()) schema_.push_back(spec_.rel_var);
  if (spec_.to_col < 0) schema_.push_back(spec_.to_var);
}

Status ExpandOp::Open() {
  input_.Reset();
  adj_pos_ = 0;
  props_.Reset();
  BindSpec(*ctx_, &spec_);
  return child_->Open();
}

Result<bool> ExpandOp::RelMatches(RelId r, const ValueList& row,
                                  NodeId* next) {
  const PropertyGraph& g = *ctx_->graph;
  if (!TypeOk(g, spec_, r)) return false;
  if (ctx_->match.morphism != Morphism::kHomomorphism &&
      RelAlreadyUsed(r, row, spec_.uniqueness_cols)) {
    return false;
  }
  GQL_ASSIGN_OR_RETURN(bool props_ok,
                       props_.Ok(*ctx_, spec_, row, r));
  if (!props_ok) return false;
  if (spec_.bound_rel_col >= 0) {
    const Value& bound = row[spec_.bound_rel_col];
    if (!bound.is_relationship() || !(bound.AsRelationship() == r)) {
      return false;
    }
  }
  NodeId from = row[spec_.from_col].AsNode();
  NodeId src = g.Source(r);
  NodeId tgt = g.Target(r);
  switch (spec_.direction) {
    case ast::Direction::kRight:
      if (src != from) return false;
      *next = tgt;
      break;
    case ast::Direction::kLeft:
      if (tgt != from) return false;
      *next = src;
      break;
    case ast::Direction::kBoth:
      *next = (src == from) ? tgt : src;
      break;
  }
  if (spec_.to_col >= 0) {
    const Value& want = row[spec_.to_col];
    if (!want.is_node() || !(want.AsNode() == *next)) return false;
  }
  return true;
}

Result<bool> ExpandOp::NextBatchImpl(RowBatch* out) {
  const PropertyGraph& g = *ctx_->graph;
  while (!out->full()) {
    GQL_ASSIGN_OR_RETURN(const ValueList* in,
                         input_.Current(child_.get(), out->capacity()));
    if (in == nullptr) break;
    const Value& from_v = (*in)[spec_.from_col];
    if (!from_v.is_node() || !g.IsNodeAlive(from_v.AsNode())) {
      input_.Advance();
      adj_pos_ = 0;
      props_.Reset();
      continue;
    }
    NodeId from = from_v.AsNode();
    const auto& out_rels = g.OutRels(from);
    const auto& in_rels = g.InRels(from);
    // Conceptual adjacency sequence: out rels then (when direction allows)
    // in rels. Self-loops are skipped in the `in` half so undirected
    // traversal sees them once.
    size_t total = out_rels.size() + in_rels.size();
    while (adj_pos_ < total && !out->full()) {
      size_t i = adj_pos_++;
      RelId r;
      bool from_out = i < out_rels.size();
      if (from_out) {
        r = out_rels[i];
        if (spec_.direction == ast::Direction::kLeft &&
            g.Source(r) == g.Target(r)) {
          // A self-loop also appears in `in`; let the `in` half handle it
          // for left-pointing patterns.
          continue;
        }
        if (spec_.direction == ast::Direction::kLeft &&
            g.Target(r) != from) {
          continue;
        }
      } else {
        r = in_rels[i - out_rels.size()];
        if (spec_.direction != ast::Direction::kLeft &&
            g.Source(r) == g.Target(r)) {
          continue;  // self-loop handled in the `out` half
        }
        if (spec_.direction == ast::Direction::kRight) continue;
      }
      NodeId next;
      GQL_ASSIGN_OR_RETURN(bool rel_ok, RelMatches(r, *in, &next));
      if (!rel_ok) continue;
      ValueList& row = out->AppendFrom(*in);
      if (!spec_.rel_var.empty()) row.push_back(Value::Relationship(r));
      if (spec_.to_col < 0) row.push_back(Value::Node(next));
    }
    if (adj_pos_ >= total) {
      input_.Advance();
      adj_pos_ = 0;
      props_.Reset();
    }
  }
  return !out->empty();
}

std::string ExpandOp::Describe() const {
  std::string arrow = spec_.direction == ast::Direction::kRight   ? "->"
                      : spec_.direction == ast::Direction::kLeft ? "<-"
                                                                  : "--";
  std::string out = spec_.to_col >= 0 ? "ExpandInto(" : "Expand(";
  out += schema_[spec_.from_col] + arrow;
  for (size_t i = 0; i < spec_.types.size(); ++i) {
    out += (i ? "|" : ":") + spec_.types[i];
  }
  out += arrow;
  out += spec_.to_col >= 0 ? schema_[spec_.to_col] : spec_.to_var;
  return out + ")";
}

// ---- HashJoinExpandOp -------------------------------------------------------

HashJoinExpandOp::HashJoinExpandOp(OperatorPtr child, const ExecContext* ctx,
                                   ExpandSpec spec)
    : Operator(nullptr, {}), ctx_(ctx), spec_(std::move(spec)) {
  child_ = std::move(child);
  schema_ = child_->schema();
  CompileRelProps(schema_, &spec_);
  if (!spec_.rel_var.empty()) schema_.push_back(spec_.rel_var);
  if (spec_.to_col < 0) schema_.push_back(spec_.to_var);
}

Status HashJoinExpandOp::Open() {
  input_.Reset();
  probing_ = false;
  BindSpec(*ctx_, &spec_);
  if (!built_) {
    // Build side: scan the entire relationship store (the indirection the
    // adjacency-based Expand avoids).
    const PropertyGraph& g = *ctx_->graph;
    for (size_t i = 0; i < g.NumRelSlots(); ++i) {
      RelId r{i};
      if (!g.IsRelAlive(r)) continue;
      if (!TypeOk(g, spec_, r)) continue;
      switch (spec_.direction) {
        case ast::Direction::kRight:
          index_.emplace(g.Source(r).id, r.id);
          break;
        case ast::Direction::kLeft:
          index_.emplace(g.Target(r).id, r.id);
          break;
        case ast::Direction::kBoth:
          index_.emplace(g.Source(r).id, r.id);
          if (!(g.Source(r) == g.Target(r))) {
            index_.emplace(g.Target(r).id, r.id);
          }
          break;
      }
    }
    built_ = true;
  }
  range_ = {index_.end(), index_.end()};
  return child_->Open();
}

Result<bool> HashJoinExpandOp::NextBatchImpl(RowBatch* out) {
  const PropertyGraph& g = *ctx_->graph;
  while (!out->full()) {
    GQL_ASSIGN_OR_RETURN(const ValueList* in,
                         input_.Current(child_.get(), out->capacity()));
    if (in == nullptr) break;
    if (!probing_) {
      const Value& from_v = (*in)[spec_.from_col];
      if (!from_v.is_node()) {
        input_.Advance();
        continue;
      }
      range_ = index_.equal_range(from_v.AsNode().id);
      probing_ = true;
      props_.Reset();
    }
    while (range_.first != range_.second && !out->full()) {
      RelId r{range_.first->second};
      ++range_.first;
      if (ctx_->match.morphism != Morphism::kHomomorphism &&
          RelAlreadyUsed(r, *in, spec_.uniqueness_cols)) {
        continue;
      }
      if (spec_.bound_rel_col >= 0) {
        const Value& bound = (*in)[spec_.bound_rel_col];
        if (!bound.is_relationship() || !(bound.AsRelationship() == r)) {
          continue;
        }
      }
      GQL_ASSIGN_OR_RETURN(bool props_ok, props_.Ok(*ctx_, spec_, *in, r));
      if (!props_ok) continue;
      NodeId from = (*in)[spec_.from_col].AsNode();
      NodeId next = g.OtherEnd(r, from);
      if (spec_.direction == ast::Direction::kRight) next = g.Target(r);
      if (spec_.direction == ast::Direction::kLeft) next = g.Source(r);
      if (spec_.to_col >= 0) {
        const Value& want = (*in)[spec_.to_col];
        if (!want.is_node() || !(want.AsNode() == next)) continue;
      }
      ValueList& row = out->AppendFrom(*in);
      if (!spec_.rel_var.empty()) row.push_back(Value::Relationship(r));
      if (spec_.to_col < 0) row.push_back(Value::Node(next));
    }
    if (range_.first == range_.second) {
      probing_ = false;
      input_.Advance();
    }
  }
  return !out->empty();
}

std::string HashJoinExpandOp::Describe() const {
  return "HashJoinExpand(" + schema_[spec_.from_col] + "," +
         (spec_.to_col >= 0 ? schema_[spec_.to_col] : spec_.to_var) + ")";
}

// ---- VarLengthExpandOp ------------------------------------------------------

VarLengthExpandOp::VarLengthExpandOp(OperatorPtr child, const ExecContext* ctx,
                                     ExpandSpec spec, int64_t min, int64_t max)
    : Operator(nullptr, {}), ctx_(ctx), spec_(std::move(spec)), min_(min),
      max_(max) {
  child_ = std::move(child);
  schema_ = child_->schema();
  CompileRelProps(schema_, &spec_);
  if (!spec_.rel_var.empty()) schema_.push_back(spec_.rel_var);
  if (spec_.to_col < 0) schema_.push_back(spec_.to_var);
}

Status VarLengthExpandOp::Open() {
  input_.Clear();
  pending_size_ = 0;
  pos_in_pending_ = 0;
  BindSpec(*ctx_, &spec_);
  return child_->Open();
}

ValueList& VarLengthExpandOp::NextPendingSlot() {
  if (pending_size_ < pending_.size()) {
    ValueList& slot = pending_[pending_size_++];
    slot.clear();
    return slot;
  }
  pending_.emplace_back();
  ++pending_size_;
  return pending_.back();
}

Status VarLengthExpandOp::ExpandBatch() {
  const PropertyGraph& g = *ctx_->graph;
  pending_size_ = 0;
  size_t n = input_.size();

  // Per-row lazily-hoisted relationship property constraint values.
  std::vector<LazyPropWants> wants(spec_.rel_props != nullptr ? n : 0);

  auto emit = [&](uint32_t row_idx, NodeId target, const RelId* path,
                  size_t path_len) {
    const ValueList& in = input_.row(row_idx);
    if (spec_.to_col >= 0) {
      const Value& want = in[spec_.to_col];
      if (!want.is_node() || !(want.AsNode() == target)) return;
    }
    ValueList& row = NextPendingSlot();
    row.reserve(in.size() + 2);
    row.assign(in.begin(), in.end());
    if (!spec_.rel_var.empty()) {
      ValueList list;
      list.reserve(path_len);
      for (size_t k = 0; k < path_len; ++k) {
        list.push_back(Value::Relationship(path[k]));
      }
      row.push_back(Value::MakeList(std::move(list)));
    }
    if (spec_.to_col < 0) row.push_back(Value::Node(target));
  };

  // One frontier entry per in-flight path. Each level's paths live in
  // one flat pooled arena with stride = level length (level-synchronous
  // BFS keeps them uniform): extending appends prefix + new relationship
  // to the next level's arena — amortized chunk growth instead of a
  // vector allocation per extension — and the trail-uniqueness scan
  // stays a linear pass over contiguous memory (parent-linked path
  // sharing measures slower at depth: pointer-chasing latency on every
  // uniqueness probe).
  frontier_.clear();
  cur_paths_.clear();
  for (uint32_t i = 0; i < n; ++i) {
    const ValueList& in = input_.row(i);
    const Value& from_v = in[spec_.from_col];
    if (!from_v.is_node() || !g.IsNodeAlive(from_v.AsNode())) continue;
    NodeId from = from_v.AsNode();
    if (min_ == 0) emit(i, from, nullptr, 0);
    if (max_ >= 1) frontier_.push_back({i, from});
  }

  // Level-synchronous BFS over the whole morsel: every depth in
  // [max(1,min), max] produces its own rows (rigid refinements), and the
  // relationship-isomorphism rule (no rel reused within one path, nor
  // against the clause's uniqueness columns) keeps enumeration finite.
  for (int64_t depth = 1; depth <= max_ && !frontier_.empty(); ++depth) {
    next_frontier_.clear();
    next_paths_.clear();
    // Entry e's path in this level's arena (stride = depth - 1).
    const size_t stride = static_cast<size_t>(depth - 1);
    for (size_t ei = 0; ei < frontier_.size(); ++ei) {
      const FrontierEntry& e = frontier_[ei];
      const RelId* path = cur_paths_.data() + ei * stride;
      const ValueList& in = input_.row(e.row);
      auto consider = [&](RelId r, bool from_out) -> Status {
        if (!TypeOk(g, spec_, r)) return Status::OK();
        // Within-path uniqueness plus clause-level uniqueness columns.
        if (ctx_->match.morphism != Morphism::kHomomorphism) {
          for (size_t k = 0; k < stride; ++k) {
            if (path[k] == r) return Status::OK();
          }
          if (RelAlreadyUsed(r, in, spec_.uniqueness_cols)) {
            return Status::OK();
          }
        }
        if (spec_.rel_props != nullptr) {
          GQL_ASSIGN_OR_RETURN(
              bool props_ok,
              wants[e.row].Ok(*ctx_, spec_, in, r));
          if (!props_ok) return Status::OK();
        }
        NodeId src = g.Source(r);
        NodeId tgt = g.Target(r);
        NodeId next;
        switch (spec_.direction) {
          case ast::Direction::kRight:
            if (src != e.node) return Status::OK();
            next = tgt;
            break;
          case ast::Direction::kLeft:
            if (tgt != e.node) return Status::OK();
            next = src;
            break;
          case ast::Direction::kBoth:
            if (src == tgt && !from_out) return Status::OK();  // once
            next = (src == e.node) ? tgt : src;
            break;
        }
        // Materialize the extension at the next arena's tail; keep it
        // only if it seeds the next level.
        size_t base = next_paths_.size();
        if (stride > 0) {  // depth 1 has a null arena; 0-len insert is UB
          next_paths_.insert(next_paths_.end(), path, path + stride);
        }
        next_paths_.push_back(r);
        if (depth >= min_) {
          emit(e.row, next, next_paths_.data() + base, stride + 1);
        }
        if (depth < max_) {
          next_frontier_.push_back({e.row, next});
        } else {
          next_paths_.resize(base);
        }
        return Status::OK();
      };
      if (spec_.direction != ast::Direction::kLeft) {
        for (RelId r : g.OutRels(e.node)) {
          GQL_RETURN_IF_ERROR(consider(r, true));
        }
      }
      if (spec_.direction != ast::Direction::kRight) {
        for (RelId r : g.InRels(e.node)) {
          GQL_RETURN_IF_ERROR(consider(r, false));
        }
      }
    }
    frontier_.swap(next_frontier_);
    cur_paths_.swap(next_paths_);
  }
  return Status::OK();
}

Result<bool> VarLengthExpandOp::NextBatchImpl(RowBatch* out) {
  while (!out->full()) {
    if (pos_in_pending_ < pending_size_) {
      while (pos_in_pending_ < pending_size_ && !out->full()) {
        // Copy (don't move): both the pending slot and the out slot keep
        // their allocations for the next refill; the elements themselves
        // are O(1) to copy.
        out->AppendFrom(pending_[pos_in_pending_++]);
      }
      continue;
    }
    if (input_.capacity() != out->capacity()) input_ = RowBatch(out->capacity());
    GQL_ASSIGN_OR_RETURN(bool ok, child_->NextBatch(&input_));
    if (!ok) break;
    GQL_RETURN_IF_ERROR(ExpandBatch());
    pos_in_pending_ = 0;
  }
  return !out->empty();
}

std::string VarLengthExpandOp::Describe() const {
  std::string out = "VarLengthExpand(" + schema_[spec_.from_col] + "-";
  for (size_t i = 0; i < spec_.types.size(); ++i) {
    out += (i ? "|" : ":") + spec_.types[i];
  }
  out += "*" + std::to_string(min_) + ".." + std::to_string(max_) + "->";
  out += spec_.to_col >= 0 ? schema_[spec_.to_col] : spec_.to_var;
  return out + ")";
}

// ---- FilterOp ---------------------------------------------------------------

FilterOp::FilterOp(OperatorPtr child, const ExecContext* ctx,
                   const ast::Expr* pred)
    : Operator(nullptr, {}), ctx_(ctx) {
  child_ = std::move(child);
  schema_ = child_->schema();
  pred_ = CompiledExpr::Compile(*pred, schema_);
}

Status FilterOp::Open() {
  pred_.Bind(ctx_->eval);
  return child_->Open();
}

Result<bool> FilterOp::NextBatchImpl(RowBatch* out) {
  while (true) {
    GQL_ASSIGN_OR_RETURN(bool ok, child_->NextBatch(out));
    if (!ok) return false;
    keep_.clear();
    for (uint32_t i = 0; i < out->size(); ++i) {
      GQL_ASSIGN_OR_RETURN(Tri keep, pred_.EvaluatePredicate(out->row(i)));
      if (keep == Tri::kTrue) keep_.push_back(i);
    }
    if (keep_.empty()) continue;  // whole morsel filtered out; pull more
    if (keep_.size() < out->size()) out->Select(keep_);
    return true;
  }
}

std::string FilterOp::Describe() const {
  return "Filter";  // predicate text available via UnparseExpr if needed
}

// ---- ApplyOp ----------------------------------------------------------------

ApplyOp::ApplyOp(OperatorPtr child, OperatorPtr inner, ArgumentOp* argument,
                 bool optional, std::vector<std::string> schema)
    : Operator(nullptr, std::move(schema)),
      inner_(std::move(inner)),
      argument_(argument),
      optional_(optional) {
  child_ = std::move(child);
}

Status ApplyOp::Open() {
  input_.Reset();
  inner_open_ = false;
  return child_->Open();
}

Result<bool> ApplyOp::NextBatchImpl(RowBatch* out) {
  // Streams the inner pipeline's morsels straight through (no
  // re-buffering): each return carries one inner morsel of the current
  // driving row. Morsels from an Apply may therefore run smaller than
  // the configured capacity — the batch contract only requires >= 1 row.
  while (true) {
    GQL_ASSIGN_OR_RETURN(const ValueList* in,
                         input_.Current(child_.get(), out->capacity()));
    if (in == nullptr) return false;
    if (!inner_open_) {
      // One-row correlation: the Argument leaf replays this driving row.
      argument_->BindRow(in);
      GQL_RETURN_IF_ERROR(inner_->Open());
      inner_open_ = true;
      inner_matched_ = false;
    }
    GQL_ASSIGN_OR_RETURN(bool ok, inner_->NextBatch(out));
    if (ok) {
      inner_matched_ = true;
      return true;
    }
    inner_open_ = false;
    input_.Advance();
    if (optional_ && !inner_matched_) {
      // OPTIONAL MATCH null-padding (Figure 7's rule).
      out->AppendFrom(*in).resize(schema_.size(), Value::Null());
      return true;
    }
  }
}

// ---- UnwindOp ---------------------------------------------------------------

UnwindOp::UnwindOp(OperatorPtr child, const ExecContext* ctx,
                   const ast::Expr* expr, std::string var)
    : Operator(nullptr, {}),
      ctx_(ctx),
      expr_(CompiledExpr::Compile(*expr, child->schema())),
      var_(var) {
  child_ = std::move(child);
  schema_ = Extend(child_->schema(), {var});
}

Status UnwindOp::Open() {
  expr_.Bind(ctx_->eval);
  input_.Reset();
  row_ready_ = false;
  return child_->Open();
}

Result<bool> UnwindOp::NextBatchImpl(RowBatch* out) {
  while (!out->full()) {
    GQL_ASSIGN_OR_RETURN(const ValueList* in,
                         input_.Current(child_.get(), out->capacity()));
    if (in == nullptr) break;
    if (!row_ready_) {
      GQL_ASSIGN_OR_RETURN(const Value* v, expr_.Evaluate(*in));
      item_pos_ = 0;
      single_pending_ = false;
      if (v->is_list()) {
        items_ = *v;  // share the payload; no element copies
      } else {
        static const Value kSharedEmptyList = Value::EmptyList();
        items_ = kSharedEmptyList;  // refcount bump, no allocation
        single_pending_ = true;
        single_value_ = *v;
      }
      row_ready_ = true;
    }
    if (single_pending_) {
      single_pending_ = false;
      out->AppendFrom(*in).push_back(single_value_);
    }
    const ValueList& items = items_.AsList();
    while (item_pos_ < items.size() && !out->full()) {
      out->AppendFrom(*in).push_back(items[item_pos_++]);
    }
    if (!single_pending_ && item_pos_ >= items.size()) {
      input_.Advance();
      row_ready_ = false;
    }
  }
  return !out->empty();
}

// ---- ProjectionOp -----------------------------------------------------------

ProjectionOp::ProjectionOp(OperatorPtr child, const ExecContext* ctx,
                           const ast::ProjectionBody* body,
                           const ast::Expr* where,
                           std::vector<std::string> schema)
    : Operator(nullptr, std::move(schema)), ctx_(ctx), body_(body),
      where_(where) {
  child_ = std::move(child);
  // An aggregating body reads the child's rows as they are; a
  // non-aggregating `*` first strips the planner's '#' columns.
  std::vector<std::string> input = child_->schema();
  if (body_->star && !ProjectionAggregates(*body_)) {
    input.erase(std::remove_if(input.begin(), input.end(),
                               [](const std::string& f) {
                                 return !f.empty() && f[0] == '#';
                               }),
                input.end());
  }
  exprs_ = CompiledProjection::Compile(*body_, input);
  if (where_ != nullptr) where_expr_ = CompiledExpr::Compile(*where_, schema_);
}

void ProjectionOp::Bind() {
  exprs_.Bind(ctx_->eval);
  where_expr_.Bind(ctx_->eval);
}

Result<Table> ProjectionOp::FilterWhere(Table result) const {
  if (where_ == nullptr) return result;
  Table filtered(result.fields());
  for (auto& r : result.mutable_rows()) {
    GQL_ASSIGN_OR_RETURN(Tri keep, where_expr_.EvaluatePredicate(r));
    if (keep == Tri::kTrue) filtered.AddRow(std::move(r));
  }
  return filtered;
}

namespace {

/// `*` must not expose planner-hidden columns ('#...'): strip them before
/// delegating to the shared projection machinery.
Table StripHiddenColumns(Table input) {
  bool has_hidden = false;
  for (const auto& f : input.fields()) {
    if (!f.empty() && f[0] == '#') has_hidden = true;
  }
  if (!has_hidden) return input;
  std::vector<std::string> keep_fields;
  std::vector<size_t> keep_idx;
  for (size_t i = 0; i < input.fields().size(); ++i) {
    if (input.fields()[i].empty() || input.fields()[i][0] != '#') {
      keep_fields.push_back(input.fields()[i]);
      keep_idx.push_back(i);
    }
  }
  Table stripped(keep_fields);
  for (auto& r : input.mutable_rows()) {
    ValueList row;
    row.reserve(keep_idx.size());
    for (size_t i : keep_idx) row.push_back(std::move(r[i]));
    stripped.AddRow(std::move(row));
  }
  return stripped;
}

}  // namespace

Result<Table> ProjectionOp::ProjectTable(Table input) const {
  if (body_->star) input = StripHiddenColumns(std::move(input));
  GQL_ASSIGN_OR_RETURN(Table result,
                       EvaluateProjection(*body_, input, ctx_->eval, &exprs_));
  return FilterWhere(std::move(result));
}

Result<Table> ProjectionOp::ProjectChunk(Table input,
                                         std::vector<ValueList>* keys) const {
  if (body_->star) input = StripHiddenColumns(std::move(input));
  return ProjectRows(*body_, input, ctx_->eval, keys, &exprs_);
}

void ProjectionOp::PreloadResult(Table result) {
  result_ = std::move(result);
  has_preloaded_ = true;
}

Status ProjectionOp::Open() {
  Bind();
  if (has_preloaded_) {
    // The parallel merge stages already produced this breaker's output
    // (projection, tail and WHERE included); stream it without touching
    // the child — the child's pipelines already ran, range by range, on
    // the workers. One-shot: a later Open() recomputes normally.
    has_preloaded_ = false;
    pos_ = 0;
    return Status::OK();
  }
  GQL_RETURN_IF_ERROR(child_->Open());
  if (ProjectionAggregates(*body_)) {
    // Aggregating projection: stream the child's morsels straight into
    // the aggregation state — the pre-aggregation table (often the whole
    // join) never materializes. AggregationState::Plan skips planner-
    // hidden '#' columns for `*`, so no stripping pass is needed here.
    GQL_ASSIGN_OR_RETURN(AggregationState state,
                         AggregationState::Plan(*body_, child_->schema()));
    RowBatch batch(ctx_->batch_size);
    while (true) {
      GQL_ASSIGN_OR_RETURN(bool ok, child_->NextBatch(&batch));
      if (!ok) break;
      for (size_t i = 0; i < batch.size(); ++i) {
        GQL_RETURN_IF_ERROR(
            state.AccumulateRow(batch.row(i), ctx_->eval, &exprs_));
      }
    }
    GQL_ASSIGN_OR_RETURN(Table grouped, state.Finish(ctx_->eval));
    GQL_ASSIGN_OR_RETURN(
        grouped, ApplyProjectionTail(*body_, std::move(grouped), nullptr,
                                     nullptr, ctx_->eval, &exprs_));
    GQL_ASSIGN_OR_RETURN(result_, FilterWhere(std::move(grouped)));
  } else {
    GQL_ASSIGN_OR_RETURN(Table input,
                         DrainPlan(child_.get(), ctx_->batch_size));
    GQL_ASSIGN_OR_RETURN(result_, ProjectTable(std::move(input)));
  }
  pos_ = 0;
  return Status::OK();
}

Result<bool> ProjectionOp::NextBatchImpl(RowBatch* out) {
  // Streams the materialized result; rows move out (Open rebuilds).
  while (pos_ < result_.NumRows() && !out->full()) {
    out->Append(std::move(result_.mutable_rows()[pos_++]));
  }
  return !out->empty();
}

std::string ProjectionOp::Describe() const {
  std::string out = "Projection(";
  bool agg = false;
  for (const auto& item : body_->items) {
    if (ContainsAggregate(*item.expr)) agg = true;
  }
  if (agg) out = "EagerAggregation(";
  for (size_t i = 0; i < schema_.size(); ++i) {
    if (i) out += ", ";
    out += schema_[i];
  }
  if (body_->distinct) out += " DISTINCT";
  if (!body_->order_by.empty()) out += " ORDER BY";
  if (body_->skip) out += " SKIP";
  if (body_->limit) out += " LIMIT";
  return out + ")";
}

// ---- UnionOp ----------------------------------------------------------------

UnionOp::UnionOp(std::vector<OperatorPtr> parts, bool all,
                 std::vector<std::string> schema, size_t batch_size)
    : Operator(nullptr, std::move(schema)), parts_(std::move(parts)),
      all_(all), batch_size_(batch_size) {}

Status UnionOp::Open() {
  materialized_ = Table(schema_);
  for (auto& p : parts_) {
    GQL_RETURN_IF_ERROR(p->Open());
    GQL_ASSIGN_OR_RETURN(Table t, DrainPlan(p.get(), batch_size_));
    for (auto& r : t.mutable_rows()) {
      materialized_.AddRow(std::move(r));  // NextBatch moves them out again
    }
  }
  if (!all_) materialized_ = materialized_.Deduplicated();
  pos_ = 0;
  return Status::OK();
}

Result<bool> UnionOp::NextBatchImpl(RowBatch* out) {
  while (pos_ < materialized_.NumRows() && !out->full()) {
    out->Append(std::move(materialized_.mutable_rows()[pos_++]));
  }
  return !out->empty();
}

// ---- MatcherOp --------------------------------------------------------------

MatcherOp::MatcherOp(OperatorPtr child, const ExecContext* ctx,
                     const ast::Pattern* pattern,
                     std::vector<std::string> new_cols)
    : Operator(nullptr, {}), ctx_(ctx), pattern_(pattern),
      new_cols_(std::move(new_cols)) {
  child_ = std::move(child);
  schema_ = child_->schema();
  for (const auto& c : new_cols_) schema_.push_back(c);
}

Status MatcherOp::Open() {
  input_.Reset();
  row_ready_ = false;
  buffered_.clear();
  pos_ = 0;
  return child_->Open();
}

Result<bool> MatcherOp::NextBatchImpl(RowBatch* out) {
  while (!out->full()) {
    GQL_ASSIGN_OR_RETURN(const ValueList* in,
                         input_.Current(child_.get(), out->capacity()));
    if (in == nullptr) break;
    if (!row_ready_) {
      buffered_.clear();
      pos_ = 0;
      SchemaRowEnvironment env(child_->schema(), *in);
      Status st = MatchPattern(*pattern_, *ctx_->graph, env, ctx_->eval,
                               ctx_->match, new_cols_,
                               [&](const BindingRow& b) -> Result<bool> {
                                 ValueList row = *in;
                                 for (const Value& v : b) row.push_back(v);
                                 buffered_.push_back(std::move(row));
                                 return true;
                               });
      GQL_RETURN_IF_ERROR(st);
      row_ready_ = true;
    }
    while (pos_ < buffered_.size() && !out->full()) {
      out->Append(std::move(buffered_[pos_++]));
    }
    if (pos_ >= buffered_.size()) {
      input_.Advance();
      row_ready_ = false;
    }
  }
  return !out->empty();
}

// ---- Helpers ----------------------------------------------------------------

void Operator::AbsorbCounters(const Operator& other) {
  rows_produced_ += other.rows_produced_;
  batches_produced_ += other.batches_produced_;
  std::vector<const Operator*> mine = children();
  std::vector<const Operator*> theirs = other.children();
  for (size_t i = 0; i < mine.size() && i < theirs.size(); ++i) {
    // children() exposes const views for EXPLAIN; the counters being
    // folded belong to this (mutable) tree.
    const_cast<Operator*>(mine[i])->AbsorbCounters(*theirs[i]);
  }
}

Result<Table> DrainPlan(Operator* root, size_t batch_size,
                        BatchStats* stats) {
  Table out(root->schema());
  RowBatch batch(batch_size);
  while (true) {
    GQL_ASSIGN_OR_RETURN(bool ok, root->NextBatch(&batch));
    if (!ok) break;
    if (stats != nullptr) {
      ++stats->batches;
      stats->rows += static_cast<int64_t>(batch.size());
    }
    out.AddBatch(&batch);
  }
  return out;
}

namespace {

/// An estimate for EXPLAIN: %.1f below 10 keeps sub-row selectivities
/// visible; whole numbers above.
std::string FormatEstimate(double est) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), est < 10 ? "%.1f" : "%.0f", est);
  return buf;
}

void ExplainRec(const Operator& op, int depth, bool with_rows,
                std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  *out += "+ " + op.Describe();
  // A scan that filters in place shows what a Filter above it would
  // have: the candidates next to the rows kept.
  const auto* scan = dynamic_cast<const NodeScanOp*>(&op);
  const bool filters = scan != nullptr && scan->filters();
  if (op.est_rows() >= 0) {
    *out += "  (";
    if (filters && scan->est_scanned() >= 0) {
      *out += "est. scanned: " + FormatEstimate(scan->est_scanned()) + ", ";
    }
    *out += "est. rows: " + FormatEstimate(op.est_rows()) + ")";
  }
  if (with_rows) {
    *out += "  (";
    if (filters) {
      *out += "examined: " + std::to_string(scan->rows_examined()) + ", ";
    }
    *out += "rows: " + std::to_string(op.rows_produced()) +
            ", batches: " + std::to_string(op.batches_produced()) + ")";
  }
  *out += "\n";
  for (const Operator* c : op.children()) {
    if (c != nullptr) ExplainRec(*c, depth + 1, with_rows, out);
  }
}

}  // namespace

std::string ExplainPlan(const Operator& root) {
  std::string out;
  ExplainRec(root, 0, /*with_rows=*/false, &out);
  return out;
}

std::string ProfilePlan(const Operator& root) {
  std::string out;
  ExplainRec(root, 0, /*with_rows=*/true, &out);
  return out;
}

}  // namespace gqlite
