#include "src/exec/parallel.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/frontend/analyzer.h"
#include "src/interp/projection.h"
#include "src/value/value_compare.h"

namespace gqlite {

namespace {

using ast::Expr;

/// Does the expression call rand()? (The parser lower-cases function
/// names.)
bool CallsRand(const Expr& e) {
  if (e.kind == Expr::Kind::kFunctionCall &&
      static_cast<const ast::FunctionCallExpr&>(e).name == "rand") {
    return true;
  }
  bool found = false;
  ast::ForEachChild(e, [&found](const Expr& c) {
    found = found || CallsRand(c);
  });
  return found;
}

/// True when `op` (a non-root operator) distributes over a partition of
/// the driving scan: running it per partition and concatenating results
/// in partition order equals the serial run. Fills `why` otherwise.
bool Distributive(const Operator* op, std::string* why) {
  if (op == nullptr) return true;
  if (auto* p = dynamic_cast<const ProjectionOp*>(op)) {
    const ast::ProjectionBody& b = *p->body();
    const char* blocker = nullptr;
    if (ProjectionAggregates(b)) {
      blocker = "aggregation";
    } else if (b.distinct) {
      blocker = "DISTINCT";
    } else if (!b.order_by.empty()) {
      // A per-partition sort reorders rows the final SKIP/LIMIT (or a
      // downstream non-commutative step) could observe; keep it serial.
      blocker = "ORDER BY";
    } else if (b.skip != nullptr) {
      blocker = "SKIP";
    } else if (b.limit != nullptr) {
      blocker = "LIMIT";
    }
    if (blocker != nullptr) {
      *why = std::string("intermediate WITH ") + blocker +
             " is a serial pipeline breaker";
      return false;
    }
  } else if (dynamic_cast<const UnionOp*>(op) != nullptr) {
    *why = "UNION materializes whole sub-plans";
    return false;
  } else if (dynamic_cast<const ArgumentOp*>(op) == nullptr &&
             dynamic_cast<const NodeScanOp*>(op) == nullptr &&
             dynamic_cast<const ExpandOp*>(op) == nullptr &&
             dynamic_cast<const HashJoinExpandOp*>(op) == nullptr &&
             dynamic_cast<const VarLengthExpandOp*>(op) == nullptr &&
             dynamic_cast<const FilterOp*>(op) == nullptr &&
             dynamic_cast<const ApplyOp*>(op) == nullptr &&
             dynamic_cast<const UnwindOp*>(op) == nullptr &&
             dynamic_cast<const MatcherOp*>(op) == nullptr) {
    // Unknown operator kinds are conservatively serial.
    *why = "operator " + op->Describe() + " is not parallel-safe";
    return false;
  }
  for (const Operator* ch : op->children()) {
    if (!Distributive(ch, why)) return false;
  }
  return true;
}

/// True when the body is a pipeline breaker whose tail the merge stage
/// must own (aggregation / DISTINCT / ORDER BY / SKIP / LIMIT).
bool BodyBreaks(const ast::ProjectionBody& b) {
  return ProjectionAggregates(b) || b.distinct || !b.order_by.empty() ||
         b.skip != nullptr || b.limit != nullptr;
}

std::string MergeShape(const ast::ProjectionBody& b) {
  if (ProjectionAggregates(b)) return "aggregation merge";
  if (b.distinct) {
    return b.order_by.empty() ? "partitioned DISTINCT merge"
                              : "partitioned DISTINCT merge + sort";
  }
  if (!b.order_by.empty()) return "parallel merge sort";
  return "concat merge";
}

/// One projected row in a sorted run: its ORDER BY key row plus the
/// (range, row-within-range) sequence that breaks ties on original scan
/// order. The tie-break makes the comparator a STRICT total order, so
/// std::sort, the run merges and top-K truncation all reproduce the
/// serial std::stable_sort byte-for-byte.
struct SortRow {
  ValueList row;
  ValueList keys;
  uint64_t range = 0;
  uint64_t idx = 0;
};
using SortedRun = std::vector<SortRow>;

bool SortRowLess(const ast::ProjectionBody& body, const SortRow& a,
                 const SortRow& b) {
  int c = CompareOrderKeys(body, a.keys, b.keys);
  if (c != 0) return c < 0;
  return a.range != b.range ? a.range < b.range : a.idx < b.idx;
}

/// Two-way merge of sorted runs, truncated to the first `topk` rows
/// (UINT64_MAX = unbounded).
SortedRun MergeSortedRuns(const ast::ProjectionBody& body, SortedRun a,
                          SortedRun b, uint64_t topk) {
  SortedRun out;
  uint64_t total = a.size() + b.size();
  out.reserve(static_cast<size_t>(total < topk ? total : topk));
  size_t i = 0;
  size_t j = 0;
  while ((i < a.size() || j < b.size()) && out.size() < topk) {
    bool take_a =
        j >= b.size() || (i < a.size() && SortRowLess(body, a[i], b[j]));
    out.push_back(std::move(take_a ? a[i++] : b[j++]));
  }
  return out;
}

/// Pairwise merge rounds over the sorted runs, on the calling thread,
/// leaving one run. Under the strict total order the pairing does not
/// change the output; rounds keep the work at O(rows · log runs).
SortedRun MergeRuns(const ast::ProjectionBody& body,
                    std::vector<SortedRun> runs, uint64_t topk) {
  while (runs.size() > 1) {
    std::vector<SortedRun> next;
    next.reserve((runs.size() + 1) / 2);
    for (size_t i = 0; i + 1 < runs.size(); i += 2) {
      next.push_back(MergeSortedRuns(body, std::move(runs[i]),
                                     std::move(runs[i + 1]), topk));
    }
    if (runs.size() % 2 != 0) next.push_back(std::move(runs.back()));
    runs = std::move(next);
  }
  return runs.empty() ? SortedRun() : std::move(runs[0]);
}

/// Global (range, row-within-range) position of a projected row — the
/// interleave key that restores serial first-occurrence order after the
/// partitioned DISTINCT.
struct RowSeq {
  uint64_t range = 0;
  uint64_t idx = 0;
};
bool SeqLess(RowSeq a, RowSeq b) {
  return a.range != b.range ? a.range < b.range : a.idx < b.idx;
}

/// Seen-set over pointers into the per-range projected tables (the rows
/// stay owned by their tables; the set stores no copies). Same
/// hash/equivalence pair as Table::Deduplicated.
struct RowPtrHash {
  size_t operator()(const ValueList* r) const { return RowHash(*r); }
};
struct RowPtrEq {
  bool operator()(const ValueList* a, const ValueList* b) const {
    return RowEquivalent(*a, *b);
  }
};

/// The serial tail's SKIP/LIMIT slice (the merge stages sort/dedup
/// themselves, then slice and WHERE-filter exactly like
/// ApplyProjectionTail + FilterWhere).
Result<Table> SliceSkipLimit(const ast::ProjectionBody& body, Table t,
                             const EvalContext& ctx) {
  if (body.skip == nullptr && body.limit == nullptr) return t;
  GQL_ASSIGN_OR_RETURN(SkipLimitBounds b, EvaluateSkipLimit(body, ctx));
  Table limited(t.fields());
  int64_t n = static_cast<int64_t>(t.NumRows());
  int64_t end = b.limit < 0 ? n : std::min(n, b.skip + b.limit);
  for (int64_t i = b.skip; i < end; ++i) {
    limited.AddRow(std::move(t.mutable_rows()[i]));
  }
  return limited;
}

}  // namespace

size_t MorselChunk(size_t domain, size_t workers) {
  // ~8 morsels per worker gives the claim counter something to steal
  // while bounding the per-range buffer count; the floor keeps tiny
  // domains from paying a pipeline re-Open per handful of positions.
  constexpr size_t kMinChunk = 16;
  if (workers == 0) workers = 1;
  size_t chunk = domain / (workers * 8);
  return chunk < kMinChunk ? kMinChunk : chunk;
}

ParallelCandidate AnalyzeParallelCandidate(Operator* root) {
  ParallelCandidate c;
  auto* proj = dynamic_cast<ProjectionOp*>(root);
  if (proj == nullptr) {
    c.reason = "plan root is not a projection (UNION runs serially)";
    return c;
  }
  // The merge point is the LOWEST pipeline breaker on the projection
  // spine (or the root when none breaks): everything below it must
  // distribute over the scan partition; everything above it — earlier
  // breakers included — resumes serially on the merged output. An
  // intermediate WITH with ORDER BY / DISTINCT / aggregation / SKIP /
  // LIMIT therefore no longer forces the whole plan serial.
  ProjectionOp* merge = proj;
  for (Operator* op = proj->child(); op != nullptr; op = op->child()) {
    if (auto* p = dynamic_cast<ProjectionOp*>(op)) {
      if (BodyBreaks(*p->body())) merge = p;
    }
  }
  if (!Distributive(merge->child(), &c.reason)) return c;

  // The driving pipeline: descend the child() chain to the unit-table
  // Argument leaf; the Apply directly above it correlates the first
  // MATCH, and the bottom of ITS inner pipeline is the scan to
  // partition.
  Operator* prev = nullptr;
  Operator* cur = merge->child();
  if (cur == nullptr) {
    c.reason = "projection has no input pipeline";
    return c;
  }
  while (cur->child() != nullptr) {
    prev = cur;
    cur = cur->child();
  }
  auto* leaf = dynamic_cast<ArgumentOp*>(cur);
  if (leaf == nullptr || !leaf->has_table_source()) {
    c.reason = "pipeline does not bottom out at the unit table";
    return c;
  }
  auto* drive = dynamic_cast<ApplyOp*>(prev);
  if (drive == nullptr) {
    c.reason = "no MATCH drives the plan (nothing to partition)";
    return c;
  }
  if (drive->optional()) {
    // OPTIONAL MATCH null-pads when the WHOLE scan finds nothing; a
    // partition that happens to be empty must not pad on its own.
    c.reason = "OPTIONAL MATCH drives the plan";
    return c;
  }
  // The DEEPEST partitionable scan of the driving pipeline anchors the
  // partition (variable-free filters may sit between it and the Argument
  // leaf; scans of later cross-product paths sit above it and iterate
  // their full domain per partitioned row).
  PartitionedScan* scan = nullptr;
  for (Operator* op = drive->inner(); op != nullptr; op = op->child()) {
    if (auto* s = dynamic_cast<PartitionedScan*>(op)) scan = s;
  }
  if (scan == nullptr) {
    c.reason = "driving pattern does not start at a partitionable scan";
    return c;
  }
  c.ok = true;
  c.projection = merge;
  c.scan = scan;
  c.merge_below_root = merge != proj;
  c.merge_shape = MergeShape(*merge->body());
  if (c.merge_below_root) c.merge_shape += " at intermediate WITH";
  return c;
}

bool QueryCallsNondeterministicFunction(const ast::Query& q) {
  bool found = false;
  for (const auto& part : q.parts) {
    for (const auto& clause : part.clauses) {
      ast::ForEachClauseExpr(*clause, [&found](const Expr& e) {
        found = found || CallsRand(e);
      });
    }
  }
  return found;
}

Result<Table> ExecutePlanParallel(Plan* plan, WorkerPool* pool,
                                  size_t batch_size, BatchStats* stats,
                                  ParallelRunStats* pstats) {
  const ParallelPlanInfo& par = plan->parallel;
  if (!par.safe || par.scans.empty() ||
      par.scans.size() != par.projections.size()) {
    return Status::Internal("plan is not prepared for parallel execution");
  }
  const size_t instances = par.scans.size();
  const size_t workers =
      instances < pool->size() + 1 ? instances : pool->size() + 1;

  const size_t domain = par.scans[0]->ScanDomainSize();
  MorselDispatcher dispatcher(domain, MorselChunk(domain, workers));
  const size_t num_morsels = dispatcher.num_morsels();

  ProjectionOp* merge_proj = par.projections[0];
  const ast::ProjectionBody& body = *merge_proj->body();
  const EvalContext& merge_eval = merge_proj->exec_context()->eval;
  // The workers and the merge stage evaluate these projections' compiled
  // expressions without running their Open().
  for (ProjectionOp* p : par.projections) p->Bind();

  // Resumes the serial plan above the merge point; a no-op when the
  // merge point IS the root (the merged table is the query result).
  auto finish_above = [&](Table merged) -> Result<Table> {
    if (plan->root.get() == merge_proj) return merged;
    merge_proj->PreloadResult(std::move(merged));
    GQL_RETURN_IF_ERROR(plan->root->Open());
    return DrainPlan(plan->root.get(), batch_size, stats);
  };

  if (num_morsels == 0) {
    // Empty scan domain: run the breaker serially over its empty input —
    // keyless aggregation still produces its neutral row this way.
    if (pstats != nullptr) pstats->workers = workers;
    GQL_ASSIGN_OR_RETURN(
        Table merged,
        merge_proj->ProjectTable(Table(merge_proj->child()->schema())));
    return finish_above(std::move(merged));
  }

  // Merge kinds, most specific first: aggregation folds per-range
  // partials (pre-aggregation rows never materialize centrally);
  // DISTINCT partitions rows by whole-row hash; a bare ORDER BY builds
  // per-range sorted runs; everything else (plain projection, bare
  // SKIP/LIMIT) concatenates raw child rows in range order — the serial
  // scan order — and runs the breaker once over them.
  const bool aggregates = ProjectionAggregates(body);
  const bool distinct = !aggregates && body.distinct;
  const bool sort_only = !aggregates && !distinct && !body.order_by.empty();
  std::optional<AggregationState> proto;
  if (aggregates) {
    // One shared plan (the Shape is immutable); workers Fork() it.
    GQL_ASSIGN_OR_RETURN(
        AggregationState planned,
        AggregationState::Plan(body, merge_proj->child()->schema()));
    proto.emplace(std::move(planned));
  }
  const size_t partitions = workers;  // radix width of the DISTINCT merge

  // SKIP/LIMIT under ORDER BY push a top-K bound into the local sorts
  // and run merges: rows past skip+limit can never surface, and the
  // strict total order makes truncation exact. The bounds are evaluated
  // up front, but an evaluation error DISABLES the bound instead of
  // raising here — the serial-tail slice below raises it at the same
  // point a serial run would (after ORDER BY key errors, which stage 1
  // surfaces first).
  uint64_t topk = UINT64_MAX;
  if (!body.order_by.empty() &&
      (body.skip != nullptr || body.limit != nullptr)) {
    Result<SkipLimitBounds> bounds = EvaluateSkipLimit(body, merge_eval);
    if (bounds.ok() && bounds->limit >= 0) {
      topk = static_cast<uint64_t>(bounds->skip) +
             static_cast<uint64_t>(bounds->limit);
    }
  }

  // Per-range buffers, one flavor per merge kind.
  const bool concat = !aggregates && !distinct && !sort_only;
  std::vector<Table> range_child(concat ? num_morsels : 0);
  std::vector<SortedRun> range_runs(sort_only ? num_morsels : 0);
  std::vector<Table> range_proj(distinct ? num_morsels : 0);
  // [range][partition] -> projected-row indices, in row order.
  std::vector<std::vector<std::vector<uint64_t>>> range_parts(
      distinct ? num_morsels : 0);
  std::vector<std::optional<AggregationState>> range_aggs(
      aggregates ? num_morsels : 0);

  std::vector<Status> range_status(num_morsels, Status::OK());
  std::vector<BatchStats> worker_stats(instances);

  auto work = [&](size_t w) -> Status {
    if (w >= instances) return Status::OK();
    ProjectionOp* wproj = par.projections[w];
    Operator* root = wproj->child();
    PartitionedScan* scan = par.scans[w];
    const EvalContext& eval = wproj->exec_context()->eval;
    // One morsel buffer per worker: NextBatch clears it, and its row
    // slots keep their allocations from range to range.
    RowBatch batch(batch_size);
    ScanMorsel morsel;
    while (dispatcher.Next(&morsel)) {
      scan->SetScanRange(morsel.begin, morsel.end);
      auto run_range = [&]() -> Status {
        GQL_RETURN_IF_ERROR(root->Open());
        if (aggregates) {
          // Stream the range's morsels straight into the partial state:
          // the pre-aggregation rows never materialize, so a range's
          // working memory is one RowBatch, not its whole row count.
          AggregationState st = proto->Fork();
          while (true) {
            GQL_ASSIGN_OR_RETURN(bool ok, root->NextBatch(&batch));
            if (!ok) break;
            ++worker_stats[w].batches;
            worker_stats[w].rows += static_cast<int64_t>(batch.size());
            for (size_t i = 0; i < batch.size(); ++i) {
              GQL_RETURN_IF_ERROR(
                  st.AccumulateRow(batch.row(i), eval, &wproj->exprs()));
            }
          }
          range_aggs[morsel.index] = std::move(st);
          return Status::OK();
        }
        GQL_ASSIGN_OR_RETURN(Table t,
                             DrainPlan(root, batch_size, &worker_stats[w]));
        if (sort_only) {
          // Project and key in one pass, then the bounded local sort —
          // this range's contribution to the parallel merge sort.
          std::vector<ValueList> keys;
          GQL_ASSIGN_OR_RETURN(Table projected,
                               wproj->ProjectChunk(std::move(t), &keys));
          SortedRun run;
          run.reserve(projected.NumRows());
          for (size_t i = 0; i < projected.NumRows(); ++i) {
            run.push_back(SortRow{std::move(projected.mutable_rows()[i]),
                                  std::move(keys[i]), morsel.index, i});
          }
          std::sort(run.begin(), run.end(),
                    [&body](const SortRow& a, const SortRow& b) {
                      return SortRowLess(body, a, b);
                    });
          if (run.size() > topk) run.resize(static_cast<size_t>(topk));
          range_runs[morsel.index] = std::move(run);
        } else if (distinct) {
          // Project, then pre-split the row indices by whole-row hash so
          // the dedup stage becomes `partitions` independent seen-sets.
          GQL_ASSIGN_OR_RETURN(Table projected,
                               wproj->ProjectChunk(std::move(t), nullptr));
          std::vector<std::vector<uint64_t>> parts(partitions);
          for (size_t i = 0; i < projected.NumRows(); ++i) {
            parts[RowHash(projected.rows()[i]) % partitions].push_back(i);
          }
          range_parts[morsel.index] = std::move(parts);
          range_proj[morsel.index] = std::move(projected);
        } else {
          range_child[morsel.index] = std::move(t);
        }
        return Status::OK();
      };
      Status st = run_range();
      if (!st.ok()) {
        // Record per range and stop this worker; survivors drain the
        // dispatcher, and the merge stage reports the error of the
        // FIRST range in scan order — deterministic even though the
        // worker-to-range assignment is not.
        range_status[morsel.index] = std::move(st);
        break;
      }
    }
    scan->SetScanRange(0, SIZE_MAX);  // restore the serial default
    return Status::OK();
  };
  GQL_RETURN_IF_ERROR(pool->RunOnAll(work));

  if (stats != nullptr) {
    for (const BatchStats& ws : worker_stats) {
      stats->rows += ws.rows;
      stats->batches += ws.batches;
    }
  }
  if (pstats != nullptr) {
    pstats->workers = workers;
    pstats->morsels = num_morsels;
    pstats->sort_merge = sort_only || (distinct && !body.order_by.empty());
    pstats->agg_merge = aggregates;
    pstats->partitioned_distinct = distinct;
  }
  for (const Status& st : range_status) {
    GQL_RETURN_IF_ERROR(st);
  }

  // The merge stages. Each produces the merge projection's COMPLETE
  // output — tail and WHERE filter included — byte-identical to
  // merge_proj->ProjectTable over the concatenated ranges.
  auto compute_merged = [&]() -> Result<Table> {
    if (aggregates) {
      // Fold the per-range partials in range order. MergeFrom appends
      // groups new to the fold in their first-occurrence order and keeps
      // the earlier representative of a known group, so the chain
      // reproduces the serial group order and rows.
      AggregationState merged = std::move(*range_aggs[0]);
      for (size_t r = 1; r < num_morsels; ++r) {
        GQL_RETURN_IF_ERROR(merged.MergeFrom(std::move(*range_aggs[r])));
      }
      GQL_ASSIGN_OR_RETURN(Table grouped, merged.Finish(merge_eval));
      GQL_ASSIGN_OR_RETURN(
          Table tailed,
          ApplyProjectionTail(body, std::move(grouped), nullptr, nullptr,
                              merge_eval, &merge_proj->exprs()));
      return merge_proj->FilterWhere(std::move(tailed));
    }

    if (distinct) {
      // `partitions` independent seen-sets, one per worker, each walking
      // its share of every range in (range, row) order; the serial
      // interleave of the survivors keeps the serial first occurrence of
      // every distinct row.
      std::vector<std::vector<RowSeq>> survivors(partitions);
      GQL_RETURN_IF_ERROR(pool->RunOnAll([&](size_t p) -> Status {
        if (p >= partitions) return Status::OK();
        std::unordered_set<const ValueList*, RowPtrHash, RowPtrEq> seen;
        for (size_t r = 0; r < num_morsels; ++r) {
          const Table& t = range_proj[r];
          for (uint64_t i : range_parts[r][p]) {
            if (seen.insert(&t.rows()[i]).second) {
              survivors[p].push_back(RowSeq{r, i});
            }
          }
        }
        return Status::OK();
      }));
      GQL_ASSIGN_OR_RETURN(
          Table shape,
          merge_proj->ProjectChunk(Table(merge_proj->child()->schema()),
                                   nullptr));
      Table deduped(shape.fields());
      std::vector<size_t> pos(partitions, 0);
      while (true) {
        size_t best = partitions;
        for (size_t p = 0; p < partitions; ++p) {
          if (pos[p] >= survivors[p].size()) continue;
          if (best == partitions ||
              SeqLess(survivors[p][pos[p]], survivors[best][pos[best]])) {
            best = p;
          }
        }
        if (best == partitions) break;
        RowSeq s = survivors[best][pos[best]++];
        deduped.AddRow(
            std::move(range_proj[s.range].mutable_rows()[s.idx]));
      }

      if (!body.order_by.empty()) {
        // ORDER BY after DISTINCT: key and sort the deduped rows once
        // (the source pairing is gone after DISTINCT, exactly as in the
        // serial tail). The row-position tie-break keeps the sort stable.
        SortedRun run;
        run.reserve(deduped.NumRows());
        for (size_t i = 0; i < deduped.NumRows(); ++i) {
          GQL_ASSIGN_OR_RETURN(
              ValueList keys,
              OrderKeysForRow(body, deduped.fields(), deduped.rows()[i],
                              nullptr, merge_eval, &merge_proj->exprs()));
          run.push_back(SortRow{ValueList(), std::move(keys), 0, i});
        }
        std::sort(run.begin(), run.end(),
                  [&body](const SortRow& a, const SortRow& b) {
                    return SortRowLess(body, a, b);
                  });
        if (run.size() > topk) run.resize(static_cast<size_t>(topk));
        Table sorted(deduped.fields());
        for (const SortRow& sr : run) {
          sorted.AddRow(std::move(deduped.mutable_rows()[sr.idx]));
        }
        deduped = std::move(sorted);
      }
      GQL_ASSIGN_OR_RETURN(
          Table sliced, SliceSkipLimit(body, std::move(deduped), merge_eval));
      return merge_proj->FilterWhere(std::move(sliced));
    }

    if (sort_only) {
      SortedRun run = MergeRuns(body, std::move(range_runs), topk);
      GQL_ASSIGN_OR_RETURN(
          Table shape,
          merge_proj->ProjectChunk(Table(merge_proj->child()->schema()),
                                   nullptr));
      Table sorted(shape.fields());
      for (SortRow& sr : run) sorted.AddRow(std::move(sr.row));
      GQL_ASSIGN_OR_RETURN(
          Table sliced, SliceSkipLimit(body, std::move(sorted), merge_eval));
      return merge_proj->FilterWhere(std::move(sliced));
    }

    Table merged(merge_proj->child()->schema());
    for (Table& t : range_child) {
      for (ValueList& row : t.mutable_rows()) {
        merged.AddRow(std::move(row));
      }
    }
    return merge_proj->ProjectTable(std::move(merged));
  };

  GQL_ASSIGN_OR_RETURN(Table merged, compute_merged());
  return finish_above(std::move(merged));
}

}  // namespace gqlite
