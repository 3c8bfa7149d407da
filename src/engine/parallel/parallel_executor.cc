#include "engine/parallel/parallel_executor.h"

#include <algorithm>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "engine/parallel/partition.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "util/common.h"
#include "util/fault.h"
#include "util/logging.h"
#include "util/random.h"

namespace etlopt {
namespace parallel {
namespace {

// Where a node executes. kPre nodes run serially before the partition
// phase (sources, and chains feeding broadcast build sides); kPartitioned
// nodes run per-partition on the pool; kPost nodes run serially on the
// gathered outputs after the merge barrier.
enum class Mode : uint8_t { kPre = 0, kPartitioned, kPost };

struct NodeClass {
  Mode mode = Mode::kPre;
  // True while partition placement still equals hash(partition attr) of the
  // row's current key value — the precondition for co-partitioned joins. A
  // transform that rewrites the key in place clears it.
  bool copart = false;
};

std::vector<NodeClass> Classify(const Workflow& wf, AttrId p) {
  std::vector<NodeClass> classes(static_cast<size_t>(wf.num_nodes()));
  for (const WorkflowNode& node : wf.nodes()) {
    NodeClass cls;
    auto in_class = [&](int i) -> const NodeClass& {
      return classes[static_cast<size_t>(node.inputs[static_cast<size_t>(i)])];
    };
    switch (node.kind) {
      case OpKind::kSource:
        cls.mode = node.source_schema.Contains(p) ? Mode::kPartitioned
                                                  : Mode::kPre;
        cls.copart = cls.mode == Mode::kPartitioned;
        break;
      case OpKind::kFilter:
      case OpKind::kProject:
      case OpKind::kMaterialize:
      case OpKind::kSink:
        cls = in_class(0);
        break;
      case OpKind::kTransform:
        if (node.transform.is_aggregate) {
          // Blocking reduction whose surviving rows depend on input order:
          // runs serially on the gathered (serial-order) input.
          cls.mode =
              in_class(0).mode == Mode::kPre ? Mode::kPre : Mode::kPost;
          cls.copart = false;
        } else {
          cls = in_class(0);
          // Rewriting the partition key in place invalidates placement.
          if (node.transform.output_attr == p) cls.copart = false;
        }
        break;
      case OpKind::kAggregate:
        cls.mode = in_class(0).mode == Mode::kPre ? Mode::kPre : Mode::kPost;
        cls.copart = false;
        break;
      case OpKind::kJoin: {
        const NodeClass& left = in_class(0);
        const NodeClass& right = in_class(1);
        if (left.mode == Mode::kPre && right.mode == Mode::kPre) {
          cls.mode = Mode::kPre;
        } else if (left.mode == Mode::kPartitioned &&
                   node.join.algorithm != JoinAlgorithm::kSortMerge &&
                   ((right.mode == Mode::kPartitioned && node.join.attr == p &&
                     left.copart && right.copart) ||
                    right.mode == Mode::kPre)) {
          // Co-partitioned on the partition key, or partitioned probe
          // against a broadcast build side computed in the pre phase.
          // Sort-merge joins gather instead: their (sorted) row order is
          // kept exact by running the serial kernel.
          cls.mode = Mode::kPartitioned;
          cls.copart = left.copart;
        } else {
          cls.mode = Mode::kPost;
        }
        break;
      }
    }
    classes[static_cast<size_t>(node.id)] = cls;
  }
  return classes;
}

int CountPartitionedOperators(const Workflow& wf,
                              const std::vector<NodeClass>& classes) {
  int count = 0;
  for (const WorkflowNode& node : wf.nodes()) {
    if (node.kind != OpKind::kSource &&
        classes[static_cast<size_t>(node.id)].mode == Mode::kPartitioned) {
      ++count;
    }
  }
  return count;
}

// The candidate key that partitions the most operators wins; ties go to the
// smallest attribute id so the choice is stable run to run. Returns
// kInvalidAttr when no candidate partitions any non-source operator.
AttrId ChoosePartitionAttr(const Workflow& wf,
                           std::vector<NodeClass>* best_classes) {
  std::vector<AttrId> candidates;
  for (const WorkflowNode& node : wf.nodes()) {
    if (node.kind == OpKind::kJoin) candidates.push_back(node.join.attr);
    if (node.kind == OpKind::kSource) {
      const auto& attrs = node.source_schema.attrs();
      candidates.insert(candidates.end(), attrs.begin(), attrs.end());
    }
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  AttrId best = kInvalidAttr;
  int best_score = 0;
  for (AttrId a : candidates) {
    std::vector<NodeClass> classes = Classify(wf, a);
    const int score = CountPartitionedOperators(wf, classes);
    if (score > best_score) {
      best_score = score;
      best = a;
      *best_classes = std::move(classes);
    }
  }
  return best;
}

// A partition-local table plus per-row provenance: the original source row
// indices the row descends from, in join-nesting order. The serial executor
// emits rows in exactly lexicographic provenance order, so the merge
// barrier reassembles bit-identical tables by merging on it.
struct Slice {
  Table table;
  std::vector<std::vector<int64_t>> seq;
};

Slice ApplyFilterSlice(const WorkflowNode& node, const Schema& out_schema,
                       const Slice& in) {
  Slice out{Table{out_schema}, {}};
  const int col = in.table.schema().IndexOf(node.predicate.attr);
  SelVector sel;
  BuildSelection(node.predicate, in.table.column_data(col),
                 in.table.num_rows(), &sel);
  out.table = Table::Gather(in.table, sel);
  out.seq.reserve(sel.size());
  for (int64_t r : sel) out.seq.push_back(in.seq[static_cast<size_t>(r)]);
  return out;
}

Slice ApplyProjectSlice(const WorkflowNode& node, const Schema& out_schema,
                        const Slice& in) {
  std::vector<int> cols;
  for (AttrId a : node.keep) cols.push_back(in.table.schema().IndexOf(a));
  // Copy-free: the kept columns are shared, not duplicated.
  std::vector<ColumnPtr> kept;
  kept.reserve(cols.size());
  for (int c : cols) kept.push_back(in.table.shared_column(c));
  return Slice{
      Table::FromColumns(out_schema, std::move(kept), in.table.num_rows()),
      in.seq};
}

Slice ApplyTransformSlice(const WorkflowNode& node, const Schema& out_schema,
                          const Slice& in) {
  const TransformSpec& t = node.transform;
  const int col = in.table.schema().IndexOf(t.input_attr);
  const bool in_place = t.output_attr == t.input_attr;
  Column mapped;
  MapColumn(t.fn, in.table.column_data(col), in.table.num_rows(), &mapped);
  ColumnPtr mapped_col = std::make_shared<Column>(std::move(mapped));
  std::vector<ColumnPtr> cols;
  cols.reserve(static_cast<size_t>(in.table.num_columns()) +
               (in_place ? 0 : 1));
  for (int c = 0; c < in.table.num_columns(); ++c) {
    cols.push_back(in_place && c == col ? mapped_col
                                        : in.table.shared_column(c));
  }
  if (!in_place) cols.push_back(std::move(mapped_col));
  return Slice{
      Table::FromColumns(out_schema, std::move(cols), in.table.num_rows()),
      in.seq};
}

Slice CopySlice(const Schema& out_schema, const Slice& in) {
  Slice out{Table{out_schema}, in.seq};
  out.table.AppendRows(in.table);
  return out;
}

// Partition-local hash join, seq-threading the serial kernel's emission
// structure: probe rows in slice order, matches in build-insertion order.
// `right_seq` is null for a broadcast build side, whose provenance is its
// (serial) row index. `rejects` receives unmatched probe rows; `rrejects`
// (co-partitioned only — a broadcast build side sees every partition's
// keys) receives build rows whose key never occurs in the probe slice.
Slice ApplyJoinSlice(const WorkflowNode& node, const Schema& out_schema,
                     const Slice& left, const Table& right,
                     const std::vector<std::vector<int64_t>>* right_seq,
                     Slice* rejects, Slice* rrejects) {
  const int lkey = left.table.schema().IndexOf(node.join.attr);
  const int rkey = right.schema().IndexOf(node.join.attr);
  ETLOPT_CHECK_MSG(lkey >= 0 && rkey >= 0, "join key missing from an input");
  std::vector<int> right_cols;
  for (int i = 0; i < right.schema().size(); ++i) {
    if (right.schema().attrs()[static_cast<size_t>(i)] != node.join.attr) {
      right_cols.push_back(i);
    }
  }
  auto right_seq_of = [&](int64_t r) -> std::vector<int64_t> {
    return right_seq != nullptr ? (*right_seq)[static_cast<size_t>(r)]
                                : std::vector<int64_t>{r};
  };

  // JoinHashTable groups keep build-insertion order, so the seq stream —
  // and therefore the merge — is bit-identical to the serial join.
  Slice out{Table{out_schema}, {}};
  const JoinHashTable ht(right.column_data(rkey), right.num_rows());
  const Value* lvals = left.table.column_data(lkey);
  SelVector lsel;
  SelVector rsel;
  SelVector reject_sel;
  for (int64_t l = 0; l < left.table.num_rows(); ++l) {
    const JoinHashTable::RowRange range = ht.Lookup(lvals[l]);
    if (range.empty()) {
      if (rejects != nullptr) reject_sel.push_back(l);
      continue;
    }
    for (const int64_t* p = range.begin; p != range.end; ++p) {
      lsel.push_back(l);
      rsel.push_back(*p);
      std::vector<int64_t> seq = left.seq[static_cast<size_t>(l)];
      const std::vector<int64_t> rseq = right_seq_of(*p);
      seq.insert(seq.end(), rseq.begin(), rseq.end());
      out.seq.push_back(std::move(seq));
    }
  }
  std::vector<ColumnPtr> out_cols;
  out_cols.reserve(static_cast<size_t>(left.table.num_columns()) +
                   right_cols.size());
  for (int c = 0; c < left.table.num_columns(); ++c) {
    auto col = std::make_shared<Column>();
    GatherColumn(left.table.column(c), lsel, col.get());
    out_cols.push_back(std::move(col));
  }
  for (int c : right_cols) {
    auto col = std::make_shared<Column>();
    GatherColumn(right.column(c), rsel, col.get());
    out_cols.push_back(std::move(col));
  }
  out.table = Table::FromColumns(out_schema, std::move(out_cols),
                                 static_cast<int64_t>(lsel.size()));
  if (rejects != nullptr) {
    rejects->table = Table::Gather(left.table, reject_sel);
    rejects->seq.reserve(reject_sel.size());
    for (int64_t l : reject_sel) {
      rejects->seq.push_back(left.seq[static_cast<size_t>(l)]);
    }
  }
  if (rrejects != nullptr) {
    const JoinHashTable probed(left.table.column_data(lkey),
                               left.table.num_rows());
    const Value* rvals = right.column_data(rkey);
    SelVector rr;
    for (int64_t r = 0; r < right.num_rows(); ++r) {
      if (!probed.Contains(rvals[r])) rr.push_back(r);
    }
    rrejects->table = Table::Gather(right, rr);
    rrejects->seq.reserve(rr.size());
    for (int64_t r : rr) rrejects->seq.push_back(right_seq_of(r));
  }
  return out;
}

// Reassembles partition slices into one table in provenance order (each
// slice is already provenance-sorted, so this is a k-way merge).
Table MergeSlicesBySeq(const Schema& schema, const std::vector<Slice>& slices) {
  Table out{schema};
  int64_t total = 0;
  for (const Slice& s : slices) total += s.table.num_rows();
  out.Reserve(static_cast<size_t>(total));
  std::vector<size_t> cursor(slices.size(), 0);
  for (;;) {
    int best = -1;
    for (size_t p = 0; p < slices.size(); ++p) {
      if (cursor[p] >= slices[p].seq.size()) continue;
      if (best < 0 || slices[p].seq[cursor[p]] <
                          slices[static_cast<size_t>(best)]
                              .seq[cursor[static_cast<size_t>(best)]]) {
        best = static_cast<int>(p);
      }
    }
    if (best < 0) break;
    const size_t b = static_cast<size_t>(best);
    out.AppendRowFrom(slices[b].table, static_cast<int64_t>(cursor[b]));
    ++cursor[b];
  }
  return out;
}

// The serial executor's in-switch rows_processed bookkeeping, applied to a
// gathered node at the merge barrier (FinishNodeStep covers everything
// after the switch).
void AccountRowsProcessed(const WorkflowNode& node, const Table& out,
                          ExecutionResult* result) {
  switch (node.kind) {
    case OpKind::kFilter:
    case OpKind::kProject:
    case OpKind::kTransform:
    case OpKind::kAggregate:
      result->rows_processed += result->node_outputs.at(node.inputs[0])
                                    .num_rows();
      break;
    case OpKind::kJoin:
      result->rows_processed +=
          result->node_outputs.at(node.inputs[0]).num_rows() +
          result->node_outputs.at(node.inputs[1]).num_rows();
      break;
    case OpKind::kMaterialize:
    case OpKind::kSink:
      result->rows_processed += out.num_rows();
      break;
    case OpKind::kSource:
      break;
  }
}

// One partition's view of the run: chain progress and per-node self time.
struct PartitionOutcome {
  bool completed = true;
  NodeId failed_node = kInvalidNode;
  std::unordered_map<NodeId, int64_t> self_ns;
};

}  // namespace

ParallelExecutor::ParallelExecutor(const Workflow* workflow,
                                   ParallelOptions options)
    : wf_(workflow), options_(std::move(options)) {
  ETLOPT_CHECK(wf_ != nullptr);
}

Result<ParallelResult> ParallelExecutor::Execute(const SourceMap& sources,
                                                 ThreadPool* pool) const {
  ParallelResult pres;
  const int threads = std::max(1, options_.num_threads);
  std::vector<NodeClass> classes;
  AttrId part_attr = kInvalidAttr;
  if (threads > 1) part_attr = ChoosePartitionAttr(*wf_, &classes);
  if (threads <= 1 || part_attr == kInvalidAttr) {
    // Nothing to fan out: the serial path, bit for bit.
    Executor serial(wf_, options_.executor);
    ETLOPT_ASSIGN_OR_RETURN(pres.exec, serial.Execute(sources));
    return pres;
  }
  const int num_partitions =
      options_.num_partitions > 0 ? options_.num_partitions : threads;
  pres.partition_attr = part_attr;
  pres.used_parallel_path = true;

  ExecutionResult& result = pres.exec;
  obs::ScopedSpan exec_span("engine.parallel_execute");
  exec_span.Arg("workflow", wf_->name());
  exec_span.Arg("nodes", static_cast<int64_t>(wf_->nodes().size()));
  exec_span.Arg("workers", static_cast<int64_t>(threads));
  exec_span.Arg("partitions", static_cast<int64_t>(num_partitions));
  result.nodes_total = static_cast<int>(wf_->nodes().size());
  result.num_workers = threads;
  result.partitions_total = num_partitions;

  fault::FaultInjector* inj = fault::FaultInjector::Global();
  const bool profiling = obs::ProfilerEnabled();
  Rng backoff_rng(inj != nullptr ? inj->seed() : 0x5eedULL);
  NodeStepContext ctx;
  ctx.wf = wf_;
  ctx.sources = &sources;
  ctx.options = &options_.executor;
  ctx.inj = inj;
  ctx.profiling = profiling;
  ctx.backoff_rng = &backoff_rng;
  ctx.result = &result;

  auto cls = [&](NodeId id) -> const NodeClass& {
    return classes[static_cast<size_t>(id)];
  };

  // ---- pre phase: sources and broadcast chains, fully serial -------------
  // Source reads keep the exact serial semantics (retry/backoff, row
  // quarantine, error-rate aborts, watermarks); a partitioned source's
  // published output is partitioned afterwards.
  for (const WorkflowNode& node : wf_->nodes()) {
    if (cls(node.id).mode == Mode::kPre ||
        (cls(node.id).mode == Mode::kPartitioned &&
         node.kind == OpKind::kSource)) {
      ETLOPT_RETURN_IF_ERROR(ExecuteNodeStep(ctx, node));
      if (result.aborted()) break;
    }
  }

  // The chain the workers run: partitioned non-source nodes in plan order.
  std::vector<const WorkflowNode*> chain;
  for (const WorkflowNode& node : wf_->nodes()) {
    if (cls(node.id).mode == Mode::kPartitioned &&
        node.kind != OpKind::kSource) {
      chain.push_back(&node);
    }
  }

  // Per-node slice stores, slot-per-partition so workers never contend.
  std::unordered_map<NodeId, std::vector<Slice>> slice_map;
  std::unordered_map<NodeId, std::vector<Slice>> reject_map;
  std::unordered_map<NodeId, std::vector<Slice>> rreject_map;
  std::vector<PartitionOutcome> outcomes(
      static_cast<size_t>(num_partitions));

  if (!result.aborted()) {
    // ---- partition the partitioned sources -------------------------------
    result.partition_rows.assign(static_cast<size_t>(num_partitions), 0);
    for (const WorkflowNode& node : wf_->nodes()) {
      if (node.kind != OpKind::kSource ||
          cls(node.id).mode != Mode::kPartitioned) {
        continue;
      }
      TablePartitions parts = HashPartition(result.node_outputs.at(node.id),
                                            part_attr, num_partitions);
      std::vector<Slice>& slices = slice_map[node.id];
      slices.resize(static_cast<size_t>(num_partitions));
      for (int p = 0; p < num_partitions; ++p) {
        const size_t sp = static_cast<size_t>(p);
        result.partition_rows[sp] += parts.parts[sp].num_rows();
        std::vector<std::vector<int64_t>> seq;
        seq.reserve(parts.row_index[sp].size());
        for (int64_t orig : parts.row_index[sp]) seq.push_back({orig});
        slices[sp] = Slice{std::move(parts.parts[sp]), std::move(seq)};
      }
    }
    {
      int64_t max_rows = 0;
      int64_t total_rows = 0;
      for (int64_t rows : result.partition_rows) {
        max_rows = std::max(max_rows, rows);
        total_rows += rows;
      }
      result.partition_skew =
          total_rows > 0 ? static_cast<double>(max_rows) * num_partitions /
                               static_cast<double>(total_rows)
                         : 0.0;
    }
    for (const WorkflowNode* node : chain) {
      slice_map[node->id].resize(static_cast<size_t>(num_partitions));
      if (node->kind == OpKind::kJoin) {
        reject_map[node->id].resize(static_cast<size_t>(num_partitions));
        if (cls(node->inputs[1]).mode == Mode::kPartitioned) {
          rreject_map[node->id].resize(static_cast<size_t>(num_partitions));
        }
      }
    }

    // ---- partition phase: chains on the worker pool ----------------------
    std::optional<ThreadPool> local_pool;
    if (pool == nullptr) {
      local_pool.emplace(threads);
      pool = &*local_pool;
    }
    const Status pf = pool->ParallelFor(num_partitions, [&](int p) -> Status {
      const size_t sp = static_cast<size_t>(p);
      PartitionOutcome& outcome = outcomes[sp];
      obs::ScopedSpan part_span("parallel.partition");
      if (part_span.active()) {
        part_span.Arg("partition", static_cast<int64_t>(p));
      }
      const std::string part_name = std::to_string(p);
      for (const WorkflowNode* nodep : chain) {
        const WorkflowNode& node = *nodep;
        const Schema& out_schema = wf_->output_schema(node.id);
        auto part_input = [&](int i) -> const Slice& {
          return slice_map.at(node.inputs[static_cast<size_t>(i)])[sp];
        };
        obs::ScopedSpan op_span(OpKindName(node.kind));
        int64_t start_ns = 0;
        if (profiling) start_ns = obs::ProfileNowNs();
        Slice out;
        Slice rejects;
        Slice rrejects;
        switch (node.kind) {
          case OpKind::kFilter:
            out = ApplyFilterSlice(node, out_schema, part_input(0));
            break;
          case OpKind::kProject:
            out = ApplyProjectSlice(node, out_schema, part_input(0));
            break;
          case OpKind::kTransform:
            out = ApplyTransformSlice(node, out_schema, part_input(0));
            break;
          case OpKind::kMaterialize:
          case OpKind::kSink:
            out = CopySlice(out_schema, part_input(0));
            break;
          case OpKind::kJoin: {
            const Slice& left = part_input(0);
            rejects = Slice{Table{left.table.schema()}, {}};
            const bool copart =
                cls(node.inputs[1]).mode == Mode::kPartitioned;
            if (copart) {
              const Slice& right = part_input(1);
              rrejects = Slice{Table{right.table.schema()}, {}};
              out = ApplyJoinSlice(node, out_schema, left, right.table,
                                   &right.seq, &rejects, &rrejects);
            } else {
              // Broadcast build side: the full pre-phase table. Right-side
              // rejects need every partition's keys; the merge barrier
              // computes them from the gathered probe input.
              const Table& right = result.node_outputs.at(node.inputs[1]);
              out = ApplyJoinSlice(node, out_schema, left, right, nullptr,
                                   &rejects, nullptr);
            }
            break;
          }
          case OpKind::kSource:
          case OpKind::kAggregate:
            ETLOPT_CHECK_MSG(false, "node kind cannot run partitioned");
            break;
        }
        if (profiling) {
          outcome.self_ns[node.id] = obs::ProfileNowNs() - start_ns;
        }
        if (op_span.active()) {
          op_span.Arg("node", static_cast<int64_t>(node.id));
          op_span.Arg("partition", static_cast<int64_t>(p));
          op_span.Arg("rows_out", out.table.num_rows());
        }
        // Partition-scoped crash faults mirror the serial crash point:
        // after the operator ran, before its slice is published — the
        // partition's salvage surface is its completed prefix.
        if (inj != nullptr) {
          int64_t slice_rows_in = 0;
          for (NodeId in : node.inputs) {
            const auto it = slice_map.find(in);
            if (it != slice_map.end()) {
              slice_rows_in += it->second[sp].table.num_rows();
            }
          }
          if (inj->OnPartition(part_name, std::max<int64_t>(
                                              slice_rows_in, 1)) ==
              fault::Kind::kCrash) {
            outcome.completed = false;
            outcome.failed_node = node.id;
            return Status::OK();
          }
        }
        slice_map.at(node.id)[sp] = std::move(out);
        if (node.kind == OpKind::kJoin) {
          reject_map.at(node.id)[sp] = std::move(rejects);
          if (cls(node.inputs[1]).mode == Mode::kPartitioned) {
            rreject_map.at(node.id)[sp] = std::move(rrejects);
          }
        }
      }
      return Status::OK();
    });
    ETLOPT_RETURN_IF_ERROR(pf);
  }

  // Earliest partition failure (by chain position, then partition index):
  // the run's abort point.
  bool partition_crashed = false;
  NodeId crash_node = kInvalidNode;
  int crash_partition = -1;
  for (int p = 0; p < num_partitions; ++p) {
    const PartitionOutcome& o = outcomes[static_cast<size_t>(p)];
    if (o.completed) {
      ++result.partitions_completed;
    } else if (!partition_crashed || o.failed_node < crash_node) {
      partition_crashed = true;
      crash_node = o.failed_node;
      crash_partition = p;
    }
  }
  if (result.aborted()) result.partitions_completed = 0;

  // ---- merge barrier + post phase, interleaved in plan order -------------
  if (!result.aborted()) {
    for (const WorkflowNode& node : wf_->nodes()) {
      const NodeClass& c = cls(node.id);
      if (c.mode == Mode::kPre ||
          (c.mode == Mode::kPartitioned && node.kind == OpKind::kSource)) {
        continue;
      }
      if (partition_crashed && node.id >= crash_node && !result.aborted()) {
        AbortRun(ctx, AbortKind::kCrash,
                 "injected crash fault at partition " +
                     std::to_string(crash_partition) + " (" +
                     OpFaultName(wf_->node(crash_node)) + ")",
                 wf_->node(crash_node));
      }
      if (result.aborted() && !partition_crashed) {
        // An operator-scoped abort (injected crash or guard monitor, both
        // fired from FinishNodeStep on a gathered output) deliberately
        // leaves the failed node unpublished, so downstream nodes have no
        // merge surface: the salvage stops at the completed prefix.
        continue;
      }
      if (c.mode == Mode::kPost) {
        if (result.aborted()) continue;
        ETLOPT_RETURN_IF_ERROR(ExecuteNodeStep(ctx, node));
        continue;
      }
      // Partitioned node: gather its slices back into the serial row order.
      const int64_t merge_start = obs::ProfileNowNs();
      Table gathered =
          MergeSlicesBySeq(wf_->output_schema(node.id), slice_map.at(node.id));
      Table rejects;
      Table rrejects;
      if (node.kind == OpKind::kJoin) {
        rejects = MergeSlicesBySeq(wf_->output_schema(node.inputs[0]),
                                   reject_map.at(node.id));
        const auto rr = rreject_map.find(node.id);
        if (rr != rreject_map.end()) {
          rrejects = MergeSlicesBySeq(wf_->output_schema(node.inputs[1]),
                                      rr->second);
        } else {
          // Broadcast build side: its rejects are global, not
          // partition-local — the serial scan over the gathered probe side.
          const Table& left = result.node_outputs.at(node.inputs[0]);
          const Table& right = result.node_outputs.at(node.inputs[1]);
          const int lkey = left.schema().IndexOf(node.join.attr);
          const int rkey = right.schema().IndexOf(node.join.attr);
          const JoinHashTable left_keys(left.column_data(lkey),
                                        left.num_rows());
          const Value* rvals = right.column_data(rkey);
          SelVector rr;
          for (int64_t r = 0; r < right.num_rows(); ++r) {
            if (!left_keys.Contains(rvals[r])) rr.push_back(r);
          }
          rrejects = Table::Gather(right, rr);
        }
      }
      result.merge_ns += obs::ProfileNowNs() - merge_start;
      if (!result.aborted()) {
        if (node.kind == OpKind::kJoin) {
          result.join_rejects[node.id] = std::move(rejects);
          result.join_rejects_right[node.id] = std::move(rrejects);
        }
        if (node.kind == OpKind::kMaterialize ||
            node.kind == OpKind::kSink) {
          result.targets[node.target_name] = gathered;
        }
        AccountRowsProcessed(node, gathered, &result);
        int64_t self_ns = 0;
        for (const PartitionOutcome& o : outcomes) {
          const auto it = o.self_ns.find(node.id);
          if (it != o.self_ns.end()) self_ns += it->second;
        }
        FinishNodeStep(ctx, node, std::move(gathered), self_ns);
      } else if (partition_crashed) {
        // Salvage: publish what the completed partitions produced — the
        // partition-granular analog of the serial completed-prefix rule.
        result.node_outputs[node.id] = std::move(gathered);
        if (node.kind == OpKind::kJoin) {
          result.join_rejects[node.id] = std::move(rejects);
          result.join_rejects_right[node.id] = std::move(rrejects);
        }
        ++result.nodes_partial;
      }
    }
  }

  if (result.aborted() && exec_span.active()) {
    exec_span.Arg("abort", AbortKindName(result.abort_kind));
    exec_span.Arg("nodes_completed",
                  static_cast<int64_t>(result.nodes_completed));
  }
  ETLOPT_COUNTER_ADD("etlopt.engine.executions", 1);
  ETLOPT_COUNTER_ADD("etlopt.engine.rows_processed", result.rows_processed);
  ETLOPT_COUNTER_ADD("etlopt.engine.bytes_processed", result.bytes_processed);
  ETLOPT_COUNTER_ADD("etlopt.parallel.merge_ns", result.merge_ns);
  ETLOPT_GAUGE_SET("etlopt.parallel.workers", result.num_workers);
  ETLOPT_GAUGE_SET("etlopt.parallel.partitions", result.partitions_total);
  ETLOPT_GAUGE_SET("etlopt.parallel.skew", result.partition_skew);

  // Hand the slices to the caller (the per-partition tap surface).
  for (auto& [id, slices] : slice_map) {
    std::vector<Table>& tables = pres.slices[id];
    tables.reserve(slices.size());
    for (Slice& s : slices) tables.push_back(std::move(s.table));
  }
  return pres;
}

}  // namespace parallel
}  // namespace etlopt
