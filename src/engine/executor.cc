#include "engine/executor.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <limits>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "obs/trace.h"
#include "util/env.h"
#include "util/fault.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/timer.h"

namespace etlopt {
namespace {

// Nanoseconds elapsed on `timer`, floored at 0 (defensive against clock
// quirks).
int64_t ElapsedNs(const Timer& timer) {
  const double ns = timer.ElapsedMicros() * 1e3;
  return ns <= 0.0 ? 0 : static_cast<int64_t>(ns);
}

// Backoff before retry `attempt` (1-based): exponential with deterministic
// jitter, capped. Returns the delay actually slept, for telemetry.
double BackoffAndSleep(const RetryPolicy& policy, int attempt, Rng& rng) {
  double delay = policy.initial_backoff_ms;
  for (int i = 1; i < attempt; ++i) delay *= policy.backoff_multiplier;
  delay = std::min(delay, policy.max_backoff_ms);
  if (policy.jitter_fraction > 0.0) {
    // Uniform in [1 - j, 1 + j): decorrelates retry storms across sources.
    delay *= 1.0 + policy.jitter_fraction * (2.0 * rng.NextDouble() - 1.0);
  }
  if (delay > 0.0) {
    // Capped below int64's end, so any finite policy converts.
    const double micros = std::min(delay * 1000.0, 9e18);
    std::this_thread::sleep_for(
        std::chrono::microseconds(static_cast<int64_t>(micros)));
  }
  return delay;
}

}  // namespace

std::string OpFaultName(const WorkflowNode& node) {
  std::string name = OpKindName(node.kind);
  for (char& c : name) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return name + std::to_string(node.id);
}

RetryPolicy RetryPolicy::FromEnv() {
  RetryPolicy policy;
  // Read as a double so "1e3" means 1000; kept only where an int holds it.
  const double attempts =
      EnvDouble("ETLOPT_RETRY_MAX_ATTEMPTS", policy.max_attempts);
  if (attempts >= 1.0 && attempts <= std::numeric_limits<int>::max()) {
    policy.max_attempts = static_cast<int>(attempts);
  }
  policy.initial_backoff_ms =
      EnvDouble("ETLOPT_RETRY_BACKOFF_MS", policy.initial_backoff_ms);
  policy.max_backoff_ms =
      EnvDouble("ETLOPT_RETRY_MAX_BACKOFF_MS", policy.max_backoff_ms);
  return policy;
}

ExecutorOptions ExecutorOptions::FromEnv() {
  ExecutorOptions options;
  options.retry = RetryPolicy::FromEnv();
  const double rate =
      EnvDouble("ETLOPT_MAX_ERROR_RATE", options.max_error_rate);
  if (rate >= 0.0 && rate <= 1.0) options.max_error_rate = rate;
  return options;
}

const char* AbortKindName(AbortKind kind) {
  switch (kind) {
    case AbortKind::kNone:
      return "none";
    case AbortKind::kCrash:
      return "crash";
    case AbortKind::kErrorRate:
      return "error_rate";
    case AbortKind::kSourceFailed:
      return "source_failed";
    case AbortKind::kGuard:
      return "guard";
  }
  return "unknown";
}

Executor::Executor(const Workflow* workflow, ExecutorOptions options)
    : wf_(workflow), options_(std::move(options)) {
  ETLOPT_CHECK(wf_ != nullptr);
}

namespace {

// Output schema of a join: left attrs then right attrs minus the key
// (mirrors Workflow::Finalize). Also yields the right columns to carry.
Schema JoinOutputSchema(const Table& left, const Table& right, AttrId attr,
                        std::vector<int>* right_cols) {
  std::vector<AttrId> out_attrs = left.schema().attrs();
  for (int i = 0; i < right.schema().size(); ++i) {
    const AttrId a = right.schema().attrs()[static_cast<size_t>(i)];
    if (a != attr) {
      out_attrs.push_back(a);
      right_cols->push_back(i);
    }
  }
  return Schema(out_attrs);
}

}  // namespace

Table HashJoin(const Table& left, const Table& right, AttrId attr,
               Table* rejects, Table* right_rejects) {
  const int lkey = left.schema().IndexOf(attr);
  const int rkey = right.schema().IndexOf(attr);
  ETLOPT_CHECK_MSG(lkey >= 0 && rkey >= 0, "join key missing from an input");

  std::vector<int> right_cols;
  Schema out_schema = JoinOutputSchema(left, right, attr, &right_cols);

  obs::ScopedSpan span("engine.hash_join");
  // JoinHashTable hashes the build keys in one pass; the probe loop only
  // touches the key columns and emits selection vectors, and the output
  // columns materialize via gathers. Emission order is probe order x
  // build-insertion order per key. Right rejects are the build rows no
  // probe row hit, in build order.
  Timer phase;
  const JoinHashTable ht(right.column_data(rkey), right.num_rows());
  const int64_t build_ns = ElapsedNs(phase);

  phase.Restart();
  const Value* lkeys = left.column_data(lkey);
  const int64_t n = left.num_rows();
  SelVector lsel;
  SelVector rsel;
  SelVector reject_sel;
  RowBits hit;
  if (right_rejects != nullptr) hit = MakeRowBits(right.num_rows());
  lsel.reserve(static_cast<size_t>(n));
  rsel.reserve(static_cast<size_t>(n));
  for (int64_t l = 0; l < n; ++l) {
    const JoinHashTable::RowRange range = ht.Lookup(lkeys[l]);
    if (range.empty()) {
      if (rejects != nullptr) reject_sel.push_back(l);
      continue;
    }
    if (right_rejects != nullptr) MarkHit(range, &hit);
    for (const int64_t* r = range.begin; r != range.end; ++r) {
      lsel.push_back(l);
      rsel.push_back(*r);
    }
  }

  std::vector<ColumnPtr> out_cols;
  out_cols.reserve(static_cast<size_t>(out_schema.size()));
  for (int c = 0; c < left.schema().size(); ++c) {
    auto col = std::make_shared<Column>();
    GatherColumn(left.column(c), lsel, col.get());
    out_cols.push_back(std::move(col));
  }
  for (int c : right_cols) {
    auto col = std::make_shared<Column>();
    GatherColumn(right.column(c), rsel, col.get());
    out_cols.push_back(std::move(col));
  }
  Table out = Table::FromColumns(std::move(out_schema), std::move(out_cols),
                                 static_cast<int64_t>(lsel.size()));
  if (rejects != nullptr) {
    *rejects = Table::Gather(left, reject_sel);
  }
  if (right_rejects != nullptr) {
    *right_rejects = Table::Gather(right, ClearRows(hit, right.num_rows()));
  }
  const int64_t probe_ns = ElapsedNs(phase);
  if (span.active()) {
    span.Arg("build_rows", right.num_rows());
    span.Arg("probe_rows", left.num_rows());
    span.Arg("rows_out", out.num_rows());
    span.Arg("build_ns", build_ns);
    span.Arg("probe_ns", probe_ns);
  }
  return out;
}

NodeStepContext::NodeStepContext(const Workflow* workflow,
                                 const SourceMap* source_map,
                                 const ExecutorOptions* run_options,
                                 ExecutionResult* run_result)
    : wf(workflow),
      sources(source_map),
      options(run_options),
      // One pointer load when no spec is installed — the entire robustness
      // layer costs the un-faulted hot path a single null check per
      // operator.
      inj(fault::FaultInjector::Global()),
      // Hoisted once per run: the disabled profiler costs each operator a
      // branch on this cached bool, nothing more (benched in
      // bench/micro_obs.cc).
      profiling(obs::ProfilerEnabled()),
      // Deterministic backoff jitter (and nothing else) comes from this
      // stream.
      backoff_rng(inj != nullptr ? inj->seed() : 0x5eedULL),
      result(run_result) {
  result->nodes_total = static_cast<int>(wf->nodes().size());
}

void AbortRun(const NodeStepContext& ctx, AbortKind kind, std::string reason,
              const WorkflowNode& node) {
  ExecutionResult& result = *ctx.result;
  result.abort_kind = kind;
  result.abort_reason = std::move(reason);
  result.abort_node = node.id;
  ETLOPT_LOG(Warning) << "run aborted (" << AbortKindName(kind) << ") at "
                      << OpFaultName(node) << ": " << result.abort_reason;
}

Table ApplyRowOperator(const WorkflowNode& node, const Schema& out_schema,
                       const Table& in, SelVector* sel) {
  switch (node.kind) {
    case OpKind::kFilter:
      // One comparison loop over the predicate column builds the
      // selection, every output column is a gather.
      BuildSelection(node.predicate,
                     in.column_data(in.schema().IndexOf(node.predicate.attr)),
                     in.num_rows(), sel);
      return Table::Gather(in, *sel);
    case OpKind::kProject: {
      // Copy-free: the kept columns are shared by pointer; downstream
      // mutation clones them on write.
      std::vector<ColumnPtr> kept;
      kept.reserve(node.keep.size());
      for (AttrId a : node.keep) {
        kept.push_back(in.shared_column(in.schema().IndexOf(a)));
      }
      return Table::FromColumns(out_schema, std::move(kept), in.num_rows());
    }
    case OpKind::kTransform: {
      // Batched UDF: untouched columns are shared, the transformed (or
      // derived) column is one fn-application loop over the input array.
      const TransformSpec& t = node.transform;
      const int col = in.schema().IndexOf(t.input_attr);
      const bool in_place = t.output_attr == t.input_attr;
      auto mapped = std::make_shared<Column>();
      MapColumn(t.fn, in.column_data(col), in.num_rows(), mapped.get());
      std::vector<ColumnPtr> cols;
      cols.reserve(static_cast<size_t>(out_schema.size()));
      for (int c = 0; c < in.schema().size(); ++c) {
        cols.push_back(in_place && c == col ? mapped : in.shared_column(c));
      }
      if (!in_place) cols.push_back(std::move(mapped));
      return Table::FromColumns(out_schema, std::move(cols), in.num_rows());
    }
    case OpKind::kMaterialize:
    case OpKind::kSink:
      return in;
    case OpKind::kSource:
    case OpKind::kAggregate:
    case OpKind::kJoin:
      break;
  }
  ETLOPT_CHECK_MSG(false, "not a row operator");
  return in;
}

namespace {

// Runs the operator itself: reads inputs from result->node_outputs and
// fills `product`; a source read also records its retries, quarantine and
// watermark. Configuration errors come back as a non-OK Status; runtime
// aborts land in result->abort_*.
Status ComputeNodeOutput(const NodeStepContext& ctx, const WorkflowNode& node,
                         NodeProduct* product) {
  ExecutionResult& result = *ctx.result;
  fault::FaultInjector* inj = ctx.inj;
  const Schema& out_schema = ctx.wf->output_schema(node.id);
  Table out{out_schema};
  auto input = [&](int i) -> const Table& {
    return result.node_outputs.at(node.inputs[static_cast<size_t>(i)]);
  };
  switch (node.kind) {
    case OpKind::kSource: {
      auto it = ctx.sources->find(node.table_name);
      if (it == ctx.sources->end()) {
        return Status::NotFound("no source table bound for '" +
                                node.table_name + "'");
      }
      if (!(it->second.schema() == node.source_schema)) {
        return Status::InvalidArgument("source '" + node.table_name +
                                       "' schema mismatch");
      }
      if (inj == nullptr ||
          !inj->HasRules(fault::Scope::kSource, node.table_name)) {
        // The seed fast path: no faults configured for this source. Under
        // an installed injector still record the watermark — a crash
        // elsewhere in the workflow salvages per-source progress from it.
        out = it->second;
        if (inj != nullptr) {
          result.source_rows_read[node.table_name] = out.num_rows();
        }
        break;
      }
      // ---- resilient read: retry/backoff, then row-level quarantine ----
      const std::string& name = node.table_name;
      int attempt = 1;
      for (;; ++attempt) {
        const fault::Kind fk = inj->OnSourceOpen(name);
        if (fk == fault::Kind::kNone) break;
        ++(fk == fault::Kind::kTimeout ? result.source_timeouts
                                       : result.source_io_errors);
        if (attempt >= ctx.options->retry.max_attempts) {
          AbortRun(ctx, AbortKind::kSourceFailed,
                   "source '" + name + "' failed " + std::to_string(attempt) +
                       " attempt(s) (" + fault::KindName(fk) + ")",
                   node);
          break;
        }
        ++result.source_retries[name];
        const double slept =
            BackoffAndSleep(ctx.options->retry, attempt, ctx.backoff_rng);
        ETLOPT_LOG(Info) << "source '" << name << "' " << fault::KindName(fk)
                         << ", retrying (attempt " << attempt + 1 << "/"
                         << ctx.options->retry.max_attempts << ") after "
                         << slept << "ms";
      }
      if (result.aborted()) break;

      Table quarantine{node.source_schema};
      const bool row_faults = inj->HasRules(fault::Scope::kSource, name);
      const Table& src = it->second;
      for (int64_t r = 0; r < src.num_rows(); ++r) {
        if (row_faults &&
            inj->OnSourceRow(name) == fault::Kind::kMalformedRow) {
          quarantine.AppendRowFrom(src, r);
          continue;
        }
        out.AppendRowFrom(src, r);
      }
      const int64_t scanned = it->second.num_rows();
      const int64_t bad = quarantine.num_rows();
      result.source_rows_read[name] = scanned;
      if (bad > 0) {
        const double error_rate =
            scanned > 0 ? static_cast<double>(bad) / scanned : 0.0;
        result.quarantined[name] = std::move(quarantine);
        if (scanned >= ctx.options->min_rows_for_error_rate &&
            error_rate > ctx.options->max_error_rate) {
          std::ostringstream reason;
          reason << "source '" << name << "' error rate " << error_rate
                 << " exceeds max_error_rate " << ctx.options->max_error_rate
                 << " (" << bad << "/" << scanned << " rows quarantined)";
          AbortRun(ctx, AbortKind::kErrorRate, reason.str(), node);
        }
      }
      break;
    }
    case OpKind::kFilter:
    case OpKind::kProject:
    case OpKind::kTransform:
    case OpKind::kMaterialize:
    case OpKind::kSink: {
      SelVector sel;
      out = ApplyRowOperator(node, out_schema, input(0), &sel);
      if (node.kind == OpKind::kTransform && node.transform.is_aggregate) {
        // Black-box aggregate UDF (a deterministic blocking reduction):
        // keeps the first row of each distinct transformed value, in input
        // order.
        const Value* values =
            out.column_data(out_schema.IndexOf(node.transform.output_attr));
        std::unordered_set<Value> seen;
        SelVector first;
        for (int64_t r = 0; r < out.num_rows(); ++r) {
          if (seen.insert(values[r]).second) first.push_back(r);
        }
        out = Table::Gather(out, first);
      }
      break;
    }
    case OpKind::kAggregate: {
      const Table& in = input(0);
      std::vector<int> cols;
      for (AttrId a : node.aggregate.group_by) {
        cols.push_back(in.schema().IndexOf(a));
      }
      std::vector<const Value*> data;
      data.reserve(cols.size());
      for (int c : cols) data.push_back(in.column_data(c));
      // Output order follows the group map's iteration order, a function of
      // the insertion sequence; the partitioned executor gathers its input
      // and runs this same loop, so both produce one order.
      std::unordered_map<std::vector<Value>, int64_t, ValueVecHash> groups;
      for (int64_t r = 0; r < in.num_rows(); ++r) {
        std::vector<Value> key;
        key.reserve(cols.size());
        for (const Value* d : data) key.push_back(d[r]);
        ++groups[std::move(key)];
      }
      const bool with_count = node.aggregate.count_attr != kInvalidAttr;
      for (auto& [key, count] : groups) {
        std::vector<Value> row = key;
        if (with_count) row.push_back(count);
        out.AddRow(std::move(row));
      }
      break;
    }
    case OpKind::kJoin: {
      const RejectSides sides = JoinRejectSides(*ctx.options, node);
      out = HashJoin(input(0), input(1), node.join.attr,
                     sides.left ? &product->rejects.emplace() : nullptr,
                     sides.right ? &product->right_rejects.emplace()
                                 : nullptr);
      break;
    }
  }
  product->output = std::move(out);
  return Status::OK();
}

}  // namespace

void PublishNodeProduct(const WorkflowNode& node, NodeProduct* product,
                        ExecutionResult* result) {
  if (product->rejects.has_value()) {
    result->join_rejects[node.id] = std::move(*product->rejects);
  }
  if (product->right_rejects.has_value()) {
    result->join_rejects_right[node.id] = std::move(*product->right_rejects);
  }
  if (!product->output.has_value()) return;
  if (node.kind == OpKind::kMaterialize || node.kind == OpKind::kSink) {
    result->targets[node.target_name] = *product->output;
  }
  result->node_outputs[node.id] = std::move(*product->output);
}

void FinishNodeStep(const NodeStepContext& ctx, const WorkflowNode& node,
                    NodeInputSize in, int64_t rows_out, int64_t self_ns,
                    NodeProduct* product) {
  ExecutionResult& result = *ctx.result;
  // Rows entering the operator: none for a source, both inputs of a join,
  // the rows a target passes through. An operator that crashes below has
  // still processed them.
  result.rows_processed += in.rows;
  // Crash points fire after the operator ran but before its output is
  // published — the salvage surface is exactly the completed prefix.
  if (!result.aborted() && ctx.inj != nullptr) {
    const int64_t weight = in.rows > 0 ? in.rows : rows_out;
    if (ctx.inj->OnOperator(OpFaultName(node), weight) ==
        fault::Kind::kCrash) {
      AbortRun(ctx, AbortKind::kCrash,
               "injected crash fault at " + OpFaultName(node), node);
    }
  }
  if (result.aborted()) return;
  // Plan-regression monitors: one branch on an empty map when the guard is
  // disabled (benched by BM_GuardMonitorDisabled). Partitioned nodes reach
  // here with their gathered output, so the observed cardinality — and the
  // verdict — is identical across worker counts.
  if (!ctx.options->monitors.empty()) {
    const auto mon_it = ctx.options->monitors.find(node.id);
    if (mon_it != ctx.options->monitors.end() &&
        mon_it->second.expected_rows >= 0.0) {
      const double expected = std::max(mon_it->second.expected_rows, 1.0);
      const double actual = std::max<double>(rows_out, 1.0);
      const double qerror = std::max(expected / actual, actual / expected);
      if (qerror > ctx.options->monitor_qerror_bound) {
        MonitorViolation violation;
        violation.node = node.id;
        violation.block = mon_it->second.block;
        violation.se = mon_it->second.se;
        violation.expected = mon_it->second.expected_rows;
        violation.actual = static_cast<double>(rows_out);
        violation.qerror = qerror;
        result.monitor_violations.push_back(violation);
        ETLOPT_LOG(Warning)
            << "plan monitor at " << OpFaultName(node) << ": expected "
            << violation.expected << " rows, observed " << violation.actual
            << " (q-error " << qerror << " > "
            << ctx.options->monitor_qerror_bound << ")";
        if (ctx.options->monitor_abort) {
          AbortRun(ctx, AbortKind::kGuard,
                   "estimate monitor q-error " + std::to_string(qerror) +
                       " at " + OpFaultName(node),
                   node);
          return;
        }
      }
    }
  }
  // Bytes entering the operator, like rows_processed; counted only for an
  // operator that completed.
  result.bytes_processed += in.bytes;
  if (ctx.profiling) {
    obs::OpProfile op;
    op.node = static_cast<int>(node.id);
    op.op = OpKindName(node.kind);
    op.label = OpFaultName(node);
    op.inputs.reserve(node.inputs.size());
    for (NodeId id : node.inputs) op.inputs.push_back(static_cast<int>(id));
    op.self_ns = self_ns;
    op.rows_in = in.rows;
    op.rows_out = rows_out;
    op.bytes = in.bytes;
    result.profile.ops.push_back(std::move(op));
  }
  ++result.nodes_completed;
  PublishNodeProduct(node, product, &result);
}

Status ExecuteNodeStep(const NodeStepContext& ctx, const WorkflowNode& node) {
  obs::ScopedSpan op_span(OpKindName(node.kind));
  NodeInputSize in;
  for (NodeId id : node.inputs) {
    const Table& t = ctx.result->node_outputs.at(id);
    in.rows += t.num_rows();
    in.bytes += t.num_rows() * 8 * t.schema().size();
  }
  NodeProduct product;
  int64_t op_start_ns = 0;
  if (ctx.profiling) op_start_ns = obs::ProfileNowNs();
  ETLOPT_RETURN_IF_ERROR(ComputeNodeOutput(ctx, node, &product));
  // Self time stops here: fault bookkeeping, byte accounting, and the
  // profile entry in FinishNodeStep are harness cost, not operator cost.
  int64_t self_ns = 0;
  if (ctx.profiling) self_ns = obs::ProfileNowNs() - op_start_ns;
  if (ctx.result->aborted()) return Status::OK();  // stopped inside the read
  const int64_t rows_out = product.output->num_rows();
  if (op_span.active()) {
    op_span.Arg("node", static_cast<int64_t>(node.id));
    op_span.Arg("rows_in", in.rows);
    op_span.Arg("rows_out", rows_out);
  }
  FinishNodeStep(ctx, node, in, rows_out, self_ns, &product);
  return Status::OK();
}

OutputRelease::OutputRelease(const Workflow& wf, bool retain) : wf_(wf) {
  if (retain) return;
  pending_.assign(wf.nodes().size(), 0);
  for (const WorkflowNode& node : wf.nodes()) {
    for (NodeId in : node.inputs) ++pending_[static_cast<size_t>(in)];
  }
}

void OutputRelease::After(const WorkflowNode& node, ExecutionResult* result) {
  if (pending_.empty()) return;
  for (NodeId in : node.inputs) {
    if (--pending_[static_cast<size_t>(in)] == 0 &&
        wf_.node(in).target_name.empty()) {
      result->node_outputs.erase(in);
    }
  }
}

RejectSides JoinRejectSides(const ExecutorOptions& options,
                            const WorkflowNode& join) {
  const auto it = options.reject_sides.find(join.id);
  const RejectSides named =
      it != options.reject_sides.end() ? it->second : RejectSides{};
  return RejectSides{join.join.left_reject_link || named.left, named.right};
}

void PinAllocatorThresholds() {
#if defined(__GLIBC__)
  static const bool pinned = [] {
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
    mallopt(M_TRIM_THRESHOLD, 512 << 20);
    return true;
  }();
  (void)pinned;
#endif
}

Result<ExecutionResult> Executor::Execute(const SourceMap& sources) const {
  PinAllocatorThresholds();
  ExecutionResult result;
  obs::ScopedSpan exec_span("engine.execute");
  exec_span.Arg("workflow", wf_->name());
  exec_span.Arg("nodes", static_cast<int64_t>(wf_->nodes().size()));
  const NodeStepContext ctx(wf_, &sources, &options_, &result);
  OutputRelease release(*wf_, options_.retain_node_outputs);
  for (const WorkflowNode& node : wf_->nodes()) {
    ETLOPT_RETURN_IF_ERROR(ExecuteNodeStep(ctx, node));
    if (result.aborted()) break;
    release.After(node, &result);
  }
  if (result.aborted() && exec_span.active()) {
    exec_span.Arg("abort", AbortKindName(result.abort_kind));
    exec_span.Arg("nodes_completed",
                  static_cast<int64_t>(result.nodes_completed));
  }
  return result;
}

}  // namespace etlopt
