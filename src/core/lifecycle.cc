#include "core/lifecycle.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace etlopt {
namespace {

// Converts a cover tree (splits per SE) into an OptimizedPlan the rewriter
// can emit, resolving each split's join attribute from the join graph.
Result<OptimizedPlan> PlanFromCoverTree(
    const BlockContext& ctx, const ExecCoverResult::CoverTree& tree) {
  OptimizedPlan plan;
  for (const auto& [se, split] : tree.splits) {
    const int edge = ctx.graph().CrossingEdge(split.first, split.second);
    if (edge < 0) {
      return Status::Internal("cover tree split has no unique join edge");
    }
    JoinChoice choice;
    choice.left = split.first;
    choice.right = split.second;
    choice.attr = ctx.graph().edges()[static_cast<size_t>(edge)].attr;
    plan.choices[se] = choice;
  }
  return plan;
}

// Sorted (name, value) view of a string->int64 map, for deterministic
// result fields.
std::vector<std::pair<std::string, int64_t>> SortedCounts(
    const std::unordered_map<std::string, int64_t>& counts) {
  std::vector<std::pair<std::string, int64_t>> sorted(counts.begin(),
                                                      counts.end());
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

// The history record whose estimates arm the runtime monitors: the most
// recent clean run (partial records' estimates come from a salvaged
// prefix — comparing against them would raise false violations), skipping
// records whose plan a later run's monitors condemned (re-arming from one
// would abort every subsequent strict run against the same wrong numbers).
const obs::RunRecord* LastCleanRecord(
    const std::vector<obs::RunRecord>* history) {
  if (history == nullptr) return nullptr;
  std::vector<std::string> condemned;
  for (const obs::RunRecord& record : *history) {
    if (record.guard.plan_unsafe && !record.guard.unsafe_signature.empty()) {
      condemned.push_back(record.guard.unsafe_signature);
    }
  }
  for (auto it = history->rbegin(); it != history->rend(); ++it) {
    if (it->partial) continue;
    if (std::find(condemned.begin(), condemned.end(), it->plan_signature) !=
        condemned.end()) {
      continue;
    }
    return &*it;
  }
  return nullptr;
}

// Low-confidence SE-size feedback from a prior partial run. The salvaged
// cardinalities reflect a completed prefix of the workflow, so each is
// scaled up by the run's completion watermark before seeding the selection
// cost model — a crude full-run extrapolation, but strictly better than
// the cold-start guess the cost model would otherwise fall back to.
std::vector<CardMap> PartialRunFeedback(const obs::RunRecord& last,
                                        size_t num_blocks) {
  std::vector<CardMap> feedback(num_blocks);
  const double completion = std::clamp(last.completion, 0.05, 1.0);
  int64_t seeded = 0;
  for (const obs::RunRecord::SeCard& card : last.cards) {
    const double rows = card.actual >= 0 ? card.actual : card.estimated;
    if (rows < 0 || card.block < 0 ||
        card.block >= static_cast<int>(num_blocks)) {
      continue;
    }
    feedback[static_cast<size_t>(card.block)][card.se] =
        static_cast<int64_t>(std::llround(rows / completion));
    ++seeded;
  }
  ETLOPT_COUNTER_ADD("etlopt.core.partial_feedback_keys", seeded);
  ETLOPT_LOG(Info) << "seeding selection cost model with " << seeded
                   << " SE size(s) salvaged from partial run '" << last.run_id
                   << "' (completion " << last.completion << ")";
  return feedback;
}

}  // namespace

Result<BudgetedLifecycleResult> RunBudgetedLifecycle(
    const Workflow& workflow, const SourceMap& sources, double memory_budget,
    const PipelineOptions& options,
    const std::vector<obs::RunRecord>* history) {
  BudgetedLifecycleResult result;
  obs::ScopedSpan lifecycle_span("lifecycle.budgeted");
  lifecycle_span.Arg("workflow", workflow.name());
  lifecycle_span.Arg("budget", memory_budget);
  // One span per sequential phase; emplace ends the previous phase before
  // starting the next, so the spans tile the lifecycle under the outer span.
  std::optional<obs::ScopedSpan> phase_span;
  phase_span.emplace("lifecycle.analysis");

  // ---- Steps 1-3: analysis (blocks, plan spaces, CSS) ----
  const std::vector<Block> blocks = PartitionBlocks(workflow);
  std::vector<BlockContext> contexts;
  std::vector<PlanSpace> plan_spaces;
  std::vector<CssCatalog> catalogs;
  for (const Block& block : blocks) {
    ETLOPT_ASSIGN_OR_RETURN(BlockContext ctx,
                            BlockContext::Build(&workflow, block));
    contexts.push_back(std::move(ctx));
  }
  for (const BlockContext& ctx : contexts) {
    ETLOPT_ASSIGN_OR_RETURN(PlanSpace ps,
                            PlanSpace::Build(ctx, options.plan_space));
    plan_spaces.push_back(std::move(ps));
  }
  for (size_t b = 0; b < contexts.size(); ++b) {
    catalogs.push_back(
        GenerateCss(contexts[b], plan_spaces[b], options.css));
  }

  // ---- Step 4 under the budget (Section 6.1) ----
  phase_span.emplace("lifecycle.budgeted_selection");
  // A prior partial run's salvage seeds the cost model (watermark-scaled,
  // low-confidence) so this run's selection is not cold-started.
  std::vector<CardMap> partial_feedback;
  if (history != nullptr && !history->empty() && history->back().partial) {
    partial_feedback = PartialRunFeedback(history->back(), contexts.size());
  }
  // A prior run's monitor violations seed force_observe: SEs whose
  // estimates the monitors caught out are re-observed directly this run.
  std::vector<StatKey> guard_force_observe;
  if (history != nullptr && !history->empty()) {
    for (const obs::GuardRecord::Monitor& m :
         history->back().guard.violations) {
      guard_force_observe.push_back(StatKey::Card(m.se));
    }
  }
  std::vector<SelectionProblem> problems;
  CostModelOptions cost_options = options.cost;
  if (!options.calibration.empty() && cost_options.cpu_ns_per_row <= 0.0) {
    // Calibrated overlay: the CPU charge per observed tuple becomes measured
    // tap nanoseconds (fit from profiled ledger runs) instead of the
    // paper's abstract unit cost.
    cost_options.cpu_ns_per_row = options.calibration.NsPerRow("tap");
  }
  for (size_t b = 0; b < contexts.size(); ++b) {
    CostModel cost_model(&workflow.catalog(), cost_options);
    if (b < partial_feedback.size()) {
      for (const auto& [se, rows] : partial_feedback[b]) {
        cost_model.SetSeSize(se, rows);
      }
    }
    SelectionOptions sel_options;
    sel_options.free_source_stats = options.free_source_stats;
    sel_options.force_observe = options.force_observe;
    sel_options.force_observe.insert(sel_options.force_observe.end(),
                                     guard_force_observe.begin(),
                                     guard_force_observe.end());
    problems.push_back(BuildSelectionProblem(contexts[b], plan_spaces[b],
                                             catalogs[b], cost_model,
                                             sel_options));
    problems.back().catalog = &catalogs[b];
  }
  for (size_t b = 0; b < contexts.size(); ++b) {
    result.selections.push_back(SelectWithBudget(
        problems[b], contexts[b], plan_spaces[b], memory_budget));
  }

  // ---- Run 1: designed plan, instrumented with the affordable set ----
  phase_span.emplace("lifecycle.first_run");
  result.guard.mode = obs::GuardModeName(options.guard.mode);
  // Arm the runtime estimate monitors from the last clean history record:
  // its per-SE estimates become expected cardinalities at the designed
  // plan's pipeline points. Strict mode aborts on the first violation
  // (through the salvage path, so this run still pays back statistics).
  ExecutorOptions first_run_options = options.executor;
  // The taps (and salvage after an abort) read every pipeline point.
  first_run_options.retain_node_outputs = true;
  if (options.guard.mode != obs::GuardMode::kOff) {
    if (const obs::RunRecord* last_clean = LastCleanRecord(history)) {
      for (const obs::RunRecord::SeCard& card : last_clean->cards) {
        if (card.estimated < 0 || card.block < 0 ||
            card.block >= static_cast<int>(contexts.size())) {
          continue;
        }
        const auto& on_path =
            contexts[static_cast<size_t>(card.block)].on_path();
        const auto it = on_path.find(card.se);
        if (it == on_path.end()) continue;
        PlanMonitor monitor;
        monitor.expected_rows = card.estimated;
        monitor.block = card.block;
        monitor.se = card.se;
        first_run_options.monitors[it->second] = monitor;
      }
      first_run_options.monitor_qerror_bound = options.guard.monitor_qerror;
      first_run_options.monitor_abort =
          options.guard.mode == obs::GuardMode::kStrict;
      // The same per-SE estimates size hash-join build tables: a join whose
      // build input carries an expected cardinality reserves from it.
      first_run_options.build_rows_hints =
          BuildSideCardHints(workflow, first_run_options.monitors);
    }
  }
  Executor executor(&workflow, first_run_options);
  ETLOPT_ASSIGN_OR_RETURN(const ExecutionResult first_exec,
                          executor.Execute(sources));
  result.executions = 1;
  if (!first_exec.monitor_violations.empty()) {
    for (const MonitorViolation& v : first_exec.monitor_violations) {
      obs::GuardRecord::Monitor m;
      m.block = v.block;
      m.se = v.se;
      m.node = static_cast<int64_t>(v.node);
      m.expected = v.expected;
      m.actual = v.actual;
      m.qerror = v.qerror;
      result.guard.violations.push_back(m);
    }
    result.guard.plan_unsafe = true;
    if (const obs::RunRecord* last_clean = LastCleanRecord(history)) {
      result.guard.unsafe_signature = last_clean->plan_signature;
    }
  }
  if (first_exec.aborted()) {
    result.abort_kind = first_exec.abort_kind;
    result.abort_reason = first_exec.abort_reason;
    result.completion = first_exec.completion_fraction();
    ETLOPT_LOG(Warning) << "lifecycle first run aborted ("
                        << AbortKindName(result.abort_kind) << "): "
                        << result.abort_reason
                        << "; salvaging statistics from the completed prefix";
  }
  result.source_rows_read = SortedCounts(first_exec.source_rows_read);
  result.source_retries = SortedCounts(first_exec.source_retries);
  result.quarantined_rows = first_exec.quarantined_rows();

  TapOptions first_run_taps;
  first_run_taps.salvage = first_exec.aborted();
  TapReport first_tap_report;
  result.block_cards.resize(contexts.size());
  // Estimators stay alive past this loop: the adoption gate reads per-SE
  // confidence (provenance + error bounds) from them at re-optimize time.
  std::vector<std::unique_ptr<Estimator>> estimators;
  for (size_t b = 0; b < contexts.size(); ++b) {
    const std::vector<StatKey> keys =
        result.selections[b].first_run.ObservedKeys(catalogs[b]);
    ETLOPT_ASSIGN_OR_RETURN(
        StatStore observed,
        ObserveStatistics(contexts[b], first_exec, keys, first_run_taps,
                          &first_tap_report));
    estimators.push_back(
        std::make_unique<Estimator>(&contexts[b], &catalogs[b]));
    Estimator& estimator = *estimators.back();
    ETLOPT_RETURN_IF_ERROR(estimator.DeriveAll(observed));
    result.block_stats.push_back(std::move(observed));
    for (RelMask se : plan_spaces[b].subexpressions()) {
      const Result<int64_t> card = estimator.Cardinality(se);
      if (card.ok()) result.block_cards[b][se] = *card;
    }
    // On-path SEs are passively monitorable at one counter each ([LEO]-style
    // passive monitoring, §7.3); record them regardless of the selection so
    // tiny budgets still learn everything the first run exposes. After an
    // abort only the completed prefix has outputs to read.
    for (const auto& [se, node] : contexts[b].on_path()) {
      const auto out_it = first_exec.node_outputs.find(node);
      if (out_it != first_exec.node_outputs.end()) {
        result.block_cards[b][se] = out_it->second.num_rows();
      }
    }
  }
  if (!first_exec.profile.empty()) {
    result.profile = first_exec.profile;
    result.profile.tap_ns = first_tap_report.observe_ns;
    obs::AnnotatePredictions(options.calibration, &result.profile);
    obs::RecordCostAccuracy(result.profile);
  }

  // ---- Re-ordered runs for the deferred SEs (trivial CSS counters) ----
  // An aborted first run skips these: re-executing against the same faulty
  // sources would abort again, and the salvage path wants the partial
  // record on disk as fast as possible.
  phase_span.emplace("lifecycle.reorder_runs");
  for (size_t b = 0; b < contexts.size() && !result.aborted(); ++b) {
    const BudgetedSelection& bsel = result.selections[b];
    if (bsel.deferred.empty()) continue;
    const ExecCoverResult& cover = bsel.reorder_plan;
    for (size_t run = 0; run < cover.per_run_tree.size(); ++run) {
      ETLOPT_ASSIGN_OR_RETURN(
          const OptimizedPlan plan,
          PlanFromCoverTree(contexts[b], cover.per_run_tree[run]));
      std::vector<PlanRewriter::BlockPlan> bp{{&blocks[b], &plan}};
      std::vector<std::unordered_map<RelMask, NodeId>> se_nodes;
      ETLOPT_ASSIGN_OR_RETURN(const Workflow reordered,
                              PlanRewriter::Apply(workflow, bp, &se_nodes));
      ExecutorOptions rerun_options;
      rerun_options.retain_node_outputs = true;  // covered SEs are read below
      Executor rerun(&reordered, rerun_options);
      ETLOPT_ASSIGN_OR_RETURN(const ExecutionResult exec,
                              rerun.Execute(sources));
      ++result.executions;
      for (RelMask se : cover.per_run_covered[run]) {
        const auto it = se_nodes[0].find(se);
        if (it == se_nodes[0].end()) {
          return Status::Internal("covered SE missing from rewritten plan");
        }
        result.block_cards[b][se] =
            exec.node_outputs.at(it->second).num_rows();
      }
    }
  }

  // ---- Drift check against ledger history ----
  // Runs BEFORE re-optimization: the adoption gate distrusts estimates fed
  // by drift-flagged statistics, so the report must exist when the gate
  // scores the proposal. Only this run's observations are compared —
  // nothing downstream of the reoptimize phase is needed.
  if (history != nullptr && !history->empty()) {
    phase_span.emplace("lifecycle.drift_check");
    obs::RunRecord current;
    current.partial = result.aborted();
    current.completion = result.completion;
    current.block_stats = result.block_stats;
    for (size_t b = 0; b < result.block_cards.size(); ++b) {
      for (const auto& [se, rows] : result.block_cards[b]) {
        obs::RunRecord::SeCard card;
        card.block = static_cast<int>(b);
        card.se = se;
        card.actual = static_cast<double>(rows);
        current.cards.push_back(card);
      }
    }
    result.drift = obs::DriftDetector().Compare(*history, current);
    ETLOPT_COUNTER_ADD("etlopt.obs.drift.checked_keys",
                       static_cast<int64_t>(result.drift.findings.size()));
    ETLOPT_COUNTER_ADD("etlopt.obs.drift.flagged_keys",
                       static_cast<int64_t>(result.drift.reinstrument.size()));
    lifecycle_span.Arg(
        "drifted", static_cast<int64_t>(result.drift.reinstrument.size()));
  }

  // ---- Step 7: optimize from the now-complete statistics ----
  phase_span.emplace("lifecycle.reoptimize");
  if (result.aborted()) {
    // The statistics are a salvaged prefix — not a basis for re-ordering
    // joins. Keep the designed plan; the partial ledger record this result
    // becomes will seed the next lifecycle's cost model instead.
    result.optimized = workflow;
  } else {
    std::vector<OptimizedPlan> final_plans(contexts.size());
    std::vector<PlanRewriter::BlockPlan> rewrites;
    for (size_t b = 0; b < contexts.size(); ++b) {
      ETLOPT_ASSIGN_OR_RETURN(
          final_plans[b],
          OptimizeJoins(contexts[b], plan_spaces[b], result.block_cards[b],
                        options.optimizer_cost));
      result.initial_cost += final_plans[b].initial_cost;
      result.optimized_cost += final_plans[b].cost;
      if (blocks[b].joins.size() >= 2) {
        rewrites.push_back({&blocks[b], &final_plans[b]});
      }
    }
    ETLOPT_ASSIGN_OR_RETURN(Workflow proposed,
                            PlanRewriter::Apply(workflow, rewrites));

    // ---- Adoption gate: may the proposal replace the designed plan? ----
    if (options.guard.mode != obs::GuardMode::kOff) {
      obs::GuardInputs inputs;
      const std::string designed_sig = obs::FingerprintWorkflow(workflow);
      inputs.proposed_signature = obs::FingerprintWorkflow(proposed);
      inputs.plan_changed = inputs.proposed_signature != designed_sig;
      inputs.initial_cost = result.initial_cost;
      inputs.optimized_cost = result.optimized_cost;
      for (size_t b = 0; b < contexts.size(); ++b) {
        const std::vector<StatKey> flagged =
            result.drift.ReinstrumentKeys(static_cast<int>(b));
        for (const auto& [se, rows] : result.block_cards[b]) {
          (void)rows;
          obs::SeEvidence ev;
          ev.block = static_cast<int>(b);
          ev.se = se;
          ev.confidence = estimators[b]->CardinalityConfidence(
              se, flagged, options.guard.drift_penalty);
          if (estimators[b]->clamped_values() > 0) {
            ev.confidence *= options.guard.drift_penalty;
          }
          inputs.evidence.push_back(ev);
        }
      }
      inputs.calibration_coverage =
          obs::CalibrationCoverage(options.calibration, result.profile);
      inputs.partial_history = !partial_feedback.empty();
      if (history != nullptr) {
        for (const obs::RunRecord& record : *history) {
          if (record.guard.plan_unsafe &&
              !record.guard.unsafe_signature.empty()) {
            inputs.unsafe_signatures.push_back(record.guard.unsafe_signature);
          }
        }
      }
      const obs::GuardVerdict verdict =
          obs::EvaluateAdoption(options.guard, inputs);
      result.guard.adopted = verdict.adopt;
      result.guard.evidence = verdict.evidence_score;
      result.guard.margin = verdict.margin;
      result.guard.reasons = verdict.reasons;
      if (!verdict.adopt) {
        result.guard.fell_back = true;
        result.guard.proposed_signature = inputs.proposed_signature;
        result.optimized_cost = result.initial_cost;
        ETLOPT_LOG(Warning)
            << "plan-regression guard rejected the re-optimized plan "
            << inputs.proposed_signature << " (evidence "
            << verdict.evidence_score << "); keeping the designed plan";
        result.optimized = workflow;
      } else {
        result.optimized = std::move(proposed);
      }
    } else {
      result.optimized = std::move(proposed);
    }
  }

  phase_span.reset();
  ETLOPT_COUNTER_ADD("etlopt.core.lifecycle_executions", result.executions);
  lifecycle_span.Arg("executions", static_cast<int64_t>(result.executions));
  return result;
}

}  // namespace etlopt
