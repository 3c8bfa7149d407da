#include "core/pipeline.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>

#include "engine/parallel/parallel_executor.h"
#include "etl/workflow_io.h"
#include "obs/build_info.h"
#include "obs/checkpoint.h"
#include "obs/drift.h"
#include "obs/trace.h"
#include "util/env.h"
#include "util/logging.h"
#include "util/timer.h"

namespace etlopt {
namespace {

// Plan signatures history records' monitors condemned — proposals the
// adoption gate must reject.
std::vector<std::string> UnsafeSignatures(
    const std::vector<obs::RunRecord>& history) {
  std::vector<std::string> signatures;
  for (const obs::RunRecord& record : history) {
    if (record.guard.plan_unsafe && !record.guard.unsafe_signature.empty()) {
      signatures.push_back(record.guard.unsafe_signature);
    }
  }
  return signatures;
}

// The history record whose estimates arm the runtime monitors: the most
// recent clean run. Partial records' estimates come from a salvaged prefix
// — comparing against them would raise false violations.
const obs::RunRecord* LastCleanRecord(
    const std::vector<obs::RunRecord>* history) {
  if (history == nullptr) return nullptr;
  // A record whose plan a later run's monitors condemned is not a usable
  // estimate source either: re-arming monitors from it would abort every
  // subsequent strict run against the same wrong numbers. Skip it and fall
  // back to an older clean record (or none — a monitor-free run that
  // re-observes the flagged SEs directly and rebuilds trust).
  const std::vector<std::string> condemned = UnsafeSignatures(*history);
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

// Per-node expected cardinalities from a prior record's per-SE estimates,
// mapped through each block's on-path SE -> producing-node table. Only SEs
// whose pipeline point the designed plan materializes are monitorable.
std::unordered_map<NodeId, PlanMonitor> BuildPlanMonitors(
    const Analysis& analysis, const obs::RunRecord& record) {
  std::unordered_map<NodeId, PlanMonitor> monitors;
  for (const obs::RunRecord::SeCard& card : record.cards) {
    if (card.estimated < 0 || card.block < 0 ||
        card.block >= static_cast<int>(analysis.blocks.size())) {
      continue;
    }
    const auto& on_path =
        analysis.blocks[static_cast<size_t>(card.block)]->ctx.on_path();
    const auto it = on_path.find(card.se);
    if (it == on_path.end()) continue;
    PlanMonitor monitor;
    monitor.expected_rows = card.estimated;
    monitor.block = card.block;
    monitor.se = card.se;
    monitors[it->second] = monitor;
  }
  return monitors;
}

// Low-confidence SE-size feedback when the last history record is partial.
// The salvaged cardinalities reflect a completed prefix of the workflow, so
// each is scaled up by the run's completion watermark before seeding the
// selection cost model — a crude full-run extrapolation, but strictly
// better than the cold-start guess the cost model would otherwise fall
// back to. Empty when there is no partial last record. `seeded` receives
// the number of SE sizes taken from it.
std::vector<CardMap> PartialRunFeedback(
    const std::vector<obs::RunRecord>* history, size_t num_blocks,
    int64_t* seeded) {
  if (history == nullptr || history->empty() || !history->back().partial) {
    return {};
  }
  const obs::RunRecord& last = history->back();
  std::vector<CardMap> feedback(num_blocks);
  const double completion = std::clamp(last.completion, 0.05, 1.0);
  for (const obs::RunRecord::SeCard& card : last.cards) {
    const double rows = card.actual >= 0 ? card.actual : card.estimated;
    if (rows < 0 || card.block < 0 ||
        card.block >= static_cast<int>(num_blocks)) {
      continue;
    }
    feedback[static_cast<size_t>(card.block)][card.se] =
        static_cast<int64_t>(std::llround(rows / completion));
    ++*seeded;
  }
  ETLOPT_LOG(Info) << "seeding selection cost model with " << *seeded
                   << " SE size(s) salvaged from partial run '" << last.run_id
                   << "' (completion " << last.completion << ")";
  return feedback;
}

// The selection cost model's options: the configured ones, with the
// per-statistic memory charge capped by the tap budget and the CPU charge
// calibrated when the options say so.
CostModelOptions SelectionCostOptions(const PipelineOptions& options) {
  CostModelOptions cost_options = options.cost;
  if (options.tap_memory_budget_bytes > 0 &&
      cost_options.sketch_memory_cap <= 0) {
    // A sketch bounded by the tap budget replaces an exact collector, so
    // no single distinct/histogram statistic can cost the selector more
    // than the budget (cost units are integers, 8 bytes each).
    cost_options.sketch_memory_cap =
        std::max<int64_t>(1, options.tap_memory_budget_bytes / 8);
  }
  if (!options.calibration.empty() && cost_options.cpu_ns_per_row <= 0.0) {
    // Calibrated tap cost: the CPU charge per observed tuple becomes
    // measured nanoseconds instead of the paper's abstract unit cost.
    cost_options.cpu_ns_per_row = options.calibration.NsPerRow("tap");
  }
  return cost_options;
}

// The exact key of a workflow's analysis: its text, which determines the
// blocks, plan spaces and CSS catalogs, followed by the node names, which
// the text leaves out but the block labels and the adopted plan carry.
// Empty when the workflow cannot be written (an unregistered transform).
std::string WorkflowKey(const Workflow& workflow) {
  Status status;
  std::string key = WriteWorkflowText(workflow, &status);
  if (!status.ok()) return "";
  for (const WorkflowNode& node : workflow.nodes()) {
    key += '\0';
    key += node.name;
  }
  return key;
}

// What the selection reads besides the block structures and the Pipeline's
// fixed options: the key of a reused selection, compared exactly.
struct SelectionInputs {
  std::vector<StatKey> force_observe;  // options' plus the last violations
  std::vector<CardMap> partial_feedback;
  std::vector<CardMap> size_feedback;

  bool operator==(const SelectionInputs&) const = default;
};

// A run's counters by metric name. The names are the ledger's `metrics`
// keys and the --metrics-out series; a per-source count carries its source
// as a {source="..."} label suffix.
using Counters = std::map<std::string, int64_t>;

void AddAnalysisCounters(const Analysis& analysis, Counters* counters) {
  Counters& c = *counters;
  for (const auto& ba : analysis.blocks) {
    c["etlopt.core.plan_space.ses"] += ba->plan_space.num_ses();
    c["etlopt.core.css.generated"] += ba->catalog.num_css();
    c["etlopt.opt.selections"] += 1;
    c["etlopt.opt.greedy.iterations"] += ba->selection.greedy_iterations;
    c["etlopt.lp.solves"] += ba->selection.lp_solves;
    c["etlopt.lp.simplex.pivots"] += ba->selection.simplex_pivots;
  }
  c["etlopt.core.partial_feedback_keys"] += analysis.partial_feedback_keys;
  c["etlopt.core.analysis_reused"] += analysis.analysis_reused ? 1 : 0;
  c["etlopt.opt.selection_reused"] += analysis.selection_reused ? 1 : 0;
}

void AddCycleCounters(const CycleOutcome& cycle, Counters* counters) {
  Counters& c = *counters;
  AddAnalysisCounters(*cycle.analysis, counters);
  c["etlopt.core.cycles"] = 1;
  const ExecutionResult& exec = cycle.run.exec;
  c["etlopt.engine.executions"] = 1;
  c["etlopt.engine.ops_executed"] = exec.nodes_completed;
  c["etlopt.engine.rows_processed"] = exec.rows_processed;
  c["etlopt.engine.bytes_processed"] = exec.bytes_processed;
  c["etlopt.engine.aborts"] = exec.aborted() ? 1 : 0;
  const auto labelled = [](const char* name, const std::string& source) {
    return std::string(name) + "{source=\"" + source + "\"}";
  };
  for (const auto& [source, retries] : exec.source_retries) {
    c["etlopt.engine.source.retries"] += retries;
    c[labelled("etlopt.engine.source.retries", source)] = retries;
  }
  for (const auto& [source, table] : exec.quarantined) {
    c["etlopt.engine.source.quarantined"] += table.num_rows();
    c[labelled("etlopt.engine.source.quarantined", source)] = table.num_rows();
  }
  c["etlopt.engine.source.timeouts"] = exec.source_timeouts;
  c["etlopt.engine.source.io_errors"] = exec.source_io_errors;
  c["etlopt.guard.monitor_violations"] =
      static_cast<int64_t>(exec.monitor_violations.size());
  c["etlopt.parallel.merge_ns"] = exec.merge_ns;

  for (const auto& ba : cycle.analysis->blocks) {
    c["etlopt.core.stats_observed"] +=
        static_cast<int64_t>(ba->selection.observed.size());
  }
  const TapReport& taps = cycle.run.tap_report;
  c["etlopt.tap.exact"] = taps.exact_taps;
  c["etlopt.tap.sketch"] = taps.sketch_taps;
  c["etlopt.tap.bytes"] = taps.tap_bytes;
  c["etlopt.tap.exact_bytes_estimate"] = taps.exact_bytes_estimate;
  c["etlopt.tap.downgraded"] = taps.downgraded_taps;
  c["etlopt.tap.disabled"] = taps.disabled_taps;
  c["etlopt.tap.salvage_skipped"] = taps.salvage_skipped;
  c["etlopt.obs.checkpoint.flushes"] = cycle.run.checkpoint_flushes;

  // An aborted run's cards are salvage, not estimates.
  if (!cycle.aborted()) {
    for (const CardMap& cards : cycle.opt.block_cards) {
      c["etlopt.core.cards_estimated"] += static_cast<int64_t>(cards.size());
    }
  }
  c["etlopt.estimator.clamped"] = cycle.opt.clamped_values;
  c["etlopt.obs.drift.checked_keys"] =
      static_cast<int64_t>(cycle.opt.drift.findings.size());
  c["etlopt.obs.drift.flagged_keys"] =
      static_cast<int64_t>(cycle.opt.drift.reinstrument.size());
  // Optimize evaluates the adoption gate on every completed run unless the
  // guard is off.
  const obs::GuardRecord& guard = cycle.opt.guard;
  if (guard.mode != obs::GuardModeName(obs::GuardMode::kOff) &&
      !cycle.aborted()) {
    c["etlopt.guard.evaluations"] = 1;
    c["etlopt.guard.flagged"] = guard.reasons.empty() ? 0 : 1;
    c["etlopt.guard.fallbacks"] = guard.fell_back ? 1 : 0;
  }
}

std::vector<std::pair<std::string, int64_t>> NonZero(
    const Counters& counters) {
  std::vector<std::pair<std::string, int64_t>> out;
  for (const auto& [name, value] : counters) {
    if (value != 0) out.emplace_back(name, value);
  }
  return out;
}

}  // namespace

struct Pipeline::AnalysisCache {
  std::string workflow_key;  // WorkflowKey of the analyzed workflow
  std::shared_ptr<const WorkflowAnalysis> shared;
  SelectionInputs inputs;
  std::vector<SelectionProblem> problems;  // per block
  std::vector<SelectionResult> selections;
};

std::vector<std::pair<std::string, int64_t>> AnalysisCounters(
    const Analysis& analysis) {
  Counters counters;
  AddAnalysisCounters(analysis, &counters);
  return NonZero(counters);
}

std::vector<std::pair<std::string, int64_t>> SortedCounts(
    const std::unordered_map<std::string, int64_t>& counts) {
  std::vector<std::pair<std::string, int64_t>> sorted(counts.begin(),
                                                      counts.end());
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

Pipeline::Pipeline(PipelineOptions options) : options_(std::move(options)) {
  if (options_.tap_memory_budget_bytes <= 0) {
    options_.tap_memory_budget_bytes =
        TapOptions::FromEnv().memory_budget_bytes;
  }
  if (options_.checkpoint_every_rows <= 0) {
    options_.checkpoint_every_rows =
        EnvInt64("ETLOPT_CHECKPOINT_EVERY", 1,
                 std::numeric_limits<int64_t>::max(), 100000);
  }
  if (options_.calibration.empty()) {
    options_.calibration = obs::CostCalibration::FromEnv();
  }
  if (options_.num_threads <= 0) {
    options_.num_threads = static_cast<int>(EnvInt64(
        "ETLOPT_THREADS", 1, std::numeric_limits<int>::max(), 1));
  }
  if (options_.num_threads > 1) {
    pool_ = std::make_unique<ThreadPool>(options_.num_threads);
  }
}

Result<std::unique_ptr<Analysis>> Pipeline::Analyze(
    const Workflow& workflow, const std::vector<CardMap>* size_feedback,
    const std::vector<obs::RunRecord>* history) const {
  obs::ScopedSpan span("pipeline.analyze");
  span.Arg("workflow", workflow.name());
  const std::string key = WorkflowKey(workflow);
  std::shared_ptr<const AnalysisCache> cached;
  if (!key.empty()) {
    std::lock_guard<std::mutex> lock(cache_mu_);
    if (cache_ != nullptr && cache_->workflow_key == key) cached = cache_;
  }
  auto analysis = std::make_unique<Analysis>();
  // Set only when the block structures are built here rather than reused.
  std::shared_ptr<WorkflowAnalysis> built;
  std::shared_ptr<const WorkflowAnalysis> shared;
  if (cached != nullptr) {
    shared = cached->shared;
    analysis->analysis_reused = true;
  } else {
    built = std::make_shared<WorkflowAnalysis>();
    built->workflow = std::make_unique<Workflow>(workflow);
    for (const Block& block : PartitionBlocks(*built->workflow)) {
      built->blocks.push_back(std::make_unique<BlockStructure>());
      built->blocks.back()->block = block;
    }
    shared = built;
  }
  analysis->workflow =
      std::shared_ptr<const Workflow>(shared, shared->workflow.get());
  span.Arg("blocks", static_cast<int64_t>(shared->blocks.size()));

  // Ledger history as selection inputs: the SEs whose estimates the last
  // run's monitors caught out are re-observed directly, and a partial last
  // record's salvage seeds the cost model so selection is not cold-started.
  SelectionInputs inputs;
  inputs.force_observe = options_.force_observe;
  if (history != nullptr && !history->empty()) {
    for (const obs::GuardRecord::Monitor& m :
         history->back().guard.violations) {
      inputs.force_observe.push_back(StatKey::Card(m.se));
    }
  }
  inputs.partial_feedback = PartialRunFeedback(
      history, shared->blocks.size(), &analysis->partial_feedback_keys);
  if (size_feedback != nullptr) inputs.size_feedback = *size_feedback;
  analysis->selection_reused = cached != nullptr && cached->inputs == inputs;

  for (size_t b = 0; b < shared->blocks.size(); ++b) {
    const BlockStructure& structure = *shared->blocks[b];
    const int64_t block_id = structure.block.id;
    // Filled in place when built here; read-only when reused.
    BlockStructure* fresh =
        built != nullptr ? built->blocks[b].get() : nullptr;
    if (fresh != nullptr) {
      ETLOPT_ASSIGN_OR_RETURN(
          fresh->ctx, BlockContext::Build(built->workflow.get(), fresh->block));
    }
    {
      obs::ScopedSpan ps_span("pipeline.plan_space");
      ps_span.Arg("block", block_id);
      if (fresh != nullptr) {
        ETLOPT_ASSIGN_OR_RETURN(
            fresh->plan_space,
            PlanSpace::Build(fresh->ctx, options_.plan_space));
      } else {
        ps_span.Arg("reused", int64_t{1});
      }
      ps_span.Arg("ses", static_cast<int64_t>(structure.plan_space.num_ses()));
      ps_span.Arg("plans",
                  static_cast<int64_t>(structure.plan_space.num_plans()));
    }
    {
      obs::ScopedSpan css_span("pipeline.css_generation");
      css_span.Arg("block", block_id);
      if (fresh != nullptr) {
        fresh->catalog =
            GenerateCss(fresh->ctx, fresh->plan_space, options_.css);
      } else {
        css_span.Arg("reused", int64_t{1});
      }
      css_span.Arg("stats",
                   static_cast<int64_t>(structure.catalog.num_stats()));
      css_span.Arg("css", static_cast<int64_t>(structure.catalog.num_css()));
    }

    auto ba = std::make_unique<BlockAnalysis>(structure);
    if (analysis->selection_reused) {
      ba->problem = cached->problems[b];
      ba->selection = cached->selections[b];
    } else {
      CostModel cost_model(&shared->workflow->catalog(),
                           SelectionCostOptions(options_));
      for (const std::vector<CardMap>* feedback :
           {&inputs.partial_feedback, &inputs.size_feedback}) {
        if (b >= feedback->size()) continue;
        for (const auto& [se, rows] : (*feedback)[b]) {
          cost_model.SetSeSize(se, rows);
        }
      }
      SelectionOptions sel_options;
      sel_options.free_source_stats = options_.free_source_stats;
      sel_options.force_observe = inputs.force_observe;
      ba->problem = BuildSelectionProblem(ba->ctx, ba->plan_space, ba->catalog,
                                          cost_model, sel_options);
      ba->problem.catalog = &ba->catalog;  // the shared, stable catalog
    }
    {
      obs::ScopedSpan sel_span("pipeline.selection");
      sel_span.Arg("block", block_id);
      if (analysis->selection_reused) {
        sel_span.Arg("reused", int64_t{1});
      } else {
        switch (options_.selector) {
          case SelectorKind::kGreedy:
            ba->selection = SelectGreedy(ba->problem);
            break;
          case SelectorKind::kIlp:
            ba->selection = SelectIlp(ba->problem, options_.ilp);
            break;
        }
      }
      sel_span.Arg("method", ba->selection.method);
      sel_span.Arg("observed",
                   static_cast<int64_t>(ba->selection.observed.size()));
      sel_span.Arg("cost", ba->selection.total_cost);
    }
    if (!ba->selection.feasible) {
      return Status::Internal("statistics selection infeasible for block " +
                              std::to_string(block_id));
    }
    analysis->blocks.push_back(std::move(ba));
  }

  // Remember what was built for the next call; an Analysis handed out
  // earlier keeps its own reference to the structures it reads.
  if (!key.empty() && !analysis->selection_reused) {
    auto entry = std::make_shared<AnalysisCache>();
    entry->workflow_key = key;
    entry->shared = std::move(shared);
    entry->inputs = std::move(inputs);
    for (const auto& ba : analysis->blocks) {
      entry->problems.push_back(ba->problem);
      entry->selections.push_back(ba->selection);
    }
    std::lock_guard<std::mutex> lock(cache_mu_);
    cache_ = std::move(entry);
  }
  return analysis;
}

Result<RunOutcome> Pipeline::RunAndObserve(
    const Analysis& analysis, const SourceMap& sources,
    const std::vector<obs::RunRecord>* history) const {
  obs::ScopedSpan span("pipeline.run_and_observe");
  RunOutcome outcome;
  // Arm the guard's runtime estimate monitors from the last clean history
  // record: its per-SE estimates become expected cardinalities at the
  // designed plan's pipeline points. Off-mode runs (and first runs, which
  // have no history) execute with an empty monitor map — the seed path.
  ExecutorOptions exec_options = options_.executor;
  // The taps (and salvage after an abort) read every pipeline point, and
  // of the join reject tables only those the selected reject-join taps
  // read.
  exec_options.retain_node_outputs = true;
  std::vector<std::vector<StatKey>> block_keys;
  block_keys.reserve(analysis.blocks.size());
  for (const auto& ba : analysis.blocks) {
    block_keys.push_back(ba->selection.ObservedKeys(ba->catalog));
    AddRejectTableDemand(ba->ctx, block_keys.back(),
                         &exec_options.reject_sides);
  }
  if (options_.guard.mode != obs::GuardMode::kOff) {
    const obs::RunRecord* last_clean = LastCleanRecord(history);
    if (last_clean != nullptr) {
      exec_options.monitors = BuildPlanMonitors(analysis, *last_clean);
      exec_options.monitor_qerror_bound = options_.guard.monitor_qerror;
      exec_options.monitor_abort =
          options_.guard.mode == obs::GuardMode::kStrict;
    }
  }
  if (options_.num_threads > 1) {
    parallel::ParallelOptions popts;
    popts.num_threads = options_.num_threads;
    popts.executor = exec_options;
    parallel::ParallelExecutor pexec(analysis.workflow.get(), popts);
    ETLOPT_ASSIGN_OR_RETURN(parallel::ParallelResult pres,
                            pexec.Execute(sources, pool_.get()));
    outcome.exec = std::move(pres.exec);
  } else {
    Executor executor(analysis.workflow.get(), exec_options);
    ETLOPT_ASSIGN_OR_RETURN(outcome.exec, executor.Execute(sources));
  }

  obs::ScopedSpan observe_span("pipeline.observation");
  // After an abort, the taps salvage (ObserveStatistics skips keys whose
  // pipeline point fell past it): a dead run still pays back part of its
  // instrumentation budget.
  TapOptions taps;
  taps.memory_budget_bytes = options_.tap_memory_budget_bytes;

  std::unique_ptr<obs::CheckpointWriter> writer;
  obs::TapCheckpoint checkpoint;
  if (!options_.checkpoint_path.empty()) {
    writer = std::make_unique<obs::CheckpointWriter>(options_.checkpoint_path);
    checkpoint.fingerprint = obs::FingerprintWorkflow(*analysis.workflow);
    checkpoint.workflow = analysis.workflow->name();
    checkpoint.source_rows_read = SortedCounts(outcome.exec.source_rows_read);
    checkpoint.partition_rows = outcome.exec.partition_rows;
    taps.checkpoint_every_rows = options_.checkpoint_every_rows;
  }

  int64_t observed = 0;
  for (size_t b = 0; b < analysis.blocks.size(); ++b) {
    const BlockAnalysis* ba = analysis.blocks[b].get();
    const std::vector<StatKey>& keys = block_keys[b];
    observed += static_cast<int64_t>(keys.size());
    if (writer != nullptr) {
      taps.on_checkpoint = [&](const StatStore& in_progress) {
        obs::TapCheckpoint snapshot = checkpoint;
        snapshot.block_stats = outcome.block_stats;  // completed blocks
        snapshot.block_stats.push_back(in_progress);
        snapshot.rows_tapped = outcome.tap_report.rows_tapped;
        const Status flushed = writer->Flush(snapshot);
        if (!flushed.ok()) {
          ETLOPT_LOG(Warning) << "tap checkpoint flush failed: "
                              << flushed.ToString();
        }
      };
    }
    ETLOPT_ASSIGN_OR_RETURN(
        StatStore store, ObserveStatistics(ba->ctx, outcome.exec, keys, taps,
                                           &outcome.tap_report));
    outcome.block_stats.push_back(std::move(store));
  }
  if (writer != nullptr) {
    if (outcome.exec.aborted()) {
      // Leave a final partial snapshot behind: everything the aborted run
      // managed to observe, plus its rows-read watermarks.
      obs::TapCheckpoint snapshot = checkpoint;
      snapshot.partial = true;
      snapshot.block_stats = outcome.block_stats;
      snapshot.rows_tapped = outcome.tap_report.rows_tapped;
      const Status flushed = writer->Flush(snapshot);
      if (!flushed.ok()) {
        ETLOPT_LOG(Warning) << "final tap checkpoint flush failed: "
                            << flushed.ToString();
      }
    } else {
      // Clean completion: the ledger record supersedes the sidecar.
      (void)writer->Discard();
    }
    outcome.checkpoint_flushes = writer->flushes();
  }
  observe_span.Arg("stats_observed", observed);
  observe_span.Arg("sketch_taps",
                   static_cast<int64_t>(outcome.tap_report.sketch_taps));
  observe_span.Arg("tap_bytes", outcome.tap_report.tap_bytes);
  if (outcome.tap_report.salvage_skipped > 0) {
    observe_span.Arg("salvage_skipped",
                     static_cast<int64_t>(outcome.tap_report.salvage_skipped));
  }
  if (!outcome.exec.profile.empty()) {
    // Attribute the measured instrumentation time to the profile, then
    // annotate every operator with the calibrated prediction that was live
    // for this run (pessimistic defaults on an uncalibrated run — that gap
    // is exactly what the record's cost q-error measures).
    outcome.exec.profile.tap_ns = outcome.tap_report.observe_ns;
    obs::AnnotatePredictions(options_.calibration, &outcome.exec.profile);
    obs::EmitProfileCounters(outcome.exec.profile);
  }
  return outcome;
}

Result<OptimizeOutcome> Pipeline::Optimize(
    const Analysis& analysis, const RunOutcome& run,
    const std::vector<obs::RunRecord>* history) const {
  obs::ScopedSpan span("pipeline.optimize");
  OptimizeOutcome outcome;
  std::vector<OptimizedPlan> plans(analysis.blocks.size());
  std::vector<PlanRewriter::BlockPlan> rewrites;
  const bool aborted = run.aborted();
  const bool have_history = history != nullptr && !history->empty();

  // Runtime monitor violations land in the guard section; the plan whose
  // estimates they condemn is the last clean record's proposal.
  outcome.guard.mode = obs::GuardModeName(options_.guard.mode);
  for (const MonitorViolation& v : run.exec.monitor_violations) {
    obs::GuardRecord::Monitor m;
    m.block = v.block;
    m.se = v.se;
    m.node = static_cast<int64_t>(v.node);
    m.expected = v.expected;
    m.actual = v.actual;
    m.qerror = v.qerror;
    outcome.guard.violations.push_back(m);
  }
  if (!outcome.guard.violations.empty()) {
    outcome.guard.plan_unsafe = true;
    if (const obs::RunRecord* last_clean = LastCleanRecord(history)) {
      outcome.guard.unsafe_signature = last_clean->plan_signature;
    }
  }

  // Drift: this run's observations and on-path actuals against the ledger
  // history. Guard evidence, part 1: estimates derived from a drift-flagged
  // key are distrusted.
  const bool guard_on = options_.guard.mode != obs::GuardMode::kOff;
  std::vector<std::vector<StatKey>> distrusted(analysis.blocks.size());
  if (have_history) {
    obs::RunRecord current;
    current.partial = aborted;
    current.block_stats = run.block_stats;
    for (size_t b = 0; b < analysis.blocks.size(); ++b) {
      for (const auto& [se, node] : analysis.blocks[b]->ctx.on_path()) {
        const auto out_it = run.exec.node_outputs.find(node);
        if (out_it == run.exec.node_outputs.end()) continue;
        obs::RunRecord::SeCard card;
        card.block = static_cast<int>(b);
        card.se = se;
        card.actual = static_cast<double>(out_it->second.num_rows());
        current.cards.push_back(card);
      }
    }
    outcome.drift = obs::DriftDetector().Compare(*history, current);
    for (size_t b = 0; b < analysis.blocks.size(); ++b) {
      distrusted[b] = outcome.drift.ReinstrumentKeys(static_cast<int>(b));
    }
  }
  std::vector<obs::SeEvidence> evidence;

  for (size_t i = 0; i < analysis.blocks.size(); ++i) {
    const BlockAnalysis& ba = *analysis.blocks[i];
    Estimator estimator(&ba.ctx, &ba.catalog);
    Status derived;
    {
      obs::ScopedSpan est_span("pipeline.estimation");
      est_span.Arg("block", static_cast<int64_t>(ba.block.id));
      derived = estimator.Derive(run.block_stats[i],
                                 CardKeys(ba.plan_space.subexpressions()));
    }
    outcome.clamped_values += estimator.clamped_values();
    // A degraded run (disabled taps, or an abort's salvaged prefix) leaves
    // holes in the observed statistics: estimate what the derivation
    // closure still reaches, and fall back to the designed join order for
    // any block whose SE coverage came out incomplete. Clean runs keep the
    // strict all-or-error contract.
    const bool degraded = aborted || run.tap_report.disabled_taps > 0;
    bool complete = true;
    CardMap cards;
    if (!derived.ok()) {
      // A salvaged prefix may not derive at all; its on-path actuals below
      // are still worth recording.
      if (!aborted) return derived;
      complete = false;
    } else if (degraded) {
      for (RelMask se : ba.plan_space.subexpressions()) {
        const Result<int64_t> card = estimator.Cardinality(se);
        if (card.ok()) {
          cards[se] = *card;
        } else {
          complete = false;
        }
      }
    } else {
      ETLOPT_ASSIGN_OR_RETURN(
          cards, estimator.AllCardinalities(ba.plan_space.subexpressions()));
    }
    if (aborted) {
      // The completed prefix's outputs add on-path actuals for free. These
      // cards become the partial record's payload, which seeds the next
      // run's cost model.
      for (const auto& [se, node] : ba.ctx.on_path()) {
        const auto out_it = run.exec.node_outputs.find(node);
        if (out_it != run.exec.node_outputs.end()) {
          cards[se] = out_it->second.num_rows();
        }
      }
      outcome.block_cards.push_back(std::move(cards));
      continue;
    }
    if (guard_on) {
      // Guard evidence, part 2: per-SE confidence from provenance — exact
      // derivations score 1.0, sketch error bounds and drift-flagged
      // feeding statistics degrade it, and any sanitizer-clamped value in
      // the block marks its estimates as invariant-violating.
      for (const auto& [se, rows] : cards) {
        (void)rows;
        obs::SeEvidence ev;
        ev.block = static_cast<int>(i);
        ev.se = se;
        ev.confidence = estimator.CardinalityConfidence(
            se, distrusted[i], options_.guard.drift_penalty);
        if (estimator.clamped_values() > 0) {
          ev.confidence *= options_.guard.drift_penalty;
        }
        evidence.push_back(ev);
      }
    }
    if (complete) {
      obs::ScopedSpan join_span("pipeline.join_optimization");
      join_span.Arg("block", static_cast<int64_t>(ba.block.id));
      ETLOPT_ASSIGN_OR_RETURN(plans[i],
                              OptimizeJoins(ba.ctx, ba.plan_space, cards,
                                            options_.optimizer_cost));
      outcome.initial_cost += plans[i].initial_cost;
      outcome.optimized_cost += plans[i].cost;
      if (ba.block.joins.size() >= 2) {
        rewrites.push_back(
            PlanRewriter::BlockPlan{&ba.block, &plans[i]});
      }
    } else {
      ETLOPT_LOG(Warning)
          << "block " << ba.block.id << ": statistics cover only "
          << cards.size() << " of " << ba.plan_space.subexpressions().size()
          << " SE(s) after degraded instrumentation; keeping the designed "
             "join order";
    }
    outcome.block_cards.push_back(std::move(cards));
  }
  if (aborted) {
    // The salvaged statistics are a prefix, not a complete selection — no
    // basis for a trustworthy re-optimization. Keep the designed plan; the
    // caller records a partial=true ledger line.
    outcome.optimized = *analysis.workflow;
    ETLOPT_LOG(Warning) << "run aborted ("
                        << AbortKindName(run.exec.abort_kind)
                        << "): " << run.exec.abort_reason
                        << "; keeping the designed plan";
    return outcome;
  }
  {
    obs::ScopedSpan rewrite_span("pipeline.rewrite");
    rewrite_span.Arg("rewritten_blocks", static_cast<int64_t>(rewrites.size()));
    ETLOPT_ASSIGN_OR_RETURN(outcome.optimized,
                            PlanRewriter::Apply(*analysis.workflow, rewrites));
  }

  // ---- Adoption gate: may the proposal replace the designed plan? ----
  if (guard_on) {
    obs::GuardInputs inputs;
    const std::string designed_sig =
        obs::FingerprintWorkflow(*analysis.workflow);
    inputs.proposed_signature = obs::FingerprintWorkflow(outcome.optimized);
    inputs.plan_changed = inputs.proposed_signature != designed_sig;
    inputs.initial_cost = outcome.initial_cost;
    inputs.optimized_cost = outcome.optimized_cost;
    inputs.evidence = std::move(evidence);
    inputs.calibration_coverage =
        obs::CalibrationCoverage(options_.calibration, run.exec.profile);
    if (have_history) {
      inputs.partial_history = history->back().partial;
      inputs.unsafe_signatures = UnsafeSignatures(*history);
    }
    const obs::GuardVerdict verdict =
        obs::EvaluateAdoption(options_.guard, inputs);
    outcome.guard.adopted = verdict.adopt;
    outcome.guard.evidence = verdict.evidence_score;
    outcome.guard.margin = verdict.margin;
    outcome.guard.reasons = verdict.reasons;
    if (!verdict.adopt) {
      outcome.guard.fell_back = true;
      outcome.guard.proposed_signature = inputs.proposed_signature;
      outcome.optimized = *analysis.workflow;
      outcome.optimized_cost = outcome.initial_cost;
      ETLOPT_LOG(Warning)
          << "plan-regression guard rejected the re-optimized plan "
          << inputs.proposed_signature << " (evidence "
          << verdict.evidence_score << ", margin " << verdict.margin
          << "); keeping the designed plan";
    }
  }
  return outcome;
}

Result<CycleOutcome> Pipeline::RunCycle(
    const Workflow& workflow, const SourceMap& sources,
    const std::vector<obs::RunRecord>* history) const {
  obs::ScopedSpan span("pipeline.cycle");
  span.Arg("workflow", workflow.name());
  CycleOutcome cycle;
  Timer timer;
  ETLOPT_ASSIGN_OR_RETURN(cycle.analysis, Analyze(workflow, nullptr, history));
  cycle.analyze_ms = timer.ElapsedMillis();
  timer.Restart();
  ETLOPT_ASSIGN_OR_RETURN(cycle.run,
                          RunAndObserve(*cycle.analysis, sources, history));
  cycle.execute_ms = timer.ElapsedMillis();
  timer.Restart();
  ETLOPT_ASSIGN_OR_RETURN(cycle.opt,
                          Optimize(*cycle.analysis, cycle.run, history));
  cycle.optimize_ms = timer.ElapsedMillis();
  return cycle;
}

obs::RunRecord MakeRunRecord(const CycleOutcome& cycle, std::string run_id,
                             const std::vector<CardMap>* truth) {
  const Analysis& analysis = *cycle.analysis;
  obs::RunRecord record;
  record.run_id = std::move(run_id);
  record.fingerprint = obs::FingerprintWorkflow(*analysis.workflow);
  record.workflow = analysis.workflow->name();
  record.timestamp_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
  if (!analysis.blocks.empty()) {
    record.selector = analysis.blocks[0]->selection.method;
  }
  {
    Status status;
    const std::string plan_text =
        WriteWorkflowText(cycle.opt.optimized, &status);
    record.plan_signature = obs::FingerprintText(
        status.ok() ? plan_text : cycle.opt.optimized.ToString());
  }
  record.initial_cost = cycle.opt.initial_cost;
  record.optimized_cost = cycle.opt.optimized_cost;
  record.analyze_ms = cycle.analyze_ms;
  record.execute_ms = cycle.execute_ms;
  record.optimize_ms = cycle.optimize_ms;

  for (size_t b = 0; b < cycle.opt.block_cards.size(); ++b) {
    // Deterministic record order: by SE mask within a block.
    std::vector<RelMask> ses;
    ses.reserve(cycle.opt.block_cards[b].size());
    for (const auto& [se, rows] : cycle.opt.block_cards[b]) {
      (void)rows;
      ses.push_back(se);
    }
    std::sort(ses.begin(), ses.end());
    for (RelMask se : ses) {
      obs::RunRecord::SeCard card;
      card.block = static_cast<int>(b);
      card.se = se;
      card.estimated =
          static_cast<double>(cycle.opt.block_cards[b].at(se));
      if (truth != nullptr && b < truth->size()) {
        const auto it = (*truth)[b].find(se);
        if (it != (*truth)[b].end()) {
          card.actual = static_cast<double>(it->second);
        }
      }
      record.cards.push_back(card);
    }
  }
  record.block_stats = cycle.run.block_stats;
  Counters counters;
  AddCycleCounters(cycle, &counters);
  record.metrics = NonZero(counters);

  const ExecutionResult& exec = cycle.run.exec;
  record.partial = exec.aborted();
  if (record.partial) {
    record.abort_reason = std::string(AbortKindName(exec.abort_kind)) + ": " +
                          exec.abort_reason;
    record.completion = exec.completion_fraction();
  }
  record.source_rows_read = SortedCounts(exec.source_rows_read);
  record.source_retries = SortedCounts(exec.source_retries);
  record.quarantined_rows = exec.quarantined_rows();
  record.num_threads = std::max(1, exec.num_workers);
  record.partitions = exec.partitions_total;
  record.partition_skew = exec.partition_skew;
  record.peak_rss_bytes = obs::PeakRssBytes();
  record.profile = exec.profile;
  record.build = obs::CurrentBuildInfo();
  record.guard = cycle.opt.guard;
  return record;
}

}  // namespace etlopt
