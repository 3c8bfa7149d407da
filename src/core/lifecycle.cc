#include "core/lifecycle.h"

#include "obs/trace.h"

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

// Records a plain count of `se` as an observed Card statistic, which the
// estimator takes as given.
void StoreCount(StatStore* store, RelMask se, const Table& output) {
  store->Set(StatKey::Card(se), StatValue::Count(output.num_rows()));
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
  const Pipeline pipeline(options);

  // Steps 1-4, then Section 6.1: each block re-selects under the budget,
  // and the first run observes only the affordable statistics.
  ETLOPT_ASSIGN_OR_RETURN(std::unique_ptr<Analysis> analysis,
                          pipeline.Analyze(workflow, nullptr, history));
  result.partial_feedback_keys = analysis->partial_feedback_keys;
  for (const auto& ba : analysis->blocks) {
    result.selections.push_back(SelectWithBudget(ba->problem, ba->ctx,
                                                 ba->plan_space,
                                                 memory_budget));
    ba->selection = result.selections.back().first_run;
  }

  // Run 1: the designed plan, instrumented with the affordable set.
  ETLOPT_ASSIGN_OR_RETURN(RunOutcome run,
                          pipeline.RunAndObserve(*analysis, sources, history));
  result.executions = 1;
  result.block_stats = run.block_stats;

  // Deferred SEs are counted as trivial CSS counters: those the first run
  // put on-path from its outputs, the rest in re-ordered runs whose plans
  // put them on-path. An aborted first run skips the re-ordered runs: they
  // would hit the same fault, and the salvage path wants the partial record
  // on disk as fast as possible.
  {
    obs::ScopedSpan reorder_span("lifecycle.reorder_runs");
    ExecutorOptions rerun_options = pipeline.options().executor;
    rerun_options.retain_node_outputs = true;  // covered SEs are read below
    for (size_t b = 0; b < analysis->blocks.size() && !run.aborted(); ++b) {
      const BlockAnalysis& ba = *analysis->blocks[b];
      const BudgetedSelection& bsel = result.selections[b];
      StatStore& store = run.block_stats[b];
      for (RelMask se : bsel.deferred) {
        const auto node = ba.ctx.on_path().find(se);
        if (node == ba.ctx.on_path().end()) continue;
        const auto out = run.exec.node_outputs.find(node->second);
        if (out != run.exec.node_outputs.end()) {
          StoreCount(&store, se, out->second);
        }
      }
      const ExecCoverResult& cover = bsel.reorder_plan;
      for (size_t r = 0; r < cover.per_run_tree.size(); ++r) {
        ETLOPT_ASSIGN_OR_RETURN(
            const OptimizedPlan plan,
            PlanFromCoverTree(ba.ctx, cover.per_run_tree[r]));
        std::vector<PlanRewriter::BlockPlan> bp{{&ba.block, &plan}};
        std::vector<std::unordered_map<RelMask, NodeId>> se_nodes;
        ETLOPT_ASSIGN_OR_RETURN(
            const Workflow reordered,
            PlanRewriter::Apply(*analysis->workflow, bp, &se_nodes));
        Executor rerun(&reordered, rerun_options);
        ETLOPT_ASSIGN_OR_RETURN(const ExecutionResult exec,
                                rerun.Execute(sources));
        ++result.executions;
        if (exec.aborted()) {
          // The re-ordered run's abort ends the lifecycle through the same
          // salvage contract: Optimize keeps the designed plan and records
          // every SE cardinality the counts so far reach.
          run.exec.abort_kind = exec.abort_kind;
          run.exec.abort_reason = exec.abort_reason;
          break;
        }
        for (RelMask se : cover.per_run_covered[r]) {
          const auto it = se_nodes[0].find(se);
          if (it == se_nodes[0].end()) {
            return Status::Internal("covered SE missing from rewritten plan");
          }
          StoreCount(&store, se, exec.node_outputs.at(it->second));
        }
      }
    }
  }

  // Step 7 from the now-complete statistics.
  ETLOPT_ASSIGN_OR_RETURN(OptimizeOutcome opt,
                          pipeline.Optimize(*analysis, run, history));
  result.block_cards = std::move(opt.block_cards);
  result.optimized = std::move(opt.optimized);
  result.initial_cost = opt.initial_cost;
  result.optimized_cost = opt.optimized_cost;
  result.drift = std::move(opt.drift);
  result.guard = std::move(opt.guard);
  result.profile = std::move(run.exec.profile);
  if (run.aborted()) {
    result.abort_kind = run.exec.abort_kind;
    result.abort_reason = run.exec.abort_reason;
    result.completion = run.exec.completion_fraction();
  }
  result.source_rows_read = SortedCounts(run.exec.source_rows_read);
  result.source_retries = SortedCounts(run.exec.source_retries);
  result.quarantined_rows = run.exec.quarantined_rows();

  lifecycle_span.Arg("executions", static_cast<int64_t>(result.executions));
  return result;
}

}  // namespace etlopt
