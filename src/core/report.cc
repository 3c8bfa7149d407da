#include "core/report.h"

#include <sstream>

#include "obs/accuracy.h"
#include "obs/build_info.h"
#include "obs/metrics.h"
#include "opt/exec_cover.h"
#include "util/string_util.h"

namespace etlopt {

std::string FormatBlockReport(const BlockAnalysis& block,
                              const AttrCatalog& catalog,
                              const ReportOptions& options) {
  std::ostringstream out;
  const Block& b = block.block;
  out << "block " << b.id << ": " << b.num_rels() << " input(s), "
      << b.joins.size() << " join(s)\n";
  for (int r = 0; r < b.num_rels(); ++r) {
    const BlockInput& input = b.inputs[static_cast<size_t>(r)];
    out << "  R" << r << " = " << block.ctx.RelLabel(r);
    if (!input.chain.empty()) {
      out << " (+" << input.chain.size() << " chain op"
          << (input.chain.size() == 1 ? "" : "s") << ")";
    }
    out << "\n";
  }
  for (const JoinEdge& e : block.ctx.graph().edges()) {
    out << "  edge R" << e.a << " -- R" << e.b << " on "
        << catalog.name(e.attr);
    if (e.fk_dim >= 0) out << " [fk dim R" << e.fk_dim << "]";
    out << "\n";
  }
  out << "  plan space: " << block.plan_space.num_ses()
      << " sub-expressions, " << block.plan_space.num_plans() << " plans\n";
  out << "  statistics universe: " << block.catalog.num_stats()
      << " statistics, " << block.catalog.num_css() << " CSS\n";

  const SelectionResult& sel = block.selection;
  out << "  selection (" << sel.method << "): "
      << (sel.feasible ? "feasible" : "INFEASIBLE") << ", cost "
      << WithThousands(static_cast<int64_t>(sel.total_cost))
      << " memory units, " << sel.observed.size() << " statistics\n";
  int listed = 0;
  for (const StatKey& key : sel.ObservedKeys(block.catalog)) {
    if (listed++ >= options.max_listed_stats) {
      out << "    ... (" << (sel.observed.size() - listed + 1)
          << " more)\n";
      break;
    }
    out << "    observe " << key.ToString(&catalog) << "\n";
  }

  if (options.include_exec_cover && b.num_rels() >= 3) {
    const ExecCoverResult cover =
        ComputeExecutionCover(block.ctx, block.plan_space);
    out << "  trivial-CSS baseline (pay-as-you-go): >= "
        << cover.formula_lower_bound << " executions by formula, "
        << cover.executions
        << " by greedy cover — this framework needs 1 instrumented run\n";
  }
  return out.str();
}

std::string FormatAnalysisReport(const Analysis& analysis,
                                 const ReportOptions& options) {
  std::ostringstream out;
  const Workflow& wf = *analysis.workflow;
  out << "=== etlopt advisor report: workflow '" << wf.name() << "' ===\n";
  out << wf.num_nodes() << " nodes, " << analysis.blocks.size()
      << " optimizable block(s)\n\n";
  double total_cost = 0.0;
  for (const auto& block : analysis.blocks) {
    out << FormatBlockReport(*block, wf.catalog(), options) << "\n";
    total_cost += block->selection.total_cost;
  }
  out << "total observation cost: "
      << WithThousands(static_cast<int64_t>(total_cost))
      << " memory units\n";
  return out.str();
}

std::string FormatObsSummary() {
  std::ostringstream out;
  out << "=== observability summary ===\n";
  out << "build: " << obs::CurrentBuildInfo().Summary() << "\n";
  const auto& registry = obs::MetricsRegistry::Global();
  const struct {
    const char* label;
    const char* counter;
  } headline[] = {
      {"engine executions", "etlopt.engine.executions"},
      {"operators executed", "etlopt.engine.ops_executed"},
      {"rows processed", "etlopt.engine.rows_processed"},
      {"bytes processed", "etlopt.engine.bytes_processed"},
      {"statistics observed", "etlopt.core.stats_observed"},
      {"exact taps", "etlopt.tap.exact"},
      {"sketch taps", "etlopt.tap.sketch"},
      {"tap memory (bytes)", "etlopt.tap.bytes"},
      {"exact-tap estimate (bytes)", "etlopt.tap.exact_bytes_estimate"},
      {"cardinalities estimated", "etlopt.core.cards_estimated"},
      {"greedy selector iterations", "etlopt.opt.greedy.iterations"},
      {"LP solves", "etlopt.lp.solves"},
      {"simplex pivots", "etlopt.lp.simplex.pivots"},
  };
  for (const auto& [label, counter] : headline) {
    const obs::Counter* c = registry.FindCounter(counter);
    if (c != nullptr && c->Get() != 0) {
      out << "  " << label << ": " << WithThousands(c->Get()) << "\n";
    }
  }
  // Robustness counters: retries/quarantine from the resilient sources,
  // degraded taps, checkpoint flushes, and salvage bookkeeping. All zero on
  // a clean run with no fault spec, so the section only prints when
  // something fired.
  const struct {
    const char* label;
    const char* counter;
  } robustness[] = {
      {"runs aborted", "etlopt.engine.aborts"},
      {"source open retries", "etlopt.engine.source.retries"},
      {"source timeouts", "etlopt.engine.source.timeouts"},
      {"source io errors", "etlopt.engine.source.io_errors"},
      {"rows quarantined", "etlopt.engine.source.quarantined"},
      {"taps downgraded to sketch", "etlopt.tap.downgraded"},
      {"taps disabled", "etlopt.tap.disabled"},
      {"taps skipped in salvage", "etlopt.tap.salvage_skipped"},
      {"checkpoint flushes", "etlopt.obs.checkpoint.flushes"},
      {"ledger lines skipped", "etlopt.obs.ledger.skipped_lines"},
      {"partial-run feedback keys", "etlopt.core.partial_feedback_keys"},
  };
  bool robustness_header = false;
  for (const auto& [label, counter] : robustness) {
    const obs::Counter* c = registry.FindCounter(counter);
    if (c == nullptr || c->Get() == 0) continue;
    if (!robustness_header) {
      out << "  -- robustness --\n";
      robustness_header = true;
    }
    out << "  " << label << ": " << WithThousands(c->Get()) << "\n";
    // Per-source breakdown: the executor also bumps a labeled twin
    // ("<counter>{source=\"name\"}") for retries and quarantined rows.
    const std::string labeled_prefix = std::string(counter) + "{";
    for (const auto& [name, value] : registry.CounterValues()) {
      if (value != 0 && name.rfind(labeled_prefix, 0) == 0) {
        out << "    " << name.substr(labeled_prefix.size() - 1) << ": "
            << WithThousands(value) << "\n";
      }
    }
  }
  // Parallel execution: the partitioned executor publishes worker/partition
  // gauges and merge-time counters. All zero on serial runs, so the section
  // only prints after a --threads=N run took the parallel path.
  const obs::Gauge* par_workers =
      registry.FindGauge("etlopt.parallel.workers");
  if (par_workers != nullptr && par_workers->Get() > 0) {
    out << "  -- parallelism --\n";
    out << "  workers: " << static_cast<int64_t>(par_workers->Get()) << "\n";
    const obs::Gauge* partitions =
        registry.FindGauge("etlopt.parallel.partitions");
    if (partitions != nullptr && partitions->Get() > 0) {
      out << "  partitions: " << static_cast<int64_t>(partitions->Get())
          << "\n";
    }
    const obs::Gauge* skew = registry.FindGauge("etlopt.parallel.skew");
    if (skew != nullptr && skew->Get() > 0) {
      std::ostringstream v;
      v.precision(2);
      v << std::fixed << skew->Get();
      out << "  partition skew (max/mean rows): " << v.str() << "\n";
    }
    const obs::Counter* merge_ns =
        registry.FindCounter("etlopt.parallel.merge_ns");
    if (merge_ns != nullptr && merge_ns->Get() > 0) {
      out << "  output merge time: " << WithThousands(merge_ns->Get())
          << " ns\n";
    }
  }
  // Plan-regression guard: prints once the gate has evaluated at least one
  // adoption decision (any mode but off), so pre-guard output is unchanged.
  const obs::Counter* guard_evals =
      registry.FindCounter("etlopt.guard.evaluations");
  if (guard_evals != nullptr && guard_evals->Get() > 0) {
    out << "  -- guard --\n";
    out << "  adoption evaluations: " << WithThousands(guard_evals->Get())
        << "\n";
    const struct {
      const char* label;
      const char* counter;
    } guard_counters[] = {
        {"verdicts flagged", "etlopt.guard.flagged"},
        {"fallbacks to designed plan", "etlopt.guard.fallbacks"},
        {"estimate-monitor violations", "etlopt.guard.monitor_violations"},
        {"estimator values clamped", "etlopt.estimator.clamped"},
    };
    for (const auto& [label, counter] : guard_counters) {
      const obs::Counter* c = registry.FindCounter(counter);
      if (c != nullptr && c->Get() != 0) {
        out << "  " << label << ": " << WithThousands(c->Get()) << "\n";
      }
    }
    const obs::Gauge* evidence = registry.FindGauge("etlopt.guard.evidence");
    if (evidence != nullptr) {
      std::ostringstream v;
      v.precision(2);
      v << std::fixed << evidence->Get();
      out << "  last evidence score: " << v.str() << "\n";
    }
  }
  // Instrumentation overhead normalized by data volume: how many collector
  // bytes each megabyte flowing through the engine cost.
  const obs::Counter* tap_bytes = registry.FindCounter("etlopt.tap.bytes");
  const obs::Counter* engine_bytes =
      registry.FindCounter("etlopt.engine.bytes_processed");
  if (tap_bytes != nullptr && engine_bytes != nullptr &&
      tap_bytes->Get() > 0 && engine_bytes->Get() > 0) {
    const double per_mb = static_cast<double>(tap_bytes->Get()) /
                          (static_cast<double>(engine_bytes->Get()) /
                           (1024.0 * 1024.0));
    std::ostringstream v;
    v.precision(1);
    v << std::fixed << per_mb;
    out << "  tap overhead: " << v.str() << " bytes per MB processed\n";
  }
  out << obs::AccuracyTracker::Global().FormatTable();
  return out.str();
}

}  // namespace etlopt
