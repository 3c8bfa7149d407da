#include "core/report.h"

#include <cstdio>
#include <map>
#include <sstream>
#include <tuple>
#include <utility>

#include "obs/accuracy.h"
#include "obs/build_info.h"
#include "obs/calibrate.h"
#include "obs/run_report.h"
#include "opt/exec_cover.h"
#include "util/bitmask.h"
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

namespace {

// One summary line: its label and the record counter it shows.
struct CounterLine {
  const char* label;
  const char* counter;
};

std::string Fixed(double value, int precision) {
  std::ostringstream v;
  v.precision(precision);
  v << std::fixed << value;
  return v.str();
}

// Fixed-width q-error quantile table, one row per (op, depth) plus "all".
std::string FormatQErrorTable(const std::vector<QErrorSample>& samples) {
  std::ostringstream out;
  out << "estimator q-error by operator type and join depth:\n";
  if (samples.empty()) {
    out << "  (no ground-truth samples recorded)\n";
    return out.str();
  }
  std::map<std::pair<std::string, int>, std::vector<double>> groups;
  std::vector<double> all;
  for (const QErrorSample& sample : samples) {
    groups[{sample.op, sample.depth}].push_back(sample.qerror);
    all.push_back(sample.qerror);
  }
  char line[160];
  std::snprintf(line, sizeof(line), "  %-8s %5s %7s %8s %8s %8s %8s %8s %8s\n",
                "op", "depth", "count", "mean", "p50", "p90", "p95", "p99",
                "max");
  out << line;
  const auto row = [&](const char* op, const std::string& depth,
                       std::vector<double> values) {
    const obs::QErrorSummary s = obs::SummarizeQErrors(std::move(values));
    std::snprintf(line, sizeof(line),
                  "  %-8s %5s %7lld %8.3f %8.3f %8.3f %8.3f %8.3f %8.3f\n",
                  op, depth.c_str(), static_cast<long long>(s.count), s.mean,
                  s.p50, s.p90, s.p95, s.p99, s.max);
    out << line;
  };
  for (auto& [key, values] : groups) {
    row(key.first.c_str(), std::to_string(key.second), std::move(values));
  }
  row("all", "-", std::move(all));
  return out.str();
}

}  // namespace

std::vector<QErrorSample> RecordQErrorSamples(const obs::RunRecord& record) {
  std::vector<QErrorSample> samples;
  for (const auto& [se, q] : obs::CardQErrors(record)) {
    const int rels = PopCount(se);
    samples.push_back(
        {rels > 1 ? "join" : "chain", rels > 1 ? rels - 1 : 0, q});
  }
  for (const obs::OpProfile& op : record.profile.ops) {
    if (op.pred_ns < 0.0) continue;
    samples.push_back(
        {"cost", 0, obs::QError(op.pred_ns, static_cast<double>(op.self_ns))});
  }
  if (const double plan_q = obs::PlanCostQError(record.profile); plan_q > 0.0) {
    samples.push_back({"plan_cost", 0, plan_q});
  }
  return samples;
}

std::string FormatObsSummary(const obs::RunRecord& record,
                             const std::vector<QErrorSample>& extra) {
  std::ostringstream out;
  out << "=== observability summary ===\n";
  out << "build: " << obs::CurrentBuildInfo().Summary() << "\n";
  // "  <label>: <value>" when the counter is set.
  const auto print = [&](const CounterLine& line) {
    const int64_t value = record.Metric(line.counter);
    if (value != 0) {
      out << "  " << line.label << ": " << WithThousands(value) << "\n";
    }
  };
  const CounterLine headline[] = {
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
  for (const CounterLine& line : headline) print(line);
  // Where the run's time and memory went: the cycle's phases (the analyze
  // command has only the first) and the process's peak RSS.
  std::string phases;
  const char* analyze_note =
      record.Metric("etlopt.core.analysis_reused") != 0 ? " (reused)" : "";
  for (const auto& [name, ms, note] :
       {std::tuple{"analyze", record.analyze_ms, analyze_note},
        std::tuple{"execute", record.execute_ms, ""},
        std::tuple{"optimize", record.optimize_ms, ""}}) {
    if (ms <= 0.0) continue;
    phases += (phases.empty() ? "" : ", ") + std::string(name) + " " +
              Fixed(ms, 1) + " ms" + note;
  }
  if (!phases.empty()) out << "  phases: " << phases << "\n";
  if (record.peak_rss_bytes > 0) {
    out << "  peak RSS: "
        << Fixed(static_cast<double>(record.peak_rss_bytes) / (1 << 20), 1)
        << " MB (process high-water mark)\n";
  }
  // Robustness: retries/quarantine from the resilient sources, degraded
  // taps, checkpoint flushes, and salvage bookkeeping. All zero on a clean
  // run with no fault spec, so the section only prints when something fired.
  const CounterLine robustness[] = {
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
  for (const CounterLine& line : robustness) {
    if (record.Metric(line.counter) == 0) continue;
    if (!robustness_header) {
      out << "  -- robustness --\n";
      robustness_header = true;
    }
    print(line);
    // Per-source breakdown: retries and quarantined rows also carry a
    // labelled twin per source ("<counter>{source=\"name\"}").
    const std::string labelled_prefix = std::string(line.counter) + "{";
    for (const auto& [name, value] : record.metrics) {
      if (value != 0 && name.rfind(labelled_prefix, 0) == 0) {
        out << "    " << name.substr(labelled_prefix.size() - 1) << ": "
            << WithThousands(value) << "\n";
      }
    }
  }
  // Parallel execution: only a run that took the partitioned path has
  // partitions.
  if (record.partitions > 0) {
    out << "  -- parallelism --\n";
    out << "  workers: " << record.num_threads << "\n";
    out << "  partitions: " << record.partitions << "\n";
    if (record.partition_skew > 0.0) {
      out << "  partition skew (max/mean rows): "
          << Fixed(record.partition_skew, 2) << "\n";
    }
    if (const int64_t merge_ns = record.Metric("etlopt.parallel.merge_ns");
        merge_ns > 0) {
      out << "  output merge time: " << WithThousands(merge_ns) << " ns\n";
    }
  }
  // Plan-regression guard: prints once the gate has evaluated the adoption
  // decision (any mode but off, on a completed run).
  if (record.Metric("etlopt.guard.evaluations") > 0) {
    out << "  -- guard --\n";
    print({"adoption evaluations", "etlopt.guard.evaluations"});
    print({"verdicts flagged", "etlopt.guard.flagged"});
    print({"fallbacks to designed plan", "etlopt.guard.fallbacks"});
    print({"estimate-monitor violations", "etlopt.guard.monitor_violations"});
    print({"estimator values clamped", "etlopt.estimator.clamped"});
    out << "  last evidence score: " << Fixed(record.guard.evidence, 2)
        << "\n";
  }
  // Instrumentation overhead normalized by data volume: how many collector
  // bytes each megabyte flowing through the engine cost.
  const int64_t tap_bytes = record.Metric("etlopt.tap.bytes");
  const int64_t engine_bytes = record.Metric("etlopt.engine.bytes_processed");
  if (tap_bytes > 0 && engine_bytes > 0) {
    const double engine_mb =
        static_cast<double>(engine_bytes) / (1024.0 * 1024.0);
    const double per_mb = static_cast<double>(tap_bytes) / engine_mb;
    out << "  tap overhead: " << Fixed(per_mb, 1)
        << " bytes per MB processed\n";
  }
  std::vector<QErrorSample> samples = RecordQErrorSamples(record);
  samples.insert(samples.end(), extra.begin(), extra.end());
  out << FormatQErrorTable(samples);
  return out.str();
}

}  // namespace etlopt
