// etlopt_advisor — command-line front end for the statistics-identification
// framework. Mirrors how the paper's module consumed designer-exported
// workflows: feed it a workflow file, get back the analysis (blocks, plan
// space, CSS, the optimal statistics to observe, and the pay-as-you-go
// comparison).
//
// Usage:
//   etlopt_advisor analyze <workflow-file> [options]
//   etlopt_advisor run <workflow-file|suite-index> [options]  # full cycle
//   etlopt_advisor explain <workflow-file|suite-index> --ledger=<file>
//                                               # provenance from the ledger
//   etlopt_advisor report <ledger-file>         # offline accuracy dashboard
//   etlopt_advisor calibrate <ledger-file>      # fit a cost-model overlay
//   etlopt_advisor dot <workflow-file>          # Graphviz rendering
//   etlopt_advisor export-suite <index> [path]  # dump a benchmark workflow
//   etlopt_advisor transforms                   # list registered UDFs
//
// Options for analyze:
//   --selector=greedy|ilp     statistics selector (default greedy)
//   --no-union-division       disable the J4/J5 rules
//   --no-fk-rules             ignore foreign-key lookup metadata
//   --left-deep               restrict the plan space to left-deep trees
//   --budget=<units>          §6.1: report the budgeted plan as well
//
// run additionally executes the workflow (steps 5-7) on generated data and
// accepts:
//   --seed=<n>                data-generation seed (default 7)
//   --scale=<s>               row scale for suite workloads (default 0.05)
//   --rows=<n>                rows per source for file workflows (default
//                             1000)
//
// Observability options (analyze and run):
//   --metrics-out=<file>      write the run's counters and gauges on exit
//                             (.json -> JSON, otherwise Prometheus text)
//   --trace-out=<file>        record spans, write Chrome trace JSON
//                             (open in chrome://tracing or Perfetto)
//   --obs-summary             print the run's headline counts, phases, peak
//                             RSS and q-error table
//
// Profiling and calibration (run):
//   --profile                 per-operator profiler: print the self/
//                             cumulative time table after the run and carry
//                             the profile into the ledger record
//   --profile-out=<file>      additionally write a collapsed-stack profile
//                             (flamegraph.pl / speedscope folded format);
//                             implies --profile
//   --calibration=<file>      load a cost-calibration overlay (produced by
//                             `calibrate`): the selection cost model charges
//                             calibrated tap ns/row and every profiled
//                             operator gets a predicted-vs-measured q-error
//
// Cross-run options (run and explain):
//   --ledger=<file>           persistent run ledger (JSONL); run appends a
//                             record and reports drift vs. prior runs of
//                             the same workflow
//   --explain                 (run) print the annotated plan tree: est vs.
//                             actual rows, q-error, and which stored
//                             statistic fed each estimate
//   --json                    (explain) machine-readable output
//
// Approximate instrumentation (analyze and run):
//   --approx-taps[=<bytes>]   collect distinct/histogram taps with streaming
//                             sketches when the estimated exact footprint
//                             exceeds the byte budget (default 1 MiB);
//                             reports exact-vs-sketch memory and adds the
//                             sketch rows of the --obs-summary q-error table
//
// Parallel execution (run; see docs/parallelism.md):
//   --threads=<n>             run eligible operator chains partitioned over
//                             n worker threads (default 1 = serial; env
//                             ETLOPT_THREADS). Observed statistics are
//                             bit-identical to a serial run; --obs-summary
//                             gains a `-- parallelism --` section
//
// Robustness options (run; see docs/robustness.md):
//   --fault-spec=<spec>       install a deterministic fault injector (same
//                             grammar as ETLOPT_FAULT_SPEC); a malformed
//                             spec exits 1 before anything runs
//   --max-error-rate=<f>      abort when quarantined/scanned rows of any
//                             source exceed this fraction (default 0.05)
//   --checkpoint=<file>       tap checkpoint sidecar path; left behind with
//                             partial statistics when the run aborts
//   --checkpoint-every=<n>    rows between checkpoint flushes (default
//                             100000, or ETLOPT_CHECKPOINT_EVERY)
//
// Plan-regression guard (run; see docs/robustness.md):
//   --guard[=strict|warn|off]  adoption gate + runtime estimate monitors;
//                             bare --guard means strict. warn (default)
//                             scores the evidence and records the verdict
//                             but adopts anyway; strict keeps the designed
//                             plan on a failing verdict and aborts the run
//                             on a monitor violation (exit 4). Thresholds
//                             via ETLOPT_GUARD_* (see docs).
//
// Exit codes: 0 success, 1 usage/configuration/IO error, 3 the run aborted
// mid-flight (partial statistics were salvaged; the ledger record, when
// --ledger is given, is marked partial=true), 4 the plan-regression guard
// fell back to the designed plan or aborted the run on an estimate-monitor
// violation (the ledger record carries the guard verdict).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/lifecycle.h"
#include "core/report.h"
#include "datagen/workload_suite.h"
#include "engine/instrumentation.h"
#include "etl/transforms.h"
#include "etl/workflow_io.h"
#include "obs/accuracy.h"
#include "obs/build_info.h"
#include "obs/calibrate.h"
#include "obs/drift.h"
#include "obs/explain.h"
#include "obs/ledger.h"
#include "obs/profile.h"
#include "obs/run_report.h"
#include "obs/trace.h"
#include "opt/resource.h"
#include "util/bitmask.h"
#include "util/fault.h"
#include "util/random.h"
#include "util/timer.h"

using namespace etlopt;

namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "etlopt_advisor: %s\n", message.c_str());
  return 1;
}

// Observability sinks shared by analyze/run. Parse turns the tracer on as
// soon as --trace-out appears, so every later phase is captured; Finish
// writes the requested dumps, rendering every number from the run's record.
struct ObsSinks {
  std::string metrics_out;
  std::string trace_out;
  bool summary = false;

  bool ParseFlag(const std::string& arg) {
    if (arg.rfind("--metrics-out=", 0) == 0) {
      metrics_out = arg.substr(std::strlen("--metrics-out="));
      return true;
    }
    if (arg.rfind("--trace-out=", 0) == 0) {
      trace_out = arg.substr(std::strlen("--trace-out="));
      obs::Tracer::Global().SetEnabled(true);
      return true;
    }
    if (arg == "--obs-summary") {
      summary = true;
      return true;
    }
    return false;
  }

  static bool WriteFile(const std::string& path, const std::string& content) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const size_t written = std::fwrite(content.data(), 1, content.size(), f);
    std::fclose(f);
    return written == content.size();
  }

  int Finish(const obs::RunRecord& record,
             const std::vector<QErrorSample>& extra_qerrors = {}) const {
    if (!metrics_out.empty()) {
      const bool json =
          metrics_out.size() >= 5 &&
          metrics_out.compare(metrics_out.size() - 5, 5, ".json") == 0;
      const std::string dump = json ? obs::RunMetricsJson(record)
                                    : obs::RunMetricsPrometheus(record);
      if (!WriteFile(metrics_out, dump)) {
        return Fail("cannot write metrics to '" + metrics_out + "'");
      }
      std::printf("wrote metrics to %s\n", metrics_out.c_str());
    }
    if (!trace_out.empty()) {
      // Crash-safe (temp + rename) write; unclosed spans from an aborted
      // phase are emitted as begin events, so the file always loads.
      const Status st = obs::Tracer::Global().WriteChromeTrace(trace_out);
      if (!st.ok()) return Fail(st.ToString());
      std::printf("wrote %zu trace event(s) to %s\n",
                  obs::Tracer::Global().NumEvents(), trace_out.c_str());
    }
    if (summary) {
      std::printf("\n%s", FormatObsSummary(record, extra_qerrors).c_str());
    }
    return 0;
  }
};

bool ParsePipelineFlag(const std::string& arg, PipelineOptions* options) {
  if (arg == "--selector=greedy") {
    options->selector = SelectorKind::kGreedy;
  } else if (arg == "--selector=ilp") {
    options->selector = SelectorKind::kIlp;
  } else if (arg == "--no-union-division") {
    options->css.enable_union_division = false;
  } else if (arg == "--no-fk-rules") {
    options->css.enable_fk_rules = false;
  } else if (arg == "--left-deep") {
    options->plan_space.left_deep_only = true;
  } else if (arg == "--approx-taps") {
    options->tap_memory_budget_bytes = 1 << 20;  // 1 MiB default
  } else if (arg.rfind("--approx-taps=", 0) == 0) {
    options->tap_memory_budget_bytes =
        std::atoll(arg.c_str() + std::strlen("--approx-taps="));
  } else if (arg.rfind("--threads=", 0) == 0) {
    options->num_threads =
        static_cast<int>(std::atoll(arg.c_str() + std::strlen("--threads=")));
  } else if (arg == "--guard") {
    // Bare --guard opts into the strictest behavior: reject regressed plans
    // AND abort runs whose observed cardinalities contradict the estimates.
    options->guard.mode = obs::GuardMode::kStrict;
  } else if (arg.rfind("--guard=", 0) == 0) {
    const Result<obs::GuardMode> mode =
        obs::ParseGuardMode(arg.substr(std::strlen("--guard=")));
    if (!mode.ok()) return false;
    options->guard.mode = *mode;
  } else {
    return false;
  }
  return true;
}

// ETLOPT_CALIBRATION validation happens eagerly here, not lazily in
// Pipeline: a malformed overlay is a configuration error the operator must
// see (exit 1), not a warning buried in a run's log output.
int CheckCalibrationEnv() {
  const char* path = std::getenv("ETLOPT_CALIBRATION");
  if (path == nullptr || *path == '\0') return 0;
  const Result<obs::CostCalibration> cal = obs::CostCalibration::Load(path);
  if (!cal.ok()) {
    return Fail("ETLOPT_CALIBRATION='" + std::string(path) +
                "': " + cal.status().ToString());
  }
  return 0;
}

int Analyze(const std::string& path, int argc, char** argv) {
  PipelineOptions options;
  ObsSinks obs_sinks;
  double budget = -1.0;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (ParsePipelineFlag(arg, &options) || obs_sinks.ParseFlag(arg)) {
      continue;
    } else if (arg.rfind("--budget=", 0) == 0) {
      budget = std::atof(arg.c_str() + std::strlen("--budget="));
    } else {
      return Fail("unknown option '" + arg + "'");
    }
  }

  if (const int env_status = CheckCalibrationEnv(); env_status != 0) {
    return env_status;
  }

  Result<Workflow> wf = LoadWorkflow(path);
  if (!wf.ok()) return Fail(wf.status().ToString());

  Pipeline pipeline(options);
  Timer timer;
  const auto analysis = pipeline.Analyze(*wf);
  if (!analysis.ok()) return Fail(analysis.status().ToString());
  obs::RunRecord record;
  record.analyze_ms = timer.ElapsedMillis();
  record.metrics = AnalysisCounters(**analysis);
  std::printf("%s", FormatAnalysisReport(**analysis).c_str());

  if (budget >= 0.0) {
    std::printf("\n--- budgeted plan (%.0f memory units per block, §6.1) "
                "---\n",
                budget);
    for (const auto& block : (*analysis)->blocks) {
      const BudgetedSelection plan = SelectWithBudget(
          block->problem, block->ctx, block->plan_space, budget);
      record.AddMetric("etlopt.opt.greedy.iterations",
                       plan.first_run.greedy_iterations);
      std::printf("block %d: first run observes %zu statistics (%.0f "
                  "units); %zu SE(s) deferred; %d total execution(s)\n",
                  block->block.id, plan.first_run.observed.size(),
                  plan.memory_used, plan.deferred.size(),
                  plan.total_executions());
    }
  }
  record.peak_rss_bytes = obs::PeakRssBytes();
  return obs_sinks.Finish(record);
}

// Synthetic sources for a designer-exported workflow file: every source
// node gets `rows` rows drawn uniformly from each attribute's catalog
// domain (deterministic in `seed`).
SourceMap SynthesizeSources(const Workflow& wf, int64_t rows, uint64_t seed) {
  Rng rng(seed);
  SourceMap sources;
  for (const WorkflowNode& node : wf.nodes()) {
    if (node.kind != OpKind::kSource) continue;
    Table t{node.source_schema};
    for (int64_t r = 0; r < rows; ++r) {
      std::vector<Value> row;
      row.reserve(static_cast<size_t>(node.source_schema.size()));
      for (AttrId a : node.source_schema.attrs()) {
        row.push_back(rng.NextInRange(1, wf.catalog().domain_size(a)));
      }
      t.AddRow(std::move(row));
    }
    sources[node.table_name] = std::move(t);
  }
  return sources;
}

int Run(const std::string& target, int argc, char** argv) {
  PipelineOptions options;
  ObsSinks obs_sinks;
  uint64_t seed = 7;
  double scale = 0.05;
  int64_t rows = 1000;
  std::string ledger_path;
  bool explain = false;
  // ETLOPT_PROFILE=1 starts the process with the profiler on; treat that
  // exactly like --profile so the table prints either way.
  bool profile = obs::ProfilerEnabled();
  std::string profile_out;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (ParsePipelineFlag(arg, &options) || obs_sinks.ParseFlag(arg)) {
      continue;
    } else if (arg == "--profile") {
      profile = true;
      obs::SetProfilerEnabled(true);
    } else if (arg.rfind("--profile-out=", 0) == 0) {
      profile = true;
      profile_out = arg.substr(std::strlen("--profile-out="));
      obs::SetProfilerEnabled(true);
    } else if (arg.rfind("--calibration=", 0) == 0) {
      const std::string cal_path = arg.substr(std::strlen("--calibration="));
      const Result<obs::CostCalibration> cal =
          obs::CostCalibration::Load(cal_path);
      if (!cal.ok()) {
        return Fail("cannot load --calibration: " + cal.status().ToString());
      }
      options.calibration = *cal;
    } else if (arg.rfind("--seed=", 0) == 0) {
      seed = static_cast<uint64_t>(
          std::atoll(arg.c_str() + std::strlen("--seed=")));
    } else if (arg.rfind("--scale=", 0) == 0) {
      scale = std::atof(arg.c_str() + std::strlen("--scale="));
    } else if (arg.rfind("--rows=", 0) == 0) {
      rows = std::atoll(arg.c_str() + std::strlen("--rows="));
    } else if (arg.rfind("--ledger=", 0) == 0) {
      ledger_path = arg.substr(std::strlen("--ledger="));
    } else if (arg == "--explain") {
      explain = true;
    } else if (arg.rfind("--fault-spec=", 0) == 0) {
      const Status st = fault::FaultInjector::InstallGlobal(
          arg.substr(std::strlen("--fault-spec=")));
      if (!st.ok()) return Fail("invalid --fault-spec: " + st.ToString());
    } else if (arg.rfind("--max-error-rate=", 0) == 0) {
      options.executor.max_error_rate =
          std::atof(arg.c_str() + std::strlen("--max-error-rate="));
    } else if (arg.rfind("--checkpoint=", 0) == 0) {
      options.checkpoint_path = arg.substr(std::strlen("--checkpoint="));
    } else if (arg.rfind("--checkpoint-every=", 0) == 0) {
      options.checkpoint_every_rows =
          std::atoll(arg.c_str() + std::strlen("--checkpoint-every="));
      if (options.checkpoint_every_rows <= 0) {
        return Fail("--checkpoint-every requires a positive row count");
      }
    } else {
      return Fail("unknown option '" + arg + "'");
    }
  }

  if (const int env_status = CheckCalibrationEnv(); env_status != 0) {
    return env_status;
  }

  // Suite index or workflow file?
  Workflow workflow;
  SourceMap sources;
  char* end = nullptr;
  const long suite_index = std::strtol(target.c_str(), &end, 10);
  if (end != nullptr && *end == '\0' && suite_index >= 1 &&
      suite_index <= 30) {
    const WorkloadSpec spec = BuildWorkload(static_cast<int>(suite_index));
    workflow = spec.workflow;
    sources = GenerateSources(spec, seed, scale);
  } else {
    Result<Workflow> wf = LoadWorkflow(target);
    if (!wf.ok()) return Fail(wf.status().ToString());
    workflow = *wf;
    sources = SynthesizeSources(workflow, rows, seed);
  }

  // Ledger history loads BEFORE the cycle: the guard needs prior records to
  // arm runtime estimate monitors and to seed force-observe for SEs whose
  // estimates a previous run's monitors flagged.
  const std::string fingerprint = obs::FingerprintWorkflow(workflow);
  obs::RunLedger ledger(ledger_path);
  std::vector<obs::RunRecord> history;
  std::string run_id = "run-1";
  int skipped_lines = 0;
  if (!ledger_path.empty()) {
    const Result<obs::LedgerLoadResult> loaded = ledger.Load();
    if (!loaded.ok()) return Fail(loaded.status().ToString());
    skipped_lines = loaded->skipped_lines;
    if (loaded->skipped_lines > 0) {
      std::printf("ledger: skipped %d corrupt line(s) in %s\n",
                  loaded->skipped_lines, ledger_path.c_str());
    }
    history = obs::RunLedger::HistoryFor(loaded->records, fingerprint);
    run_id = obs::RunLedger::NextRunId(loaded->records, fingerprint);
  }

  Pipeline pipeline(options);
  const Result<CycleOutcome> cycle = pipeline.RunCycle(
      workflow, sources, history.empty() ? nullptr : &history);
  if (!cycle.ok()) return Fail(cycle.status().ToString());

  std::printf("%s", FormatAnalysisReport(*cycle->analysis).c_str());

  if (cycle->aborted()) {
    const ExecutionResult& exec = cycle->run.exec;
    std::printf(
        "\nRUN ABORTED (%s): %s\n"
        "  completed %d of %d node(s); salvaged partial statistics "
        "(%d tap(s) skipped)\n",
        AbortKindName(exec.abort_kind), exec.abort_reason.c_str(),
        exec.nodes_completed, exec.nodes_total,
        cycle->run.tap_report.salvage_skipped);
    if (!options.checkpoint_path.empty()) {
      std::printf("  checkpoint sidecar left at %s\n",
                  options.checkpoint_path.c_str());
    }
  }

  // Estimator accuracy: with the executed tables in hand, ground truth for
  // every SE is computable — the record's `actual` column, and the q-error
  // table of --obs-summary.
  const auto& blocks = cycle->analysis->blocks;
  std::vector<CardMap> truths(blocks.size());
  for (size_t b = 0; b < blocks.size(); ++b) {
    const BlockAnalysis& ba = *blocks[b];
    const auto truth = ComputeGroundTruthCards(
        ba.ctx, ba.plan_space.subexpressions(), cycle->run.exec);
    if (truth.ok() && b < cycle->opt.block_cards.size()) truths[b] = *truth;
  }

  std::printf("\nexecuted: %lld rows (%lld bytes) processed\n",
              static_cast<long long>(cycle->run.exec.rows_processed),
              static_cast<long long>(cycle->run.exec.bytes_processed));

  if (profile && cycle->run.exec.profile.empty()) {
    // --profile under ETLOPT_OBS_DISABLED=1: nothing was captured.
    std::printf("\n(profiler captured nothing — observability is off)\n");
  } else if (profile) {
    const obs::RunProfile& prof = cycle->run.exec.profile;
    std::printf("\n%s", obs::FormatProfileTable(prof).c_str());
    if (const double cost_q = obs::PlanCostQError(prof); cost_q > 0.0) {
      std::printf("plan cost q-error (predicted vs measured): %.2f%s\n",
                  cost_q,
                  options.calibration.empty()
                      ? " (uncalibrated defaults; run `calibrate` on the "
                        "ledger and re-run with --calibration=)"
                      : "");
    }
    if (!profile_out.empty()) {
      if (!ObsSinks::WriteFile(profile_out, obs::FoldedStacks(prof))) {
        return Fail("cannot write profile to '" + profile_out + "'");
      }
      std::printf("wrote collapsed-stack profile to %s\n",
                  profile_out.c_str());
    }
  }
  std::printf("plan cost (learned stats): initial %.0f -> optimized %.0f\n",
              cycle->opt.initial_cost, cycle->opt.optimized_cost);

  if (cycle->opt.guard.engaged()) {
    std::printf("\n%s", cycle->opt.guard.ToText().c_str());
  }

  std::vector<QErrorSample> sketch_qerrors;
  if (options.tap_memory_budget_bytes > 0) {
    const TapReport& taps = cycle->run.tap_report;
    std::printf(
        "approx taps (budget %lld bytes): %d exact + %d sketch tap(s), "
        "%lld tap bytes vs %lld exact-estimate bytes",
        static_cast<long long>(options.tap_memory_budget_bytes),
        taps.exact_taps, taps.sketch_taps,
        static_cast<long long>(taps.tap_bytes),
        static_cast<long long>(taps.exact_bytes_estimate));
    if (taps.tap_bytes > 0 && taps.exact_bytes_estimate > 0) {
      std::printf(" (%.1fx reduction)",
                  static_cast<double>(taps.exact_bytes_estimate) /
                      static_cast<double>(taps.tap_bytes));
    }
    std::printf("\n");
    // Sketch accuracy: re-observe the sketch-backed statistics exactly and
    // compare (the "sketch" rows of the --obs-summary q-error table).
    if (taps.sketch_taps > 0) {
      for (size_t b = 0; b < cycle->analysis->blocks.size() &&
                         b < cycle->run.block_stats.size();
           ++b) {
        const auto& ba = cycle->analysis->blocks[b];
        const StatStore& approx = cycle->run.block_stats[b];
        std::vector<StatKey> sketch_keys;
        for (const auto& [key, value] : approx.values()) {
          if (value.is_approx()) sketch_keys.push_back(key);
        }
        if (sketch_keys.empty()) continue;
        const Result<StatStore> exact =
            ObserveStatistics(ba->ctx, cycle->run.exec, sketch_keys);
        if (!exact.ok()) continue;
        for (const StatKey& key : sketch_keys) {
          const StatValue* av = approx.Find(key);
          const StatValue* ev = exact->Find(key);
          if (av == nullptr || ev == nullptr) continue;
          // Counts compare directly; histograms compare the row mass they
          // summarize (the I1 identity the rescaling preserves).
          const double est = av->is_count()
                                 ? static_cast<double>(av->count())
                                 : static_cast<double>(av->hist().TotalCount());
          const double act = ev->is_count()
                                 ? static_cast<double>(ev->count())
                                 : static_cast<double>(ev->hist().TotalCount());
          sketch_qerrors.push_back(
              {"sketch", PopCount(key.rels) - 1, obs::QError(est, act)});
        }
      }
    }
  }

  obs::RunRecord record = MakeRunRecord(*cycle, run_id, &truths);
  if (skipped_lines > 0) {
    record.AddMetric("etlopt.obs.ledger.skipped_lines", skipped_lines);
  }
  if (!ledger_path.empty() || explain) {
    obs::DriftReport drift;
    if (!history.empty()) {
      drift = obs::DriftDetector().Compare(history, record);
      std::printf("\n%s",
                  drift.ToText(&cycle->analysis->workflow->catalog()).c_str());
    }

    if (explain) {
      // Estimate provenance follows the paper's feedback loop: if prior
      // runs exist, the estimates a fresh optimizer would make come from
      // the *previous* run's stored statistics — so the explain cites that
      // run's id — and are diffed against this run's actual rows.
      const obs::RunRecord* stats_src =
          history.empty() ? &record : &history.back();
      std::vector<obs::ExplainBlockInput> inputs;
      for (size_t b = 0; b < blocks.size(); ++b) {
        if (b >= stats_src->block_stats.size()) break;
        obs::ExplainBlockInput in;
        in.block = static_cast<int>(b);
        in.ctx = &blocks[b]->ctx;
        in.catalog = &blocks[b]->catalog;
        in.ses = blocks[b]->plan_space.subexpressions();
        in.stats = &stats_src->block_stats[b];
        in.source_run_id = stats_src->run_id;
        in.actuals = &truths[b];
        inputs.push_back(std::move(in));
      }
      const Result<obs::PlanExplain> plan_explain = obs::BuildPlanExplain(
          inputs, workflow.name(), fingerprint,
          history.empty() ? nullptr : &drift);
      if (!plan_explain.ok()) return Fail(plan_explain.status().ToString());
      std::printf("\n%s",
                  obs::FormatPlanExplainText(
                      *plan_explain, &cycle->analysis->workflow->catalog())
                      .c_str());
    }

    if (!ledger_path.empty()) {
      const Status st = ledger.Append(record);
      if (!st.ok()) return Fail(st.ToString());
      std::printf("\nledger: appended %s (workflow fingerprint %s) to %s\n",
                  record.run_id.c_str(), fingerprint.c_str(),
                  ledger_path.c_str());
    }
  }
  const int sink_status = obs_sinks.Finish(record, sketch_qerrors);
  if (sink_status != 0) return sink_status;
  // Exit 4: the plan-regression guard intervened — either the adoption gate
  // kept the designed plan, or a runtime estimate monitor aborted the run
  // (the statistics salvage still happened, same as exit 3). Scripts that
  // treat 3 as "salvaged partial run" can treat 4 as "fell back to the
  // designed plan; inspect the ledger's guard section".
  if (cycle->opt.guard.fell_back ||
      cycle->run.exec.abort_kind == AbortKind::kGuard) {
    return 4;
  }
  // Exit 3 distinguishes "the run aborted but salvage worked" from
  // configuration errors (exit 1): the ledger record and checkpoint are on
  // disk, and the next run can consume them.
  return cycle->aborted() ? 3 : 0;
}

// Offline provenance: re-derives every estimate from ledger history alone,
// without executing anything. With >= 2 runs on record, estimates come from
// the second-to-last run's statistics (what the optimizer knew going into
// the last run) and actuals from the last run.
int Explain(const std::string& target, int argc, char** argv) {
  PipelineOptions options;
  std::string ledger_path;
  bool json = false;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (ParsePipelineFlag(arg, &options)) {
      continue;
    } else if (arg.rfind("--ledger=", 0) == 0) {
      ledger_path = arg.substr(std::strlen("--ledger="));
    } else if (arg == "--json") {
      json = true;
    } else {
      return Fail("unknown option '" + arg + "'");
    }
  }
  if (ledger_path.empty()) return Fail("explain requires --ledger=<file>");

  Workflow workflow;
  char* end = nullptr;
  const long suite_index = std::strtol(target.c_str(), &end, 10);
  if (end != nullptr && *end == '\0' && suite_index >= 1 &&
      suite_index <= 30) {
    workflow = BuildWorkload(static_cast<int>(suite_index)).workflow;
  } else {
    Result<Workflow> wf = LoadWorkflow(target);
    if (!wf.ok()) return Fail(wf.status().ToString());
    workflow = *wf;
  }

  const Result<obs::LedgerLoadResult> loaded =
      obs::RunLedger(ledger_path).Load();
  if (!loaded.ok()) return Fail(loaded.status().ToString());
  const std::string fingerprint = obs::FingerprintWorkflow(workflow);
  const std::vector<obs::RunRecord> history =
      obs::RunLedger::HistoryFor(loaded->records, fingerprint);
  if (history.empty()) {
    return Fail("no ledger history for workflow fingerprint " + fingerprint +
                " in " + ledger_path);
  }

  // Steps 1-4 only: the block contexts and CSS catalogs the estimates are
  // expressed over (no execution).
  Pipeline pipeline(options);
  const auto analysis = pipeline.Analyze(workflow);
  if (!analysis.ok()) return Fail(analysis.status().ToString());
  const auto& blocks = (*analysis)->blocks;

  const obs::RunRecord& actual_rec = history.back();
  const obs::RunRecord& stats_rec =
      history.size() >= 2 ? history[history.size() - 2] : history.back();

  obs::DriftReport drift;
  const bool have_drift = history.size() >= 2;
  if (have_drift) {
    const std::vector<obs::RunRecord> prefix(history.begin(),
                                             history.end() - 1);
    drift = obs::DriftDetector().Compare(prefix, actual_rec);
  }

  std::vector<CardMap> actual_maps(blocks.size());
  for (const obs::RunRecord::SeCard& card : actual_rec.cards) {
    if (card.actual >= 0 && card.block >= 0 &&
        static_cast<size_t>(card.block) < actual_maps.size()) {
      actual_maps[static_cast<size_t>(card.block)][card.se] =
          static_cast<int64_t>(card.actual);
    }
  }

  std::vector<obs::ExplainBlockInput> inputs;
  for (size_t b = 0; b < blocks.size(); ++b) {
    if (b >= stats_rec.block_stats.size()) break;
    obs::ExplainBlockInput in;
    in.block = static_cast<int>(b);
    in.ctx = &blocks[b]->ctx;
    in.catalog = &blocks[b]->catalog;
    in.ses = blocks[b]->plan_space.subexpressions();
    in.stats = &stats_rec.block_stats[b];
    in.source_run_id = stats_rec.run_id;
    in.actuals = &actual_maps[b];
    inputs.push_back(std::move(in));
  }
  const Result<obs::PlanExplain> plan_explain =
      obs::BuildPlanExplain(inputs, workflow.name(), fingerprint,
                            have_drift ? &drift : nullptr);
  if (!plan_explain.ok()) return Fail(plan_explain.status().ToString());

  const AttrCatalog* catalog = &workflow.catalog();
  if (json) {
    std::printf("%s\n", obs::PlanExplainJson(*plan_explain, catalog).c_str());
  } else {
    if (have_drift) std::printf("%s\n", drift.ToText(catalog).c_str());
    std::printf("%s", obs::FormatPlanExplainText(*plan_explain, catalog).c_str());
  }
  return 0;
}

// Offline accuracy dashboard: renders cardinality and cost q-error trends,
// worst-calibrated operator classes, replayed drift events, and data-quality
// annotations from the ledger alone (no workflow file or execution needed).
int Report(const std::string& ledger_path, int argc, char** argv) {
  bool json = false;
  obs::RunReportOptions options;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg.rfind("--top-k=", 0) == 0) {
      options.top_k = std::atoi(arg.c_str() + std::strlen("--top-k="));
      if (options.top_k <= 0) {
        return Fail("--top-k requires a positive count");
      }
    } else {
      return Fail("unknown option '" + arg + "'");
    }
  }
  const Result<obs::LedgerLoadResult> loaded =
      obs::RunLedger(ledger_path).Load();
  if (!loaded.ok()) return Fail(loaded.status().ToString());
  if (loaded->records.empty()) {
    return Fail("ledger '" + ledger_path + "' holds no readable records");
  }
  if (loaded->skipped_lines > 0) {
    std::fprintf(stderr, "etlopt_advisor: skipped %d corrupt ledger line(s)\n",
                 loaded->skipped_lines);
  }
  if (json) {
    std::printf("%s\n", obs::RunReportJson(loaded->records, options)
                            .Dump()
                            .c_str());
  } else {
    std::printf("%s", obs::FormatRunReportMarkdown(loaded->records, options)
                          .c_str());
  }
  return 0;
}

// Fits a cost-model calibration overlay from the profiled runs on a ledger
// and optionally saves it for --calibration= / ETLOPT_CALIBRATION.
int Calibrate(const std::string& ledger_path, int argc, char** argv) {
  std::string out_path;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(std::strlen("--out="));
    } else {
      return Fail("unknown option '" + arg + "'");
    }
  }
  const Result<obs::LedgerLoadResult> loaded =
      obs::RunLedger(ledger_path).Load();
  if (!loaded.ok()) return Fail(loaded.status().ToString());
  const obs::CostCalibration cal = obs::FitCalibration(loaded->records);
  if (cal.runs == 0) {
    return Fail("no profiled runs in '" + ledger_path +
                "' — re-run with --profile to record per-operator timings");
  }
  std::printf("%s", cal.ToText().c_str());
  if (!out_path.empty()) {
    const Status st = cal.Save(out_path);
    if (!st.ok()) return Fail(st.ToString());
    std::printf("wrote calibration overlay to %s (use --calibration=%s or "
                "ETLOPT_CALIBRATION)\n",
                out_path.c_str(), out_path.c_str());
  }
  return 0;
}

int Dot(const std::string& path) {
  Result<Workflow> wf = LoadWorkflow(path);
  if (!wf.ok()) return Fail(wf.status().ToString());
  std::printf("%s", wf->ToDot().c_str());
  return 0;
}

int ExportSuite(int index, const char* path) {
  if (index < 1 || index > 30) return Fail("suite index must be 1..30");
  const WorkloadSpec spec = BuildWorkload(index);
  if (path != nullptr) {
    const Status st = SaveWorkflow(spec.workflow, path);
    if (!st.ok()) return Fail(st.ToString());
    std::printf("wrote %s (workflow '%s')\n", path, spec.name.c_str());
  } else {
    std::printf("%s", WriteWorkflowTextOrDie(spec.workflow).c_str());
  }
  return 0;
}

int Transforms() {
  std::printf("registered transform functions (usable in workflow files):\n");
  for (const std::string& name : RegisteredTransformNames()) {
    std::printf("  %s\n", name.c_str());
  }
  return 0;
}

void Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  etlopt_advisor analyze <workflow-file> [--selector=greedy|ilp]\n"
      "                 [--no-union-division] [--no-fk-rules] [--left-deep]\n"
      "                 [--budget=<units>] [--metrics-out=<file>]\n"
      "                 [--trace-out=<file>] [--obs-summary]\n"
      "  etlopt_advisor run <workflow-file|suite-index 1..30>\n"
      "                 [--seed=<n>] [--scale=<s>] [--rows=<n>]\n"
      "                 [--selector=greedy|ilp] [--metrics-out=<file>]\n"
      "                 [--trace-out=<file>] [--obs-summary]\n"
      "                 [--ledger=<file>] [--explain]\n"
      "                 [--profile] [--profile-out=<file>]\n"
      "                 [--calibration=<file>]\n"
      "                 [--approx-taps[=<bytes>]]  (default 1 MiB budget)\n"
      "                 [--threads=<n>]  (partitioned parallel execution)\n"
      "                 [--fault-spec=<spec>] [--max-error-rate=<f>]\n"
      "                 [--checkpoint=<file>] [--checkpoint-every=<rows>]\n"
      "                 [--guard[=strict|warn|off]]  (plan-regression "
      "guard)\n"
      "  etlopt_advisor explain <workflow-file|suite-index 1..30>\n"
      "                 --ledger=<file> [--json] [--selector=greedy|ilp]\n"
      "  etlopt_advisor report <ledger-file> [--json] [--top-k=<n>]\n"
      "  etlopt_advisor calibrate <ledger-file> [--out=<file>]\n"
      "  etlopt_advisor dot <workflow-file>\n"
      "  etlopt_advisor export-suite <index 1..30> [output-path]\n"
      "  etlopt_advisor transforms\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Usage();
    return 1;
  }
  const std::string command = argv[1];
  if (command == "analyze" && argc >= 3) {
    return Analyze(argv[2], argc - 3, argv + 3);
  }
  if (command == "run" && argc >= 3) {
    return Run(argv[2], argc - 3, argv + 3);
  }
  if (command == "explain" && argc >= 3) {
    return Explain(argv[2], argc - 3, argv + 3);
  }
  if (command == "report" && argc >= 3) {
    return Report(argv[2], argc - 3, argv + 3);
  }
  if (command == "calibrate" && argc >= 3) {
    return Calibrate(argv[2], argc - 3, argv + 3);
  }
  if (command == "dot" && argc == 3) {
    return Dot(argv[2]);
  }
  if (command == "export-suite" && (argc == 3 || argc == 4)) {
    return ExportSuite(std::atoi(argv[2]), argc == 4 ? argv[3] : nullptr);
  }
  if (command == "transforms") {
    return Transforms();
  }
  Usage();
  return 1;
}
