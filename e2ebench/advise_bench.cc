// End-to-end benchmark of the advise cycle and the plan payoff.
//
//   advise_bench --workload NAME --seed N --seconds S --trace 0|1
//                [--expect FILE] [--spans-out FILE]
//
// Closed loop, one client: set-up runs three times, then a fixed number of
// iterations (seconds / the workload's nominal iteration length, at least
// three) run back to back. One iteration goes through the workload's batch
// of extracts and, for each extract, makes
//   cycle    Pipeline::RunCycle on the advise-scale sources,
//   truth    ComputeGroundTruthCards for every block (advise = cycle + truth),
//   designed one uninstrumented run of the designed workflow,
//   adopted  one uninstrumented run of the re-optimized workflow,
// with every output checked; the production runs of the batch follow its
// advise cycles, designed plan first. A timing sample is the iteration's
// total over the batch; a reported timing is the median of the samples.
// --trace 1 runs each extract's RunCycle twice, first with the library's
// tracer off and then on; it reports per-layer times from the traced
// cycle's spans (bench_cycle.h), per-layer counts, and the tracing overhead
// as the traced cycle time over the untraced one.
//
// Standard output: one info line (build stamp, nproc, sample counts, the
// checked facts), then as the last line
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// Exit code 2 on bad arguments or a Debug/sanitizer build.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench_cycle.h"
#include "obs/accuracy.h"
#include "obs/build_info.h"
#include "obs/ledger.h"
#include "obs/trace.h"
#include "util/json.h"

namespace e2ebench {
namespace {

using namespace etlopt;

constexpr int kSetups = 3;

double Seconds(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       since)
      .count();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// Bytes held by the tables an execution retains (node outputs and join
// rejects), counting each shared column once.
double RetainedMb(const ExecutionResult& exec) {
  std::unordered_set<const Column*> seen;
  int64_t bytes = 0;
  auto add = [&](const std::unordered_map<NodeId, Table>& tables) {
    for (const auto& [node, table] : tables) {
      (void)node;
      for (int c = 0; c < table.num_columns(); ++c) {
        const Column* column = table.shared_column(c).get();
        if (column != nullptr && seen.insert(column).second) {
          bytes += static_cast<int64_t>(column->capacity() * sizeof(Value));
        }
      }
    }
  };
  add(exec.node_outputs);
  add(exec.join_rejects);
  add(exec.join_rejects_right);
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

// 95th percentile, nearest rank.
double P95(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(std::ceil(0.95 * values.size()));
  return values[std::max<size_t>(rank, 1) - 1];
}

Result<std::vector<CardMap>> GroundTruth(const Analysis& analysis,
                                         const ExecutionResult& exec) {
  std::vector<CardMap> truths;
  for (const auto& ba : analysis.blocks) {
    ETLOPT_ASSIGN_OR_RETURN(
        CardMap truth,
        ComputeGroundTruthCards(ba->ctx, ba->plan_space.subexpressions(), exec));
    truths.push_back(std::move(truth));
  }
  return truths;
}

std::map<std::string, int64_t> TargetRows(const ExecutionResult& exec) {
  std::map<std::string, int64_t> rows;
  for (const auto& [name, table] : exec.targets) rows[name] = table.num_rows();
  return rows;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) { return Json::Str(s).Dump(); }

// The deterministic outputs of one extract's cycle and plan runs.
struct ExtractFacts {
  int selected = -1;
  std::string adopted_fingerprint;
  int64_t designed_rows = -1;
  int64_t adopted_rows = -1;
  std::map<std::string, int64_t> targets;  // designed plan's target rows

  bool operator==(const ExtractFacts&) const = default;
};

// Batch totals of the facts, checked against the committed expectations for
// the default seed.
struct Facts {
  int64_t selected = 0;
  std::string adopted_fingerprint;  // digest of the extracts' plan prints
  int64_t designed_rows = 0;
  int64_t adopted_rows = 0;
  std::map<std::string, int64_t> targets;
  double card_qerror_p95 = 0.0;

  Facts(const std::vector<ExtractFacts>& extracts, double qerror_p95)
      : card_qerror_p95(qerror_p95) {
    std::string prints;
    for (const ExtractFacts& f : extracts) {
      selected += f.selected;
      prints += f.adopted_fingerprint + "\n";
      designed_rows += f.designed_rows;
      adopted_rows += f.adopted_rows;
      for (const auto& [name, rows] : f.targets) targets[name] += rows;
    }
    adopted_fingerprint = obs::FingerprintText(prints);
  }

  std::string ToJson() const {
    std::string targets_json = "{";
    for (const auto& [name, rows] : targets) {
      if (targets_json.size() > 1) targets_json += ", ";
      targets_json += Quote(name) + ": " + std::to_string(rows);
    }
    targets_json += "}";
    return "{\"selected\": " + std::to_string(selected) +
           ", \"adopted_fingerprint\": " + Quote(adopted_fingerprint) +
           ", \"designed_rows\": " + std::to_string(designed_rows) +
           ", \"adopted_rows\": " + std::to_string(adopted_rows) +
           ", \"targets\": " + targets_json +
           ", \"card_qerror_p95\": " + Num(card_qerror_p95) + "}";
  }

  // Mismatches against the expected facts of this workload and seed.
  std::vector<std::string> Compare(const Json& want) const {
    std::vector<std::string> out;
    auto check_int = [&](const char* key, int64_t got) {
      const Json* w = want.Find(key);
      if (w == nullptr || w->int_value() != got) {
        out.push_back(std::string(key) + ": got " + std::to_string(got));
      }
    };
    check_int("selected", selected);
    check_int("designed_rows", designed_rows);
    check_int("adopted_rows", adopted_rows);
    const Json* fp = want.Find("adopted_fingerprint");
    if (fp == nullptr || fp->string_value() != adopted_fingerprint) {
      out.push_back("adopted_fingerprint: got " + adopted_fingerprint);
    }
    const Json* q = want.Find("card_qerror_p95");
    if (q == nullptr || std::fabs(q->double_value() - card_qerror_p95) >
                            1e-9 * std::max(1.0, q->double_value())) {
      out.push_back("card_qerror_p95: got " + Num(card_qerror_p95));
    }
    const Json* t = want.Find("targets");
    for (const auto& [name, rows] : targets) {
      const Json* w = t == nullptr ? nullptr : t->Find(name);
      if (w == nullptr || w->int_value() != rows) {
        out.push_back("target " + name + ": got " + std::to_string(rows));
      }
    }
    return out;
  }
};

// Operation accounting: every cycle, every plan execution and every batch
// check is one operation; it fails on a non-OK Result, an aborted run or a
// mismatch.
struct Checker {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;

  void Op(const std::vector<std::string>& mismatches) {
    ++attempted;
    if (mismatches.empty()) return;
    ++failed;
    for (const std::string& m : mismatches) {
      if (errors.size() < 20) errors.push_back(m);
    }
  }
};

struct Args {
  std::string workload;
  uint64_t seed = 7;
  double seconds = 10.0;
  int trace = 0;
  std::string expect_path;
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args->seconds > 0)) {
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--expect") {
      args->expect_path = value;
    } else if (flag == "--spans-out") {
      args->spans_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty();
}

// One set-up: inputs, the Pipeline (with its worker pool), a pool for the
// production runs, and an untimed warm-up: one run of the designed plan
// over each of the first `warmup_extracts` extracts.
struct Setup {
  WorkloadInputs inputs;
  std::unique_ptr<Pipeline> pipeline;
  std::unique_ptr<ThreadPool> pool;
};

Result<Setup> MakeSetup(const Workload& w, uint64_t seed) {
  obs::ScopedSpan span("bench.setup");
  Setup setup;
  {
    obs::ScopedSpan datagen_span("datagen");
    setup.inputs = GenerateInputs(w, seed);
  }
  setup.pipeline = std::make_unique<Pipeline>(MakePipelineOptions(w));
  if (w.num_threads > 1) {
    setup.pool = std::make_unique<ThreadPool>(w.num_threads);
  }
  for (int j = 0; j < w.warmup_extracts; ++j) {
    ETLOPT_ASSIGN_OR_RETURN(
        ExecutionResult warm,
        ExecutePlan(setup.inputs.spec.workflow,
                    setup.inputs.production(static_cast<size_t>(j)),
                    w.num_threads, setup.pool.get()));
    if (warm.aborted()) return Status::Internal("warm-up run aborted");
  }
  return setup;
}

// Checks one production run and records its rows and target row counts.
std::vector<std::string> CheckPlanRun(const Result<ExecutionResult>& run,
                                      const char* which, int64_t* rows,
                                      std::map<std::string, int64_t>* targets) {
  if (!run.ok()) return {std::string(which) + ": " + run.status().ToString()};
  if (run->aborted()) return {std::string(which) + ": aborted"};
  *rows = run->rows_processed;
  *targets = TargetRows(*run);
  return {};
}

// Serial and parallel execution must give the same results: for every
// extract, the serial exact-tap cycle must adopt a plan that processes, run
// serially, the same rows the partitioned run of the sketch-tap plan did,
// and the designed plan must process the same rows on both executors.
std::vector<std::string> CheckSerialReference(
    const Workload& w, const Setup& setup,
    const std::vector<ExtractFacts>& facts, size_t j) {
  PipelineOptions options = MakePipelineOptions(w);
  options.num_threads = 1;
  options.tap_memory_budget_bytes = 0;
  const Workflow& designed = setup.inputs.spec.workflow;
  Result<CycleOutcome> ref =
      Pipeline(options).RunCycle(designed, setup.inputs.extracts[j]);
  if (!ref.ok() || ref->aborted()) return {"serial reference cycle failed"};
  ref->run = RunOutcome{};
  const SourceMap& sources = setup.inputs.production(j);
  const Result<ExecutionResult> d = ExecutePlan(designed, sources, 1, nullptr);
  const Result<ExecutionResult> a =
      ExecutePlan(ref->opt.optimized, sources, 1, nullptr);
  if (!d.ok() || !a.ok() || d->aborted() || a->aborted()) {
    return {"serial reference run failed"};
  }
  std::vector<std::string> errors;
  const std::string at = "extract " + std::to_string(j) + ": ";
  if (d->rows_processed != facts[j].designed_rows) {
    errors.push_back(at + "designed rows serial " +
                     std::to_string(d->rows_processed) + ", parallel " +
                     std::to_string(facts[j].designed_rows));
  }
  if (a->rows_processed != facts[j].adopted_rows) {
    errors.push_back(at + "adopted rows serial exact-tap plan " +
                     std::to_string(a->rows_processed) +
                     ", parallel sketch-tap plan " +
                     std::to_string(facts[j].adopted_rows));
  }
  return errors;
}

// Per-iteration accumulators of the traced run's counts.
struct LayerCounts {
  std::map<std::string, double> sum;  // batch totals
  std::map<std::string, double> max;  // batch maxima

  void Add(const CycleOutcome& traced) {
    const ExecutionResult& exec = traced.run.exec;
    const TapReport& taps = traced.run.tap_report;
    for (const auto& ba : traced.analysis->blocks) {
      sum["planspace.subexpressions"] +=
          static_cast<double>(ba->plan_space.subexpressions().size());
      sum["css.candidates"] += ba->catalog.num_css();
      sum["css.statistics"] += ba->catalog.num_stats();
      sum["opt.cost"] += ba->selection.total_cost;
    }
    sum["opt.selected"] += SelectedCount(*traced.analysis);
    for (const CardMap& cards : traced.opt.block_cards) {
      sum["estimator.cards"] += static_cast<double>(cards.size());
    }
    sum["engine.rows"] += static_cast<double>(exec.rows_processed);
    sum["engine.bytes"] += static_cast<double>(exec.bytes_processed);
    sum["engine.taps_exact"] += taps.exact_taps;
    sum["engine.taps_sketch"] += taps.sketch_taps;
    sum["engine.tap_bytes"] += static_cast<double>(taps.tap_bytes);
    sum["parallel.merge_s"] += static_cast<double>(exec.merge_ns) * 1e-9;
    max["engine.retained_mb"] =
        std::max(max["engine.retained_mb"], RetainedMb(exec));
    max["parallel.skew"] = std::max(max["parallel.skew"], exec.partition_skew);
    max["parallel.partitions"] =
        std::max(max["parallel.partitions"],
                 static_cast<double>(exec.partitions_total));
  }
};

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: advise_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--expect FILE] [--spans-out FILE]\n");
    return 2;
  }
  const Workload* workload = FindWorkload(args.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const obs::BuildInfo& build = obs::CurrentBuildInfo();
  if ((build.build_type != "Release" && build.build_type != "RelWithDebInfo") ||
      !build.sanitizers.empty()) {
    std::fprintf(stderr,
                 "refusing to report from a %s%s%s build: only Release and "
                 "RelWithDebInfo numbers count\n",
                 build.build_type.c_str(), build.sanitizers.empty() ? "" : "+",
                 build.sanitizers.c_str());
    return 2;
  }
  const Workload& w = *workload;

  Json expected_doc;
  const Json* expected = nullptr;
  if (!args.expect_path.empty()) {
    std::ifstream in(args.expect_path);
    std::stringstream text;
    text << in.rdbuf();
    Result<Json> parsed = Json::Parse(text.str());
    if (!in || !parsed.ok()) {
      std::fprintf(stderr, "cannot read expectations from %s\n",
                   args.expect_path.c_str());
      return 2;
    }
    expected_doc = std::move(parsed).value();
    const Json* seed = expected_doc.Find("seed");
    if (seed != nullptr &&
        seed->int_value() == static_cast<int64_t>(args.seed)) {
      expected = expected_doc.Find(w.name);
    }
  }

  const int iterations = IterationCount(w, args.seconds);
  const bool trace = args.trace == 1;
  obs::Tracer& tracer = obs::Tracer::Global();
  if (trace) {
    obs::SetObsEnabled(true);
    tracer.SetEnabled(true);
  }
  Checker checker;

  // ---- set-up, several times; the last one is kept for the timed loop ----
  std::vector<double> setup_s;
  Setup setup;
  for (int s = 0; s < kSetups; ++s) {
    setup = Setup{};  // release the previous inputs before generating anew
    const auto start = std::chrono::steady_clock::now();
    Result<Setup> made = MakeSetup(w, args.seed);
    if (!made.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   made.status().ToString().c_str());
      return 1;
    }
    setup = std::move(made).value();
    setup_s.push_back(Seconds(start));
  }
  const Workflow& designed = setup.inputs.spec.workflow;
  const Pipeline& pipeline = *setup.pipeline;
  const size_t num_extracts = setup.inputs.extracts.size();

  // ---- timed iterations ----
  std::vector<double> cycle_s, advise_s, designed_s, adopted_s, qerror;
  std::vector<ExtractFacts> first_facts;
  std::map<std::string, std::vector<double>> layer;  // trace mode
  for (int it = 0; it < iterations; ++it) {
    obs::ScopedSpan iteration_span("bench.iteration");
    double cycle_total = 0, advise_total = 0, designed_total = 0,
           adopted_total = 0, untraced_total = 0;
    std::vector<double> qerrors;
    std::vector<ExtractFacts> facts(num_extracts);
    std::vector<Workflow> adopted_plans(num_extracts, designed);
    LayerCounts counts;
    for (size_t j = 0; j < num_extracts; ++j) {
      const SourceMap& sources = setup.inputs.extracts[j];
      ExtractFacts& f = facts[j];
      std::vector<std::string> errors;

      // The advise cycle; traced, it runs untraced first for the overhead.
      std::string untraced_fingerprint;
      int untraced_selected = -1;
      if (trace) {
        tracer.SetEnabled(false);
        auto start = std::chrono::steady_clock::now();
        Result<CycleOutcome> untraced = pipeline.RunCycle(designed, sources);
        untraced_total += Seconds(start);
        tracer.SetEnabled(true);
        if (untraced.ok() && !untraced->aborted()) {
          untraced_fingerprint =
              obs::FingerprintWorkflow(untraced->opt.optimized);
          untraced_selected = SelectedCount(*untraced->analysis);
        }
      }
      auto start = std::chrono::steady_clock::now();
      Result<CycleOutcome> cycle = pipeline.RunCycle(designed, sources);
      const double cycle_time = Seconds(start);
      if (!cycle.ok() || cycle->aborted()) {
        checker.Op({"cycle: " + (cycle.ok() ? std::string("aborted")
                                            : cycle.status().ToString())});
        continue;
      }
      if (trace) {
        // Tracing must not change what the cycle selects and adopts.
        if (SelectedCount(*cycle->analysis) != untraced_selected ||
            obs::FingerprintWorkflow(cycle->opt.optimized) !=
                untraced_fingerprint) {
          errors.push_back("traced cycle differs from the untraced RunCycle");
        }
        counts.Add(*cycle);
      }
      std::unique_ptr<Analysis> analysis = std::move(cycle->analysis);
      Workflow adopted = std::move(cycle->opt.optimized);
      ExecutionResult exec = std::move(cycle->run.exec);
      const std::vector<CardMap> estimates = std::move(cycle->opt.block_cards);

      start = std::chrono::steady_clock::now();
      const Result<std::vector<CardMap>> truth = [&] {
        obs::ScopedSpan span("engine.truth");
        return GroundTruth(*analysis, exec);
      }();
      const double truth_s = Seconds(start);
      exec = ExecutionResult{};
      if (!truth.ok()) {
        errors.push_back("ground truth: " + truth.status().ToString());
      } else {
        for (size_t b = 0; b < estimates.size() && b < truth->size(); ++b) {
          for (const auto& [se, rows] : estimates[b]) {
            const auto found = (*truth)[b].find(se);
            if (found == (*truth)[b].end()) continue;
            qerrors.push_back(obs::QError(static_cast<double>(rows),
                                          static_cast<double>(found->second)));
          }
        }
      }
      f.selected = SelectedCount(*analysis);
      f.adopted_fingerprint = obs::FingerprintWorkflow(adopted);
      checker.Op(errors);
      cycle_total += cycle_time;
      advise_total += cycle_time + truth_s;

      adopted_plans[j] = std::move(adopted);
    }

    // The payoff: the batch in production, first under the designed plan,
    // then under the adopted plans.
    auto production_run = [&](const Workflow& plan, size_t j, const char* name,
                              double* total, int64_t* rows,
                              std::map<std::string, int64_t>* targets) {
      const auto start = std::chrono::steady_clock::now();
      const Result<ExecutionResult> run = [&] {
        obs::ScopedSpan span(name);
        return ExecutePlan(plan, setup.inputs.production(j), w.num_threads,
                           setup.pool.get());
      }();
      *total += Seconds(start);
      return CheckPlanRun(run, name, rows, targets);
    };
    for (size_t j = 0; j < num_extracts; ++j) {
      checker.Op(production_run(designed, j, "plan.designed", &designed_total,
                                &facts[j].designed_rows, &facts[j].targets));
    }
    for (size_t j = 0; j < num_extracts; ++j) {
      std::map<std::string, int64_t> adopted_targets;
      std::vector<std::string> errors =
          production_run(adopted_plans[j], j, "plan.adopted", &adopted_total,
                         &facts[j].adopted_rows, &adopted_targets);
      if (errors.empty() && adopted_targets != facts[j].targets) {
        errors.push_back("extract " + std::to_string(j) +
                         ": the adopted plan's target row counts differ from "
                         "the designed plan's");
      }
      checker.Op(errors);
    }

    // Batch check: deterministic across iterations, and as committed for
    // the default seed.
    std::vector<std::string> errors;
    const double p95 = P95(std::move(qerrors));
    if (it == 0) {
      first_facts = facts;
    } else if (facts != first_facts) {
      errors.push_back("outputs differ between iterations");
    }
    if (expected != nullptr) {
      for (const std::string& e : Facts(facts, p95).Compare(*expected)) {
        errors.push_back(e);
      }
    }
    checker.Op(errors);
    cycle_s.push_back(cycle_total);
    advise_s.push_back(advise_total);
    designed_s.push_back(designed_total);
    adopted_s.push_back(adopted_total);
    qerror.push_back(p95);

    if (trace) {
      for (const auto& [name, value] : counts.sum) layer[name].push_back(value);
      for (const auto& [name, value] : counts.max) layer[name].push_back(value);
      int64_t designed_rows = 0, adopted_rows = 0;
      for (const ExtractFacts& f : facts) {
        designed_rows += f.designed_rows;
        adopted_rows += f.adopted_rows;
      }
      layer["optimizer.designed_rows"].push_back(
          static_cast<double>(designed_rows));
      layer["optimizer.adopted_rows"].push_back(
          static_cast<double>(adopted_rows));
      layer["trace.cycle_s"].push_back(cycle_total);
      layer["trace.untraced_cycle_s"].push_back(untraced_total);
    }
  }

  // Per-layer times of every iteration (and the data generation of every
  // set-up), from the spans that start inside it.
  std::vector<double> generate;
  if (trace) {
    tracer.SetEnabled(false);
    Result<std::vector<TraceSpan>> spans = TracedSpans();
    if (!spans.ok()) {
      checker.Op({"trace: " + spans.status().ToString()});
    } else {
      std::vector<std::string> errors;
      for (const TraceSpan& window : *spans) {
        const double end = window.start_s + window.dur_s;
        if (window.name == "bench.setup") {
          generate.push_back(
              LayerSeconds(*spans, window.start_s, end)["datagen"]);
        }
        if (window.name != "bench.iteration") continue;
        std::map<std::string, double> t =
            LayerSeconds(*spans, window.start_s, end);
        if (t["cycle"] <= 0.0) {
          errors.push_back("the tracer recorded no advise cycle");
        }
        const double execute = t["engine.execute"];
        layer["planspace.build_s"].push_back(t["planspace"]);
        layer["css.generate_s"].push_back(t["css"]);
        layer["opt.select_s"].push_back(t["opt"]);
        layer["estimator.derive_s"].push_back(t["estimator"]);
        layer["optimizer.join_s"].push_back(t["optimizer"]);
        layer["engine.execute_s"].push_back(execute);
        layer["engine.observe_s"].push_back(t["engine.observe"]);
        layer["engine.truth_s"].push_back(t["engine.truth"]);
        layer["parallel.execute_s"].push_back(t["parallel.execute"]);
        const size_t k = layer["engine.execute_s"].size() - 1;
        const std::vector<double>& rows = layer["engine.rows"];
        layer["engine.rows_per_s"].push_back(
            execute > 0 && k < rows.size() ? rows[k] / execute : 0.0);
      }
      checker.Op(errors);
    }
  }
  const double peak_rss_mb = PeakRssMb();

  if (w.num_threads > 1 && first_facts.size() == num_extracts) {
    for (size_t j = 0; j < num_extracts; ++j) {
      checker.Op(CheckSerialReference(w, setup, first_facts, j));
    }
  }

  if (trace && !args.spans_out.empty()) {
    const Status written = tracer.WriteChromeTrace(args.spans_out);
    if (!written.ok()) {
      std::fprintf(stderr, "cannot write spans: %s\n",
                   written.ToString().c_str());
    }
  }

  // ---- report ----
  auto list = [](const std::vector<double>& values) {
    std::string out = "[";
    for (double v : values) out += (out.size() > 1 ? ", " : "") + Num(v);
    return out + "]";
  };
  const std::string samples =
      "{\"setup_s\": " + list(setup_s) + ", \"cycle_s\": " + list(cycle_s) +
      ", \"advise_s\": " + list(advise_s) + ", \"designed_run_s\": " +
      list(designed_s) + ", \"adopted_run_s\": " + list(adopted_s) + "}";
  std::string errors_json = "[";
  for (const std::string& e : checker.errors) {
    if (errors_json.size() > 1) errors_json += ", ";
    errors_json += Quote(e);
  }
  errors_json += "]";
  const Facts facts(first_facts, Median(qerror));
  std::printf(
      "{\"workload\": %s, \"seed\": %llu, \"trace\": %d, \"extracts\": %zu, "
      "\"build\": {\"type\": %s, \"compiler\": %s, \"sha\": %s, "
      "\"sanitizers\": %s}, \"nproc\": %ld, \"samples\": %s, \"facts\": %s, "
      "\"checked_against_expected\": %s, \"errors\": %s}\n",
      Quote(w.name).c_str(), static_cast<unsigned long long>(args.seed),
      args.trace, num_extracts, Quote(build.build_type).c_str(),
      Quote(build.compiler).c_str(), Quote(build.git_sha).c_str(),
      Quote(build.sanitizers).c_str(), sysconf(_SC_NPROCESSORS_ONLN),
      samples.c_str(), facts.ToJson().c_str(),
      expected != nullptr ? "true" : "false", errors_json.c_str());

  std::vector<std::pair<std::string, std::pair<double, const char*>>> metrics;
  if (!trace) {
    metrics = {
        {"setup_s", {Median(setup_s), "s"}},
        {"cycle_s", {Median(cycle_s), "s"}},
        {"advise_s", {Median(advise_s), "s"}},
        {"designed_run_s", {Median(designed_s), "s"}},
        {"adopted_run_s", {Median(adopted_s), "s"}},
        {"peak_rss_mb", {peak_rss_mb, "MB"}},
        {"card_qerror_p95", {Median(qerror), "ratio"}},
    };
  } else {
    metrics.push_back({"datagen.generate_s", {Median(generate), "s"}});
    const std::vector<std::pair<const char*, const char*>> per_layer = {
        {"planspace.build_s", "s"},       {"planspace.subexpressions", "count"},
        {"css.generate_s", "s"},          {"css.candidates", "count"},
        {"css.statistics", "count"},      {"opt.select_s", "s"},
        {"opt.selected", "count"},        {"opt.cost", "units"},
        {"estimator.derive_s", "s"},      {"estimator.cards", "count"},
        {"optimizer.join_s", "s"},        {"engine.execute_s", "s"},
        {"engine.rows", "count"},         {"engine.bytes", "bytes"},
        {"engine.rows_per_s", "1/s"},     {"engine.retained_mb", "MB"},
        {"engine.observe_s", "s"},        {"engine.taps_exact", "count"},
        {"engine.taps_sketch", "count"},  {"engine.tap_bytes", "bytes"},
        {"engine.truth_s", "s"},          {"parallel.execute_s", "s"},
        {"parallel.merge_s", "s"},        {"parallel.skew", "ratio"},
        {"parallel.partitions", "count"}, {"optimizer.designed_rows", "count"},
        {"optimizer.adopted_rows", "count"}, {"trace.cycle_s", "s"},
    };
    for (const auto& [name, unit] : per_layer) {
      metrics.push_back({name, {Median(layer[name]), unit}});
    }
    const double untraced = Median(layer["trace.untraced_cycle_s"]);
    metrics.push_back(
        {"trace.overhead_ratio",
         {untraced > 0 ? Median(layer["trace.cycle_s"]) / untraced : 0.0,
          "ratio"}});
  }
  std::string metrics_json = "{";
  for (const auto& [name, value] : metrics) {
    if (metrics_json.size() > 1) metrics_json += ", ";
    metrics_json += Quote(name) + ": {\"value\": " + Num(value.first) +
                    ", \"unit\": " + Quote(value.second) + "}";
  }
  metrics_json += "}";
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              checker.failed == 0 ? "true" : "false",
              static_cast<long long>(checker.attempted),
              static_cast<long long>(checker.failed), metrics_json.c_str());
  return 0;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) { return e2ebench::Main(argc, argv); }
