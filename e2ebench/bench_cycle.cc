#include "bench_cycle.h"

#include <algorithm>
#include <cmath>

#include "engine/parallel/parallel_executor.h"
#include "obs/trace.h"
#include "util/json.h"

namespace e2ebench {

using namespace etlopt;

const std::vector<Workload>& Workloads() {
  // plan_heavy: wf21's 8-way join makes statistics selection and estimation
  //   dominate the cycle. Its join sizes do not depend on the seed, so one
  //   extract suffices; its plan executions at the advise scale last a few
  //   milliseconds, so the production runs use the paper-scale rows.
  // parallel_sketch: wf12 (5-table snowflake over skewed keys) through the
  //   partitioned executor, its merge barrier and sketch taps (1 MiB
  //   budget), on 2 of the 4 cores; joins and ground truth do the work and
  //   the adopted plans process a third of the designed plan's rows.
  static const std::vector<Workload> workloads = {
      {"plan_heavy", 21, 1, 0.05, 1.0, 1, 0, 8.0, 1},
      {"parallel_sketch", 12, 20, 0.02, 0.02, 2, int64_t{1} << 20, 13.0, 8},
  };
  return workloads;
}

const Workload* FindWorkload(std::string_view name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

int IterationCount(const Workload& workload, double seconds) {
  constexpr int kMinIterations = 3;  // the fewest samples a median needs
  const double n = std::floor(seconds / workload.nominal_iteration_s);
  return std::max(kMinIterations, static_cast<int>(n));
}

PipelineOptions MakePipelineOptions(const Workload& workload) {
  PipelineOptions options;
  options.executor = ExecutorOptions{};
  options.guard = obs::GuardOptions{};
  options.num_threads = workload.num_threads;
  options.tap_memory_budget_bytes = workload.tap_budget_bytes;
  options.checkpoint_every_rows = 100000;
  return options;
}

WorkloadInputs GenerateInputs(const Workload& workload, uint64_t seed) {
  WorkloadInputs inputs;
  inputs.spec = BuildWorkload(workload.suite_index);
  for (int j = 0; j < workload.extracts; ++j) {
    const uint64_t extract_seed = seed * 1000 + static_cast<uint64_t>(j);
    inputs.extracts.push_back(
        GenerateSources(inputs.spec, extract_seed, workload.scale));
    if (workload.run_scale != workload.scale) {
      inputs.run_extracts.push_back(
          GenerateSources(inputs.spec, extract_seed, workload.run_scale));
    }
  }
  return inputs;
}

Result<std::vector<TraceSpan>> TracedSpans() {
  ETLOPT_ASSIGN_OR_RETURN(
      const Json doc, Json::Parse(obs::Tracer::Global().ChromeTraceJson()));
  std::vector<TraceSpan> spans;
  const Json* events = doc.Find("traceEvents");
  if (events == nullptr) return spans;
  for (const Json& event : events->array()) {
    if (event.GetString("ph") != "X") continue;
    spans.push_back(TraceSpan{event.GetString("name"),
                              event.GetDouble("ts") * 1e-6,
                              event.GetDouble("dur") * 1e-6});
  }
  return spans;
}

std::map<std::string, double> LayerSeconds(const std::vector<TraceSpan>& spans,
                                           double from_s, double to_s) {
  // Total seconds per span name, and the cycles' execute-and-observe
  // windows, which tell a cycle's partitioned run from a production run.
  std::map<std::string, double> total;
  std::vector<const TraceSpan*> observed_runs;
  for (const TraceSpan& span : spans) {
    if (span.start_s < from_s || span.start_s >= to_s) continue;
    total[span.name] += span.dur_s;
    if (span.name == "pipeline.run_and_observe") observed_runs.push_back(&span);
  }
  double cycle_parallel = 0.0;
  for (const TraceSpan& span : spans) {
    if (span.name != "engine.parallel_execute") continue;
    for (const TraceSpan* run : observed_runs) {
      if (span.start_s >= run->start_s &&
          span.start_s < run->start_s + run->dur_s) {
        cycle_parallel += span.dur_s;
        break;
      }
    }
  }

  std::map<std::string, double> layers = total;
  auto t = [&](const char* name) {
    const auto it = total.find(name);
    return it == total.end() ? 0.0 : it->second;
  };
  layers["cycle"] = t("pipeline.cycle");
  layers["planspace"] = t("pipeline.plan_space");
  layers["css"] = t("pipeline.css_generation");
  layers["opt"] = t("pipeline.analyze") - layers["planspace"] - layers["css"];
  layers["engine.observe"] = t("pipeline.observation");
  layers["engine.execute"] =
      t("pipeline.run_and_observe") - layers["engine.observe"];
  layers["parallel.execute"] = cycle_parallel;
  layers["optimizer"] = t("pipeline.join_optimization") + t("pipeline.rewrite");
  layers["estimator"] = t("pipeline.optimize") - layers["optimizer"];
  return layers;
}

Result<ExecutionResult> ExecutePlan(const Workflow& workflow,
                                    const SourceMap& sources, int num_threads,
                                    ThreadPool* pool) {
  if (num_threads > 1) {
    parallel::ParallelOptions popts;
    popts.num_threads = num_threads;
    const parallel::ParallelExecutor executor(&workflow, popts);
    ETLOPT_ASSIGN_OR_RETURN(parallel::ParallelResult result,
                            executor.Execute(sources, pool));
    return std::move(result.exec);
  }
  const Executor executor(&workflow);
  return executor.Execute(sources);
}

int SelectedCount(const Analysis& analysis) {
  int selected = 0;
  for (const auto& ba : analysis.blocks) {
    selected += static_cast<int>(ba->selection.observed.size());
  }
  return selected;
}

}  // namespace e2ebench
