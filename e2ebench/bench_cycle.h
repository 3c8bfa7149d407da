#ifndef ETLOPT_E2EBENCH_BENCH_CYCLE_H_
#define ETLOPT_E2EBENCH_BENCH_CYCLE_H_

// Workload table of the end-to-end benchmark, and the split of a traced
// advise cycle into layers.
//
// The traced run times Pipeline::RunCycle itself with the library's tracer
// (obs::Tracer::Global()) switched on. The pipeline already wraps each step
// of the cycle in a span (pipeline.plan_space, pipeline.css_generation,
// pipeline.selection, pipeline.run_and_observe, pipeline.observation,
// pipeline.estimation, pipeline.join_optimization, pipeline.rewrite);
// LayerSeconds turns those spans into per-layer times.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/pipeline.h"
#include "datagen/workload_suite.h"

namespace e2ebench {

// One benchmark workload. A run's input is a batch of `extracts`
// independently generated source sets (the daily loads a deployed workflow
// sees); one timed iteration advises and runs every extract of the batch.
// Batching is what keeps the numbers steady across seeds: the joins of the
// suite's skewed workflows vary by 10 to 25% in size from one extract to
// the next, and a batch total averages that out.
struct Workload {
  std::string name;
  int suite_index = 0;  // BuildWorkload(i)
  int extracts = 1;
  // Row scale of the instrumented advise runs.
  double scale = 0.0;
  // Row scale of the production runs of the designed and adopted plans.
  // Equal to `scale` unless one plan execution at the advise scale is too
  // short to time.
  double run_scale = 0.0;
  int num_threads = 1;
  int64_t tap_budget_bytes = 0;  // 0: exact taps
  // Nominal seconds of one timed iteration on the reference box. The run
  // length fixes the iteration count as seconds / nominal (at least three),
  // so a run's count depends only on its arguments and peak RSS compares
  // like with like.
  double nominal_iteration_s = 1.0;
  // Extracts the untimed warm-up of a set-up runs the designed plan over.
  // More than one evens out the size of a single extract, so the set-up
  // time varies less from seed to seed.
  int warmup_extracts = 1;
};

const std::vector<Workload>& Workloads();
const Workload* FindWorkload(std::string_view name);
int IterationCount(const Workload& workload, double seconds);

// Pipeline options of a workload, set field by field. Pipeline still reads
// ETLOPT_* environment variables for fields left at 0 or empty (the tap
// budget of an exact-tap workload, the calibration), and the library reads
// others (kernels, faults, profiler, obs switch); run.py therefore starts
// the benchmark with every ETLOPT_* variable removed from its environment.
etlopt::PipelineOptions MakePipelineOptions(const Workload& workload);

// The generated inputs of one workload run: extract j is generated with
// seed * 1000 + j.
struct WorkloadInputs {
  etlopt::WorkloadSpec spec;
  std::vector<etlopt::SourceMap> extracts;      // advise scale
  std::vector<etlopt::SourceMap> run_extracts;  // production scale, if other

  const etlopt::SourceMap& production(size_t j) const {
    return run_extracts.empty() ? extracts[j] : run_extracts[j];
  }
};
WorkloadInputs GenerateInputs(const Workload& workload, uint64_t seed);

// One complete span recorded by obs::Tracer::Global(); times in seconds
// since the tracer's epoch.
struct TraceSpan {
  std::string name;
  double start_s = 0.0;
  double dur_s = 0.0;
};

// Every complete span the global tracer holds, read back from its Chrome
// trace document.
etlopt::Result<std::vector<TraceSpan>> TracedSpans();

// Seconds per layer over the spans that start in [from_s, to_s): "cycle",
// "planspace", "css", "opt", "engine.execute", "parallel.execute",
// "engine.observe", "estimator" and "optimizer" for the advise cycles, and
// the total of every other span name (such as the benchmark's own
// "engine.truth" and "datagen") under that name. A layer is a pipeline
// step's span minus the steps nested in it: "opt" is pipeline.analyze less plan space and CSS
// generation (BuildSelectionProblem and the selector), "engine.execute" is
// pipeline.run_and_observe less the observation, "estimator" is
// pipeline.optimize less join optimization and rewrite (DeriveAll,
// AllCardinalities and the guard's adoption gate). "parallel.execute"
// counts only the partitioned runs made inside a cycle.
std::map<std::string, double> LayerSeconds(const std::vector<TraceSpan>& spans,
                                           double from_s, double to_s);

// One uninstrumented execution of `workflow` with the workload's executor:
// serial for one thread, partitioned on `pool` otherwise.
etlopt::Result<etlopt::ExecutionResult> ExecutePlan(
    const etlopt::Workflow& workflow, const etlopt::SourceMap& sources,
    int num_threads, etlopt::ThreadPool* pool);

// Total statistics selected over all blocks of an analysis.
int SelectedCount(const etlopt::Analysis& analysis);

}  // namespace e2ebench

#endif  // ETLOPT_E2EBENCH_BENCH_CYCLE_H_
