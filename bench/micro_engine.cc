// Micro-benchmarks for the execution engine: hash join, workflow execution,
// instrumented observation and ground truth.

#include <benchmark/benchmark.h>

#include "core/pipeline.h"
#include "datagen/workload_suite.h"
#include "obs/build_info.h"

namespace etlopt {
namespace {

void BM_HashJoin(benchmark::State& state) {
  const int64_t rows = state.range(0);
  AttrCatalog catalog;
  const AttrId k = catalog.Register("k", 1000);
  const AttrId x = catalog.Register("x", 100);
  Rng rng(9);
  Table left{Schema({k, x})};
  for (int64_t i = 0; i < rows; ++i) {
    left.AddRow({rng.NextInRange(1, 1000), rng.NextInRange(1, 100)});
  }
  Table right{Schema({k})};
  for (int64_t i = 0; i < rows / 4; ++i) {
    right.AddRow({rng.NextInRange(1, 1000)});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(HashJoin(left, right, k, nullptr).num_rows());
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_HashJoin)->Arg(10000)->Arg(100000);

// One serial production run of workload N at scale 0.05 (a join builds
// reject tables only for a designed reject link); wf21 is the 8-way join.
void BM_ExecuteWorkflow(benchmark::State& state) {
  const WorkloadSpec spec = BuildWorkload(static_cast<int>(state.range(0)));
  const SourceMap sources = GenerateSources(spec, 3, 0.05);
  Executor executor(&spec.workflow);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        executor.Execute(sources).value().rows_processed);
  }
}
BENCHMARK(BM_ExecuteWorkflow)->Arg(3)->Arg(5)->Arg(12)->Arg(21)
    ->Unit(benchmark::kMillisecond);

// Repeated cycles on one Pipeline: from the second on, each reuses the
// first cycle's analysis (blocks, CSS, selection), as a long-lived Pipeline
// does for an unchanged workflow.
void BM_FullPipelineCycle(benchmark::State& state) {
  const WorkloadSpec spec = BuildWorkload(static_cast<int>(state.range(0)));
  const SourceMap sources = GenerateSources(spec, 3, 0.02);
  Pipeline pipeline;
  for (auto _ : state) {
    const Result<CycleOutcome> cycle =
        pipeline.RunCycle(spec.workflow, sources);
    benchmark::DoNotOptimize(cycle.ok());
  }
}
BENCHMARK(BM_FullPipelineCycle)->Arg(3)->Arg(9)->Arg(22)
    ->Unit(benchmark::kMillisecond);

void BM_ObserveStatistics(benchmark::State& state) {
  const WorkloadSpec spec = BuildWorkload(3);
  const SourceMap sources = GenerateSources(spec, 3, 0.05);
  Pipeline pipeline;
  const auto analysis = pipeline.Analyze(spec.workflow).value();
  const BlockAnalysis& ba = *analysis->blocks[0];
  const std::vector<StatKey> keys = ba.selection.ObservedKeys(ba.catalog);
  ExecutorOptions exec_options;
  exec_options.retain_node_outputs = true;  // the taps read them
  AddRejectTableDemand(ba.ctx, keys, &exec_options.reject_sides);
  Executor executor(analysis->workflow.get(), exec_options);
  const ExecutionResult exec = executor.Execute(sources).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ObserveStatistics(ba.ctx, exec, keys).value().size());
  }
}
BENCHMARK(BM_ObserveStatistics)->Unit(benchmark::kMillisecond);

// Ground truth of every block's plan space over one instrumented run.
// Args: workload index, scale in thousandths. wf12 is a snowflake, wf18 a
// chain (nearly every row of a root carries its own tuple of message
// values), wf19 the 7-way star and wf21 the 8-way star.
void BM_GroundTruthCards(benchmark::State& state) {
  const WorkloadSpec spec = BuildWorkload(static_cast<int>(state.range(0)));
  const SourceMap sources =
      GenerateSources(spec, 3, static_cast<double>(state.range(1)) / 1000.0);
  Pipeline pipeline;
  const auto analysis = pipeline.Analyze(spec.workflow).value();
  const RunOutcome run = pipeline.RunAndObserve(*analysis, sources).value();
  for (auto _ : state) {
    for (const auto& ba : analysis->blocks) {
      benchmark::DoNotOptimize(
          ComputeGroundTruthCards(ba->ctx, ba->plan_space.subexpressions(),
                                  run.exec)
              .value()
              .size());
    }
  }
}
BENCHMARK(BM_GroundTruthCards)->Args({12, 20})->Args({18, 10})
    ->Args({19, 50})->Args({21, 50})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace etlopt

int main(int argc, char** argv) {
  const etlopt::obs::BuildInfo& build = etlopt::obs::CurrentBuildInfo();
  benchmark::AddCustomContext("etlopt_build_type", build.build_type);
  benchmark::AddCustomContext("etlopt_compiler", build.compiler);
  benchmark::AddCustomContext("etlopt_git_sha", build.git_sha);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
