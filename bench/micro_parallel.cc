// Partitioned-executor micro-benchmarks: the worker scaling curve of a
// 1e6-row filter+join workload at 1/2/4/8 workers, the same workload under
// worst-case partition skew (every row hashes to one partition, so one
// worker does all the work while the rest idle at the barrier), and a suite
// workflow's designed plan as a production run, serial and on a reused
// pool (BM_ProductionRun/12/N: the wf12 snowflake at scale 0.02). Every run
// reports the fan-out and skew it actually measured as benchmark counters,
// and the executor's merge-barrier time is surfaced as merge_ms so gather
// cost is never hidden inside the scaling numbers. The JSON context carries
// the library's build (etlopt_build_type, etlopt_compiler, etlopt_git_sha)
// next to google-benchmark's CPU count: scaling past num_cpus is not
// observable, and a debug library's curve is not evidence.
//
//   ./build/bench/micro_parallel --benchmark_out=BENCH_parallel.json
//                                --benchmark_out_format=json

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "datagen/workload_suite.h"
#include "engine/parallel/parallel_executor.h"
#include "engine/parallel/partition.h"
#include "etl/workflow_builder.h"
#include "obs/build_info.h"
#include "util/random.h"

namespace etlopt {
namespace {

constexpr int64_t kRows = 1000000;
constexpr int64_t kKeyDomain = 4096;

struct Workload {
  Workflow workflow;
  SourceMap sources;
};

// Fact(k, v) 1e6 rows -> filter(v < 12) -> join Dim(k) -> sink. With
// `skewed` every fact row carries the same key, so hash partitioning puts
// the whole table in one partition — the worst case the skew counter in
// --obs-summary exists to expose.
Workload MakeWorkload(bool skewed) {
  WorkflowBuilder b(skewed ? "bench_parallel_skew" : "bench_parallel");
  const AttrId k = b.DeclareAttr("k", kKeyDomain);
  const AttrId v = b.DeclareAttr("v", 16);
  const NodeId fact = b.Source("Fact", {k, v});
  const NodeId dim = b.Source("Dim", {k});
  const NodeId f = b.Filter(fact, {v, CompareOp::kLt, 12});
  const NodeId j = b.Join(f, dim, k);
  b.Sink(j, "bench.out");

  Workload w;
  w.workflow = std::move(b).Build().value();
  Rng rng(1234);
  Table fact_t{Schema({k, v})};
  fact_t.Reserve(kRows);
  for (int64_t i = 0; i < kRows; ++i) {
    fact_t.AddRow({skewed ? Value{7} : rng.NextInRange(1, kKeyDomain),
                   rng.NextInRange(1, 16)});
  }
  Table dim_t{Schema({k})};
  for (int64_t i = 1; i <= kKeyDomain; i += 2) dim_t.AddRow({i});
  w.sources["Fact"] = std::move(fact_t);
  w.sources["Dim"] = std::move(dim_t);
  return w;
}

void RunExecutorBench(benchmark::State& state, const Workload& w) {
  const int threads = static_cast<int>(state.range(0));
  parallel::ParallelOptions opts;
  opts.num_threads = threads;
  const parallel::ParallelExecutor exec(&w.workflow, opts);
  int64_t merge_ns = 0;
  double skew = 0.0;
  int partitions = 0;
  for (auto _ : state) {
    auto result = exec.Execute(w.sources);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      break;
    }
    merge_ns = result->exec.merge_ns;
    skew = result->exec.partition_skew;
    partitions = result->exec.partitions_total;
    benchmark::DoNotOptimize(result->exec.rows_processed);
  }
  state.SetItemsProcessed(state.iterations() * kRows);
  state.counters["workers"] = threads;
  state.counters["partitions"] = partitions;
  state.counters["skew"] = skew;
  state.counters["merge_ms"] = static_cast<double>(merge_ns) / 1e6;
}

void BM_ParallelExecute(benchmark::State& state) {
  static const Workload* w = new Workload(MakeWorkload(/*skewed=*/false));
  RunExecutorBench(state, *w);
}
BENCHMARK(BM_ParallelExecute)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

void BM_ParallelExecuteSkewWorstCase(benchmark::State& state) {
  static const Workload* w = new Workload(MakeWorkload(/*skewed=*/true));
  RunExecutorBench(state, *w);
}
BENCHMARK(BM_ParallelExecuteSkewWorstCase)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

// Suite workflow N's designed plan at scale 0.02 as a production run (no
// taps, no retained outputs; a join builds reject tables only for a
// designed reject link) at `threads` workers, one pool reused across
// iterations as a long-lived service would. Args: workload index, threads.
void BM_ProductionRun(benchmark::State& state) {
  const WorkloadSpec spec = BuildWorkload(static_cast<int>(state.range(0)));
  const SourceMap sources = GenerateSources(spec, /*seed=*/3, 0.02);
  const int threads = static_cast<int>(state.range(1));
  parallel::ParallelOptions opts;
  opts.num_threads = threads;
  const parallel::ParallelExecutor exec(&spec.workflow, opts);
  ThreadPool pool(threads);
  int64_t merge_ns = 0;
  int64_t rows = 0;
  for (auto _ : state) {
    auto result = exec.Execute(sources, &pool);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      break;
    }
    merge_ns = result->exec.merge_ns;
    rows = result->exec.rows_processed;
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(state.iterations() * rows);
  state.counters["workers"] = threads;
  state.counters["merge_ms"] = static_cast<double>(merge_ns) / 1e6;
}
BENCHMARK(BM_ProductionRun)
    ->Args({12, 1})
    ->Args({12, 2})
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

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
