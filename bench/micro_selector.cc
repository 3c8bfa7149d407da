// Micro-benchmarks for the statistics selectors (Section 5), the
// computability closure, and the whole analysis (steps 1-4) with and without
// reuse across calls.

#include <benchmark/benchmark.h>

#include <vector>

#include "core/pipeline.h"
#include "css/generator.h"
#include "datagen/workload_suite.h"
#include "obs/build_info.h"
#include "opt/closure.h"
#include "opt/greedy_selector.h"
#include "opt/ilp_selector.h"

namespace etlopt {
namespace {

struct Prepared {
  WorkloadSpec spec;
  std::vector<BlockContext> contexts;
  std::vector<PlanSpace> spaces;
  std::vector<CssCatalog> catalogs;
  std::vector<SelectionProblem> problems;
};

Prepared Prepare(int index) {
  Prepared p;
  p.spec = BuildWorkload(index);
  for (const Block& b : PartitionBlocks(p.spec.workflow)) {
    p.contexts.push_back(BlockContext::Build(&p.spec.workflow, b).value());
  }
  for (const BlockContext& ctx : p.contexts) {
    p.spaces.push_back(PlanSpace::Build(ctx).value());
  }
  for (size_t i = 0; i < p.contexts.size(); ++i) {
    p.catalogs.push_back(GenerateCss(p.contexts[i], p.spaces[i], {}));
  }
  for (size_t i = 0; i < p.contexts.size(); ++i) {
    CostModel cm(&p.spec.workflow.catalog(), {});
    p.problems.push_back(BuildSelectionProblem(p.contexts[i], p.spaces[i],
                                               p.catalogs[i], cm));
    p.problems.back().catalog = &p.catalogs[i];
  }
  return p;
}

void BM_Closure(benchmark::State& state) {
  const Prepared p = Prepare(static_cast<int>(state.range(0)));
  // Observe everything observable: worst-case closure propagation.
  std::vector<std::vector<char>> observed;
  for (const SelectionProblem& problem : p.problems) {
    observed.push_back(problem.observable);
  }
  for (auto _ : state) {
    size_t computable = 0;
    for (size_t i = 0; i < p.problems.size(); ++i) {
      const auto flags = ComputeClosure(p.catalogs[i], observed[i]);
      computable += static_cast<size_t>(
          std::count(flags.begin(), flags.end(), char{1}));
    }
    benchmark::DoNotOptimize(computable);
  }
}
BENCHMARK(BM_Closure)->Arg(3)->Arg(13)->Arg(21);

void BM_GreedySelect(benchmark::State& state) {
  const Prepared p = Prepare(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    double cost = 0;
    for (const SelectionProblem& problem : p.problems) {
      cost += SelectGreedy(problem).total_cost;
    }
    benchmark::DoNotOptimize(cost);
  }
}
BENCHMARK(BM_GreedySelect)
    ->Arg(3)
    ->Arg(13)
    ->Arg(19)
    ->Arg(21)
    ->Arg(30)
    ->Unit(benchmark::kMillisecond);

// SelectGreedyWithBudget at half of each block's unbudgeted cost: the pass
// defers every pending statistic whose bundle no longer fits.
void BM_GreedySelectWithBudget(benchmark::State& state) {
  const Prepared p = Prepare(static_cast<int>(state.range(0)));
  std::vector<double> budgets;
  for (const SelectionProblem& problem : p.problems) {
    budgets.push_back(SelectGreedy(problem).total_cost / 2);
  }
  std::vector<int> uncovered;
  for (auto _ : state) {
    double cost = 0;
    for (size_t i = 0; i < p.problems.size(); ++i) {
      cost += SelectGreedyWithBudget(p.problems[i], budgets[i], &uncovered)
                  .total_cost;
    }
    benchmark::DoNotOptimize(cost);
  }
}
BENCHMARK(BM_GreedySelectWithBudget)->Arg(21)->Unit(benchmark::kMillisecond);

void BM_IlpSelectSmall(benchmark::State& state) {
  const Prepared p = Prepare(static_cast<int>(state.range(0)));
  IlpSelectorOptions options;
  options.time_limit_seconds = 1.0;
  options.max_nodes = 500;
  for (auto _ : state) {
    double cost = 0;
    for (const SelectionProblem& problem : p.problems) {
      cost += SelectIlp(problem, options).total_cost;
    }
    benchmark::DoNotOptimize(cost);
  }
}
BENCHMARK(BM_IlpSelectSmall)->Arg(3)->Arg(22)->Unit(benchmark::kMillisecond);

// Pipeline::Analyze of workload N (blocks, plan spaces, CSS, selection):
// /N/0 on a fresh Pipeline per call, /N/1 on one Pipeline whose previous
// analysis of the unchanged workflow is reused.
void BM_Analyze(benchmark::State& state) {
  const WorkloadSpec spec = BuildWorkload(static_cast<int>(state.range(0)));
  const bool reuse = state.range(1) == 1;
  PipelineOptions options;
  options.executor = ExecutorOptions{};
  options.guard = obs::GuardOptions{};
  options.num_threads = 1;
  const Pipeline shared(options);
  if (reuse && !shared.Analyze(spec.workflow).ok()) {
    state.SkipWithError("analysis failed");
    return;
  }
  for (auto _ : state) {
    Result<std::unique_ptr<Analysis>> analysis =
        reuse ? shared.Analyze(spec.workflow)
              : Pipeline(options).Analyze(spec.workflow);
    benchmark::DoNotOptimize(analysis);
  }
}
BENCHMARK(BM_Analyze)
    ->Args({21, 0})
    ->Args({21, 1})
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
