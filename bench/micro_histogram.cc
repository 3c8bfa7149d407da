// Micro-benchmarks for the histogram algebra (the estimator's hot path),
// from single kernels up to a whole Estimator::DeriveAll (and the pipeline's
// demanded derivation of the SE cardinalities) over a workload's observed
// statistics.

#include <benchmark/benchmark.h>

#include "core/pipeline.h"
#include "datagen/workload_suite.h"
#include "obs/build_info.h"
#include "stats/histogram.h"
#include "util/random.h"

namespace etlopt {
namespace {

Histogram RandomHist(int64_t buckets, int64_t domain, uint64_t seed,
                     AttrMask attrs = 0b01) {
  Rng rng(seed);
  Histogram h(attrs);
  const int arity = PopCount(attrs);
  for (int64_t i = 0; i < buckets; ++i) {
    std::vector<Value> key;
    for (int a = 0; a < arity; ++a) key.push_back(rng.NextInRange(1, domain));
    h.Add(key, rng.NextInRange(1, 50));
  }
  return h;
}

void BM_HistogramBuild(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(5);
  std::vector<Value> values(static_cast<size_t>(n));
  for (auto& v : values) v = rng.NextInRange(1, 10000);
  for (auto _ : state) {
    Histogram h(0b01);
    for (Value v : values) h.Add1(v);
    benchmark::DoNotOptimize(h.TotalCount());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_HistogramBuild)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_DotProduct(benchmark::State& state) {
  const Histogram a = RandomHist(state.range(0), 100000, 1);
  const Histogram b = RandomHist(state.range(0), 100000, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Histogram::DotProduct(a, b));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DotProduct)->Arg(1000)->Arg(10000)->Arg(100000);

// The low `arity` attribute bits.
AttrMask LowMask(int64_t arity) { return (AttrMask{1} << arity) - 1; }

// J2 multiply-through: an arity-k histogram scaled by a one-attribute
// histogram over its first attribute.
void BM_MultiplyBy(benchmark::State& state) {
  const int64_t arity = state.range(0);
  const Histogram a = RandomHist(state.range(1), 3000, 3, LowMask(arity));
  const Histogram b = RandomHist(3000, 3000, 4, 0b01);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Histogram::MultiplyBy(a, b).TotalCount());
  }
  state.SetItemsProcessed(state.iterations() * state.range(1));
}
BENCHMARK(BM_MultiplyBy)
    ->ArgNames({"arity", "buckets"})
    ->Args({2, 1000})
    ->Args({2, 10000})
    ->Args({3, 100000})
    ->Args({5, 100000});

// I2 marginalization: an arity-k histogram down to its first `keep`
// attributes; keeping one gives few output buckets, keeping all but the
// last about as many as the input.
void BM_Marginalize(benchmark::State& state) {
  const Histogram a =
      RandomHist(state.range(1), 3000, 5, LowMask(state.range(0)));
  const AttrMask keep = LowMask(state.range(2));
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Marginalize(keep).TotalCount());
  }
  state.SetItemsProcessed(state.iterations() * state.range(1));
}
BENCHMARK(BM_Marginalize)
    ->ArgNames({"arity", "buckets", "keep"})
    ->Args({3, 1000, 1})
    ->Args({3, 10000, 1})
    ->Args({3, 100000, 2})
    ->Args({5, 100000, 4});

void BM_UnionDivision(benchmark::State& state) {
  // Multiply then divide — the Eq. 2-3 round trip.
  const Histogram t_prime = RandomHist(state.range(0), 500, 6);
  Histogram t3(0b01);
  for (Value v = 1; v <= 500; ++v) t3.Add1(v, (v % 7) + 1);
  const Histogram joined = Histogram::MultiplyBy(t_prime, t3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Histogram::DivideBy(joined, t3).TotalCount());
  }
}
BENCHMARK(BM_UnionDivision)->Arg(100)->Arg(1000);

// Estimator::DeriveAll over every block of suite workload N, from the
// statistics one serial exact-tap run observed at scale 0.05 (the advise
// scale of the end-to-end plan_heavy workload for wf21: 1,107 derived
// statistics, 1.1 M buckets). With `cards_only`, the pipeline's demanded
// derivation instead: Card(se) of every SE and what those read.
void DeriveBench(benchmark::State& state, bool cards_only) {
  const WorkloadSpec spec = BuildWorkload(static_cast<int>(state.range(0)));
  const SourceMap sources = GenerateSources(spec, 7, 0.05);
  PipelineOptions options;
  options.num_threads = 1;
  const Pipeline pipeline(options);
  const auto analysis = pipeline.Analyze(spec.workflow).value();
  const RunOutcome run = pipeline.RunAndObserve(*analysis, sources).value();
  std::vector<std::vector<StatKey>> demand;
  for (const auto& ba : analysis->blocks) {
    demand.push_back(cards_only ? CardKeys(ba->plan_space.subexpressions())
                                : ba->catalog.stats());
  }
  for (auto _ : state) {
    size_t derived = 0;
    for (size_t b = 0; b < analysis->blocks.size(); ++b) {
      const BlockAnalysis& ba = *analysis->blocks[b];
      Estimator estimator(&ba.ctx, &ba.catalog);
      if (!estimator.Derive(run.block_stats[b], demand[b]).ok()) {
        state.SkipWithError("Derive failed");
        return;
      }
      derived += estimator.derived().size();
    }
    benchmark::DoNotOptimize(derived);
  }
}

void BM_DeriveAll(benchmark::State& state) { DeriveBench(state, false); }
BENCHMARK(BM_DeriveAll)->Arg(13)->Arg(21)->Unit(benchmark::kMillisecond);

void BM_DeriveCards(benchmark::State& state) { DeriveBench(state, true); }
BENCHMARK(BM_DeriveCards)->Arg(13)->Arg(21)->Unit(benchmark::kMillisecond);

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
