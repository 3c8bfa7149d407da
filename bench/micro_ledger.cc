// Micro-benchmarks for the run ledger: what an append costs as the ledger
// grows (the crash-safe rewrite is O(file size)), what a load costs, and
// a full cycle plus ground truth plus MakeRunRecord (the run record every
// report renders), and MakeRunRecord alone. Results are recorded in
// BENCH_obs.json at the repo root.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "engine/instrumentation.h"
#include "etl/workflow_builder.h"
#include "obs/build_info.h"
#include "obs/ledger.h"
#include "stats/stat_store.h"
#include "util/random.h"

namespace etlopt {
namespace {

constexpr char kLedgerPath[] = "micro_ledger.bench.jsonl";

// The paper's 3-relation star (Orders ⋈ Product ⋈ Customer) with modest
// data, enough for a full representative cycle per iteration.
struct StarFixture {
  Workflow workflow;
  SourceMap sources;
};

StarFixture MakeStar() {
  StarFixture fx;
  WorkflowBuilder b("bench_star");
  const AttrId prod_id = b.DeclareAttr("prod_id", 50);
  const AttrId cust_id = b.DeclareAttr("cust_id", 30);
  const NodeId o = b.Source("Orders", {prod_id, cust_id});
  const NodeId p = b.Source("Product", {prod_id});
  const NodeId c = b.Source("Customer", {cust_id});
  b.Sink(b.Join(b.Join(o, p, prod_id), c, cust_id), "warehouse.orders");
  Result<Workflow> wf = std::move(b).Build();
  ETLOPT_CHECK_MSG(wf.ok(), wf.status().ToString());
  fx.workflow = std::move(wf).value();

  Rng rng(7);
  Table orders_t{Schema({prod_id, cust_id})};
  for (int i = 0; i < 400; ++i) {
    orders_t.AddRow({rng.NextInRange(1, 50), rng.NextInRange(1, 30)});
  }
  Table product_t{Schema({prod_id})};
  for (int i = 0; i < 40; ++i) product_t.AddRow({rng.NextInRange(1, 50)});
  Table customer_t{Schema({cust_id})};
  for (int i = 0; i < 25; ++i) customer_t.AddRow({rng.NextInRange(1, 30)});
  fx.sources["Orders"] = std::move(orders_t);
  fx.sources["Product"] = std::move(product_t);
  fx.sources["Customer"] = std::move(customer_t);
  return fx;
}

// A realistic mid-size record: a dozen SE cards and a 20-statistic store.
obs::RunRecord SampleRecord(int run) {
  obs::RunRecord record;
  record.run_id = "run-" + std::to_string(run);
  record.fingerprint = "abcd0123abcd0123";
  record.workflow = "bench";
  record.timestamp_ms = 1700000000000;
  record.selector = "greedy";
  record.plan_signature = "0011223344556677";
  StatStore store;
  for (int s = 0; s < 20; ++s) {
    store.Set(StatKey::Card(static_cast<RelMask>(s + 1)),
              StatValue::Count(1000 + s));
  }
  record.block_stats.push_back(std::move(store));
  for (int c = 0; c < 12; ++c) {
    obs::RunRecord::SeCard card;
    card.block = 0;
    card.se = static_cast<RelMask>(c + 1);
    card.estimated = 100.0 * (c + 1);
    card.actual = 101.0 * (c + 1);
    record.cards.push_back(card);
  }
  return record;
}

// Append latency with `prior` records already in the ledger (the rewrite
// cost scales with what is on disk).
void BM_LedgerAppend(benchmark::State& state) {
  const std::string path = kLedgerPath;
  const int prior = static_cast<int>(state.range(0));
  std::remove(path.c_str());
  obs::RunLedger ledger(path);
  for (int i = 0; i < prior; ++i) {
    if (!ledger.Append(SampleRecord(i + 1)).ok()) {
      state.SkipWithError("seed append failed");
      return;
    }
  }
  const obs::RunRecord record = SampleRecord(prior + 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ledger.Append(record));
  }
  state.SetItemsProcessed(state.iterations());
  std::remove(path.c_str());
}
BENCHMARK(BM_LedgerAppend)->Arg(0)->Arg(10)->Arg(100);

void BM_LedgerLoad(benchmark::State& state) {
  const std::string path = kLedgerPath;
  const int records = static_cast<int>(state.range(0));
  std::remove(path.c_str());
  obs::RunLedger ledger(path);
  for (int i = 0; i < records; ++i) {
    if (!ledger.Append(SampleRecord(i + 1)).ok()) {
      state.SkipWithError("seed append failed");
      return;
    }
  }
  for (auto _ : state) {
    auto loaded = ledger.Load();
    benchmark::DoNotOptimize(loaded);
  }
  state.SetItemsProcessed(state.iterations() * records);
  std::remove(path.c_str());
}
BENCHMARK(BM_LedgerLoad)->Arg(10)->Arg(100);

void BM_RecordSerialize(benchmark::State& state) {
  const obs::RunRecord record = SampleRecord(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(record.ToJsonLine());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RecordSerialize);

void BM_RecordParse(benchmark::State& state) {
  const std::string line = SampleRecord(1).ToJsonLine();
  for (auto _ : state) {
    auto parsed = obs::RunRecord::FromJsonLine(line);
    benchmark::DoNotOptimize(parsed);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RecordParse);

// The full record path: cycle + ground truth + MakeRunRecord. The record is
// made on every run whatever the obs kill-switch says (it gates only spans
// and the profiler), so one variant covers it. The cycles after the first
// reuse the Pipeline's analysis.
void BM_CycleWithRecord(benchmark::State& state) {
  const StarFixture ex = MakeStar();
  Pipeline pipeline;
  for (auto _ : state) {
    const Result<CycleOutcome> cycle =
        pipeline.RunCycle(ex.workflow, ex.sources);
    if (!cycle.ok()) {
      state.SkipWithError("cycle failed");
      return;
    }
    std::vector<CardMap> truths;
    for (const auto& ba : cycle->analysis->blocks) {
      const auto truth = ComputeGroundTruthCards(
          ba->ctx, ba->plan_space.subexpressions(), cycle->run.exec);
      if (truth.ok()) truths.push_back(*truth);
    }
    benchmark::DoNotOptimize(MakeRunRecord(*cycle, "run-1", &truths));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CycleWithRecord)->Unit(benchmark::kMillisecond);

// MakeRunRecord alone over one finished cycle: what the run record adds to
// every run (counters, cards, statistics copy, plan signature, getrusage).
void BM_MakeRunRecord(benchmark::State& state) {
  const StarFixture ex = MakeStar();
  const Result<CycleOutcome> cycle =
      Pipeline().RunCycle(ex.workflow, ex.sources);
  if (!cycle.ok()) {
    state.SkipWithError("cycle failed");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(MakeRunRecord(*cycle, "run-1"));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MakeRunRecord);

}  // namespace
}  // namespace etlopt

int main(int argc, char** argv) {
  // Stamp the measured library's build into the JSON context, so a
  // committed BENCH_*.json says what it measured.
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
