// The traced run reports per-layer times from the spans of a RunCycle made
// with the library's tracer on. Those numbers are only meaningful if
// tracing leaves the cycle's selection and adopted plan unchanged and every
// layer shows up in the spans. Checked on every benchmark workload at a
// tiny scale (for parallel_sketch this covers the sketch budget's cost cap
// in selection and the partition-local taps).

#include <gtest/gtest.h>

#include "bench_cycle.h"
#include "obs/ledger.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats/stat_io.h"

namespace e2ebench {
namespace {

using namespace etlopt;

class BenchCycleTest : public ::testing::TestWithParam<std::string> {};

TEST_P(BenchCycleTest, TracedCycleReproducesUntracedCycle) {
  Workload w = *FindWorkload(GetParam());
  w.scale = 0.005;
  w.run_scale = 0.005;
  w.extracts = 1;
  if (w.tap_budget_bytes > 0) {
    // Small enough that the tiny extract still overflows it into sketches.
    w.tap_budget_bytes = 16 << 10;
  }
  const WorkloadInputs inputs = GenerateInputs(w, /*seed=*/11);
  const Pipeline pipeline(MakePipelineOptions(w));

  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.SetEnabled(false);
  const Result<CycleOutcome> plain =
      pipeline.RunCycle(inputs.spec.workflow, inputs.extracts[0]);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  ASSERT_FALSE(plain->aborted());

  obs::SetObsEnabled(true);
  tracer.Clear();
  tracer.SetEnabled(true);
  const Result<CycleOutcome> traced =
      pipeline.RunCycle(inputs.spec.workflow, inputs.extracts[0]);
  tracer.SetEnabled(false);
  ASSERT_TRUE(traced.ok()) << traced.status().ToString();
  ASSERT_FALSE(traced->aborted());

  const auto& plain_blocks = plain->analysis->blocks;
  const auto& traced_blocks = traced->analysis->blocks;
  ASSERT_EQ(plain_blocks.size(), traced_blocks.size());
  for (size_t b = 0; b < plain_blocks.size(); ++b) {
    EXPECT_EQ(plain_blocks[b]->selection.observed,
              traced_blocks[b]->selection.observed)
        << "block " << b;
    EXPECT_DOUBLE_EQ(plain_blocks[b]->selection.total_cost,
                     traced_blocks[b]->selection.total_cost);
    EXPECT_EQ(WriteStatStoreText(plain->run.block_stats[b]),
              WriteStatStoreText(traced->run.block_stats[b]))
        << "block " << b;
  }
  EXPECT_EQ(plain->opt.block_cards, traced->opt.block_cards);
  EXPECT_EQ(obs::FingerprintWorkflow(plain->opt.optimized),
            obs::FingerprintWorkflow(traced->opt.optimized));
  EXPECT_EQ(plain->run.tap_report.exact_taps, traced->run.tap_report.exact_taps);
  EXPECT_EQ(plain->run.tap_report.sketch_taps,
            traced->run.tap_report.sketch_taps);
  if (w.tap_budget_bytes > 0) {
    EXPECT_GT(traced->run.tap_report.sketch_taps, 0);
  }

  // Every layer of the cycle has time, and the layers add up to at most
  // the cycle.
  const Result<std::vector<TraceSpan>> spans = TracedSpans();
  ASSERT_TRUE(spans.ok()) << spans.status().ToString();
  std::map<std::string, double> t = LayerSeconds(*spans, 0.0, 1e12);
  EXPECT_GT(t["cycle"], 0.0);
  double sum = 0.0;
  for (const char* layer : {"planspace", "css", "opt", "engine.execute",
                            "engine.observe", "estimator", "optimizer"}) {
    EXPECT_GT(t[layer], 0.0) << layer;
    sum += t[layer];
  }
  EXPECT_LE(sum, t["cycle"]);
  if (w.num_threads > 1) {
    EXPECT_GT(t["parallel.execute"], 0.0);
    EXPECT_LE(t["parallel.execute"], t["engine.execute"]);
  } else {
    EXPECT_EQ(t["parallel.execute"], 0.0);
  }
  tracer.Clear();
}

INSTANTIATE_TEST_SUITE_P(Workloads, BenchCycleTest,
                         ::testing::Values("plan_heavy", "parallel_sketch"));

}  // namespace
}  // namespace e2ebench
