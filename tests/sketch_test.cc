#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <unordered_map>

#include "core/pipeline.h"
#include "estimator/estimator.h"
#include "obs/drift.h"
#include "sketch/countmin.h"
#include "sketch/hll.h"
#include "sketch/kmv.h"
#include "sketch/sketch.h"
#include "sketch/tap.h"
#include "stats/stat_io.h"
#include "test_util.h"

namespace etlopt {
namespace {

using sketch::CountMin;
using sketch::HashValue;
using sketch::Hll;
using sketch::Kmv;

// ---------------------------------------------------------------------------
// HyperLogLog

TEST(HllTest, SmallStreamsUseLinearCounting) {
  Hll hll(12);
  for (int64_t i = 0; i < 100; ++i) hll.AddHash(HashValue(i));
  // Linear counting is near-exact far below m = 4096 registers.
  EXPECT_NEAR(static_cast<double>(hll.Estimate()), 100.0, 3.0);
}

TEST(HllTest, EstimateWithinTwoSigma) {
  for (const int64_t n : {int64_t{1000}, int64_t{100000}}) {
    Hll hll(12);
    for (int64_t i = 0; i < n; ++i) hll.AddHash(HashValue(i));
    const double tolerance = 2.0 * hll.StandardError() * static_cast<double>(n);
    EXPECT_NEAR(static_cast<double>(hll.Estimate()), static_cast<double>(n),
                tolerance)
        << "n=" << n;
  }
}

TEST(HllTest, DuplicatesDoNotInflate) {
  Hll once(12), tenfold(12);
  for (int64_t i = 0; i < 5000; ++i) {
    once.AddHash(HashValue(i));
    for (int r = 0; r < 10; ++r) tenfold.AddHash(HashValue(i));
  }
  EXPECT_EQ(once.Estimate(), tenfold.Estimate());
}

// ---------------------------------------------------------------------------
// Count-Min

TEST(CountMinTest, NeverUnderestimatesAndBoundsOvershoot) {
  CountMin cm(256, 4);
  std::unordered_map<int64_t, int64_t> truth;
  // Zipf-ish stream: key i appears 1000 / (i + 1) times.
  for (int64_t i = 0; i < 400; ++i) {
    const int64_t count = 1000 / (i + 1);
    truth[i] = count;
    cm.AddHash(HashValue(i), count);
  }
  const double max_over =
      cm.EpsilonFraction() * static_cast<double>(cm.TotalCount());
  for (const auto& [key, count] : truth) {
    const int64_t est = cm.Estimate(HashValue(key));
    EXPECT_GE(est, count) << "key " << key;  // one-sided by construction
    EXPECT_LE(static_cast<double>(est - count), max_over) << "key " << key;
  }
}

// ---------------------------------------------------------------------------
// KMV

TEST(KmvTest, ExactWhileUnderK) {
  Kmv kmv(64);
  for (int64_t i = 0; i < 50; ++i) kmv.AddHash(HashValue(i));
  for (int64_t i = 0; i < 50; ++i) kmv.AddHash(HashValue(i));  // duplicates
  EXPECT_FALSE(kmv.saturated());
  EXPECT_EQ(kmv.Estimate(), 50);
  EXPECT_EQ(kmv.StandardError(), 0.0);
}

TEST(KmvTest, SaturatedEstimateWithinThreeSigma) {
  const int64_t n = 50000;
  Kmv kmv(1024);
  for (int64_t i = 0; i < n; ++i) kmv.AddHash(HashValue(i));
  ASSERT_TRUE(kmv.saturated());
  const double tolerance = 3.0 * kmv.StandardError() * static_cast<double>(n);
  EXPECT_NEAR(static_cast<double>(kmv.Estimate()), static_cast<double>(n),
              tolerance);
}

TEST(KmvTest, RejectedDistinctHashStillSaturates) {
  // Regression: a distinct hash larger than the current k-th minimum must
  // still flip the sketch to saturated, or Estimate() under-reports.
  Kmv kmv(16);
  std::vector<uint64_t> hashes;
  for (int64_t i = 0; i < 17; ++i) hashes.push_back(HashValue(i));
  std::sort(hashes.begin(), hashes.end());
  for (size_t i = 0; i < 16; ++i) kmv.AddHash(hashes[i]);
  EXPECT_FALSE(kmv.saturated());
  kmv.AddHash(hashes[16]);  // larger than every retained hash: rejected
  EXPECT_TRUE(kmv.saturated());
}

// ---------------------------------------------------------------------------
// Taps

TEST(TapConfigTest, ForBudgetFitsShare) {
  for (const int64_t budget : {int64_t{4096}, int64_t{65536}, int64_t{1 << 20}}) {
    const auto config = sketch::TapSketchConfig::ForBudget(budget, 2);
    EXPECT_LE(config.DistinctTapBytes(), budget + 128) << budget;
    EXPECT_LE(config.HistTapBytes(2), budget + 1024) << budget;
  }
}

TEST(TapTest, HistTapExactOnSmallStream) {
  // Far under both the CM width and the KMV k: the rebuilt histogram matches
  // the exact one bucket for bucket.
  sketch::TapSketchConfig config;
  sketch::HistTap tap(config);
  Histogram exact(AttrMask{1} << 3);
  for (int64_t i = 0; i < 200; ++i) {
    const std::vector<Value> key{i % 40};
    tap.AddRow(key);
    exact.Add(key);
  }
  const Histogram rebuilt = tap.Build(AttrMask{1} << 3);
  EXPECT_TRUE(rebuilt == exact);
}

TEST(TapTest, HistTapPreservesTotalMassWhenSaturated) {
  sketch::TapSketchConfig config;
  config.kmv_k = 64;  // force saturation
  sketch::HistTap tap(config);
  const int64_t rows = 20000;
  for (int64_t i = 0; i < rows; ++i) tap.AddRow({i % 1000});
  const Histogram rebuilt = tap.Build(AttrMask{1} << 3);
  EXPECT_EQ(rebuilt.NumBuckets(), 64);
  // Rescaling keeps |H| ~= |T| (the I1 identity), within rounding.
  EXPECT_NEAR(static_cast<double>(rebuilt.TotalCount()),
              static_cast<double>(rows), static_cast<double>(rows) * 0.02);
}

TEST(TapTest, ObserveFallsBackToExactWhenBudgetSuffices) {
  auto ex = testing_util::MakePaperExample();
  PipelineOptions options;
  options.tap_memory_budget_bytes = int64_t{1} << 30;  // plenty
  Pipeline pipeline(options);
  const auto analysis = pipeline.Analyze(ex.workflow).value();
  const Result<RunOutcome> run = pipeline.RunAndObserve(*analysis, ex.sources);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->tap_report.sketch_taps, 0);
  EXPECT_GT(run->tap_report.exact_taps, 0);
  for (const StatStore& store : run->block_stats) {
    for (const auto& [key, value] : store.values()) {
      EXPECT_FALSE(value.is_approx()) << key.ToString();
    }
  }
}

TEST(TapTest, TightBudgetSwitchesToSketchesWithErrorAnnotations) {
  auto ex = testing_util::MakePaperExample();
  PipelineOptions exact_options;
  Pipeline exact_pipeline(exact_options);
  const auto analysis = exact_pipeline.Analyze(ex.workflow).value();
  const RunOutcome exact_run =
      exact_pipeline.RunAndObserve(*analysis, ex.sources).value();

  PipelineOptions options;
  options.tap_memory_budget_bytes = 4096;  // below the exact footprint
  Pipeline pipeline(options);
  const Result<RunOutcome> run = pipeline.RunAndObserve(*analysis, ex.sources);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_GT(run->tap_report.sketch_taps, 0);
  EXPECT_LE(run->tap_report.tap_bytes, run->tap_report.exact_bytes_estimate);

  ASSERT_EQ(run->block_stats.size(), exact_run.block_stats.size());
  int approx_values = 0;
  for (size_t b = 0; b < run->block_stats.size(); ++b) {
    for (const auto& [key, value] : run->block_stats[b].values()) {
      const StatValue* truth = exact_run.block_stats[b].Find(key);
      ASSERT_NE(truth, nullptr) << key.ToString();
      if (!value.is_approx()) continue;
      ++approx_values;
      EXPECT_GT(value.rel_error(), 0.0);
      if (value.is_count() && truth->is_count()) {
        // Distinct estimates stay within a loose 5-sigma guard band.
        const double tol = std::max(
            5.0 * value.rel_error() * static_cast<double>(truth->count()),
            3.0);
        EXPECT_NEAR(static_cast<double>(value.count()),
                    static_cast<double>(truth->count()), tol)
            << key.ToString();
      } else if (!value.is_count() && !truth->is_count()) {
        // The rebuilt histogram preserves the row mass it summarizes.
        EXPECT_NEAR(static_cast<double>(value.hist().TotalCount()),
                    static_cast<double>(truth->hist().TotalCount()),
                    std::max(5.0, 0.05 * static_cast<double>(
                                             truth->hist().TotalCount())))
            << key.ToString();
      }
    }
  }
  EXPECT_GT(approx_values, 0);
}

TEST(TapTest, EstimatorPropagatesErrorBounds) {
  auto ex = testing_util::MakePaperExample();
  PipelineOptions options;
  options.tap_memory_budget_bytes = 4096;
  Pipeline pipeline(options);
  const Result<CycleOutcome> cycle = pipeline.RunCycle(ex.workflow, ex.sources);
  ASSERT_TRUE(cycle.ok()) << cycle.status().ToString();
  ASSERT_GT(cycle->run.tap_report.sketch_taps, 0);
  // Any estimate derived from a sketch-collected statistic must carry a
  // non-zero propagated error bound. Each block's statistics are derived
  // again as Pipeline::Optimize derives them: the SE cardinalities and
  // everything they read.
  int derived_approx = 0;
  const std::vector<std::unique_ptr<BlockAnalysis>>& blocks =
      cycle->analysis->blocks;
  for (size_t b = 0; b < blocks.size(); ++b) {
    Estimator estimator(&blocks[b]->ctx, &blocks[b]->catalog);
    ASSERT_TRUE(
        estimator
            .Derive(cycle->run.block_stats[b],
                    CardKeys(blocks[b]->plan_space.subexpressions()))
            .ok());
    for (const auto& [key, prov] : estimator.provenance()) {
      if (prov.observed) continue;
      bool approx_input = false;
      for (const StatKey& in : prov.inputs) {
        const StatValue* iv = estimator.derived().Find(in);
        if (iv != nullptr && iv->is_approx()) approx_input = true;
      }
      if (!approx_input) continue;
      const StatValue* v = estimator.derived().Find(key);
      ASSERT_NE(v, nullptr);
      EXPECT_TRUE(v->is_approx()) << key.ToString();
      EXPECT_GT(v->rel_error(), 0.0) << key.ToString();
      ++derived_approx;
    }
  }
  EXPECT_GT(derived_approx, 0);
}

// The etlopt.tap.* counters of a cycle's record, by name.
std::map<std::string, int64_t> TapCounters(const CycleOutcome& cycle) {
  std::map<std::string, int64_t> taps;
  for (const auto& [name, value] : MakeRunRecord(cycle, "run-1").metrics) {
    if (name.rfind("etlopt.tap.", 0) == 0) taps[name] = value;
  }
  return taps;
}

TEST(TapTest, ReobservingARunLeavesTapCountersUnchanged) {
  // A budgeted cycle counts its taps once, in the cycle's TapReport, and its
  // record renders them from there; an exact re-observation of the same run
  // (what `run --approx-taps` does to check its sketch accuracy) must not
  // count them again.
  auto ex = testing_util::MakePaperExample();
  PipelineOptions options;
  options.tap_memory_budget_bytes = 4096;
  Pipeline pipeline(options);

  const Result<CycleOutcome> cycle = pipeline.RunCycle(ex.workflow, ex.sources);
  ASSERT_TRUE(cycle.ok()) << cycle.status().ToString();
  const TapReport& report = cycle->run.tap_report;
  ASSERT_GT(report.exact_taps, 0);
  ASSERT_GT(report.sketch_taps, 0);
  const std::map<std::string, int64_t> after_cycle = TapCounters(*cycle);
  EXPECT_EQ(after_cycle.at("etlopt.tap.exact"), report.exact_taps);
  EXPECT_EQ(after_cycle.at("etlopt.tap.sketch"), report.sketch_taps);
  EXPECT_EQ(after_cycle.at("etlopt.tap.bytes"), report.tap_bytes);
  EXPECT_EQ(after_cycle.at("etlopt.tap.exact_bytes_estimate"),
            report.exact_bytes_estimate);

  int reobserved = 0;
  for (size_t b = 0; b < cycle->analysis->blocks.size(); ++b) {
    const auto& ba = cycle->analysis->blocks[b];
    std::vector<StatKey> keys;
    for (const auto& [key, value] : cycle->run.block_stats[b].values()) {
      keys.push_back(key);
    }
    TapReport again;
    ASSERT_TRUE(
        ObserveStatistics(ba->ctx, cycle->run.exec, keys, {}, &again).ok());
    reobserved += again.exact_taps;
  }
  EXPECT_GT(reobserved, 0);
  EXPECT_EQ(TapCounters(*cycle), after_cycle);
}

// ---------------------------------------------------------------------------
// Mode-annotated persistence and drift

TEST(SketchStatIoTest, ModeSuffixRoundTrips) {
  StatStore store;
  store.Set(StatKey::Card(5), StatValue::Count(1234));
  store.Set(StatKey::Distinct(2, AttrMask{1} << 4),
            StatValue::CountApprox(9984, 0.0163));
  Histogram h(AttrMask{1} << 2);
  h.Add({7}, 13);
  h.Add({9}, 5);
  store.Set(StatKey::Hist(3, AttrMask{1} << 2),
            StatValue::HistApprox(h, 0.025));

  const std::string text = WriteStatStoreText(store);
  EXPECT_NE(text.find("mode=sketch err="), std::string::npos);
  const Result<StatStore> back = ParseStatStoreText(text);
  ASSERT_TRUE(back.ok()) << back.status().ToString();

  const StatValue* card = back->Find(StatKey::Card(5));
  ASSERT_NE(card, nullptr);
  EXPECT_FALSE(card->is_approx());

  const StatValue* distinct = back->Find(StatKey::Distinct(2, AttrMask{1} << 4));
  ASSERT_NE(distinct, nullptr);
  EXPECT_TRUE(distinct->is_approx());
  EXPECT_EQ(distinct->count(), 9984);
  EXPECT_NEAR(distinct->rel_error(), 0.0163, 1e-9);

  const StatValue* hist = back->Find(StatKey::Hist(3, AttrMask{1} << 2));
  ASSERT_NE(hist, nullptr);
  EXPECT_TRUE(hist->is_approx());
  EXPECT_NEAR(hist->rel_error(), 0.025, 1e-9);
  EXPECT_EQ(hist->hist().TotalCount(), 18);
}

TEST(SketchDriftTest, SketchBackedStatsGetWidenedThresholds) {
  // Same numeric change, once exact and once sketch-collected: only the
  // exact one exceeds the (unwidened) relative-change threshold.
  const StatKey exact_key = StatKey::Card(1);
  const StatKey sketch_key = StatKey::Distinct(1, AttrMask{1} << 1);

  obs::RunRecord past;
  past.block_stats.emplace_back();
  past.block_stats[0].Set(exact_key, StatValue::Count(100));
  past.block_stats[0].Set(sketch_key, StatValue::CountApprox(100, 0.05));

  obs::RunRecord now = past;
  now.block_stats[0].Set(exact_key, StatValue::Count(180));
  now.block_stats[0].Set(sketch_key, StatValue::CountApprox(180, 0.05));

  obs::DriftOptions options;
  options.rel_change_threshold = 0.5;
  options.qerror_threshold = 2.0;
  options.sketch_widen_factor = 2.0;
  const obs::DriftReport report =
      obs::DriftDetector(options).Compare({past}, now);

  EXPECT_TRUE(report.IsDrifted(0, exact_key));
  EXPECT_FALSE(report.IsDrifted(0, sketch_key));
  for (const obs::DriftFinding& f : report.findings) {
    if (f.key == sketch_key) {
      EXPECT_TRUE(f.sketch_backed);
    }
    if (f.key == exact_key) {
      EXPECT_FALSE(f.sketch_backed);
    }
  }
}

TEST(SketchLedgerTest, CollectionModeSurvivesLedgerRoundTrip) {
  obs::RunRecord record;
  record.run_id = "run-1";
  record.fingerprint = "deadbeefdeadbeef";
  record.workflow = "wf";
  record.block_stats.emplace_back();
  record.block_stats[0].Set(StatKey::Card(3), StatValue::Count(42));
  record.block_stats[0].Set(StatKey::Distinct(1, AttrMask{1} << 2),
                            StatValue::CountApprox(1000, 0.016));

  const Result<obs::RunRecord> back =
      obs::RunRecord::FromJsonLine(record.ToJsonLine());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  const StatValue* v =
      back->block_stats[0].Find(StatKey::Distinct(1, AttrMask{1} << 2));
  ASSERT_NE(v, nullptr);
  EXPECT_TRUE(v->is_approx());
  EXPECT_NEAR(v->rel_error(), 0.016, 1e-9);
  const StatValue* c = back->block_stats[0].Find(StatKey::Card(3));
  ASSERT_NE(c, nullptr);
  EXPECT_FALSE(c->is_approx());
}

}  // namespace
}  // namespace etlopt
