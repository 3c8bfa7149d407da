// Tests for the plan-regression guard: the adoption gate (evidence-scored
// plan replacement), the runtime estimate monitors (observed vs priced
// cardinalities at tap points), the ledger guard section, and the two
// satellite hardenings — calibration overlay validation and estimator
// derivation clamping.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>

#include "core/lifecycle.h"
#include "core/pipeline.h"
#include "datagen/workload_suite.h"
#include "estimator/estimator.h"
#include "obs/calibrate.h"
#include "obs/guard.h"
#include "obs/ledger.h"
#include "obs/run_report.h"
#include "stats/histogram.h"
#include "test_util.h"
#include "util/fault.h"
#include "util/random.h"

namespace etlopt {
namespace {

std::string TempPath(const std::string& name) {
  // Pid-qualified so the sanitizer twin of this suite can run under the
  // same ctest invocation without clobbering this process's files.
  const std::string path =
      ::testing::TempDir() + std::to_string(getpid()) + "_" + name;
  std::remove(path.c_str());
  return path;
}

// The SE mask of Orders ⋈ Product in the paper example's single block
// (relations indexed in source order: R0=Orders, R1=Product, R2=Customer).
constexpr RelMask kOrdersProduct = 0b011;

obs::GuardInputs ChangedPlanInputs(double confidence = 1.0) {
  obs::GuardInputs inputs;
  inputs.plan_changed = true;
  inputs.initial_cost = 1000.0;
  inputs.optimized_cost = 600.0;
  inputs.proposed_signature = "abcd1234";
  obs::SeEvidence ev;
  ev.block = 0;
  ev.se = kOrdersProduct;
  ev.confidence = confidence;
  inputs.evidence.push_back(ev);
  return inputs;
}

// ---- adoption gate unit tests ----

TEST(EvaluateAdoptionTest, OffModeAlwaysAdopts) {
  obs::GuardOptions options;
  options.mode = obs::GuardMode::kOff;
  const obs::GuardVerdict verdict =
      obs::EvaluateAdoption(options, ChangedPlanInputs(0.0));
  EXPECT_TRUE(verdict.adopt);
  EXPECT_TRUE(verdict.reasons.empty());
}

TEST(EvaluateAdoptionTest, StrongEvidenceAdoptsInStrict) {
  obs::GuardOptions options;
  options.mode = obs::GuardMode::kStrict;
  const obs::GuardVerdict verdict =
      obs::EvaluateAdoption(options, ChangedPlanInputs(1.0));
  EXPECT_TRUE(verdict.adopt);
  EXPECT_TRUE(verdict.reasons.empty());
  EXPECT_DOUBLE_EQ(verdict.evidence_score, 1.0);
  EXPECT_DOUBLE_EQ(verdict.margin, 0.4);
}

TEST(EvaluateAdoptionTest, WeakEvidenceRejectsInStrictButNotWarn) {
  obs::GuardOptions options;
  options.mode = obs::GuardMode::kStrict;
  const obs::GuardVerdict strict =
      obs::EvaluateAdoption(options, ChangedPlanInputs(0.4));
  EXPECT_FALSE(strict.adopt);
  ASSERT_FALSE(strict.reasons.empty());
  EXPECT_DOUBLE_EQ(strict.evidence_score, 0.4);

  options.mode = obs::GuardMode::kWarn;
  const obs::GuardVerdict warn =
      obs::EvaluateAdoption(options, ChangedPlanInputs(0.4));
  EXPECT_TRUE(warn.adopt);  // warn records the failure but adopts
  EXPECT_FALSE(warn.reasons.empty());
}

TEST(EvaluateAdoptionTest, MinEvidenceIsTheMinOverSes) {
  obs::GuardOptions options;
  options.mode = obs::GuardMode::kStrict;
  obs::GuardInputs inputs = ChangedPlanInputs(1.0);
  obs::SeEvidence weak;
  weak.block = 0;
  weak.se = 0b111;
  weak.confidence = 0.3;
  inputs.evidence.push_back(weak);
  const obs::GuardVerdict verdict = obs::EvaluateAdoption(options, inputs);
  EXPECT_FALSE(verdict.adopt);
  EXPECT_DOUBLE_EQ(verdict.evidence_score, 0.3);
}

TEST(EvaluateAdoptionTest, NegativeMarginRejectsInStrict) {
  obs::GuardOptions options;
  options.mode = obs::GuardMode::kStrict;
  obs::GuardInputs inputs = ChangedPlanInputs(1.0);
  inputs.optimized_cost = 1200.0;  // predicted WORSE than the designed plan
  const obs::GuardVerdict verdict = obs::EvaluateAdoption(options, inputs);
  EXPECT_FALSE(verdict.adopt);
  EXPECT_LT(verdict.margin, 0.0);
}

TEST(EvaluateAdoptionTest, UnsafeSignatureRejectsOutright) {
  obs::GuardOptions options;
  options.mode = obs::GuardMode::kStrict;
  obs::GuardInputs inputs = ChangedPlanInputs(1.0);
  inputs.unsafe_signatures.push_back("abcd1234");  // == proposed_signature
  const obs::GuardVerdict verdict = obs::EvaluateAdoption(options, inputs);
  EXPECT_FALSE(verdict.adopt);
  ASSERT_FALSE(verdict.reasons.empty());
}

TEST(EvaluateAdoptionTest, UnchangedPlanIsTriviallyAdoptable) {
  obs::GuardOptions options;
  options.mode = obs::GuardMode::kStrict;
  obs::GuardInputs inputs = ChangedPlanInputs(0.1);  // terrible evidence
  inputs.plan_changed = false;  // but nothing to regress to
  const obs::GuardVerdict verdict = obs::EvaluateAdoption(options, inputs);
  EXPECT_TRUE(verdict.adopt);
  EXPECT_TRUE(verdict.reasons.empty());
}

TEST(EvaluateAdoptionTest, PartialHistoryPenalizesEvidence) {
  obs::GuardOptions options;
  options.mode = obs::GuardMode::kStrict;
  obs::GuardInputs inputs = ChangedPlanInputs(1.0);
  inputs.partial_history = true;  // selection seeded from a salvaged prefix
  const obs::GuardVerdict verdict = obs::EvaluateAdoption(options, inputs);
  EXPECT_FALSE(verdict.adopt);  // 1.0 * 0.5 partial penalty < 0.6
  EXPECT_DOUBLE_EQ(verdict.evidence_score, 0.5);
}

TEST(EvaluateAdoptionTest, CalibrationCoverageScalesEvidence) {
  obs::GuardOptions options;
  options.mode = obs::GuardMode::kStrict;
  obs::GuardInputs inputs = ChangedPlanInputs(1.0);
  inputs.calibration_coverage = 0.0;  // cost model priced nothing measured
  const obs::GuardVerdict verdict = obs::EvaluateAdoption(options, inputs);
  EXPECT_FALSE(verdict.adopt);  // 1.0 * (0.5 + 0.5*0) = 0.5 < 0.6
  EXPECT_DOUBLE_EQ(verdict.evidence_score, 0.5);
}

TEST(CalibrationCoverageTest, WeightsFittedClasses) {
  obs::CostCalibration cal;
  cal.classes["Join"].ns_per_row = 12.0;
  obs::RunProfile profile;
  obs::OpProfile join;
  join.op = "Join";
  join.rows_in = 300;
  obs::OpProfile filter;
  filter.op = "Filter";
  filter.rows_in = 100;
  profile.ops = {join, filter};
  EXPECT_DOUBLE_EQ(obs::CalibrationCoverage(cal, profile), 0.75);
  EXPECT_DOUBLE_EQ(obs::CalibrationCoverage(obs::CostCalibration{}, profile),
                   1.0);  // calibration not in play
  EXPECT_DOUBLE_EQ(obs::CalibrationCoverage(cal, obs::RunProfile{}), 1.0);
}

// ---- guard record serialization ----

TEST(GuardRecordTest, JsonRoundTrip) {
  obs::GuardRecord record;
  record.mode = "strict";
  record.adopted = false;
  record.fell_back = true;
  record.evidence = 0.42;
  record.margin = -0.1;
  record.proposed_signature = "feedf00d";
  record.reasons = {"evidence 0.42 below minimum 0.6"};
  obs::GuardRecord::Monitor m;
  m.block = 0;
  m.se = kOrdersProduct;
  m.node = 3;
  m.expected = 10.0;
  m.actual = 305.0;
  m.qerror = 30.5;
  record.violations.push_back(m);
  record.plan_unsafe = true;
  record.unsafe_signature = "deadbeef";

  const obs::GuardRecord parsed = obs::GuardRecord::FromJson(record.ToJson());
  EXPECT_EQ(parsed.mode, "strict");
  EXPECT_FALSE(parsed.adopted);
  EXPECT_TRUE(parsed.fell_back);
  EXPECT_DOUBLE_EQ(parsed.evidence, 0.42);
  EXPECT_DOUBLE_EQ(parsed.margin, -0.1);
  EXPECT_EQ(parsed.proposed_signature, "feedf00d");
  ASSERT_EQ(parsed.reasons.size(), 1u);
  ASSERT_EQ(parsed.violations.size(), 1u);
  EXPECT_EQ(parsed.violations[0].se, kOrdersProduct);
  EXPECT_DOUBLE_EQ(parsed.violations[0].qerror, 30.5);
  EXPECT_TRUE(parsed.plan_unsafe);
  EXPECT_EQ(parsed.unsafe_signature, "deadbeef");
}

TEST(GuardRecordTest, LedgerLineCarriesGuardOnlyWhenEngaged) {
  obs::RunRecord clean;
  clean.run_id = "run-1";
  clean.guard.mode = "warn";  // mode alone does not engage the section
  EXPECT_EQ(clean.ToJsonLine().find("\"guard\""), std::string::npos);

  obs::RunRecord flagged = clean;
  flagged.guard.fell_back = true;
  flagged.guard.proposed_signature = "feedf00d";
  const std::string line = flagged.ToJsonLine();
  EXPECT_NE(line.find("\"guard\""), std::string::npos);
  const obs::RunRecord parsed = obs::RunRecord::FromJsonLine(line).value();
  EXPECT_TRUE(parsed.guard.fell_back);
  EXPECT_EQ(parsed.guard.proposed_signature, "feedf00d");
}

// ---- end-to-end: corrupted statistic, worse plan, guard verdicts ----

class GuardPipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(fault::FaultInjector::InstallGlobal("").ok());
  }
  void TearDown() override {
    ASSERT_TRUE(fault::FaultInjector::InstallGlobal("").ok());
  }

  static PipelineOptions GuardedOptions(obs::GuardMode mode) {
    PipelineOptions options;
    options.guard = obs::GuardOptions{};  // fixed defaults, env ignored
    options.guard.mode = mode;
    return options;
  }
};

TEST_F(GuardPipelineTest, CorruptedStatStrictKeepsDesignedPlanOffAdopts) {
  auto ex = testing_util::MakePaperExample();
  Pipeline strict(GuardedOptions(obs::GuardMode::kStrict));

  // Run 1: clean cycle establishes ledger history.
  const CycleOutcome first = strict.RunCycle(ex.workflow, ex.sources).value();
  ASSERT_FALSE(first.aborted());
  EXPECT_TRUE(first.opt.guard.adopted);
  EXPECT_FALSE(first.opt.guard.engaged());  // clean run: nothing recorded
  std::vector<obs::RunRecord> history{MakeRunRecord(first, "run-1")};

  // Run 2: corrupt the observed |Orders ⋈ Product| before re-optimization —
  // the inflated estimate makes the optimizer propose joining Customer
  // first, a plan that is worse under the true statistics.
  const auto analysis = strict.Analyze(ex.workflow).value();
  RunOutcome run =
      strict.RunAndObserve(*analysis, ex.sources, &history).value();
  const StatKey key = StatKey::Card(kOrdersProduct);
  const StatValue* observed = run.block_stats[0].Find(key);
  ASSERT_NE(observed, nullptr);
  const int64_t true_rows = observed->count();
  run.block_stats[0].Set(key, StatValue::Count(true_rows * 200));

  const OptimizeOutcome gated =
      strict.Optimize(*analysis, run, &history).value();
  EXPECT_TRUE(gated.guard.fell_back);
  EXPECT_FALSE(gated.guard.adopted);
  EXPECT_LT(gated.guard.evidence, 0.6);  // drift halved the SE confidence
  EXPECT_FALSE(gated.guard.reasons.empty());
  EXPECT_FALSE(gated.guard.proposed_signature.empty());
  // The designed plan keeps running, at the designed plan's cost.
  EXPECT_EQ(gated.optimized.ToString(), analysis->workflow->ToString());
  EXPECT_DOUBLE_EQ(gated.optimized_cost, gated.initial_cost);

  // --guard=off adopts the regressed proposal unconditionally.
  Pipeline off(GuardedOptions(obs::GuardMode::kOff));
  const OptimizeOutcome adopted = off.Optimize(*analysis, run, &history).value();
  EXPECT_FALSE(adopted.guard.fell_back);
  EXPECT_NE(adopted.optimized.ToString(), analysis->workflow->ToString());
  // The proposal really is a different join order, priced from the
  // corrupted statistic.
  EXPECT_EQ(obs::FingerprintWorkflow(adopted.optimized),
            gated.guard.proposed_signature);

  // warn mode records the same failing criteria but adopts anyway.
  Pipeline warn(GuardedOptions(obs::GuardMode::kWarn));
  const OptimizeOutcome warned =
      warn.Optimize(*analysis, run, &history).value();
  EXPECT_TRUE(warned.guard.adopted);
  EXPECT_FALSE(warned.guard.fell_back);
  EXPECT_FALSE(warned.guard.reasons.empty());

  // The fallback verdict survives the ledger, and the offline report flags
  // the run.
  obs::RunRecord record = MakeRunRecord(first, "run-2");
  record.guard = gated.guard;
  const obs::RunRecord parsed =
      obs::RunRecord::FromJsonLine(record.ToJsonLine()).value();
  EXPECT_TRUE(parsed.guard.fell_back);
  const std::string report =
      obs::FormatRunReportMarkdown({history[0], parsed}, {});
  EXPECT_NE(report.find("guard-fallback"), std::string::npos);
  EXPECT_NE(report.find("fell back to the designed plan"), std::string::npos);
}

TEST_F(GuardPipelineTest, PartialHistoryBlocksAdoptionInStrict) {
  auto ex = testing_util::MakePaperExample();
  Pipeline strict(GuardedOptions(obs::GuardMode::kStrict));

  // Run 1 crashes mid-join: its record is partial, and the salvage seeds
  // the next cycle's cost model with low-confidence feedback.
  ASSERT_TRUE(
      fault::FaultInjector::InstallGlobal("seed=13;op:join4:crash").ok());
  const CycleOutcome crashed = strict.RunCycle(ex.workflow, ex.sources).value();
  ASSERT_TRUE(crashed.aborted());
  std::vector<obs::RunRecord> history{MakeRunRecord(crashed, "run-1")};
  ASSERT_TRUE(history[0].partial);
  ASSERT_TRUE(fault::FaultInjector::InstallGlobal("").ok());

  // Run 2 completes, but a changed plan cannot clear the partial-history
  // penalty (1.0 * 0.5 < 0.6): strict keeps the designed plan.
  const CycleOutcome second =
      strict.RunCycle(ex.workflow, ex.sources, &history).value();
  ASSERT_FALSE(second.aborted());
  EXPECT_TRUE(second.opt.guard.fell_back);
  EXPECT_DOUBLE_EQ(second.opt.optimized_cost, second.opt.initial_cost);
}

TEST_F(GuardPipelineTest, SketchBackedRunsStillAdoptWithReducedEvidence) {
  auto ex = testing_util::MakePaperExample();
  PipelineOptions options = GuardedOptions(obs::GuardMode::kStrict);
  options.tap_memory_budget_bytes = 256;  // force sketch collection
  // At this budget the compounded sketch error bounds push the evidence to
  // ~0.53 — below the default 0.6 floor, which is exactly the designed
  // behavior (heavy approximation is weak evidence). Lower the floor so
  // the test can observe "reduced but sufficient" adoption.
  options.guard.min_evidence = 0.4;
  Pipeline pipeline(options);

  const CycleOutcome first = pipeline.RunCycle(ex.workflow, ex.sources).value();
  ASSERT_FALSE(first.aborted());
  ASSERT_GT(first.run.tap_report.sketch_taps, 0);
  // Sketch error bounds reduce the evidence below exact-collection's 1.0.
  EXPECT_LT(first.opt.guard.evidence, 1.0);
  EXPECT_TRUE(first.opt.guard.adopted);
  std::vector<obs::RunRecord> history{MakeRunRecord(first, "run-1")};

  // Run 2 over identical data: sketch-widened drift tolerance means the
  // re-observed values do not read as drift, and the verdict stays adopt.
  const CycleOutcome second =
      pipeline.RunCycle(ex.workflow, ex.sources, &history).value();
  ASSERT_FALSE(second.aborted());
  EXPECT_TRUE(second.opt.guard.adopted);
  EXPECT_FALSE(second.opt.guard.fell_back);
}

// ---- runtime estimate monitors ----

class GuardMonitorTest : public GuardPipelineTest {
 protected:
  // A clean history record whose recorded estimate for Orders ⋈ Product is
  // tampered far below the observed cardinality, so the monitors at that
  // node must fire on the next run.
  static std::vector<obs::RunRecord> TamperedHistory(
      Pipeline& pipeline, const testing_util::PaperExample& ex) {
    const CycleOutcome first =
        pipeline.RunCycle(ex.workflow, ex.sources).value();
    obs::RunRecord record = MakeRunRecord(first, "run-1");
    bool tampered = false;
    for (obs::RunRecord::SeCard& card : record.cards) {
      if (card.se == kOrdersProduct) {
        card.estimated = 1.0;
        tampered = true;
      }
    }
    EXPECT_TRUE(tampered);
    return {record};
  }
};

TEST_F(GuardMonitorTest, ViolationAbortsStrictRunThroughSalvage) {
  auto ex = testing_util::MakePaperExample();
  Pipeline strict(GuardedOptions(obs::GuardMode::kStrict));
  std::vector<obs::RunRecord> history = TamperedHistory(strict, ex);

  const CycleOutcome caught =
      strict.RunCycle(ex.workflow, ex.sources, &history).value();
  ASSERT_TRUE(caught.aborted());
  EXPECT_EQ(caught.run.exec.abort_kind, AbortKind::kGuard);
  ASSERT_FALSE(caught.opt.guard.violations.empty());
  EXPECT_EQ(caught.opt.guard.violations[0].se, kOrdersProduct);
  EXPECT_GT(caught.opt.guard.violations[0].qerror, 4.0);
  EXPECT_TRUE(caught.opt.guard.plan_unsafe);
  EXPECT_EQ(caught.opt.guard.unsafe_signature, history[0].plan_signature);
  // The salvage path still ran: partial statistics were observed.
  EXPECT_FALSE(caught.run.block_stats.empty());

  const obs::RunRecord record = MakeRunRecord(caught, "run-2");
  EXPECT_TRUE(record.partial);
  EXPECT_TRUE(record.guard.plan_unsafe);

  // The next cycle skips the condemned record when arming monitors (no
  // abort loop), force-observes the flagged SE, and completes.
  history.push_back(record);
  const CycleOutcome recovered =
      strict.RunCycle(ex.workflow, ex.sources, &history).value();
  EXPECT_FALSE(recovered.aborted());
}

TEST_F(GuardMonitorTest, WarnModeRecordsViolationWithoutAborting) {
  auto ex = testing_util::MakePaperExample();
  Pipeline warn(GuardedOptions(obs::GuardMode::kWarn));
  std::vector<obs::RunRecord> history = TamperedHistory(warn, ex);

  const CycleOutcome cycle =
      warn.RunCycle(ex.workflow, ex.sources, &history).value();
  ASSERT_FALSE(cycle.aborted());  // warn observes, never aborts
  ASSERT_FALSE(cycle.opt.guard.violations.empty());
  EXPECT_TRUE(cycle.opt.guard.plan_unsafe);
  EXPECT_EQ(cycle.opt.guard.unsafe_signature, history[0].plan_signature);
  // The report surfaces the unsafe plan.
  obs::RunRecord record = MakeRunRecord(cycle, "run-2");
  const std::string report =
      obs::FormatRunReportMarkdown({history[0], record}, {});
  EXPECT_NE(report.find("plan-unsafe"), std::string::npos);
}

TEST_F(GuardMonitorTest, VerdictIsIdenticalAcrossWorkerCounts) {
  auto ex = testing_util::MakePaperExample();
  Pipeline serial(GuardedOptions(obs::GuardMode::kWarn));
  std::vector<obs::RunRecord> history = TamperedHistory(serial, ex);

  const CycleOutcome serial_cycle =
      serial.RunCycle(ex.workflow, ex.sources, &history).value();

  PipelineOptions par_options = GuardedOptions(obs::GuardMode::kWarn);
  par_options.num_threads = 4;
  Pipeline parallel(par_options);
  const CycleOutcome par_cycle =
      parallel.RunCycle(ex.workflow, ex.sources, &history).value();

  // The parallel executor checks monitors against gathered (merged) node
  // outputs, so the violations — and the verdict — match the serial run's.
  ASSERT_EQ(par_cycle.opt.guard.violations.size(),
            serial_cycle.opt.guard.violations.size());
  for (size_t i = 0; i < par_cycle.opt.guard.violations.size(); ++i) {
    EXPECT_EQ(par_cycle.opt.guard.violations[i].se,
              serial_cycle.opt.guard.violations[i].se);
    EXPECT_DOUBLE_EQ(par_cycle.opt.guard.violations[i].actual,
                     serial_cycle.opt.guard.violations[i].actual);
    EXPECT_DOUBLE_EQ(par_cycle.opt.guard.violations[i].qerror,
                     serial_cycle.opt.guard.violations[i].qerror);
  }
  EXPECT_EQ(par_cycle.opt.guard.plan_unsafe,
            serial_cycle.opt.guard.plan_unsafe);
  EXPECT_EQ(par_cycle.opt.guard.adopted, serial_cycle.opt.guard.adopted);
}

TEST_F(GuardPipelineTest, LifecycleGateKeepsDesignedPlanOnPartialHistory) {
  auto ex = testing_util::MakePaperExample();
  PipelineOptions options = GuardedOptions(obs::GuardMode::kStrict);

  ASSERT_TRUE(
      fault::FaultInjector::InstallGlobal("seed=13;op:join4:crash").ok());
  const BudgetedLifecycleResult crashed =
      RunBudgetedLifecycle(ex.workflow, ex.sources, 1e9, options).value();
  ASSERT_TRUE(crashed.aborted());
  ASSERT_TRUE(fault::FaultInjector::InstallGlobal("").ok());

  // Fabricate the partial ledger record the caller would have appended.
  obs::RunRecord partial_record;
  partial_record.partial = true;
  partial_record.completion = crashed.completion;
  partial_record.block_stats = crashed.block_stats;
  for (size_t b = 0; b < crashed.block_cards.size(); ++b) {
    for (const auto& [se, rows] : crashed.block_cards[b]) {
      obs::RunRecord::SeCard card;
      card.block = static_cast<int>(b);
      card.se = se;
      card.actual = static_cast<double>(rows);
      partial_record.cards.push_back(card);
    }
  }
  std::vector<obs::RunRecord> history{partial_record};

  const BudgetedLifecycleResult gated =
      RunBudgetedLifecycle(ex.workflow, ex.sources, 1e9, options, &history)
          .value();
  ASSERT_FALSE(gated.aborted());
  EXPECT_TRUE(gated.guard.fell_back);
  EXPECT_EQ(gated.optimized.ToString(), ex.workflow.ToString());
  EXPECT_DOUBLE_EQ(gated.optimized_cost, gated.initial_cost);

  // Off mode on the same inputs adopts.
  PipelineOptions off = GuardedOptions(obs::GuardMode::kOff);
  const BudgetedLifecycleResult adopted =
      RunBudgetedLifecycle(ex.workflow, ex.sources, 1e9, off, &history)
          .value();
  EXPECT_FALSE(adopted.guard.fell_back);
}

// ---- satellite 1: calibration overlay validation ----

// ---- analysis reuse across a history sequence ----

// `record` without what two runs of one cycle may not share: phase and
// operator timings, the wall clock, the peak RSS and the reuse counters.
obs::RunRecord WithoutTimings(obs::RunRecord record) {
  record.timestamp_ms = 0;
  record.analyze_ms = record.execute_ms = record.optimize_ms = 0.0;
  record.peak_rss_bytes = 0;
  record.profile.tap_ns = 0;
  for (obs::OpProfile& op : record.profile.ops) op.self_ns = 0;
  std::erase_if(record.metrics, [](const auto& metric) {
    return metric.first == "etlopt.core.analysis_reused" ||
           metric.first == "etlopt.opt.selection_reused";
  });
  return record;
}

// A history sequence (none, a monitor violation, a partial record, clean,
// clean again) through one Pipeline gives the records a fresh Pipeline per
// cycle gives. The shared Pipeline reuses its block structures from the
// second cycle on and rebuilds the selection whenever the history-derived
// inputs change.
TEST_F(GuardPipelineTest, HistorySequenceThroughOnePipelineMatchesFresh) {
  const WorkloadSpec spec = BuildWorkload(3);
  const SourceMap sources = GenerateSources(spec, 7, 0.002);
  const PipelineOptions options = GuardedOptions(obs::GuardMode::kWarn);

  const CycleOutcome clean =
      Pipeline(options).RunCycle(spec.workflow, sources).value();
  ASSERT_FALSE(clean.aborted());
  const obs::RunRecord clean_record = MakeRunRecord(clean, "run-1");

  // The violated SE: on the designed plan's path, its count not selected,
  // so force-observing it changes the selection.
  RelMask forced = 0;
  int forced_block = -1;
  for (size_t b = 0; b < clean.analysis->blocks.size() && forced == 0; ++b) {
    const BlockAnalysis& ba = *clean.analysis->blocks[b];
    const std::vector<StatKey> keys = ba.selection.ObservedKeys(ba.catalog);
    for (const auto& [se, node] : ba.ctx.on_path()) {
      (void)node;
      if (std::find(keys.begin(), keys.end(), StatKey::Card(se)) ==
          keys.end()) {
        forced = se;
        forced_block = static_cast<int>(b);
        break;
      }
    }
  }
  ASSERT_NE(forced, 0u) << "every on-path count is already selected";
  obs::RunRecord violated = clean_record;
  violated.run_id = "run-2";
  obs::GuardRecord::Monitor monitor;
  monitor.block = forced_block;
  monitor.se = forced;
  monitor.expected = 1.0;
  monitor.actual = 100.0;
  monitor.qerror = 100.0;
  violated.guard.violations.push_back(monitor);
  obs::RunRecord partial = clean_record;
  partial.run_id = "run-3";
  partial.partial = true;
  partial.completion = 0.5;

  const std::vector<std::vector<obs::RunRecord>> histories = {
      {}, {violated}, {clean_record, partial}, {clean_record},
      {clean_record}};
  // Expected (analysis_reused, selection_reused) per cycle on the shared
  // Pipeline: it keeps one entry, so each change of the selection inputs
  // rebuilds the selection, and only the repeated last cycle reuses it.
  const std::vector<std::pair<bool, bool>> reuse = {
      {false, false}, {true, false}, {true, false}, {true, false},
      {true, true}};

  Pipeline shared(options);
  std::unique_ptr<CycleOutcome> first;
  std::unique_ptr<CycleOutcome> fresh_first;
  for (size_t i = 0; i < histories.size(); ++i) {
    SCOPED_TRACE("cycle " + std::to_string(i + 1));
    const std::vector<obs::RunRecord>* history =
        histories[i].empty() ? nullptr : &histories[i];
    auto cycle = std::make_unique<CycleOutcome>(
        shared.RunCycle(spec.workflow, sources, history).value());
    auto fresh = std::make_unique<CycleOutcome>(
        Pipeline(options).RunCycle(spec.workflow, sources, history).value());
    ASSERT_FALSE(cycle->aborted());
    EXPECT_EQ(cycle->analysis->analysis_reused, reuse[i].first);
    EXPECT_EQ(cycle->analysis->selection_reused, reuse[i].second);
    EXPECT_FALSE(fresh->analysis->analysis_reused);

    const obs::RunRecord record = MakeRunRecord(*cycle, "run");
    EXPECT_EQ(record.Metric("etlopt.core.analysis_reused"),
              reuse[i].first ? 1 : 0);
    EXPECT_EQ(record.Metric("etlopt.opt.selection_reused"),
              reuse[i].second ? 1 : 0);
    EXPECT_EQ(WithoutTimings(record).ToJsonLine(),
              WithoutTimings(MakeRunRecord(*fresh, "run")).ToJsonLine());
    if (i == 0) {
      first = std::move(cycle);
      fresh_first = std::move(fresh);
    }
  }
  // The violation's forced count is in the second cycle's selection only.
  const auto selects_forced = [&](const CycleOutcome& cycle) {
    const BlockAnalysis& ba =
        *cycle.analysis->blocks[static_cast<size_t>(forced_block)];
    const std::vector<StatKey> keys = ba.selection.ObservedKeys(ba.catalog);
    return std::find(keys.begin(), keys.end(), StatKey::Card(forced)) !=
           keys.end();
  };
  EXPECT_FALSE(selects_forced(*first));
  EXPECT_TRUE(selects_forced(shared.RunCycle(spec.workflow, sources,
                                             &histories[1]).value()));

  // Another workflow replaces the Pipeline's entry; the first cycle's
  // analysis still holds the structures it reads.
  ASSERT_TRUE(shared.Analyze(BuildWorkload(12).workflow).ok());
  ASSERT_EQ(first->analysis->blocks.size(),
            fresh_first->analysis->blocks.size());
  for (size_t b = 0; b < first->analysis->blocks.size(); ++b) {
    const BlockAnalysis& ba = *first->analysis->blocks[b];
    const BlockAnalysis& fa = *fresh_first->analysis->blocks[b];
    const auto truth = ComputeGroundTruthCards(
        ba.ctx, ba.plan_space.subexpressions(), first->run.exec);
    const auto fresh_truth = ComputeGroundTruthCards(
        fa.ctx, fa.plan_space.subexpressions(), fresh_first->run.exec);
    ASSERT_TRUE(truth.ok()) << truth.status().ToString();
    ASSERT_TRUE(fresh_truth.ok()) << fresh_truth.status().ToString();
    EXPECT_EQ(*truth, *fresh_truth) << "block " << b;
  }
}

TEST(CalibrationValidationTest, RejectsBadClassFits) {
  const struct {
    const char* name;
    double ns_per_row;
    int64_t rows;
    int64_t ns;
  } kBadShapes[] = {
      {"nan ns_per_row", std::nan(""), 10, 100},
      {"inf ns_per_row", std::numeric_limits<double>::infinity(), 10, 100},
      {"negative ns_per_row", -3.5, 10, 100},
      {"negative rows", 10.0, -1, 100},
      {"negative ns", 10.0, 10, -100},
  };
  for (const auto& shape : kBadShapes) {
    SCOPED_TRACE(shape.name);
    Json fit = Json::Object();
    fit.Set("rows", Json::Int(shape.rows));
    fit.Set("ns", Json::Int(shape.ns));
    fit.Set("ns_per_row", Json::Double(shape.ns_per_row));
    Json classes = Json::Object();
    classes.Set("Join", std::move(fit));
    Json j = Json::Object();
    j.Set("runs", Json::Int(1));
    j.Set("classes", std::move(classes));
    const Result<obs::CostCalibration> parsed =
        obs::CostCalibration::FromJson(j);
    EXPECT_FALSE(parsed.ok());
  }
}

TEST(CalibrationValidationTest, AcceptsWellFormedOverlayRoundTrip) {
  obs::CostCalibration cal;
  cal.runs = 2;
  cal.classes["Join"] = {300, 6000, 20.0};
  cal.classes["tap"] = {100, 500, 5.0};
  const Result<obs::CostCalibration> parsed =
      obs::CostCalibration::FromJson(cal.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_DOUBLE_EQ(parsed->NsPerRow("Join"), 20.0);
}

TEST(CalibrationValidationTest, LoadFailsOnMalformedFile) {
  const std::string path = TempPath("bad_calibration.json");
  std::ofstream(path) << "{\"runs\":1,\"classes\":{\"Join\":{\"rows\":10,"
                         "\"ns\":100,\"ns_per_row\":-5.0}}}";
  const Result<obs::CostCalibration> loaded =
      obs::CostCalibration::Load(path);
  EXPECT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

// ---- satellite 2: estimator derivation clamping ----

TEST(HistogramDivideByClampedTest, RepairsInvariantViolations) {
  Histogram a(0b1);
  a.Add1(1, 10);
  a.Add1(2, 7);
  a.Add1(3, -4);  // negative numerator bucket
  Histogram b(0b1);
  b.Add1(1, 2);   // exact: 10 / 2 = 5
  b.Add1(2, 3);   // non-exact: 7 / 3 rounds to 2
  // value 3 missing from b: zero divisor, numerator passes through

  int64_t clamped = 0;
  const Histogram q = Histogram::DivideByClamped(a, b, &clamped);
  EXPECT_EQ(q.Get1(1), 5);
  EXPECT_EQ(q.Get1(2), 2);
  EXPECT_EQ(q.Get1(3), 0);  // clamped, not -4
  // Three repairs: the rounding on bucket 2, and bucket 3's negative
  // numerator plus its missing divisor (each counted separately).
  EXPECT_EQ(clamped, 3);
}

TEST(HistogramDivideByClampedTest, MatchesDivideByOnCleanInputs) {
  Histogram a(0b1);
  a.Add1(1, 12);
  a.Add1(2, 8);
  Histogram b(0b1);
  b.Add1(1, 4);
  b.Add1(2, 2);
  int64_t clamped = 0;
  const Histogram repaired = Histogram::DivideByClamped(a, b, &clamped);
  const Histogram exact = Histogram::DivideBy(a, b);
  EXPECT_EQ(clamped, 0);
  EXPECT_TRUE(repaired == exact);
}

TEST(EstimatorClampTest, CorruptedObservationsNeverYieldNanOrNegative) {
  auto ex = testing_util::MakePaperExample();
  Pipeline pipeline;
  const auto analysis = pipeline.Analyze(ex.workflow).value();
  const RunOutcome clean =
      pipeline.RunAndObserve(*analysis, ex.sources).value();
  const BlockAnalysis& ba = *analysis->blocks[0];

  Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    SCOPED_TRACE(trial);
    // Corrupt every count-valued observation with zeros, negatives, or
    // wild inflation, chosen per key per trial.
    StatStore corrupted = clean.block_stats[0];
    for (const auto& [key, value] : clean.block_stats[0].values()) {
      if (!value.is_count()) continue;
      switch (rng.NextInRange(0, 3)) {
        case 0:
          corrupted.Set(key, StatValue::Count(0));
          break;
        case 1:
          corrupted.Set(key, StatValue::Count(-value.count()));
          break;
        case 2:
          corrupted.Set(key, StatValue::Count(value.count() * 100000));
          break;
        default:
          break;  // keep the observed value
      }
    }
    Estimator estimator(&ba.ctx, &ba.catalog);
    const Status derived = estimator.DeriveAll(corrupted);
    if (!derived.ok()) continue;  // refusing to derive is acceptable
    for (const auto& [key, value] : estimator.derived().values()) {
      if (value.is_count()) {
        EXPECT_GE(value.count(), 0) << key.ToString();
      }
      if (value.is_approx()) {
        EXPECT_TRUE(std::isfinite(value.rel_error())) << key.ToString();
        EXPECT_GE(value.rel_error(), 0.0) << key.ToString();
      }
    }
    for (RelMask se : ba.plan_space.subexpressions()) {
      const Result<int64_t> card = estimator.Cardinality(se);
      if (card.ok()) {
        EXPECT_GE(*card, 0) << "SE " << se;
      }
    }
  }
}

TEST(EstimatorClampTest, CleanInputsAreNeverClamped) {
  auto ex = testing_util::MakePaperExample();
  Pipeline pipeline;
  const auto analysis = pipeline.Analyze(ex.workflow).value();
  const RunOutcome run = pipeline.RunAndObserve(*analysis, ex.sources).value();
  const BlockAnalysis& ba = *analysis->blocks[0];
  Estimator estimator(&ba.ctx, &ba.catalog);
  ASSERT_TRUE(estimator.DeriveAll(run.block_stats[0]).ok());
  EXPECT_EQ(estimator.clamped_values(), 0);
}

// ---- per-SE confidence ----

TEST(CardinalityConfidenceTest, ExactIsFullSketchAndDriftDegrade) {
  auto ex = testing_util::MakePaperExample();
  Pipeline pipeline;
  const auto analysis = pipeline.Analyze(ex.workflow).value();
  const RunOutcome run = pipeline.RunAndObserve(*analysis, ex.sources).value();
  const BlockAnalysis& ba = *analysis->blocks[0];
  Estimator estimator(&ba.ctx, &ba.catalog);
  ASSERT_TRUE(estimator.DeriveAll(run.block_stats[0]).ok());

  // Exact observation: full confidence.
  EXPECT_DOUBLE_EQ(estimator.CardinalityConfidence(kOrdersProduct), 1.0);

  // A drift-flagged feeding statistic halves it.
  const std::vector<StatKey> distrusted{StatKey::Card(kOrdersProduct)};
  EXPECT_DOUBLE_EQ(
      estimator.CardinalityConfidence(kOrdersProduct, distrusted, 0.5), 0.5);

  // Sketch-backed derivation: confidence shrinks with the error bound.
  StatStore approx = run.block_stats[0];
  const StatValue* v = approx.Find(StatKey::Card(kOrdersProduct));
  ASSERT_NE(v, nullptr);
  approx.Set(StatKey::Card(kOrdersProduct),
             StatValue::CountApprox(v->count(), 0.25));
  Estimator sketchy(&ba.ctx, &ba.catalog);
  ASSERT_TRUE(sketchy.DeriveAll(approx).ok());
  EXPECT_DOUBLE_EQ(sketchy.CardinalityConfidence(kOrdersProduct), 0.8);
}

}  // namespace
}  // namespace etlopt
