#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "core/lifecycle.h"
#include "core/pipeline.h"
#include "engine/instrumentation.h"
#include "obs/drift.h"
#include "obs/explain.h"
#include "obs/ledger.h"
#include "stats/stat_io.h"
#include "test_util.h"

namespace etlopt {
namespace {

std::string TempPath(const std::string& name) {
  // Pid-qualified so the sanitizer twin of this suite can run under the
  // same ctest invocation without clobbering this process's files.
  return ::testing::TempDir() + std::to_string(getpid()) + "_" + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  return content;
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

obs::RunRecord MakeRecord(const std::string& run_id, int64_t card,
                          const std::string& fingerprint = "abcd0123abcd0123") {
  obs::RunRecord record;
  record.run_id = run_id;
  record.fingerprint = fingerprint;
  record.workflow = "wf";
  record.timestamp_ms = 1700000000000;
  record.selector = "greedy";
  record.plan_signature = "0011223344556677";
  record.initial_cost = 10.0;
  record.optimized_cost = 8.0;
  record.analyze_ms = 1.5;
  record.execute_ms = 20.25;
  record.optimize_ms = 0.75;
  StatStore store;
  store.Set(StatKey::Card(1), StatValue::Count(card));
  record.block_stats.push_back(std::move(store));
  obs::RunRecord::SeCard se_card;
  se_card.block = 0;
  se_card.se = 3;
  se_card.estimated = static_cast<double>(card);
  se_card.actual = static_cast<double>(card + 1);
  record.cards.push_back(se_card);
  record.metrics.emplace_back("etlopt.core.cycles", 1);
  return record;
}

// ---------------------------------------------------------------------------
// StatKey spec codec
// ---------------------------------------------------------------------------

TEST(StatKeySpecTest, RoundTripsEveryKind) {
  const std::vector<StatKey> keys = {
      StatKey::Card(5),
      StatKey::CardStage(3, 2),
      StatKey::Hist(7, 0x4),
      StatKey::Distinct(2, 0x1),
      StatKey::RejectJoinCard(6, 1, 2),
  };
  for (const StatKey& key : keys) {
    const std::string spec = WriteStatKeySpec(key);
    const Result<StatKey> parsed = ParseStatKeySpec(spec);
    ASSERT_TRUE(parsed.ok()) << spec << ": " << parsed.status().ToString();
    EXPECT_EQ(*parsed, key) << spec;
  }
}

TEST(StatKeySpecTest, RejectsGarbageAndTrailingTokens) {
  EXPECT_FALSE(ParseStatKeySpec("").ok());
  EXPECT_FALSE(ParseStatKeySpec("frob rels=1").ok());
  EXPECT_FALSE(ParseStatKeySpec("card rels=1 stage=-1 extra=9").ok());
}

// ---------------------------------------------------------------------------
// Fingerprints
// ---------------------------------------------------------------------------

TEST(FingerprintTest, StableAndSensitiveToEdits) {
  const auto ex = testing_util::MakePaperExample();
  const std::string fp1 = obs::FingerprintWorkflow(ex.workflow);
  const std::string fp2 = obs::FingerprintWorkflow(ex.workflow);
  EXPECT_EQ(fp1, fp2);
  EXPECT_EQ(fp1.size(), 16u);

  const auto other = testing_util::MakePaperExample(7, 100, 40, 25);
  // Same structure, same fingerprint (data volume is not identity).
  EXPECT_EQ(obs::FingerprintWorkflow(other.workflow), fp1);

  EXPECT_NE(obs::FingerprintText("a"), obs::FingerprintText("b"));
  EXPECT_EQ(obs::FingerprintText("a").size(), 16u);
}

// ---------------------------------------------------------------------------
// RunRecord JSON round-trip
// ---------------------------------------------------------------------------

TEST(RunRecordTest, JsonLineRoundTrips) {
  const obs::RunRecord record = MakeRecord("run-1", 100);
  const std::string line = record.ToJsonLine();
  EXPECT_EQ(line.find('\n'), std::string::npos);

  const Result<obs::RunRecord> parsed = obs::RunRecord::FromJsonLine(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->run_id, "run-1");
  EXPECT_EQ(parsed->fingerprint, record.fingerprint);
  EXPECT_EQ(parsed->workflow, "wf");
  EXPECT_EQ(parsed->timestamp_ms, record.timestamp_ms);
  EXPECT_EQ(parsed->selector, "greedy");
  EXPECT_EQ(parsed->plan_signature, record.plan_signature);
  EXPECT_DOUBLE_EQ(parsed->initial_cost, 10.0);
  EXPECT_DOUBLE_EQ(parsed->optimized_cost, 8.0);
  EXPECT_DOUBLE_EQ(parsed->analyze_ms, 1.5);
  EXPECT_DOUBLE_EQ(parsed->execute_ms, 20.25);
  EXPECT_DOUBLE_EQ(parsed->optimize_ms, 0.75);
  ASSERT_EQ(parsed->cards.size(), 1u);
  EXPECT_EQ(parsed->cards[0].block, 0);
  EXPECT_EQ(parsed->cards[0].se, RelMask{3});
  EXPECT_DOUBLE_EQ(parsed->cards[0].estimated, 100.0);
  EXPECT_DOUBLE_EQ(parsed->cards[0].actual, 101.0);
  ASSERT_EQ(parsed->block_stats.size(), 1u);
  const Result<int64_t> count =
      parsed->block_stats[0].GetCount(StatKey::Card(1));
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 100);
  ASSERT_EQ(parsed->metrics.size(), 1u);
  EXPECT_EQ(parsed->metrics[0].first, "etlopt.core.cycles");
  EXPECT_EQ(parsed->metrics[0].second, 1);
}

// Ledger lines written while `metrics` snapshotted the process-global
// counters (cumulative across every cycle of the process, with per-node
// labelled series) still load; a line of this format round-trips the peak
// RSS, serialized only when set.
TEST(RunRecordTest, OldCumulativeMetricsLoadAndPeakRssRoundTrips) {
  const std::string old_line =
      R"({"run_id":"run-1","fingerprint":"00000000000000aa","workflow":"wf",)"
      R"("ts_ms":1,"selector":"greedy","plan_sig":"00000000000000bb",)"
      R"("initial_cost":10,"optimized_cost":8,"phases":{"analyze_ms":1,)"
      R"("execute_ms":2,"optimize_ms":3},"cards":[],"stats":[],)"
      R"("metrics":{"etlopt.accuracy.samples":36,"etlopt.core.cycles":6,)"
      R"("etlopt.engine.rows_out{wf=\"wf\",node=\"2\",op=\"Join\"}":41788}})";
  const Result<obs::RunRecord> old = obs::RunRecord::FromJsonLine(old_line);
  ASSERT_TRUE(old.ok()) << old.status().ToString();
  EXPECT_EQ(old->Metric("etlopt.core.cycles"), 6);
  EXPECT_EQ(old->metrics.size(), 3u);
  EXPECT_EQ(old->peak_rss_bytes, 0);

  obs::RunRecord record = MakeRecord("run-2", 100);
  EXPECT_EQ(record.ToJsonLine().find("peak_rss_bytes"), std::string::npos);
  record.peak_rss_bytes = int64_t{3} << 30;
  const Result<obs::RunRecord> parsed =
      obs::RunRecord::FromJsonLine(record.ToJsonLine());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->peak_rss_bytes, int64_t{3} << 30);
  EXPECT_EQ(parsed->ToJsonLine(), record.ToJsonLine());
}

TEST(RunRecordTest, FromJsonLineRejectsNonRecords) {
  EXPECT_FALSE(obs::RunRecord::FromJsonLine("").ok());
  EXPECT_FALSE(obs::RunRecord::FromJsonLine("{\"run_id\":").ok());
  EXPECT_FALSE(obs::RunRecord::FromJsonLine("[1,2]").ok());
}

// ---------------------------------------------------------------------------
// RunLedger
// ---------------------------------------------------------------------------

TEST(RunLedgerTest, MissingFileLoadsEmpty) {
  obs::RunLedger ledger(TempPath("does_not_exist.ledger.jsonl"));
  const Result<obs::LedgerLoadResult> loaded = ledger.Load();
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->records.empty());
  EXPECT_EQ(loaded->skipped_lines, 0);
}

TEST(RunLedgerTest, AppendAndReloadPreservesOrderAndHistory) {
  const std::string path = TempPath("roundtrip.ledger.jsonl");
  std::remove(path.c_str());
  obs::RunLedger ledger(path);
  ASSERT_TRUE(ledger.Append(MakeRecord("run-1", 100)).ok());
  ASSERT_TRUE(ledger.Append(MakeRecord("run-2", 120)).ok());
  ASSERT_TRUE(
      ledger.Append(MakeRecord("run-1", 7, "ffff0000ffff0000")).ok());

  const Result<obs::LedgerLoadResult> loaded = ledger.Load();
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->skipped_lines, 0);
  ASSERT_EQ(loaded->records.size(), 3u);
  EXPECT_EQ(loaded->records[0].run_id, "run-1");
  EXPECT_EQ(loaded->records[1].run_id, "run-2");

  const auto history =
      obs::RunLedger::HistoryFor(loaded->records, "abcd0123abcd0123");
  ASSERT_EQ(history.size(), 2u);
  EXPECT_EQ(history[0].run_id, "run-1");
  EXPECT_EQ(history[1].run_id, "run-2");
  EXPECT_EQ(obs::RunLedger::NextRunId(loaded->records, "abcd0123abcd0123"),
            "run-3");
  EXPECT_EQ(obs::RunLedger::NextRunId(loaded->records, "ffff0000ffff0000"),
            "run-2");
  EXPECT_EQ(obs::RunLedger::NextRunId(loaded->records, "0000000000000000"),
            "run-1");
  std::remove(path.c_str());
}

TEST(RunLedgerTest, TruncatedLastLineIsSkippedAndAppendRepairs) {
  const std::string path = TempPath("truncated.ledger.jsonl");
  std::remove(path.c_str());
  obs::RunLedger ledger(path);
  ASSERT_TRUE(ledger.Append(MakeRecord("run-1", 100)).ok());
  ASSERT_TRUE(ledger.Append(MakeRecord("run-2", 120)).ok());

  // Simulate a crash mid-append: chop the last record in half. Cut
  // relative to the end of the first line so the truncation is guaranteed
  // to land inside the second record.
  std::string content = ReadFile(path);
  ASSERT_FALSE(content.empty());
  const size_t first_end = content.find('\n');
  ASSERT_NE(first_end, std::string::npos);
  WriteFile(path,
            content.substr(0, first_end + (content.size() - first_end) / 2));

  const Result<obs::LedgerLoadResult> loaded = ledger.Load();
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->skipped_lines, 1);
  ASSERT_EQ(loaded->records.size(), 1u);
  EXPECT_EQ(loaded->records[0].run_id, "run-1");

  // The next append writes a whole, parseable file again.
  ASSERT_TRUE(ledger.Append(MakeRecord("run-2", 130)).ok());
  const Result<obs::LedgerLoadResult> repaired = ledger.Load();
  ASSERT_TRUE(repaired.ok());
  ASSERT_EQ(repaired->records.size(), 2u);
  EXPECT_EQ(repaired->records[1].run_id, "run-2");
  std::remove(path.c_str());
}

TEST(RunLedgerTest, GarbageLinesAreCountedNotFatal) {
  const std::string path = TempPath("garbage.ledger.jsonl");
  WriteFile(path, "not json\n" + MakeRecord("run-1", 50).ToJsonLine() +
                      "\n{\"half\": \n");
  const Result<obs::LedgerLoadResult> loaded =
      obs::RunLedger(path).Load();
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->skipped_lines, 2);
  ASSERT_EQ(loaded->records.size(), 1u);
  EXPECT_EQ(loaded->records[0].run_id, "run-1");
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// DriftDetector
// ---------------------------------------------------------------------------

TEST(DriftDetectorTest, NoHistoryMeansNoDrift) {
  obs::DriftOptions options;
  const obs::DriftReport report =
      obs::DriftDetector(options).Compare({}, MakeRecord("run-1", 100));
  for (const obs::DriftFinding& f : report.findings) {
    EXPECT_FALSE(f.drifted);
    EXPECT_EQ(f.history_runs, 0);
  }
  EXPECT_FALSE(report.any_drift());
}

TEST(DriftDetectorTest, FlagsRelativeChangeAboveThreshold) {
  obs::DriftOptions options;
  options.rel_change_threshold = 0.5;
  options.qerror_threshold = 1e9;  // isolate the relative-change trigger
  const obs::DriftDetector detector(options);

  // 100 -> 120: 20% growth, within tolerance.
  EXPECT_FALSE(detector
                   .Compare({MakeRecord("run-1", 100)},
                            MakeRecord("run-2", 120))
                   .any_drift());
  // 100 -> 300: 200% growth, flagged.
  const obs::DriftReport report = detector.Compare(
      {MakeRecord("run-1", 100)}, MakeRecord("run-2", 300));
  EXPECT_TRUE(report.any_drift());
  EXPECT_TRUE(report.IsDrifted(0, StatKey::Card(1)));
  const std::vector<StatKey> keys = report.ReinstrumentKeys(0);
  EXPECT_FALSE(keys.empty());
}

TEST(DriftDetectorTest, FlagsQErrorShrinkage) {
  obs::DriftOptions options;
  options.rel_change_threshold = 1e9;  // isolate the q-error trigger
  options.qerror_threshold = 2.0;
  const obs::DriftDetector detector(options);
  // 100 -> 30: relative change is only -0.7 of a large base, but the
  // q-error 100/30 = 3.3 catches the shrink.
  const obs::DriftReport report = detector.Compare(
      {MakeRecord("run-1", 100)}, MakeRecord("run-2", 30));
  EXPECT_TRUE(report.any_drift());
}

TEST(DriftDetectorTest, EwmaWeighsRecentRunsMore) {
  obs::DriftOptions options;
  options.ewma_alpha = 0.5;
  options.rel_change_threshold = 0.5;
  options.qerror_threshold = 1e9;
  const obs::DriftDetector detector(options);
  // History 100, 200: EWMA = 0.5*200 + 0.5*100 = 150. Current 220 is +47%
  // of 150 — no drift. Against a plain mean-free last-value-only baseline
  // of 100 it would have been +120%.
  const obs::DriftReport report = detector.Compare(
      {MakeRecord("run-1", 100), MakeRecord("run-2", 200)},
      MakeRecord("run-3", 220));
  ASSERT_FALSE(report.findings.empty());
  const obs::DriftFinding* card = nullptr;
  for (const obs::DriftFinding& f : report.findings) {
    if (f.key == StatKey::Card(1)) card = &f;
  }
  ASSERT_NE(card, nullptr);
  EXPECT_DOUBLE_EQ(card->ewma, 150.0);
  EXPECT_EQ(card->history_runs, 2);
  EXPECT_FALSE(card->drifted);
}

TEST(DriftOptionsTest, EnvOverridesAreRead) {
  ::setenv("ETLOPT_DRIFT_REL_THRESHOLD", "0.9", 1);
  ::setenv("ETLOPT_DRIFT_QERROR_THRESHOLD", "5.5", 1);
  ::setenv("ETLOPT_DRIFT_EWMA_ALPHA", "0.7", 1);
  const obs::DriftOptions options = obs::DriftOptions::FromEnv();
  EXPECT_DOUBLE_EQ(options.rel_change_threshold, 0.9);
  EXPECT_DOUBLE_EQ(options.qerror_threshold, 5.5);
  EXPECT_DOUBLE_EQ(options.ewma_alpha, 0.7);
  ::unsetenv("ETLOPT_DRIFT_REL_THRESHOLD");
  ::unsetenv("ETLOPT_DRIFT_QERROR_THRESHOLD");
  ::unsetenv("ETLOPT_DRIFT_EWMA_ALPHA");
  const obs::DriftOptions defaults = obs::DriftOptions::FromEnv();
  EXPECT_DOUBLE_EQ(defaults.rel_change_threshold, 0.5);
}

// ---------------------------------------------------------------------------
// Estimator provenance
// ---------------------------------------------------------------------------

TEST(ProvenanceTest, ObservedAndDerivedKeysAreDistinguished) {
  const auto ex = testing_util::MakePaperExample();
  Pipeline pipeline;
  const auto analysis = pipeline.Analyze(ex.workflow);
  ASSERT_TRUE(analysis.ok());
  const auto run = pipeline.RunAndObserve(**analysis, ex.sources);
  ASSERT_TRUE(run.ok());

  const BlockAnalysis& ba = *(*analysis)->blocks[0];
  Estimator estimator(&ba.ctx, &ba.catalog);
  ASSERT_TRUE(estimator.DeriveAll(run->block_stats[0]).ok());

  const std::vector<StatKey> observed = ba.selection.ObservedKeys(ba.catalog);
  ASSERT_FALSE(observed.empty());
  int derived_seen = 0;
  for (const StatKey& key : observed) {
    const StatProvenance* prov = estimator.FindProvenance(key);
    ASSERT_NE(prov, nullptr) << key.ToString();
    EXPECT_TRUE(prov->observed);
    // An observed key is its own (only) leaf.
    const std::vector<StatKey> leaves = estimator.ObservedLeaves(key);
    ASSERT_EQ(leaves.size(), 1u);
    EXPECT_EQ(leaves[0], key);
  }
  for (RelMask se : ba.plan_space.subexpressions()) {
    const StatKey card = StatKey::Card(se);
    const StatProvenance* prov = estimator.FindProvenance(card);
    if (prov == nullptr || prov->observed) continue;
    ++derived_seen;
    EXPECT_FALSE(prov->inputs.empty());
    // Every transitive leaf of a derived estimate must itself be observed.
    const std::vector<StatKey> leaves = estimator.ObservedLeaves(card);
    ASSERT_FALSE(leaves.empty());
    for (const StatKey& leaf : leaves) {
      const StatProvenance* leaf_prov = estimator.FindProvenance(leaf);
      ASSERT_NE(leaf_prov, nullptr);
      EXPECT_TRUE(leaf_prov->observed) << leaf.ToString();
    }
  }
  EXPECT_GT(derived_seen, 0) << "expected at least one CSS-derived SE card";
}

// ---------------------------------------------------------------------------
// Forced observation (re-instrumentation)
// ---------------------------------------------------------------------------

TEST(ForceObserveTest, FlaggedKeyAppearsInSelectionEvenIfDerivable) {
  const auto ex = testing_util::MakePaperExample();
  // Baseline: find a derivable (non-selected) observable card statistic.
  Pipeline baseline;
  const auto base = baseline.Analyze(ex.workflow);
  ASSERT_TRUE(base.ok());
  const BlockAnalysis& ba = *(*base)->blocks[0];
  StatKey forced_key;
  bool found = false;
  for (int s = 0; s < ba.catalog.num_stats(); ++s) {
    if (!ba.problem.observable[static_cast<size_t>(s)]) continue;
    const StatKey& key = ba.catalog.stat(s);
    bool selected = false;
    for (int o : ba.selection.observed) selected = selected || o == s;
    if (!selected) {
      forced_key = key;
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found) << "paper example should leave some stat unselected";

  PipelineOptions options;
  options.force_observe = {forced_key};
  Pipeline pipeline(options);
  const auto analysis = pipeline.Analyze(ex.workflow);
  ASSERT_TRUE(analysis.ok());
  const BlockAnalysis& fa = *(*analysis)->blocks[0];
  const std::vector<StatKey> observed = fa.selection.ObservedKeys(fa.catalog);
  bool present = false;
  for (const StatKey& key : observed) present = present || key == forced_key;
  EXPECT_TRUE(present) << "forced key missing: " << forced_key.ToString();

  // ILP path honors the forced lower bound too.
  PipelineOptions ilp_options = options;
  ilp_options.selector = SelectorKind::kIlp;
  Pipeline ilp_pipeline(ilp_options);
  const auto ilp_analysis = ilp_pipeline.Analyze(ex.workflow);
  ASSERT_TRUE(ilp_analysis.ok());
  const BlockAnalysis& ia = *(*ilp_analysis)->blocks[0];
  const std::vector<StatKey> ilp_observed =
      ia.selection.ObservedKeys(ia.catalog);
  bool ilp_present = false;
  for (const StatKey& key : ilp_observed) {
    ilp_present = ilp_present || key == forced_key;
  }
  EXPECT_TRUE(ilp_present);
}

// ---------------------------------------------------------------------------
// End-to-end: two runs, drift, provenance across the ledger
// ---------------------------------------------------------------------------

TEST(CrossRunTest, SecondRunExplainCitesFirstRunStatisticsAndFlagsDrift) {
  const std::string path = TempPath("cross_run.ledger.jsonl");
  std::remove(path.c_str());
  obs::RunLedger ledger(path);
  Pipeline pipeline;

  // ---- Run 1: baseline data ----
  const auto ex1 = testing_util::MakePaperExample(7, 400, 40, 25);
  const Result<CycleOutcome> cycle1 =
      pipeline.RunCycle(ex1.workflow, ex1.sources);
  ASSERT_TRUE(cycle1.ok()) << cycle1.status().ToString();
  {
    std::vector<CardMap> truths;
    for (const auto& ba : cycle1->analysis->blocks) {
      const auto truth = ComputeGroundTruthCards(
          ba->ctx, ba->plan_space.subexpressions(), cycle1->run.exec);
      ASSERT_TRUE(truth.ok());
      truths.push_back(*truth);
    }
    const auto loaded = ledger.Load();
    ASSERT_TRUE(loaded.ok());
    const obs::RunRecord record = MakeRunRecord(
        *cycle1,
        obs::RunLedger::NextRunId(
            loaded->records, obs::FingerprintWorkflow(ex1.workflow)),
        &truths);
    EXPECT_EQ(record.run_id, "run-1");
    EXPECT_FALSE(record.selector.empty());
    EXPECT_EQ(record.plan_signature.size(), 16u);
    ASSERT_TRUE(ledger.Append(record).ok());
  }

  // ---- Run 2: the Orders source tripled (perturbed data) ----
  const auto ex2 = testing_util::MakePaperExample(11, 1200, 40, 25);
  const std::string fingerprint = obs::FingerprintWorkflow(ex2.workflow);
  const Result<CycleOutcome> cycle2 =
      pipeline.RunCycle(ex2.workflow, ex2.sources);
  ASSERT_TRUE(cycle2.ok());
  std::vector<CardMap> truths2;
  for (const auto& ba : cycle2->analysis->blocks) {
    const auto truth = ComputeGroundTruthCards(
        ba->ctx, ba->plan_space.subexpressions(), cycle2->run.exec);
    ASSERT_TRUE(truth.ok());
    truths2.push_back(*truth);
  }
  const auto loaded = ledger.Load();
  ASSERT_TRUE(loaded.ok());
  const std::vector<obs::RunRecord> history =
      obs::RunLedger::HistoryFor(loaded->records, fingerprint);
  ASSERT_EQ(history.size(), 1u);  // both runs share a fingerprint
  EXPECT_EQ(history[0].run_id, "run-1");
  const obs::RunRecord record2 = MakeRunRecord(
      *cycle2, obs::RunLedger::NextRunId(loaded->records, fingerprint),
      &truths2);
  EXPECT_EQ(record2.run_id, "run-2");

  // Drift: Orders tripled, so its cardinality statistics must be flagged.
  const obs::DriftReport drift =
      obs::DriftDetector().Compare(history, record2);
  EXPECT_TRUE(drift.any_drift());
  EXPECT_TRUE(drift.IsDrifted(0, StatKey::Card(1)))  // R0 = Orders
      << drift.ToText();

  // Explain: estimates derived from run 1's stored statistics, cited by
  // run id, against run 2's actual rows.
  std::vector<obs::ExplainBlockInput> inputs;
  const auto& blocks = cycle2->analysis->blocks;
  for (size_t b = 0; b < blocks.size(); ++b) {
    ASSERT_LT(b, history[0].block_stats.size());
    obs::ExplainBlockInput in;
    in.block = static_cast<int>(b);
    in.ctx = &blocks[b]->ctx;
    in.catalog = &blocks[b]->catalog;
    in.ses = blocks[b]->plan_space.subexpressions();
    in.stats = &history[0].block_stats[b];
    in.source_run_id = history[0].run_id;
    in.actuals = &truths2[b];
    inputs.push_back(std::move(in));
  }
  const Result<obs::PlanExplain> explain = obs::BuildPlanExplain(
      inputs, ex2.workflow.name(), fingerprint, &drift);
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  ASSERT_FALSE(explain->entries.empty());

  bool any_drifted_entry = false;
  bool any_high_qerror = false;
  for (const obs::SeExplainEntry& entry : explain->entries) {
    if (entry.estimated < 0) continue;
    EXPECT_EQ(entry.source_run_id, "run-1");
    for (const StatKey& leaf : entry.feeding) {
      // Every cited statistic really is in run 1's stored set.
      EXPECT_TRUE(history[0].block_stats[static_cast<size_t>(entry.block)]
                      .Contains(leaf))
          << leaf.ToString();
    }
    any_drifted_entry = any_drifted_entry || entry.drifted;
    any_high_qerror = any_high_qerror || entry.qerror > 2.0;
  }
  EXPECT_TRUE(any_drifted_entry);
  EXPECT_TRUE(any_high_qerror) << "tripled source should blow up q-errors";

  const std::string text = obs::FormatPlanExplainText(*explain);
  EXPECT_NE(text.find("@run-1"), std::string::npos) << text;
  EXPECT_NE(text.find("[DRIFT]"), std::string::npos) << text;

  ASSERT_TRUE(ledger.Append(record2).ok());
  const auto final_load = ledger.Load();
  ASSERT_TRUE(final_load.ok());
  EXPECT_EQ(
      obs::RunLedger::HistoryFor(final_load->records, fingerprint).size(),
      2u);
  std::remove(path.c_str());
}

// Lifecycle wiring: drift report comes back through RunBudgetedLifecycle.
TEST(CrossRunTest, BudgetedLifecycleReportsDriftAgainstHistory) {
  const auto ex1 = testing_util::MakePaperExample(7, 400, 40, 25);
  Pipeline pipeline;
  const Result<CycleOutcome> cycle1 =
      pipeline.RunCycle(ex1.workflow, ex1.sources);
  ASSERT_TRUE(cycle1.ok());
  const obs::RunRecord record1 = MakeRunRecord(*cycle1, "run-1");

  const auto ex2 = testing_util::MakePaperExample(11, 1200, 40, 25);
  const std::vector<obs::RunRecord> history = {record1};
  const auto result =
      RunBudgetedLifecycle(ex2.workflow, ex2.sources, 1e12, {}, &history);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->block_stats.empty());
  EXPECT_TRUE(result->drift.any_drift());
  // The flagged keys are exactly what a re-run would force-observe.
  EXPECT_FALSE(result->drift.ReinstrumentKeys(0).empty());
}

}  // namespace
}  // namespace etlopt
