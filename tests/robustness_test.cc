// Integration tests for fault-tolerant execution: the crash fault matrix
// (abort -> partial ledger record -> next-run salvage feedback), tap
// degradation under injected allocation failure, checkpoint sidecars, and
// ledger corruption tolerance.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>

#include "core/lifecycle.h"
#include "core/pipeline.h"
#include "obs/checkpoint.h"
#include "obs/drift.h"
#include "obs/ledger.h"
#include "test_util.h"
#include "util/fault.h"

namespace etlopt {
namespace {

using fault::FaultInjector;

std::string TempPath(const std::string& name) {
  // Pid-qualified so the sanitizer twins of this suite can run under the
  // same ctest invocation without clobbering each other's files.
  const std::string path =
      ::testing::TempDir() + std::to_string(getpid()) + "_" + name;
  std::remove(path.c_str());
  return path;
}

class RobustnessTest : public ::testing::Test {
 protected:
  void SetUp() override { ASSERT_TRUE(FaultInjector::InstallGlobal("").ok()); }
  void TearDown() override {
    ASSERT_TRUE(FaultInjector::InstallGlobal("").ok());
  }
};

// The fault matrix of the acceptance criteria: >= 5 distinct injected crash
// points, each producing a partial=true ledger record whose salvaged
// statistics let the next (clean) run produce a plan at least as good as a
// cold start.
TEST_F(RobustnessTest, CrashMatrixYieldsPartialRecordsAndSalvageableRuns) {
  const char* kCrashSpecs[] = {
      "seed=13;op:source0:crash",                // first source
      "seed=13;op:source2:crash",                // last source
      "seed=13;op:join3:crash",                  // first join
      "seed=13;op:join4:crash",                  // second join
      "seed=13;op:sink:crash",                   // the sink
      "seed=13;op:join4:crash_after_rows=100",   // mid-stream crash
  };
  auto ex = testing_util::MakePaperExample();

  // Cold-start reference: a clean lifecycle with no history at all.
  const BudgetedLifecycleResult cold =
      RunBudgetedLifecycle(ex.workflow, ex.sources, 1e9).value();
  ASSERT_FALSE(cold.aborted());

  for (const char* spec : kCrashSpecs) {
    SCOPED_TRACE(spec);
    const std::string ledger_path = TempPath("crash_matrix.jsonl");

    ASSERT_TRUE(FaultInjector::InstallGlobal(spec).ok());
    Pipeline pipeline;
    const Result<CycleOutcome> cycle =
        pipeline.RunCycle(ex.workflow, ex.sources);
    ASSERT_TRUE(cycle.ok()) << cycle.status().ToString();
    ASSERT_TRUE(cycle->aborted());
    EXPECT_EQ(cycle->run.exec.abort_kind, AbortKind::kCrash);

    // The partial record round-trips through the ledger.
    const obs::RunRecord record = MakeRunRecord(*cycle, "run-1");
    EXPECT_TRUE(record.partial);
    EXPECT_LT(record.completion, 1.0);
    EXPECT_FALSE(record.abort_reason.empty());
    obs::RunLedger ledger(ledger_path);
    ASSERT_TRUE(ledger.Append(record).ok());
    const auto loaded = ledger.Load();
    ASSERT_TRUE(loaded.ok());
    ASSERT_EQ(loaded->records.size(), 1u);
    EXPECT_TRUE(loaded->records[0].partial);
    EXPECT_DOUBLE_EQ(loaded->records[0].completion, record.completion);

    // Next run, faults cleared: the lifecycle consumes the partial history
    // and must match the cold-start plan quality (same data, so the
    // salvage-seeded cost model may not make the plan any worse).
    ASSERT_TRUE(FaultInjector::InstallGlobal("").ok());
    const std::vector<obs::RunRecord> history = loaded->records;
    const Result<BudgetedLifecycleResult> next =
        RunBudgetedLifecycle(ex.workflow, ex.sources, 1e9, {}, &history);
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    EXPECT_FALSE(next->aborted());
    EXPECT_LE(next->optimized_cost, cold.optimized_cost + 1e-9);
  }
}

// A crash past the first join leaves that join's statistics salvageable:
// the partial record carries real SE cardinalities, and the next lifecycle
// seeds its cost model from them (visible as its feedback key count).
TEST_F(RobustnessTest, PartialRecordCarriesSalvagedCardsThatSeedNextRun) {
  auto ex = testing_util::MakePaperExample();
  ASSERT_TRUE(FaultInjector::InstallGlobal("op:join4:crash").ok());
  Pipeline pipeline;
  const CycleOutcome cycle = pipeline.RunCycle(ex.workflow, ex.sources).value();
  ASSERT_TRUE(cycle.aborted());
  const obs::RunRecord record = MakeRunRecord(cycle, "run-1");
  EXPECT_TRUE(record.partial);
  // Sources and the first join completed: their cards were salvaged.
  EXPECT_FALSE(record.cards.empty());

  ASSERT_TRUE(FaultInjector::InstallGlobal("").ok());
  const std::vector<obs::RunRecord> history{record};
  const Result<BudgetedLifecycleResult> next =
      RunBudgetedLifecycle(ex.workflow, ex.sources, 1e9, {}, &history);
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_FALSE(next->aborted());
  EXPECT_EQ(next->partial_feedback_keys,
            static_cast<int64_t>(record.cards.size()));
}

// RunCycle consumes the same salvage: a partial last history record seeds
// the cycle's selection cost model, as it does the budgeted lifecycle's.
TEST_F(RobustnessTest, RunCycleSeedsFromPartialHistory) {
  auto ex = testing_util::MakePaperExample();
  ASSERT_TRUE(FaultInjector::InstallGlobal("op:join4:crash").ok());
  Pipeline pipeline;
  const CycleOutcome crashed =
      pipeline.RunCycle(ex.workflow, ex.sources).value();
  ASSERT_TRUE(crashed.aborted());
  const std::vector<obs::RunRecord> history{
      MakeRunRecord(crashed, "run-1")};
  ASSERT_FALSE(history[0].cards.empty());

  ASSERT_TRUE(FaultInjector::InstallGlobal("").ok());
  const Result<CycleOutcome> next =
      pipeline.RunCycle(ex.workflow, ex.sources, &history);
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_FALSE(next->aborted());
  EXPECT_EQ(next->analysis->partial_feedback_keys,
            static_cast<int64_t>(history[0].cards.size()));
  EXPECT_EQ(MakeRunRecord(*next, "run-2").Metric(
                "etlopt.core.partial_feedback_keys"),
            static_cast<int64_t>(history[0].cards.size()));
}

// Satellite: sketch-tap fallback under injected allocation failure. A
// distinct tap whose exact collector "fails to allocate" retries as a
// bounded-memory sketch; when the sketch allocation fails too, the tap is
// disabled — either way the run completes with correct row counts.
TEST_F(RobustnessTest, TapAllocationFailureDowngradesToSketch) {
  auto ex = testing_util::MakePaperExample();
  const std::vector<Block> blocks = PartitionBlocks(ex.workflow);
  const BlockContext ctx =
      BlockContext::Build(&ex.workflow, blocks[0]).value();
  const ExecutionResult exec =
      Executor(&ex.workflow, testing_util::RetainOutputs())
          .Execute(ex.sources)
          .value();

  const StatKey card_key = StatKey::Card(0b001);
  const StatKey distinct_key =
      StatKey::Distinct(0b001, AttrMask{1} << ex.prod_id);
  const std::vector<StatKey> keys{card_key, distinct_key};

  // Reference: exact observation.
  const StatStore exact = ObserveStatistics(ctx, exec, keys).value();
  const int64_t exact_distinct = exact.GetCount(distinct_key).value();

  // The first oom consult hits the exact collector; the sketch retry is
  // consulted separately and succeeds (count=1 budget is spent).
  ASSERT_TRUE(FaultInjector::InstallGlobal("tap:distinct:oom:count=1").ok());
  TapReport report;
  const StatStore degraded =
      ObserveStatistics(ctx, exec, keys, {}, &report).value();
  EXPECT_EQ(report.downgraded_taps, 1);
  EXPECT_EQ(report.disabled_taps, 0);
  // Row counts stay exact; the distinct estimate is approximate but close.
  EXPECT_EQ(degraded.GetCount(card_key).value(),
            exact.GetCount(card_key).value());
  const StatValue* approx = degraded.Find(distinct_key);
  ASSERT_NE(approx, nullptr);
  EXPECT_TRUE(approx->is_approx());
  EXPECT_NEAR(static_cast<double>(approx->count()),
              static_cast<double>(exact_distinct),
              0.2 * static_cast<double>(exact_distinct));
}

TEST_F(RobustnessTest, TapAllocationFailureDisablesTapAndRunCompletes) {
  auto ex = testing_util::MakePaperExample();
  const int64_t clean_rows = Executor(&ex.workflow)
                                 .Execute(ex.sources)
                                 ->targets.at("warehouse.orders")
                                 .num_rows();

  // Every tap allocation fails, sketch retries included.
  ASSERT_TRUE(FaultInjector::InstallGlobal("tap:*:oom").ok());
  Pipeline pipeline;
  const Result<CycleOutcome> cycle = pipeline.RunCycle(ex.workflow, ex.sources);
  ASSERT_TRUE(cycle.ok()) << cycle.status().ToString();
  EXPECT_FALSE(cycle->aborted());
  EXPECT_GT(cycle->run.tap_report.disabled_taps, 0);
  // The run itself is untouched: correct row counts, degraded optimization
  // keeps the designed join order instead of failing.
  EXPECT_EQ(cycle->run.exec.targets.at("warehouse.orders").num_rows(),
            clean_rows);
}

// Checkpoint sidecar: flushed during the run, kept (partial) on abort,
// discarded on clean completion.
TEST_F(RobustnessTest, CheckpointSidecarSurvivesAbortAndRoundTrips) {
  auto ex = testing_util::MakePaperExample();
  PipelineOptions options;
  options.checkpoint_path = TempPath("robustness.ckpt");
  options.checkpoint_every_rows = 10;

  ASSERT_TRUE(FaultInjector::InstallGlobal("op:join4:crash").ok());
  Pipeline pipeline(options);
  const CycleOutcome cycle = pipeline.RunCycle(ex.workflow, ex.sources).value();
  ASSERT_TRUE(cycle.aborted());

  const Result<obs::TapCheckpoint> ckpt =
      obs::LoadTapCheckpoint(options.checkpoint_path);
  ASSERT_TRUE(ckpt.ok()) << ckpt.status().ToString();
  EXPECT_TRUE(ckpt->partial);
  EXPECT_EQ(ckpt->fingerprint, obs::FingerprintWorkflow(ex.workflow));
  EXPECT_FALSE(ckpt->source_rows_read.empty());
  // The snapshot carries the salvaged statistics in stat_io round-trip form.
  bool any_stat = false;
  for (const StatStore& store : ckpt->block_stats) {
    if (!store.values().empty()) any_stat = true;
  }
  EXPECT_TRUE(any_stat);

  // A clean run over the same path removes the sidecar.
  ASSERT_TRUE(FaultInjector::InstallGlobal("").ok());
  const CycleOutcome clean =
      Pipeline(options).RunCycle(ex.workflow, ex.sources).value();
  ASSERT_FALSE(clean.aborted());
  EXPECT_TRUE(obs::LoadTapCheckpoint(options.checkpoint_path).status().code() ==
              StatusCode::kNotFound);
}

// Satellite: RunLedger::Load skips corrupt mid-file lines instead of
// failing the whole load, and counts them in a warning metric.
TEST_F(RobustnessTest, LedgerLoadSkipsCorruptMidFileLines) {
  const std::string path = TempPath("corrupt_ledger.jsonl");
  obs::RunRecord a;
  a.run_id = "run-1";
  a.fingerprint = "feedfacefeedface";
  obs::RunRecord b = a;
  b.run_id = "run-2";
  obs::RunLedger ledger(path);
  ASSERT_TRUE(ledger.Append(a).ok());
  ASSERT_TRUE(ledger.Append(b).ok());

  // Corrupt the middle: rewrite the file with garbage between the records.
  const auto loaded_clean = ledger.Load().value();
  ASSERT_EQ(loaded_clean.records.size(), 2u);
  {
    std::ifstream in(path);
    std::string line1, line2;
    std::getline(in, line1);
    std::getline(in, line2);
    in.close();
    std::ofstream out(path, std::ios::trunc);
    out << line1 << "\n"
        << "{\"run_id\": \"run-broken\", truncated garbage\n"
        << "not json at all\n"
        << line2 << "\n";
  }

  const auto loaded = ledger.Load();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->skipped_lines, 2);
  ASSERT_EQ(loaded->records.size(), 2u);
  EXPECT_EQ(loaded->records[0].run_id, "run-1");
  EXPECT_EQ(loaded->records[1].run_id, "run-2");
  // Loading again counts the same lines again: the count is the load's.
  EXPECT_EQ(ledger.Load()->skipped_lines, 2);
}

// Clean-run ledger lines are byte-identical to the seed format: the
// robustness fields only serialize when they deviate from their defaults.
TEST_F(RobustnessTest, CleanRunLedgerLineHasNoRobustnessFields) {
  obs::RunRecord clean;
  clean.run_id = "run-1";
  clean.fingerprint = "feedfacefeedface";
  const std::string line = clean.ToJsonLine();
  EXPECT_EQ(line.find("\"partial\""), std::string::npos);
  EXPECT_EQ(line.find("\"abort_reason\""), std::string::npos);
  EXPECT_EQ(line.find("\"watermarks\""), std::string::npos);
  EXPECT_EQ(line.find("\"retries\""), std::string::npos);
  EXPECT_EQ(line.find("\"quarantined\""), std::string::npos);

  obs::RunRecord partial = clean;
  partial.partial = true;
  partial.abort_reason = "crash: injected";
  partial.completion = 0.5;
  partial.source_rows_read = {{"Orders", 400}};
  partial.source_retries = {{"Orders", 2}};
  partial.quarantined_rows = 4;
  const auto round = obs::RunRecord::FromJsonLine(partial.ToJsonLine());
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  EXPECT_TRUE(round->partial);
  EXPECT_EQ(round->abort_reason, "crash: injected");
  EXPECT_DOUBLE_EQ(round->completion, 0.5);
  EXPECT_EQ(round->source_rows_read, partial.source_rows_read);
  EXPECT_EQ(round->source_retries, partial.source_retries);
  EXPECT_EQ(round->quarantined_rows, 4);
}

// Partial-backed drift comparisons widen the thresholds: a change that
// counts as drift between two clean runs is tolerated when the current run
// is a salvaged prefix.
TEST_F(RobustnessTest, DriftWidensThresholdsForPartialRuns) {
  auto make_record = [](double actual, bool partial) {
    obs::RunRecord r;
    obs::RunRecord::SeCard card;
    card.block = 0;
    card.se = 0b1;
    card.actual = actual;
    r.cards.push_back(card);
    r.partial = partial;
    if (partial) r.completion = 0.5;
    return r;
  };
  const std::vector<obs::RunRecord> history{make_record(1000.0, false),
                                            make_record(1000.0, false)};
  // +80% change: rel_change 0.8 > 0.5 drifts clean, but not when widened
  // by partial_widen_factor 2.0 (threshold becomes 1.0; q-error 1.8 < 4).
  const obs::DriftReport clean_report =
      obs::DriftDetector().Compare(history, make_record(1800.0, false));
  ASSERT_EQ(clean_report.findings.size(), 1u);
  EXPECT_TRUE(clean_report.findings[0].drifted);
  EXPECT_FALSE(clean_report.findings[0].partial_backed);

  const obs::DriftReport partial_report =
      obs::DriftDetector().Compare(history, make_record(1800.0, true));
  ASSERT_EQ(partial_report.findings.size(), 1u);
  EXPECT_TRUE(partial_report.findings[0].partial_backed);
  EXPECT_FALSE(partial_report.findings[0].drifted);
}

// The whole fault pipeline is deterministic under a pinned seed: two
// identical faulted cycles abort at the same node with identical salvage.
TEST_F(RobustnessTest, FaultedCycleIsDeterministicUnderPinnedSeed) {
  auto run_once = [] {
    EXPECT_TRUE(FaultInjector::InstallGlobal(
                    "seed=99;source:Orders:malformed_row:p=0.3;"
                    "op:join4:crash_after_rows=200")
                    .ok());
    auto ex = testing_util::MakePaperExample();
    PipelineOptions options;
    options.executor.max_error_rate = 0.9;
    const CycleOutcome cycle =
        Pipeline(options).RunCycle(ex.workflow, ex.sources).value();
    const obs::RunRecord record = MakeRunRecord(cycle, "run-1");
    EXPECT_TRUE(record.partial);
    return std::make_tuple(record.completion, record.quarantined_rows,
                           record.abort_reason, record.cards.size());
  };
  const auto first = run_once();
  const auto second = run_once();
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace etlopt
