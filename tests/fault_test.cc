#include "util/fault.h"

#include <gtest/gtest.h>

#include "engine/executor.h"
#include "test_util.h"

namespace etlopt {
namespace {

using fault::FaultInjector;
using fault::Kind;
using fault::Scope;

// Every test runs with a clean process-global injector; InstallGlobal("")
// clears whatever a previous test left behind.
class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override { ASSERT_TRUE(FaultInjector::InstallGlobal("").ok()); }
  void TearDown() override {
    ASSERT_TRUE(FaultInjector::InstallGlobal("").ok());
  }

  // Executor options with near-zero backoff so retry tests stay fast.
  static ExecutorOptions FastRetries() {
    ExecutorOptions options;
    options.retry.initial_backoff_ms = 0.01;
    options.retry.max_backoff_ms = 0.05;
    return options;
  }
};

TEST_F(FaultTest, ParsesSeedAndRules) {
  const auto inj = FaultInjector::Parse(
      "seed=42;source:orders:io_error:count=2;op:join5:crash;"
      "tap:*:oom:p=0.5");
  ASSERT_TRUE(inj.ok()) << inj.status().ToString();
  EXPECT_EQ(inj->seed(), 42u);
  ASSERT_EQ(inj->rules().size(), 3u);
  EXPECT_EQ(inj->rules()[0].scope, Scope::kSource);
  EXPECT_EQ(inj->rules()[0].name, "orders");
  EXPECT_EQ(inj->rules()[0].kind, Kind::kIoError);
  EXPECT_EQ(inj->rules()[0].count, 2);
  EXPECT_EQ(inj->rules()[1].scope, Scope::kOp);
  EXPECT_EQ(inj->rules()[1].kind, Kind::kCrash);
  EXPECT_EQ(inj->rules()[2].name, "*");
  EXPECT_DOUBLE_EQ(inj->rules()[2].p, 0.5);
}

TEST_F(FaultTest, ParseRejectsMalformedSpecs) {
  EXPECT_FALSE(FaultInjector::Parse("bogus:orders:io_error").ok());
  EXPECT_FALSE(FaultInjector::Parse("source:orders:melted").ok());
  EXPECT_FALSE(FaultInjector::Parse("source:orders").ok());
  EXPECT_FALSE(FaultInjector::Parse("source:orders:io_error:p=nope").ok());
  EXPECT_FALSE(FaultInjector::Parse("source:orders:io_error:count=-3").ok());
  EXPECT_FALSE(FaultInjector::Parse("seed=").ok());
}

TEST_F(FaultTest, EmptySpecHasNoRules) {
  const auto inj = FaultInjector::Parse("");
  ASSERT_TRUE(inj.ok());
  EXPECT_FALSE(inj->has_rules());
}

TEST_F(FaultTest, CountRuleFiresExactlyNTimes) {
  auto inj = FaultInjector::Parse("source:orders:io_error:count=2").value();
  EXPECT_EQ(inj.OnSourceOpen("orders"), Kind::kIoError);
  EXPECT_EQ(inj.OnSourceOpen("orders"), Kind::kIoError);
  EXPECT_EQ(inj.OnSourceOpen("orders"), Kind::kNone);
  EXPECT_EQ(inj.OnSourceOpen("orders"), Kind::kNone);
  // A fresh run starts the budget over.
  inj.ResetState();
  EXPECT_EQ(inj.OnSourceOpen("orders"), Kind::kIoError);
}

TEST_F(FaultTest, EveryRuleFiresOnMultiples) {
  auto inj = FaultInjector::Parse("source:s:malformed_row:every=3").value();
  int fired = 0;
  for (int i = 0; i < 9; ++i) {
    if (inj.OnSourceRow("s") != Kind::kNone) ++fired;
  }
  EXPECT_EQ(fired, 3);
}

TEST_F(FaultTest, CrashAfterRowsAccumulatesWeight) {
  auto inj = FaultInjector::Parse("op:join:crash_after_rows=100").value();
  EXPECT_EQ(inj.OnOperator("join3", 40), Kind::kNone);
  EXPECT_EQ(inj.OnOperator("join3", 40), Kind::kNone);
  EXPECT_EQ(inj.OnOperator("join3", 40), Kind::kCrash);  // cumulative 120
  // A crash fires once.
  EXPECT_EQ(inj.OnOperator("join3", 40), Kind::kNone);
}

TEST_F(FaultTest, NameMatchingIsExactPrefixOrWildcard) {
  auto inj = FaultInjector::Parse("op:join:crash").value();
  EXPECT_TRUE(inj.HasRules(Scope::kOp, "join5"));
  EXPECT_TRUE(inj.HasRules(Scope::kOp, "join"));
  EXPECT_FALSE(inj.HasRules(Scope::kOp, "filter2"));
  EXPECT_FALSE(inj.HasRules(Scope::kSource, "join5"));

  auto any = FaultInjector::Parse("tap:*:oom").value();
  EXPECT_TRUE(any.HasRules(Scope::kTap, "distinct"));
  EXPECT_TRUE(any.HasRules(Scope::kTap, "hist"));
}

TEST_F(FaultTest, BernoulliStreamIsDeterministicInSeed) {
  auto run = [](uint64_t seed) {
    auto inj = FaultInjector::Parse("seed=" + std::to_string(seed) +
                                    ";source:s:malformed_row:p=0.3")
                   .value();
    std::vector<int> fires;
    for (int i = 0; i < 64; ++i) {
      fires.push_back(inj.OnSourceRow("s") != Kind::kNone ? 1 : 0);
    }
    return fires;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));
}

TEST_F(FaultTest, InstallGlobalIsStrictAndClearable) {
  ASSERT_TRUE(FaultInjector::InstallGlobal("tap:*:oom").ok());
  ASSERT_NE(FaultInjector::Global(), nullptr);
  // A bad spec is rejected and leaves the previous injector installed.
  EXPECT_FALSE(FaultInjector::InstallGlobal("nope").ok());
  ASSERT_NE(FaultInjector::Global(), nullptr);
  EXPECT_TRUE(FaultInjector::Global()->HasRules(Scope::kTap, "distinct"));
  // Empty spec clears.
  ASSERT_TRUE(FaultInjector::InstallGlobal("").ok());
  EXPECT_EQ(FaultInjector::Global(), nullptr);
}

// ---- executor integration: retry, quarantine, crash salvage ----

TEST_F(FaultTest, TransientSourceErrorsAbsorbedByRetry) {
  auto ex = testing_util::MakePaperExample();
  const int64_t clean_rows = Executor(&ex.workflow)
                                 .Execute(ex.sources)
                                 ->targets.at("warehouse.orders")
                                 .num_rows();

  ASSERT_TRUE(
      FaultInjector::InstallGlobal("source:Orders:io_error:count=2").ok());
  const Executor executor(&ex.workflow, FastRetries());
  const auto result = executor.Execute(ex.sources);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->aborted());
  EXPECT_EQ(result->source_retries.at("Orders"), 2);
  // The absorbed retries leave the run's output untouched.
  EXPECT_EQ(result->targets.at("warehouse.orders").num_rows(), clean_rows);
}

TEST_F(FaultTest, RetryBudgetExhaustionAbortsCleanly) {
  // No count param: every read attempt fails, outliving max_attempts.
  ASSERT_TRUE(FaultInjector::InstallGlobal("source:Orders:io_error").ok());
  auto ex = testing_util::MakePaperExample();
  const Executor executor(&ex.workflow, FastRetries());
  const auto result = executor.Execute(ex.sources);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->aborted());
  EXPECT_EQ(result->abort_kind, AbortKind::kSourceFailed);
  EXPECT_LT(result->nodes_completed, result->nodes_total);
}

TEST_F(FaultTest, QuarantineBelowThresholdCompletes) {
  ASSERT_TRUE(FaultInjector::InstallGlobal(
                  "seed=5;source:Orders:malformed_row:every=100")
                  .ok());
  auto ex = testing_util::MakePaperExample();
  ExecutorOptions options = FastRetries();
  options.max_error_rate = 0.05;  // 1% injected < 5% allowed
  options.retain_node_outputs = true;
  const auto result = Executor(&ex.workflow, options).Execute(ex.sources);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->aborted());
  EXPECT_EQ(result->quarantined_rows(), 4);  // 400 rows, every 100th
  // Quarantined rows are kept in the error sink, not silently dropped.
  EXPECT_EQ(result->quarantined.at("Orders").num_rows(), 4);
  // The watermark counts scanned rows, quarantined included.
  EXPECT_EQ(result->source_rows_read.at("Orders"), 400);
  // Downstream flow sees only the clean rows.
  EXPECT_EQ(result->node_outputs.at(0).num_rows(), 396);
}

TEST_F(FaultTest, QuarantineAboveThresholdAborts) {
  ASSERT_TRUE(FaultInjector::InstallGlobal(
                  "seed=5;source:Orders:malformed_row:p=0.5")
                  .ok());
  auto ex = testing_util::MakePaperExample();
  const auto result = Executor(&ex.workflow, FastRetries()).Execute(ex.sources);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->aborted());
  EXPECT_EQ(result->abort_kind, AbortKind::kErrorRate);
  EXPECT_NE(result->abort_reason.find("Orders"), std::string::npos);
}

TEST_F(FaultTest, CrashFaultSalvagesCompletedPrefix) {
  // Paper example: sources 0-2, joins 3-4, sink 5. Crash the second join.
  ASSERT_TRUE(FaultInjector::InstallGlobal("op:join4:crash").ok());
  auto ex = testing_util::MakePaperExample();
  const auto result = Executor(&ex.workflow).Execute(ex.sources);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->aborted());
  EXPECT_EQ(result->abort_kind, AbortKind::kCrash);
  // The completed prefix (sources + first join) is preserved for salvage...
  EXPECT_EQ(result->node_outputs.count(3), 1u);
  // ...and the crashed node's outputs are not.
  EXPECT_EQ(result->node_outputs.count(4), 0u);
  EXPECT_EQ(result->targets.count("warehouse.orders"), 0u);
  EXPECT_GT(result->completion_fraction(), 0.0);
  EXPECT_LT(result->completion_fraction(), 1.0);
}

TEST_F(FaultTest, FaultedRunIsDeterministic) {
  auto run_once = [] {
    EXPECT_TRUE(FaultInjector::InstallGlobal(
                    "seed=11;source:Orders:malformed_row:p=0.2")
                    .ok());
    auto ex = testing_util::MakePaperExample();
    ExecutorOptions options;
    options.max_error_rate = 0.5;
    const auto result = Executor(&ex.workflow, options).Execute(ex.sources);
    EXPECT_TRUE(result.ok());
    return result->quarantined_rows();
  };
  const int64_t first = run_once();
  const int64_t second = run_once();
  EXPECT_GT(first, 0);
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace etlopt
