// Tests for the executed Section 6.1 lifecycle: budgeted first run +
// re-ordered runs collecting the deferred SE cardinalities as counters.

#include <gtest/gtest.h>

#include "core/lifecycle.h"
#include "datagen/workload_suite.h"
#include "stats/stat_io.h"
#include "test_util.h"
#include "util/fault.h"

namespace etlopt {
namespace {

TEST(BudgetedLifecycleTest, TinyBudgetStillLearnsEverything) {
  auto ex = testing_util::MakePaperExample();
  // Budget 6: only counters fit; |O⋈C| must come from a re-ordered run.
  const BudgetedLifecycleResult life =
      RunBudgetedLifecycle(ex.workflow, ex.sources, 6.0).value();
  EXPECT_GE(life.executions, 2);

  // The learned cardinalities equal ground truth for every SE.
  const std::vector<Block> blocks = PartitionBlocks(ex.workflow);
  const BlockContext ctx =
      BlockContext::Build(&ex.workflow, blocks[0]).value();
  const PlanSpace ps = PlanSpace::Build(ctx).value();
  const ExecutionResult exec =
      Executor(&ex.workflow, testing_util::RetainOutputs())
          .Execute(ex.sources)
          .value();
  const auto truth =
      ComputeGroundTruthCards(ctx, ps.subexpressions(), exec).value();
  ASSERT_EQ(life.block_cards.size(), 1u);
  for (RelMask se : ps.subexpressions()) {
    ASSERT_TRUE(life.block_cards[0].count(se)) << "missing SE " << se;
    EXPECT_EQ(life.block_cards[0].at(se), truth.at(se)) << "SE " << se;
  }
}

TEST(BudgetedLifecycleTest, LargeBudgetNeedsOneExecution) {
  auto ex = testing_util::MakePaperExample();
  const BudgetedLifecycleResult life =
      RunBudgetedLifecycle(ex.workflow, ex.sources, 1e12).value();
  EXPECT_EQ(life.executions, 1);
  EXPECT_TRUE(life.selections[0].deferred.empty());
}

TEST(BudgetedLifecycleTest, MatchesUnbudgetedOptimization) {
  // The final optimized plan and costs must match what the unbudgeted
  // pipeline produces (same complete statistics, same optimizer).
  auto ex = testing_util::MakePaperExample();
  const BudgetedLifecycleResult budgeted =
      RunBudgetedLifecycle(ex.workflow, ex.sources, 6.0).value();
  Pipeline pipeline;
  const CycleOutcome unbudgeted =
      pipeline.RunCycle(ex.workflow, ex.sources).value();
  EXPECT_DOUBLE_EQ(budgeted.optimized_cost, unbudgeted.opt.optimized_cost);
  EXPECT_EQ(budgeted.optimized.ToString(),
            unbudgeted.opt.optimized.ToString());
}

TEST(BudgetedLifecycleTest, FourWayStarUnderBudget) {
  // wf5 at small scale: a 4-way star whose optimal set needs histograms; a
  // moderate budget forces several SEs into re-ordered runs.
  const WorkloadSpec spec = BuildWorkload(5);
  const SourceMap sources = GenerateSources(spec, 77, 0.01);
  const BudgetedLifecycleResult life =
      RunBudgetedLifecycle(spec.workflow, sources, 10.0).value();
  EXPECT_GE(life.executions, 2);

  // Verify learned == truth for the join block.
  const std::vector<Block> blocks = PartitionBlocks(spec.workflow);
  const ExecutionResult exec =
      Executor(&spec.workflow, testing_util::RetainOutputs())
          .Execute(sources)
          .value();
  for (size_t b = 0; b < blocks.size(); ++b) {
    const BlockContext ctx =
        BlockContext::Build(&spec.workflow, blocks[b]).value();
    const PlanSpace ps = PlanSpace::Build(ctx).value();
    const auto truth =
        ComputeGroundTruthCards(ctx, ps.subexpressions(), exec).value();
    for (RelMask se : ps.subexpressions()) {
      ASSERT_TRUE(life.block_cards[b].count(se));
      EXPECT_EQ(life.block_cards[b].at(se), truth.at(se))
          << "block " << b << " SE " << se;
    }
  }
}

TEST(BudgetedLifecycleTest, ExecutionCountRespectsCoverPlan) {
  const WorkloadSpec spec = BuildWorkload(5);
  const SourceMap sources = GenerateSources(spec, 77, 0.01);
  const BudgetedLifecycleResult life =
      RunBudgetedLifecycle(spec.workflow, sources, 10.0).value();
  int expected = 1;
  for (const BudgetedSelection& sel : life.selections) {
    if (!sel.deferred.empty()) expected += sel.reorder_plan.executions;
  }
  EXPECT_EQ(life.executions, expected);
}

TEST(BudgetedLifecycleTest, ZeroBudgetLearnsEverythingFromCounters) {
  auto ex = testing_util::MakePaperExample();
  // Nothing fits: every SE is deferred, including the sources and the full
  // join, which no re-ordered run covers — the first run's outputs count
  // those.
  const BudgetedLifecycleResult life =
      RunBudgetedLifecycle(ex.workflow, ex.sources, 0.0).value();
  const std::vector<Block> blocks = PartitionBlocks(ex.workflow);
  const BlockContext ctx =
      BlockContext::Build(&ex.workflow, blocks[0]).value();
  const PlanSpace ps = PlanSpace::Build(ctx).value();
  EXPECT_EQ(life.selections[0].deferred.size(), ps.subexpressions().size());
  const ExecutionResult exec =
      Executor(&ex.workflow, testing_util::RetainOutputs())
          .Execute(ex.sources)
          .value();
  const auto truth =
      ComputeGroundTruthCards(ctx, ps.subexpressions(), exec).value();
  ASSERT_EQ(life.block_cards.size(), 1u);
  EXPECT_EQ(life.block_cards[0], truth);
}

// Per-block observed statistics in the stat_io codec, for comparing stores.
std::vector<std::string> StatsText(const std::vector<StatStore>& stores) {
  std::vector<std::string> text;
  for (const StatStore& store : stores) {
    text.push_back(WriteStatStoreText(store));
  }
  return text;
}

// With nothing deferred, the budgeted lifecycle is exactly one RunCycle:
// same statistics, cardinalities, plan, costs and guard verdict.
void ExpectNothingDeferredMatchesRunCycle(const Workflow& workflow,
                                          const SourceMap& sources) {
  const BudgetedLifecycleResult life =
      RunBudgetedLifecycle(workflow, sources, 1e12).value();
  const CycleOutcome cycle = Pipeline().RunCycle(workflow, sources).value();
  EXPECT_EQ(life.executions, 1);
  for (const BudgetedSelection& sel : life.selections) {
    EXPECT_TRUE(sel.deferred.empty());
  }
  EXPECT_EQ(StatsText(life.block_stats), StatsText(cycle.run.block_stats));
  EXPECT_EQ(life.block_cards, cycle.opt.block_cards);
  EXPECT_EQ(life.optimized.ToString(), cycle.opt.optimized.ToString());
  EXPECT_DOUBLE_EQ(life.initial_cost, cycle.opt.initial_cost);
  EXPECT_DOUBLE_EQ(life.optimized_cost, cycle.opt.optimized_cost);
  EXPECT_EQ(life.guard.mode, cycle.opt.guard.mode);
  EXPECT_EQ(life.guard.adopted, cycle.opt.guard.adopted);
  EXPECT_EQ(life.guard.fell_back, cycle.opt.guard.fell_back);
  EXPECT_DOUBLE_EQ(life.guard.evidence, cycle.opt.guard.evidence);
  EXPECT_DOUBLE_EQ(life.guard.margin, cycle.opt.guard.margin);
  EXPECT_EQ(life.guard.reasons, cycle.opt.guard.reasons);
}

TEST(BudgetedLifecycleTest, NothingDeferredMatchesRunCyclePaperExample) {
  const auto ex = testing_util::MakePaperExample();
  ExpectNothingDeferredMatchesRunCycle(ex.workflow, ex.sources);
}

TEST(BudgetedLifecycleTest, NothingDeferredMatchesRunCycleFourWayStar) {
  const WorkloadSpec spec = BuildWorkload(5);
  const SourceMap sources = GenerateSources(spec, 77, 0.01);
  ExpectNothingDeferredMatchesRunCycle(spec.workflow, sources);
}

// The first run takes the partitioned executor at num_threads > 1; what the
// lifecycle learns and adopts does not depend on the worker count.
TEST(BudgetedLifecycleTest, ThreadCountDoesNotChangeResult) {
  const WorkloadSpec spec = BuildWorkload(5);
  const SourceMap sources = GenerateSources(spec, 77, 0.01);
  PipelineOptions serial;
  serial.num_threads = 1;
  PipelineOptions parallel;
  parallel.num_threads = 4;
  const BudgetedLifecycleResult one =
      RunBudgetedLifecycle(spec.workflow, sources, 10.0, serial).value();
  const BudgetedLifecycleResult four =
      RunBudgetedLifecycle(spec.workflow, sources, 10.0, parallel).value();
  EXPECT_GE(one.executions, 2);
  EXPECT_EQ(four.executions, one.executions);
  EXPECT_EQ(four.block_cards, one.block_cards);
  EXPECT_EQ(StatsText(four.block_stats), StatsText(one.block_stats));
  EXPECT_EQ(four.optimized.ToString(), one.optimized.ToString());
}

// Re-ordered runs execute under the options' executor policy: with a 50%
// error-rate bound, malformed rows that the first run tolerates do not
// abort the re-ordered run at the default 5% bound.
TEST(BudgetedLifecycleTest, ReorderedRunsUseExecutorOptions) {
  auto ex = testing_util::MakePaperExample();
  PipelineOptions options;
  options.executor.max_error_rate = 0.5;
  ASSERT_TRUE(fault::FaultInjector::InstallGlobal(
                  "seed=5;source:Orders:malformed_row:p=0.2")
                  .ok());
  const Result<BudgetedLifecycleResult> life =
      RunBudgetedLifecycle(ex.workflow, ex.sources, 6.0, options);
  ASSERT_TRUE(fault::FaultInjector::InstallGlobal("").ok());
  ASSERT_TRUE(life.ok()) << life.status().ToString();
  EXPECT_FALSE(life->aborted());
  EXPECT_GE(life->executions, 2);
  EXPECT_GT(life->quarantined_rows, 0);
  const std::vector<Block> blocks = PartitionBlocks(ex.workflow);
  const BlockContext ctx =
      BlockContext::Build(&ex.workflow, blocks[0]).value();
  const PlanSpace ps = PlanSpace::Build(ctx).value();
  for (RelMask se : ps.subexpressions()) {
    EXPECT_TRUE(life->block_cards[0].count(se)) << "missing SE " << se;
  }
}

// A re-ordered run that aborts returns through the abort contract. Under a
// 20% bound the first run quarantines few enough rows of Orders; the
// re-ordered run draws more malformed rows from the same seeded stream and
// aborts. The designed plan is kept, the abort is the re-ordered run's,
// and the cardinalities the first run observed are still reported.
TEST(BudgetedLifecycleTest, AbortedReorderedRunKeepsDesignedPlan) {
  auto ex = testing_util::MakePaperExample();
  PipelineOptions options;
  options.executor.max_error_rate = 0.2;
  ASSERT_TRUE(fault::FaultInjector::InstallGlobal(
                  "seed=13;source:Orders:malformed_row:p=0.2")
                  .ok());
  const Result<BudgetedLifecycleResult> life =
      RunBudgetedLifecycle(ex.workflow, ex.sources, 6.0, options);
  ASSERT_TRUE(fault::FaultInjector::InstallGlobal("").ok());
  ASSERT_TRUE(life.ok()) << life.status().ToString();
  EXPECT_EQ(life->executions, 2);
  EXPECT_TRUE(life->aborted());
  EXPECT_EQ(life->abort_kind, AbortKind::kErrorRate);
  EXPECT_NE(life->abort_reason.find("max_error_rate"), std::string::npos);
  EXPECT_DOUBLE_EQ(life->completion, 1.0);  // the first run finished
  EXPECT_EQ(life->optimized.ToString(), ex.workflow.ToString());
  ASSERT_EQ(life->block_cards.size(), 1u);
  EXPECT_FALSE(life->block_cards[0].empty());
  EXPECT_FALSE(life->block_stats[0].values().empty());
}

}  // namespace
}  // namespace etlopt
