// Tests for the executed Section 6.1 lifecycle: budgeted first run +
// re-ordered runs collecting the deferred SE cardinalities as counters.

#include <gtest/gtest.h>

#include "core/lifecycle.h"
#include "datagen/workload_suite.h"
#include "test_util.h"

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

}  // namespace
}  // namespace etlopt
