#include <gtest/gtest.h>

#include <algorithm>

#include "core/pipeline.h"
#include "test_util.h"

namespace etlopt {
namespace {

class OptimizerFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    ex_ = testing_util::MakePaperExample();
    const std::vector<Block> blocks = PartitionBlocks(ex_.workflow);
    ctx_ = BlockContext::Build(&ex_.workflow, blocks[0]).value();
    ps_ = PlanSpace::Build(ctx_).value();
    Executor executor(&ex_.workflow, testing_util::RetainOutputs());
    exec_ = executor.Execute(ex_.sources).value();
    cards_ = ComputeGroundTruthCards(ctx_, ps_.subexpressions(), exec_)
                 .value();
  }

  testing_util::PaperExample ex_;
  BlockContext ctx_;
  PlanSpace ps_;
  ExecutionResult exec_;
  CardMap cards_;
};

TEST_F(OptimizerFixture, DpMatchesBruteForceOverPlans) {
  const OptimizedPlan plan = OptimizeJoins(ctx_, ps_, cards_).value();
  // Brute force for 3 relations: two plans, compute both costs.
  const CostParams params;
  auto join_cost = [&](RelMask l, RelMask r, RelMask out) {
    const int64_t lc = cards_.at(l);
    const int64_t rc = cards_.at(r);
    return JoinStepCost(std::max(lc, rc), std::min(lc, rc), cards_.at(out),
                        params);
  };
  const double plan_op_c = join_cost(0b001, 0b010, 0b011) +
                           join_cost(0b011, 0b100, 0b111);
  const double plan_oc_p = join_cost(0b001, 0b100, 0b101) +
                           join_cost(0b101, 0b010, 0b111);
  EXPECT_NEAR(plan.cost, std::min(plan_op_c, plan_oc_p), 1e-6);
  EXPECT_NEAR(plan.initial_cost, plan_op_c, 1e-6);
  EXPECT_LE(plan.cost, plan.initial_cost + 1e-9);
}

TEST_F(OptimizerFixture, RewritePreservesResults) {
  const OptimizedPlan plan = OptimizeJoins(ctx_, ps_, cards_).value();
  std::vector<PlanRewriter::BlockPlan> plans{{&ctx_.block(), &plan}};
  const Workflow rewritten =
      PlanRewriter::Apply(ex_.workflow, plans).value();
  EXPECT_TRUE(rewritten.Validate().ok());

  const ExecutionResult before =
      Executor(&ex_.workflow).Execute(ex_.sources).value();
  const ExecutionResult after =
      Executor(&rewritten).Execute(ex_.sources).value();
  const Table& t1 = before.targets.at("warehouse.orders");
  const Table& t2 = after.targets.at("warehouse.orders");
  EXPECT_EQ(t1.num_rows(), t2.num_rows());
  // Same multiset of rows: compare via full-schema histograms (column
  // order may differ; compare on the shared attribute set).
  const AttrMask mask = t1.schema().mask();
  ASSERT_EQ(mask, t2.schema().mask());
  EXPECT_TRUE(t1.BuildHistogram(mask) == t2.BuildHistogram(mask));
}

TEST_F(OptimizerFixture, MissingCardinalityFails) {
  CardMap incomplete = cards_;
  incomplete.erase(0b101);
  EXPECT_FALSE(OptimizeJoins(ctx_, ps_, incomplete).ok());
}

TEST(OptimizerSkewTest, PicksSmallIntermediateFirst) {
  // Dim A matches nothing (tiny intermediate); dim B explodes. The DP must
  // join A before B.
  WorkflowBuilder b("skew");
  const AttrId ka = b.DeclareAttr("ka", 50);
  const AttrId kb = b.DeclareAttr("kb", 50);
  const NodeId f = b.Source("F", {ka, kb});
  const NodeId da = b.Source("DA", {ka});
  const NodeId db = b.Source("DB", {kb});
  // Designed (bad) order: B first.
  const NodeId j1 = b.Join(f, db, kb);
  const NodeId j2 = b.Join(j1, da, ka);
  b.Sink(j2, "out");
  Workflow wf = std::move(b).Build().value();

  SourceMap sources;
  Table tf{Schema({ka, kb})};
  for (int i = 0; i < 100; ++i) tf.AddRow({(i % 10) + 1, (i % 5) + 1});
  Table tda{Schema({ka})};
  tda.AddRow({1});  // selective: only ka == 1 survives
  Table tdb{Schema({kb})};
  for (int i = 1; i <= 5; ++i) {
    for (int copies = 0; copies < 20; ++copies) tdb.AddRow({i});
  }
  sources["F"] = std::move(tf);
  sources["DA"] = std::move(tda);
  sources["DB"] = std::move(tdb);

  const std::vector<Block> blocks = PartitionBlocks(wf);
  const BlockContext ctx = BlockContext::Build(&wf, blocks[0]).value();
  const PlanSpace ps = PlanSpace::Build(ctx).value();
  const ExecutionResult exec =
      Executor(&wf, testing_util::RetainOutputs()).Execute(sources).value();
  const CardMap cards =
      ComputeGroundTruthCards(ctx, ps.subexpressions(), exec).value();
  const OptimizedPlan plan = OptimizeJoins(ctx, ps, cards).value();
  EXPECT_LT(plan.cost, plan.initial_cost);
  // Block rel numbering follows discovery order: F=0, DB=1, DA=2. The
  // optimized root must combine {F,DA} (tiny) with {DB} (exploding), i.e.
  // split the full SE as 0b101 | 0b010.
  const JoinChoice& root = plan.choices.at(ctx.full_mask());
  EXPECT_EQ(root.left | root.right, ctx.full_mask());
  EXPECT_TRUE(root.left == 0b101u || root.right == 0b101u);
}

}  // namespace
}  // namespace etlopt
