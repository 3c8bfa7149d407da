#include <gtest/gtest.h>

#include "css/generator.h"
#include "engine/instrumentation.h"
#include "estimator/estimator.h"
#include "opt/greedy_selector.h"
#include "opt/ilp_selector.h"
#include "test_util.h"

namespace etlopt {
namespace {

class EstimatorFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    ex_ = testing_util::MakePaperExample();
    const std::vector<Block> blocks = PartitionBlocks(ex_.workflow);
    ctx_ = BlockContext::Build(&ex_.workflow, blocks[0]).value();
    ps_ = PlanSpace::Build(ctx_).value();
    catalog_ = GenerateCss(ctx_, ps_, {});
    // Every reject side: the union-division tests observe reject-join
    // statistics over this run.
    Executor executor(&ex_.workflow,
                      testing_util::RetainOutputsAndRejects(ex_.workflow));
    exec_ = executor.Execute(ex_.sources).value();
    truth_ =
        ComputeGroundTruthCards(ctx_, ps_.subexpressions(), exec_).value();
  }

  void ExpectExactEstimates(const SelectionResult& selection) {
    ASSERT_TRUE(selection.feasible);
    const std::vector<StatKey> keys = selection.ObservedKeys(catalog_);
    const StatStore observed =
        ObserveStatistics(ctx_, exec_, keys).value();
    Estimator estimator(&ctx_, &catalog_);
    const Status st = estimator.DeriveAll(observed);
    ASSERT_TRUE(st.ok()) << st.ToString();
    for (RelMask se : ps_.subexpressions()) {
      const Result<int64_t> est = estimator.Cardinality(se);
      ASSERT_TRUE(est.ok()) << "SE " << se << ": " << est.status().ToString();
      EXPECT_EQ(*est, truth_.at(se)) << "SE mask " << se;
    }
  }

  testing_util::PaperExample ex_;
  BlockContext ctx_;
  PlanSpace ps_;
  CssCatalog catalog_;
  ExecutionResult exec_;
  std::unordered_map<RelMask, int64_t> truth_;
};

TEST_F(EstimatorFixture, GreedySelectionYieldsExactCardinalities) {
  CostModel cost_model(&ex_.workflow.catalog(), {});
  const SelectionProblem problem =
      BuildSelectionProblem(ctx_, ps_, catalog_, cost_model);
  ExpectExactEstimates(SelectGreedy(problem));
}

TEST_F(EstimatorFixture, IlpSelectionYieldsExactCardinalities) {
  CostModel cost_model(&ex_.workflow.catalog(), {});
  const SelectionProblem problem =
      BuildSelectionProblem(ctx_, ps_, catalog_, cost_model);
  ExpectExactEstimates(SelectIlp(problem));
}

TEST_F(EstimatorFixture, UnionDivisionDerivationIsExact) {
  // Force the J4 path for |OC|: observe exactly the union-division inputs
  // plus counters for everything else.
  const AttrMask pid = AttrMask{1} << ex_.prod_id;
  std::vector<StatKey> keys = {
      StatKey::Card(0b001),  StatKey::Card(0b010), StatKey::Card(0b100),
      StatKey::Card(0b011),  StatKey::Card(0b111),
      StatKey::Hist(0b111, pid), StatKey::Hist(0b010, pid),
      StatKey::RejectJoinCard(0b001, 1, 0b100)};
  const StatStore observed = ObserveStatistics(ctx_, exec_, keys).value();
  Estimator estimator(&ctx_, &catalog_);
  ASSERT_TRUE(estimator.DeriveAll(observed).ok());
  const Result<int64_t> oc = estimator.Cardinality(0b101);
  ASSERT_TRUE(oc.ok()) << oc.status().ToString();
  EXPECT_EQ(*oc, truth_.at(0b101));
}

TEST_F(EstimatorFixture, BaseHistogramsAloneSuffice) {
  // Observing the joint (pid,cid) histogram on Orders plus the dimension
  // histograms derives everything (J1 + J2 + I-rules).
  const AttrMask pid = AttrMask{1} << ex_.prod_id;
  const AttrMask cid = AttrMask{1} << ex_.cust_id;
  std::vector<StatKey> keys = {StatKey::Hist(0b001, pid | cid),
                               StatKey::Hist(0b010, pid),
                               StatKey::Hist(0b100, cid)};
  const StatStore observed = ObserveStatistics(ctx_, exec_, keys).value();
  Estimator estimator(&ctx_, &catalog_);
  ASSERT_TRUE(estimator.DeriveAll(observed).ok());
  for (RelMask se : ps_.subexpressions()) {
    const Result<int64_t> est = estimator.Cardinality(se);
    ASSERT_TRUE(est.ok()) << "SE " << se;
    EXPECT_EQ(*est, truth_.at(se)) << "SE mask " << se;
  }
}

TEST_F(EstimatorFixture, MissingStatisticsReportedNotInvented) {
  // With only base cardinalities observed, join SEs must be unknown.
  std::vector<StatKey> keys = {StatKey::Card(0b001), StatKey::Card(0b010),
                               StatKey::Card(0b100)};
  const StatStore observed = ObserveStatistics(ctx_, exec_, keys).value();
  Estimator estimator(&ctx_, &catalog_);
  ASSERT_TRUE(estimator.DeriveAll(observed).ok());
  EXPECT_TRUE(estimator.Cardinality(0b001).ok());
  EXPECT_FALSE(estimator.Cardinality(0b011).ok());
  EXPECT_FALSE(estimator.Cardinality(0b111).ok());
}

// Chain rules (S1/S2/U1/U2/G1/G2) exactness on a workflow with a filtered,
// transformed, and aggregated chain.
TEST(EstimatorChainTest, ChainDerivationsAreExact) {
  WorkflowBuilder b("chain");
  const AttrId k = b.DeclareAttr("k", 12);
  const AttrId x = b.DeclareAttr("x", 9);
  const NodeId a = b.Source("A", {k, x});
  const NodeId f = b.Filter(a, {x, CompareOp::kLe, 5});
  const NodeId t = b.Transform(f, x, [](Value v) { return v + 1; });
  const NodeId d = b.Source("D", {k});
  const NodeId j = b.Join(t, d, k);
  b.Sink(j, "out");
  Workflow wf = std::move(b).Build().value();

  Rng rng(1234);
  SourceMap sources;
  sources["A"] = testing_util::RandomTable(wf.catalog(), {k, x}, 300, rng);
  sources["D"] = testing_util::RandomTable(wf.catalog(), {k}, 40, rng);

  const std::vector<Block> blocks = PartitionBlocks(wf);
  ASSERT_EQ(blocks.size(), 1u);
  const BlockContext ctx = BlockContext::Build(&wf, blocks[0]).value();
  const PlanSpace ps = PlanSpace::Build(ctx).value();
  const CssCatalog catalog = GenerateCss(ctx, ps, {});
  const ExecutionResult exec =
      Executor(&wf, testing_util::RetainOutputs()).Execute(sources).value();
  const auto truth =
      ComputeGroundTruthCards(ctx, ps.subexpressions(), exec).value();

  // Observe only base-stage statistics: the joint histogram at stage 0 of A
  // and the histogram on D. Everything else must derive via S1/S2/U2/J1.
  const AttrMask kb = AttrMask{1} << k;
  const AttrMask xb = AttrMask{1} << x;
  std::vector<StatKey> keys = {StatKey::HistStage(0, 0, kb | xb),
                               StatKey::Hist(0b10, kb)};
  const StatStore observed = ObserveStatistics(ctx, exec, keys).value();
  Estimator estimator(&ctx, &catalog);
  ASSERT_TRUE(estimator.DeriveAll(observed).ok());
  for (RelMask se : ps.subexpressions()) {
    const Result<int64_t> est = estimator.Cardinality(se);
    ASSERT_TRUE(est.ok()) << "SE " << se;
    EXPECT_EQ(*est, truth.at(se)) << "SE mask " << se;
  }
}

TEST(EstimatorChainTest, GroupByDerivationIsExact) {
  WorkflowBuilder b("g");
  const AttrId k = b.DeclareAttr("k", 15);
  const AttrId x = b.DeclareAttr("x", 7);
  const NodeId a = b.Source("A", {k, x});
  const NodeId g = b.Aggregate(a, {k});
  const NodeId d = b.Source("D", {k});
  const NodeId j = b.Join(g, d, k);
  b.Sink(j, "out");
  Workflow wf = std::move(b).Build().value();

  Rng rng(777);
  SourceMap sources;
  sources["A"] = testing_util::RandomTable(wf.catalog(), {k, x}, 200, rng);
  sources["D"] = testing_util::RandomTable(wf.catalog(), {k}, 30, rng);

  const std::vector<Block> blocks = PartitionBlocks(wf);
  const BlockContext ctx = BlockContext::Build(&wf, blocks[0]).value();
  const PlanSpace ps = PlanSpace::Build(ctx).value();
  const CssCatalog catalog = GenerateCss(ctx, ps, {});
  const ExecutionResult exec =
      Executor(&wf, testing_util::RetainOutputs()).Execute(sources).value();
  const auto truth =
      ComputeGroundTruthCards(ctx, ps.subexpressions(), exec).value();

  const AttrMask kb = AttrMask{1} << k;
  std::vector<StatKey> keys = {StatKey::HistStage(0, 0, kb),
                               StatKey::Hist(0b10, kb)};
  const StatStore observed = ObserveStatistics(ctx, exec, keys).value();
  Estimator estimator(&ctx, &catalog);
  ASSERT_TRUE(estimator.DeriveAll(observed).ok());
  for (RelMask se : ps.subexpressions()) {
    EXPECT_EQ(*estimator.Cardinality(se), truth.at(se)) << "SE " << se;
  }
}


// Derived *histograms* (not just cardinalities) must equal the histograms
// built directly from the materialized SE tables.
TEST_F(EstimatorFixture, DerivedHistogramsMatchMaterializedTables) {
  const AttrMask pid = AttrMask{1} << ex_.prod_id;
  const AttrMask cid = AttrMask{1} << ex_.cust_id;
  std::vector<StatKey> keys = {StatKey::Hist(0b001, pid | cid),
                               StatKey::Hist(0b010, pid),
                               StatKey::Hist(0b100, cid)};
  const StatStore observed = ObserveStatistics(ctx_, exec_, keys).value();
  Estimator estimator(&ctx_, &catalog_);
  ASSERT_TRUE(estimator.DeriveAll(observed).ok());

  // Every derived histogram in the catalog equals the table-built one.
  int checked = 0;
  for (int s = 0; s < catalog_.num_stats(); ++s) {
    const StatKey& key = catalog_.stat(s);
    if (key.kind != StatKind::kHist || key.is_chain_stage()) continue;
    if (!estimator.Has(key)) continue;
    const Table se_table =
        MaterializeSubexpression(ctx_, key.rels, exec_).value();
    const Histogram expected = se_table.BuildHistogram(key.attrs);
    const Result<Histogram> got = estimator.Hist(key);
    ASSERT_TRUE(got.ok()) << key.ToString();
    EXPECT_TRUE(*got == expected) << key.ToString(&ex_.workflow.catalog());
    ++checked;
  }
  EXPECT_GE(checked, 5);  // meaningful coverage, not a vacuous loop
}

// Distinct-count statistics derived via D1 equal the table counts.
TEST_F(EstimatorFixture, DerivedDistinctsMatchTables) {
  const AttrMask pid = AttrMask{1} << ex_.prod_id;
  const AttrMask cid = AttrMask{1} << ex_.cust_id;
  std::vector<StatKey> keys = {StatKey::Hist(0b001, pid | cid),
                               StatKey::Hist(0b010, pid),
                               StatKey::Hist(0b100, cid)};
  const StatStore observed = ObserveStatistics(ctx_, exec_, keys).value();
  Estimator estimator(&ctx_, &catalog_);
  ASSERT_TRUE(estimator.DeriveAll(observed).ok());
  for (int s = 0; s < catalog_.num_stats(); ++s) {
    const StatKey& key = catalog_.stat(s);
    if (key.kind != StatKind::kDistinct || key.is_chain_stage()) continue;
    if (!estimator.Has(key)) continue;
    const Table se_table =
        MaterializeSubexpression(ctx_, key.rels, exec_).value();
    EXPECT_EQ(*estimator.Count(key), se_table.CountDistinct(key.attrs))
        << key.ToString();
  }
}

}  // namespace
}  // namespace etlopt
