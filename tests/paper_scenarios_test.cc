// Tests that mirror the paper's worked examples: the Figure 5 plan with its
// union-division statistics (the s1..s12 universe of Figure 8), and the
// Figure 7 cost-amortization story.

#include <gtest/gtest.h>

#include <algorithm>

#include "css/generator.h"
#include "engine/instrumentation.h"
#include "estimator/estimator.h"
#include "opt/greedy_selector.h"
#include "opt/ilp_selector.h"
#include "planspace/observability.h"
#include "test_util.h"

namespace etlopt {
namespace {

// Figure 5: T1 joins T3 first (on J13), then T2 (on J12). T1 carries both
// keys. Block rels: T1=0, T3=1, T2=2.
struct Fig5 : ::testing::Test {
  void SetUp() override {
    WorkflowBuilder b("fig5");
    j13 = b.DeclareAttr("J13", 40);
    j12 = b.DeclareAttr("J12", 60);
    const NodeId t1 = b.Source("T1", {j13, j12});
    const NodeId t3 = b.Source("T3", {j13});
    const NodeId t2 = b.Source("T2", {j12});
    const NodeId a = b.Join(t1, t3, j13);
    const NodeId out = b.Join(a, t2, j12);
    b.Sink(out, "target");
    wf = std::move(b).Build().value();
    const std::vector<Block> blocks = PartitionBlocks(wf);
    ctx = BlockContext::Build(&wf, blocks[0]).value();
    ps = PlanSpace::Build(ctx).value();
    catalog = GenerateCss(ctx, ps, {});
  }

  Workflow wf;
  AttrId j13 = kInvalidAttr;
  AttrId j12 = kInvalidAttr;
  BlockContext ctx;
  PlanSpace ps;
  CssCatalog catalog;
};

TEST_F(Fig5, StatisticsUniverseContainsFigure8Entries) {
  const AttrMask j13b = AttrMask{1} << j13;
  const AttrMask j12b = AttrMask{1} << j12;
  // s1..s7: the SE cardinalities (T2,T3 numbering differs; masks matter).
  for (RelMask se : ps.subexpressions()) {
    EXPECT_GE(catalog.IndexOf(StatKey::Card(se)), 0);
  }
  // s8, s9: H^{J12} on T1 and T2.
  EXPECT_GE(catalog.IndexOf(StatKey::Hist(0b001, j12b)), 0);
  EXPECT_GE(catalog.IndexOf(StatKey::Hist(0b100, j12b)), 0);
  // s10: H^{J13} on T3; s11: H^{J13} on T123.
  EXPECT_GE(catalog.IndexOf(StatKey::Hist(0b010, j13b)), 0);
  EXPECT_GE(catalog.IndexOf(StatKey::Hist(0b111, j13b)), 0);
  // s12: the reject-join statistic of rule J4 (Figure 5's added reject
  // link): reject(T1 wrt T3) ⋈ T2.
  EXPECT_GE(catalog.IndexOf(StatKey::RejectJoinCard(0b001, 1, 0b100)), 0);
}

TEST_F(Fig5, UnionDivisionCssForT12MatchesPaper) {
  // CSS-4 of Figure 7: {H^{J13}_{T123}, H^{J13}_{T3}, |rej(T1)⋈T2|} covers
  // |T1,2| — which is exactly what the J4 rule emits for the (T1,T2) plan.
  const AttrMask j13b = AttrMask{1} << j13;
  const int idx = catalog.IndexOf(StatKey::Card(0b101));  // T1 ⋈ T2
  ASSERT_GE(idx, 0);
  bool found = false;
  for (int c : catalog.css_of(idx)) {
    const CssEntry& entry = catalog.entry(c);
    if (entry.rule != RuleId::kJ4) continue;
    EXPECT_EQ(entry.inputs.size(), 3u);
    EXPECT_NE(std::find(entry.inputs.begin(), entry.inputs.end(),
                        StatKey::Hist(0b111, j13b)),
              entry.inputs.end());
    EXPECT_NE(std::find(entry.inputs.begin(), entry.inputs.end(),
                        StatKey::Hist(0b010, j13b)),
              entry.inputs.end());
    EXPECT_NE(std::find(entry.inputs.begin(), entry.inputs.end(),
                        StatKey::RejectJoinCard(0b001, 1, 0b100)),
              entry.inputs.end());
    found = true;
  }
  EXPECT_TRUE(found) << "J4 CSS for |T1⋈T2| missing";
}

TEST_F(Fig5, ObservabilityMatchesFigure8Row) {
  // Figure 8's S_O row: |T12| and |T23| are NOT observable in this plan;
  // all base cards, |T13|, |T123| and the listed histograms are.
  EXPECT_FALSE(IsObservable(StatKey::Card(0b101), ctx));  // |T1⋈T2|
  EXPECT_FALSE(IsObservable(StatKey::Card(0b110), ctx));  // |T3⋈T2|
  EXPECT_TRUE(IsObservable(StatKey::Card(0b001), ctx));
  EXPECT_TRUE(IsObservable(StatKey::Card(0b011), ctx));  // T1⋈T3 on-path
  EXPECT_TRUE(IsObservable(StatKey::Card(0b111), ctx));
  const AttrMask j12b = AttrMask{1} << j12;
  const AttrMask j13b = AttrMask{1} << j13;
  EXPECT_TRUE(IsObservable(StatKey::Hist(0b001, j12b), ctx));
  EXPECT_TRUE(IsObservable(StatKey::Hist(0b100, j12b), ctx));
  EXPECT_TRUE(IsObservable(StatKey::Hist(0b010, j13b), ctx));
  EXPECT_TRUE(IsObservable(StatKey::Hist(0b111, j13b), ctx));
  EXPECT_TRUE(
      IsObservable(StatKey::RejectJoinCard(0b001, 1, 0b100), ctx));
}

TEST_F(Fig5, EstimationThroughRejectLinkIsExact) {
  // Execute with data containing T1 rows that do NOT join T3 (so the
  // reject part of Eq. 1 is non-trivial) and verify |T1⋈T2| exactly.
  Rng rng(55);
  SourceMap sources;
  Table t1{Schema({j13, j12})};
  for (int i = 0; i < 500; ++i) {
    t1.AddRow({rng.NextInRange(1, 40), rng.NextInRange(1, 60)});
  }
  Table t3{Schema({j13})};
  for (int i = 0; i < 60; ++i) {
    t3.AddRow({rng.NextInRange(1, 25)});  // values 26..40 get rejected
  }
  Table t2{Schema({j12})};
  for (int i = 0; i < 80; ++i) {
    t2.AddRow({rng.NextInRange(1, 60)});
  }
  sources["T1"] = std::move(t1);
  sources["T3"] = std::move(t3);
  sources["T2"] = std::move(t2);

  const ExecutionResult exec =
      Executor(&wf, testing_util::RetainOutputsAndRejects(wf))
          .Execute(sources)
          .value();
  // Make sure rejects actually occur.
  ASSERT_GT(exec.join_rejects.at(ctx.on_path().at(0b011)).num_rows(), 0);

  const AttrMask j13b = AttrMask{1} << j13;
  const std::vector<StatKey> keys = {
      StatKey::Hist(0b111, j13b), StatKey::Hist(0b010, j13b),
      StatKey::RejectJoinCard(0b001, 1, 0b100)};
  const StatStore observed = ObserveStatistics(ctx, exec, keys).value();
  Estimator estimator(&ctx, &catalog);
  ASSERT_TRUE(estimator.DeriveAll(observed).ok());
  const auto truth =
      ComputeGroundTruthCards(ctx, {0b101}, exec).value();
  EXPECT_EQ(*estimator.Cardinality(0b101), truth.at(0b101));
}

// Figure 7's amortization story: when T1 joins T2 and T3 on the SAME
// attribute, H^{J}_{T1} is shared between the two histogram CSSs, so the
// globally optimal choice buys it once.
TEST(Fig7Amortization, SharedHistogramIsBoughtOnce) {
  WorkflowBuilder b("fig7");
  const AttrId j = b.DeclareAttr("J", 100);
  const NodeId t1 = b.Source("T1", {j});
  const NodeId t3 = b.Source("T3", {j});
  const NodeId t2 = b.Source("T2", {j});
  const NodeId a = b.Join(t1, t3, j);
  b.Sink(b.Join(a, t2, j), "target");
  Workflow wf = std::move(b).Build().value();
  const std::vector<Block> blocks = PartitionBlocks(wf);
  const BlockContext ctx = BlockContext::Build(&wf, blocks[0]).value();
  const PlanSpace ps = PlanSpace::Build(ctx).value();
  const CssCatalog catalog = GenerateCss(ctx, ps, {});
  CostModel cost_model(&wf.catalog(), {});
  const SelectionProblem problem =
      BuildSelectionProblem(ctx, ps, catalog, cost_model);
  const SelectionResult result = SelectIlp(problem);
  ASSERT_TRUE(result.feasible);
  // Covering |T1⋈T2| and |T1⋈T3| (and everything else) needs histograms on
  // the shared attribute; the optimum is three single-attribute histograms
  // (T1, T2, T3) + nothing else beyond free counters. 3*|J| + counters.
  EXPECT_LE(result.total_cost, 3.0 * 100 + 10);
  int hist_t1 = 0;
  for (const StatKey& key : result.ObservedKeys(catalog)) {
    if (key.kind == StatKind::kHist && key.rels == 0b001) ++hist_t1;
  }
  EXPECT_LE(hist_t1, 1) << "H^J_T1 must be shared, not duplicated";
}

}  // namespace
}  // namespace etlopt
