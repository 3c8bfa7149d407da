// Tests for the integrated approximate estimation mode (Section 8
// extension): width-1 must reproduce the exact estimator; wider buckets
// degrade gracefully and never break derivability.

#include <gtest/gtest.h>

#include <cmath>

#include "approx/approx_estimator.h"
#include "css/generator.h"
#include "datagen/random_workflow.h"
#include "engine/instrumentation.h"
#include "opt/greedy_selector.h"
#include "test_util.h"

namespace etlopt {
namespace {

struct ApproxSetup {
  WorkloadSpec spec;
  SourceMap sources;
  BlockContext ctx;
  PlanSpace ps;
  CssCatalog catalog;
  SelectionResult selection;
  ExecutionResult exec;
  std::unordered_map<RelMask, int64_t> truth;
};

// Builds a UD-free analysis of one block (approx mode requirement).
ApproxSetup MakeSetup(const WorkloadSpec& spec, const SourceMap& sources) {
  ApproxSetup s;
  s.spec = spec;
  s.sources = sources;
  const std::vector<Block> blocks = PartitionBlocks(s.spec.workflow);
  s.ctx = BlockContext::Build(&s.spec.workflow, blocks[0]).value();
  s.ps = PlanSpace::Build(s.ctx).value();
  CssGenOptions options;
  options.enable_union_division = false;
  s.catalog = GenerateCss(s.ctx, s.ps, options);
  CostModel cm(&s.spec.workflow.catalog(), {});
  SelectionProblem problem =
      BuildSelectionProblem(s.ctx, s.ps, s.catalog, cm);
  s.selection = SelectGreedy(problem);
  s.exec = Executor(&s.spec.workflow, testing_util::RetainOutputs())
               .Execute(s.sources)
               .value();
  s.truth =
      ComputeGroundTruthCards(s.ctx, s.ps.subexpressions(), s.exec).value();
  return s;
}

TEST(ApproxEstimatorTest, WidthOneMatchesExactEstimator) {
  auto ex = testing_util::MakePaperExample();
  WorkloadSpec spec;
  spec.workflow = ex.workflow;
  const ApproxSetup s = MakeSetup(spec, ex.sources);
  ASSERT_TRUE(s.selection.feasible);

  ApproxConfig config(&s.spec.workflow.catalog(), /*default_width=*/1);
  ApproxEstimator estimator(&s.ctx, &s.catalog, &config);
  const Status st = estimator.ObserveAndDerive(
      s.exec, s.selection.ObservedKeys(s.catalog));
  ASSERT_TRUE(st.ok()) << st.ToString();
  for (RelMask se : s.ps.subexpressions()) {
    const Result<double> card = estimator.Cardinality(se);
    ASSERT_TRUE(card.ok()) << "SE " << se;
    EXPECT_DOUBLE_EQ(*card, static_cast<double>(s.truth.at(se)))
        << "SE " << se;
  }
}

TEST(ApproxEstimatorTest, WidthOneMatchesExactOnRandomWorkflows) {
  for (uint64_t seed : {3u, 8u, 15u}) {
    const WorkloadSpec spec = GenerateRandomWorkflow(seed);
    const SourceMap sources = GenerateSources(spec, seed + 5);
    const ApproxSetup s = MakeSetup(spec, sources);
    if (!s.selection.feasible) continue;
    ApproxConfig config(&s.spec.workflow.catalog(), 1);
    ApproxEstimator estimator(&s.ctx, &s.catalog, &config);
    const Status st = estimator.ObserveAndDerive(
        s.exec, s.selection.ObservedKeys(s.catalog));
    ASSERT_TRUE(st.ok()) << spec.name << ": " << st.ToString();
    for (RelMask se : s.ps.subexpressions()) {
      const Result<double> card = estimator.Cardinality(se);
      ASSERT_TRUE(card.ok()) << spec.name << " SE " << se;
      EXPECT_NEAR(*card, static_cast<double>(s.truth.at(se)), 1e-6)
          << spec.name << " SE " << se;
    }
  }
}

TEST(ApproxEstimatorTest, WiderBucketsStillDeriveEverything) {
  auto ex = testing_util::MakePaperExample();
  WorkloadSpec spec;
  spec.workflow = ex.workflow;
  const ApproxSetup s = MakeSetup(spec, ex.sources);
  for (int64_t width : {2, 4, 8, 16}) {
    ApproxConfig config(&s.spec.workflow.catalog(), width);
    ApproxEstimator estimator(&s.ctx, &s.catalog, &config);
    const Status st = estimator.ObserveAndDerive(
        s.exec, s.selection.ObservedKeys(s.catalog));
    ASSERT_TRUE(st.ok()) << st.ToString();
    for (RelMask se : s.ps.subexpressions()) {
      const Result<double> card = estimator.Cardinality(se);
      ASSERT_TRUE(card.ok()) << "width " << width << " SE " << se;
      EXPECT_GE(*card, 0.0);
      // Base relation cardinalities are counters: always exact.
      if (IsSingleton(se)) {
        EXPECT_DOUBLE_EQ(*card, static_cast<double>(s.truth.at(se)));
      }
    }
  }
}

TEST(ApproxEstimatorTest, ErrorGrowsWithWidthOnSkewedData) {
  // Zipf-skewed join keys: the estimate of the full join degrades as the
  // buckets widen.
  auto ex = testing_util::MakePaperExample(/*seed=*/13, /*orders=*/2000,
                                           /*products=*/60, /*customers=*/40);
  // Re-generate Orders with skew.
  {
    Rng rng(77);
    ZipfDistribution zp(50, 1.4);
    ZipfDistribution zc(30, 1.4);
    Table orders{Schema({ex.prod_id, ex.cust_id})};
    for (int i = 0; i < 2000; ++i) {
      orders.AddRow({zp.Sample(rng), zc.Sample(rng)});
    }
    ex.sources["Orders"] = std::move(orders);
  }
  WorkloadSpec spec;
  spec.workflow = ex.workflow;
  const ApproxSetup s = MakeSetup(spec, ex.sources);
  const RelMask full = s.ctx.full_mask();

  double prev_err = -1.0;
  for (int64_t width : {1, 8, 32}) {
    ApproxConfig config(&s.spec.workflow.catalog(), width);
    ApproxEstimator estimator(&s.ctx, &s.catalog, &config);
    ASSERT_TRUE(estimator
                    .ObserveAndDerive(s.exec,
                                      s.selection.ObservedKeys(s.catalog))
                    .ok());
    const double est = *estimator.Cardinality(full);
    const double err = std::fabs(est - static_cast<double>(s.truth.at(full)));
    if (width == 1) {
      EXPECT_NEAR(err, 0.0, 1e-6);
    } else {
      EXPECT_GT(err, prev_err - 1e-9);
    }
    prev_err = err;
  }
}

TEST(ApproxEstimatorTest, RejectStatisticsAreRejected) {
  auto ex = testing_util::MakePaperExample();
  const std::vector<Block> blocks = PartitionBlocks(ex.workflow);
  const BlockContext ctx =
      BlockContext::Build(&ex.workflow, blocks[0]).value();
  const PlanSpace ps = PlanSpace::Build(ctx).value();
  const CssCatalog catalog = GenerateCss(ctx, ps, {});  // UD on
  const ExecutionResult exec =
      Executor(&ex.workflow, testing_util::RetainOutputs())
          .Execute(ex.sources)
          .value();
  ApproxConfig config(&ex.workflow.catalog(), 1);
  ApproxEstimator estimator(&ctx, &catalog, &config);
  const Status st = estimator.ObserveAndDerive(
      exec, {StatKey::RejectJoinCard(0b001, 1, 0b100)});
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kUnimplemented);
}

TEST(ApproxConfigTest, MemoryUnitsUnderBucketization) {
  AttrCatalog catalog;
  const AttrId a = catalog.Register("a", 1000);
  const AttrId b = catalog.Register("b", 64);
  ApproxConfig config(&catalog, 1);
  config.SetWidth(a, 10);
  EXPECT_EQ(config.MemoryUnits(AttrMask{1} << a), 100);
  EXPECT_EQ(config.MemoryUnits(AttrMask{1} << b), 64);
  EXPECT_EQ(config.MemoryUnits((AttrMask{1} << a) | (AttrMask{1} << b)),
            6400);
}

}  // namespace
}  // namespace etlopt
