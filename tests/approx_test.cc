// Tests for the Section 8 extension: bucketized (approximate) histograms
// and their error behaviour, on single-attribute DHistograms.

#include <gtest/gtest.h>

#include <cmath>

#include "approx/dhistogram.h"
#include "engine/executor.h"
#include "test_util.h"

namespace etlopt {
namespace {

double JoinEstimate(const Table& t1, const Table& t2, AttrId a,
                    const ApproxConfig& config) {
  const AttrMask key = AttrMask{1} << a;
  return DHistogram::JoinCardinality(DHistogram::FromTable(t1, key, config),
                                     DHistogram::FromTable(t2, key, config));
}

TEST(ApproxHistogramTest, WidthOneIsExact) {
  AttrCatalog catalog;
  const AttrId a = catalog.Register("a", 50);
  const ApproxConfig config(&catalog, 1);
  Rng rng(3);
  const Table t1 = testing_util::RandomTable(catalog, {a}, 300, rng);
  const Table t2 = testing_util::RandomTable(catalog, {a}, 120, rng);
  const Table joined = HashJoin(t1, t2, a, nullptr);
  EXPECT_DOUBLE_EQ(JoinEstimate(t1, t2, a, config),
                   static_cast<double>(joined.num_rows()));
  const Predicate pred{a, CompareOp::kLe, 20};
  int64_t exact = 0;
  for (int64_t r = 0; r < t1.num_rows(); ++r) {
    if (pred.Matches(t1.at(r, 0))) ++exact;
  }
  const DHistogram h1 = DHistogram::FromTable(t1, AttrMask{1} << a, config);
  EXPECT_DOUBLE_EQ(h1.CountMatching(pred), static_cast<double>(exact));
}

TEST(ApproxHistogramTest, MemoryShrinksWithWidth) {
  AttrCatalog catalog;
  const AttrMask a = AttrMask{1} << catalog.Register("a", 1000);
  EXPECT_EQ(ApproxConfig(&catalog, 1).MemoryUnits(a), 1000);
  EXPECT_EQ(ApproxConfig(&catalog, 10).MemoryUnits(a), 100);
  EXPECT_EQ(ApproxConfig(&catalog, 64).MemoryUnits(a), 16);  // ceil(1000/64)
}

TEST(ApproxHistogramTest, BucketBoundaries) {
  AttrCatalog catalog;
  const AttrMask a = AttrMask{1} << catalog.Register("a", 10);
  const ApproxConfig config(&catalog, 4);  // buckets [1..4] [5..8] [9..10]
  ASSERT_EQ(config.MemoryUnits(a), 3);
  DHistogram h(a, config);
  h.AddValue({1});
  h.AddValue({4});
  h.AddValue({5});
  h.AddValue({10});
  EXPECT_EQ(h.Get({0}), 2.0);
  EXPECT_EQ(h.Get({1}), 1.0);
  EXPECT_EQ(h.Get({2}), 1.0);
  EXPECT_EQ(h.TotalCount(), 4.0);
}

TEST(ApproxHistogramTest, SelectEstimateProRataOnBoundaryBucket) {
  AttrCatalog catalog;
  const AttrId a = catalog.Register("a", 100);
  const ApproxConfig config(&catalog, 10);
  DHistogram h(AttrMask{1} << a, config);
  for (Value v = 1; v <= 100; ++v) h.AddValue({v});  // uniform: 10 per bucket
  // a <= 25: 2 full buckets (20) + half of bucket [21..30] (5).
  EXPECT_DOUBLE_EQ(h.CountMatching({a, CompareOp::kLe, 25}), 25.0);
  EXPECT_DOUBLE_EQ(h.CountMatching({a, CompareOp::kGt, 90}), 10.0);
  EXPECT_DOUBLE_EQ(h.CountMatching({a, CompareOp::kEq, 37}), 1.0);
  EXPECT_DOUBLE_EQ(h.CountMatching({a, CompareOp::kNe, 37}), 99.0);
}

TEST(ApproxHistogramTest, UniformDataJoinEstimateStaysAccurate) {
  // On uniform data the within-bucket uniformity assumption is exact in
  // expectation: the estimate with width 10 must be close to truth.
  AttrCatalog catalog;
  const AttrId a = catalog.Register("a", 200);
  Rng rng(11);
  const Table t1 = testing_util::RandomTable(catalog, {a}, 4000, rng);
  const Table t2 = testing_util::RandomTable(catalog, {a}, 2000, rng);
  const Table joined = HashJoin(t1, t2, a, nullptr);
  const double est = JoinEstimate(t1, t2, a, ApproxConfig(&catalog, 10));
  const double truth = static_cast<double>(joined.num_rows());
  EXPECT_NEAR(est / truth, 1.0, 0.1);
}

TEST(ApproxHistogramTest, SkewedDataErrorGrowsWithWidth) {
  // Zipf-skewed keys: wider buckets smear the head frequencies, so the join
  // estimate degrades monotonically-ish; width 1 is exact.
  AttrCatalog catalog;
  const AttrId a = catalog.Register("a", 512);
  Rng rng(29);
  ZipfDistribution zipf(512, 1.3);
  Table t1{Schema({a})};
  for (int i = 0; i < 5000; ++i) t1.AddRow({zipf.Sample(rng)});
  Table t2{Schema({a})};
  for (int i = 0; i < 2000; ++i) t2.AddRow({zipf.Sample(rng)});
  const Table joined = HashJoin(t1, t2, a, nullptr);
  const double truth = static_cast<double>(joined.num_rows());

  const double err1 =
      std::fabs(JoinEstimate(t1, t2, a, ApproxConfig(&catalog, 1)) - truth) /
      truth;
  const double err64 =
      std::fabs(JoinEstimate(t1, t2, a, ApproxConfig(&catalog, 64)) - truth) /
      truth;
  EXPECT_DOUBLE_EQ(err1, 0.0);
  EXPECT_GT(err64, 0.05);  // visible error on skewed data
}

}  // namespace
}  // namespace etlopt
