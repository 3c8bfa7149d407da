// Parameterized property sweeps: the histogram algebra against brute-force
// table operations, over random data. These pin down the *evaluation
// semantics* of the rules (J1/J2/J3, S1/S2, G2, I1/I2) on real tables.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <unordered_map>

#include "engine/executor.h"
#include "stats/stat_io.h"
#include "test_util.h"

namespace etlopt {
namespace {

class HistogramAlgebraSweep
    : public ::testing::TestWithParam<std::tuple<uint64_t, int64_t>> {
 protected:
  void SetUp() override {
    seed_ = std::get<0>(GetParam());
    domain_ = std::get<1>(GetParam());
    a_ = catalog_.Register("a", domain_);
    b_ = catalog_.Register("b", domain_ / 2 + 1);
    c_ = catalog_.Register("c", 9);
  }

  AttrCatalog catalog_;
  uint64_t seed_ = 0;
  int64_t domain_ = 0;
  AttrId a_ = kInvalidAttr, b_ = kInvalidAttr, c_ = kInvalidAttr;
};

TEST_P(HistogramAlgebraSweep, J1DotProductEqualsJoinCardinality) {
  Rng rng(seed_);
  const Table t1 =
      testing_util::RandomTable(catalog_, {a_, b_}, 300, rng);
  const Table t2 = testing_util::RandomTable(catalog_, {a_, c_}, 120, rng);
  const Table joined = HashJoin(t1, t2, a_, nullptr);
  const AttrMask ab = AttrMask{1} << a_;
  EXPECT_EQ(Histogram::DotProduct(t1.BuildHistogram(ab),
                                  t2.BuildHistogram(ab)),
            joined.num_rows());
}

TEST_P(HistogramAlgebraSweep, J2MultiplyThroughJoinEqualsJoinHistogram) {
  Rng rng(seed_);
  const Table t1 =
      testing_util::RandomTable(catalog_, {a_, b_}, 250, rng);
  const Table t2 = testing_util::RandomTable(catalog_, {a_}, 90, rng);
  const Table joined = HashJoin(t1, t2, a_, nullptr);
  const AttrMask abit = AttrMask{1} << a_;
  const AttrMask bbit = AttrMask{1} << b_;
  // H^b_{T1⋈T2} = marginalize_a( H^{a,b}_{T1} × H^a_{T2} ).
  const Histogram derived =
      Histogram::MultiplyBy(t1.BuildHistogram(abit | bbit),
                            t2.BuildHistogram(abit))
          .Marginalize(bbit);
  EXPECT_TRUE(derived == joined.BuildHistogram(bbit));
  // J3 variant: the join attribute's own distribution on the result.
  const Histogram j3 = Histogram::MultiplyBy(t1.BuildHistogram(abit),
                                             t2.BuildHistogram(abit));
  EXPECT_TRUE(j3 == joined.BuildHistogram(abit));
}

TEST_P(HistogramAlgebraSweep, S1S2MatchEngineFilter) {
  Rng rng(seed_);
  const Table t =
      testing_util::RandomTable(catalog_, {a_, b_}, 400, rng);
  const Predicate pred{a_, CompareOp::kLe, domain_ / 3};
  // Brute force through the engine's row filter.
  Table filtered{t.schema()};
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    if (pred.Matches(t.at(r, 0))) filtered.AppendRowFrom(t, r);
  }
  const AttrMask abit = AttrMask{1} << a_;
  const AttrMask bbit = AttrMask{1} << b_;
  EXPECT_EQ(t.BuildHistogram(abit).CountMatching(pred),
            filtered.num_rows());
  EXPECT_TRUE(t.BuildHistogram(abit | bbit)
                  .FilterThenMarginalize(pred, bbit) ==
              filtered.BuildHistogram(bbit));
}

TEST_P(HistogramAlgebraSweep, G2CollapseEqualsGroupByDistribution) {
  Rng rng(seed_);
  const Table t =
      testing_util::RandomTable(catalog_, {a_, c_}, 350, rng);
  const AttrMask group = (AttrMask{1} << a_) | (AttrMask{1} << c_);
  // Engine group-by (one row per group).
  std::unordered_map<std::vector<Value>, bool, ValueVecHash> seen;
  Table grouped{Schema({a_, c_})};
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    if (seen.emplace(t.row(r), true).second) grouped.AppendRowFrom(t, r);
  }
  const AttrMask cbit = AttrMask{1} << c_;
  EXPECT_TRUE(t.BuildHistogram(group).CollapseToDistinct().Marginalize(
                  cbit) == grouped.BuildHistogram(cbit));
}

TEST_P(HistogramAlgebraSweep, I1I2Identities) {
  Rng rng(seed_);
  const Table t =
      testing_util::RandomTable(catalog_, {a_, b_, c_}, 500, rng);
  const AttrMask all =
      (AttrMask{1} << a_) | (AttrMask{1} << b_) | (AttrMask{1} << c_);
  const Histogram fine = t.BuildHistogram(all);
  // I1: total count equals |T| from any histogram.
  EXPECT_EQ(fine.TotalCount(), t.num_rows());
  // I2: marginalizing the fine histogram equals building the coarse one.
  for (AttrMask keep :
       {AttrMask{1} << a_, AttrMask{1} << c_,
        (AttrMask{1} << a_) | (AttrMask{1} << c_)}) {
    EXPECT_TRUE(fine.Marginalize(keep) == t.BuildHistogram(keep));
  }
  // Distinct equals bucket count.
  EXPECT_EQ(fine.NumBuckets(), t.CountDistinct(all));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HistogramAlgebraSweep,
    ::testing::Combine(::testing::Values(1u, 7u, 42u, 1337u),
                       ::testing::Values(int64_t{5}, int64_t{40},
                                         int64_t{500})),
    [](const ::testing::TestParamInfo<std::tuple<uint64_t, int64_t>>& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) + "_dom" +
             std::to_string(std::get<1>(info.param));
    });

// ---- Kernel-by-kernel check against a reference model -----------------
// The model is the straightforward hash map keyed by the value vector, with
// the histogram's documented semantics: adding zero creates nothing, a
// bucket whose additions sum to zero stays, outputs of the bucket-wise
// kernels drop buckets whose result is zero. Every kernel of the flat table
// must agree with it at arities 0 to 6, with zero and negative counts.

struct Model {
  AttrMask mask = 0;
  std::vector<AttrId> attrs;
  std::unordered_map<std::vector<Value>, int64_t, ValueVecHash> buckets;
  int64_t total = 0;

  explicit Model(AttrMask m) : mask(m) {
    for (int idx : MaskToIndices(m)) attrs.push_back(static_cast<AttrId>(idx));
  }
  void Add(const std::vector<Value>& key, int64_t count) {
    if (count == 0) return;
    buckets[key] += count;
    total += count;
  }
  int64_t Get(const std::vector<Value>& key) const {
    const auto it = buckets.find(key);
    return it == buckets.end() ? 0 : it->second;
  }
  std::vector<Value> Project(const std::vector<Value>& key,
                             AttrMask sub) const {
    std::vector<Value> out;
    for (size_t i = 0; i < attrs.size(); ++i) {
      if ((sub >> attrs[i]) & 1) out.push_back(key[i]);
    }
    return out;
  }
};

Model MultiplyModel(const Model& a, const Model& b) {
  Model out(a.mask);
  for (const auto& [key, count] : a.buckets) {
    const int64_t factor = b.Get(a.Project(key, b.mask));
    if (factor != 0) out.Add(key, count * factor);
  }
  return out;
}

Model DivideClampedModel(const Model& a, const Model& b, int64_t* repairs) {
  Model out(a.mask);
  for (const auto& [key, count] : a.buckets) {
    int64_t numerator = count;
    if (numerator < 0) {
      numerator = 0;
      ++*repairs;
    }
    const int64_t divisor = b.Get(a.Project(key, b.mask));
    if (divisor <= 0) {
      out.Add(key, numerator);
      ++*repairs;
    } else if (numerator % divisor != 0) {
      out.Add(key, (numerator + divisor / 2) / divisor);
      ++*repairs;
    } else {
      out.Add(key, numerator / divisor);
    }
  }
  return out;
}

Model FilterMarginalizeModel(const Model& m, const Predicate* pred,
                             AttrMask keep) {
  if (pred == nullptr && keep == m.mask) return m;
  size_t pos = 0;
  if (pred != nullptr) {
    pos = static_cast<size_t>(
        std::find(m.attrs.begin(), m.attrs.end(), pred->attr) -
        m.attrs.begin());
  }
  Model out(keep);
  for (const auto& [key, count] : m.buckets) {
    if (pred == nullptr || pred->Matches(key[pos])) {
      out.Add(m.Project(key, keep), count);
    }
  }
  return out;
}

// Bucket-for-bucket agreement, zero-count buckets included.
void ExpectMatchesModel(const Histogram& h, const Model& m,
                        const std::string& what) {
  SCOPED_TRACE(what);
  ASSERT_EQ(h.attr_mask(), m.mask);
  ASSERT_EQ(h.NumBuckets(), static_cast<int64_t>(m.buckets.size()));
  EXPECT_EQ(h.TotalCount(), m.total);
  for (const auto& [key, count] : h.buckets()) {
    const std::vector<Value> k(key.begin(), key.end());
    ASSERT_EQ(m.buckets.count(k), 1u);
    EXPECT_EQ(count, m.buckets.at(k));
    EXPECT_EQ(h.Get(k), count);
  }
}

// The text stat_io writes for one histogram, rendered from the model in
// sorted key order.
std::string ModelStatText(const StatKey& stat, const Model& m) {
  const std::map<std::vector<Value>, int64_t> sorted(m.buckets.begin(),
                                                     m.buckets.end());
  std::string header = WriteStatStoreText([&] {
    StatStore one;
    one.Set(stat, StatValue::Count(0));
    return one;
  }());
  header = header.substr(0, header.find(" value="));
  std::ostringstream out;
  out << header << " buckets=" << sorted.size() << "\n";
  for (const auto& [key, count] : sorted) {
    out << "bucket";
    for (Value v : key) out << " " << v;
    out << " = " << count << "\n";
  }
  return out.str();
}

class HistogramModelSweep : public ::testing::TestWithParam<int> {
 protected:
  // A random attribute set of the given arity over attribute ids 0..9.
  static AttrMask RandomMask(Rng& rng, int arity) {
    std::vector<int> ids{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
    for (size_t i = ids.size(); i > 1; --i) {
      std::swap(ids[i - 1], ids[rng.NextBounded(i)]);
    }
    AttrMask mask = 0;
    for (int i = 0; i < arity; ++i) mask |= AttrMask{1} << ids[i];
    return mask;
  }
  static AttrMask RandomSubset(Rng& rng, AttrMask mask) {
    AttrMask sub = 0;
    for (int idx : MaskToIndices(mask)) {
      if (rng.NextBounded(2) == 0) sub |= AttrMask{1} << idx;
    }
    return sub;
  }
  static std::vector<Value> RandomKey(Rng& rng, int arity) {
    std::vector<Value> key;
    for (int i = 0; i < arity; ++i) key.push_back(rng.NextInRange(1, 4));
    return key;
  }
  // Adds the same random additions to both. With `cancel`, some additions
  // are taken back again, so zero-count buckets appear.
  static void Fill(Rng& rng, int adds, int64_t lo, int64_t hi, Histogram* h,
                   Model* m, bool cancel = true) {
    for (int i = 0; i < adds; ++i) {
      const std::vector<Value> key = RandomKey(rng, h->arity());
      const int64_t count = rng.NextInRange(lo, hi);
      h->Add(key, count);
      m->Add(key, count);
      if (cancel && rng.NextBounded(8) == 0) {
        h->Add(key, -count);
        m->Add(key, -count);
      }
    }
  }
};

TEST_P(HistogramModelSweep, EveryKernelMatchesTheReferenceModel) {
  const int arity = GetParam();
  Rng rng(static_cast<uint64_t>(arity) * 7919 + 3);
  for (int trial = 0; trial < 40; ++trial) {
    const AttrMask mask = RandomMask(rng, arity);
    Histogram a(mask);
    Model am(mask);
    Fill(rng, static_cast<int>(rng.NextInRange(0, 300)), -3, 6, &a, &am);
    ExpectMatchesModel(a, am, "Add");

    // A divisor/multiplier over a subset of the attributes: mostly keys the
    // numerator projects onto, some missing, some zero or negative.
    const AttrMask sub = RandomSubset(rng, mask);
    Histogram b(sub);
    Model bm(sub);
    for (const auto& [key, count] : am.buckets) {
      (void)count;
      if (rng.NextBounded(6) == 0) continue;
      const std::vector<Value> pk = am.Project(key, sub);
      if (bm.buckets.count(pk) != 0) continue;
      const int64_t c = rng.NextInRange(-1, 5);
      b.Add(pk, c);
      bm.Add(pk, c);
    }
    Fill(rng, 5, -2, 4, &b, &bm);
    ExpectMatchesModel(b, bm, "divisor");

    ExpectMatchesModel(Histogram::MultiplyBy(a, b), MultiplyModel(am, bm),
                       "MultiplyBy");

    int64_t repairs = 0;
    int64_t model_repairs = 0;
    ExpectMatchesModel(Histogram::DivideByClamped(a, b, &repairs),
                       DivideClampedModel(am, bm, &model_repairs),
                       "DivideByClamped");
    EXPECT_EQ(repairs, model_repairs);

    // Exact union-division: a numerator built as a multiple of a positive
    // divisor divides back without repairs.
    Histogram pos(sub);
    Model posm(sub);
    for (const auto& [key, count] : am.buckets) {
      (void)count;
      const std::vector<Value> pk = am.Project(key, sub);
      if (posm.buckets.count(pk) == 0) {
        const int64_t c = rng.NextInRange(1, 4);
        pos.Add(pk, c);
        posm.Add(pk, c);
      }
    }
    Model quotient(mask);
    for (const auto& [key, count] : MultiplyModel(am, posm).buckets) {
      quotient.Add(key, count / posm.Get(am.Project(key, sub)));
    }
    ExpectMatchesModel(Histogram::DivideBy(Histogram::MultiplyBy(a, pos), pos),
                       quotient, "DivideBy");

    const AttrMask keep = RandomSubset(rng, mask);
    ExpectMatchesModel(a.Marginalize(keep),
                       FilterMarginalizeModel(am, nullptr, keep),
                       "Marginalize");
    ExpectMatchesModel(a.Marginalize(mask), am, "Marginalize to itself");

    if (arity > 0) {
      const AttrId attr = am.attrs[rng.NextBounded(am.attrs.size())];
      const Predicate pred{attr, CompareOp::kLe, rng.NextInRange(1, 4)};
      ExpectMatchesModel(a.FilterThenMarginalize(pred, keep),
                         FilterMarginalizeModel(am, &pred, keep),
                         "FilterThenMarginalize");
      int64_t matching = 0;
      const size_t pos_attr = static_cast<size_t>(
          std::find(am.attrs.begin(), am.attrs.end(), attr) -
          am.attrs.begin());
      for (const auto& [key, count] : am.buckets) {
        if (pred.Matches(key[pos_attr])) matching += count;
      }
      EXPECT_EQ(a.CountMatching(pred), matching);
    }

    Model distinct(mask);
    for (const auto& [key, count] : am.buckets) {
      (void)count;
      distinct.Add(key, 1);
    }
    ExpectMatchesModel(a.CollapseToDistinct(), distinct, "CollapseToDistinct");

    Histogram other(mask);
    Model om(mask);
    Fill(rng, static_cast<int>(rng.NextInRange(0, 100)), -3, 6, &other, &om);
    int64_t dot = 0;
    for (const auto& [key, count] : am.buckets) dot += count * om.Get(key);
    EXPECT_EQ(Histogram::DotProduct(a, other), dot);
    EXPECT_EQ(Histogram::DotProduct(other, a), dot);

    Histogram sum = a;
    sum.AddAll(other);
    Model summ = am;
    for (const auto& [key, count] : om.buckets) summ.Add(key, count);
    ExpectMatchesModel(sum, summ, "AddAll");
  }
}

TEST_P(HistogramModelSweep, FusedMultiplyMarginalizeEqualsTwoSteps) {
  // The estimator's J2-with-marginalize kernel must be the two-step
  // MultiplyBy + Marginalize bucket for bucket, in insertion order: later
  // kernels inherit that order.
  const int arity = GetParam();
  Rng rng(static_cast<uint64_t>(arity) * 104729 + 11);
  for (int trial = 0; trial < 40; ++trial) {
    const AttrMask mask = RandomMask(rng, arity);
    Histogram a(mask);
    Model am(mask);
    Fill(rng, static_cast<int>(rng.NextInRange(0, 300)), -3, 6, &a, &am);
    const AttrMask sub = RandomSubset(rng, mask);
    Histogram b(sub);
    Model bm(sub);
    Fill(rng, static_cast<int>(rng.NextInRange(0, 40)), -2, 4, &b, &bm);
    const AttrMask keep = RandomSubset(rng, mask);

    const Histogram fused = Histogram::MultiplyThenMarginalize(a, b, keep);
    const Histogram two_step = Histogram::MultiplyBy(a, b).Marginalize(keep);
    ExpectMatchesModel(
        fused, FilterMarginalizeModel(MultiplyModel(am, bm), nullptr, keep),
        "MultiplyThenMarginalize");
    ASSERT_EQ(fused.NumBuckets(), two_step.NumBuckets());
    EXPECT_EQ(fused.TotalCount(), two_step.TotalCount());
    for (int64_t i = 0; i < fused.NumBuckets(); ++i) {
      const Histogram::Bucket x = fused.BucketAt(i);
      const Histogram::Bucket y = two_step.BucketAt(i);
      EXPECT_TRUE(std::equal(x.key.begin(), x.key.end(), y.key.begin(),
                             y.key.end()))
          << "bucket " << i;
      EXPECT_EQ(x.count, y.count) << "bucket " << i;
    }
  }
}

TEST_P(HistogramModelSweep, EqualityIgnoresInsertionOrder) {
  const int arity = GetParam();
  Rng rng(static_cast<uint64_t>(arity) * 104729 + 11);
  for (int trial = 0; trial < 20; ++trial) {
    const AttrMask mask = RandomMask(rng, arity);
    std::vector<std::pair<std::vector<Value>, int64_t>> adds;
    const int n = static_cast<int>(rng.NextInRange(1, 120));
    for (int i = 0; i < n; ++i) {
      adds.emplace_back(RandomKey(rng, arity), rng.NextInRange(-2, 5));
    }
    Histogram forward(mask);
    for (const auto& [key, count] : adds) forward.Add(key, count);
    std::vector<std::pair<std::vector<Value>, int64_t>> shuffled = adds;
    for (size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[rng.NextBounded(i)]);
    }
    Histogram backward(mask);
    for (const auto& [key, count] : shuffled) backward.Add(key, count);
    EXPECT_TRUE(forward == backward);
    EXPECT_EQ(forward.ToString(), backward.ToString());

    // One count off breaks equality, also when the total stays the same.
    if (forward.NumBuckets() > 0) {
      Histogram changed = backward;
      changed.Add(adds[0].first, 1);
      EXPECT_FALSE(forward == changed);
    }
    if (forward.NumBuckets() > 1) {
      Histogram moved = backward;
      moved.Add(forward.BucketAt(0).key, 1);
      moved.Add(forward.BucketAt(1).key, -1);
      EXPECT_EQ(moved.TotalCount(), forward.TotalCount());
      EXPECT_FALSE(forward == moved);
    }
    Histogram different_attrs(mask ^ (AttrMask{1} << 12));
    EXPECT_FALSE(forward == different_attrs);
  }
}

TEST_P(HistogramModelSweep, StatIoRendersSortedAndRoundTrips) {
  const int arity = GetParam();
  Rng rng(static_cast<uint64_t>(arity) * 31337 + 5);
  for (int trial = 0; trial < 10; ++trial) {
    const AttrMask mask = RandomMask(rng, arity);
    Histogram h(mask);
    Model m(mask);
    // Positive counts only: the parser re-adds each bucket, and adding zero
    // creates no bucket, so a zero-count bucket does not survive the trip.
    Fill(rng, static_cast<int>(rng.NextInRange(0, 200)), 1, 9, &h, &m,
         /*cancel=*/false);
    const StatKey stat = StatKey::Hist(0b11, mask);
    StatStore store;
    store.Set(stat, StatValue::Hist(h));
    const std::string text = WriteStatStoreText(store);
    EXPECT_EQ(text, ModelStatText(stat, m));
    // The parser wants at least one value per bucket line.
    if (arity == 0) continue;
    const Result<StatStore> parsed = ParseStatStoreText(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    const Histogram& back = parsed->Find(stat)->hist();
    EXPECT_TRUE(back == h);
    EXPECT_EQ(WriteStatStoreText(*parsed), text);
  }
}

INSTANTIATE_TEST_SUITE_P(Arity, HistogramModelSweep, ::testing::Range(0, 7),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "arity" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace etlopt
