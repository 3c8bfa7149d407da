// Unit tests for the columnar storage layer and vectorized kernels
// (engine/column.*): selection vectors, gather, the join hash table's
// build-order grouping, dictionary encoding, copy-on-write column sharing,
// the hash join against a nested-loop reference, a pinned operator chain,
// and the row-wise vs column-wise tap feeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/column.h"
#include "engine/executor.h"
#include "engine/parallel/parallel_executor.h"
#include "engine/table.h"
#include "sketch/sketch.h"
#include "sketch/tap.h"
#include "test_util.h"
#include "util/random.h"

namespace etlopt {
namespace {

TEST(BuildSelectionTest, MatchesPredicateForEveryOperator) {
  Rng rng(5);
  Column data;
  for (int i = 0; i < 500; ++i) data.push_back(rng.NextInRange(1, 40));
  for (CompareOp op : {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                       CompareOp::kLe, CompareOp::kGt, CompareOp::kGe}) {
    const Predicate pred{0, op, 17};
    SelVector sel;
    BuildSelection(pred, data.data(), static_cast<int64_t>(data.size()),
                   &sel);
    SelVector expected;
    for (int64_t r = 0; r < static_cast<int64_t>(data.size()); ++r) {
      if (pred.Matches(data[static_cast<size_t>(r)])) expected.push_back(r);
    }
    EXPECT_EQ(sel, expected) << "op " << static_cast<int>(op);
  }
}

TEST(GatherTest, GatherColumnAndTableAgree) {
  Schema schema({0, 1});
  Table t{schema};
  for (int i = 0; i < 20; ++i) t.AddRow({i + 1, (i % 5) + 1});
  const SelVector sel{0, 3, 3, 19, 7};
  const Table picked = Table::Gather(t, sel);
  ASSERT_EQ(picked.num_rows(), 5);
  for (size_t i = 0; i < sel.size(); ++i) {
    EXPECT_EQ(picked.row(static_cast<int64_t>(i)), t.row(sel[i]));
  }
  Column col;
  GatherColumn(t.column(0), sel, &col);
  EXPECT_EQ(col, picked.column(0));
}

TEST(JoinHashTableTest, LookupReturnsBuildOrderGroups) {
  // Keys with duplicates, scattered: groups must come back contiguous and
  // in build row order (the emission-order invariant of the hash join).
  const Column keys{7, 3, 7, 9, 3, 7};
  const JoinHashTable ht(keys.data(), static_cast<int64_t>(keys.size()));
  EXPECT_EQ(ht.num_keys(), 3);
  EXPECT_EQ(ht.num_rows(), 6);

  const JoinHashTable::RowRange r7 = ht.Lookup(7);
  ASSERT_EQ(r7.size(), 3);
  EXPECT_EQ(std::vector<int64_t>(r7.begin, r7.end),
            (std::vector<int64_t>{0, 2, 5}));
  const JoinHashTable::RowRange r3 = ht.Lookup(3);
  EXPECT_EQ(std::vector<int64_t>(r3.begin, r3.end),
            (std::vector<int64_t>{1, 4}));
  const JoinHashTable::RowRange r9 = ht.Lookup(9);
  EXPECT_EQ(std::vector<int64_t>(r9.begin, r9.end),
            (std::vector<int64_t>{3}));
  EXPECT_TRUE(ht.Lookup(42).empty());
  EXPECT_TRUE(ht.Lookup(8).empty());
}

TEST(JoinHashTableTest, EmptyBuildSide) {
  const JoinHashTable ht(nullptr, 0);
  EXPECT_EQ(ht.num_keys(), 0);
  EXPECT_TRUE(ht.Lookup(1).empty());
}

TEST(StringDictionaryTest, InternsFirstSeenOrder) {
  StringDictionary dict;
  EXPECT_EQ(dict.Intern("red"), 1);
  EXPECT_EQ(dict.Intern("green"), 2);
  EXPECT_EQ(dict.Intern("red"), 1);  // stable on re-intern
  EXPECT_EQ(dict.Intern("blue"), 3);
  EXPECT_EQ(dict.size(), 3);
  EXPECT_EQ(dict.Find("green"), 2);
  EXPECT_EQ(dict.Find("mauve"), 0);
  EXPECT_EQ(dict.LookupId(3), "blue");
}

TEST(TableCowTest, CopySharesColumnsUntilMutation) {
  Schema schema({0, 1});
  Table a{schema};
  for (int i = 0; i < 10; ++i) a.AddRow({i, i * 2});
  Table b = a;  // shares both columns
  EXPECT_EQ(a.column_data(0), b.column_data(0));
  EXPECT_EQ(a.column_data(1), b.column_data(1));

  b.AddRow({99, 98});  // clones on first write
  EXPECT_NE(a.column_data(0), b.column_data(0));
  EXPECT_EQ(a.num_rows(), 10);
  EXPECT_EQ(b.num_rows(), 11);
  EXPECT_EQ(a.at(9, 0), 9);    // original untouched
  EXPECT_EQ(b.at(10, 0), 99);
}

TEST(TableCowTest, EqualityComparesContentNotSharing) {
  Schema schema({0});
  Table a{schema};
  a.AddRow({1});
  a.AddRow({2});
  Table shared = a;
  EXPECT_TRUE(a == shared);
  Table rebuilt{schema};
  rebuilt.AddRow({1});
  rebuilt.AddRow({2});
  EXPECT_TRUE(a == rebuilt);
  rebuilt.AddRow({3});
  EXPECT_TRUE(a != rebuilt);
}

// ---- kernels against pinned and reference results -----------------------

// Fact(k, v) -> filter -> derive d -> join Dim(k) with a designed reject
// link -> project -> aggregate -> sink.
struct OperatorChain {
  Workflow workflow;
  SourceMap sources;
  NodeId join = kInvalidNode;
};

OperatorChain MakeOperatorChain() {
  WorkflowBuilder b("chain");
  const AttrId k = b.DeclareAttr("k", 60);
  const AttrId v = b.DeclareAttr("v", 20);
  const AttrId d = b.DeclareAttr("d", 200);
  const NodeId src = b.Source("Fact", {k, v});
  const NodeId dim = b.Source("Dim", {k});
  const NodeId f = b.Filter(src, {v, CompareOp::kLt, 15});
  const NodeId t = b.DeriveAttr(f, v, d, [](Value x) { return x * 3 + 1; });
  const NodeId j = b.Join(t, dim, k, {/*reject_link=*/true});
  const NodeId p = b.Project(j, {k, d});
  const NodeId g = b.Aggregate(p, {k});
  b.Sink(g, "out");
  OperatorChain chain;
  chain.workflow = std::move(b).Build().value();
  chain.join = j;

  Rng rng(13);
  Table fact{Schema({k, v})};
  for (int i = 0; i < 2000; ++i) {
    fact.AddRow({rng.NextInRange(1, 60), rng.NextInRange(1, 20)});
  }
  Table dim_t{Schema({k})};
  for (int i = 0; i < 40; ++i) dim_t.AddRow({rng.NextInRange(1, 60)});
  chain.sources["Fact"] = std::move(fact);
  chain.sources["Dim"] = std::move(dim_t);
  return chain;
}

TEST(KernelEquivalenceTest, OperatorChainBitIdentical) {
  const OperatorChain chain = MakeOperatorChain();
  // Every node output, both reject sides and the work counters, as the
  // row-at-a-time engine produced them before it was retired.
  const ExecutionResult result =
      Executor(&chain.workflow,
               testing_util::RetainOutputsAndRejects(chain.workflow))
          .Execute(chain.sources)
          .value();
  EXPECT_EQ(testing_util::TablesDigest(result.node_outputs),
            "876343c24b5a7ed1");
  EXPECT_EQ(testing_util::TablesDigest(result.join_rejects),
            "5e14c0e1e60c1693");
  EXPECT_EQ(testing_util::TablesDigest(result.join_rejects_right),
            "24d940732df00cd0");
  EXPECT_EQ(result.rows_processed, 6649);
  EXPECT_EQ(result.bytes_processed, 124176);
}

// A production run builds the designed reject link's left rejects (the
// pinned digest) and no right rejects, serially and partitioned, with the
// same target and work counters.
TEST(KernelEquivalenceTest, ProductionRunBuildsOnlyDesignedRejectLink) {
  const OperatorChain chain = MakeOperatorChain();
  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    parallel::ParallelOptions opts;
    opts.num_threads = threads;
    const parallel::ParallelResult par =
        parallel::ParallelExecutor(&chain.workflow, opts)
            .Execute(chain.sources)
            .value();
    ASSERT_EQ(par.exec.join_rejects.size(), 1u);
    ASSERT_EQ(par.exec.join_rejects.count(chain.join), 1u);
    EXPECT_EQ(testing_util::TablesDigest(par.exec.join_rejects),
              "5e14c0e1e60c1693");
    EXPECT_TRUE(par.exec.join_rejects_right.empty());
    EXPECT_EQ(par.exec.rows_processed, 6649);
    EXPECT_EQ(par.exec.bytes_processed, 124176);
  }
}

TEST(KernelEquivalenceTest, HashJoinWithDuplicates) {
  // Duplicate-heavy keys on both sides: per-key fan-out is where emission
  // order could drift. The contract is probe order x build order.
  Schema ls({0, 1});
  Schema rs({0, 2});
  Table left{ls};
  Table right{rs};
  Rng rng(21);
  for (int i = 0; i < 500; ++i) {
    left.AddRow({rng.NextInRange(1, 18), i});
  }
  for (int i = 0; i < 80; ++i) {
    right.AddRow({rng.NextInRange(1, 15), 1000 + i});
  }
  // Nested-loop reference: every probe row against every build row in
  // build order; unmatched probe rows are the left rejects, in probe order.
  std::vector<std::vector<Value>> expected;
  std::vector<std::vector<Value>> expected_rejects;
  for (int64_t l = 0; l < left.num_rows(); ++l) {
    bool matched = false;
    for (int64_t r = 0; r < right.num_rows(); ++r) {
      if (right.at(r, 0) != left.at(l, 0)) continue;
      std::vector<Value> row = left.row(l);
      row.push_back(right.at(r, 1));
      expected.push_back(std::move(row));
      matched = true;
    }
    if (!matched) expected_rejects.push_back(left.row(l));
  }
  ASSERT_FALSE(expected_rejects.empty());  // keys 16..18 never match
  Table rejects{ls};
  const Table out = HashJoin(left, right, 0, &rejects);
  EXPECT_EQ(out.MaterializeRows(), expected);
  EXPECT_EQ(rejects.MaterializeRows(), expected_rejects);
}

TEST(KernelEquivalenceTest, TapColumnarFeedBitIdentical) {
  Rng rng(31);
  AttrCatalog catalog;
  const AttrId a = catalog.Register("a", 100);
  const AttrId b = catalog.Register("b", 40);
  const Table t = testing_util::RandomTable(catalog, {a, b}, 3000, rng);
  std::vector<const Value*> cols{t.column_data(0), t.column_data(1)};

  sketch::TapSketchConfig config;
  config.kmv_k = 64;  // small k so the KMV saturates and truncates

  sketch::DistinctTap by_row(config);
  sketch::DistinctTap by_col(config);
  std::vector<Value> probe(2);
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    probe[0] = t.at(r, 0);
    probe[1] = t.at(r, 1);
    by_row.AddRow(probe);
  }
  by_col.AddColumns(cols, t.num_rows());
  EXPECT_EQ(by_row.Estimate(), by_col.Estimate());
  EXPECT_EQ(by_row.hll().registers(), by_col.hll().registers());

  sketch::HistTap hist_row(config);
  sketch::HistTap hist_col(config);
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    probe[0] = t.at(r, 0);
    probe[1] = t.at(r, 1);
    hist_row.AddRow(probe);
  }
  hist_col.AddColumns(cols, t.num_rows());
  EXPECT_EQ(hist_row.rows_seen(), hist_col.rows_seen());
  EXPECT_EQ(hist_row.kmv().saturated(), hist_col.kmv().saturated());
  EXPECT_EQ(hist_row.kmv().entries(), hist_col.kmv().entries());
  const AttrMask attrs = (AttrMask{1} << a) | (AttrMask{1} << b);
  EXPECT_TRUE(hist_row.Build(attrs) == hist_col.Build(attrs));
}

TEST(KernelEquivalenceTest, BuildHistogramMatchesManualCount) {
  Rng rng(41);
  AttrCatalog catalog;
  const AttrId a = catalog.Register("a", 25);
  const Table t = testing_util::RandomTable(catalog, {a}, 800, rng);
  const Histogram h = t.BuildHistogram(AttrMask{1} << a);
  std::unordered_map<Value, int64_t> manual;
  for (int64_t r = 0; r < t.num_rows(); ++r) ++manual[t.at(r, 0)];
  int64_t total = 0;
  for (const auto& [key, count] : h.buckets()) {
    ASSERT_EQ(key.size(), 1u);
    EXPECT_EQ(count, manual.at(key[0]));
    total += count;
  }
  EXPECT_EQ(total, t.num_rows());
}

}  // namespace
}  // namespace etlopt
