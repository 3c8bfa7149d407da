#include <gtest/gtest.h>

#include <algorithm>

#include "engine/executor.h"
#include "test_util.h"

namespace etlopt {
namespace {

TEST(TableTest, BuildHistogramAndDistinct) {
  Table t{Schema({0, 1})};
  t.AddRow({1, 10});
  t.AddRow({1, 11});
  t.AddRow({2, 10});
  t.AddRow({1, 10});
  const Histogram h0 = t.BuildHistogram(0b01);
  EXPECT_EQ(h0.Get1(1), 3);
  EXPECT_EQ(h0.Get1(2), 1);
  const Histogram h01 = t.BuildHistogram(0b11);
  EXPECT_EQ(h01.Get({1, 10}), 2);
  EXPECT_EQ(t.CountDistinct(0b01), 2);
  EXPECT_EQ(t.CountDistinct(0b11), 3);
}

TEST(HashJoinTest, InnerJoinWithRejects) {
  Table left{Schema({0, 1})};
  left.AddRow({1, 100});
  left.AddRow({2, 200});
  left.AddRow({3, 300});
  Table right{Schema({0, 2})};
  right.AddRow({1, 7});
  right.AddRow({1, 8});
  right.AddRow({2, 9});
  Table rejects{left.schema()};
  const Table out = HashJoin(left, right, 0, &rejects);
  EXPECT_EQ(out.num_rows(), 3);  // key 1 matches twice, key 2 once
  EXPECT_EQ(out.schema().size(), 3);
  EXPECT_EQ(rejects.num_rows(), 1);
  EXPECT_EQ(rejects.at(0, 0), 3);
}

// Both reject sides of HashJoin against a nested loop over every pair: the
// left rows equal to no right key, in probe order, and the right rows equal
// to no left key, in build order.
TEST(HashJoinTest, RejectsMatchNestedLoopOracle) {
  Rng rng(27);
  std::vector<Value> dup_left;
  std::vector<Value> dup_right;
  for (int i = 0; i < 300; ++i) dup_left.push_back(rng.NextInRange(1, 40));
  for (int i = 0; i < 150; ++i) dup_right.push_back(rng.NextInRange(20, 60));
  struct Case {
    const char* name;
    std::vector<Value> left_keys;
    std::vector<Value> right_keys;
  };
  const std::vector<Case> cases = {
      {"duplicate keys", dup_left, dup_right},
      {"empty probe", {}, {3, 1, 3, 2}},
      {"empty build", {2, 2, 5}, {}},
      {"disjoint keys", {1, 3, 5, 3}, {2, 4, 6, 2}},
  };
  for (const Case& c : cases) {
    Table left{Schema({0, 1})};
    Table right{Schema({0, 2})};
    for (size_t i = 0; i < c.left_keys.size(); ++i) {
      left.AddRow({c.left_keys[i], static_cast<Value>(100 + i)});
    }
    for (size_t i = 0; i < c.right_keys.size(); ++i) {
      right.AddRow({c.right_keys[i], static_cast<Value>(1000 + i)});
    }
    std::vector<std::vector<Value>> want_left;
    std::vector<std::vector<Value>> want_right;
    for (int64_t l = 0; l < left.num_rows(); ++l) {
      bool hit = false;
      for (int64_t r = 0; r < right.num_rows(); ++r) {
        hit = hit || left.at(l, 0) == right.at(r, 0);
      }
      if (!hit) want_left.push_back(left.row(l));
    }
    for (int64_t r = 0; r < right.num_rows(); ++r) {
      bool hit = false;
      for (int64_t l = 0; l < left.num_rows(); ++l) {
        hit = hit || left.at(l, 0) == right.at(r, 0);
      }
      if (!hit) want_right.push_back(right.row(r));
    }
    Table rejects;
    Table right_rejects;
    HashJoin(left, right, 0, &rejects, &right_rejects);
    EXPECT_TRUE(rejects.schema() == left.schema()) << c.name;
    EXPECT_TRUE(right_rejects.schema() == right.schema()) << c.name;
    EXPECT_EQ(rejects.MaterializeRows(), want_left) << c.name;
    EXPECT_EQ(right_rejects.MaterializeRows(), want_right) << c.name;
  }
}

class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override { ex_ = testing_util::MakePaperExample(); }
  testing_util::PaperExample ex_;
};

TEST_F(ExecutorTest, RunsPaperExample) {
  Executor executor(&ex_.workflow,
                    testing_util::RetainOutputsAndRejects(ex_.workflow));
  Result<ExecutionResult> result = executor.Execute(ex_.sources);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // The sink output exists and matches the final join node output.
  const Table& sink_out = result->targets.at("warehouse.orders");
  EXPECT_GT(sink_out.num_rows(), 0);
  // Every node produced an output.
  EXPECT_EQ(static_cast<int>(result->node_outputs.size()),
            ex_.workflow.num_nodes());
  // Join rejects recorded for both joins (both sides, as asked).
  EXPECT_EQ(result->join_rejects.size(), 2u);
  EXPECT_EQ(result->join_rejects_right.size(), 2u);
}

TEST_F(ExecutorTest, JoinCardinalityMatchesBruteForce) {
  Executor executor(&ex_.workflow);
  const ExecutionResult result = executor.Execute(ex_.sources).value();
  const Table& orders = ex_.sources.at("Orders");
  const Table& product = ex_.sources.at("Product");
  const Table& customer = ex_.sources.at("Customer");
  int64_t brute = 0;
  for (int64_t o = 0; o < orders.num_rows(); ++o) {
    for (int64_t p = 0; p < product.num_rows(); ++p) {
      if (orders.at(o, 0) != product.at(p, 0)) continue;
      for (int64_t c = 0; c < customer.num_rows(); ++c) {
        if (orders.at(o, 1) == customer.at(c, 0)) ++brute;
      }
    }
  }
  EXPECT_EQ(result.targets.at("warehouse.orders").num_rows(), brute);
}

TEST(ExecutorOpsTest, FilterProjectTransformAggregate) {
  WorkflowBuilder b("ops");
  const AttrId a = b.DeclareAttr("a", 100);
  const AttrId c = b.DeclareAttr("c", 100);
  const AttrId d = b.DeclareAttr("d", 200);
  const NodeId src = b.Source("S", {a, c});
  const NodeId f = b.Filter(src, {a, CompareOp::kLe, 5});
  const NodeId t = b.DeriveAttr(f, a, d, [](Value v) { return v * 2; });
  const NodeId p = b.Project(t, {d, c});
  const NodeId g = b.Aggregate(p, {d});
  b.Sink(g, "out");
  Workflow wf = std::move(b).Build().value();

  Table s{Schema({a, c})};
  s.AddRow({1, 10});
  s.AddRow({5, 10});
  s.AddRow({6, 10});  // filtered out
  s.AddRow({1, 11});
  SourceMap sources{{"S", s}};
  const ExecutionResult result =
      Executor(&wf, testing_util::RetainOutputs()).Execute(sources).value();
  const Table& filtered = result.node_outputs.at(f);
  EXPECT_EQ(filtered.num_rows(), 3);
  const Table& derived = result.node_outputs.at(t);
  EXPECT_EQ(derived.schema().size(), 3);
  EXPECT_EQ(derived.at(0, 2), 2);  // 1*2
  const Table& grouped = result.node_outputs.at(g);
  EXPECT_EQ(grouped.num_rows(), 2);  // d in {2, 10}
}

TEST(ExecutorOpsTest, AggregateWithCountColumn) {
  WorkflowBuilder b("agg");
  const AttrId a = b.DeclareAttr("a", 10);
  const AttrId cnt = b.DeclareAttr("cnt", 1000000);
  const NodeId src = b.Source("S", {a});
  const NodeId g = b.Aggregate(src, {a}, cnt);
  b.Sink(g, "out");
  Workflow wf = std::move(b).Build().value();
  Table s{Schema({a})};
  s.AddRow({3});
  s.AddRow({3});
  s.AddRow({4});
  const ExecutionResult result =
      Executor(&wf, testing_util::RetainOutputs()).Execute({{"S", s}}).value();
  const Table& out = result.node_outputs.at(g);
  ASSERT_EQ(out.num_rows(), 2);
  // Find the group with key 3.
  for (int64_t r = 0; r < out.num_rows(); ++r) {
    if (out.at(r, 0) == 3) {
      EXPECT_EQ(out.at(r, 1), 2);
    }
    if (out.at(r, 0) == 4) {
      EXPECT_EQ(out.at(r, 1), 1);
    }
  }
}

TEST(ExecutorOpsTest, AggregateUdfDeduplicates) {
  WorkflowBuilder b("udf");
  const AttrId a = b.DeclareAttr("a", 100);
  const NodeId src = b.Source("S", {a});
  const NodeId u = b.AggregateUdf(src, a, [](Value v) { return v / 10; });
  b.Sink(u, "out");
  Workflow wf = std::move(b).Build().value();
  Table s{Schema({a})};
  s.AddRow({11});
  s.AddRow({12});  // same bucket as 11
  s.AddRow({25});
  const ExecutionResult result =
      Executor(&wf, testing_util::RetainOutputs()).Execute({{"S", s}}).value();
  EXPECT_EQ(result.node_outputs.at(u).num_rows(), 2);
}

TEST(ExecutorOpsTest, MaterializeCapturesTarget) {
  WorkflowBuilder b("mat");
  const AttrId a = b.DeclareAttr("a", 10);
  const NodeId src = b.Source("S", {a});
  const NodeId m = b.Materialize(src, "staging.s");
  b.Sink(m, "out");
  Workflow wf = std::move(b).Build().value();
  Table s{Schema({a})};
  s.AddRow({1});
  const ExecutionResult result =
      Executor(&wf).Execute({{"S", s}}).value();
  EXPECT_EQ(result.targets.at("staging.s").num_rows(), 1);
  EXPECT_EQ(result.targets.at("out").num_rows(), 1);
}

TEST(ExecutorOpsTest, MissingSourceFails) {
  auto ex = testing_util::MakePaperExample();
  SourceMap missing;
  Executor executor(&ex.workflow);
  EXPECT_FALSE(executor.Execute(missing).ok());
}

TEST(ExecutorOpsTest, SchemaMismatchFails) {
  auto ex = testing_util::MakePaperExample();
  SourceMap bad = ex.sources;
  bad["Orders"] = Table{Schema({ex.cust_id})};  // wrong schema
  Executor executor(&ex.workflow);
  EXPECT_FALSE(executor.Execute(bad).ok());
}

}  // namespace
}  // namespace etlopt
