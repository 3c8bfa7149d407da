// Physical join implementation: the engine has one join kernel, the hash
// join. The optimizer records it explicitly on the joins of a rewritten
// plan, the workflow text writes it as ` hash`, and the old `sortmerge`
// flag still parses, as a hash join.

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "etl/workflow_io.h"
#include "test_util.h"

namespace etlopt {
namespace {

TEST(PhysicalCostTest, OptimizerRecordsAlgorithmAndExecutorHonorsIt) {
  auto ex = testing_util::MakePaperExample();
  const Pipeline pipeline{PipelineOptions{}};
  const CycleOutcome cycle =
      pipeline.RunCycle(ex.workflow, ex.sources).value();
  int hash_joins = 0;
  for (const WorkflowNode& node : cycle.opt.optimized.nodes()) {
    if (node.kind != OpKind::kJoin) continue;
    EXPECT_EQ(node.join.algorithm, JoinAlgorithm::kHash) << node.name;
    ++hash_joins;
  }
  EXPECT_EQ(hash_joins, 2);
  // Executing the rewritten plan produces the same result.
  const ExecutionResult again =
      Executor(&cycle.opt.optimized).Execute(ex.sources).value();
  const Table& before = cycle.run.exec.targets.at("warehouse.orders");
  const Table& after = again.targets.at("warehouse.orders");
  EXPECT_TRUE(before.BuildHistogram(before.schema().mask()) ==
              after.BuildHistogram(after.schema().mask()));
}

TEST(PhysicalCostTest, JoinAlgorithmSerializes) {
  WorkflowBuilder b("phys");
  const AttrId k = b.DeclareAttr("k", 10);
  const NodeId l = b.Source("L", {k});
  const NodeId r = b.Source("R", {k});
  const NodeId j = b.Join(l, r, k);
  b.SetJoinAlgorithm(j, JoinAlgorithm::kHash);
  b.Sink(j, "out");
  const Workflow wf = std::move(b).Build().value();
  Status status;
  const std::string text = WriteWorkflowText(wf, &status);
  ASSERT_TRUE(status.ok());
  const size_t flag = text.find(" hash");
  ASSERT_NE(flag, std::string::npos);

  // The written flag, and the old sort-merge one in its place, both parse
  // as a hash join and write back the same text.
  std::string old_text = text;
  old_text.replace(flag, 5, " sortmerge");
  for (const std::string& input : {text, old_text}) {
    const Result<Workflow> parsed = ParseWorkflowText(input);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    bool found = false;
    for (const WorkflowNode& node : parsed->nodes()) {
      if (node.kind == OpKind::kJoin) {
        EXPECT_EQ(node.join.algorithm, JoinAlgorithm::kHash);
        found = true;
      }
    }
    EXPECT_TRUE(found);
    EXPECT_EQ(WriteWorkflowText(*parsed, &status), text);
    EXPECT_TRUE(status.ok());
  }
}

}  // namespace
}  // namespace etlopt
