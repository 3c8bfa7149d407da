// Ground truth: the exact row count of every SE in a block's plan space,
// which every exactness and q-error check measures estimates against.
//
// GroundTruthGolden pins, per workload of the 30-workload suite (seed 7,
// scale 0.005), one 16-hex FNV-1a digest of every block's sorted
// (se, card) list. The digests were recorded from the materializing
// implementation (each SE's full join built, then counted); the anchor
// workloads also run partitioned on 4 threads and must reproduce the serial
// row. GroundTruthOracle checks the counts against MaterializeSubexpression
// directly at small scale, on random workflows and on a hand-built
// snowflake whose edges carry several messages, and pins the overflow
// errors of a sum, of a product and of a group's count times its product
// that reach 2^64, and that a zero factor wins over overflowing ones.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "datagen/random_workflow.h"
#include "datagen/workload_suite.h"
#include "engine/instrumentation.h"
#include "etl/workflow_builder.h"
#include "obs/ledger.h"

namespace etlopt {
namespace {

// Digest per workload (index - 1).
constexpr const char* kDigests[30] = {
    "aca50c56ab7c30eb", "93966f569d8e36f0",  // wf1, wf2
    "d78b52db1afaa876", "a619893be825402f",  // wf3, wf4
    "189e0817961b2af3", "76334073edd58df3",  // wf5, wf6
    "8c41175eaa021322", "aa744fb55bbb0f6a",  // wf7, wf8
    "c18ac2200c8b3b13", "59505eba59a513c7",  // wf9, wf10
    "e3e8b680d9b12fbf", "9592073555411596",  // wf11, wf12
    "7f6457b5541fc83f", "78c6e12ff617a89d",  // wf13, wf14
    "6ac6862dc7647254", "850d2bb20e0356f2",  // wf15, wf16
    "276724880e371185", "59bf269b7a309ba5",  // wf17, wf18
    "90740e69ad149ff7", "2e03bd421704b89c",  // wf19, wf20
    "494bcf3e1d257b37", "ef3461266c2c2c1b",  // wf21, wf22
    "e36454b255a0d00d", "8383d8368daf3a72",  // wf23, wf24
    "f2f1dfcdf18b612c", "b4dcad0faa30cdfc",  // wf25, wf26
    "7b8ff1666bc0d559", "ee72016e7dd8ea50",  // wf27, wf28
    "0eb91665f4db0045", "ef55931ad11b09af",  // wf29, wf30
};

// Snowflake, chains (wf16: the 35M-row-class target at scale 0.01) and the
// 8-way wf21, executed by the partitioned executor.
constexpr int kPartitionedAnchors[] = {12, 13, 16, 21};

constexpr uint64_t kSeed = 7;
constexpr double kScale = 0.005;

// Every block's ground truth as sorted "se=card" lines.
std::string TruthText(int index, int threads) {
  const WorkloadSpec spec = BuildWorkload(index);
  const SourceMap sources = GenerateSources(spec, kSeed, kScale);
  PipelineOptions opts;
  opts.num_threads = threads;
  const Pipeline pipeline(opts);
  const auto analysis = pipeline.Analyze(spec.workflow).value();
  const RunOutcome run = pipeline.RunAndObserve(*analysis, sources).value();

  std::string text;
  for (size_t b = 0; b < analysis->blocks.size(); ++b) {
    const BlockAnalysis& ba = *analysis->blocks[b];
    const auto truth = ComputeGroundTruthCards(
        ba.ctx, ba.plan_space.subexpressions(), run.exec);
    text += "block " + std::to_string(b) + ":\n";
    if (!truth.ok()) {
      text += truth.status().ToString() + "\n";
      continue;
    }
    std::vector<std::pair<RelMask, int64_t>> sorted(truth->begin(),
                                                    truth->end());
    std::sort(sorted.begin(), sorted.end());
    for (const auto& [se, card] : sorted) {
      text += std::to_string(se) + "=" + std::to_string(card) + "\n";
    }
  }
  return text;
}

class GroundTruthGolden : public ::testing::TestWithParam<int> {};

TEST_P(GroundTruthGolden, SerialMatchesDigest) {
  EXPECT_EQ(obs::FingerprintText(TruthText(GetParam(), 1)),
            kDigests[GetParam() - 1]);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, GroundTruthGolden,
                         ::testing::Range(1, 31),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "wf" + std::to_string(info.param);
                         });

class GroundTruthGoldenPartitioned : public ::testing::TestWithParam<int> {};

TEST_P(GroundTruthGoldenPartitioned, FourThreadsMatchSerialDigest) {
  EXPECT_EQ(obs::FingerprintText(TruthText(GetParam(), 4)),
            kDigests[GetParam() - 1]);
}

INSTANTIATE_TEST_SUITE_P(Anchors, GroundTruthGoldenPartitioned,
                         ::testing::ValuesIn(kPartitionedAnchors),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "wf" + std::to_string(info.param);
                         });

// Every SE of every block: the counted card equals the row count of the
// materialized join.
void ExpectCountsMatchOracle(const Analysis& analysis,
                             const ExecutionResult& exec) {
  for (size_t b = 0; b < analysis.blocks.size(); ++b) {
    const BlockAnalysis& ba = *analysis.blocks[b];
    const auto truth = ComputeGroundTruthCards(
        ba.ctx, ba.plan_space.subexpressions(), exec);
    ASSERT_TRUE(truth.ok()) << "block " << b << ": "
                            << truth.status().ToString();
    for (RelMask se : ba.plan_space.subexpressions()) {
      const Result<Table> table = MaterializeSubexpression(ba.ctx, se, exec);
      ASSERT_TRUE(table.ok()) << table.status().ToString();
      EXPECT_EQ(truth->at(se), table->num_rows())
          << "block " << b << " SE " << se;
    }
  }
}

void ExpectOracleOnRun(const WorkloadSpec& spec, const SourceMap& sources) {
  const Pipeline pipeline;
  const auto analysis = pipeline.Analyze(spec.workflow).value();
  const RunOutcome run = pipeline.RunAndObserve(*analysis, sources).value();
  ExpectCountsMatchOracle(*analysis, run.exec);
}

TEST(GroundTruthOracle, CountsMatchMaterializedJoinsOnSuite) {
  for (int index = 1; index <= 30; ++index) {
    SCOPED_TRACE("wf" + std::to_string(index));
    const WorkloadSpec spec = BuildWorkload(index);
    ExpectOracleOnRun(spec, GenerateSources(spec, kSeed, 0.002));
  }
}

TEST(GroundTruthOracle, CountsMatchMaterializedJoinsOnRandomWorkflows) {
  // The seeds and source seeds of RandomWorkflowSweep (fuzz_test.cc).
  for (uint64_t seed = 1; seed < 17; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const WorkloadSpec spec = GenerateRandomWorkflow(seed);
    ExpectOracleOnRun(spec, GenerateSources(spec, seed * 31 + 7));
  }
}

// Ground-truth inputs without running the workflow: the relation tops of
// `wf`'s single block.
struct Tops {
  BlockContext ctx;
  ExecutionResult exec;
};

// Relation `rel`'s top holds `rows` rows; row i of its column on attribute
// a holds value(a, i).
void FillTop(const Workflow& wf, Tops& tops, int rel, int64_t rows,
             const std::function<Value(AttrId, int64_t)>& value) {
  const NodeId top = tops.ctx.TopNode(rel);
  const Schema& schema = wf.output_schema(top);
  Table table{schema};
  std::vector<Value> row(static_cast<size_t>(schema.size()));
  for (int64_t i = 0; i < rows; ++i) {
    for (int c = 0; c < schema.size(); ++c) {
      row[static_cast<size_t>(c)] = value(schema.attrs()[c], i);
    }
    table.AddRow(row);
  }
  tops.exec.node_outputs.insert_or_assign(top, std::move(table));
}

Tops MakeEmptyTops(const Workflow& wf) {
  const std::vector<Block> blocks = PartitionBlocks(wf);
  EXPECT_EQ(blocks.size(), 1u);
  return Tops{BlockContext::Build(&wf, blocks[0]).value(), {}};
}

// Every top holds `rows` rows whose values are all 1, so every join is a
// cross product.
Tops MakeAllOnesTops(const Workflow& wf, int64_t rows) {
  Tops tops = MakeEmptyTops(wf);
  for (int rel = 0; rel < tops.ctx.num_rels(); ++rel) {
    FillTop(wf, tops, rel, rows, [](AttrId, int64_t) { return 1; });
  }
  return tops;
}

// The relation whose top is `node`.
int RelOf(const BlockContext& ctx, NodeId node) {
  for (int rel = 0; rel < ctx.num_rels(); ++rel) {
    if (ctx.TopNode(rel) == node) return rel;
  }
  return -1;
}

// Every connected SE of the block: the counted card equals the row count of
// the materialized join.
void ExpectAllSubsetsMatchOracle(const Tops& tops) {
  const std::vector<RelMask> ses = tops.ctx.graph().ConnectedSubsets();
  const auto truth = ComputeGroundTruthCards(tops.ctx, ses, tops.exec);
  ASSERT_TRUE(truth.ok()) << truth.status().ToString();
  for (RelMask se : ses) {
    const Result<Table> table =
        MaterializeSubexpression(tops.ctx, se, tops.exec);
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    EXPECT_EQ(truth->at(se), table->num_rows()) << "SE " << se;
  }
}

// A snowflake whose centre C (relation 0) has an arm D1-D2-D3 and a leaf E.
// The SEs rooted at C read three different messages over the one edge
// C-D1 (from D1 alone, D1-D2 and D1-D2-D3), and those rooted at D1 two over
// D1-D2. Keys repeat in every table, so most message values exceed 1, and
// some keys of C find no partner (x = 5, z = 4): their messages are 0.
TEST(GroundTruthOracle, SnowflakeEdgeCarryingSeveralMessagesMatchesOracle) {
  WorkflowBuilder b("duplicate_key_snowflake");
  const AttrId x = b.DeclareAttr("x", 5);
  const AttrId y = b.DeclareAttr("y", 3);
  const AttrId w = b.DeclareAttr("w", 2);
  const AttrId z = b.DeclareAttr("z", 4);
  const NodeId c = b.Source("C", {x, z});
  const NodeId d1 = b.Source("D1", {x, y});
  const NodeId d2 = b.Source("D2", {y, w});
  const NodeId d3 = b.Source("D3", {w});
  const NodeId e = b.Source("E", {z});
  const NodeId j1 = b.Join(c, d1, x);
  const NodeId j2 = b.Join(j1, d2, y);
  const NodeId j3 = b.Join(j2, d3, w);
  const NodeId j4 = b.Join(j3, e, z);
  b.Sink(j4, "snowflake");
  const Workflow wf = std::move(b).Build().value();
  Tops tops = MakeEmptyTops(wf);
  ASSERT_EQ(tops.ctx.num_rels(), 5);
  ASSERT_EQ(RelOf(tops.ctx, c), 0);
  ASSERT_EQ(RelOf(tops.ctx, d1), 1);
  // Rows per relation, and per attribute the number of values a column
  // cycles through (1..n).
  const std::map<NodeId, int64_t> rows = {
      {c, 24}, {d1, 12}, {d2, 9}, {d3, 5}, {e, 6}};
  const std::map<NodeId, std::map<AttrId, int64_t>> cycles = {
      {c, {{x, 5}, {z, 4}}}, {d1, {{x, 4}, {y, 3}}}, {d2, {{y, 3}, {w, 2}}},
      {d3, {{w, 2}}},        {e, {{z, 3}}}};
  for (int rel = 0; rel < tops.ctx.num_rels(); ++rel) {
    const NodeId node = tops.ctx.TopNode(rel);
    const std::map<AttrId, int64_t>& cycle = cycles.at(node);
    FillTop(wf, tops, rel, rows.at(node), [&cycle](AttrId a, int64_t i) {
      return i % cycle.at(a) + 1;
    });
  }
  ExpectAllSubsetsMatchOracle(tops);
}

constexpr int64_t kOverflowRows = int64_t{1} << 16;

// A 4-relation chain of 65,536-row tops: the 3-relation SEs join to 2^48
// rows and the full chain to 2^64, one past int64, which the root's sum
// reaches. Counting reports that instead of a wrapped count. Nothing here
// executes or materializes the chain.
TEST(GroundTruthOracle, CountBeyondInt64IsOutOfRange) {
  WorkflowBuilder b("overflow_chain");
  const AttrId x = b.DeclareAttr("x", 1);
  const AttrId y = b.DeclareAttr("y", 1);
  const AttrId z = b.DeclareAttr("z", 1);
  const NodeId r0 = b.Source("R0", {x});
  const NodeId r1 = b.Source("R1", {x, y});
  const NodeId r2 = b.Source("R2", {y, z});
  const NodeId r3 = b.Source("R3", {z});
  const NodeId j1 = b.Join(r0, r1, x);
  const NodeId j2 = b.Join(j1, r2, y);
  const NodeId j3 = b.Join(j2, r3, z);
  b.Sink(j3, "chain");
  const Workflow wf = std::move(b).Build().value();
  const Tops tops = MakeAllOnesTops(wf, kOverflowRows);
  ASSERT_EQ(tops.ctx.num_rels(), 4);

  // The 3-relation SEs of a chain leave out one of its ends.
  RelMask three_rels = 0;
  for (int rel = 0; rel < 4; ++rel) {
    const RelMask rest = tops.ctx.full_mask() & ~(RelMask{1} << rel);
    if (tops.ctx.graph().IsConnected(rest)) three_rels = rest;
  }
  ASSERT_NE(three_rels, 0u);
  const auto three = ComputeGroundTruthCards(tops.ctx, {three_rels}, tops.exec);
  ASSERT_TRUE(three.ok()) << three.status().ToString();
  EXPECT_EQ(three->at(three_rels), int64_t{1} << 48);

  const auto full =
      ComputeGroundTruthCards(tops.ctx, {tops.ctx.full_mask()}, tops.exec);
  ASSERT_FALSE(full.ok());
  EXPECT_EQ(full.status().code(), StatusCode::kOutOfRange)
      << full.status().ToString();
}

// A star whose centre C (relation 0, the root) has two 2-relation arms of
// 65,536-row tops. Each arm sends C 2^32 per key, so a row of C weighs
// 2^32 * 2^32 = 2^64, which wraps to exactly 0 in int64 arithmetic: the
// product must be reported, not skipped as a row without partners.
TEST(GroundTruthOracle, ProductBeyondInt64IsOutOfRange) {
  WorkflowBuilder b("overflow_star");
  const AttrId x = b.DeclareAttr("x", 1);
  const AttrId y = b.DeclareAttr("y", 1);
  const AttrId u = b.DeclareAttr("u", 1);
  const AttrId v = b.DeclareAttr("v", 1);
  const NodeId c = b.Source("C", {x, y});
  const NodeId a1 = b.Source("A1", {x, u});
  const NodeId a2 = b.Source("A2", {u});
  const NodeId b1 = b.Source("B1", {y, v});
  const NodeId b2 = b.Source("B2", {v});
  const NodeId j1 = b.Join(c, a1, x);
  const NodeId j2 = b.Join(j1, a2, u);
  const NodeId j3 = b.Join(j2, b1, y);
  const NodeId j4 = b.Join(j3, b2, v);
  b.Sink(j4, "star");
  const Workflow wf = std::move(b).Build().value();
  const Tops tops = MakeAllOnesTops(wf, kOverflowRows);
  ASSERT_EQ(tops.ctx.num_rels(), 5);
  ASSERT_EQ(tops.ctx.TopNode(0), c);
  ASSERT_EQ(tops.ctx.graph().Neighbors(0, tops.ctx.full_mask()),
            RelMask{0b1010});

  const auto full =
      ComputeGroundTruthCards(tops.ctx, {tops.ctx.full_mask()}, tops.exec);
  ASSERT_FALSE(full.ok());
  EXPECT_EQ(full.status().code(), StatusCode::kOutOfRange)
      << full.status().ToString();
}

// A star whose centre C (relation 0, the root) has three one-relation arms
// of 65,536-row tops. Every row of C weighs 2^16 per arm, 2^48 in all,
// which fits int64; but all of C's 2^16 rows fall into one group, and the
// group's count times its weight is 2^64. The SE without the third arm
// counts 2^48.
TEST(GroundTruthOracle, GroupCountTimesProductBeyondInt64IsOutOfRange) {
  WorkflowBuilder b("overflow_group");
  const AttrId x = b.DeclareAttr("x", 1);
  const AttrId y = b.DeclareAttr("y", 1);
  const AttrId u = b.DeclareAttr("u", 1);
  const NodeId c = b.Source("C", {x, y, u});
  const NodeId a = b.Source("A", {x});
  const NodeId bb = b.Source("B", {y});
  const NodeId d = b.Source("D", {u});
  const NodeId j1 = b.Join(c, a, x);
  const NodeId j2 = b.Join(j1, bb, y);
  const NodeId j3 = b.Join(j2, d, u);
  b.Sink(j3, "star");
  const Workflow wf = std::move(b).Build().value();
  const Tops tops = MakeAllOnesTops(wf, kOverflowRows);
  ASSERT_EQ(tops.ctx.num_rels(), 4);
  ASSERT_EQ(RelOf(tops.ctx, c), 0);

  const RelMask two_arms = tops.ctx.full_mask() &
                           ~(RelMask{1} << RelOf(tops.ctx, d));
  const auto partial = ComputeGroundTruthCards(tops.ctx, {two_arms}, tops.exec);
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();
  EXPECT_EQ(partial->at(two_arms), int64_t{1} << 48);

  const auto full = ComputeGroundTruthCards(
      tops.ctx, {two_arms, tops.ctx.full_mask()}, tops.exec);
  ASSERT_FALSE(full.ok());
  EXPECT_EQ(full.status().code(), StatusCode::kOutOfRange)
      << full.status().ToString();
}

// A star whose centre C (relation 0, the root) has two 2-relation arms of
// 65,536-row tops, as in ProductBeyondInt64IsOutOfRange, and a leaf Z whose
// key never matches C's: Z's message is 0 at every row of C. The row's
// weight is 0 whichever order the factors come in, also when the factors
// ahead of the 0 already overflow (the leaf joined last) — not an overflow.
TEST(GroundTruthOracle, ZeroFactorBeatsOverflowingFactors) {
  for (const bool zero_first : {true, false}) {
    SCOPED_TRACE(zero_first ? "zero factor first" : "zero factor last");
    WorkflowBuilder b("zero_star");
    const AttrId x = b.DeclareAttr("x", 1);
    const AttrId y = b.DeclareAttr("y", 1);
    const AttrId u = b.DeclareAttr("u", 1);
    const AttrId v = b.DeclareAttr("v", 1);
    const AttrId k = b.DeclareAttr("k", 2);
    const NodeId c = b.Source("C", {x, y, k});
    const NodeId zero = b.Source("Z", {k});
    const NodeId a1 = b.Source("A1", {x, u});
    const NodeId a2 = b.Source("A2", {u});
    const NodeId b1 = b.Source("B1", {y, v});
    const NodeId b2 = b.Source("B2", {v});
    NodeId j = c;
    if (zero_first) j = b.Join(j, zero, k);
    j = b.Join(b.Join(j, a1, x), a2, u);
    j = b.Join(b.Join(j, b1, y), b2, v);
    if (!zero_first) j = b.Join(j, zero, k);
    b.Sink(j, "star");
    const Workflow wf = std::move(b).Build().value();
    Tops tops = MakeAllOnesTops(wf, kOverflowRows);
    const int zero_rel = RelOf(tops.ctx, zero);
    FillTop(wf, tops, zero_rel, kOverflowRows,
            [](AttrId, int64_t) { return 2; });
    ASSERT_EQ(RelOf(tops.ctx, c), 0);
    const std::vector<int>& edges = tops.ctx.graph().edges_of(0);
    ASSERT_EQ(edges.size(), 3u);
    const JoinEdge& zero_edge = tops.ctx.graph().edges()[static_cast<size_t>(
        zero_first ? edges.front() : edges.back())];
    ASSERT_EQ(zero_edge.a + zero_edge.b, zero_rel);

    const RelMask full = tops.ctx.full_mask();
    const auto truth = ComputeGroundTruthCards(tops.ctx, {full}, tops.exec);
    ASSERT_TRUE(truth.ok()) << truth.status().ToString();
    EXPECT_EQ(truth->at(full), 0);
    if (zero_rel == 1) {
      // The oracle joins C with Z first, so nothing it builds is large.
      const Result<Table> table = MaterializeSubexpression(tops.ctx, full,
                                                           tops.exec);
      ASSERT_TRUE(table.ok()) << table.status().ToString();
      EXPECT_EQ(table->num_rows(), 0);
    }
  }
}

}  // namespace
}  // namespace etlopt
