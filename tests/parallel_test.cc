// Tests for the partitioned parallel executor (engine/parallel/): the
// worker pool's error contract, deterministic hash/range partitioning,
// bit-identical serial-vs-parallel execution and observed statistics,
// streaming reject-join taps against a materialized oracle, mergeable
// sketch states, and partition-scoped crash salvage.
#include <gtest/gtest-spi.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "datagen/workload_suite.h"
#include "engine/instrumentation.h"
#include "engine/parallel/parallel_executor.h"
#include "engine/parallel/partition.h"
#include "obs/checkpoint.h"
#include "obs/ledger.h"
#include "planspace/block.h"
#include "sketch/tap.h"
#include "stats/stat_io.h"
#include "test_util.h"
#include "util/fault.h"
#include "util/thread_pool.h"

namespace etlopt {
namespace {

using fault::FaultInjector;
using parallel::HashPartition;
using parallel::HashPartitionIndex;
using parallel::ParallelExecutor;
using parallel::ParallelOptions;
using parallel::ParallelResult;
using parallel::PartitionSkew;
using parallel::RangePartition;
using parallel::TablePartitions;

std::string TempPath(const std::string& name) {
  // Pid-qualified so the sanitizer twin of this suite can run under the
  // same ctest invocation without clobbering this process's files.
  const std::string path =
      ::testing::TempDir() + std::to_string(getpid()) + "_" + name;
  std::remove(path.c_str());
  return path;
}

// ---- worker pool -------------------------------------------------------

TEST(ThreadPoolTest, ParallelForRunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  std::vector<std::atomic<int>> hits(64);
  const Status s = pool.ParallelFor(64, [&](int i) {
    hits[static_cast<size_t>(i)].fetch_add(1);
    return Status::OK();
  });
  ASSERT_TRUE(s.ok());
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, LowestFailingIndexWins) {
  ThreadPool pool(4);
  const Status s = pool.ParallelFor(16, [&](int i) {
    if (i == 11 || i == 5 || i == 13) {
      return Status::Internal("task " + std::to_string(i));
    }
    return Status::OK();
  });
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("task 5"), std::string::npos) << s.ToString();
}

TEST(ThreadPoolTest, ThrownExceptionBecomesInternalStatus) {
  ThreadPool pool(2);
  const Status s = pool.ParallelFor(4, [&](int i) -> Status {
    if (i == 2) throw std::runtime_error("boom");
    return Status::OK();
  });
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInternal);
}

TEST(ThreadPoolTest, PoolIsReusableAndHandlesEmptyRounds) {
  ThreadPool pool(3);
  ASSERT_TRUE(pool.ParallelFor(0, [](int) { return Status::OK(); }).ok());
  for (int round = 0; round < 5; ++round) {
    std::atomic<int> count{0};
    ASSERT_TRUE(pool.ParallelFor(10, [&](int) {
      count.fetch_add(1);
      return Status::OK();
    }).ok());
    EXPECT_EQ(count.load(), 10);
  }
}

// ---- partitioning ------------------------------------------------------

TEST(PartitionTest, HashPlacementIsDeterministicAndComplete) {
  Schema schema({0, 1});
  Table t{schema};
  Rng rng(42);
  for (int i = 0; i < 500; ++i) {
    t.AddRow({rng.NextInRange(1, 40), rng.NextInRange(1, 9)});
  }
  const TablePartitions parts = HashPartition(t, 0, 4);
  ASSERT_EQ(parts.num_partitions(), 4);
  EXPECT_EQ(parts.total_rows(), t.num_rows());

  // Every original row lands in exactly one slice, in a slot that agrees
  // with the pure value hash, preserving in-slice order.
  std::set<int64_t> seen;
  for (int p = 0; p < 4; ++p) {
    ASSERT_EQ(parts.parts[p].num_rows(),
              static_cast<int64_t>(parts.row_index[p].size()));
    int64_t prev = -1;
    for (size_t i = 0; i < parts.row_index[p].size(); ++i) {
      const int64_t orig = parts.row_index[p][i];
      EXPECT_TRUE(seen.insert(orig).second);
      EXPECT_GT(orig, prev);  // in-slice order = original order
      prev = orig;
      EXPECT_EQ(parts.parts[p].row(static_cast<int64_t>(i)), t.row(orig));
      EXPECT_EQ(HashPartitionIndex(t.at(orig, 0), 4), p);
    }
  }
  EXPECT_EQ(seen.size(), static_cast<size_t>(t.num_rows()));

  // Same table, same fan-out: identical placement on a repeat run.
  const TablePartitions again = HashPartition(t, 0, 4);
  for (int p = 0; p < 4; ++p) {
    EXPECT_EQ(parts.row_index[p], again.row_index[p]);
  }
}

TEST(PartitionTest, RangePartitionControlsSkewDirectly) {
  Schema schema({0});
  Table t{schema};
  for (int i = 1; i <= 100; ++i) t.AddRow({i});
  // Bounds {90, 95, 98}: slice 0 gets 90 rows, the rest split the tail.
  const TablePartitions parts = RangePartition(t, 0, {90, 95, 98});
  ASSERT_EQ(parts.num_partitions(), 4);
  EXPECT_EQ(parts.parts[0].num_rows(), 90);
  EXPECT_EQ(parts.parts[1].num_rows(), 5);
  EXPECT_EQ(parts.parts[2].num_rows(), 3);
  EXPECT_EQ(parts.parts[3].num_rows(), 2);
  // skew = max/mean = 90 / 25.
  EXPECT_DOUBLE_EQ(PartitionSkew(parts), 90.0 / 25.0);
}

// ---- serial vs parallel equivalence ------------------------------------

void ExpectTablesIdentical(const Table& a, const Table& b,
                           const std::string& what) {
  ASSERT_EQ(a.schema().mask(), b.schema().mask()) << what;
  ASSERT_EQ(a.num_rows(), b.num_rows()) << what;
  EXPECT_EQ(a.MaterializeRows(), b.MaterializeRows())
      << what << ": row content or order differs";
}

// The reject tables a clean run of `wf` under `asked` must hold: the named
// sides, or on a production run the designed reject links' left rejects.
void ExpectRejectTablesAsAsked(const Workflow& wf,
                               const ExecutorOptions& asked,
                               const ExecutionResult& exec) {
  size_t left = 0;
  size_t right = 0;
  for (const WorkflowNode& node : wf.nodes()) {
    if (node.kind != OpKind::kJoin) continue;
    RejectSides want{node.join.left_reject_link, false};
    const auto it = asked.reject_sides.find(node.id);
    if (it != asked.reject_sides.end()) {
      want.left = want.left || it->second.left;
      want.right = it->second.right;
    }
    EXPECT_EQ(exec.join_rejects.count(node.id), want.left ? 1u : 0u)
        << "left rejects of join " << node.id;
    EXPECT_EQ(exec.join_rejects_right.count(node.id), want.right ? 1u : 0u)
        << "right rejects of join " << node.id;
    left += want.left ? 1 : 0;
    right += want.right ? 1 : 0;
  }
  EXPECT_EQ(exec.join_rejects.size(), left);
  EXPECT_EQ(exec.join_rejects_right.size(), right);
}

// Bit-identical equivalence of everything downstream consumers read:
// cached node outputs, the join rejects `asked` names (both runs must hold
// exactly those), targets, and the row / byte accounting the plan-cost
// comparison uses.
void ExpectExecutionsIdentical(const Workflow& wf,
                               const ExecutorOptions& asked,
                               const ExecutionResult& serial,
                               const ExecutionResult& par) {
  ExpectRejectTablesAsAsked(wf, asked, serial);
  ExpectRejectTablesAsAsked(wf, asked, par);
  ASSERT_EQ(serial.node_outputs.size(), par.node_outputs.size());
  for (const auto& [id, table] : serial.node_outputs) {
    const auto it = par.node_outputs.find(id);
    ASSERT_NE(it, par.node_outputs.end()) << "node " << id;
    ExpectTablesIdentical(table, it->second, "node " + std::to_string(id));
  }
  ASSERT_EQ(serial.join_rejects.size(), par.join_rejects.size());
  for (const auto& [id, table] : serial.join_rejects) {
    ExpectTablesIdentical(table, par.join_rejects.at(id),
                          "rejects of join " + std::to_string(id));
  }
  ASSERT_EQ(serial.join_rejects_right.size(), par.join_rejects_right.size());
  for (const auto& [id, table] : serial.join_rejects_right) {
    ExpectTablesIdentical(table, par.join_rejects_right.at(id),
                          "right rejects of join " + std::to_string(id));
  }
  ASSERT_EQ(serial.targets.size(), par.targets.size());
  for (const auto& [name, table] : serial.targets) {
    ExpectTablesIdentical(table, par.targets.at(name), "target " + name);
  }
  EXPECT_EQ(serial.rows_processed, par.rows_processed);
  EXPECT_EQ(serial.bytes_processed, par.bytes_processed);
}

TEST(ParallelExecutorTest, PaperExampleBitIdenticalAcrossWorkerCounts) {
  auto ex = testing_util::MakePaperExample();
  const ExecutorOptions every =
      testing_util::RetainOutputsAndRejects(ex.workflow);
  const ExecutionResult serial =
      Executor(&ex.workflow, every).Execute(ex.sources).value();
  for (int threads : {2, 3, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ParallelOptions opts;
    opts.num_threads = threads;
    opts.executor = every;
    const ParallelResult par =
        ParallelExecutor(&ex.workflow, opts).Execute(ex.sources).value();
    EXPECT_TRUE(par.used_parallel_path);
    EXPECT_EQ(par.exec.num_workers, threads);
    EXPECT_GT(par.exec.partitions_total, 0);
    ExpectExecutionsIdentical(ex.workflow, every, serial, par.exec);
  }
}

// The failures `check` reports, intercepted instead of failing the test.
template <typename Check>
std::vector<std::string> FailuresOf(Check&& check) {
  ::testing::TestPartResultArray results;
  {
    const ::testing::ScopedFakeTestPartResultReporter reporter(
        ::testing::ScopedFakeTestPartResultReporter::
            INTERCEPT_ONLY_CURRENT_THREAD,
        &results);
    check();
  }
  std::vector<std::string> messages;
  for (int i = 0; i < results.size(); ++i) {
    messages.push_back(results.GetTestPartResult(i).message());
  }
  return messages;
}

// When every side was asked for, runs without reject tables must not pass
// as identical, even to each other.
TEST(ParallelExecutorTest, IdenticalCheckRejectsMissingRejectTables) {
  auto ex = testing_util::MakePaperExample();
  const ExecutorOptions every =
      testing_util::RetainOutputsAndRejects(ex.workflow);
  const ExecutionResult built =
      Executor(&ex.workflow, every).Execute(ex.sources).value();
  const ExecutionResult missing = [&] {
    ExecutionResult cleared = built;
    cleared.join_rejects.clear();
    cleared.join_rejects_right.clear();
    return cleared;
  }();
  EXPECT_TRUE(FailuresOf([&] {
                ExpectExecutionsIdentical(ex.workflow, every, built, built);
              }).empty());
  for (const ExecutionResult* serial : {&built, &missing}) {
    const std::vector<std::string> failures = FailuresOf([&] {
      ExpectExecutionsIdentical(ex.workflow, every, *serial, missing);
    });
    EXPECT_FALSE(failures.empty());
    bool names_rejects = false;
    for (const std::string& f : failures) {
      names_rejects |= f.find("rejects of join") != std::string::npos;
    }
    EXPECT_TRUE(names_rejects);
  }
}

// Fact(k, v) -> filter -> transform -> join Dim(k) with a designed reject
// link -> project -> sink.
struct RejectLinkChain {
  Workflow workflow;
  SourceMap sources;
  NodeId join = kInvalidNode;
};

RejectLinkChain MakeRejectLinkChain() {
  WorkflowBuilder b("chain");
  const AttrId k = b.DeclareAttr("k", 60);
  const AttrId v = b.DeclareAttr("v", 20);
  const NodeId src = b.Source("Fact", {k, v});
  const NodeId dim = b.Source("Dim", {k});
  const NodeId f = b.Filter(src, {v, CompareOp::kLt, 15});
  const NodeId t = b.Transform(f, v, [](Value x) { return x * 2 + 1; });
  const NodeId j = b.Join(t, dim, k, {/*reject_link=*/true});
  const NodeId p = b.Project(j, {k});
  b.Sink(p, "out");
  RejectLinkChain chain;
  chain.workflow = std::move(b).Build().value();
  chain.join = j;

  Rng rng(3);
  Table fact{Schema({k, v})};
  for (int i = 0; i < 1000; ++i) {
    fact.AddRow({rng.NextInRange(1, 60), rng.NextInRange(1, 20)});
  }
  Table dim_t{Schema({k})};
  for (int i = 0; i < 45; ++i) dim_t.AddRow({rng.NextInRange(1, 60)});
  chain.sources["Fact"] = std::move(fact);
  chain.sources["Dim"] = std::move(dim_t);
  return chain;
}

TEST(ParallelExecutorTest, FilterTransformChainBitIdentical) {
  const RejectLinkChain chain = MakeRejectLinkChain();
  const ExecutorOptions every =
      testing_util::RetainOutputsAndRejects(chain.workflow);
  const ExecutionResult serial =
      Executor(&chain.workflow, every).Execute(chain.sources).value();
  ParallelOptions opts;
  opts.num_threads = 4;
  opts.executor = every;
  const ParallelResult par =
      ParallelExecutor(&chain.workflow, opts).Execute(chain.sources).value();
  EXPECT_TRUE(par.used_parallel_path);
  ExpectExecutionsIdentical(chain.workflow, every, serial, par.exec);
}

// A production run (no reject sides named) builds the designed link's left
// rejects and nothing else, identical to those of a run that builds every
// side, at any worker count.
TEST(ParallelExecutorTest, ProductionRunBuildsOnlyDesignedRejectLink) {
  const RejectLinkChain chain = MakeRejectLinkChain();
  const ExecutionResult every =
      Executor(&chain.workflow,
               testing_util::RetainOutputsAndRejects(chain.workflow))
          .Execute(chain.sources)
          .value();
  const Table& link = every.join_rejects.at(chain.join);
  ASSERT_GT(link.num_rows(), 0);
  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ParallelOptions opts;
    opts.num_threads = threads;
    const ParallelResult par =
        ParallelExecutor(&chain.workflow, opts).Execute(chain.sources).value();
    EXPECT_EQ(par.used_parallel_path, threads > 1);
    ASSERT_EQ(par.exec.join_rejects.size(), 1u);
    ExpectTablesIdentical(link, par.exec.join_rejects.at(chain.join),
                          "designed reject link");
    EXPECT_TRUE(par.exec.join_rejects_right.empty());
    ExpectTablesIdentical(every.targets.at("out"), par.exec.targets.at("out"),
                          "target out");

    // Naming the link join's right side adds it; the designed left side
    // stays.
    opts.executor.reject_sides[chain.join] = RejectSides{false, true};
    const ParallelResult named =
        ParallelExecutor(&chain.workflow, opts).Execute(chain.sources).value();
    ExpectTablesIdentical(link, named.exec.join_rejects.at(chain.join),
                          "designed reject link, right side named");
    ExpectTablesIdentical(every.join_rejects_right.at(chain.join),
                          named.exec.join_rejects_right.at(chain.join),
                          "named right rejects");
  }
}

TEST(ParallelExecutorTest, AggregateGathersAndStaysBitIdentical) {
  WorkflowBuilder b("agg");
  const AttrId k = b.DeclareAttr("k", 30);
  const AttrId g = b.DeclareAttr("g", 8);
  const NodeId src = b.Source("Fact", {k, g});
  const NodeId dim = b.Source("Dim", {k});
  const NodeId j = b.Join(src, dim, k);
  const NodeId a = b.Aggregate(j, {g});
  b.Sink(a, "agg_out");
  Workflow wf = std::move(b).Build().value();

  Rng rng(11);
  SourceMap sources;
  Table fact{Schema({k, g})};
  for (int i = 0; i < 600; ++i) {
    fact.AddRow({rng.NextInRange(1, 30), rng.NextInRange(1, 8)});
  }
  Table dim_t{Schema({k})};
  for (int i = 0; i < 25; ++i) dim_t.AddRow({rng.NextInRange(1, 30)});
  sources["Fact"] = std::move(fact);
  sources["Dim"] = std::move(dim_t);

  const ExecutorOptions every = testing_util::RetainOutputsAndRejects(wf);
  const ExecutionResult serial =
      Executor(&wf, every).Execute(sources).value();
  ParallelOptions opts;
  opts.num_threads = 4;
  opts.executor = every;
  const ParallelResult par =
      ParallelExecutor(&wf, opts).Execute(sources).value();
  EXPECT_TRUE(par.used_parallel_path);
  ExpectExecutionsIdentical(wf, every, serial, par.exec);
}

TEST(ParallelExecutorTest, RepeatedRunsWithPinnedPartitionsAreIdentical) {
  auto ex = testing_util::MakePaperExample();
  ParallelOptions opts;
  opts.num_threads = 4;
  opts.executor = testing_util::RetainOutputsAndRejects(ex.workflow);
  opts.num_partitions = 8;
  ThreadPool pool(4);
  const ParallelExecutor exec(&ex.workflow, opts);
  const ParallelResult first = exec.Execute(ex.sources, &pool).value();
  const ParallelResult second = exec.Execute(ex.sources, &pool).value();
  ASSERT_TRUE(first.used_parallel_path);
  ASSERT_TRUE(second.used_parallel_path);
  EXPECT_EQ(first.exec.partitions_total, 8);
  EXPECT_EQ(first.partition_attr, second.partition_attr);
  EXPECT_EQ(first.exec.partition_rows, second.exec.partition_rows);
  ExpectExecutionsIdentical(ex.workflow, opts.executor, first.exec,
                            second.exec);
  // And both match the serial run.
  const ExecutionResult serial =
      Executor(&ex.workflow, opts.executor).Execute(ex.sources).value();
  ExpectExecutionsIdentical(ex.workflow, opts.executor, serial, first.exec);
}

// ---- randomized serial ≡ partitioned ------------------------------------

// A random operator chain over a fact source F(k, a, b): filters, in-place
// and derived transforms, joins on k against sources carrying k (they
// co-partition when k is the partition attribute) and joins on b against
// sources without k (broadcast build sides), sometimes a projection, an
// intermediate materialization or a closing aggregate. Keys are
// duplicate-heavy; a one-value key domain puts every row in one partition,
// and empty sources and highly selective filters leave partitions empty.
struct RandomCase {
  Workflow workflow;
  SourceMap sources;
  AttrId k = kInvalidAttr;
};

Table RandomTable(Rng* rng, const std::vector<AttrId>& attrs,
                  const std::vector<int64_t>& domains, int64_t rows) {
  Table t{Schema(attrs)};
  for (int64_t r = 0; r < rows; ++r) {
    std::vector<Value> row;
    for (int64_t d : domains) row.push_back(rng->NextInRange(1, d));
    t.AddRow(row);
  }
  return t;
}

RandomCase MakeRandomCase(uint64_t seed, bool allow_key_rewrite) {
  Rng rng(seed);
  auto pick = [&](std::vector<int64_t> choices) {
    return choices[rng.NextBounded(choices.size())];
  };
  const int64_t key_domain = pick({1, 2, 5, 30});
  const int64_t b_domain = pick({1, 4, 25});
  const int64_t fact_rows = pick({0, 1, 60, 400});
  auto dim_rows = [&] { return pick({0, 3, 20, 80}); };

  WorkflowBuilder b("random" + std::to_string(seed));
  const AttrId k = b.DeclareAttr("k", key_domain + 2);
  const AttrId a = b.DeclareAttr("a", 20);
  const AttrId bk = b.DeclareAttr("b", b_domain + 2);
  RandomCase rc;
  rc.k = k;
  NodeId cur = b.Source("F", {k, a, bk});
  rc.sources["F"] = RandomTable(&rng, {k, a, bk},
                                {key_domain, 20, b_domain}, fact_rows);
  std::vector<AttrId> extra;  // derived or joined attributes in `cur`
  const int steps = static_cast<int>(rng.NextInRange(2, 7));
  for (int step = 0; step < steps; ++step) {
    const std::string tag = std::to_string(step);
    switch (rng.NextBounded(allow_key_rewrite ? 7 : 6)) {
      case 0: {
        const CompareOp op = rng.NextBounded(2) == 0 ? CompareOp::kLt
                                                     : CompareOp::kGe;
        cur = b.Filter(cur, {a, op, rng.NextInRange(1, 21)});
        break;
      }
      case 1:
        cur = b.Transform(cur, a, [](Value x) { return (x * 7 + 3) % 20 + 1; });
        break;
      case 2: {
        const AttrId d = b.DeclareAttr("d" + tag, 40);
        cur = b.DeriveAttr(cur, a, d, [](Value x) { return x % 3 + 1; });
        extra.push_back(d);
        break;
      }
      case 3: {
        const AttrId c = b.DeclareAttr("c" + tag, 9);
        const std::string name = "C" + tag;
        const NodeId dim = b.Source(name, {k, c});
        rc.sources[name] = RandomTable(&rng, {k, c}, {key_domain + 2, 9},
                                       dim_rows());
        cur = b.Join(cur, dim, k, {/*reject_link=*/true});
        extra.push_back(c);
        break;
      }
      case 4: {
        const AttrId e = b.DeclareAttr("e" + tag, 9);
        const std::string name = "B" + tag;
        NodeId dim = b.Source(name, {bk, e});
        if (rng.NextBounded(2) == 0) {
          dim = b.Filter(dim, {e, CompareOp::kLt, 7});
        }
        rc.sources[name] = RandomTable(&rng, {bk, e}, {b_domain + 2, 9},
                                       dim_rows());
        cur = b.Join(cur, dim, bk);
        extra.push_back(e);
        break;
      }
      case 5:
        if (rng.NextBounded(2) == 0 && !extra.empty()) {
          // Drop the newest extra attribute.
          std::vector<AttrId> keep{k, a, bk};
          keep.insert(keep.end(), extra.begin(), extra.end() - 1);
          extra.pop_back();
          cur = b.Project(cur, keep);
        } else {
          cur = b.Materialize(cur, "mat" + tag);
        }
        break;
      case 6:
        // Rewrites the key in place: later joins on k lose co-placement.
        cur = b.Transform(cur, k, [](Value x) { return x % 2 + 1; });
        break;
    }
  }
  if (rng.NextBounded(4) == 0) cur = b.Aggregate(cur, {k});
  b.Sink(cur, "out");
  rc.workflow = std::move(b).Build().value();
  return rc;
}

// Both retention settings, each as a production run (only the designed
// reject links' left rejects) and as a run that builds every reject side,
// at 1-16 partitions and 2 and 4 workers.
TEST(ParallelRandomTest, RandomChainsMatchSerial) {
  int partitioned_runs = 0;
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    const RandomCase rc = MakeRandomCase(seed, /*allow_key_rewrite=*/true);
    for (bool every_side : {false, true}) {
      for (bool retain : {false, true}) {
        ExecutorOptions exec_options;
        exec_options.retain_node_outputs = retain;
        if (every_side) {
          exec_options.reject_sides =
              testing_util::EveryRejectSide(rc.workflow);
        }
        const ExecutionResult serial =
            Executor(&rc.workflow, exec_options).Execute(rc.sources).value();
        for (int partitions : {1, 2, 3, 7, 16}) {
          for (int threads : {2, 4}) {
            SCOPED_TRACE("seed=" + std::to_string(seed) +
                         " every_side=" + std::to_string(every_side) +
                         " retain=" + std::to_string(retain) +
                         " partitions=" + std::to_string(partitions) +
                         " threads=" + std::to_string(threads));
            ParallelOptions opts;
            opts.num_threads = threads;
            opts.num_partitions = partitions;
            opts.executor = exec_options;
            const ParallelResult par = ParallelExecutor(&rc.workflow, opts)
                                           .Execute(rc.sources)
                                           .value();
            partitioned_runs += par.used_parallel_path ? 1 : 0;
            ExpectExecutionsIdentical(rc.workflow, exec_options, serial,
                                      par.exec);
          }
        }
      }
    }
  }
  EXPECT_GT(partitioned_runs, 0);
}

// The rows of `serial` whose partition attribute `k` hashes to a partition
// other than `crashed`, in serial order: what the completed partitions
// salvage of a node the crashed partition did not finish.
Table WithoutPartition(const Table& serial, AttrId k, int crashed,
                       int partitions) {
  const int col = serial.schema().IndexOf(k);
  SelVector keep;
  for (int64_t r = 0; r < serial.num_rows(); ++r) {
    if (HashPartitionIndex(serial.at(r, col), partitions) != crashed) {
      keep.push_back(r);
    }
  }
  return Table::Gather(serial, keep);
}

// ---- observed statistics through the pipeline --------------------------

std::vector<std::string> BlockStatsText(const RunOutcome& run) {
  std::vector<std::string> text;
  for (const StatStore& store : run.block_stats) {
    text.push_back(WriteStatStoreText(store));
  }
  return text;
}

TEST(ParallelPipelineTest, ObservedStatisticsBitIdenticalToSerial) {
  auto ex = testing_util::MakePaperExample();

  Pipeline serial;
  const CycleOutcome sc = serial.RunCycle(ex.workflow, ex.sources).value();

  PipelineOptions popts;
  popts.num_threads = 4;
  Pipeline par(popts);
  const CycleOutcome pc = par.RunCycle(ex.workflow, ex.sources).value();

  EXPECT_EQ(pc.run.exec.num_workers, 4);
  EXPECT_GT(pc.run.exec.partitions_total, 0);
  // Exact taps: every observed statistic identical, down to the text codec.
  EXPECT_EQ(BlockStatsText(sc.run), BlockStatsText(pc.run));
  // Downstream consequences identical too: same estimates, same plan.
  EXPECT_EQ(sc.opt.optimized.ToString(), pc.opt.optimized.ToString());
  ASSERT_EQ(sc.opt.block_cards.size(), pc.opt.block_cards.size());
  for (size_t i = 0; i < sc.opt.block_cards.size(); ++i) {
    EXPECT_EQ(sc.opt.block_cards[i], pc.opt.block_cards[i]) << "block " << i;
  }
  for (const auto& [name, table] : sc.run.exec.targets) {
    ExpectTablesIdentical(table, pc.run.exec.targets.at(name),
                          "target " + name);
  }
}

TEST(ParallelPipelineTest, SketchTapsMergeToSingleStreamStatistics) {
  // A tiny tap budget forces distinct/hist taps onto sketches. Taps read
  // the gathered tables, so a partitioned run feeds each sketch the same
  // rows in the same order as a serial run, and both serialize the same
  // approximate statistics.
  auto ex = testing_util::MakePaperExample(/*seed=*/7, /*orders=*/2000);
  PipelineOptions base;
  base.tap_memory_budget_bytes = 4096;

  Pipeline serial(base);
  const CycleOutcome sc = serial.RunCycle(ex.workflow, ex.sources).value();

  PipelineOptions popts = base;
  popts.num_threads = 4;
  Pipeline par(popts);
  const CycleOutcome pc = par.RunCycle(ex.workflow, ex.sources).value();

  EXPECT_GT(sc.run.tap_report.sketch_taps, 0);
  EXPECT_EQ(sc.run.tap_report.sketch_taps, pc.run.tap_report.sketch_taps);
  EXPECT_EQ(BlockStatsText(sc.run), BlockStatsText(pc.run));
}

// The instrumented run builds exactly the reject tables its selected
// reject-join taps read, and they observe the statistics of a run that
// builds every side. wf3 and wf7 read left sides; wf18's
// Hrej({R1} wrt R0 >< {R2}) reads the right side of R0 ⋈ R1. wf3's reject
// table is empty; wf7's and wf18's are not.
TEST(ParallelPipelineTest, InstrumentedRunBuildsOnlyDemandedRejectTables) {
  int64_t reject_rows = 0;
  for (int index : {3, 7, 18}) {
    const WorkloadSpec spec = BuildWorkload(index);
    const SourceMap sources = GenerateSources(spec, /*seed=*/7, 0.002);
    for (int threads : {1, 4}) {
      SCOPED_TRACE("wf" + std::to_string(index) +
                   " threads=" + std::to_string(threads));
      PipelineOptions popts;
      popts.num_threads = threads;
      const Result<CycleOutcome> run =
          Pipeline(popts).RunCycle(spec.workflow, sources);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      const CycleOutcome& cycle = *run;
      const Analysis& analysis = *cycle.analysis;

      // (join, reads the right side) per selected reject-join key.
      std::set<std::pair<NodeId, bool>> demanded;
      std::vector<std::vector<StatKey>> block_keys;
      for (const auto& ba : analysis.blocks) {
        block_keys.push_back(ba->selection.ObservedKeys(ba->catalog));
        for (const StatKey& key : block_keys.back()) {
          if (!key.is_reject()) continue;
          const NodeId join = ba->ctx.on_path().at(
              key.reject_left | (RelMask{1} << key.reject_k));
          for (const BlockJoin& j : ba->block.joins) {
            if (j.node == join) {
              demanded.insert({join, j.right == key.reject_left});
            }
          }
        }
      }
      // Designed reject links are built on every run.
      for (const WorkflowNode& node : analysis.workflow->nodes()) {
        if (node.kind == OpKind::kJoin && node.join.left_reject_link) {
          demanded.insert({node.id, false});
        }
      }
      std::set<std::pair<NodeId, bool>> built;
      for (const auto& [id, table] : cycle.run.exec.join_rejects) {
        built.insert({id, false});
      }
      for (const auto& [id, table] : cycle.run.exec.join_rejects_right) {
        built.insert({id, true});
      }
      EXPECT_FALSE(demanded.empty());
      EXPECT_EQ(built, demanded);
      for (const auto& [id, table] : cycle.run.exec.join_rejects) {
        reject_rows += table.num_rows();
      }
      for (const auto& [id, table] : cycle.run.exec.join_rejects_right) {
        reject_rows += table.num_rows();
      }
      if (index == 18) {
        EXPECT_FALSE(cycle.run.exec.join_rejects_right.empty());
      }

      ParallelOptions every;
      every.num_threads = threads;
      every.executor = testing_util::RetainOutputsAndRejects(*analysis.workflow);
      const ParallelResult full =
          ParallelExecutor(analysis.workflow.get(), every)
              .Execute(sources)
              .value();
      ASSERT_EQ(block_keys.size(), cycle.run.block_stats.size());
      for (size_t b = 0; b < block_keys.size(); ++b) {
        const StatStore observed =
            ObserveStatistics(analysis.blocks[b]->ctx, full.exec,
                              block_keys[b])
                .value();
        EXPECT_EQ(WriteStatStoreText(observed),
                  WriteStatStoreText(cycle.run.block_stats[b]))
            << "block " << b;
      }
    }
  }
  EXPECT_GT(reject_rows, 0);
}

// ---- reject-join taps ---------------------------------------------------

// A histogram's buckets in insertion order.
std::vector<std::pair<std::vector<Value>, int64_t>> BucketSequence(
    const Histogram& h) {
  std::vector<std::pair<std::vector<Value>, int64_t>> seq;
  for (const Histogram::Bucket b : h.buckets()) {
    seq.emplace_back(std::vector<Value>(b.key.begin(), b.key.end()), b.count);
  }
  return seq;
}

// Reject-join taps stream the side join in every mode. Their exact values,
// bucket order and tap bytes equal a materialized HashJoin +
// BuildHistogram oracle over the same run: serial and partitioned, without
// a tap budget and under one the taps fit.
TEST(ParallelTapTest, RejectJoinTapsMatchMaterializedOracle) {
  auto ex = testing_util::MakePaperExample();
  const std::vector<Block> blocks = PartitionBlocks(ex.workflow);
  const BlockContext ctx =
      BlockContext::Build(&ex.workflow, blocks[0]).value();
  const AttrMask pid = AttrMask{1} << ex.prod_id;
  const AttrMask pid_cid = pid | (AttrMask{1} << ex.cust_id);
  // reject(Orders wrt Product) ⋈ Customer.
  const StatKey card = StatKey::RejectJoinCard(0b001, 1, 0b100);
  const std::vector<StatKey> hists = {
      StatKey::RejectJoinHist(0b001, 1, 0b100, pid),
      StatKey::RejectJoinHist(0b001, 1, 0b100, pid_cid)};
  std::vector<StatKey> keys = hists;
  keys.push_back(card);

  for (int threads : {1, 4}) {
    ParallelOptions opts;
    opts.num_threads = threads;
    opts.executor = testing_util::RetainOutputsAndRejects(ex.workflow);
    const ParallelResult par =
        ParallelExecutor(&ex.workflow, opts).Execute(ex.sources).value();
    EXPECT_EQ(par.used_parallel_path, threads > 1);
    const ExecutionResult& exec = par.exec;
    const Table& rejects = exec.join_rejects.at(ctx.on_path().at(0b011));
    ASSERT_GT(rejects.num_rows(), 0);
    const Table joined =
        HashJoin(rejects, exec.node_outputs.at(ctx.on_path().at(0b100)),
                 ex.cust_id, nullptr);
    ASSERT_GT(joined.num_rows(), 0);
    int64_t oracle_bytes = 8;
    for (const StatKey& key : hists) {
      oracle_bytes += sketch::EstimateExactHistBytes(joined.num_rows(),
                                                     PopCount(key.attrs));
    }

    for (int64_t budget : {int64_t{0}, int64_t{1} << 20}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " budget=" + std::to_string(budget));
      TapOptions taps;
      taps.memory_budget_bytes = budget;
      TapReport report;
      const StatStore observed =
          ObserveStatistics(ctx, exec, keys, taps, &report).value();
      EXPECT_LE(report.exact_bytes_estimate, int64_t{1} << 20);
      EXPECT_EQ(report.exact_taps, 3);
      EXPECT_EQ(report.sketch_taps, 0);
      EXPECT_EQ(report.tap_bytes, oracle_bytes);
      EXPECT_EQ(observed.GetCount(card).value(), joined.num_rows());
      for (const StatKey& key : hists) {
        const StatValue* value = observed.Find(key);
        ASSERT_NE(value, nullptr) << key.ToString();
        ASSERT_FALSE(value->is_approx());
        EXPECT_EQ(BucketSequence(value->hist()),
                  BucketSequence(joined.BuildHistogram(key.attrs)))
            << key.ToString();
      }
    }
  }
}

// ---- partition-scoped faults -------------------------------------------

class ParallelFaultTest : public ::testing::Test {
 protected:
  void SetUp() override { ASSERT_TRUE(FaultInjector::InstallGlobal("").ok()); }
  void TearDown() override {
    ASSERT_TRUE(FaultInjector::InstallGlobal("").ok());
  }
};

TEST_F(ParallelFaultTest, PartitionCrashSalvagesCompletedPartitions) {
  auto ex = testing_util::MakePaperExample();
  ASSERT_TRUE(FaultInjector::InstallGlobal("seed=17;partition:1:crash").ok());

  PipelineOptions popts;
  popts.num_threads = 4;
  popts.checkpoint_path = TempPath("parallel_crash.ckpt");
  popts.checkpoint_every_rows = 10;
  Pipeline pipeline(popts);
  const CycleOutcome cycle =
      pipeline.RunCycle(ex.workflow, ex.sources).value();
  ASSERT_TRUE(cycle.aborted());
  EXPECT_EQ(cycle.run.exec.abort_kind, AbortKind::kCrash);

  // Partition granularity: the other partitions were gathered into partial
  // node outputs, so completion sits strictly between "node lost" and
  // "node done".
  const ExecutionResult& exec = cycle.run.exec;
  EXPECT_EQ(exec.partitions_total, 4);
  EXPECT_EQ(exec.partitions_completed, 3);
  EXPECT_GT(exec.nodes_partial, 0);

  // The ledger record is partial, carries the thread count, and both
  // round-trip through the line codec.
  const obs::RunRecord record = MakeRunRecord(cycle, "run-1");
  EXPECT_TRUE(record.partial);
  EXPECT_LT(record.completion, 1.0);
  EXPECT_GT(record.completion, 0.0);
  EXPECT_EQ(record.num_threads, 4);
  const auto round = obs::RunRecord::FromJsonLine(record.ToJsonLine());
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  EXPECT_TRUE(round->partial);
  EXPECT_EQ(round->num_threads, 4);

  // The checkpoint sidecar keeps the per-partition salvage watermarks.
  const Result<obs::TapCheckpoint> ckpt =
      obs::LoadTapCheckpoint(popts.checkpoint_path);
  ASSERT_TRUE(ckpt.ok()) << ckpt.status().ToString();
  EXPECT_TRUE(ckpt->partial);
  ASSERT_EQ(ckpt->partition_rows.size(), 4u);
  int64_t watermark_rows = 0;
  for (int64_t rows : ckpt->partition_rows) watermark_rows += rows;
  EXPECT_GT(watermark_rows, 0);
}

TEST_F(ParallelFaultTest, PartitionCrashIsDeterministic) {
  auto run_once = [] {
    EXPECT_TRUE(
        FaultInjector::InstallGlobal("seed=17;partition:2:crash").ok());
    auto ex = testing_util::MakePaperExample();
    PipelineOptions popts;
    popts.num_threads = 4;
    const CycleOutcome cycle =
        Pipeline(popts).RunCycle(ex.workflow, ex.sources).value();
    const obs::RunRecord record = MakeRunRecord(cycle, "run-1");
    return std::make_tuple(record.partial, record.completion,
                           record.abort_reason, record.cards.size());
  };
  const auto first = run_once();
  const auto second = run_once();
  EXPECT_TRUE(std::get<0>(first));
  EXPECT_EQ(first, second);
}

TEST_F(ParallelFaultTest, SerialRunIgnoresPartitionScopedFaults) {
  auto ex = testing_util::MakePaperExample();
  ASSERT_TRUE(FaultInjector::InstallGlobal("seed=17;partition:1:crash").ok());
  Pipeline pipeline;  // num_threads = 1: no partitions exist to crash
  const CycleOutcome cycle =
      pipeline.RunCycle(ex.workflow, ex.sources).value();
  EXPECT_FALSE(cycle.aborted());
}

TEST_F(ParallelFaultTest, RandomPartitionCrashSalvagesRankOrderSubset) {
  Rng pick(99);
  int crashed_runs = 0;
  for (uint64_t seed = 101; seed <= 112; ++seed) {
    const RandomCase rc = MakeRandomCase(seed, /*allow_key_rewrite=*/false);
    const ExecutorOptions every =
        testing_util::RetainOutputsAndRejects(rc.workflow);
    const ExecutionResult serial =
        Executor(&rc.workflow, every).Execute(rc.sources).value();
    const int partitions = static_cast<int>(pick.NextInRange(2, 7));
    const int crashed = static_cast<int>(pick.NextBounded(partitions));
    const int64_t after_rows = pick.NextInRange(1, 200);
    SCOPED_TRACE("seed=" + std::to_string(seed) + " partition " +
                 std::to_string(crashed) + "/" + std::to_string(partitions) +
                 " after " + std::to_string(after_rows) + " rows");
    ASSERT_TRUE(FaultInjector::InstallGlobal(
                    "seed=3;partition:" + std::to_string(crashed) +
                    ":crash_after_rows=" + std::to_string(after_rows))
                    .ok());
    ParallelOptions opts;
    opts.num_threads = 3;
    opts.num_partitions = partitions;
    opts.executor = every;
    const ParallelResult par =
        ParallelExecutor(&rc.workflow, opts).Execute(rc.sources).value();
    ASSERT_TRUE(FaultInjector::InstallGlobal("").ok());
    if (!par.exec.aborted()) {
      ExpectExecutionsIdentical(rc.workflow, every, serial, par.exec);
      continue;
    }
    ++crashed_runs;
    ASSERT_EQ(par.partition_attr, rc.k);
    EXPECT_EQ(par.exec.partitions_completed, partitions - 1);
    // Partitioned nodes are those fed by a source carrying k: the rest are
    // broadcast chains (k is never rewritten here, and the serial post
    // phase does not run after an abort).
    std::vector<char> from_k(rc.workflow.nodes().size(), 0);
    for (const WorkflowNode& node : rc.workflow.nodes()) {
      char& flag = from_k[static_cast<size_t>(node.id)];
      if (node.kind == OpKind::kSource) {
        flag = rc.workflow.output_schema(node.id).Contains(rc.k) ? 1 : 0;
      }
      for (NodeId in : node.inputs) flag |= from_k[static_cast<size_t>(in)];
    }
    for (const auto& [id, table] : par.exec.node_outputs) {
      // Sources and broadcast chains ran whole before the partition phase;
      // partitioned nodes from the abort point on hold the survivors.
      const bool partial = id >= par.exec.abort_node &&
                           rc.workflow.node(id).kind != OpKind::kSource &&
                           from_k[static_cast<size_t>(id)] != 0;
      const Table& whole = serial.node_outputs.at(id);
      ExpectTablesIdentical(
          partial ? WithoutPartition(whole, rc.k, crashed, partitions)
                  : whole,
          table, "salvaged node " + std::to_string(id));
    }
  }
  EXPECT_GT(crashed_runs, 0);
}

// ---- ledger codec ------------------------------------------------------

TEST(ParallelLedgerTest, NumThreadsSerializesOnlyWhenNotOne) {
  obs::RunRecord serial_record;
  serial_record.run_id = "run-1";
  serial_record.fingerprint = "feedfacefeedface";
  EXPECT_EQ(serial_record.ToJsonLine().find("num_threads"),
            std::string::npos);

  obs::RunRecord par_record = serial_record;
  par_record.num_threads = 4;
  const std::string line = par_record.ToJsonLine();
  EXPECT_NE(line.find("\"num_threads\":4"), std::string::npos) << line;
  const auto round = obs::RunRecord::FromJsonLine(line);
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round->num_threads, 4);
}


// ---- concurrent analysis on one Pipeline ----

// What an analysis selected, per block, read from the shared catalogs:
// the observed statistics and the selection's cost.
std::vector<std::pair<std::vector<StatKey>, double>> SelectedKeys(
    const Analysis& analysis) {
  std::vector<std::pair<std::vector<StatKey>, double>> keys;
  for (const auto& ba : analysis.blocks) {
    keys.emplace_back(ba->selection.ObservedKeys(ba->catalog),
                      ba->selection.total_cost);
  }
  return keys;
}

// Two threads analyze through one const Pipeline, first both building the
// analysis, then both reusing it; then the same for another workflow. Each
// result equals a fresh Pipeline's.
TEST(ParallelAnalysisTest, ConcurrentAnalyzeMatchesFreshPipeline) {
  const Pipeline pipeline;
  for (int index : {3, 13}) {
    SCOPED_TRACE("wf" + std::to_string(index));
    const WorkloadSpec spec = BuildWorkload(index);
    const auto want = SelectedKeys(*Pipeline().Analyze(spec.workflow).value());
    for (int round = 0; round < 2; ++round) {
      Result<std::unique_ptr<Analysis>> got[2] = {Status::Internal("unset"),
                                                  Status::Internal("unset")};
      std::vector<std::pair<std::vector<StatKey>, double>> keys[2];
      std::thread threads[2];
      for (int t = 0; t < 2; ++t) {
        threads[t] = std::thread([&, t] {
          got[t] = pipeline.Analyze(spec.workflow);
          if (got[t].ok()) keys[t] = SelectedKeys(**got[t]);
        });
      }
      for (std::thread& thread : threads) thread.join();
      for (int t = 0; t < 2; ++t) {
        ASSERT_TRUE(got[t].ok()) << got[t].status().ToString();
        EXPECT_EQ(keys[t], want) << "round " << round << ", thread " << t;
        if (round == 1) {
          EXPECT_TRUE((*got[t])->analysis_reused);
          EXPECT_TRUE((*got[t])->selection_reused);
        }
      }
    }
  }
}

}  // namespace
}  // namespace etlopt
