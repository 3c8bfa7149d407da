// Golden digests for the engine over the 30-workload suite. Each workload's
// full cycle (seed 7, scale 0.01) pins five 16-hex FNV-1a digests:
//   stats   — the stat_io text of every block's observed statistics;
//   targets — every target table's rows, in target-name order;
//   plan    — the re-optimized workflow, opt.optimized.ToString();
//   cards   — opt.block_cards, each block's map in SE order;
//   ledger  — the MakeRunRecord per-SE cards (block, se, estimated).
// Every workload runs serially; the anchor workloads also run partitioned
// on 4 threads and must reproduce the *same* digest row, so serial ≡
// partitioned is asserted directly. The stats digests cover both
// reject-join taps: wf3 and wf7 observe a rejcard, wf18 an exact rejhist.
// A pinned fault spec pins the salvaged prefix of a crashed run the same
// way.
//
// The digests were recorded from the columnar engine and the former
// row-at-a-time engine, which agreed on every row. A change that alters
// outputs, statistics, plans or ledger cards fails here; the failure shows
// the actual row in table syntax (see docs/engine.md for regenerating after
// an intended change).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "datagen/workload_suite.h"
#include "obs/ledger.h"
#include "stats/stat_io.h"
#include "test_util.h"
#include "util/fault.h"

namespace etlopt {
namespace {

struct CycleDigests {
  const char* stats;
  const char* targets;
  const char* plan;
  const char* cards;
  const char* ledger;
};

// Digests per workload (index - 1).
constexpr CycleDigests kWorkloads[30] = {
    {"2922653feb576253", "7e562bf386c9182c",  // wf1
     "5bb3f5e487e19e8b", "0239de67f546b352", "67f354b6a9130d16"},
    {"afb04c3719b2aefe", "745fe956b264433c",  // wf2
     "7ebf66d7fbcbe06f", "c01e5f70ed72acef", "e14a4dbf7aa0c253"},
    {"09a0d8bf744775c4", "710b7536ad213458",  // wf3
     "7e259c9190f1a1cd", "90fcf42858f6d421", "a8c90cb2ef59cc6a"},
    {"f446d4a13079910d", "69abd8c03763dff5",  // wf4
     "3716ef05b665cfaf", "de707ef8277cf73f", "738f881ae1713617"},
    {"782e508a6a6f2c68", "b57f02dc18de91ef",  // wf5
     "ceb810cdeba007a5", "56429f27588e7bbb", "8cd9de8105988515"},
    {"b983ec145ea6de96", "9e4b654a85b35a90",  // wf6
     "1a44c77faf98063e", "b8711d35518f4467", "74880957dcce7626"},
    {"e451191e6dd33bf8", "e627bd5a71a55395",  // wf7
     "e506efcd4de5281a", "49b26b3e90036ba7", "6f878f8b97786734"},
    {"d4969d39ad5ae688", "bc90060bfde79ef6",  // wf8
     "272fa3d40896ce41", "4de289d868d81a73", "bb4baec9a965dffb"},
    {"b6fa31fda727749f", "389aae9b3802a9bc",  // wf9
     "aaeeda6367db7ad0", "3e8ca89e9d31d464", "1867aebe98af5370"},
    {"a821c3f2de4650a2", "da5e91bdbea1a6d8",  // wf10
     "325b38573c527a30", "600e5057c055fe0c", "63324f2d8941eeb6"},
    {"1abbfc0aa9ab1ba8", "fde102ef3edecdde",  // wf11
     "f4bc6505d1c839a8", "ce7e3a48beadaecc", "3a0f862b493fd8da"},
    {"7fc88c197dc96d0c", "e41bd895e0ac2006",  // wf12
     "2021426f7c7f24c4", "8b5b2ebbfb94af4e", "b3225a89fecc3052"},
    {"0319929827193f2b", "007748fc4f662350",  // wf13
     "fdbec7a6fc69df18", "50902f4551c5c3d8", "09e14e4d08f6478c"},
    {"07d150b06847bc3c", "adb65aca6407743b",  // wf14
     "796caec45fe38a0d", "affeadb1ca418cfc", "4c46006cd0ec93c9"},
    {"35540edf874d667b", "1c44f7a247a54eb5",  // wf15
     "a1bace02754f1eb4", "ae8c505828fd1d14", "7bad6a665c8f95c2"},
    {"6e23f06561031bbb", "f21c52690649e4da",  // wf16
     "46815e810811fe77", "14a1d0caad466bb6", "bbb3f83e4eaf034c"},
    {"eefd0c9543047d41", "dc7dc0100d1494a7",  // wf17
     "5dae6c91e6b51f42", "28697bec06515fe3", "42f1b556b6bd2c33"},
    {"a5185df30fe6c605", "25ad98d4e0d33abc",  // wf18
     "d0b4af37ac7ced25", "279aecf2aea91554", "41d46bcad53426c2"},
    {"9b70e23a040c974a", "cb6433d61e994465",  // wf19
     "378afb045395d693", "54d9dcf8448a5888", "96966b7b5ef30031"},
    {"89c082a48db609f4", "492e292e25cfbf83",  // wf20
     "5844af719ebccbed", "ee4a18dd03f1262e", "1f24268f244ebd3b"},
    {"00d63ca8f7ada0a2", "0932d47dd3e09fd7",  // wf21
     "38fee559d8e54ac1", "04f26265bd45001f", "38bb89becf696339"},
    {"56b0f0a06fa1f5a2", "2121a192b914465d",  // wf22
     "777b327a62747225", "35f002ef6eb3f8f7", "d790872de8680148"},
    {"5fa3c0b419bfb3b5", "1976afc45eea8ada",  // wf23
     "8b28ad4e73e9ad3d", "0ef42640ee930a88", "4d62d740523c5aa9"},
    {"c7e12ccc44e69184", "9647c76657666d97",  // wf24
     "9546b6267e695351", "70185dd698be32f5", "dcf50793d736d9c8"},
    {"1532682b2dc9bd89", "2f945e47c69011f4",  // wf25
     "9d23a8a5bae5599b", "0f933aee6f394602", "5d0a59d5570e3c78"},
    {"fe3971f3f2d2fa44", "70480b2771b991d9",  // wf26
     "f732f9f504f1a9cd", "c861e4adeb9cd2b3", "ad384ef87eba803f"},
    {"f6835b9d4197403a", "bad0edc7b5863efd",  // wf27
     "6f5a59cdfc6ca555", "74652453f017410c", "a0cf94c71d11936b"},
    {"2f089c477fcee6f7", "71340521896f6b5b",  // wf28
     "2987224f283938ca", "91030c58a1224b09", "d8654b59810943c1"},
    {"701fd0e7d14b3557", "21ac5702b2eab172",  // wf29
     "01950f485dfe0008", "db96b15041867086", "590e90fbf8d70202"},
    {"30c1bab0aec56f4f", "0436500d948fbf49",  // wf30
     "06d7cf952970aeb2", "2e6b8df19954e641", "562a5d1b7c7c0a33"},
};

// Star, snowflake and chain shapes, reject links, aggregate UDFs,
// materialized intermediates and the widest joins (wf21: 8-way, wf30:
// 6-way): the slice kernels, the join ranking and the rank-scatter merge
// all run on these.
constexpr int kPartitionedAnchors[] = {3, 10, 11, 16, 17, 21, 23, 28, 30};

constexpr uint64_t kSeed = 7;
constexpr double kScale = 0.01;

std::string BlockStatsText(const RunOutcome& run) {
  std::string text;
  for (size_t b = 0; b < run.block_stats.size(); ++b) {
    text += "block " + std::to_string(b) + ":\n" +
            WriteStatStoreText(run.block_stats[b]);
  }
  return text;
}

struct Digests {
  std::string stats, targets, plan, cards, ledger;
};

Digests DigestCycle(const CycleOutcome& cycle) {
  Digests d;
  d.stats = obs::FingerprintText(BlockStatsText(cycle.run));
  d.targets = testing_util::TablesDigest(cycle.run.exec.targets);
  d.plan = obs::FingerprintText(cycle.opt.optimized.ToString());

  std::string cards;
  for (size_t b = 0; b < cycle.opt.block_cards.size(); ++b) {
    std::vector<std::pair<RelMask, int64_t>> sorted(
        cycle.opt.block_cards[b].begin(), cycle.opt.block_cards[b].end());
    std::sort(sorted.begin(), sorted.end());
    cards += "block " + std::to_string(b) + ":\n";
    for (const auto& [se, rows] : sorted) {
      cards += std::to_string(se) + "=" + std::to_string(rows) + "\n";
    }
  }
  d.cards = obs::FingerprintText(cards);

  std::string ledger;
  char buf[96];
  for (const obs::RunRecord::SeCard& card :
       MakeRunRecord(cycle, "golden").cards) {
    std::snprintf(buf, sizeof(buf), "%d %llu %.17g\n", card.block,
                  static_cast<unsigned long long>(card.se), card.estimated);
    ledger += buf;
  }
  d.ledger = obs::FingerprintText(ledger);
  return d;
}

// A digest row in the syntax of kWorkloads.
std::string Row(const Digests& d, const std::string& label) {
  return "{\"" + d.stats + "\", \"" + d.targets + "\",  // " + label +
         "\n \"" + d.plan + "\", \"" + d.cards + "\", \"" + d.ledger + "\"},";
}

// Runs one workload's cycle and checks it against its digest row. The
// cycle and its sources live only inside this call, so a sweep holds one
// cycle at a time.
void ExpectWorkloadDigests(int index, int threads) {
  const WorkloadSpec spec = BuildWorkload(index);
  const SourceMap sources = GenerateSources(spec, kSeed, kScale);
  PipelineOptions opts;
  opts.num_threads = threads;
  const Pipeline pipeline(opts);
  Result<CycleOutcome> cycle = pipeline.RunCycle(spec.workflow, sources);
  ASSERT_TRUE(cycle.ok()) << spec.name << ": " << cycle.status().ToString();

  const std::string label = "wf" + std::to_string(index);
  const CycleDigests& want = kWorkloads[index - 1];
  EXPECT_EQ(Row(DigestCycle(*cycle), label),
            Row({want.stats, want.targets, want.plan, want.cards,
                 want.ledger},
                label))
      << "threads=" << threads;
}

TEST(EngineGolden, WorkloadSuiteSerialMatchesDigests) {
  for (int i = 1; i <= 30; ++i) ExpectWorkloadDigests(i, 1);
}

TEST(EngineGolden, WorkloadSuitePartitionedMatchesDigests) {
  for (int i : kPartitionedAnchors) ExpectWorkloadDigests(i, 4);
}

// The salvaged prefix of the pinned crash spec on the paper's running
// example: abort bookkeeping, the run's accounting, the partial statistics,
// and every retained node output. The crashed join counts the rows it
// read but not their bytes, and no completed operator read any: the
// three sources have no inputs.
struct CrashDigests {
  bool aborted;
  int nodes_completed;
  int salvage_skipped;
  int64_t rows_processed;
  int64_t bytes_processed;
  const char* stats;
  const char* node_outputs;
};

constexpr CrashDigests kPinnedCrash = {true, 3, 2, 440, 0, "144cb0901e136029",
                                       "2dd5cd95d850993a"};

class EngineGoldenFault : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(fault::FaultInjector::InstallGlobal("").ok());
  }
  void TearDown() override {
    ASSERT_TRUE(fault::FaultInjector::InstallGlobal("").ok());
  }
};

TEST_F(EngineGoldenFault, PinnedCrashSpecMatchesDigests) {
  const testing_util::PaperExample ex = testing_util::MakePaperExample();
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ASSERT_TRUE(
        fault::FaultInjector::InstallGlobal("seed=17;op:join:crash").ok());
    PipelineOptions opts;
    opts.num_threads = threads;
    const Pipeline pipeline(opts);
    Result<CycleOutcome> cycle = pipeline.RunCycle(ex.workflow, ex.sources);
    ASSERT_TRUE(fault::FaultInjector::InstallGlobal("").ok());
    ASSERT_TRUE(cycle.ok()) << cycle.status().ToString();

    const RunOutcome& run = cycle->run;
    const std::string stats = obs::FingerprintText(BlockStatsText(run));
    const std::string node_outputs =
        testing_util::TablesDigest(run.exec.node_outputs);

    EXPECT_EQ(cycle->aborted(), kPinnedCrash.aborted);
    EXPECT_EQ(run.exec.nodes_completed, kPinnedCrash.nodes_completed);
    EXPECT_EQ(run.tap_report.salvage_skipped, kPinnedCrash.salvage_skipped);
    EXPECT_EQ(run.exec.rows_processed, kPinnedCrash.rows_processed);
    EXPECT_EQ(run.exec.bytes_processed, kPinnedCrash.bytes_processed);
    EXPECT_EQ(stats, kPinnedCrash.stats);
    EXPECT_EQ(node_outputs, kPinnedCrash.node_outputs);
    if (HasFailure()) {
      ADD_FAILURE() << "new row: {" << (cycle->aborted() ? "true" : "false")
                    << ", " << run.exec.nodes_completed << ", "
                    << run.tap_report.salvage_skipped << ", "
                    << run.exec.rows_processed << ", "
                    << run.exec.bytes_processed << ", \"" << stats
                    << "\", \"" << node_outputs << "\"}";
    }
  }
}

}  // namespace
}  // namespace etlopt
