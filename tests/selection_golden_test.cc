// Golden digests for statistics selection over the 30-workload suite. Every
// block of every workload pins these outputs, each as a 16-hex FNV-1a digest
// of its canonical text:
//   greedy  — SelectGreedy: method, feasibility, total cost, selected keys;
//   budget  — SelectGreedyWithBudget at half the unbudgeted cost: the same
//             fields plus the uncovered required statistics;
//   closure — ComputeClosure over all observable statistics and over the
//             greedy selection: the computable flags and the CSS that first
//             fired for each statistic;
//   quarter, three_quarters — SelectGreedyWithBudget at 1/4 and 3/4 of the
//             unbudgeted cost, as `budget`;
//   forced  — SelectGreedy with `must_observe` set on the most expensive
//             statistic of the unbudgeted selection (lowest index on ties).
// The digests were recorded before the selectors were optimized (the last
// three before the greedy search was made resumable); speed-ups of the
// selectors and the closure must leave them all unchanged. On a mismatch the
// failure message prints the new digest.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "css/generator.h"
#include "datagen/workload_suite.h"
#include "obs/ledger.h"
#include "opt/closure.h"
#include "opt/greedy_selector.h"
#include "util/random.h"

namespace etlopt {
namespace {

struct GoldenDigests {
  const char* greedy;
  const char* budget;
  const char* closure;
  const char* quarter;
  const char* three_quarters;
  const char* forced;
};

// Greedy, budget, closure, quarter, three_quarters and forced digests,
// indexed by workload - 1.
constexpr GoldenDigests kGolden[30] = {
    {"c1c30eb8bcc3544a", "bf784eeeea278bcc", "bf3bf66f36435d0a",
     "bf784eeeea278bcc", "bf784eeeea278bcc", "c1c30eb8bcc3544a"},  // wf1
    {"c1c30eb8bcc3544a", "bf784eeeea278bcc", "2ea19a580d4033b0",
     "bf784eeeea278bcc", "bf784eeeea278bcc", "c1c30eb8bcc3544a"},  // wf2
    {"c1f98d5e54f28a85", "2f51a87434e473d7", "2183e72ae17d999e",
     "2f51a87434e473d7", "2f51a87434e473d7", "c1f98d5e54f28a85"},  // wf3
    {"33cf73e7a2445e1b", "aaf4cfef3093868b", "fb3f09897e5db3bc",
     "a77b17cde2c64124", "aaf4cfef3093868b", "33cf73e7a2445e1b"},  // wf4
    {"2632a4472501db5c", "ac7047d9c49dca54", "af2759cf2a37e60c",
     "ac7047d9c49dca54", "ac7047d9c49dca54", "2632a4472501db5c"},  // wf5
    {"13ff406054804592", "ecddad13e5a3c96e", "505d93451af44e61",
     "ecddad13e5a3c96e", "ecddad13e5a3c96e", "13ff406054804592"},  // wf6
    {"4bb9df22ca2cff70", "ecddad13e5a3c96e", "97ed39562360c255",
     "ecddad13e5a3c96e", "ecddad13e5a3c96e", "4bb9df22ca2cff70"},  // wf7
    {"044ffc5143a941e8", "baa4ec9cc8d6e2f5", "541d0a7f69a2e255",
     "baa4ec9cc8d6e2f5", "baa4ec9cc8d6e2f5", "9d66cfe9abbee042"},  // wf8
    {"15e73ca3d7692ad4", "f64ec1b6204c5c11", "8786c2419b71ced8",
     "a77b17cde2c64124", "90c6ba6d41075b84", "15e73ca3d7692ad4"},  // wf9
    {"6878bebaf80854c4", "f2677b86db63d7a2", "6716b132b3ec41bc",
     "d3c612a45d2b8c84", "1bc8144cb98b2284", "6878bebaf80854c4"},  // wf10
    {"6878bebaf80854c4", "f2677b86db63d7a2", "15b12dfc5fd0d113",
     "d3c612a45d2b8c84", "1bc8144cb98b2284", "6878bebaf80854c4"},  // wf11
    {"07834c0be0229aea", "14f1187b33244c41", "541d0a7f69a2e255",
     "14f1187b33244c41", "4a4d59310a29f88e", "b373998b3217c908"},  // wf12
    {"5fa07fffccae1b7f", "98e7dfff8413b8d8", "a12f973441e7700b",
     "0cf3bc63ec001d1e", "98e7dfff8413b8d8", "7d22c3459c792d71"},  // wf13
    {"e396c3761233eda1", "42af9d18d1b54a50", "eeb18539f5f4b815",
     "42af9d18d1b54a50", "42af9d18d1b54a50", "e396c3761233eda1"},  // wf14
    {"15e73ca3d7692ad4", "f64ec1b6204c5c11", "18e20e4e4774f223",
     "a77b17cde2c64124", "90c6ba6d41075b84", "15e73ca3d7692ad4"},  // wf15
    {"486bad7933f85b04", "635df6aa9a23e9dc", "a877e555b1f7a683",
     "635df6aa9a23e9dc", "5e8a33ba02b7e83b", "486bad7933f85b04"},  // wf16
    {"6878bebaf80854c4", "f2677b86db63d7a2", "15b12dfc5fd0d113",
     "d3c612a45d2b8c84", "1bc8144cb98b2284", "6878bebaf80854c4"},  // wf17
    {"30f1cf7a90ac6543", "0709f5b3cabd0fa2", "ba082120faffbe4c",
     "c88a3080c16eb952", "0709f5b3cabd0fa2", "30f1cf7a90ac6543"},  // wf18
    {"287f980bf68f232f", "280196772c3da8ed", "df9c05c3c257439f",
     "280196772c3da8ed", "280196772c3da8ed", "287f980bf68f232f"},  // wf19
    {"10725a614855f23d", "2f51a87434e473d7", "76fa1db3b0001d14",
     "2f51a87434e473d7", "2f51a87434e473d7", "10725a614855f23d"},  // wf20
    {"555dff77e27d926b", "d98fc9d21f572bf0", "14447454b5ebb33c",
     "d98fc9d21f572bf0", "d98fc9d21f572bf0", "555dff77e27d926b"},  // wf21
    {"0d4cda454f3b1c26", "2f51a87434e473d7", "41eb2adb4179fb84",
     "2f51a87434e473d7", "2f51a87434e473d7", "0d4cda454f3b1c26"},  // wf22
    {"a951148619606564", "ecddad13e5a3c96e", "505d93451af44e61",
     "ecddad13e5a3c96e", "ecddad13e5a3c96e", "a951148619606564"},  // wf23
    {"234e4222fabe472c", "2f51a87434e473d7", "189a67374824f46f",
     "2f51a87434e473d7", "2f51a87434e473d7", "234e4222fabe472c"},  // wf24
    {"46bd1c0de9ccc0e4", "275bd8d6b30b76a7", "292b878a135c59d0",
     "a93d8577f70f26ba", "e40e2a1d58b2de5e", "46bd1c0de9ccc0e4"},  // wf25
    {"c0b1cb1865cd1035", "f65601e67231ead6", "02b0e1cebbac28ff",
     "5ddf7b144d0e5cbb", "467cfedfeb5e3a05", "c0b1cb1865cd1035"},  // wf26
    {"8c9b280adaf8253f", "2f51a87434e473d7", "925b9420eca69eec",
     "2f51a87434e473d7", "2f51a87434e473d7", "8c9b280adaf8253f"},  // wf27
    {"6878bebaf80854c4", "f2677b86db63d7a2", "15b12dfc5fd0d113",
     "d3c612a45d2b8c84", "1bc8144cb98b2284", "6878bebaf80854c4"},  // wf28
    {"372dc68d17603b2f", "3a9204da0e356d58", "6b3366731aba3474",
     "1ca85800dd43a437", "3f15eb667ed962d7", "372dc68d17603b2f"},  // wf29
    {"1e8e355415dd6870", "fce34b6674a882d7", "f17d4323d899cceb",
     "fce34b6674a882d7", "fce34b6674a882d7", "1e8e355415dd6870"},  // wf30
};

// One workload's blocks with their CSS catalogs and selection problems
// (default cost model, no free or forced statistics).
struct SuiteWorkload {
  WorkloadSpec spec;
  std::vector<BlockContext> contexts;
  std::vector<PlanSpace> spaces;
  std::vector<CssCatalog> catalogs;
  std::vector<SelectionProblem> problems;
};

SuiteWorkload Prepare(int index) {
  SuiteWorkload w;
  w.spec = BuildWorkload(index);
  for (const Block& b : PartitionBlocks(w.spec.workflow)) {
    w.contexts.push_back(BlockContext::Build(&w.spec.workflow, b).value());
  }
  for (const BlockContext& ctx : w.contexts) {
    w.spaces.push_back(PlanSpace::Build(ctx).value());
  }
  for (size_t i = 0; i < w.contexts.size(); ++i) {
    w.catalogs.push_back(GenerateCss(w.contexts[i], w.spaces[i], {}));
  }
  const CostModel cost_model(&w.spec.workflow.catalog(), {});
  for (size_t i = 0; i < w.contexts.size(); ++i) {
    w.problems.push_back(BuildSelectionProblem(w.contexts[i], w.spaces[i],
                                               w.catalogs[i], cost_model));
  }
  return w;
}

std::string Number(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string SelectionText(const SelectionResult& result,
                          const CssCatalog& catalog,
                          const AttrCatalog& attrs) {
  std::string text = result.method + " feasible=" +
                     (result.feasible ? "1" : "0") +
                     " cost=" + Number(result.total_cost) + " keys=";
  for (const StatKey& key : result.ObservedKeys(catalog)) {
    text += key.ToString(&attrs) + ";";
  }
  return text;
}

class SelectionGolden : public ::testing::TestWithParam<int> {};

TEST_P(SelectionGolden, SelectionsAndDerivationsMatchDigests) {
  const int index = GetParam();
  const SuiteWorkload w = Prepare(index);
  const AttrCatalog& attrs = w.spec.workflow.catalog();
  std::string greedy, budget, closure, quarter, three_quarters, forced;
  for (size_t b = 0; b < w.problems.size(); ++b) {
    const SelectionProblem& problem = w.problems[b];
    const CssCatalog& catalog = w.catalogs[b];
    const std::string block = "block " + std::to_string(b) + ": ";

    const SelectionResult full = SelectGreedy(problem);
    greedy += block + SelectionText(full, catalog, attrs) + "\n";

    std::vector<int> uncovered;
    const SelectionResult half =
        SelectGreedyWithBudget(problem, full.total_cost / 2, &uncovered);
    budget += block + SelectionText(half, catalog, attrs) + " uncovered=";
    for (int s : uncovered) budget += catalog.stat(s).ToString(&attrs) + ";";
    budget += "\n";
    auto add_budgeted = [&](double budget_cost, std::string* text) {
      std::vector<int> left;
      const SelectionResult partial =
          SelectGreedyWithBudget(problem, budget_cost, &left);
      *text += block + SelectionText(partial, catalog, attrs) + " uncovered=";
      for (int s : left) *text += catalog.stat(s).ToString(&attrs) + ";";
      *text += "\n";
    };
    add_budgeted(full.total_cost / 4, &quarter);
    add_budgeted(full.total_cost * 3 / 4, &three_quarters);

    int priciest = -1;
    for (int s : full.observed) {
      if (priciest < 0 || problem.cost[static_cast<size_t>(s)] >
                              problem.cost[static_cast<size_t>(priciest)]) {
        priciest = s;
      }
    }
    forced += block;
    if (priciest >= 0) {
      SelectionProblem pinned = problem;
      pinned.must_observe[static_cast<size_t>(priciest)] = 1;
      forced += SelectionText(SelectGreedy(pinned), catalog, attrs);
    }
    forced += "\n";

    // Derivations from everything observable and from the greedy selection.
    auto add_derivation = [&](const std::vector<char>& observed) {
      std::vector<int> derivation;
      const std::vector<char> computable =
          ComputeClosure(catalog, observed, &derivation);
      closure += block;
      for (int s = 0; s < catalog.num_stats(); ++s) {
        closure += std::to_string(computable[static_cast<size_t>(s)]) + ":" +
                   std::to_string(derivation[static_cast<size_t>(s)]) + " ";
      }
      closure += "\n";
    };
    add_derivation(problem.observable);
    std::vector<char> selected(static_cast<size_t>(catalog.num_stats()), 0);
    for (int s : full.observed) selected[static_cast<size_t>(s)] = 1;
    add_derivation(selected);
  }
  const GoldenDigests& want = kGolden[index - 1];
  EXPECT_EQ(obs::FingerprintText(greedy), want.greedy) << "greedy\n" << greedy;
  EXPECT_EQ(obs::FingerprintText(budget), want.budget) << "budget\n" << budget;
  EXPECT_EQ(obs::FingerprintText(closure), want.closure) << "closure";
  EXPECT_EQ(obs::FingerprintText(quarter), want.quarter) << "quarter\n"
                                                         << quarter;
  EXPECT_EQ(obs::FingerprintText(three_quarters), want.three_quarters)
      << "three_quarters\n" << three_quarters;
  EXPECT_EQ(obs::FingerprintText(forced), want.forced) << "forced\n" << forced;
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, SelectionGolden, ::testing::Range(1, 31),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "wf" + std::to_string(info.param);
                         });

// IncrementalClosure is order-independent: adding a random subset of
// statistics in a random order yields, after every addition, the closure
// ComputeClosure gives for the statistics added so far.
class IncrementalClosureProperty : public ::testing::TestWithParam<int> {};

TEST_P(IncrementalClosureProperty, MatchesComputeClosureInAnyOrder) {
  const SuiteWorkload w = Prepare(GetParam());
  Rng rng(static_cast<uint64_t>(GetParam()));
  for (const CssCatalog& catalog : w.catalogs) {
    const int n = catalog.num_stats();
    for (int trial = 0; trial < 6; ++trial) {
      std::vector<int> order;
      for (int s = 0; s < n; ++s) {
        if (rng.NextBounded(3) == 0) order.push_back(s);
      }
      for (size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[rng.NextBounded(i)]);
      }
      IncrementalClosure closure(catalog);
      std::vector<char> added(static_cast<size_t>(n), 0);
      for (int s : order) {
        closure.Add(s);
        added[static_cast<size_t>(s)] = 1;
        ASSERT_EQ(closure.flags(), ComputeClosure(catalog, added))
            << "trial " << trial << " after adding stat " << s;
      }
    }
  }
}

// Rolling back to the mark taken after the first i additions gives the
// closure of those i statistics, and adding the rest again afterwards gives
// the closure of all of them.
TEST_P(IncrementalClosureProperty, RollbackRestoresEveryMark) {
  const SuiteWorkload w = Prepare(GetParam());
  Rng rng(static_cast<uint64_t>(GetParam()) + 7);
  for (const CssCatalog& catalog : w.catalogs) {
    const int n = catalog.num_stats();
    for (int trial = 0; trial < 6; ++trial) {
      std::vector<int> order;
      for (int s = 0; s < n; ++s) {
        if (rng.NextBounded(3) == 0) order.push_back(s);
      }
      for (size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[rng.NextBounded(i)]);
      }
      IncrementalClosure closure(catalog);
      std::vector<size_t> marks = {closure.Mark()};
      for (int s : order) {
        closure.Add(s);
        marks.push_back(closure.Mark());
      }
      const std::vector<char> all = closure.flags();
      // Roll back to ever earlier prefixes.
      for (size_t keep = order.size(); keep > 0;) {
        keep = rng.NextBounded(keep);
        closure.Rollback(marks[keep]);
        std::vector<char> added(static_cast<size_t>(n), 0);
        for (size_t i = 0; i < keep; ++i) {
          added[static_cast<size_t>(order[i])] = 1;
        }
        ASSERT_EQ(closure.flags(), ComputeClosure(catalog, added))
            << "trial " << trial << " rolled back to " << keep << " stats";
        if (rng.NextBounded(2) == 0) {
          for (size_t i = keep; i < order.size(); ++i) closure.Add(order[i]);
          ASSERT_EQ(closure.flags(), all)
              << "trial " << trial << " re-added from " << keep;
          closure.Rollback(marks[keep]);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, IncrementalClosureProperty,
                         ::testing::Values(13, 30),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "wf" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace etlopt
