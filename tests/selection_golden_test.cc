// Golden digests for statistics selection over the 30-workload suite. Every
// block of every workload pins three outputs, each as a 16-hex FNV-1a digest
// of its canonical text:
//   greedy  — SelectGreedy: method, feasibility, total cost, selected keys;
//   budget  — SelectGreedyWithBudget at half the unbudgeted cost: the same
//             fields plus the uncovered required statistics;
//   closure — ComputeClosure over all observable statistics and over the
//             greedy selection: the computable flags and the CSS that first
//             fired for each statistic.
// The digests were recorded before the selectors were optimized; speed-ups
// of the selectors and the closure must leave all three unchanged. On a
// mismatch the failure message prints the new digest.
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
};

// Greedy, budget and closure digests, indexed by workload - 1.
constexpr GoldenDigests kGolden[30] = {
    {"c1c30eb8bcc3544a", "bf784eeeea278bcc", "bf3bf66f36435d0a"},  // wf1
    {"c1c30eb8bcc3544a", "bf784eeeea278bcc", "2ea19a580d4033b0"},  // wf2
    {"c1f98d5e54f28a85", "2f51a87434e473d7", "2183e72ae17d999e"},  // wf3
    {"33cf73e7a2445e1b", "aaf4cfef3093868b", "fb3f09897e5db3bc"},  // wf4
    {"2632a4472501db5c", "ac7047d9c49dca54", "af2759cf2a37e60c"},  // wf5
    {"13ff406054804592", "ecddad13e5a3c96e", "505d93451af44e61"},  // wf6
    {"4bb9df22ca2cff70", "ecddad13e5a3c96e", "97ed39562360c255"},  // wf7
    {"044ffc5143a941e8", "baa4ec9cc8d6e2f5", "541d0a7f69a2e255"},  // wf8
    {"15e73ca3d7692ad4", "f64ec1b6204c5c11", "8786c2419b71ced8"},  // wf9
    {"6878bebaf80854c4", "f2677b86db63d7a2", "6716b132b3ec41bc"},  // wf10
    {"6878bebaf80854c4", "f2677b86db63d7a2", "15b12dfc5fd0d113"},  // wf11
    {"07834c0be0229aea", "14f1187b33244c41", "541d0a7f69a2e255"},  // wf12
    {"5fa07fffccae1b7f", "98e7dfff8413b8d8", "a12f973441e7700b"},  // wf13
    {"e396c3761233eda1", "42af9d18d1b54a50", "eeb18539f5f4b815"},  // wf14
    {"15e73ca3d7692ad4", "f64ec1b6204c5c11", "18e20e4e4774f223"},  // wf15
    {"486bad7933f85b04", "635df6aa9a23e9dc", "a877e555b1f7a683"},  // wf16
    {"6878bebaf80854c4", "f2677b86db63d7a2", "15b12dfc5fd0d113"},  // wf17
    {"30f1cf7a90ac6543", "0709f5b3cabd0fa2", "ba082120faffbe4c"},  // wf18
    {"287f980bf68f232f", "280196772c3da8ed", "df9c05c3c257439f"},  // wf19
    {"10725a614855f23d", "2f51a87434e473d7", "76fa1db3b0001d14"},  // wf20
    {"555dff77e27d926b", "d98fc9d21f572bf0", "14447454b5ebb33c"},  // wf21
    {"0d4cda454f3b1c26", "2f51a87434e473d7", "41eb2adb4179fb84"},  // wf22
    {"a951148619606564", "ecddad13e5a3c96e", "505d93451af44e61"},  // wf23
    {"234e4222fabe472c", "2f51a87434e473d7", "189a67374824f46f"},  // wf24
    {"46bd1c0de9ccc0e4", "275bd8d6b30b76a7", "292b878a135c59d0"},  // wf25
    {"c0b1cb1865cd1035", "f65601e67231ead6", "02b0e1cebbac28ff"},  // wf26
    {"8c9b280adaf8253f", "2f51a87434e473d7", "925b9420eca69eec"},  // wf27
    {"6878bebaf80854c4", "f2677b86db63d7a2", "15b12dfc5fd0d113"},  // wf28
    {"372dc68d17603b2f", "3a9204da0e356d58", "6b3366731aba3474"},  // wf29
    {"1e8e355415dd6870", "fce34b6674a882d7", "f17d4323d899cceb"},  // wf30
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
  std::string greedy, budget, closure;
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

INSTANTIATE_TEST_SUITE_P(Workloads, IncrementalClosureProperty,
                         ::testing::Values(13, 30),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "wf" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace etlopt
