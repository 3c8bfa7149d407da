#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <queue>
#include <string>
#include <tuple>

#include "css/generator.h"
#include "datagen/workload_suite.h"
#include "opt/closure.h"
#include "opt/greedy_selector.h"
#include "opt/ilp_selector.h"
#include "opt/resource.h"
#include "test_util.h"
#include "util/random.h"

namespace etlopt {
namespace {

// Hand-built catalog for closure unit tests:
//   s0, s1, s2 are leaves; s3 <- {s0, s1}; s4 <- {s3, s2}; s5 <- {s4} | {s0}.
CssCatalog TinyCatalog(std::vector<StatKey>* keys) {
  CssCatalog catalog;
  keys->clear();
  for (int i = 0; i < 6; ++i) {
    keys->push_back(StatKey::Card(RelMask{1} << i));
    catalog.AddStat(keys->back());
  }
  auto add = [&](int target, std::vector<int> inputs) {
    CssEntry e;
    e.rule = RuleId::kJ1;
    e.target = (*keys)[static_cast<size_t>(target)];
    for (int i : inputs) e.inputs.push_back((*keys)[static_cast<size_t>(i)]);
    catalog.AddCss(std::move(e));
  };
  add(3, {0, 1});
  add(4, {3, 2});
  add(5, {4});
  add(5, {0});
  return catalog;
}

TEST(ClosureTest, FixpointPropagates) {
  std::vector<StatKey> keys;
  const CssCatalog catalog = TinyCatalog(&keys);
  std::vector<char> observed(6, 0);
  observed[0] = observed[1] = observed[2] = 1;
  const std::vector<char> computable = ComputeClosure(catalog, observed);
  for (int i = 0; i < 6; ++i) EXPECT_TRUE(computable[static_cast<size_t>(i)]);
}

TEST(ClosureTest, MissingInputBlocksDerivation) {
  std::vector<StatKey> keys;
  const CssCatalog catalog = TinyCatalog(&keys);
  std::vector<char> observed(6, 0);
  observed[1] = observed[2] = 1;  // s0 missing
  const std::vector<char> computable = ComputeClosure(catalog, observed);
  EXPECT_FALSE(computable[3]);
  EXPECT_FALSE(computable[4]);
  EXPECT_FALSE(computable[5]);
}

TEST(ClosureTest, AlternativeCssSuffices) {
  std::vector<StatKey> keys;
  const CssCatalog catalog = TinyCatalog(&keys);
  std::vector<char> observed(6, 0);
  observed[0] = 1;  // s5 <- {s0} fires
  const std::vector<char> computable = ComputeClosure(catalog, observed);
  EXPECT_TRUE(computable[5]);
  EXPECT_FALSE(computable[4]);
}

TEST(ClosureTest, DerivationIsAcyclic) {
  std::vector<StatKey> keys;
  const CssCatalog catalog = TinyCatalog(&keys);
  std::vector<char> observed(6, 0);
  observed[0] = observed[1] = observed[2] = 1;
  std::vector<int> derivation;
  ComputeClosure(catalog, observed, &derivation);
  EXPECT_EQ(derivation[0], -1);  // observed
  EXPECT_GE(derivation[3], 0);
  EXPECT_GE(derivation[4], 0);
  EXPECT_GE(derivation[5], 0);
}

class PaperSelection : public ::testing::Test {
 protected:
  void SetUp() override {
    ex_ = testing_util::MakePaperExample();
    const std::vector<Block> blocks = PartitionBlocks(ex_.workflow);
    ctx_ = BlockContext::Build(&ex_.workflow, blocks[0]).value();
    ps_ = PlanSpace::Build(ctx_).value();
    catalog_ = GenerateCss(ctx_, ps_, {});
    CostModel cost_model(&ex_.workflow.catalog(), {});
    problem_ = BuildSelectionProblem(ctx_, ps_, catalog_, cost_model);
  }

  testing_util::PaperExample ex_;
  BlockContext ctx_;
  PlanSpace ps_;
  CssCatalog catalog_;
  SelectionProblem problem_;
};

TEST_F(PaperSelection, GreedyCoversAllRequired) {
  const SelectionResult result = SelectGreedy(problem_);
  ASSERT_TRUE(result.feasible);
  EXPECT_TRUE(SelectionCovers(problem_, result.observed));
  EXPECT_GT(result.total_cost, 0.0);
}

TEST_F(PaperSelection, GreedyObservesOnlyObservableStats) {
  const SelectionResult result = SelectGreedy(problem_);
  for (int s : result.observed) {
    EXPECT_TRUE(problem_.observable[static_cast<size_t>(s)])
        << catalog_.stat(s).ToString(&ex_.workflow.catalog());
  }
}

TEST_F(PaperSelection, GreedyHasNoRedundantObservation) {
  const SelectionResult result = SelectGreedy(problem_);
  for (size_t drop = 0; drop < result.observed.size(); ++drop) {
    std::vector<int> reduced;
    for (size_t i = 0; i < result.observed.size(); ++i) {
      if (i != drop) reduced.push_back(result.observed[i]);
    }
    EXPECT_FALSE(SelectionCovers(problem_, reduced))
        << "redundant: "
        << catalog_.stat(result.observed[drop])
               .ToString(&ex_.workflow.catalog());
  }
}

TEST_F(PaperSelection, IlpMatchesExhaustiveOptimum) {
  const SelectionResult ilp = SelectIlp(problem_);
  ASSERT_TRUE(ilp.feasible);
  EXPECT_TRUE(SelectionCovers(problem_, ilp.observed));

  const SelectionResult brute = SelectExhaustive(problem_, 26);
  if (brute.feasible) {
    EXPECT_NEAR(ilp.total_cost, brute.total_cost, 1e-6) << ilp.method;
  }
  // Greedy is never better than the ILP optimum.
  const SelectionResult greedy = SelectGreedy(problem_);
  EXPECT_GE(greedy.total_cost + 1e-9, ilp.total_cost);
}

TEST_F(PaperSelection, CheapOnPathCountersArePreferred) {
  // The cardinalities of on-path SEs (O, P, C, OP, OPC) cost 1 each; the
  // only genuinely expensive need is |OC|. The optimal solution should not
  // cost more than a couple of histograms.
  const SelectionResult result = SelectIlp(problem_);
  const AttrCatalog& catalog = ex_.workflow.catalog();
  const double cust_dom =
      static_cast<double>(catalog.domain_size(ex_.cust_id));
  const double prod_dom =
      static_cast<double>(catalog.domain_size(ex_.prod_id));
  EXPECT_LE(result.total_cost,
            5.0 + 2.0 * std::max(cust_dom, prod_dom) + 2.0 * cust_dom);
}

TEST_F(PaperSelection, SourceStatsReduceCost) {
  const SelectionResult base = SelectGreedy(problem_);
  // Make every base-relation histogram free (Section 6.2).
  SelectionOptions options;
  for (int s = 0; s < catalog_.num_stats(); ++s) {
    const StatKey& key = catalog_.stat(s);
    if (key.kind == StatKind::kHist && IsSingleton(key.rels) &&
        !key.is_chain_stage()) {
      options.free_source_stats.push_back(key);
    }
  }
  CostModel cost_model(&ex_.workflow.catalog(), {});
  const SelectionProblem with_free =
      BuildSelectionProblem(ctx_, ps_, catalog_, cost_model, options);
  const SelectionResult freed = SelectGreedy(with_free);
  ASSERT_TRUE(freed.feasible);
  EXPECT_LT(freed.total_cost, base.total_cost);
}

TEST_F(PaperSelection, BudgetedSelectionDefersToReorderedRuns) {
  // A budget of 6 units only allows counters: |OC| cannot be covered in the
  // first run and must come from a re-ordered execution.
  const BudgetedSelection budgeted =
      SelectWithBudget(problem_, ctx_, ps_, 6.0);
  EXPECT_FALSE(budgeted.first_run.feasible);
  EXPECT_LE(budgeted.memory_used, 6.0);
  ASSERT_FALSE(budgeted.deferred.empty());
  EXPECT_EQ(budgeted.deferred[0], 0b101u);  // OC
  EXPECT_GE(budgeted.total_executions(), 2);
}

TEST_F(PaperSelection, LargeBudgetBehavesLikeUnbudgeted) {
  const BudgetedSelection budgeted =
      SelectWithBudget(problem_, ctx_, ps_, 1e12);
  EXPECT_TRUE(budgeted.first_run.feasible);
  EXPECT_TRUE(budgeted.deferred.empty());
  EXPECT_EQ(budgeted.total_executions(), 1);
}

// A plain copy of the greedy selector of Section 5.3 to check the optimized
// one against: every iteration derives every statistic from scratch, the
// pending statistics are tried by (derivation cost, index), and the
// redundancy drop tests each kept observation with its own SelectionCovers.
namespace greedy_reference {

constexpr double kInf = 1e300;

struct Candidate {
  double cost;
  int stat;
  int css;  // -1: observe directly

  bool operator>(const Candidate& other) const {
    return std::tie(cost, stat, css) >
           std::tie(other.cost, other.stat, other.css);
  }
};

// Cheapest derivation of every statistic under residual costs (Knuth's
// generalization of Dijkstra over the AND-OR CSS graph): all candidates are
// queued and taken in (cost, stat, css) order; a CSS costs the sum of its
// inputs in the order they became final. `via` is -1 for an observation,
// -2 for an unreachable statistic.
void Derive(const SelectionProblem& problem, const std::vector<char>& observed,
            std::vector<double>* cost, std::vector<int>* via) {
  const CssCatalog& catalog = *problem.catalog;
  const int n = catalog.num_stats();
  cost->assign(static_cast<size_t>(n), kInf);
  via->assign(static_cast<size_t>(n), -2);
  std::vector<double> sum(static_cast<size_t>(catalog.num_css()), 0.0);
  std::vector<int> missing(static_cast<size_t>(catalog.num_css()));
  std::priority_queue<Candidate, std::vector<Candidate>, std::greater<>> heap;
  for (int c = 0; c < catalog.num_css(); ++c) {
    missing[static_cast<size_t>(c)] =
        static_cast<int>(catalog.css_inputs(c).size());
    if (missing[static_cast<size_t>(c)] == 0) {
      heap.push({0.0, catalog.css_target(c), c});
    }
  }
  for (int s = 0; s < n; ++s) {
    if (problem.observable[static_cast<size_t>(s)]) {
      heap.push({observed[static_cast<size_t>(s)]
                     ? 0.0
                     : problem.cost[static_cast<size_t>(s)],
                 s, -1});
    }
  }
  while (!heap.empty()) {
    const Candidate top = heap.top();
    heap.pop();
    if ((*via)[static_cast<size_t>(top.stat)] != -2) continue;
    (*cost)[static_cast<size_t>(top.stat)] = top.cost;
    (*via)[static_cast<size_t>(top.stat)] = top.css;
    for (int c : catalog.css_reading(top.stat)) {
      sum[static_cast<size_t>(c)] += top.cost;
      if (--missing[static_cast<size_t>(c)] == 0) {
        heap.push({sum[static_cast<size_t>(c)], catalog.css_target(c), c});
      }
    }
  }
}

SelectionResult Cover(const SelectionProblem& problem, double budget,
                      std::vector<int>* uncovered) {
  const CssCatalog& catalog = *problem.catalog;
  const int n = catalog.num_stats();
  auto forced = [&](int s) {
    return static_cast<size_t>(s) < problem.must_observe.size() &&
           problem.must_observe[static_cast<size_t>(s)];
  };
  SelectionResult result;
  result.method = "greedy";
  uncovered->clear();
  std::vector<char> observed(static_cast<size_t>(n), 0);
  IncrementalClosure closure(catalog);
  double spent = 0.0;
  for (int s = 0; s < n; ++s) {
    if (forced(s)) {
      observed[static_cast<size_t>(s)] = 1;
      spent += problem.cost[static_cast<size_t>(s)];
      closure.Add(s);
    }
  }
  std::vector<char> deferred(static_cast<size_t>(n), 0);
  std::vector<double> cost;
  std::vector<int> via;
  for (;;) {
    ++result.greedy_iterations;
    std::vector<int> pending;
    for (int s = 0; s < n; ++s) {
      if (problem.required[static_cast<size_t>(s)] && !closure.computable(s) &&
          !deferred[static_cast<size_t>(s)]) {
        pending.push_back(s);
      }
    }
    if (pending.empty()) break;
    Derive(problem, observed, &cost, &via);
    std::sort(pending.begin(), pending.end(), [&](int a, int b) {
      return std::tie(cost[static_cast<size_t>(a)], a) <
             std::tie(cost[static_cast<size_t>(b)], b);
    });
    bool progressed = false;
    for (int pick : pending) {
      if (via[static_cast<size_t>(pick)] == -2) {
        deferred[static_cast<size_t>(pick)] = 1;
        continue;
      }
      // Observable leaves of the derivation, depth first.
      std::vector<int> bundle;
      std::vector<char> visited(static_cast<size_t>(n), 0);
      std::function<void(int)> collect = [&](int s) {
        if (visited[static_cast<size_t>(s)]) return;
        visited[static_cast<size_t>(s)] = 1;
        if (via[static_cast<size_t>(s)] < 0) {
          bundle.push_back(s);
          return;
        }
        for (int in : catalog.css_inputs(via[static_cast<size_t>(s)])) {
          collect(in);
        }
      };
      collect(pick);
      double added = 0.0;
      for (int s : bundle) {
        if (!observed[static_cast<size_t>(s)]) {
          added += problem.cost[static_cast<size_t>(s)];
        }
      }
      if (spent + added > budget) {
        deferred[static_cast<size_t>(pick)] = 1;
        continue;
      }
      for (int s : bundle) {
        if (!observed[static_cast<size_t>(s)]) {
          observed[static_cast<size_t>(s)] = 1;
          closure.Add(s);
        }
      }
      spent += added;
      progressed = true;
      break;
    }
    if (!progressed) break;
  }
  result.feasible = true;
  for (int s = 0; s < n; ++s) {
    if (problem.required[static_cast<size_t>(s)] && !closure.computable(s)) {
      result.feasible = false;
      uncovered->push_back(s);
    }
  }
  if (result.feasible) {
    std::vector<int> kept;
    for (int s = 0; s < n; ++s) {
      if (observed[static_cast<size_t>(s)]) kept.push_back(s);
    }
    // Most expensive first, ties by statistic index.
    std::sort(kept.begin(), kept.end(), [&](int a, int b) {
      return std::tie(problem.cost[static_cast<size_t>(b)], a) <
             std::tie(problem.cost[static_cast<size_t>(a)], b);
    });
    for (int s : kept) {
      if (forced(s)) continue;
      observed[static_cast<size_t>(s)] = 0;
      std::vector<int> trial;
      for (int t = 0; t < n; ++t) {
        if (observed[static_cast<size_t>(t)]) trial.push_back(t);
      }
      if (!SelectionCovers(problem, trial)) {
        observed[static_cast<size_t>(s)] = 1;
      }
    }
  }
  for (int s = 0; s < n; ++s) {
    if (observed[static_cast<size_t>(s)]) {
      result.observed.push_back(s);
      result.total_cost += problem.cost[static_cast<size_t>(s)];
    }
  }
  return result;
}

// SelectGreedy: the cover, and the cover without reject statistics when
// that one is cheaper.
SelectionResult Greedy(const SelectionProblem& problem) {
  std::vector<int> uncovered;
  SelectionResult best = Cover(problem, kInf, &uncovered);
  bool has_reject = false;
  SelectionProblem no_ud = problem;
  for (int s = 0; s < problem.num_stats(); ++s) {
    if (problem.catalog->stat(s).is_reject()) {
      has_reject = has_reject || problem.observable[static_cast<size_t>(s)];
      no_ud.observable[static_cast<size_t>(s)] = 0;
    }
  }
  if (!has_reject) return best;
  SelectionResult alt = Cover(no_ud, kInf, &uncovered);
  const int64_t iterations = best.greedy_iterations + alt.greedy_iterations;
  if (alt.feasible &&
      (!best.feasible || alt.total_cost < best.total_cost - 1e-9)) {
    alt.method = "greedy(no-ud-pass)";
    best = std::move(alt);
  }
  best.greedy_iterations = iterations;
  return best;
}

}  // namespace greedy_reference

void ExpectSameSelection(const SelectionResult& got,
                         const SelectionResult& want,
                         const std::string& where) {
  EXPECT_EQ(got.method, want.method) << where;
  EXPECT_EQ(got.feasible, want.feasible) << where;
  EXPECT_EQ(got.total_cost, want.total_cost) << where;
  EXPECT_EQ(got.observed, want.observed) << where;
  EXPECT_EQ(got.greedy_iterations, want.greedy_iterations) << where;
}

// Every block of a workload with its CSS catalog and selection problem.
struct ReferenceWorkload {
  Workflow workflow;
  std::vector<BlockContext> contexts;
  std::vector<PlanSpace> spaces;
  std::vector<CssCatalog> catalogs;
  std::vector<SelectionProblem> problems;
};

void BuildProblems(ReferenceWorkload* w) {
  for (const Block& b : PartitionBlocks(w->workflow)) {
    w->contexts.push_back(BlockContext::Build(&w->workflow, b).value());
  }
  for (const BlockContext& ctx : w->contexts) {
    w->spaces.push_back(PlanSpace::Build(ctx).value());
  }
  const CostModel cost_model(&w->workflow.catalog(), {});
  for (size_t i = 0; i < w->contexts.size(); ++i) {
    w->catalogs.push_back(GenerateCss(w->contexts[i], w->spaces[i], {}));
  }
  for (size_t i = 0; i < w->contexts.size(); ++i) {
    w->problems.push_back(BuildSelectionProblem(w->contexts[i], w->spaces[i],
                                                w->catalogs[i], cost_model));
  }
}

// A derivation cost can double count an input that two branches share, so a
// later tier can fit the budget when an earlier one does not:
//   A <- {a}; P <- {x}; Q <- {x}; B <- {P, Q}; a costs 5, x costs 3.
// A's derivation costs 5 and B's 6, but B's bundle {x} adds only 3. Under a
// budget of 4 the pass defers A's tier and resumes the search to cover B.
TEST(GreedyBudgetTest, ResumesPastAnUnaffordableTier) {
  CssCatalog catalog;
  std::vector<StatKey> keys;
  for (int i = 0; i < 6; ++i) {  // A a B P Q x
    keys.push_back(StatKey::Card(RelMask{1} << i));
    catalog.AddStat(keys.back());
  }
  auto add = [&](int target, std::vector<int> inputs) {
    CssEntry e;
    e.rule = RuleId::kJ1;
    e.target = keys[static_cast<size_t>(target)];
    for (int i : inputs) e.inputs.push_back(keys[static_cast<size_t>(i)]);
    catalog.AddCss(std::move(e));
  };
  add(0, {1});
  add(3, {5});
  add(4, {5});
  add(2, {3, 4});
  SelectionProblem problem;
  problem.catalog = &catalog;
  problem.cost = {0, 5, 0, 0, 0, 3};
  problem.observable = {0, 1, 0, 0, 0, 1};
  problem.required = {1, 0, 1, 0, 0, 0};
  problem.must_observe.assign(6, 0);

  std::vector<int> uncovered;
  const SelectionResult result = SelectGreedyWithBudget(problem, 4, &uncovered);
  EXPECT_FALSE(result.feasible);
  EXPECT_EQ(result.observed, std::vector<int>{5});
  EXPECT_EQ(result.total_cost, 3);
  EXPECT_EQ(uncovered, std::vector<int>{0});

  std::vector<int> want_uncovered;
  ExpectSameSelection(result,
                      greedy_reference::Cover(problem, 4, &want_uncovered),
                      "budget 4");
  EXPECT_EQ(uncovered, want_uncovered);
}

// 0 = the paper's running example, otherwise a suite workload.
class GreedyReference : public ::testing::TestWithParam<int> {};

TEST_P(GreedyReference, MatchesFullSearchPerPick) {
  ReferenceWorkload w;
  w.workflow = GetParam() == 0 ? testing_util::MakePaperExample().workflow
                               : BuildWorkload(GetParam()).workflow;
  BuildProblems(&w);
  Rng rng(static_cast<uint64_t>(GetParam()) + 101);
  for (size_t b = 0; b < w.problems.size(); ++b) {
    for (int trial = 0; trial < 6; ++trial) {
      // Small integer costs, so that derivation costs tie often; free
      // observations; drift-forced statistics in every other trial.
      SelectionProblem problem = w.problems[b];
      for (int s = 0; s < problem.num_stats(); ++s) {
        if (!problem.observable[static_cast<size_t>(s)]) continue;
        problem.cost[static_cast<size_t>(s)] =
            rng.NextBounded(8) == 0 ? 0.0
                                    : static_cast<double>(1 + rng.NextBounded(3));
        problem.must_observe[static_cast<size_t>(s)] =
            trial % 2 == 1 && rng.NextBounded(16) == 0;
      }
      const std::string where = "block " + std::to_string(b) + " trial " +
                                std::to_string(trial);
      const SelectionResult want = greedy_reference::Greedy(problem);
      ExpectSameSelection(SelectGreedy(problem), want, where);

      std::vector<int> no_uncovered;
      const SelectionResult unbudgeted = greedy_reference::Cover(
          problem, greedy_reference::kInf, &no_uncovered);
      const double full = unbudgeted.total_cost;
      for (double budget : {0.0, full / 4, full / 2, full * 3 / 4, full - 1,
                            full, 2 * full, greedy_reference::kInf}) {
        std::vector<int> want_uncovered, got_uncovered;
        const SelectionResult want_budgeted =
            greedy_reference::Cover(problem, budget, &want_uncovered);
        const SelectionResult got_budgeted =
            SelectGreedyWithBudget(problem, budget, &got_uncovered);
        const std::string at = where + " budget " + std::to_string(budget);
        ExpectSameSelection(got_budgeted, want_budgeted, at);
        EXPECT_EQ(got_uncovered, want_uncovered) << at;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, GreedyReference, ::testing::Values(0, 13, 19),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return info.param == 0
                                      ? std::string("paper")
                                      : "wf" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace etlopt
