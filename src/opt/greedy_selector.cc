#include "opt/greedy_selector.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <tuple>

#include "obs/trace.h"
#include "opt/closure.h"
#include "util/common.h"

namespace etlopt {
namespace {

constexpr double kInf = 1e300;

struct Derivation {
  double cost = kInf;
  int via_css = -1;  // -1: observe directly
  bool reachable = false;  // final
  bool queued = false;     // cost/via_css hold the best queued candidate
};

// Knuth's generalization of Dijkstra over the AND-OR CSS graph: the cheapest
// way to make each statistic computable, where a CSS's cost is the sum of
// its inputs' costs (sharing between inputs is ignored here — the greedy
// outer loop recovers sharing through residual costs).
//
// Candidates are (cost, stat, css) triples, css -1 meaning "observe", and
// the search finalizes each statistic with its smallest candidate. A CSS
// becomes a candidate when its last input is final, its cost summed over
// its inputs in the order they became final. The triples are distinct, so
// they are taken in one fixed order whatever else is queued: dropping a
// candidate that cannot win (its target is final or holds a smaller
// candidate) and streaming the observation candidates from a sorted list
// instead of the heap change no derivation.
//
// A search is started for a set of wanted statistics and then resumed one
// finalization tier at a time (NextTier): the greedy pass needs only the
// cheapest affordable wanted statistic, so it stops the search at the first
// tier that holds one instead of finalizing every wanted statistic. A final
// statistic's derivation only uses statistics finalized before it, so where
// the search stops changes no derivation it reports.
//
// One search serves every iteration of both greedy passes, which share the
// observation costs: the CSSs without inputs and the statistics ordered by
// cost are built once, the buffers are reused, and the per-CSS state is
// reset lazily through a generation stamp rather than copied per start.
class DerivationSearch {
 public:
  DerivationSearch(const CssCatalog& catalog, const std::vector<double>& cost)
      : catalog_(catalog),
        cost_(cost),
        best_(static_cast<size_t>(catalog.num_stats())),
        wanted_(static_cast<size_t>(catalog.num_stats()), 0),
        visit_stamp_(static_cast<size_t>(catalog.num_stats()), 0),
        css_(static_cast<size_t>(catalog.num_css()), CssState{0.0, 0, 0}) {
    const int n = catalog.num_stats();
    for (int c = 0; c < catalog.num_css(); ++c) {
      if (catalog.css_inputs(c).empty()) no_input_css_.push_back(c);
    }
    by_cost_.resize(static_cast<size_t>(n));
    for (int s = 0; s < n; ++s) by_cost_[static_cast<size_t>(s)] = s;
    std::sort(by_cost_.begin(), by_cost_.end(), [&](int a, int b) {
      return std::tie(cost[static_cast<size_t>(a)], a) <
             std::tie(cost[static_cast<size_t>(b)], b);
    });
  }

  // Starts a search for the cheapest derivations, where observing an
  // `observable` statistic costs nothing once it is `observed` and its cost
  // otherwise (residual costs). NextTier reports the statistics of `wanted`
  // (distinct indices) as they become final.
  void Start(const std::vector<char>& observable,
             const std::vector<char>& observed,
             const std::vector<int>& wanted) {
    if (++generation_ == 0) {  // wrapped: no stamp may match a fresh one
      for (CssState& state : css_) state.generation = 0;
      std::fill(wanted_.begin(), wanted_.end(), 0);
      generation_ = 1;
    }
    std::fill(best_.begin(), best_.end(), Derivation{});
    heap_.clear();
    StreamObservations(observable, observed);
    next_observation_ = 0;
    for (int c : no_input_css_) Offer(0.0, catalog_.css_target(c), c);
    for (int s : wanted) wanted_[static_cast<size_t>(s)] = generation_;
  }

  // Resumes the search up to the next finalization tier: it takes
  // candidates until a wanted statistic becomes final at some cost C, then
  // every further candidate of cost C (only those can still finalize at C),
  // and returns in `tier` the wanted statistics finalized at C, in index
  // order. Successive tiers come in increasing cost, so they list the
  // wanted statistics by (cost, index). Returns false, with `tier` empty,
  // once the search runs dry; the wanted statistics no tier reported are
  // unreachable.
  bool NextTier(std::vector<int>* tier) {
    tier->clear();
    Item item{};
    while (tier->empty() && Pop(&item)) Finalize(item, tier);
    if (tier->empty()) return false;
    const double tier_cost = item.cost;
    for (const Item* next = Peek(); next != nullptr && next->cost == tier_cost;
         next = Peek()) {
      Pop(&item);
      Finalize(item, tier);
    }
    std::sort(tier->begin(), tier->end());
    return true;
  }

  // Replaces `bundle` with the observable leaves of the chosen derivation of
  // the final statistic `stat`, in depth-first order.
  void CollectBundle(int stat, std::vector<int>* bundle) {
    bundle->clear();
    ++stamp_;
    Collect(stat, bundle);
  }

 private:
  struct Item {
    double cost;
    int stat;
    int css;  // -1: observe directly

    bool operator>(const Item& other) const {
      return std::tie(cost, stat, css) >
             std::tie(other.cost, other.stat, other.css);
    }
  };

  // Valid in the search started at `generation`; older states read as
  // (0, all inputs missing).
  struct CssState {
    double sum;     // costs of the final inputs
    int missing;    // inputs not yet final
    uint32_t generation;
  };

  // The smallest queued candidate, or nullptr once the search ran dry.
  const Item* Peek() const {
    const bool observations_left = next_observation_ < observations_.size();
    if (!heap_.empty() &&
        (!observations_left ||
         observations_[next_observation_] > heap_.front())) {
      return &heap_.front();
    }
    return observations_left ? &observations_[next_observation_] : nullptr;
  }

  bool Pop(Item* item) {
    const Item* next = Peek();
    if (next == nullptr) return false;
    *item = *next;
    if (next == heap_.data()) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
      heap_.pop_back();
    } else {
      ++next_observation_;
    }
    return true;
  }

  // Makes `item`'s statistic final unless it already is, appending it to
  // `tier` when wanted, and offers every CSS this completes.
  void Finalize(const Item& item, std::vector<int>* tier) {
    Derivation& d = best_[static_cast<size_t>(item.stat)];
    if (d.reachable) return;
    d = Derivation{item.cost, item.css, true, true};
    if (wanted_[static_cast<size_t>(item.stat)] == generation_) {
      tier->push_back(item.stat);
    }
    for (int c : catalog_.css_reading(item.stat)) {
      CssState& state = css_[static_cast<size_t>(c)];
      if (state.generation != generation_) {
        state = {0.0, static_cast<int>(catalog_.css_inputs(c).size()),
                 generation_};
      }
      state.sum += item.cost;
      if (--state.missing == 0) Offer(state.sum, catalog_.css_target(c), c);
    }
  }

  // Queues CSS candidate (cost, stat, css) unless it cannot win.
  void Offer(double cost, int stat, int css) {
    Derivation& d = best_[static_cast<size_t>(stat)];
    if (d.reachable ||
        (d.queued && std::tie(d.cost, d.via_css) < std::tie(cost, css))) {
      return;
    }
    d.cost = cost;
    d.via_css = css;
    d.queued = true;
    heap_.push_back({cost, stat, css});
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
  }

  // Fills `observations_` with the observation candidates in (cost, stat)
  // order: the free ones by index, merged with the rest by cost.
  void StreamObservations(const std::vector<char>& observable,
                          const std::vector<char>& observed) {
    free_.clear();
    paid_.clear();
    for (int s = 0; s < static_cast<int>(cost_.size()); ++s) {
      if (!observable[static_cast<size_t>(s)]) continue;
      const double residual =
          observed[static_cast<size_t>(s)] ? 0.0 : cost_[static_cast<size_t>(s)];
      if (residual == 0.0) free_.push_back({residual, s, -1});
    }
    for (int s : by_cost_) {
      if (observable[static_cast<size_t>(s)] &&
          !observed[static_cast<size_t>(s)] &&
          cost_[static_cast<size_t>(s)] != 0.0) {
        paid_.push_back({cost_[static_cast<size_t>(s)], s, -1});
      }
    }
    observations_.clear();
    std::merge(free_.begin(), free_.end(), paid_.begin(), paid_.end(),
               std::back_inserter(observations_),
               [](const Item& a, const Item& b) { return b > a; });
    for (const Item& item : observations_) {
      best_[static_cast<size_t>(item.stat)] =
          Derivation{item.cost, -1, false, true};
    }
  }

  void Collect(int stat, std::vector<int>* bundle) {
    int& stamp = visit_stamp_[static_cast<size_t>(stat)];
    if (stamp == stamp_) return;
    stamp = stamp_;
    const Derivation& d = best_[static_cast<size_t>(stat)];
    ETLOPT_CHECK(d.reachable);
    if (d.via_css < 0) {
      bundle->push_back(stat);
      return;
    }
    for (int in : catalog_.css_inputs(d.via_css)) Collect(in, bundle);
  }

  const CssCatalog& catalog_;
  const std::vector<double> cost_;  // per stat: observation cost
  std::vector<int> no_input_css_;
  std::vector<int> by_cost_;        // stat indices by (cost, index)

  uint32_t generation_ = 0;         // of the current search
  std::vector<Derivation> best_;    // per stat
  std::vector<uint32_t> wanted_;    // per stat: generation it is wanted in
  std::vector<int> visit_stamp_;    // per stat, CollectBundle's visited mark
  int stamp_ = 0;
  std::vector<CssState> css_;       // per CSS
  std::vector<Item> heap_;          // CSS candidates
  std::vector<Item> free_, paid_, observations_;
  size_t next_observation_ = 0;
};

// Decides, in order, which of tested[begin, end) are redundant, given that
// `closure` holds the forced observations, the kept part of tested[0,
// begin) and all of tested[end, size): a statistic is dropped from
// `observed` when every `required` statistic stays computable without it.
// This is the one-at-a-time reverse delete (every statistic tested against
// the ones kept before it and all after it), computed with the right half
// added once for the whole left half instead of once per test.
void DropRedundant(const std::vector<int>& tested, size_t begin, size_t end,
                   const std::vector<int>& required,
                   IncrementalClosure* closure, std::vector<char>* observed) {
  if (end - begin == 1) {
    if (std::all_of(required.begin(), required.end(),
                    [&](int s) { return closure->computable(s); })) {
      (*observed)[static_cast<size_t>(tested[begin])] = 0;
    }
    return;
  }
  const size_t mid = begin + (end - begin) / 2;
  const size_t mark = closure->Mark();
  for (size_t i = mid; i < end; ++i) closure->Add(tested[i]);
  DropRedundant(tested, begin, mid, required, closure, observed);
  closure->Rollback(mark);
  for (size_t i = begin; i < mid; ++i) {
    if ((*observed)[static_cast<size_t>(tested[i])]) closure->Add(tested[i]);
  }
  DropRedundant(tested, mid, end, required, closure, observed);
}

// One greedy pass (see SelectGreedyWithBudget), deriving with `search`,
// which was built for the costs of `problem`.
SelectionResult GreedyCover(const SelectionProblem& problem, double budget,
                            std::vector<int>* uncovered_required,
                            DerivationSearch* search) {
  const CssCatalog& catalog = *problem.catalog;
  const int n = catalog.num_stats();

  SelectionResult result;
  result.method = "greedy";
  if (uncovered_required != nullptr) uncovered_required->clear();

  obs::ScopedSpan span("opt.select_greedy");
  span.Arg("stats", static_cast<int64_t>(n));
  span.Arg("css", static_cast<int64_t>(catalog.num_css()));
  int64_t iterations = 0;

  auto forced = [&](int s) {
    return static_cast<size_t>(s) < problem.must_observe.size() &&
           problem.must_observe[static_cast<size_t>(s)];
  };
  std::vector<char> observed(static_cast<size_t>(n), 0);
  IncrementalClosure closure(catalog);
  double spent = 0.0;
  // Drift-flagged statistics are pre-seeded into the cover: they must be
  // re-observed regardless of what the derivation graph could supply.
  for (int s = 0; s < n; ++s) {
    if (forced(s)) {
      observed[static_cast<size_t>(s)] = 1;
      spent += problem.cost[static_cast<size_t>(s)];
      closure.Add(s);
    }
  }
  std::vector<char> deferred(static_cast<size_t>(n), 0);
  std::vector<int> pending;
  std::vector<int> tier;
  std::vector<int> bundle;

  for (;;) {
    ++iterations;
    // Uncovered, not yet deferred required statistics.
    pending.clear();
    for (int s = 0; s < n; ++s) {
      if (problem.required[static_cast<size_t>(s)] && !closure.computable(s) &&
          !deferred[static_cast<size_t>(s)]) {
        pending.push_back(s);
      }
    }
    if (pending.empty()) break;
    // Pick the first pending statistic, by (derivation cost, index), whose
    // bundle fits the budget; the ones before it are deferred.
    search->Start(problem.observable, observed, pending);
    double added = 0.0;
    bool progressed = false;
    while (!progressed && search->NextTier(&tier)) {
      for (int pick : tier) {
        search->CollectBundle(pick, &bundle);
        // Actual incremental cost (the scalar derivation cost may double
        // count shared inputs).
        added = 0.0;
        for (int s : bundle) {
          if (!observed[static_cast<size_t>(s)]) {
            added += problem.cost[static_cast<size_t>(s)];
          }
        }
        if (spent + added > budget) {
          deferred[static_cast<size_t>(pick)] = 1;
          continue;
        }
        progressed = true;
        break;
      }
    }
    if (!progressed) break;  // nothing affordable/reachable remains
    for (int s : bundle) {
      if (!observed[static_cast<size_t>(s)]) {
        observed[static_cast<size_t>(s)] = 1;
        closure.Add(s);
      }
    }
    spent += added;
  }

  result.feasible = true;
  std::vector<int> required;
  for (int s = 0; s < n; ++s) {
    if (!problem.required[static_cast<size_t>(s)]) continue;
    required.push_back(s);
    if (!closure.computable(s)) {
      result.feasible = false;
      if (uncovered_required != nullptr) uncovered_required->push_back(s);
    }
  }
  // A partial cover (budget mode) is reported as chosen so far; a full one
  // first drops observations that became redundant (most expensive first;
  // forced observations are never redundant).
  if (result.feasible) {
    std::vector<int> kept;
    for (int s = 0; s < n; ++s) {
      if (observed[static_cast<size_t>(s)]) kept.push_back(s);
    }
    // Ties in cost go to the lower statistic index, so the drop order does
    // not rest on std::sort's unspecified order of equal elements.
    std::sort(kept.begin(), kept.end(), [&](int a, int b) {
      const double ca = problem.cost[static_cast<size_t>(a)];
      const double cb = problem.cost[static_cast<size_t>(b)];
      return ca != cb ? ca > cb : a < b;
    });
    IncrementalClosure base(catalog);
    std::vector<int> tested;
    for (int s : kept) {
      if (forced(s)) {
        base.Add(s);
      } else {
        tested.push_back(s);
      }
    }
    if (!tested.empty()) {
      DropRedundant(tested, 0, tested.size(), required, &base, &observed);
    }
  }

  for (int s = 0; s < n; ++s) {
    if (observed[static_cast<size_t>(s)]) {
      result.observed.push_back(s);
      result.total_cost += problem.cost[static_cast<size_t>(s)];
    }
  }
  result.greedy_iterations = iterations;
  span.Arg("iterations", iterations);
  span.Arg("observed", static_cast<int64_t>(result.observed.size()));
  return result;
}

}  // namespace

SelectionResult SelectGreedyWithBudget(const SelectionProblem& problem,
                                       double budget,
                                       std::vector<int>* uncovered_required) {
  DerivationSearch search(*problem.catalog, problem.cost);
  return GreedyCover(problem, budget, uncovered_required, &search);
}

SelectionResult SelectGreedy(const SelectionProblem& problem) {
  DerivationSearch search(*problem.catalog, problem.cost);
  SelectionResult best = GreedyCover(problem, kInf, nullptr, &search);

  // The union-division CSSs strictly enlarge the search space, but a greedy
  // heuristic with more options can land on a worse cover. Re-run with the
  // reject statistics disabled (which neutralizes every J4/J5 CSS, since
  // reject statistics are observation-only) and keep the cheaper cover —
  // any cover found this way is valid for the original problem.
  bool has_reject = false;
  for (int s = 0; s < problem.num_stats(); ++s) {
    if (problem.observable[static_cast<size_t>(s)] &&
        problem.catalog->stat(s).is_reject()) {
      has_reject = true;
      break;
    }
  }
  if (has_reject) {
    SelectionProblem no_ud = problem;
    for (int s = 0; s < problem.num_stats(); ++s) {
      if (problem.catalog->stat(s).is_reject()) {
        no_ud.observable[static_cast<size_t>(s)] = 0;
      }
    }
    SelectionResult alt = GreedyCover(no_ud, kInf, nullptr, &search);
    const int64_t iterations = best.greedy_iterations + alt.greedy_iterations;
    if (alt.feasible &&
        (!best.feasible || alt.total_cost < best.total_cost - 1e-9)) {
      alt.method = "greedy(no-ud-pass)";
      best = std::move(alt);
    }
    best.greedy_iterations = iterations;
  }
  return best;
}

SelectionResult SelectExhaustive(const SelectionProblem& problem,
                                 int max_candidates) {
  const int n = problem.num_stats();
  // Forced statistics are part of every candidate cover, so they leave the
  // include/exclude search entirely.
  std::vector<int> forced;
  double forced_cost = 0.0;
  std::vector<int> candidates;
  for (int s = 0; s < n; ++s) {
    if (!problem.observable[static_cast<size_t>(s)]) continue;
    if (static_cast<size_t>(s) < problem.must_observe.size() &&
        problem.must_observe[static_cast<size_t>(s)]) {
      forced.push_back(s);
      forced_cost += problem.cost[static_cast<size_t>(s)];
    } else {
      candidates.push_back(s);
    }
  }
  SelectionResult result;
  result.method = "exhaustive";
  if (static_cast<int>(candidates.size()) > max_candidates) {
    result.feasible = false;
    return result;
  }
  // Cheapest-first ordering helps the branch-and-bound prune.
  std::sort(candidates.begin(), candidates.end(), [&](int a, int b) {
    return problem.cost[static_cast<size_t>(a)] <
           problem.cost[static_cast<size_t>(b)];
  });

  std::vector<int> current = forced;
  std::vector<int> best;
  double best_cost = kInf;

  // DFS over include/exclude decisions with cost pruning.
  std::function<void(size_t, double)> dfs = [&](size_t i, double cost) {
    if (cost >= best_cost) return;
    if (SelectionCovers(problem, current)) {
      best_cost = cost;
      best = current;
      return;
    }
    if (i >= candidates.size()) return;
    // Include candidate i.
    current.push_back(candidates[i]);
    dfs(i + 1, cost + problem.cost[static_cast<size_t>(candidates[i])]);
    current.pop_back();
    // Exclude candidate i.
    dfs(i + 1, cost);
  };
  dfs(0, forced_cost);

  if (best_cost >= kInf) {
    result.feasible = false;
    return result;
  }
  result.feasible = true;
  result.proven_optimal = true;
  result.total_cost = best_cost;
  result.observed = best;
  std::sort(result.observed.begin(), result.observed.end());
  return result;
}

}  // namespace etlopt
