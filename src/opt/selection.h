#ifndef ETLOPT_OPT_SELECTION_H_
#define ETLOPT_OPT_SELECTION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "css/css.h"
#include "planspace/plan_space.h"
#include "stats/cost_model.h"

namespace etlopt {

// The statistics-selection instance of Section 5.1: the universe S (from the
// CSS catalog), which statistics are observable in the initial plan (S_O),
// which must be computable (S_C — the cardinality of every SE), and the
// observation cost c_i of each observable statistic.
struct SelectionProblem {
  const CssCatalog* catalog = nullptr;
  std::vector<double> cost;       // per stat index
  std::vector<char> observable;   // per stat index (S_O membership)
  std::vector<char> required;     // per stat index (S_C membership)
  // Per stat index: statistics every selection must include (drift-flagged
  // taps being re-instrumented). Always a subset of `observable`.
  std::vector<char> must_observe;

  int num_stats() const { return catalog->num_stats(); }
};

struct SelectionOptions {
  // Statistics already available from the source systems (Section 6.2);
  // added to S_O with zero cost.
  std::vector<StatKey> free_source_stats;
  // Statistics the drift detector flagged as stale: if observable, they are
  // forced into every selection so the next run refreshes them.
  std::vector<StatKey> force_observe;
};

// Builds the instance from a block's CSS catalog: observability from the
// initial plan, costs from the cost model, requirements = Card(e) for every
// SE in E.
SelectionProblem BuildSelectionProblem(const BlockContext& ctx,
                                       const PlanSpace& plan_space,
                                       const CssCatalog& catalog,
                                       const CostModel& cost_model,
                                       const SelectionOptions& options = {});

// The outcome of statistics selection.
struct SelectionResult {
  bool feasible = false;
  bool proven_optimal = false;
  double total_cost = 0.0;
  std::vector<int> observed;  // stat indices to observe
  std::string method;         // "greedy", "ilp", "ilp(greedy-fallback)", ...
  // Search effort: greedy iterations (the ILP's warm start included), LP
  // relaxations solved and simplex pivots taken (ILP only).
  int64_t greedy_iterations = 0;
  int64_t lp_solves = 0;
  int64_t simplex_pivots = 0;

  std::vector<StatKey> ObservedKeys(const CssCatalog& catalog) const;
};

// Shared sanity check: does observing `observed` make every required
// statistic computable (under monotone closure semantics)?
bool SelectionCovers(const SelectionProblem& problem,
                     const std::vector<int>& observed);

}  // namespace etlopt

#endif  // ETLOPT_OPT_SELECTION_H_
