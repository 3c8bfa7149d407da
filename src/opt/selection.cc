#include "opt/selection.h"

#include "opt/closure.h"
#include "planspace/observability.h"

namespace etlopt {

SelectionProblem BuildSelectionProblem(const BlockContext& ctx,
                                       const PlanSpace& plan_space,
                                       const CssCatalog& catalog,
                                       const CostModel& cost_model,
                                       const SelectionOptions& options) {
  SelectionProblem problem;
  problem.catalog = &catalog;
  const int n = catalog.num_stats();
  problem.cost.assign(static_cast<size_t>(n), 0.0);
  problem.observable.assign(static_cast<size_t>(n), 0);
  problem.required.assign(static_cast<size_t>(n), 0);
  problem.must_observe.assign(static_cast<size_t>(n), 0);

  for (int i = 0; i < n; ++i) {
    const StatKey& key = catalog.stat(i);
    if (IsObservable(key, ctx)) {
      problem.observable[static_cast<size_t>(i)] = 1;
      problem.cost[static_cast<size_t>(i)] = cost_model.Cost(key);
    }
  }
  // Pre-existing source statistics cost nothing to "observe" (Section 6.2).
  for (const StatKey& key : options.free_source_stats) {
    const int idx = catalog.IndexOf(key);
    if (idx >= 0) {
      problem.observable[static_cast<size_t>(idx)] = 1;
      problem.cost[static_cast<size_t>(idx)] = 0.0;
    }
  }
  // Drift-flagged statistics must be re-observed; only observable ones can
  // be forced (the rest can only be refreshed transitively).
  for (const StatKey& key : options.force_observe) {
    const int idx = catalog.IndexOf(key);
    if (idx >= 0 && problem.observable[static_cast<size_t>(idx)]) {
      problem.must_observe[static_cast<size_t>(idx)] = 1;
    }
  }
  // S_C: the cardinality of every SE in E.
  for (RelMask se : plan_space.subexpressions()) {
    const int idx = catalog.IndexOf(StatKey::Card(se));
    ETLOPT_CHECK(idx >= 0);
    problem.required[static_cast<size_t>(idx)] = 1;
  }
  return problem;
}

std::vector<StatKey> SelectionResult::ObservedKeys(
    const CssCatalog& catalog) const {
  std::vector<StatKey> keys;
  keys.reserve(observed.size());
  for (int idx : observed) keys.push_back(catalog.stat(idx));
  return keys;
}

bool SelectionCovers(const SelectionProblem& problem,
                     const std::vector<int>& observed) {
  IncrementalClosure closure(*problem.catalog);
  for (int idx : observed) closure.Add(idx);
  for (int i = 0; i < problem.num_stats(); ++i) {
    if (problem.required[static_cast<size_t>(i)] && !closure.computable(i)) {
      return false;
    }
  }
  return true;
}

}  // namespace etlopt
