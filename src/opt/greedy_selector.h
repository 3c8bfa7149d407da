#ifndef ETLOPT_OPT_GREEDY_SELECTOR_H_
#define ETLOPT_OPT_GREEDY_SELECTOR_H_

#include "opt/selection.h"

namespace etlopt {

// The greedy heuristic of Section 5.3: in each round, cover one still-
// uncovered required statistic with its cheapest observation bundle under
// *residual* costs (statistics already chosen cost nothing more, which gives
// the amortization the paper motivates with Figure 7), the lowest stat index
// winning ties. Bundle costs are computed with a Knuth-style AND-OR
// shortest-derivation pass over the CSS graph. A reverse-delete pass then
// removes redundant observations, most expensive first.
SelectionResult SelectGreedy(const SelectionProblem& problem);

// Budgeted variant (Section 6.1): stops adding observations once the budget
// would be exceeded. Required statistics left uncovered are reported through
// `uncovered_required` (stat indices); the result is flagged infeasible when
// any remain. Pass an infinite budget to recover SelectGreedy.
SelectionResult SelectGreedyWithBudget(const SelectionProblem& problem,
                                       double budget,
                                       std::vector<int>* uncovered_required);

// Exhaustive minimum-cost search over subsets of observable statistics;
// exponential, only for small instances (testing / calibration). Instances
// with more than `max_candidates` observable statistics return an infeasible
// result.
SelectionResult SelectExhaustive(const SelectionProblem& problem,
                                 int max_candidates = 24);

}  // namespace etlopt

#endif  // ETLOPT_OPT_GREEDY_SELECTOR_H_
