#ifndef ETLOPT_LP_ILP_H_
#define ETLOPT_LP_ILP_H_

#include <functional>
#include <vector>

#include "lp/simplex.h"

namespace etlopt {

struct IlpOptions {
  int max_nodes = 20000;
  double time_limit_seconds = 10.0;
  double integrality_tolerance = 1e-6;
  SimplexOptions simplex;
  // Optional warm-start incumbent (full variable assignment). When provided,
  // its objective prunes the search from the first node.
  std::vector<double> initial_incumbent;
  // Optional semantic check run on every integral candidate. Returning false
  // rejects the candidate (used to enforce the monotone-closure semantics on
  // top of the paper's y/z constraint relaxation, see DESIGN.md §5).
  std::function<bool(const std::vector<double>&)> incumbent_filter;
};

struct IlpSolution {
  LpStatus status = LpStatus::kInfeasible;
  double objective = 0.0;
  std::vector<double> values;
  int explored_nodes = 0;
  bool proven_optimal = false;  // false when node/time limits truncated search
  // LP relaxations solved and simplex pivots they took, across the search.
  int64_t lp_solves = 0;
  int64_t simplex_pivots = 0;
};

// Solves min c·x with the LP's constraints where the variables listed in
// `integer_vars` must take integral values (typically 0/1 via their bounds).
// Branch-and-bound on the LP relaxation, best-first by bound.
IlpSolution SolveIlp(const LinearProgram& lp,
                     const std::vector<int>& integer_vars,
                     const IlpOptions& options = {});

}  // namespace etlopt

#endif  // ETLOPT_LP_ILP_H_
