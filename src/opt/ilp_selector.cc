#include "opt/ilp_selector.h"

#include "lp/ilp.h"
#include "obs/trace.h"
#include "opt/closure.h"
#include "opt/greedy_selector.h"

namespace etlopt {

SelectionResult SelectIlp(const SelectionProblem& problem,
                          const IlpSelectorOptions& options) {
  const CssCatalog& catalog = *problem.catalog;
  const int n = catalog.num_stats();
  const int m = catalog.num_css();

  obs::ScopedSpan span("opt.select_ilp");
  span.Arg("stats", static_cast<int64_t>(n));
  span.Arg("css", static_cast<int64_t>(m));

  // Warm start (and fallback) from the greedy heuristic.
  SelectionResult greedy = SelectGreedy(problem);
  if (!greedy.feasible) return greedy;

  // Size guard: estimate the simplex tableau footprint.
  int num_x = 0;
  for (int s = 0; s < n; ++s) {
    if (problem.observable[static_cast<size_t>(s)]) ++num_x;
  }
  const int64_t vars = static_cast<int64_t>(num_x) + n + m;
  const int64_t rows = static_cast<int64_t>(m) * 2 + n * 2 + vars;  // + bounds
  const int64_t cells = rows * (vars + 2 * rows + 1);
  if (cells > options.max_tableau_cells) {
    greedy.method = "ilp(greedy-fallback:size)";
    return greedy;
  }

  // ---- Build the Section 5.2 program ----
  LinearProgram lp;
  std::vector<int> x_var(static_cast<size_t>(n), -1);
  std::vector<int> y_var(static_cast<size_t>(n), -1);
  std::vector<int> z_var(static_cast<size_t>(m), -1);

  for (int s = 0; s < n; ++s) {
    if (problem.observable[static_cast<size_t>(s)]) {
      // Forced (drift-flagged) statistics get x_i fixed to 1.
      const bool forced =
          static_cast<size_t>(s) < problem.must_observe.size() &&
          problem.must_observe[static_cast<size_t>(s)];
      x_var[static_cast<size_t>(s)] = lp.AddVariable(
          problem.cost[static_cast<size_t>(s)], forced ? 1.0 : 0.0, 1.0);
    }
  }
  for (int s = 0; s < n; ++s) {
    const double lo = problem.required[static_cast<size_t>(s)] ? 1.0 : 0.0;
    y_var[static_cast<size_t>(s)] = lp.AddVariable(0.0, lo, 1.0);
  }
  for (int c = 0; c < m; ++c) {
    z_var[static_cast<size_t>(c)] = lp.AddVariable(0.0, 0.0, 1.0);
  }

  // CSS covered only if all members computable: Σ y_k ≥ |CSS| z_j;
  // and covered implies computable: y_target ≥ z_j.
  for (int c = 0; c < m; ++c) {
    const std::span<const int> inputs = catalog.css_inputs(c);
    LpConstraint cover;
    cover.sense = ConstraintSense::kGreaterEqual;
    cover.rhs = 0.0;
    for (int in : inputs) {
      cover.terms.push_back({y_var[static_cast<size_t>(in)], 1.0});
    }
    cover.terms.push_back({z_var[static_cast<size_t>(c)],
                           -static_cast<double>(inputs.size())});
    lp.AddConstraint(std::move(cover));

    LpConstraint implies;
    implies.sense = ConstraintSense::kGreaterEqual;
    implies.rhs = 0.0;
    implies.terms = {{y_var[static_cast<size_t>(catalog.css_target(c))], 1.0},
                     {z_var[static_cast<size_t>(c)], -1.0}};
    lp.AddConstraint(std::move(implies));
  }

  // Computable iff observed or some CSS covered.
  for (int s = 0; s < n; ++s) {
    const bool has_css = !catalog.css_of(s).empty();
    const int xv = x_var[static_cast<size_t>(s)];
    const int yv = y_var[static_cast<size_t>(s)];
    if (xv >= 0 && !has_css) {
      LpConstraint eq;  // y_i = x_i
      eq.sense = ConstraintSense::kEqual;
      eq.rhs = 0.0;
      eq.terms = {{yv, 1.0}, {xv, -1.0}};
      lp.AddConstraint(std::move(eq));
      continue;
    }
    if (xv >= 0) {
      LpConstraint ge;  // y_i ≥ x_i
      ge.sense = ConstraintSense::kGreaterEqual;
      ge.rhs = 0.0;
      ge.terms = {{yv, 1.0}, {xv, -1.0}};
      lp.AddConstraint(std::move(ge));
    }
    // 'only if': y_i ≤ x_i + Σ_j z_ij.
    LpConstraint only_if;
    only_if.sense = ConstraintSense::kLessEqual;
    only_if.rhs = 0.0;
    only_if.terms.push_back({yv, 1.0});
    if (xv >= 0) only_if.terms.push_back({xv, -1.0});
    for (int c : catalog.css_of(s)) {
      only_if.terms.push_back({z_var[static_cast<size_t>(c)], -1.0});
    }
    lp.AddConstraint(std::move(only_if));
  }

  // Integral decision variables: x only. y/z stay continuous; the incumbent
  // filter enforces true (closure) semantics on candidates.
  std::vector<int> integer_vars;
  for (int s = 0; s < n; ++s) {
    if (x_var[static_cast<size_t>(s)] >= 0) {
      integer_vars.push_back(x_var[static_cast<size_t>(s)]);
    }
  }

  IlpOptions ilp_options;
  ilp_options.max_nodes = options.max_nodes;
  ilp_options.time_limit_seconds = options.time_limit_seconds;
  ilp_options.incumbent_filter = [&](const std::vector<double>& values) {
    std::vector<int> observed;
    for (int s = 0; s < n; ++s) {
      const int xv = x_var[static_cast<size_t>(s)];
      if (xv >= 0 && values[static_cast<size_t>(xv)] > 0.5) {
        observed.push_back(s);
      }
    }
    return SelectionCovers(problem, observed);
  };

  // Warm start from the greedy solution.
  {
    std::vector<double> warm(static_cast<size_t>(lp.num_variables()), 0.0);
    IncrementalClosure closure(catalog);
    for (int s : greedy.observed) {
      closure.Add(s);
      const int xv = x_var[static_cast<size_t>(s)];
      if (xv >= 0) warm[static_cast<size_t>(xv)] = 1.0;
    }
    for (int s = 0; s < n; ++s) {
      warm[static_cast<size_t>(y_var[static_cast<size_t>(s)])] =
          closure.computable(s) ? 1.0 : 0.0;
    }
    for (int c = 0; c < m; ++c) {
      bool covered = true;
      for (int in : catalog.css_inputs(c)) {
        if (!closure.computable(in)) {
          covered = false;
          break;
        }
      }
      warm[static_cast<size_t>(z_var[static_cast<size_t>(c)])] =
          covered ? 1.0 : 0.0;
    }
    ilp_options.initial_incumbent = std::move(warm);
  }

  span.Arg("lp_vars", static_cast<int64_t>(lp.num_variables()));
  span.Arg("lp_constraints", static_cast<int64_t>(lp.num_constraints()));

  const IlpSolution sol = SolveIlp(lp, integer_vars, ilp_options);
  greedy.lp_solves = sol.lp_solves;
  greedy.simplex_pivots = sol.simplex_pivots;
  if (sol.status != LpStatus::kOptimal) {
    greedy.method = "ilp(greedy-fallback:" +
                    std::string(sol.status == LpStatus::kIterationLimit
                                    ? "limit"
                                    : "infeasible") +
                    ")";
    return greedy;
  }

  SelectionResult result;
  result.feasible = true;
  result.proven_optimal = sol.proven_optimal;
  result.greedy_iterations = greedy.greedy_iterations;
  result.lp_solves = sol.lp_solves;
  result.simplex_pivots = sol.simplex_pivots;
  result.method = sol.proven_optimal ? "ilp" : "ilp(truncated)";
  for (int s = 0; s < n; ++s) {
    const int xv = x_var[static_cast<size_t>(s)];
    if (xv >= 0 && sol.values[static_cast<size_t>(xv)] > 0.5) {
      result.observed.push_back(s);
      result.total_cost += problem.cost[static_cast<size_t>(s)];
    }
  }
  // The ILP may return the warm-start incumbent itself; keep whichever is
  // cheaper and guaranteed covering.
  if (!SelectionCovers(problem, result.observed) ||
      greedy.total_cost < result.total_cost - 1e-9) {
    greedy.method = "ilp(greedy-kept)";
    return greedy;
  }
  return result;
}

}  // namespace etlopt
