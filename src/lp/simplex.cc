#include "lp/simplex.h"

#include <cmath>

#include "obs/trace.h"
#include "util/common.h"

namespace etlopt {

int LinearProgram::AddVariable(double cost, double lower, double upper) {
  ETLOPT_CHECK(lower <= upper);
  costs_.push_back(cost);
  lower_.push_back(lower);
  upper_.push_back(upper);
  return static_cast<int>(costs_.size()) - 1;
}

void LinearProgram::AddConstraint(LpConstraint constraint) {
  for (const auto& [var, coeff] : constraint.terms) {
    ETLOPT_CHECK(var >= 0 && var < num_variables());
    (void)coeff;
  }
  constraints_.push_back(std::move(constraint));
}

void LinearProgram::SetBounds(int var, double lower, double upper) {
  ETLOPT_CHECK(var >= 0 && var < num_variables());
  ETLOPT_CHECK(lower <= upper);
  lower_[var] = lower;
  upper_[var] = upper;
}

namespace {

// Dense simplex working state over the standard-form tableau.
class Tableau {
 public:
  Tableau(int rows, int cols) : rows_(rows), cols_(cols) {
    data_.assign(static_cast<size_t>(rows) * cols, 0.0);
  }

  double& At(int r, int c) { return data_[static_cast<size_t>(r) * cols_ + c]; }
  double At(int r, int c) const {
    return data_[static_cast<size_t>(r) * cols_ + c];
  }

  int rows() const { return rows_; }
  int cols() const { return cols_; }

  // Gauss-Jordan pivot on (pr, pc).
  void Pivot(int pr, int pc) {
    const double p = At(pr, pc);
    const double inv = 1.0 / p;
    for (int c = 0; c < cols_; ++c) At(pr, c) *= inv;
    At(pr, pc) = 1.0;
    for (int r = 0; r < rows_; ++r) {
      if (r == pr) continue;
      const double f = At(r, pc);
      if (f == 0.0) continue;
      for (int c = 0; c < cols_; ++c) At(r, c) -= f * At(pr, c);
      At(r, pc) = 0.0;
    }
  }

 private:
  int rows_;
  int cols_;
  std::vector<double> data_;
};

struct StandardForm {
  // One column per shifted structural variable plus slacks; artificials are
  // appended by the solver. `var_column[i]` is -1 when variable i is fixed.
  std::vector<int> var_column;
  std::vector<double> shift;        // x = shift + x'
  int num_columns = 0;              // structural + slack columns
  Tableau* tableau = nullptr;       // not owned
  std::vector<ConstraintSense> row_sense;
};

enum class PivotResult { kOptimal, kUnbounded, kIterationLimit };

// Runs simplex iterations for the given phase cost vector. `costs` has one
// entry per tableau column (excluding the rhs column, which is last).
PivotResult RunSimplex(Tableau& tab, std::vector<int>& basis,
                       const std::vector<double>& costs,
                       const SimplexOptions& options, double tol,
                       int64_t* pivots) {
  const int m = tab.rows();
  const int n = tab.cols() - 1;  // last column is rhs
  const int rhs = n;
  int degenerate_steps = 0;
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    // Price: reduced cost r_j = c_j - sum_i c_B[i] * tab[i][j].
    const bool bland = degenerate_steps > 2 * (m + n);
    int entering = -1;
    double best = -tol;
    for (int j = 0; j < n; ++j) {
      double r = costs[j];
      for (int i = 0; i < m; ++i) {
        const double a = tab.At(i, j);
        if (a != 0.0) r -= costs[static_cast<size_t>(basis[i])] * a;
      }
      if (r < -tol) {
        if (bland) {
          entering = j;
          break;
        }
        if (r < best) {
          best = r;
          entering = j;
        }
      }
    }
    if (entering < 0) return PivotResult::kOptimal;

    // Ratio test.
    int leaving = -1;
    double best_ratio = 0.0;
    for (int i = 0; i < m; ++i) {
      const double a = tab.At(i, entering);
      if (a > tol) {
        const double ratio = tab.At(i, rhs) / a;
        if (leaving < 0 || ratio < best_ratio - tol ||
            (ratio < best_ratio + tol && basis[i] < basis[leaving])) {
          leaving = i;
          best_ratio = ratio;
        }
      }
    }
    if (leaving < 0) return PivotResult::kUnbounded;
    if (best_ratio < tol) {
      ++degenerate_steps;
    } else {
      degenerate_steps = 0;
    }
    tab.Pivot(leaving, entering);
    basis[static_cast<size_t>(leaving)] = entering;
    ++*pivots;
  }
  return PivotResult::kIterationLimit;
}

}  // namespace

LpSolution SolveLp(const LinearProgram& lp, const SimplexOptions& options) {
  const double tol = options.tolerance;
  const int nvars = lp.num_variables();

  // Shift variables to x = lower + x' with x' >= 0; fixed variables become
  // constants. Finite upper bounds become extra <= rows.
  std::vector<int> var_column(static_cast<size_t>(nvars), -1);
  std::vector<double> shift(static_cast<size_t>(nvars), 0.0);
  int next_col = 0;
  for (int i = 0; i < nvars; ++i) {
    shift[static_cast<size_t>(i)] = lp.lower_bounds()[static_cast<size_t>(i)];
    if (lp.upper_bounds()[static_cast<size_t>(i)] -
            lp.lower_bounds()[static_cast<size_t>(i)] >
        tol) {
      var_column[static_cast<size_t>(i)] = next_col++;
    }
  }
  const int nstruct = next_col;

  struct Row {
    std::vector<double> coeffs;  // dense over structural columns
    ConstraintSense sense;
    double rhs;
  };
  std::vector<Row> rows;
  rows.reserve(static_cast<size_t>(lp.num_constraints()) + nstruct);
  for (const auto& c : lp.constraints()) {
    Row row;
    row.coeffs.assign(static_cast<size_t>(nstruct), 0.0);
    row.sense = c.sense;
    row.rhs = c.rhs;
    for (const auto& [var, coeff] : c.terms) {
      row.rhs -= coeff * shift[static_cast<size_t>(var)];
      const int col = var_column[static_cast<size_t>(var)];
      if (col >= 0) row.coeffs[static_cast<size_t>(col)] += coeff;
    }
    rows.push_back(std::move(row));
  }
  for (int i = 0; i < nvars; ++i) {
    const int col = var_column[static_cast<size_t>(i)];
    const double ub = lp.upper_bounds()[static_cast<size_t>(i)];
    if (col >= 0 && ub != LinearProgram::kInfinity) {
      Row row;
      row.coeffs.assign(static_cast<size_t>(nstruct), 0.0);
      row.coeffs[static_cast<size_t>(col)] = 1.0;
      row.sense = ConstraintSense::kLessEqual;
      row.rhs = ub - shift[static_cast<size_t>(i)];
      rows.push_back(std::move(row));
    }
  }

  // Normalize to rhs >= 0 (flip rows), then add slack / artificial columns.
  const int m = static_cast<int>(rows.size());
  for (auto& row : rows) {
    if (row.rhs < 0.0) {
      row.rhs = -row.rhs;
      for (double& v : row.coeffs) v = -v;
      if (row.sense == ConstraintSense::kLessEqual) {
        row.sense = ConstraintSense::kGreaterEqual;
      } else if (row.sense == ConstraintSense::kGreaterEqual) {
        row.sense = ConstraintSense::kLessEqual;
      }
    }
  }
  int nslack = 0;
  int nartificial = 0;
  for (const auto& row : rows) {
    if (row.sense != ConstraintSense::kEqual) ++nslack;
    if (row.sense != ConstraintSense::kLessEqual) ++nartificial;
  }
  const int ncols = nstruct + nslack + nartificial;
  Tableau tab(m, ncols + 1);
  std::vector<int> basis(static_cast<size_t>(m), -1);
  int slack_at = nstruct;
  int art_at = nstruct + nslack;
  for (int r = 0; r < m; ++r) {
    const Row& row = rows[static_cast<size_t>(r)];
    for (int c = 0; c < nstruct; ++c) {
      tab.At(r, c) = row.coeffs[static_cast<size_t>(c)];
    }
    tab.At(r, ncols) = row.rhs;
    switch (row.sense) {
      case ConstraintSense::kLessEqual:
        tab.At(r, slack_at) = 1.0;
        basis[static_cast<size_t>(r)] = slack_at++;
        break;
      case ConstraintSense::kGreaterEqual:
        tab.At(r, slack_at++) = -1.0;
        tab.At(r, art_at) = 1.0;
        basis[static_cast<size_t>(r)] = art_at++;
        break;
      case ConstraintSense::kEqual:
        tab.At(r, art_at) = 1.0;
        basis[static_cast<size_t>(r)] = art_at++;
        break;
    }
  }

  LpSolution solution;

  // Phase 1: minimize sum of artificials.
  if (nartificial > 0) {
    std::vector<double> phase1(static_cast<size_t>(ncols), 0.0);
    for (int j = nstruct + nslack; j < ncols; ++j) {
      phase1[static_cast<size_t>(j)] = 1.0;
    }
    const PivotResult res = RunSimplex(tab, basis, phase1, options, tol,
                                         &solution.pivots);
    if (res == PivotResult::kIterationLimit) {
      solution.status = LpStatus::kIterationLimit;
      return solution;
    }
    double infeas = 0.0;
    for (int i = 0; i < m; ++i) {
      if (basis[static_cast<size_t>(i)] >= nstruct + nslack) {
        infeas += tab.At(i, ncols);
      }
    }
    if (infeas > 1e-7) {
      solution.status = LpStatus::kInfeasible;
      return solution;
    }
    // Drive remaining (degenerate) artificials out of the basis if possible.
    for (int i = 0; i < m; ++i) {
      if (basis[static_cast<size_t>(i)] < nstruct + nslack) continue;
      int pc = -1;
      for (int j = 0; j < nstruct + nslack; ++j) {
        if (std::fabs(tab.At(i, j)) > tol) {
          pc = j;
          break;
        }
      }
      if (pc >= 0) {
        tab.Pivot(i, pc);
        basis[static_cast<size_t>(i)] = pc;
      }
      // Otherwise the row is all-zero over real columns: redundant, harmless.
    }
  }

  // Phase 2: original objective over structural columns (slacks cost 0;
  // artificial columns are priced +inf-like by giving them huge cost so they
  // never re-enter).
  std::vector<double> phase2(static_cast<size_t>(ncols), 0.0);
  for (int i = 0; i < nvars; ++i) {
    const int col = var_column[static_cast<size_t>(i)];
    if (col >= 0) {
      phase2[static_cast<size_t>(col)] += lp.costs()[static_cast<size_t>(i)];
    }
  }
  for (int j = nstruct + nslack; j < ncols; ++j) {
    phase2[static_cast<size_t>(j)] = 1e30;
  }
  const PivotResult res = RunSimplex(tab, basis, phase2, options, tol,
                                       &solution.pivots);
  if (res == PivotResult::kIterationLimit) {
    solution.status = LpStatus::kIterationLimit;
    return solution;
  }
  if (res == PivotResult::kUnbounded) {
    solution.status = LpStatus::kUnbounded;
    return solution;
  }

  solution.status = LpStatus::kOptimal;
  solution.values.assign(static_cast<size_t>(nvars), 0.0);
  std::vector<double> col_value(static_cast<size_t>(ncols), 0.0);
  for (int i = 0; i < m; ++i) {
    col_value[static_cast<size_t>(basis[static_cast<size_t>(i)])] =
        tab.At(i, ncols);
  }
  double objective = 0.0;
  for (int i = 0; i < nvars; ++i) {
    const int col = var_column[static_cast<size_t>(i)];
    const double x = shift[static_cast<size_t>(i)] +
                     (col >= 0 ? col_value[static_cast<size_t>(col)] : 0.0);
    solution.values[static_cast<size_t>(i)] = x;
    objective += lp.costs()[static_cast<size_t>(i)] * x;
  }
  solution.objective = objective;
  return solution;
}

}  // namespace etlopt
