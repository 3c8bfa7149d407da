#ifndef ETLOPT_LP_SIMPLEX_H_
#define ETLOPT_LP_SIMPLEX_H_

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "util/status.h"

namespace etlopt {

// Relation of a linear constraint to its right-hand side.
enum class ConstraintSense { kLessEqual, kGreaterEqual, kEqual };

// One linear constraint: sum(coeff * var) sense rhs.
struct LpConstraint {
  std::vector<std::pair<int, double>> terms;  // (variable index, coefficient)
  ConstraintSense sense = ConstraintSense::kLessEqual;
  double rhs = 0.0;
};

// A linear program: minimize cost·x subject to constraints and per-variable
// bounds [lower, upper] (upper may be +inf). Used by the statistics-selection
// ILP of Section 5.2 of the paper.
class LinearProgram {
 public:
  static constexpr double kInfinity = std::numeric_limits<double>::infinity();

  // Returns the new variable's index.
  int AddVariable(double cost, double lower = 0.0, double upper = kInfinity);

  void AddConstraint(LpConstraint constraint);

  int num_variables() const { return static_cast<int>(costs_.size()); }
  int num_constraints() const { return static_cast<int>(constraints_.size()); }

  const std::vector<double>& costs() const { return costs_; }
  const std::vector<double>& lower_bounds() const { return lower_; }
  const std::vector<double>& upper_bounds() const { return upper_; }
  const std::vector<LpConstraint>& constraints() const { return constraints_; }

  // Mutable bounds are used by the branch-and-bound driver.
  void SetBounds(int var, double lower, double upper);

 private:
  std::vector<double> costs_;
  std::vector<double> lower_;
  std::vector<double> upper_;
  std::vector<LpConstraint> constraints_;
};

enum class LpStatus { kOptimal, kInfeasible, kUnbounded, kIterationLimit };

struct LpSolution {
  LpStatus status = LpStatus::kInfeasible;
  double objective = 0.0;
  std::vector<double> values;
  int64_t pivots = 0;  // simplex pivots over both phases
};

struct SimplexOptions {
  int max_iterations = 200000;
  double tolerance = 1e-9;
};

// Solves the LP with a dense two-phase primal simplex. Suitable for the
// small/medium instances produced by per-workflow statistics selection.
LpSolution SolveLp(const LinearProgram& lp, const SimplexOptions& options = {});

}  // namespace etlopt

#endif  // ETLOPT_LP_SIMPLEX_H_
