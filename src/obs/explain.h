#ifndef ETLOPT_OBS_EXPLAIN_H_
#define ETLOPT_OBS_EXPLAIN_H_

#include <string>
#include <vector>

#include "estimator/estimator.h"
#include "obs/drift.h"
#include "optimizer/plan_cost.h"

namespace etlopt {
namespace obs {

// Inputs for explaining one block: the analysis artifacts plus the stored
// statistics feeding the estimates (typically a previous run's ledger
// record — the paper's run-N-drives-run-N+1 loop) and, when available, the
// actual cardinalities to diff against.
struct ExplainBlockInput {
  int block = 0;
  const BlockContext* ctx = nullptr;
  const CssCatalog* catalog = nullptr;
  std::vector<RelMask> ses;           // sub-expressions to annotate
  const StatStore* stats = nullptr;   // statistics feeding the estimates
  std::string source_run_id;          // ledger run the statistics came from
  const CardMap* actuals = nullptr;   // optional ground truth
};

// One annotated sub-expression of the plan tree.
struct SeExplainEntry {
  int block = 0;
  RelMask se = 0;
  int depth = 0;               // relations - 1
  double estimated = -1.0;     // -1: not derivable from the given stats
  double actual = -1.0;        // -1: unknown
  double qerror = -1.0;        // -1: either side missing
  bool drifted = false;
  double rel_error = -1.0;     // sketch error bound; -1: exact derivation
  std::string rule;            // deriving CSS rule, or "observed"
  std::vector<StatKey> feeding;   // observed leaf statistics
  std::string source_run_id;      // run id those leaves were stored under
};

struct PlanExplain {
  std::string workflow;
  std::string fingerprint;
  std::vector<SeExplainEntry> entries;  // block-major, then by depth/mask
};

// Derives every SE estimate from the given statistics (Card(se) of
// `ses` and what those read, nothing else) and annotates it with
// estimate vs. actual, q-error, the feeding statistics (StatKey + source
// run id), and drift status from `drift` (may be null).
Result<PlanExplain> BuildPlanExplain(
    const std::vector<ExplainBlockInput>& blocks,
    const std::string& workflow_name, const std::string& fingerprint,
    const DriftReport* drift = nullptr);

// Text rendering: an aligned annotated plan tree per block.
std::string FormatPlanExplainText(const PlanExplain& explain,
                                  const AttrCatalog* catalog = nullptr);

// JSON rendering (machine-readable twin of the text output).
std::string PlanExplainJson(const PlanExplain& explain,
                            const AttrCatalog* catalog = nullptr);

}  // namespace obs
}  // namespace etlopt

#endif  // ETLOPT_OBS_EXPLAIN_H_
