#ifndef ETLOPT_ESTIMATOR_ESTIMATOR_H_
#define ETLOPT_ESTIMATOR_ESTIMATOR_H_

#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "css/css.h"
#include "planspace/block.h"
#include "stats/stat_store.h"

namespace etlopt {

// How one statistic value came to be during Derive: either observed
// directly (a leaf of the derivation DAG) or derived by a CSS rule from
// the listed inputs. The provenance map is what lets the explain layer
// answer "which stored statistic fed this estimate".
struct StatProvenance {
  bool observed = true;
  RuleId rule = RuleId::kI1;    // meaningful only when !observed
  std::vector<StatKey> inputs;  // CSS inputs, empty for observed leaves
};

using ProvenanceMap =
    std::unordered_map<StatKey, StatProvenance, StatKeyHash>;

// Evaluates the CSS derivation DAG: starting from the observed statistic
// values, computes the value of every demanded statistic using each rule's
// evaluation semantics (dot product for J1, multiply-through for J2/J3,
// union-division for J4/J5, predicate counting for S1, ...). With exact
// histograms every derived value is exact (Section 3.1), which is the
// library's central tested invariant.
class Estimator {
 public:
  Estimator(const BlockContext* ctx, const CssCatalog* catalog);

  // Derives, from `observed`, the demanded statistics and every statistic
  // their derivations read, and nothing else: the closure's firing order is
  // walked backwards from `demand` along each chosen CSS's inputs, and the
  // marked statistics are evaluated in firing order. A demanded key that is
  // observed or not derivable adds nothing. The observed values are all
  // kept. Fails if a rule's inputs are inconsistent (modeling errors).
  Status Derive(const StatStore& observed, std::span<const StatKey> demand);

  // Derive with every statistic of the catalog demanded.
  Status DeriveAll(const StatStore& observed) {
    return Derive(observed, catalog_->stats());
  }

  // Value lookups after Derive.
  bool Has(const StatKey& key) const { return derived_.Contains(key); }
  Result<int64_t> Cardinality(RelMask se) const;
  Result<int64_t> Count(const StatKey& key) const;
  Result<Histogram> Hist(const StatKey& key) const;

  // All SE cardinalities (for the join-order optimizer).
  Result<std::unordered_map<RelMask, int64_t>> AllCardinalities(
      const std::vector<RelMask>& subexpressions) const;

  const StatStore& derived() const { return derived_; }

  // Per-statistic provenance recorded by Derive: every observed key, and
  // every derived key with all its ancestors.
  const ProvenanceMap& provenance() const { return provenance_; }

  const StatProvenance* FindProvenance(const StatKey& key) const {
    auto it = provenance_.find(key);
    return it == provenance_.end() ? nullptr : &it->second;
  }

  // The observed leaves that transitively feed `key`'s value, deduplicated
  // in first-encounter (derivation) order. The key itself when observed.
  std::vector<StatKey> ObservedLeaves(const StatKey& key) const;

  // Confidence in the SE's cardinality estimate, in (0, 1]: 1.0 when the
  // value was derived purely from exact observations; a sketch-backed value
  // degrades to 1/(1 + rel_error); every observed leaf in `distrusted`
  // (e.g. drift-flagged keys) multiplies by `distrust_penalty`. An SE whose
  // Card the derivation never materialized scores 1.0 — its cardinality can
  // only have come from a direct counter observation.
  double CardinalityConfidence(RelMask se,
                               const std::vector<StatKey>& distrusted = {},
                               double distrust_penalty = 0.5) const;

  // Values clamped by Derive's sanitization passes (negative counts floored
  // at zero, non-finite error bounds capped, zero-divisor union-divisions
  // treated as pass-through): the repairs of every observed input plus the
  // repairs in the derivations the demanded statistics read. Non-zero means
  // some observed input violated the exact-statistics invariants.
  int64_t clamped_values() const { return clamped_; }

 private:
  Result<StatValue> Evaluate(const CssEntry& entry);

  const BlockContext* ctx_;
  const CssCatalog* catalog_;
  StatStore derived_;
  ProvenanceMap provenance_;
  int64_t clamped_ = 0;
};

// Card(se) for each SE: the demand of the join optimizer and of `explain`.
std::vector<StatKey> CardKeys(const std::vector<RelMask>& subexpressions);

}  // namespace etlopt

#endif  // ETLOPT_ESTIMATOR_ESTIMATOR_H_
