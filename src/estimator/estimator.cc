#include "estimator/estimator.h"

#include <algorithm>
#include <cmath>

#include "opt/closure.h"
#include "util/logging.h"

namespace etlopt {

Estimator::Estimator(const BlockContext* ctx, const CssCatalog* catalog)
    : ctx_(ctx), catalog_(catalog) {
  ETLOPT_CHECK(ctx_ != nullptr && catalog_ != nullptr);
}

Status Estimator::Derive(const StatStore& observed,
                         std::span<const StatKey> demand) {
  derived_ = observed;
  provenance_.clear();
  clamped_ = 0;
  for (const auto& [key, value] : observed.values()) {
    (void)value;
    provenance_[key] = StatProvenance{};
  }

  // Sanitize the observed inputs before deriving anything from them: a
  // corrupted ledger or a salvaged partial run can hand us negative counts
  // or non-finite error bounds, and every rule below would propagate the
  // poison. Repairs count as distrust evidence via clamped_values().
  for (const auto& [key, value] : observed.values()) {
    StatValue repaired = value;
    bool repair = false;
    if (repaired.is_count() && repaired.count() < 0) {
      ETLOPT_LOG(Warning) << "observed statistic " << key.ToString()
                          << " is negative (" << repaired.count()
                          << "); clamping to 0";
      const bool approx = repaired.is_approx();
      const double err = repaired.rel_error();
      repaired = StatValue::Count(0);
      if (approx && std::isfinite(err) && err >= 0.0) repaired.SetApprox(err);
      repair = true;
    }
    if (repaired.is_approx() && (!std::isfinite(repaired.rel_error()) ||
                                 repaired.rel_error() < 0.0)) {
      repaired.SetApprox(1.0);  // unknown precision: worst finite bound
      repair = true;
    }
    if (repair) {
      derived_.Set(key, std::move(repaired));
      ++clamped_;
    }
  }

  // The closure's firing order is an evaluation order: each stat's chosen
  // CSS only references stats observed or fired before it.
  const int n = catalog_->num_stats();
  std::vector<char> obs_flags(static_cast<size_t>(n), 0);
  for (int s = 0; s < n; ++s) {
    if (observed.Contains(catalog_->stat(s))) {
      obs_flags[static_cast<size_t>(s)] = 1;
    }
  }
  std::vector<int> derivation;
  std::vector<int> order;
  ComputeClosure(*catalog_, obs_flags, &derivation, &order);

  // Mark the demanded statistics and, through each one's chosen CSS, every
  // derived statistic it reads. Observed and underivable ones stop the walk.
  std::vector<char> needed(static_cast<size_t>(n), 0);
  std::vector<int> stack;
  for (const StatKey& key : demand) {
    const int s = catalog_->IndexOf(key);
    if (s >= 0 && !needed[static_cast<size_t>(s)]) {
      needed[static_cast<size_t>(s)] = 1;
      stack.push_back(s);
    }
  }
  while (!stack.empty()) {
    const int css = derivation[static_cast<size_t>(stack.back())];
    stack.pop_back();
    if (css < 0) continue;
    for (int in : catalog_->css_inputs(css)) {
      if (!needed[static_cast<size_t>(in)]) {
        needed[static_cast<size_t>(in)] = 1;
        stack.push_back(in);
      }
    }
  }

  for (int s : order) {
    if (!needed[static_cast<size_t>(s)]) continue;
    const CssEntry& entry = catalog_->entry(derivation[static_cast<size_t>(s)]);
    ETLOPT_ASSIGN_OR_RETURN(StatValue value, Evaluate(entry));
    // Sanitize: with corrupted or salvaged inputs a derivation can produce
    // a negative count (e.g. J4 with a negative reject cardinality). Clamp
    // rather than poison every downstream estimate — the guard layer reads
    // clamped_values() as distrust evidence.
    if (value.is_count() && value.count() < 0) {
      ETLOPT_LOG(Warning) << "derived statistic " << entry.target.ToString()
                          << " came out negative (" << value.count()
                          << "); clamping to 0";
      const bool approx = value.is_approx();
      const double err = value.rel_error();
      value = StatValue::Count(0);
      if (approx) value.SetApprox(err);
      ++clamped_;
    }
    // Uncertainty propagation: a derivation is at best as precise as its
    // inputs. Summing input relative errors is the first-order bound for
    // the products/ratios the CSS rules compose (conservative for sums).
    double rel_error = 0.0;
    for (const StatKey& in : entry.inputs) {
      const StatValue* iv = derived_.Find(in);
      if (iv != nullptr && iv->is_approx()) rel_error += iv->rel_error();
    }
    if (!std::isfinite(rel_error) || rel_error < 0.0) {
      rel_error = 1.0;  // unknown precision: worst finite bound
      ++clamped_;
    }
    if (rel_error > 0.0) value.SetApprox(rel_error);
    derived_.Set(entry.target, std::move(value));
    StatProvenance prov;
    prov.observed = false;
    prov.rule = entry.rule;
    prov.inputs = entry.inputs;
    provenance_[entry.target] = std::move(prov);
  }
  return Status::OK();
}

std::vector<StatKey> Estimator::ObservedLeaves(const StatKey& key) const {
  std::vector<StatKey> leaves;
  std::unordered_map<StatKey, char, StatKeyHash> visited;
  std::vector<StatKey> stack{key};
  while (!stack.empty()) {
    const StatKey k = stack.back();
    stack.pop_back();
    if (visited[k]++) continue;
    const auto it = provenance_.find(k);
    if (it == provenance_.end()) continue;  // value never materialized
    if (it->second.observed) {
      leaves.push_back(k);
      continue;
    }
    // Push in reverse so inputs are visited in CSS order.
    for (auto in = it->second.inputs.rbegin(); in != it->second.inputs.rend();
         ++in) {
      stack.push_back(*in);
    }
  }
  return leaves;
}

Result<StatValue> Estimator::Evaluate(const CssEntry& entry) {
  auto count_in = [&](int i) -> Result<int64_t> {
    return derived_.GetCount(entry.inputs[static_cast<size_t>(i)]);
  };
  auto hist_in = [&](int i) -> Result<const Histogram*> {
    return derived_.GetHist(entry.inputs[static_cast<size_t>(i)]);
  };

  switch (entry.rule) {
    case RuleId::kS1: {
      const WorkflowNode& op = ctx_->workflow().node(entry.op_node);
      ETLOPT_ASSIGN_OR_RETURN(const Histogram* h, hist_in(0));
      return StatValue::Count(h->CountMatching(op.predicate));
    }
    case RuleId::kS2: {
      const WorkflowNode& op = ctx_->workflow().node(entry.op_node);
      ETLOPT_ASSIGN_OR_RETURN(const Histogram* h, hist_in(0));
      return StatValue::Hist(
          h->FilterThenMarginalize(op.predicate, entry.target.attrs));
    }
    case RuleId::kCopyCard:
    case RuleId::kG1:
    case RuleId::kFk: {
      ETLOPT_ASSIGN_OR_RETURN(int64_t c, count_in(0));
      return StatValue::Count(c);
    }
    case RuleId::kCopyHist: {
      ETLOPT_ASSIGN_OR_RETURN(const Histogram* h, hist_in(0));
      return StatValue::Hist(Histogram(*h));
    }
    case RuleId::kG2: {
      ETLOPT_ASSIGN_OR_RETURN(const Histogram* h, hist_in(0));
      return StatValue::Hist(
          h->CollapseToDistinct().Marginalize(entry.target.attrs));
    }
    case RuleId::kJ1: {
      ETLOPT_ASSIGN_OR_RETURN(const Histogram* a, hist_in(0));
      ETLOPT_ASSIGN_OR_RETURN(const Histogram* b, hist_in(1));
      return StatValue::Count(Histogram::DotProduct(*a, *b));
    }
    case RuleId::kJ2: {
      ETLOPT_ASSIGN_OR_RETURN(const Histogram* x, hist_in(0));
      ETLOPT_ASSIGN_OR_RETURN(const Histogram* y, hist_in(1));
      return StatValue::Hist(
          entry.marginalize
              ? Histogram::MultiplyThenMarginalize(*x, *y, entry.target.attrs)
              : Histogram::MultiplyBy(*x, *y));
    }
    case RuleId::kJ4: {
      // |e| = |H_{e∪k}^J / H_k^J| + |reject(L wrt k) ⋈ R|   (Eq. 1-3)
      ETLOPT_ASSIGN_OR_RETURN(const Histogram* hek, hist_in(0));
      ETLOPT_ASSIGN_OR_RETURN(const Histogram* hk, hist_in(1));
      ETLOPT_ASSIGN_OR_RETURN(int64_t reject_card, count_in(2));
      const Histogram matched =
          Histogram::DivideByClamped(*hek, *hk, &clamped_);
      return StatValue::Count(matched.TotalCount() + reject_card);
    }
    case RuleId::kJ5: {
      ETLOPT_ASSIGN_OR_RETURN(const Histogram* hek, hist_in(0));
      ETLOPT_ASSIGN_OR_RETURN(const Histogram* hk, hist_in(1));
      ETLOPT_ASSIGN_OR_RETURN(const Histogram* hreject, hist_in(2));
      Histogram matched = Histogram::DivideByClamped(*hek, *hk, &clamped_)
                              .Marginalize(entry.target.attrs);
      matched.AddAll(*hreject);
      return StatValue::Hist(std::move(matched));
    }
    case RuleId::kI1: {
      ETLOPT_ASSIGN_OR_RETURN(const Histogram* h, hist_in(0));
      return StatValue::Count(h->TotalCount());
    }
    case RuleId::kI2: {
      ETLOPT_ASSIGN_OR_RETURN(const Histogram* h, hist_in(0));
      return StatValue::Hist(h->Marginalize(entry.target.attrs));
    }
    case RuleId::kD1: {
      ETLOPT_ASSIGN_OR_RETURN(const Histogram* h, hist_in(0));
      return StatValue::Count(h->NumBuckets());
    }
  }
  return Status::Internal("unhandled rule");
}

Result<int64_t> Estimator::Cardinality(RelMask se) const {
  return derived_.GetCount(StatKey::Card(se));
}

double Estimator::CardinalityConfidence(
    RelMask se, const std::vector<StatKey>& distrusted,
    double distrust_penalty) const {
  const StatKey key = StatKey::Card(se);
  const StatValue* value = derived_.Find(key);
  // Never materialized: the cardinality, if the caller has one, came from a
  // direct counter observation — exact by construction.
  if (value == nullptr) return 1.0;
  double confidence = 1.0;
  if (value->is_approx()) {
    confidence /= 1.0 + std::max(0.0, value->rel_error());
  }
  if (!distrusted.empty()) {
    for (const StatKey& leaf : ObservedLeaves(key)) {
      if (std::find(distrusted.begin(), distrusted.end(), leaf) !=
          distrusted.end()) {
        confidence *= distrust_penalty;
      }
    }
  }
  return std::clamp(confidence, 0.0, 1.0);
}

Result<int64_t> Estimator::Count(const StatKey& key) const {
  return derived_.GetCount(key);
}

Result<Histogram> Estimator::Hist(const StatKey& key) const {
  ETLOPT_ASSIGN_OR_RETURN(const Histogram* hist, derived_.GetHist(key));
  return *hist;
}

std::vector<StatKey> CardKeys(const std::vector<RelMask>& subexpressions) {
  std::vector<StatKey> keys;
  keys.reserve(subexpressions.size());
  for (RelMask se : subexpressions) keys.push_back(StatKey::Card(se));
  return keys;
}

Result<std::unordered_map<RelMask, int64_t>> Estimator::AllCardinalities(
    const std::vector<RelMask>& subexpressions) const {
  std::unordered_map<RelMask, int64_t> cards;
  for (RelMask se : subexpressions) {
    ETLOPT_ASSIGN_OR_RETURN(int64_t card, Cardinality(se));
    cards[se] = card;
  }
  return cards;
}

}  // namespace etlopt
