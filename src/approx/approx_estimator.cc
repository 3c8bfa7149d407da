#include "approx/approx_estimator.h"

#include <cmath>

#include "opt/closure.h"
#include "planspace/observability.h"

namespace etlopt {

ApproxEstimator::ApproxEstimator(const BlockContext* ctx,
                                 const CssCatalog* catalog,
                                 const ApproxConfig* config)
    : ctx_(ctx), catalog_(catalog), config_(config) {
  ETLOPT_CHECK(ctx_ != nullptr && catalog_ != nullptr && config_ != nullptr);
}

Status ApproxEstimator::ObserveAndDerive(const ExecutionResult& exec,
                                         const std::vector<StatKey>& keys) {
  values_.clear();

  // ---- observation with bucketized collectors ----
  for (const StatKey& key : keys) {
    if (!IsObservable(key, *ctx_)) {
      return Status::InvalidArgument("statistic not observable: " +
                                     key.ToString());
    }
    if (key.is_reject()) {
      return Status::Unimplemented(
          "union-division statistics are not supported in approximate mode "
          "(generate CSS with enable_union_division=false)");
    }
    NodeId node = kInvalidNode;
    if (key.is_chain_stage()) {
      node = ctx_->StageNode(LowestBit(key.rels), key.stage);
    } else {
      auto it = ctx_->on_path().find(key.rels);
      if (it == ctx_->on_path().end()) {
        return Status::InvalidArgument("SE not on-path: " + key.ToString());
      }
      node = it->second;
    }
    const Table& table = exec.node_outputs.at(node);
    switch (key.kind) {
      case StatKind::kCard:
        values_[key] =
            ApproxValue::Count(static_cast<double>(table.num_rows()));
        break;
      case StatKind::kDistinct:
        // Distinct counters use a hash set and stay exact.
        values_[key] = ApproxValue::Count(
            static_cast<double>(table.CountDistinct(key.attrs)));
        break;
      case StatKind::kHist:
        values_[key] = ApproxValue::Hist(
            DHistogram::FromTable(table, key.attrs, *config_));
        break;
      default:
        return Status::Internal("unexpected statistic kind");
    }
  }

  // ---- derivation along the closure order ----
  const int n = catalog_->num_stats();
  std::vector<char> observed(static_cast<size_t>(n), 0);
  for (int s = 0; s < n; ++s) {
    if (values_.count(catalog_->stat(s))) observed[static_cast<size_t>(s)] = 1;
  }
  std::vector<int> derivation;
  std::vector<int> order;
  ComputeClosure(*catalog_, observed, &derivation, &order);
  for (int s : order) {
    const CssEntry& entry =
        catalog_->entry(derivation[static_cast<size_t>(s)]);
    ETLOPT_ASSIGN_OR_RETURN(ApproxValue value, Evaluate(entry));
    values_[entry.target] = std::move(value);
  }
  return Status::OK();
}

Result<ApproxValue> ApproxEstimator::Evaluate(const CssEntry& entry) const {
  auto count_in = [&](int i) -> double {
    return values_.at(entry.inputs[static_cast<size_t>(i)]).count();
  };
  auto hist_in = [&](int i) -> const DHistogram& {
    return values_.at(entry.inputs[static_cast<size_t>(i)]).hist();
  };
  switch (entry.rule) {
    case RuleId::kS1: {
      const WorkflowNode& op = ctx_->workflow().node(entry.op_node);
      return ApproxValue::Count(hist_in(0).CountMatching(op.predicate));
    }
    case RuleId::kS2: {
      const WorkflowNode& op = ctx_->workflow().node(entry.op_node);
      return ApproxValue::Hist(
          hist_in(0).FilterThenMarginalize(op.predicate, entry.target.attrs));
    }
    case RuleId::kCopyCard:
    case RuleId::kG1:
    case RuleId::kFk:
      return ApproxValue::Count(count_in(0));
    case RuleId::kCopyHist:
      return ApproxValue::Hist(hist_in(0));
    case RuleId::kG2:
      return ApproxValue::Hist(
          hist_in(0).CollapseToDistinct().Marginalize(entry.target.attrs));
    case RuleId::kJ1:
      return ApproxValue::Count(
          DHistogram::JoinCardinality(hist_in(0), hist_in(1)));
    case RuleId::kJ2: {
      DHistogram combined =
          DHistogram::MultiplyThrough(hist_in(0), hist_in(1));
      if (entry.marginalize) {
        combined = combined.Marginalize(entry.target.attrs);
      }
      return ApproxValue::Hist(std::move(combined));
    }
    case RuleId::kI1:
      return ApproxValue::Count(hist_in(0).TotalCount());
    case RuleId::kI2:
      return ApproxValue::Hist(hist_in(0).Marginalize(entry.target.attrs));
    case RuleId::kD1:
      // Bucket count lower-bounds the distinct count (approximation).
      return ApproxValue::Count(
          static_cast<double>(hist_in(0).NumBuckets()));
    case RuleId::kJ4:
    case RuleId::kJ5:
      return Status::Unimplemented(
          "union-division rules are not evaluable in approximate mode");
  }
  return Status::Internal("unhandled rule");
}

Result<double> ApproxEstimator::Cardinality(RelMask se) const {
  return Count(StatKey::Card(se));
}

Result<double> ApproxEstimator::Count(const StatKey& key) const {
  auto it = values_.find(key);
  if (it == values_.end()) return Status::NotFound(key.ToString());
  if (!it->second.is_count()) {
    return Status::Internal("statistic is not a count: " + key.ToString());
  }
  return it->second.count();
}

Result<std::unordered_map<RelMask, int64_t>>
ApproxEstimator::AllCardinalities(
    const std::vector<RelMask>& subexpressions) const {
  std::unordered_map<RelMask, int64_t> out;
  for (RelMask se : subexpressions) {
    ETLOPT_ASSIGN_OR_RETURN(const double card, Cardinality(se));
    out[se] = static_cast<int64_t>(std::llround(card));
  }
  return out;
}

}  // namespace etlopt
