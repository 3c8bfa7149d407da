#include "approx/dhistogram.h"

#include <algorithm>
#include <limits>


namespace etlopt {

int64_t ApproxConfig::MemoryUnits(AttrMask attrs) const {
  int64_t units = 1;
  for (int idx : MaskToIndices(attrs)) {
    const AttrId a = static_cast<AttrId>(idx);
    const int64_t w = WidthFor(a);
    const int64_t buckets = (DomainFor(a) + w - 1) / w;
    if (units > std::numeric_limits<int64_t>::max() / buckets) {
      return std::numeric_limits<int64_t>::max();
    }
    units *= buckets;
  }
  return units;
}

DHistogram::DHistogram(AttrMask attrs, const ApproxConfig& config)
    : attr_mask_(attrs) {
  for (int idx : MaskToIndices(attrs)) {
    const AttrId a = static_cast<AttrId>(idx);
    attrs_.push_back(a);
    widths_.push_back(config.WidthFor(a));
    domains_.push_back(config.DomainFor(a));
  }
}

DHistogram DHistogram::FromTable(const Table& table, AttrMask attrs,
                                 const ApproxConfig& config) {
  DHistogram h(attrs, config);
  std::vector<int> cols;
  for (AttrId a : h.attrs_) {
    const int col = table.schema().IndexOf(a);
    ETLOPT_CHECK_MSG(col >= 0, "attribute not in table schema");
    cols.push_back(col);
  }
  std::vector<const Value*> data;
  data.reserve(cols.size());
  for (int c : cols) data.push_back(table.column_data(c));
  std::vector<Value> raw(cols.size());
  for (int64_t r = 0; r < table.num_rows(); ++r) {
    for (size_t i = 0; i < cols.size(); ++i) {
      raw[i] = data[i][r];
    }
    h.AddValue(raw, 1.0);
  }
  return h;
}

void DHistogram::AddValue(const std::vector<Value>& raw_values,
                          double count) {
  ETLOPT_CHECK(raw_values.size() == attrs_.size());
  std::vector<Value> key(raw_values.size());
  for (size_t i = 0; i < raw_values.size(); ++i) {
    key[i] = (raw_values[i] - 1) / widths_[i];
  }
  buckets_[key] += count;
  total_ += count;
}

double DHistogram::Get(const std::vector<Value>& bucket_key) const {
  auto it = buckets_.find(bucket_key);
  return it == buckets_.end() ? 0.0 : it->second;
}

int64_t DHistogram::ValuesInBucket(int attr_pos, Value bucket) const {
  const int64_t w = widths_[static_cast<size_t>(attr_pos)];
  const int64_t domain = domains_[static_cast<size_t>(attr_pos)];
  const int64_t lo = 1 + bucket * w;
  const int64_t hi = std::min(domain, (bucket + 1) * w);
  return std::max<int64_t>(0, hi - lo + 1);
}

double DHistogram::JoinCardinality(const DHistogram& a, const DHistogram& b) {
  ETLOPT_CHECK_MSG(a.attr_mask_ == b.attr_mask_ && a.attrs_.size() == 1,
                   "JoinCardinality requires aligned single-attribute "
                   "histograms");
  ETLOPT_CHECK(a.widths_ == b.widths_ && a.domains_ == b.domains_);
  double total = 0.0;
  const auto& small = a.buckets_.size() <= b.buckets_.size() ? a : b;
  const auto& large = a.buckets_.size() <= b.buckets_.size() ? b : a;
  for (const auto& [key, count] : small.buckets_) {
    const double other = large.Get(key);
    if (other == 0.0) continue;
    total += count * other /
             static_cast<double>(a.ValuesInBucket(0, key[0]));
  }
  return total;
}

DHistogram DHistogram::MultiplyThrough(const DHistogram& a,
                                       const DHistogram& b) {
  ETLOPT_CHECK_MSG(b.attrs_.size() == 1 &&
                       IsSubset(b.attr_mask_, a.attr_mask_),
                   "MultiplyThrough requires a single-attribute rhs on an "
                   "attribute of lhs");
  const AttrId join_attr = b.attrs_[0];
  int pos = -1;
  for (size_t i = 0; i < a.attrs_.size(); ++i) {
    if (a.attrs_[i] == join_attr) pos = static_cast<int>(i);
  }
  ETLOPT_CHECK(pos >= 0);
  ETLOPT_CHECK(a.widths_[static_cast<size_t>(pos)] == b.widths_[0] &&
               a.domains_[static_cast<size_t>(pos)] == b.domains_[0]);
  DHistogram out = a;
  out.buckets_.clear();
  out.total_ = 0.0;
  std::vector<Value> bkey(1);
  for (const auto& [key, count] : a.buckets_) {
    bkey[0] = key[static_cast<size_t>(pos)];
    const double other = b.Get(bkey);
    if (other == 0.0) continue;
    const double scaled =
        count * other /
        static_cast<double>(b.ValuesInBucket(0, bkey[0]));
    out.buckets_[key] += scaled;
    out.total_ += scaled;
  }
  return out;
}

DHistogram DHistogram::Marginalize(AttrMask keep) const {
  ETLOPT_CHECK(IsSubset(keep, attr_mask_));
  if (keep == attr_mask_) return *this;
  DHistogram out;
  out.attr_mask_ = keep;
  std::vector<int> positions;
  for (size_t i = 0; i < attrs_.size(); ++i) {
    if ((keep >> attrs_[i]) & 1) {
      positions.push_back(static_cast<int>(i));
      out.attrs_.push_back(attrs_[i]);
      out.widths_.push_back(widths_[i]);
      out.domains_.push_back(domains_[i]);
    }
  }
  for (const auto& [key, count] : buckets_) {
    std::vector<Value> projected;
    projected.reserve(positions.size());
    for (int p : positions) projected.push_back(key[static_cast<size_t>(p)]);
    out.buckets_[projected] += count;
    out.total_ += count;
  }
  return out;
}

int64_t DHistogram::SatisfyingInBucket(int attr_pos, Value bucket,
                                       const Predicate& pred) const {
  const int64_t w = widths_[static_cast<size_t>(attr_pos)];
  const int64_t domain = domains_[static_cast<size_t>(attr_pos)];
  const int64_t lo = 1 + bucket * w;
  const int64_t hi = std::min(domain, (bucket + 1) * w);
  switch (pred.op) {
    case CompareOp::kEq:
      return (pred.constant >= lo && pred.constant <= hi) ? 1 : 0;
    case CompareOp::kNe:
      return (hi - lo + 1) -
             ((pred.constant >= lo && pred.constant <= hi) ? 1 : 0);
    case CompareOp::kLt:
      return std::clamp<int64_t>(pred.constant - lo, 0, hi - lo + 1);
    case CompareOp::kLe:
      return std::clamp<int64_t>(pred.constant - lo + 1, 0, hi - lo + 1);
    case CompareOp::kGt:
      return std::clamp<int64_t>(hi - pred.constant, 0, hi - lo + 1);
    case CompareOp::kGe:
      return std::clamp<int64_t>(hi - pred.constant + 1, 0, hi - lo + 1);
  }
  return 0;
}

double DHistogram::CountMatching(const Predicate& pred) const {
  int pos = -1;
  for (size_t i = 0; i < attrs_.size(); ++i) {
    if (attrs_[i] == pred.attr) pos = static_cast<int>(i);
  }
  ETLOPT_CHECK_MSG(pos >= 0, "predicate attribute not in histogram");
  double total = 0.0;
  for (const auto& [key, count] : buckets_) {
    const Value bucket = key[static_cast<size_t>(pos)];
    const int64_t vib = ValuesInBucket(pos, bucket);
    if (vib == 0) continue;
    total += count *
             static_cast<double>(SatisfyingInBucket(pos, bucket, pred)) /
             static_cast<double>(vib);
  }
  return total;
}

DHistogram DHistogram::FilterThenMarginalize(const Predicate& pred,
                                             AttrMask keep) const {
  int pos = -1;
  for (size_t i = 0; i < attrs_.size(); ++i) {
    if (attrs_[i] == pred.attr) pos = static_cast<int>(i);
  }
  ETLOPT_CHECK_MSG(pos >= 0, "predicate attribute not in histogram");
  DHistogram scaled = *this;
  scaled.buckets_.clear();
  scaled.total_ = 0.0;
  for (const auto& [key, count] : buckets_) {
    const Value bucket = key[static_cast<size_t>(pos)];
    const int64_t vib = ValuesInBucket(pos, bucket);
    if (vib == 0) continue;
    const double fraction =
        static_cast<double>(SatisfyingInBucket(pos, bucket, pred)) /
        static_cast<double>(vib);
    if (fraction == 0.0) continue;
    scaled.buckets_[key] += count * fraction;
    scaled.total_ += count * fraction;
  }
  return scaled.Marginalize(keep);
}

DHistogram DHistogram::CollapseToDistinct() const {
  DHistogram out = *this;
  out.buckets_.clear();
  out.total_ = 0.0;
  for (const auto& [key, count] : buckets_) {
    double capacity = 1.0;
    for (size_t i = 0; i < attrs_.size(); ++i) {
      capacity *= static_cast<double>(
          ValuesInBucket(static_cast<int>(i), key[i]));
    }
    const double distinct = std::min(count, capacity);
    out.buckets_[key] += distinct;
    out.total_ += distinct;
  }
  return out;
}

}  // namespace etlopt
