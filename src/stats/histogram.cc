#include "stats/histogram.h"

#include <algorithm>
#include <bit>
#include <sstream>

namespace etlopt {
namespace {

constexpr size_t kMinSlots = 8;

// Full-avalanche hash of a packed key: each value is folded in with a
// multiply, and the splitmix64 finalizer spreads every input bit over the
// low bits the directory mask keeps.
inline uint64_t HashKey(const Value* key, size_t arity) {
  uint64_t h = 0x9e3779b97f4a7c15ULL ^ arity;
  for (size_t i = 0; i < arity; ++i) {
    h = (h ^ static_cast<uint64_t>(key[i])) * 0xff51afd7ed558ccdULL;
    h ^= h >> 32;
  }
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

inline bool KeysEqual(const Value* a, const Value* b, size_t arity) {
  for (size_t i = 0; i < arity; ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

// Directory size holding `buckets` buckets at most half full.
size_t SlotsFor(int64_t buckets) {
  return std::max(kMinSlots, std::bit_ceil(static_cast<size_t>(buckets) * 2));
}

// Positions (within `from` attr order) of the attributes in `sub_mask`.
// Both attr lists are in increasing AttrId order, so projection positions
// are computed by a linear merge.
std::vector<size_t> ProjectionPositions(const std::vector<AttrId>& from,
                                        AttrMask sub_mask) {
  std::vector<size_t> positions;
  for (size_t i = 0; i < from.size(); ++i) {
    if ((sub_mask >> from[i]) & 1) positions.push_back(i);
  }
  return positions;
}

// Projects keys onto a fixed set of positions through one reused buffer.
class Projector {
 public:
  Projector(const std::vector<AttrId>& from, AttrMask sub_mask)
      : positions_(ProjectionPositions(from, sub_mask)),
        buffer_(positions_.size()) {}

  const Value* operator()(const Value* key) {
    for (size_t i = 0; i < positions_.size(); ++i) {
      buffer_[i] = key[positions_[i]];
    }
    return buffer_.data();
  }

 private:
  std::vector<size_t> positions_;
  std::vector<Value> buffer_;
};

int PredicatePosition(const std::vector<AttrId>& attrs, AttrId attr) {
  for (size_t i = 0; i < attrs.size(); ++i) {
    if (attrs[i] == attr) return static_cast<int>(i);
  }
  return -1;
}

}  // namespace

Histogram::Histogram(AttrMask attrs) : attr_mask_(attrs) {
  for (int idx : MaskToIndices(attrs)) {
    attrs_.push_back(static_cast<AttrId>(idx));
  }
}

int64_t Histogram::Find(const Value* key) const {
  if (slots_.empty()) return -1;
  const size_t arity = attrs_.size();
  const size_t mask = slots_.size() - 1;
  for (size_t s = HashKey(key, arity) & mask;; s = (s + 1) & mask) {
    const int32_t b = slots_[s];
    if (b < 0) return -1;
    if (KeysEqual(KeyAt(b), key, arity)) return b;
  }
}

void Histogram::Rehash(size_t capacity) {
  slots_.assign(capacity, -1);
  const size_t arity = attrs_.size();
  const size_t mask = capacity - 1;
  for (int64_t b = 0; b < NumBuckets(); ++b) {
    size_t s = HashKey(KeyAt(b), arity) & mask;
    while (slots_[s] >= 0) s = (s + 1) & mask;
    slots_[s] = static_cast<int32_t>(b);
  }
}

void Histogram::Reserve(int64_t buckets) {
  keys_.reserve(static_cast<size_t>(buckets) * attrs_.size());
  counts_.reserve(static_cast<size_t>(buckets));
  const size_t capacity = SlotsFor(buckets);
  if (capacity > slots_.size()) Rehash(capacity);
}

void Histogram::FitToSize() {
  const size_t capacity = SlotsFor(NumBuckets());
  if (capacity * 4 > slots_.size()) return;
  keys_.shrink_to_fit();
  counts_.shrink_to_fit();
  Rehash(capacity);
}

void Histogram::AppendNew(const Value* key, uint64_t hash, int64_t count) {
  if (SlotsFor(NumBuckets() + 1) > slots_.size()) {
    ETLOPT_CHECK_MSG(NumBuckets() < INT32_MAX, "histogram bucket overflow");
    Rehash(SlotsFor(NumBuckets() + 1));
  }
  const size_t mask = slots_.size() - 1;
  size_t s = hash & mask;
  while (slots_[s] >= 0) s = (s + 1) & mask;
  slots_[s] = static_cast<int32_t>(NumBuckets());
  keys_.insert(keys_.end(), key, key + attrs_.size());
  counts_.push_back(count);
  total_ += count;
}

void Histogram::AppendNew(const Value* key, int64_t count) {
  AppendNew(key, HashKey(key, attrs_.size()), count);
}

void Histogram::AddRaw(const Value* key, int64_t count) {
  const size_t arity = attrs_.size();
  const uint64_t hash = HashKey(key, arity);
  if (!slots_.empty()) {
    const size_t mask = slots_.size() - 1;
    for (size_t s = hash & mask; slots_[s] >= 0; s = (s + 1) & mask) {
      const int32_t b = slots_[s];
      if (KeysEqual(KeyAt(b), key, arity)) {
        counts_[static_cast<size_t>(b)] += count;
        total_ += count;
        return;
      }
    }
  }
  AppendNew(key, hash, count);
}

void Histogram::Add(std::span<const Value> key, int64_t count) {
  ETLOPT_CHECK(key.size() == attrs_.size());
  if (count == 0) return;
  AddRaw(key.data(), count);
}

void Histogram::Add1(Value v, int64_t count) {
  ETLOPT_CHECK(attrs_.size() == 1);
  if (count == 0) return;
  AddRaw(&v, count);
}

int64_t Histogram::Get(std::span<const Value> key) const {
  ETLOPT_CHECK(key.size() == attrs_.size());
  const int64_t b = Find(key.data());
  return b < 0 ? 0 : counts_[static_cast<size_t>(b)];
}

int64_t Histogram::Get1(Value v) const { return Get({v}); }

std::vector<Histogram::Bucket> Histogram::SortedBuckets() const {
  std::vector<Bucket> sorted;
  sorted.reserve(counts_.size());
  for (Bucket b : buckets()) sorted.push_back(b);
  std::sort(sorted.begin(), sorted.end(),
            [](const Bucket& x, const Bucket& y) {
              return std::lexicographical_compare(x.key.begin(), x.key.end(),
                                                  y.key.begin(), y.key.end());
            });
  return sorted;
}

int64_t Histogram::DotProduct(const Histogram& a, const Histogram& b) {
  ETLOPT_CHECK_MSG(a.attr_mask_ == b.attr_mask_,
                   "DotProduct requires equal attribute sets");
  const Histogram& small = a.NumBuckets() <= b.NumBuckets() ? a : b;
  const Histogram& large = a.NumBuckets() <= b.NumBuckets() ? b : a;
  int64_t sum = 0;
  for (int64_t i = 0; i < small.NumBuckets(); ++i) {
    const int64_t j = large.Find(small.KeyAt(i));
    if (j >= 0) {
      sum += small.counts_[static_cast<size_t>(i)] *
             large.counts_[static_cast<size_t>(j)];
    }
  }
  return sum;
}

Histogram Histogram::MultiplyBy(const Histogram& a, const Histogram& b) {
  ETLOPT_CHECK_MSG(IsSubset(b.attr_mask_, a.attr_mask_),
                   "MultiplyBy requires b.attrs ⊆ a.attrs");
  Projector project(a.attrs_, b.attr_mask_);
  Histogram out(a.attr_mask_);
  out.Reserve(a.NumBuckets());
  for (int64_t i = 0; i < a.NumBuckets(); ++i) {
    const Value* key = a.KeyAt(i);
    const int64_t j = b.Find(project(key));
    if (j < 0) continue;
    const int64_t count =
        a.counts_[static_cast<size_t>(i)] * b.counts_[static_cast<size_t>(j)];
    if (count != 0) out.AppendNew(key, count);
  }
  out.FitToSize();
  return out;
}

Histogram Histogram::MultiplyThenMarginalize(const Histogram& a,
                                             const Histogram& b,
                                             AttrMask keep) {
  ETLOPT_CHECK_MSG(IsSubset(b.attr_mask_, a.attr_mask_),
                   "MultiplyBy requires b.attrs ⊆ a.attrs");
  ETLOPT_CHECK_MSG(IsSubset(keep, a.attr_mask_),
                   "Marginalize target must be a subset of histogram attrs");
  Projector project_b(a.attrs_, b.attr_mask_);
  Projector project_keep(a.attrs_, keep);
  Histogram out(keep);
  out.Reserve(a.NumBuckets());
  for (int64_t i = 0; i < a.NumBuckets(); ++i) {
    const Value* key = a.KeyAt(i);
    const int64_t j = b.Find(project_b(key));
    if (j < 0) continue;
    const int64_t count =
        a.counts_[static_cast<size_t>(i)] * b.counts_[static_cast<size_t>(j)];
    if (count != 0) out.AddRaw(project_keep(key), count);
  }
  out.FitToSize();
  return out;
}

Histogram Histogram::DivideBy(const Histogram& a, const Histogram& b) {
  ETLOPT_CHECK_MSG(IsSubset(b.attr_mask_, a.attr_mask_),
                   "DivideBy requires b.attrs ⊆ a.attrs");
  Projector project(a.attrs_, b.attr_mask_);
  Histogram out(a.attr_mask_);
  out.Reserve(a.NumBuckets());
  for (int64_t i = 0; i < a.NumBuckets(); ++i) {
    const Value* key = a.KeyAt(i);
    const int64_t count = a.counts_[static_cast<size_t>(i)];
    const int64_t j = b.Find(project(key));
    const int64_t divisor = j < 0 ? 0 : b.counts_[static_cast<size_t>(j)];
    ETLOPT_CHECK_MSG(divisor > 0,
                     "union-division: bucket present in numerator but not in "
                     "divisor histogram");
    ETLOPT_CHECK_MSG(count % divisor == 0,
                     "union-division: non-exact division, modeling error");
    if (count / divisor != 0) out.AppendNew(key, count / divisor);
  }
  out.FitToSize();
  return out;
}

Histogram Histogram::DivideByClamped(const Histogram& a, const Histogram& b,
                                     int64_t* clamped) {
  ETLOPT_CHECK_MSG(IsSubset(b.attr_mask_, a.attr_mask_),
                   "DivideBy requires b.attrs ⊆ a.attrs");
  Projector project(a.attrs_, b.attr_mask_);
  auto repair = [&] {
    if (clamped != nullptr) ++*clamped;
  };
  Histogram out(a.attr_mask_);
  out.Reserve(a.NumBuckets());
  for (int64_t i = 0; i < a.NumBuckets(); ++i) {
    const Value* key = a.KeyAt(i);
    int64_t numerator = a.counts_[static_cast<size_t>(i)];
    if (numerator < 0) {
      numerator = 0;
      repair();
    }
    const int64_t j = b.Find(project(key));
    const int64_t divisor = j < 0 ? 0 : b.counts_[static_cast<size_t>(j)];
    int64_t quotient;
    if (divisor <= 0) {
      // Divisor missing or non-positive: the join-through-k invariant is
      // broken. Pass the bucket through — a safe overestimate.
      quotient = numerator;
      repair();
    } else if (numerator % divisor != 0) {
      quotient = (numerator + divisor / 2) / divisor;
      repair();
    } else {
      quotient = numerator / divisor;
    }
    if (quotient != 0) out.AppendNew(key, quotient);
  }
  out.FitToSize();
  return out;
}

Histogram Histogram::Marginalize(AttrMask keep) const {
  ETLOPT_CHECK_MSG(IsSubset(keep, attr_mask_),
                   "Marginalize target must be a subset of histogram attrs");
  if (keep == attr_mask_) return *this;
  Projector project(attrs_, keep);
  Histogram out(keep);
  out.Reserve(NumBuckets());
  for (int64_t i = 0; i < NumBuckets(); ++i) {
    const int64_t count = counts_[static_cast<size_t>(i)];
    if (count != 0) out.AddRaw(project(KeyAt(i)), count);
  }
  out.FitToSize();
  return out;
}

int64_t Histogram::CountMatching(const Predicate& pred) const {
  const int pos = PredicatePosition(attrs_, pred.attr);
  ETLOPT_CHECK_MSG(pos >= 0, "predicate attribute not in histogram");
  int64_t sum = 0;
  for (int64_t i = 0; i < NumBuckets(); ++i) {
    if (pred.Matches(KeyAt(i)[pos])) sum += counts_[static_cast<size_t>(i)];
  }
  return sum;
}

Histogram Histogram::FilterThenMarginalize(const Predicate& pred,
                                           AttrMask keep) const {
  const int pos = PredicatePosition(attrs_, pred.attr);
  ETLOPT_CHECK_MSG(pos >= 0, "predicate attribute not in histogram");
  ETLOPT_CHECK(IsSubset(keep, attr_mask_));
  Projector project(attrs_, keep);
  Histogram out(keep);
  out.Reserve(NumBuckets());
  for (int64_t i = 0; i < NumBuckets(); ++i) {
    const Value* key = KeyAt(i);
    const int64_t count = counts_[static_cast<size_t>(i)];
    if (count != 0 && pred.Matches(key[pos])) {
      out.AddRaw(project(key), count);
    }
  }
  out.FitToSize();
  return out;
}

Histogram Histogram::CollapseToDistinct() const {
  // Same keys, same insertion order, so the directory carries over as is.
  Histogram out(attr_mask_);
  out.keys_ = keys_;
  out.slots_ = slots_;
  out.counts_.assign(counts_.size(), 1);
  out.total_ = NumBuckets();
  return out;
}

void Histogram::AddAll(const Histogram& other) {
  ETLOPT_CHECK_MSG(attr_mask_ == other.attr_mask_,
                   "AddAll requires equal attribute sets");
  for (int64_t i = 0; i < other.NumBuckets(); ++i) {
    const int64_t count = other.counts_[static_cast<size_t>(i)];
    if (count != 0) AddRaw(other.KeyAt(i), count);
  }
}

bool Histogram::operator==(const Histogram& other) const {
  if (attr_mask_ != other.attr_mask_ || total_ != other.total_ ||
      NumBuckets() != other.NumBuckets()) {
    return false;
  }
  for (int64_t i = 0; i < NumBuckets(); ++i) {
    const int64_t j = other.Find(KeyAt(i));
    const int64_t count = j < 0 ? 0 : other.counts_[static_cast<size_t>(j)];
    if (count != counts_[static_cast<size_t>(i)]) return false;
  }
  return true;
}

std::string Histogram::ToString() const {
  // Sorted rendering for stable test output.
  const std::vector<Bucket> entries = SortedBuckets();
  std::ostringstream out;
  out << "H[";
  for (size_t i = 0; i < entries.size(); ++i) {
    if (i != 0) out << ", ";
    out << "(";
    for (size_t j = 0; j < entries[i].key.size(); ++j) {
      if (j != 0) out << ",";
      out << entries[i].key[j];
    }
    out << ")=" << entries[i].count;
  }
  out << "]";
  return out.str();
}

}  // namespace etlopt
