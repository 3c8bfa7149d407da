#ifndef ETLOPT_STATS_HISTOGRAM_H_
#define ETLOPT_STATS_HISTOGRAM_H_

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "etl/predicate.h"
#include "etl/types.h"
#include "util/bitmask.h"
#include "util/common.h"

namespace etlopt {

// Hash for composite value keys held as vectors (hash maps over rows and
// group keys outside the histogram).
struct ValueVecHash {
  size_t operator()(const std::vector<Value>& v) const {
    uint64_t h = 0xcbf29ce484222325ULL;
    for (Value x : v) {
      h ^= static_cast<uint64_t>(x);
      h *= 0x100000001b3ULL;
    }
    return static_cast<size_t>(h);
  }
};

// Exact (multi-attribute) frequency histogram: one bucket per distinct value
// combination of the attribute set, as scoped by Section 3.1 of the paper
// ("we consider only histograms that can accurately estimate the
// cardinalities"). Attributes are kept in increasing AttrId order; bucket
// keys follow that order.
//
// The algebra below implements the paper's operators: dot product (J1),
// bucket-wise multiply ⟨H1|H2⟩ and divide H1/H2 (union-division, Eq. 2-3),
// marginalization (identity rule I2), join propagation (J2/J3), and
// predicate filtering (S1/S2).
//
// Layout: a flat, insertion-ordered open-addressing table. Bucket i's key is
// keys_[i * arity, (i + 1) * arity) and its count is counts_[i]; slots_ is a
// power-of-two directory of bucket indices (-1 = empty), probed linearly
// from a full-avalanche hash of the packed key and kept at most half full.
// Buckets are never removed, so a bucket whose additions sum to zero stays.
class Histogram {
 public:
  // One bucket as seen through buckets(): the key's values (aligned with
  // attrs()) and the bucket's count. The key points into the histogram and
  // is valid until the next Add.
  struct Bucket {
    std::span<const Value> key;
    int64_t count;
  };

  // Read-only view of the buckets in insertion order.
  class BucketView {
   public:
    class Iterator {
     public:
      Iterator(const Histogram* h, int64_t i) : h_(h), i_(i) {}
      Bucket operator*() const { return h_->BucketAt(i_); }
      Iterator& operator++() {
        ++i_;
        return *this;
      }
      bool operator==(const Iterator& other) const { return i_ == other.i_; }

     private:
      const Histogram* h_;
      int64_t i_;
    };

    explicit BucketView(const Histogram* h) : h_(h) {}
    Iterator begin() const { return Iterator(h_, 0); }
    Iterator end() const { return Iterator(h_, h_->NumBuckets()); }

   private:
    const Histogram* h_;
  };

  Histogram() = default;
  explicit Histogram(AttrMask attrs);

  AttrMask attr_mask() const { return attr_mask_; }
  const std::vector<AttrId>& attrs() const { return attrs_; }
  int arity() const { return static_cast<int>(attrs_.size()); }

  // Adds `count` to the bucket for `key` (values aligned with attrs()).
  // Adding zero is a no-op: it does not create the bucket.
  void Add(std::span<const Value> key, int64_t count = 1);
  void Add(std::initializer_list<Value> key, int64_t count = 1) {
    Add(std::span<const Value>(key.begin(), key.size()), count);
  }
  // Single-attribute convenience.
  void Add1(Value v, int64_t count = 1);

  int64_t Get(std::span<const Value> key) const;
  int64_t Get(std::initializer_list<Value> key) const {
    return Get(std::span<const Value>(key.begin(), key.size()));
  }
  int64_t Get1(Value v) const;

  // |H| in the paper: the sum of all bucket counts (equals |T|).
  int64_t TotalCount() const { return total_; }
  // Number of distinct value combinations (|a_T| when read as distinct).
  int64_t NumBuckets() const { return static_cast<int64_t>(counts_.size()); }

  BucketView buckets() const { return BucketView(this); }
  Bucket BucketAt(int64_t i) const {
    return Bucket{std::span<const Value>(KeyAt(i), attrs_.size()),
                  counts_[static_cast<size_t>(i)]};
  }
  // The buckets in increasing lexicographic key order (stable renderings).
  std::vector<Bucket> SortedBuckets() const;

  // ---- algebra ----

  // J1: sum over shared buckets of a[v] * b[v]. Requires equal attr sets.
  static int64_t DotProduct(const Histogram& a, const Histogram& b);

  // ⟨a|b⟩ generalized: scales each bucket of `a` by b's count on the
  // projection of the bucket onto b's attributes. Requires b.attrs ⊆ a.attrs.
  // Buckets scaled to zero are dropped.
  static Histogram MultiplyBy(const Histogram& a, const Histogram& b);

  // MultiplyBy(a, b).Marginalize(keep) in one pass over `a`, without the
  // intermediate product; same buckets in the same insertion order.
  static Histogram MultiplyThenMarginalize(const Histogram& a,
                                           const Histogram& b, AttrMask keep);

  // a / b bucket-wise on the projection (Eq. 2): each bucket of `a` is
  // divided by b's count on the projected key. Requires b.attrs ⊆ a.attrs and
  // a non-zero divisor for every bucket of `a` (guaranteed when `a` is the
  // result of a join through b's relation). Division is exact on exact
  // histograms; remainders indicate a modeling error and abort in debug.
  static Histogram DivideBy(const Histogram& a, const Histogram& b);

  // DivideBy that survives invariant violations instead of aborting, for
  // callers fed by untrusted statistics (corrupted ledger lines, salvaged
  // prefixes, sketch-rebuilt histograms): a zero/missing divisor passes the
  // numerator bucket through unchanged, a non-exact division rounds to
  // nearest, and a negative numerator bucket clamps to zero. Each repair
  // increments *clamped when given. Identical to DivideBy on inputs that
  // satisfy the exact-division invariants.
  static Histogram DivideByClamped(const Histogram& a, const Histogram& b,
                                   int64_t* clamped = nullptr);

  // I2: aggregates buckets down to the attribute subset `keep`.
  Histogram Marginalize(AttrMask keep) const;

  // S1: number of tuples matching a predicate on one of the histogram's
  // attributes.
  int64_t CountMatching(const Predicate& pred) const;

  // S2: buckets whose `pred.attr` component matches, then marginalized to
  // `keep` (keep may or may not contain pred.attr).
  Histogram FilterThenMarginalize(const Predicate& pred, AttrMask keep) const;

  // G2 support: one row per distinct bucket (all counts become 1).
  Histogram CollapseToDistinct() const;

  // Merges `other` into this histogram (bucket-wise addition); used to union
  // the matched and rejected parts in union-division (Eq. 1).
  void AddAll(const Histogram& other);

  // Same attributes and the same count on every key; insertion order does
  // not matter.
  bool operator==(const Histogram& other) const;

  std::string ToString() const;

 private:
  const Value* KeyAt(int64_t i) const {
    return keys_.data() + static_cast<size_t>(i) * attrs_.size();
  }
  // Makes room for `buckets` buckets without growing the directory.
  void Reserve(int64_t buckets);
  // Bucket index of `key`, or -1.
  int64_t Find(const Value* key) const;
  // Adds `count` to `key`'s bucket, creating it when absent; count != 0.
  void AddRaw(const Value* key, int64_t count);
  // Appends a bucket for a key known to be absent (with its HashKey).
  void AppendNew(const Value* key, int64_t count);
  void AppendNew(const Value* key, uint64_t hash, int64_t count);
  // Rebuilds the directory with `capacity` slots (a power of two).
  void Rehash(size_t capacity);
  // Shrinks an output whose reservation turned out far too large.
  void FitToSize();

  std::vector<AttrId> attrs_;  // increasing order
  AttrMask attr_mask_ = 0;
  std::vector<Value> keys_;       // NumBuckets() x arity, insertion order
  std::vector<int64_t> counts_;   // parallel to the keys
  std::vector<int32_t> slots_;    // bucket index per slot, -1 when empty
  int64_t total_ = 0;
};

}  // namespace etlopt

#endif  // ETLOPT_STATS_HISTOGRAM_H_
