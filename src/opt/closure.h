#ifndef ETLOPT_OPT_CLOSURE_H_
#define ETLOPT_OPT_CLOSURE_H_

#include <vector>

#include "css/css.h"

namespace etlopt {

// Monotone computability closure (Section 5.1): a statistic is computable
// when it is observed or some CSS of it has all members computable. Returns
// one flag per stat index. When `derivation` is non-null it receives, per
// stat, the index of the CSS that first fired for it (-1 when the stat is
// directly observed or not computable). When `order` is non-null it
// receives the derived stats in firing order: every input of a stat's
// chosen CSS is observed or precedes it, so the estimators evaluate
// catalog.entry(derivation[s]) along `order` in one pass.
std::vector<char> ComputeClosure(const CssCatalog& catalog,
                                 const std::vector<char>& observed,
                                 std::vector<int>* derivation = nullptr,
                                 std::vector<int>* order = nullptr);

// The same closure, grown one observation at a time: Add() propagates only
// through the CSSs that read a newly computable statistic, so a sequence of
// additions costs one pass over the catalog in total. After any sequence of
// additions, flags() equals ComputeClosure of the added set. Every change is
// logged, so the closure can be rolled back to an earlier Mark() at the
// cost of the changes made since.
class IncrementalClosure {
 public:
  explicit IncrementalClosure(const CssCatalog& catalog);

  // Makes `stat` computable and fires every CSS this completes.
  void Add(int stat);

  // Rollback(Mark()) undoes every Add made after the Mark() call.
  size_t Mark() const { return log_.size(); }
  void Rollback(size_t mark);

  bool computable(int stat) const {
    return computable_[static_cast<size_t>(stat)] != 0;
  }
  const std::vector<char>& flags() const { return computable_; }

 private:
  void MakeComputable(int stat);

  const CssCatalog& catalog_;
  std::vector<char> computable_;
  std::vector<int> missing_;  // per CSS: inputs not yet computable
  std::vector<int> stack_;
  // A CSS index per decrement of its `missing_`, -1 - stat per statistic
  // made computable.
  std::vector<int> log_;
};

}  // namespace etlopt

#endif  // ETLOPT_OPT_CLOSURE_H_
