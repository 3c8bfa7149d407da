#include "opt/closure.h"

#include <utility>

#include "util/common.h"

namespace etlopt {

std::vector<char> ComputeClosure(const CssCatalog& catalog,
                                 const std::vector<char>& observed,
                                 std::vector<int>* derivation,
                                 std::vector<int>* order) {
  const int n = catalog.num_stats();
  ETLOPT_CHECK(static_cast<int>(observed.size()) == n);
  std::vector<char> computable = observed;
  if (derivation != nullptr) derivation->assign(static_cast<size_t>(n), -1);

  // Counting-based fixpoint: each CSS fires once all its inputs are
  // computable; firing makes its target computable. The scan below counts,
  // per CSS in index order, the inputs not yet computable at that point, so
  // a target fired by CSS f is waited on only by its readers before f. Each
  // queued stat carries that bound; the reverse index is ascending, so the
  // waiters are a prefix of css_reading(). The firing order, and with it the
  // derivation the estimator and `explain` follow, must not change.
  const int m = catalog.num_css();
  std::vector<int> missing(static_cast<size_t>(m), 0);
  std::vector<std::pair<int, int>> ready;  // (stat, readers bound) in order

  for (int c = 0; c < m; ++c) {
    int need = 0;
    for (int input : catalog.css_inputs(c)) {
      if (!computable[static_cast<size_t>(input)]) ++need;
    }
    missing[static_cast<size_t>(c)] = need;
    if (need == 0) {
      const int target = catalog.css_target(c);
      if (!computable[static_cast<size_t>(target)]) {
        computable[static_cast<size_t>(target)] = 1;
        if (derivation != nullptr) (*derivation)[static_cast<size_t>(target)] = c;
        ready.emplace_back(target, c);
      }
    }
  }

  for (size_t head = 0; head < ready.size(); ++head) {
    const auto [s, bound] = ready[head];
    for (int c : catalog.css_reading(s)) {
      if (c >= bound) break;
      if (--missing[static_cast<size_t>(c)] == 0) {
        const int target = catalog.css_target(c);
        if (!computable[static_cast<size_t>(target)]) {
          computable[static_cast<size_t>(target)] = 1;
          if (derivation != nullptr) {
            (*derivation)[static_cast<size_t>(target)] = c;
          }
          ready.emplace_back(target, m);
        }
      }
    }
  }
  if (order != nullptr) {
    order->clear();
    order->reserve(ready.size());
    for (const auto& fired : ready) order->push_back(fired.first);
  }
  return computable;
}

IncrementalClosure::IncrementalClosure(const CssCatalog& catalog)
    : catalog_(catalog),
      computable_(static_cast<size_t>(catalog.num_stats()), 0),
      missing_(static_cast<size_t>(catalog.num_css()), 0) {
  for (int c = 0; c < catalog.num_css(); ++c) {
    missing_[static_cast<size_t>(c)] =
        static_cast<int>(catalog.css_inputs(c).size());
  }
  // CSSs without inputs fire unconditionally.
  for (int c = 0; c < catalog.num_css(); ++c) {
    if (missing_[static_cast<size_t>(c)] == 0) Add(catalog.css_target(c));
  }
}

void IncrementalClosure::Add(int stat) {
  if (computable_[static_cast<size_t>(stat)]) return;
  MakeComputable(stat);
  while (!stack_.empty()) {
    const int s = stack_.back();
    stack_.pop_back();
    for (int c : catalog_.css_reading(s)) {
      log_.push_back(c);
      if (--missing_[static_cast<size_t>(c)] == 0) {
        const int target = catalog_.css_target(c);
        if (!computable_[static_cast<size_t>(target)]) MakeComputable(target);
      }
    }
  }
}

void IncrementalClosure::MakeComputable(int stat) {
  computable_[static_cast<size_t>(stat)] = 1;
  log_.push_back(-1 - stat);
  stack_.push_back(stat);
}

void IncrementalClosure::Rollback(size_t mark) {
  while (log_.size() > mark) {
    const int entry = log_.back();
    log_.pop_back();
    if (entry >= 0) {
      ++missing_[static_cast<size_t>(entry)];
    } else {
      computable_[static_cast<size_t>(-1 - entry)] = 0;
    }
  }
}

}  // namespace etlopt
