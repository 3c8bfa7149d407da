#ifndef ETLOPT_CSS_CSS_H_
#define ETLOPT_CSS_CSS_H_

#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "stats/stat_key.h"

namespace etlopt {

// Identifies the rule that produced a CSS — and therefore the evaluation
// semantics the estimator uses to compute the target from the inputs.
// Mapping to the paper's tables:
//   kS1/kS2          Table 2 select rules
//   kCopyCard        P1 and U1 (projection/transform preserve cardinality)
//   kCopyHist        P2 and U2 (distribution unchanged)
//   kG1/kG2          Table 4 group-by rules
//   kJ1              Table 3 J1 (dot product of join-attribute histograms)
//   kJ2              Table 3 J2/J3 unified (multiply through the join;
//                    marginalizes the join attribute away when absent from
//                    the target)
//   kJ4/kJ5          Table 3 union-division rules
//   kFk              the foreign-key lookup shortcut of Section 3.2.2
//   kI1/kI2/kD1      identity rules (I1, I2, and distinct-from-histogram)
enum class RuleId : uint8_t {
  kS1,
  kS2,
  kCopyCard,
  kCopyHist,
  kG1,
  kG2,
  kJ1,
  kJ2,
  kJ4,
  kJ5,
  kFk,
  kI1,
  kI2,
  kD1,
};

const char* RuleName(RuleId rule);

// One candidate statistics set for one target statistic: the inputs that
// suffice to compute it, plus the evaluation payload.
struct CssEntry {
  RuleId rule = RuleId::kJ1;
  StatKey target;
  std::vector<StatKey> inputs;

  // Payloads (rule-dependent):
  NodeId op_node = kInvalidNode;    // chain rules: the operator node
  AttrId join_attr = kInvalidAttr;  // join rules: a (J1/J2) or J (J4/J5)
  bool marginalize = false;         // kJ2: drop join attr after multiplying
  AttrMask aux_mask = 0;            // kG2: the group-by attribute mask

  std::string ToString(const AttrCatalog* catalog = nullptr) const;
};

// The output of Algorithm 1 for one block: the statistics universe S and the
// generated CSSs, with input references resolved to dense indices for the
// closure/selection algorithms. Each CSS's input indices are stored once,
// deduplicated and ascending, in flat offset/index arrays; a reverse index
// lists, per statistic, the CSSs that read it.
class CssCatalog {
 public:
  // Adds (or finds) a statistic; returns its dense index.
  int AddStat(const StatKey& key);
  // Returns -1 when unknown.
  int IndexOf(const StatKey& key) const;

  // Registers a CSS; inputs are interned automatically. Duplicate CSSs
  // (same target + same input set) are dropped.
  void AddCss(CssEntry entry);

  int num_stats() const { return static_cast<int>(stats_.size()); }
  int num_css() const { return static_cast<int>(entries_.size()); }

  const StatKey& stat(int idx) const {
    return stats_[static_cast<size_t>(idx)];
  }
  const std::vector<StatKey>& stats() const { return stats_; }

  const CssEntry& entry(int css_idx) const {
    return entries_[static_cast<size_t>(css_idx)];
  }

  // CSS indices whose target is `stat_idx`.
  const std::vector<int>& css_of(int stat_idx) const {
    return css_by_stat_[static_cast<size_t>(stat_idx)];
  }

  // Dense input stat indices of a CSS, deduplicated and ascending.
  std::span<const int> css_inputs(int css_idx) const {
    const size_t begin = input_offsets_[static_cast<size_t>(css_idx)];
    const size_t end = input_offsets_[static_cast<size_t>(css_idx) + 1];
    return {input_index_.data() + begin, end - begin};
  }
  // CSS indices that read `stat_idx` as an input, ascending.
  const std::vector<int>& css_reading(int stat_idx) const {
    return readers_by_stat_[static_cast<size_t>(stat_idx)];
  }
  int css_target(int css_idx) const {
    return entry_target_[static_cast<size_t>(css_idx)];
  }

  std::string ToString(const AttrCatalog* catalog = nullptr) const;

 private:
  std::vector<StatKey> stats_;
  std::unordered_map<StatKey, int, StatKeyHash> index_;
  std::vector<CssEntry> entries_;
  std::vector<int> entry_target_;
  std::vector<size_t> input_offsets_ = {0};  // num_css() + 1 entries
  std::vector<int> input_index_;
  std::vector<std::vector<int>> css_by_stat_;
  std::vector<std::vector<int>> readers_by_stat_;
};

}  // namespace etlopt

#endif  // ETLOPT_CSS_CSS_H_
