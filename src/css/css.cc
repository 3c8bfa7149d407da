#include "css/css.h"

#include <algorithm>
#include <sstream>

namespace etlopt {

const char* RuleName(RuleId rule) {
  switch (rule) {
    case RuleId::kS1:
      return "S1";
    case RuleId::kS2:
      return "S2";
    case RuleId::kCopyCard:
      return "P1/U1";
    case RuleId::kCopyHist:
      return "P2/U2";
    case RuleId::kG1:
      return "G1";
    case RuleId::kG2:
      return "G2";
    case RuleId::kJ1:
      return "J1";
    case RuleId::kJ2:
      return "J2/J3";
    case RuleId::kJ4:
      return "J4";
    case RuleId::kJ5:
      return "J5";
    case RuleId::kFk:
      return "FK";
    case RuleId::kI1:
      return "I1";
    case RuleId::kI2:
      return "I2";
    case RuleId::kD1:
      return "D1";
  }
  return "?";
}

std::string CssEntry::ToString(const AttrCatalog* catalog) const {
  std::ostringstream out;
  out << target.ToString(catalog) << " <- " << RuleName(rule) << "{";
  for (size_t i = 0; i < inputs.size(); ++i) {
    if (i != 0) out << ", ";
    out << inputs[i].ToString(catalog);
  }
  out << "}";
  return out.str();
}

int CssCatalog::AddStat(const StatKey& key) {
  auto it = index_.find(key);
  if (it != index_.end()) return it->second;
  const int idx = static_cast<int>(stats_.size());
  stats_.push_back(key);
  index_[key] = idx;
  css_by_stat_.emplace_back();
  readers_by_stat_.emplace_back();
  return idx;
}

int CssCatalog::IndexOf(const StatKey& key) const {
  auto it = index_.find(key);
  return it == index_.end() ? -1 : it->second;
}

void CssCatalog::AddCss(CssEntry entry) {
  const int target = AddStat(entry.target);
  std::vector<int> inputs;
  inputs.reserve(entry.inputs.size());
  for (const StatKey& in : entry.inputs) {
    inputs.push_back(AddStat(in));
  }
  std::sort(inputs.begin(), inputs.end());
  inputs.erase(std::unique(inputs.begin(), inputs.end()), inputs.end());
  // Drop duplicates: same target and same input set.
  for (int existing : css_by_stat_[static_cast<size_t>(target)]) {
    const std::span<const int> other = css_inputs(existing);
    if (std::equal(other.begin(), other.end(), inputs.begin(), inputs.end())) {
      return;
    }
  }
  const int css_idx = static_cast<int>(entries_.size());
  entries_.push_back(std::move(entry));
  entry_target_.push_back(target);
  input_index_.insert(input_index_.end(), inputs.begin(), inputs.end());
  input_offsets_.push_back(input_index_.size());
  css_by_stat_[static_cast<size_t>(target)].push_back(css_idx);
  for (int in : inputs) {
    readers_by_stat_[static_cast<size_t>(in)].push_back(css_idx);
  }
}

std::string CssCatalog::ToString(const AttrCatalog* catalog) const {
  std::ostringstream out;
  out << "CssCatalog: " << num_stats() << " statistics, " << num_css()
      << " CSS\n";
  for (int s = 0; s < num_stats(); ++s) {
    out << "  " << stat(s).ToString(catalog) << "\n";
    for (int c : css_of(s)) {
      out << "    " << entry(c).ToString(catalog) << "\n";
    }
  }
  return out.str();
}

}  // namespace etlopt
