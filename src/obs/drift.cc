#include "obs/drift.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "obs/accuracy.h"
#include "util/env.h"
#include "util/string_util.h"

namespace etlopt {
namespace obs {
namespace {

// Deterministic ordering for report output.
bool KeyLess(const StatKey& a, const StatKey& b) {
  return std::tie(a.kind, a.rels, a.stage, a.attrs, a.reject_left,
                  a.reject_k) < std::tie(b.kind, b.rels, b.stage, b.attrs,
                                         b.reject_left, b.reject_k);
}

}  // namespace

DriftOptions DriftOptions::FromEnv() {
  DriftOptions options;
  options.rel_change_threshold =
      EnvDouble("ETLOPT_DRIFT_REL_THRESHOLD", options.rel_change_threshold);
  options.qerror_threshold =
      EnvDouble("ETLOPT_DRIFT_QERROR_THRESHOLD", options.qerror_threshold);
  options.ewma_alpha = EnvDouble("ETLOPT_DRIFT_EWMA_ALPHA", options.ewma_alpha);
  options.sketch_widen_factor =
      EnvDouble("ETLOPT_DRIFT_SKETCH_WIDEN", options.sketch_widen_factor);
  options.partial_widen_factor =
      EnvDouble("ETLOPT_DRIFT_PARTIAL_WIDEN", options.partial_widen_factor);
  return options;
}

std::vector<std::unordered_map<StatKey, double, StatKeyHash>>
NumericStatValues(const RunRecord& record) {
  size_t num_blocks = record.block_stats.size();
  for (const RunRecord::SeCard& c : record.cards) {
    num_blocks = std::max(num_blocks, static_cast<size_t>(c.block) + 1);
  }
  std::vector<std::unordered_map<StatKey, double, StatKeyHash>> values(
      num_blocks);
  for (size_t b = 0; b < record.block_stats.size(); ++b) {
    for (const auto& [key, value] : record.block_stats[b].values()) {
      values[b][key] = value.is_count()
                           ? static_cast<double>(value.count())
                           : static_cast<double>(value.hist().TotalCount());
    }
  }
  for (const RunRecord::SeCard& c : record.cards) {
    if (c.actual < 0) continue;  // no ground truth recorded
    auto& block = values[static_cast<size_t>(c.block)];
    // Observed card stats take precedence over derived actuals.
    block.emplace(StatKey::Card(c.se), c.actual);
  }
  return values;
}

std::vector<std::unordered_map<StatKey, double, StatKeyHash>>
SketchRelErrors(const RunRecord& record) {
  std::vector<std::unordered_map<StatKey, double, StatKeyHash>> errors(
      record.block_stats.size());
  for (size_t b = 0; b < record.block_stats.size(); ++b) {
    for (const auto& [key, value] : record.block_stats[b].values()) {
      if (value.is_approx()) errors[b][key] = value.rel_error();
    }
  }
  return errors;
}

bool DriftReport::IsDrifted(int block, const StatKey& key) const {
  for (const auto& [b, k] : reinstrument) {
    if (b == block && k == key) return true;
  }
  return false;
}

std::vector<StatKey> DriftReport::ReinstrumentKeys(int block) const {
  std::vector<StatKey> keys;
  for (const auto& [b, k] : reinstrument) {
    if (b == block) keys.push_back(k);
  }
  return keys;
}

std::string DriftReport::ToText(const AttrCatalog* catalog) const {
  std::ostringstream out;
  if (findings.empty()) {
    out << "drift: no history to compare against\n";
    return out.str();
  }
  out << "drift report (" << reinstrument.size() << " of " << findings.size()
      << " statistics drifted):\n";
  out << "  " << PadRight("statistic", 34) << PadLeft("ewma", 12)
      << PadLeft("current", 12) << PadLeft("rel", 8) << PadLeft("q-err", 8)
      << "  status\n";
  for (const DriftFinding& f : findings) {
    std::ostringstream ewma, cur, rel, qe;
    ewma.precision(1);
    ewma << std::fixed << f.ewma;
    cur.precision(1);
    cur << std::fixed << f.current;
    rel.precision(2);
    rel << std::fixed << f.rel_change;
    qe.precision(2);
    qe << std::fixed << f.qerror;
    out << "  "
        << PadRight("b" + std::to_string(f.block) + " " +
                        f.key.ToString(catalog),
                    34)
        << PadLeft(ewma.str(), 12) << PadLeft(cur.str(), 12)
        << PadLeft(rel.str(), 8) << PadLeft(qe.str(), 8) << "  "
        << (f.drifted ? "DRIFT -> re-instrument"
                      : (f.history_runs == 0 ? "no history" : "ok"))
        << (f.sketch_backed ? " (sketch, widened)" : "")
        << (f.partial_backed ? " (partial run, widened)" : "") << "\n";
  }
  if (any_drift()) {
    out << "  recommendation: re-enable " << reinstrument.size()
        << " statistic tap(s) on the next run\n";
  }
  return out.str();
}

DriftReport DriftDetector::Compare(const std::vector<RunRecord>& history,
                                   const RunRecord& current) const {
  DriftReport report;
  const auto current_values = NumericStatValues(current);
  const auto current_errors = SketchRelErrors(current);
  std::vector<std::vector<std::unordered_map<StatKey, double, StatKeyHash>>>
      history_values;
  std::vector<std::vector<std::unordered_map<StatKey, double, StatKeyHash>>>
      history_errors;
  history_values.reserve(history.size());
  history_errors.reserve(history.size());
  for (const RunRecord& record : history) {
    history_values.push_back(NumericStatValues(record));
    history_errors.push_back(SketchRelErrors(record));
  }
  auto is_sketch_backed = [&](size_t b, const StatKey& key) {
    if (b < current_errors.size() && current_errors[b].count(key) > 0) {
      return true;
    }
    for (const auto& run : history_errors) {
      if (b < run.size() && run[b].count(key) > 0) return true;
    }
    return false;
  };

  for (size_t b = 0; b < current_values.size(); ++b) {
    std::vector<StatKey> keys;
    keys.reserve(current_values[b].size());
    for (const auto& [key, value] : current_values[b]) {
      (void)value;
      keys.push_back(key);
    }
    std::sort(keys.begin(), keys.end(), KeyLess);

    for (const StatKey& key : keys) {
      DriftFinding finding;
      finding.block = static_cast<int>(b);
      finding.key = key;
      finding.current = current_values[b].at(key);

      // EWMA over the key's history, oldest first.
      bool seeded = false;
      double ewma = 0.0;
      bool partial_history = false;
      for (size_t h = 0; h < history_values.size(); ++h) {
        const auto& run = history_values[h];
        if (b >= run.size()) continue;
        const auto it = run[b].find(key);
        if (it == run[b].end()) continue;
        if (!seeded) {
          ewma = it->second;
          seeded = true;
        } else {
          ewma = options_.ewma_alpha * it->second +
                 (1.0 - options_.ewma_alpha) * ewma;
        }
        finding.previous = it->second;
        ++finding.history_runs;
        if (history[h].partial) partial_history = true;
      }
      finding.sketch_backed = is_sketch_backed(b, key);
      finding.partial_backed = current.partial || partial_history;
      if (finding.history_runs >= options_.min_history) {
        finding.ewma = ewma;
        finding.rel_change =
            std::abs(finding.current - ewma) / std::max(std::abs(ewma), 1.0);
        finding.qerror = QError(finding.current, ewma);
        // Sketch-backed comparisons mix approximation noise into the
        // apparent change, and partial-backed ones compare a completed-
        // prefix view against full runs; widen the tolerance before
        // declaring drift (the factors stack when both apply).
        double widen = finding.sketch_backed
                           ? std::max(options_.sketch_widen_factor, 1.0)
                           : 1.0;
        if (finding.partial_backed) {
          widen *= std::max(options_.partial_widen_factor, 1.0);
        }
        finding.drifted =
            finding.rel_change > options_.rel_change_threshold * widen ||
            finding.qerror > options_.qerror_threshold * widen;
      }
      if (finding.drifted) {
        report.reinstrument.emplace_back(finding.block, key);
      }
      report.findings.push_back(std::move(finding));
    }
  }
  return report;
}

}  // namespace obs
}  // namespace etlopt
