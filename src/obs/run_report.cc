#include "obs/run_report.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>

#include "obs/accuracy.h"
#include "obs/calibrate.h"
#include "obs/drift.h"

namespace etlopt {
namespace obs {
namespace {

// Cardinality accuracy of one run: q-error over every SE card that carries
// ground truth (actual >= 0).
QErrorSummary CardQError(const RunRecord& record) {
  std::vector<double> qerrors;
  for (const auto& [se, q] : CardQErrors(record)) qerrors.push_back(q);
  return SummarizeQErrors(std::move(qerrors));
}

// Peak RSS in MB, "-" for records that predate the field.
std::string FormatPeakMb(int64_t bytes) {
  if (bytes <= 0) return "-";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f",
                static_cast<double>(bytes) / (1 << 20));
  return buf;
}

int SketchStatCount(const RunRecord& record) {
  int count = 0;
  for (const auto& block : SketchRelErrors(record)) {
    count += static_cast<int>(block.size());
  }
  return count;
}

// Per-operator-class accuracy of the predictions that were live when the
// runs executed (op.pred_ns vs op.self_ns), plus the re-fit ns/row.
struct ClassAccuracy {
  std::string op;
  int samples = 0;
  double mean_q = 0.0;
  double max_q = 0.0;
  double fitted_ns_per_row = 0.0;
};

std::vector<ClassAccuracy> WorstClasses(
    const std::vector<const RunRecord*>& runs, const CostCalibration& refit,
    int top_k) {
  std::map<std::string, ClassAccuracy> by_class;
  for (const RunRecord* record : runs) {
    for (const OpProfile& op : record->profile.ops) {
      if (op.pred_ns < 0.0) continue;
      ClassAccuracy& acc = by_class[op.op];
      acc.op = op.op;
      const double q = QError(op.pred_ns, static_cast<double>(op.self_ns));
      acc.mean_q += q;  // sum for now; divided below
      acc.max_q = std::max(acc.max_q, q);
      ++acc.samples;
    }
  }
  std::vector<ClassAccuracy> ranked;
  for (auto& [op, acc] : by_class) {
    acc.mean_q /= acc.samples;
    const auto it = refit.classes.find(op);
    if (it != refit.classes.end()) {
      acc.fitted_ns_per_row = it->second.ns_per_row;
    }
    ranked.push_back(acc);
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const ClassAccuracy& a, const ClassAccuracy& b) {
              return a.mean_q > b.mean_q;
            });
  if (top_k > 0 && static_cast<int>(ranked.size()) > top_k) {
    ranked.resize(static_cast<size_t>(top_k));
  }
  return ranked;
}

// Fingerprint groups in first-seen order (ledger order is append order, so
// the report reads oldest workflow first, runs oldest first within it).
struct Group {
  std::string fingerprint;
  std::string workflow;
  std::vector<const RunRecord*> runs;
};

std::vector<Group> GroupByFingerprint(const std::vector<RunRecord>& records) {
  std::vector<Group> groups;
  for (const RunRecord& record : records) {
    Group* group = nullptr;
    for (Group& g : groups) {
      if (g.fingerprint == record.fingerprint) {
        group = &g;
        break;
      }
    }
    if (group == nullptr) {
      groups.push_back(Group{record.fingerprint, record.workflow, {}});
      group = &groups.back();
    }
    group->runs.push_back(&record);
  }
  return groups;
}

// The build every run of the group is compared against: the latest one with
// provenance recorded.
const BuildInfo* ReferenceBuild(const Group& group) {
  for (size_t i = group.runs.size(); i-- > 0;) {
    if (!group.runs[i]->build.git_sha.empty()) return &group.runs[i]->build;
  }
  return nullptr;
}

// The thread count every run of the group is compared against: the latest
// run's. Wall times (execute_ms) are only comparable at equal parallelism;
// merged profile self times sum per-worker work and stay comparable.
int ReferenceThreads(const Group& group) {
  return group.runs.empty() ? 1 : group.runs.back()->num_threads;
}

// Drift replay: each run compared against its own history prefix, exactly
// as the online detector would have seen it.
std::vector<DriftReport> ReplayDrift(const Group& group) {
  std::vector<DriftReport> reports(group.runs.size());
  DriftDetector detector;
  std::vector<RunRecord> prefix;
  for (size_t i = 0; i < group.runs.size(); ++i) {
    if (!prefix.empty()) {
      reports[i] = detector.Compare(prefix, *group.runs[i]);
    }
    prefix.push_back(*group.runs[i]);
  }
  return reports;
}

// FitCalibration wants records by value; materialize the group's view.
CostCalibration RefitGroup(const Group& group) {
  std::vector<RunRecord> group_records;
  group_records.reserve(group.runs.size());
  for (const RunRecord* r : group.runs) group_records.push_back(*r);
  return FitCalibration(group_records);
}

// The gauges a record's fields carry, under the names the metrics export
// has always used.
std::vector<std::pair<std::string, double>> RunGauges(const RunRecord& r) {
  std::vector<std::pair<std::string, double>> gauges;
  if (r.Metric("etlopt.core.cycles") > 0 && !r.partial) {
    gauges.emplace_back("etlopt.core.initial_cost", r.initial_cost);
    gauges.emplace_back("etlopt.core.optimized_cost", r.optimized_cost);
  }
  if (r.Metric("etlopt.guard.evaluations") > 0) {
    gauges.emplace_back("etlopt.guard.evidence", r.guard.evidence);
  }
  if (r.partitions > 0) {
    gauges.emplace_back("etlopt.parallel.workers", r.num_threads);
    gauges.emplace_back("etlopt.parallel.partitions", r.partitions);
    gauges.emplace_back("etlopt.parallel.skew", r.partition_skew);
  }
  if (r.peak_rss_bytes > 0) {
    gauges.emplace_back("etlopt.process.peak_rss_bytes",
                        static_cast<double>(r.peak_rss_bytes));
  }
  return gauges;
}

// Prometheus metric names allow [a-zA-Z0-9_:] only: the dotted base maps
// every other byte to '_'; the {label="v"} suffix is already exposition
// syntax and passes through.
std::string PrometheusName(const std::string& name) {
  const size_t brace = std::min(name.find('{'), name.size());
  std::string out = name;
  for (size_t i = 0; i < brace; ++i) {
    const char c = out[i];
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) out[i] = '_';
  }
  return out;
}

std::string FormatQ(double q) {
  if (q <= 0.0) return "-";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", q);
  return buf;
}

}  // namespace

std::vector<std::pair<RelMask, double>> CardQErrors(const RunRecord& record) {
  std::vector<std::pair<RelMask, double>> qerrors;
  for (const RunRecord::SeCard& card : record.cards) {
    if (card.estimated < 0.0 || card.actual < 0.0) continue;
    qerrors.emplace_back(card.se, QError(card.estimated, card.actual));
  }
  return qerrors;
}

std::string FormatRunReportMarkdown(const std::vector<RunRecord>& records,
                                    const RunReportOptions& options) {
  std::ostringstream out;
  out << "# etlopt run report\n\n";
  if (records.empty()) {
    out << "(empty ledger — nothing to report)\n";
    return out.str();
  }
  for (const Group& group : GroupByFingerprint(records)) {
    out << "## workflow " << group.workflow << " (" << group.fingerprint
        << ")\n\n";
    int partial_runs = 0;
    int profiled_runs = 0;
    for (const RunRecord* r : group.runs) {
      if (r->partial) ++partial_runs;
      if (!r->profile.empty()) ++profiled_runs;
    }
    out << group.runs.size() << " run(s), " << profiled_runs << " profiled, "
        << partial_runs << " partial\n\n";

    const BuildInfo* reference_build = ReferenceBuild(group);
    const int reference_threads = ReferenceThreads(group);
    const std::vector<DriftReport> drift = ReplayDrift(group);

    // ---- runs table: card q-error and plan cost q-error trends ----
    out << "| run | execute_ms | process peak RSS MB | selector "
           "| card q-error mean "
           "| card q-error max | cards | plan cost q-error | flags |\n";
    out << "|---|---|---|---|---|---|---|---|---|\n";
    for (size_t i = 0; i < group.runs.size(); ++i) {
      const RunRecord& r = *group.runs[i];
      const QErrorSummary cards = CardQError(r);
      const double cost_q = PlanCostQError(r.profile);
      std::vector<std::string> flags;
      if (r.partial) flags.push_back("partial");
      if (SketchStatCount(r) > 0) flags.push_back("sketch");
      if (drift[i].any_drift()) flags.push_back("drift");
      if (reference_build != nullptr && !r.build.git_sha.empty() &&
          !r.build.ComparableWith(*reference_build)) {
        flags.push_back("build-mismatch");
      }
      if (r.num_threads != reference_threads) {
        flags.push_back("threads-mismatch");
      }
      if (r.guard.fell_back) flags.push_back("guard-fallback");
      if (r.guard.plan_unsafe) flags.push_back("plan-unsafe");
      std::string joined;
      for (const std::string& f : flags) {
        if (!joined.empty()) joined += ",";
        joined += f;
      }
      char exec_ms[32];
      std::snprintf(exec_ms, sizeof(exec_ms), "%.1f", r.execute_ms);
      out << "| " << r.run_id << " | " << exec_ms << " | "
          << FormatPeakMb(r.peak_rss_bytes) << " | " << r.selector << " | "
          << (cards.count > 0 ? FormatQ(cards.mean) : "-") << " | "
          << (cards.count > 0 ? FormatQ(cards.max) : "-") << " | "
          << cards.count << " | " << FormatQ(cost_q) << " | "
          << (joined.empty() ? "-" : joined) << " |\n";
    }
    out << "\n";

    // ---- calibration: re-fit + worst-calibrated classes ----
    if (profiled_runs > 0) {
      const CostCalibration refit = RefitGroup(group);
      const std::vector<ClassAccuracy> worst =
          WorstClasses(group.runs, refit, options.top_k);
      out << "### worst-calibrated operator classes (top " << options.top_k
          << ", by mean q-error of the predictions live at run time)\n\n";
      if (worst.empty()) {
        out << "(no annotated profiles — run with --profile under a "
               "--calibration overlay to populate this)\n\n";
      } else {
        out << "| class | mean q-error | max q-error | samples | re-fit "
               "ns/row |\n";
        out << "|---|---|---|---|---|\n";
        for (const ClassAccuracy& acc : worst) {
          char ns_per_row[32];
          std::snprintf(ns_per_row, sizeof(ns_per_row), "%.1f",
                        acc.fitted_ns_per_row);
          out << "| " << acc.op << " | " << FormatQ(acc.mean_q) << " | "
              << FormatQ(acc.max_q) << " | " << acc.samples << " | "
              << ns_per_row << " |\n";
        }
        out << "\n";
      }
    }

    // ---- drift events, replayed offline ----
    out << "### drift events\n\n";
    bool any_drift = false;
    for (size_t i = 0; i < group.runs.size(); ++i) {
      if (!drift[i].any_drift()) continue;
      any_drift = true;
      out << "- " << group.runs[i]->run_id << ": "
          << drift[i].reinstrument.size()
          << " key(s) flagged for re-instrumentation:";
      for (const auto& [block, key] : drift[i].reinstrument) {
        out << " block" << block << ":" << key.ToString();
      }
      out << "\n";
    }
    if (!any_drift) out << "(none)\n";
    out << "\n";

    // ---- annotations qualifying the numbers above ----
    out << "### annotations\n\n";
    bool any_note = false;
    for (size_t i = 0; i < group.runs.size(); ++i) {
      const RunRecord& r = *group.runs[i];
      if (r.partial) {
        any_note = true;
        char completion[32];
        std::snprintf(completion, sizeof(completion), "%.0f%%",
                      100.0 * r.completion);
        out << "- " << r.run_id << " is partial (" << r.abort_reason
            << "), completion " << completion
            << " — its statistics are a salvaged prefix\n";
      }
      if (const int sketched = SketchStatCount(r); sketched > 0) {
        any_note = true;
        out << "- " << r.run_id << " collected " << sketched
            << " statistic(s) via budget-bounded sketches — values carry "
               "their relative-error bound\n";
      }
      if (reference_build != nullptr && !r.build.git_sha.empty() &&
          !r.build.ComparableWith(*reference_build)) {
        any_note = true;
        out << "- " << r.run_id << " ran a different build ("
            << r.build.Summary()
            << ") — its timings are not comparable with the latest runs\n";
      }
      if (r.num_threads != reference_threads) {
        any_note = true;
        out << "- " << r.run_id << " ran with " << r.num_threads
            << " worker thread(s) vs " << reference_threads
            << " in the latest run — its wall times are not comparable; "
               "per-operator self times (per-worker work) still are\n";
      }
      if (r.guard.fell_back) {
        any_note = true;
        char evidence[32];
        std::snprintf(evidence, sizeof(evidence), "%.2f", r.guard.evidence);
        out << "- " << r.run_id
            << " fell back to the designed plan: the adoption gate rejected "
               "proposal "
            << r.guard.proposed_signature << " (evidence " << evidence
            << ") — its optimized_cost equals the designed plan's\n";
      }
      if (r.guard.plan_unsafe) {
        any_note = true;
        out << "- " << r.run_id << " raised " << r.guard.violations.size()
            << " runtime estimate-monitor violation(s) against plan "
            << r.guard.unsafe_signature
            << " — that plan is unsafe for re-adoption\n";
      }
    }
    if (!any_note) out << "(none)\n";
    out << "\n";
  }
  return out.str();
}

Json RunReportJson(const std::vector<RunRecord>& records,
                   const RunReportOptions& options) {
  Json j = Json::Object();
  j.Set("kind", Json::Str("etlopt-run-report"));
  Json workflows = Json::Array();
  for (const Group& group : GroupByFingerprint(records)) {
    Json jg = Json::Object();
    jg.Set("fingerprint", Json::Str(group.fingerprint));
    jg.Set("workflow", Json::Str(group.workflow));
    const BuildInfo* reference_build = ReferenceBuild(group);
    const int reference_threads = ReferenceThreads(group);
    const std::vector<DriftReport> drift = ReplayDrift(group);
    int profiled_runs = 0;

    Json jruns = Json::Array();
    for (size_t i = 0; i < group.runs.size(); ++i) {
      const RunRecord& r = *group.runs[i];
      if (!r.profile.empty()) ++profiled_runs;
      Json jr = Json::Object();
      jr.Set("run_id", Json::Str(r.run_id));
      jr.Set("ts_ms", Json::Int(r.timestamp_ms));
      jr.Set("execute_ms", Json::Double(r.execute_ms));
      jr.Set("selector", Json::Str(r.selector));
      if (r.peak_rss_bytes > 0) {
        jr.Set("peak_rss_bytes", Json::Int(r.peak_rss_bytes));
      }
      const QErrorSummary cards = CardQError(r);
      Json jcard = Json::Object();
      jcard.Set("samples", Json::Int(cards.count));
      jcard.Set("mean", Json::Double(cards.mean));
      jcard.Set("max", Json::Double(cards.max));
      jr.Set("card_qerror", std::move(jcard));
      const double cost_q = PlanCostQError(r.profile);
      if (cost_q > 0.0) jr.Set("plan_cost_qerror", Json::Double(cost_q));
      if (r.partial) jr.Set("partial", Json::Bool(true));
      if (const int sketched = SketchStatCount(r); sketched > 0) {
        jr.Set("sketch_stats", Json::Int(sketched));
      }
      jr.Set("drift_flagged",
             Json::Int(static_cast<int64_t>(drift[i].reinstrument.size())));
      if (!r.build.git_sha.empty()) {
        jr.Set("build_sha", Json::Str(r.build.git_sha));
        if (reference_build != nullptr) {
          jr.Set("build_comparable",
                 Json::Bool(r.build.ComparableWith(*reference_build)));
        }
      }
      if (r.num_threads != 1) jr.Set("num_threads", Json::Int(r.num_threads));
      if (r.num_threads != reference_threads) {
        jr.Set("threads_comparable", Json::Bool(false));
      }
      if (r.guard.engaged()) {
        Json jguard = Json::Object();
        jguard.Set("fell_back", Json::Bool(r.guard.fell_back));
        jguard.Set("plan_unsafe", Json::Bool(r.guard.plan_unsafe));
        jguard.Set("evidence", Json::Double(r.guard.evidence));
        jguard.Set("violations",
                   Json::Int(static_cast<int64_t>(r.guard.violations.size())));
        jr.Set("guard", std::move(jguard));
      }
      jruns.push_back(std::move(jr));
    }
    jg.Set("runs", std::move(jruns));

    if (profiled_runs > 0) {
      const CostCalibration refit = RefitGroup(group);
      jg.Set("calibration", refit.ToJson());
      Json jworst = Json::Array();
      for (const ClassAccuracy& acc :
           WorstClasses(group.runs, refit, options.top_k)) {
        Json ja = Json::Object();
        ja.Set("class", Json::Str(acc.op));
        ja.Set("mean_qerror", Json::Double(acc.mean_q));
        ja.Set("max_qerror", Json::Double(acc.max_q));
        ja.Set("samples", Json::Int(acc.samples));
        ja.Set("refit_ns_per_row", Json::Double(acc.fitted_ns_per_row));
        jworst.push_back(std::move(ja));
      }
      jg.Set("worst_calibrated", std::move(jworst));
    }
    workflows.push_back(std::move(jg));
  }
  j.Set("workflows", std::move(workflows));
  return j;
}

std::string RunMetricsPrometheus(const RunRecord& record) {
  std::ostringstream out;
  for (const auto& [name, value] : record.metrics) {
    out << PrometheusName(name) << " " << value << "\n";
  }
  // Enough digits that byte counts print whole.
  out.precision(15);
  for (const auto& [name, value] : RunGauges(record)) {
    out << PrometheusName(name) << " " << value << "\n";
  }
  return out.str();
}

std::string RunMetricsJson(const RunRecord& record) {
  Json counters = Json::Object();
  for (const auto& [name, value] : record.metrics) {
    counters.Set(name, Json::Int(value));
  }
  Json gauges = Json::Object();
  for (const auto& [name, value] : RunGauges(record)) {
    gauges.Set(name, Json::Double(value));
  }
  Json j = Json::Object();
  j.Set("counters", std::move(counters));
  j.Set("gauges", std::move(gauges));
  return j.Dump();
}

}  // namespace obs
}  // namespace etlopt
