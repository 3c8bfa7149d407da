#include "obs/ledger.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "etl/workflow_io.h"
#include "stats/stat_io.h"
#include "util/json.h"
#include "util/logging.h"

namespace etlopt {
namespace obs {
namespace {

uint64_t Fnv1a64(const std::string& text) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string ToHex16(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

std::string FingerprintText(const std::string& text) {
  return ToHex16(Fnv1a64(text));
}

std::string FingerprintWorkflow(const Workflow& workflow) {
  Status status;
  const std::string text = WriteWorkflowText(workflow, &status);
  return FingerprintText(status.ok() ? text : workflow.ToString());
}

void RunRecord::AddMetric(const std::string& name, int64_t value) {
  const auto it = std::lower_bound(
      metrics.begin(), metrics.end(), name,
      [](const auto& entry, const std::string& key) {
        return entry.first < key;
      });
  if (it != metrics.end() && it->first == name) {
    it->second += value;
  } else {
    metrics.emplace(it, name, value);
  }
}

int64_t RunRecord::Metric(const std::string& name) const {
  for (const auto& [key, value] : metrics) {
    if (key == name) return value;
  }
  return 0;
}

std::string RunRecord::ToJsonLine() const {
  Json j = Json::Object();
  j.Set("run_id", Json::Str(run_id));
  j.Set("fingerprint", Json::Str(fingerprint));
  j.Set("workflow", Json::Str(workflow));
  j.Set("ts_ms", Json::Int(timestamp_ms));
  j.Set("selector", Json::Str(selector));
  j.Set("plan_sig", Json::Str(plan_signature));
  j.Set("initial_cost", Json::Double(initial_cost));
  j.Set("optimized_cost", Json::Double(optimized_cost));
  Json phases = Json::Object();
  phases.Set("analyze_ms", Json::Double(analyze_ms));
  phases.Set("execute_ms", Json::Double(execute_ms));
  phases.Set("optimize_ms", Json::Double(optimize_ms));
  j.Set("phases", std::move(phases));
  Json jcards = Json::Array();
  for (const SeCard& c : cards) {
    Json jc = Json::Object();
    jc.Set("block", Json::Int(c.block));
    jc.Set("se", Json::Int(static_cast<int64_t>(c.se)));
    jc.Set("est", Json::Double(c.estimated));
    jc.Set("actual", Json::Double(c.actual));
    jcards.push_back(std::move(jc));
  }
  j.Set("cards", std::move(jcards));
  // Observed statistics ride along as the stat_io text codec, one string
  // per block — full fidelity (histograms included) without inventing a
  // second statistics serialization.
  Json jstats = Json::Array();
  for (const StatStore& store : block_stats) {
    jstats.push_back(Json::Str(WriteStatStoreText(store)));
  }
  j.Set("stats", std::move(jstats));
  Json jmetrics = Json::Object();
  for (const auto& [name, value] : metrics) {
    jmetrics.Set(name, Json::Int(value));
  }
  j.Set("metrics", std::move(jmetrics));
  // Robustness fields ride along only when they carry information, so the
  // clean-run line format is byte-identical to the pre-robustness era.
  if (partial) {
    j.Set("partial", Json::Bool(true));
    j.Set("abort_reason", Json::Str(abort_reason));
    j.Set("completion", Json::Double(completion));
  }
  if (!source_rows_read.empty()) {
    Json watermarks = Json::Object();
    for (const auto& [source, rows] : source_rows_read) {
      watermarks.Set(source, Json::Int(rows));
    }
    j.Set("watermarks", std::move(watermarks));
  }
  if (!source_retries.empty()) {
    Json retries = Json::Object();
    for (const auto& [source, count] : source_retries) {
      retries.Set(source, Json::Int(count));
    }
    j.Set("retries", std::move(retries));
  }
  if (quarantined_rows > 0) {
    j.Set("quarantined", Json::Int(quarantined_rows));
  }
  if (num_threads != 1) {
    j.Set("num_threads", Json::Int(num_threads));
  }
  if (partitions > 0) {
    j.Set("partitions", Json::Int(partitions));
    j.Set("partition_skew", Json::Double(partition_skew));
  }
  if (peak_rss_bytes > 0) {
    j.Set("peak_rss_bytes", Json::Int(peak_rss_bytes));
  }
  if (!profile.empty()) {
    j.Set("profile", ProfileToJson(profile));
  }
  if (!build.git_sha.empty()) {
    Json jbuild = Json::Object();
    jbuild.Set("sha", Json::Str(build.git_sha));
    jbuild.Set("compiler", Json::Str(build.compiler));
    jbuild.Set("type", Json::Str(build.build_type));
    if (!build.sanitizers.empty()) {
      jbuild.Set("sanitizers", Json::Str(build.sanitizers));
    }
    j.Set("build", std::move(jbuild));
  }
  if (guard.engaged()) {
    j.Set("guard", guard.ToJson());
  }
  return j.Dump();
}

Result<RunRecord> RunRecord::FromJsonLine(const std::string& line) {
  ETLOPT_ASSIGN_OR_RETURN(const Json j, Json::Parse(line));
  if (!j.is_object()) {
    return Status::InvalidArgument("ledger record is not a JSON object");
  }
  RunRecord record;
  record.run_id = j.GetString("run_id");
  record.fingerprint = j.GetString("fingerprint");
  record.workflow = j.GetString("workflow");
  record.timestamp_ms = j.GetInt("ts_ms");
  record.selector = j.GetString("selector");
  record.plan_signature = j.GetString("plan_sig");
  record.initial_cost = j.GetDouble("initial_cost");
  record.optimized_cost = j.GetDouble("optimized_cost");
  if (const Json* phases = j.Find("phases");
      phases != nullptr && phases->is_object()) {
    record.analyze_ms = phases->GetDouble("analyze_ms");
    record.execute_ms = phases->GetDouble("execute_ms");
    record.optimize_ms = phases->GetDouble("optimize_ms");
  }
  if (const Json* cards = j.Find("cards");
      cards != nullptr && cards->is_array()) {
    for (const Json& jc : cards->array()) {
      if (!jc.is_object()) continue;
      SeCard c;
      c.block = static_cast<int>(jc.GetInt("block"));
      c.se = static_cast<RelMask>(jc.GetInt("se"));
      c.estimated = jc.GetDouble("est", -1.0);
      c.actual = jc.GetDouble("actual", -1.0);
      record.cards.push_back(c);
    }
  }
  if (const Json* stats = j.Find("stats");
      stats != nullptr && stats->is_array()) {
    for (const Json& js : stats->array()) {
      if (!js.is_string()) continue;
      ETLOPT_ASSIGN_OR_RETURN(StatStore store,
                              ParseStatStoreText(js.string_value()));
      record.block_stats.push_back(std::move(store));
    }
  }
  if (const Json* metrics = j.Find("metrics");
      metrics != nullptr && metrics->is_object()) {
    for (const auto& [name, value] : metrics->members()) {
      if (value.is_number()) {
        record.metrics.emplace_back(name, value.int_value());
      }
    }
  }
  if (const Json* partial = j.Find("partial");
      partial != nullptr && partial->is_bool() && partial->bool_value()) {
    record.partial = true;
    record.abort_reason = j.GetString("abort_reason");
    record.completion = j.GetDouble("completion", 1.0);
  }
  if (const Json* watermarks = j.Find("watermarks");
      watermarks != nullptr && watermarks->is_object()) {
    for (const auto& [source, rows] : watermarks->members()) {
      if (rows.is_number()) {
        record.source_rows_read.emplace_back(source, rows.int_value());
      }
    }
  }
  if (const Json* retries = j.Find("retries");
      retries != nullptr && retries->is_object()) {
    for (const auto& [source, count] : retries->members()) {
      if (count.is_number()) {
        record.source_retries.emplace_back(source, count.int_value());
      }
    }
  }
  record.quarantined_rows = j.GetInt("quarantined", 0);
  record.num_threads = static_cast<int>(j.GetInt("num_threads", 1));
  record.partitions = static_cast<int>(j.GetInt("partitions", 0));
  record.partition_skew = j.GetDouble("partition_skew", 0.0);
  record.peak_rss_bytes = j.GetInt("peak_rss_bytes", 0);
  if (const Json* profile = j.Find("profile");
      profile != nullptr && profile->is_object()) {
    record.profile = ProfileFromJson(*profile);
  }
  if (const Json* guard = j.Find("guard");
      guard != nullptr && guard->is_object()) {
    record.guard = GuardRecord::FromJson(*guard);
  }
  if (const Json* build = j.Find("build");
      build != nullptr && build->is_object()) {
    record.build.git_sha = build->GetString("sha");
    record.build.compiler = build->GetString("compiler");
    record.build.build_type = build->GetString("type");
    record.build.sanitizers = build->GetString("sanitizers");
  }
  return record;
}

Result<LedgerLoadResult> RunLedger::Load() const {
  LedgerLoadResult result;
  std::ifstream in(path_);
  if (!in) return result;  // first run: no ledger yet
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    Result<RunRecord> record = RunRecord::FromJsonLine(line);
    if (!record.ok()) {
      // A torn append (crash mid-write of the pre-rename era), an editor
      // mishap, or plain garbage anywhere in the file: skip the line rather
      // than losing the whole history, but say so — silent tolerance hides
      // real corruption.
      ++result.skipped_lines;
      ETLOPT_LOG(Warning) << "ledger '" << path_ << "' line " << line_number
                          << " unreadable, skipped: "
                          << record.status().ToString();
      continue;
    }
    result.records.push_back(std::move(*record));
  }
  return result;
}

Status RunLedger::Append(const RunRecord& record) {
  // Crash-safe append: existing content + new line into a temp file in the
  // same directory, fsync, then rename over the ledger.
  std::string existing;
  {
    std::ifstream in(path_);
    if (in) {
      std::ostringstream buf;
      buf << in.rdbuf();
      existing = buf.str();
    }
  }
  if (!existing.empty() && existing.back() != '\n') existing += '\n';

  const std::string tmp_path = path_ + ".tmp";
  {
    std::ofstream out(tmp_path, std::ios::trunc);
    if (!out) {
      return Status::InvalidArgument("cannot open '" + tmp_path +
                                     "' for writing");
    }
    out << existing << record.ToJsonLine() << "\n";
    out.flush();
    if (!out.good()) {
      return Status::Internal("write to '" + tmp_path + "' failed");
    }
  }
  // Flush file contents to stable storage before the rename commits it.
  const int fd = ::open(tmp_path.c_str(), O_RDONLY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
  if (std::rename(tmp_path.c_str(), path_.c_str()) != 0) {
    return Status::Internal("rename '" + tmp_path + "' -> '" + path_ +
                            "' failed");
  }
  return Status::OK();
}

std::vector<RunRecord> RunLedger::HistoryFor(
    const std::vector<RunRecord>& records, const std::string& fingerprint) {
  std::vector<RunRecord> history;
  for (const RunRecord& record : records) {
    if (record.fingerprint == fingerprint) history.push_back(record);
  }
  return history;
}

std::string RunLedger::NextRunId(const std::vector<RunRecord>& records,
                                 const std::string& fingerprint) {
  return "run-" +
         std::to_string(HistoryFor(records, fingerprint).size() + 1);
}

}  // namespace obs
}  // namespace etlopt
