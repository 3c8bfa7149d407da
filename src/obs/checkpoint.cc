#include "obs/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "stats/stat_io.h"
#include "util/json.h"

namespace etlopt {
namespace obs {

std::string TapCheckpoint::ToJson() const {
  Json j = Json::Object();
  j.Set("run_id", Json::Str(run_id));
  j.Set("fingerprint", Json::Str(fingerprint));
  j.Set("workflow", Json::Str(workflow));
  j.Set("partial", Json::Bool(partial));
  j.Set("rows_tapped", Json::Int(rows_tapped));
  Json watermarks = Json::Object();
  for (const auto& [source, rows] : source_rows_read) {
    watermarks.Set(source, Json::Int(rows));
  }
  j.Set("watermarks", std::move(watermarks));
  if (!partition_rows.empty()) {
    Json parts = Json::Array();
    for (int64_t rows : partition_rows) parts.push_back(Json::Int(rows));
    j.Set("partition_rows", std::move(parts));
  }
  // Same stat_io text codec the ledger embeds, one string per block.
  Json stats = Json::Array();
  for (const StatStore& store : block_stats) {
    stats.push_back(Json::Str(WriteStatStoreText(store)));
  }
  j.Set("stats", std::move(stats));
  return j.Dump();
}

Result<TapCheckpoint> TapCheckpoint::FromJson(const std::string& text) {
  ETLOPT_ASSIGN_OR_RETURN(const Json j, Json::Parse(text));
  if (!j.is_object()) {
    return Status::InvalidArgument("tap checkpoint is not a JSON object");
  }
  TapCheckpoint checkpoint;
  checkpoint.run_id = j.GetString("run_id");
  checkpoint.fingerprint = j.GetString("fingerprint");
  checkpoint.workflow = j.GetString("workflow");
  if (const Json* partial = j.Find("partial");
      partial != nullptr && partial->is_bool()) {
    checkpoint.partial = partial->bool_value();
  }
  checkpoint.rows_tapped = j.GetInt("rows_tapped");
  if (const Json* watermarks = j.Find("watermarks");
      watermarks != nullptr && watermarks->is_object()) {
    for (const auto& [source, rows] : watermarks->members()) {
      if (rows.is_number()) {
        checkpoint.source_rows_read.emplace_back(source, rows.int_value());
      }
    }
  }
  if (const Json* parts = j.Find("partition_rows");
      parts != nullptr && parts->is_array()) {
    for (const Json& rows : parts->array()) {
      if (rows.is_number()) checkpoint.partition_rows.push_back(rows.int_value());
    }
  }
  if (const Json* stats = j.Find("stats");
      stats != nullptr && stats->is_array()) {
    for (const Json& js : stats->array()) {
      if (!js.is_string()) continue;
      ETLOPT_ASSIGN_OR_RETURN(StatStore store,
                              ParseStatStoreText(js.string_value()));
      checkpoint.block_stats.push_back(std::move(store));
    }
  }
  return checkpoint;
}

Status CheckpointWriter::Flush(const TapCheckpoint& checkpoint) {
  // Atomic replace: write beside the target, fsync, rename. A crash at any
  // instant leaves either the previous snapshot or this one, never a torn
  // file.
  const std::string tmp_path = path_ + ".tmp";
  {
    std::ofstream out(tmp_path, std::ios::trunc);
    if (!out) {
      return Status::InvalidArgument("cannot open '" + tmp_path +
                                     "' for writing");
    }
    out << checkpoint.ToJson() << "\n";
    out.flush();
    if (!out.good()) {
      return Status::Internal("write to '" + tmp_path + "' failed");
    }
  }
  const int fd = ::open(tmp_path.c_str(), O_RDONLY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
  if (std::rename(tmp_path.c_str(), path_.c_str()) != 0) {
    return Status::Internal("rename '" + tmp_path + "' -> '" + path_ +
                            "' failed");
  }
  ++flushes_;
  return Status::OK();
}

Status CheckpointWriter::Discard() {
  std::remove(path_.c_str());
  return Status::OK();
}

Result<TapCheckpoint> LoadTapCheckpoint(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("no tap checkpoint at '" + path + "'");
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return TapCheckpoint::FromJson(buf.str());
}

}  // namespace obs
}  // namespace etlopt
