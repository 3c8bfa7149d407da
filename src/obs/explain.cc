#include "obs/explain.h"

#include <algorithm>
#include <sstream>

#include "obs/accuracy.h"
#include "stats/stat_io.h"
#include "util/bitmask.h"
#include "util/json.h"
#include "util/string_util.h"

namespace etlopt {
namespace obs {
namespace {

std::string SeLabel(RelMask se) {
  std::string out = "{";
  bool first = true;
  for (int idx : MaskToIndices(se)) {
    if (!first) out += ",";
    out += "R" + std::to_string(idx);
    first = false;
  }
  out += "}";
  return out;
}

std::string FormatRows(double v) {
  if (v < 0) return "?";
  std::ostringstream out;
  out.precision(0);
  out << std::fixed << v;
  return out.str();
}

}  // namespace

Result<PlanExplain> BuildPlanExplain(
    const std::vector<ExplainBlockInput>& blocks,
    const std::string& workflow_name, const std::string& fingerprint,
    const DriftReport* drift) {
  PlanExplain explain;
  explain.workflow = workflow_name;
  explain.fingerprint = fingerprint;

  for (const ExplainBlockInput& input : blocks) {
    ETLOPT_CHECK(input.ctx != nullptr && input.catalog != nullptr &&
                 input.stats != nullptr);
    Estimator estimator(input.ctx, input.catalog);
    ETLOPT_RETURN_IF_ERROR(
        estimator.Derive(*input.stats, CardKeys(input.ses)));

    std::vector<RelMask> ses = input.ses;
    std::sort(ses.begin(), ses.end(), [](RelMask a, RelMask b) {
      const int pa = PopCount(a), pb = PopCount(b);
      return pa != pb ? pa < pb : a < b;
    });

    for (RelMask se : ses) {
      SeExplainEntry entry;
      entry.block = input.block;
      entry.se = se;
      entry.depth = PopCount(se) - 1;
      entry.source_run_id = input.source_run_id;

      const StatKey card_key = StatKey::Card(se);
      const Result<int64_t> est = estimator.Cardinality(se);
      if (est.ok()) {
        entry.estimated = static_cast<double>(*est);
        const StatProvenance* prov = estimator.FindProvenance(card_key);
        entry.rule = (prov == nullptr || prov->observed)
                         ? "observed"
                         : RuleName(prov->rule);
        entry.feeding = estimator.ObservedLeaves(card_key);
        // Sketch-backed estimates carry the propagated error bound so the
        // reader knows the estimate is approximate, and by how much.
        const StatValue* value = estimator.derived().Find(card_key);
        if (value != nullptr && value->is_approx()) {
          entry.rel_error = value->rel_error();
        }
      }
      if (input.actuals != nullptr) {
        const auto it = input.actuals->find(se);
        if (it != input.actuals->end()) {
          entry.actual = static_cast<double>(it->second);
        }
      }
      if (entry.estimated >= 0 && entry.actual >= 0) {
        entry.qerror = QError(entry.estimated, entry.actual);
      }
      if (drift != nullptr) {
        // An SE is drift-flagged when its own cardinality drifted or any
        // statistic feeding its estimate did.
        entry.drifted = drift->IsDrifted(input.block, card_key);
        for (const StatKey& leaf : entry.feeding) {
          entry.drifted = entry.drifted || drift->IsDrifted(input.block, leaf);
        }
      }
      explain.entries.push_back(std::move(entry));
    }
  }
  return explain;
}

std::string FormatPlanExplainText(const PlanExplain& explain,
                                  const AttrCatalog* catalog) {
  std::ostringstream out;
  out << "plan explain: workflow '" << explain.workflow << "' (fingerprint "
      << explain.fingerprint << ")\n";
  int last_block = -1;
  for (const SeExplainEntry& entry : explain.entries) {
    if (entry.block != last_block) {
      out << "block " << entry.block << ":\n";
      out << "  " << PadRight("sub-expression", 22) << PadLeft("est", 10)
          << PadLeft("actual", 10) << PadLeft("q-err", 8)
          << "  fed by\n";
      last_block = entry.block;
    }
    // Two-space tree indent per join depth.
    const std::string label =
        std::string(static_cast<size_t>(entry.depth) * 2, ' ') +
        SeLabel(entry.se);
    std::string qe = "-";
    if (entry.qerror >= 0) {
      std::ostringstream q;
      q.precision(2);
      q << std::fixed << entry.qerror;
      qe = q.str();
    }
    out << "  " << PadRight(label, 22) << PadLeft(FormatRows(entry.estimated), 10)
        << PadLeft(FormatRows(entry.actual), 10) << PadLeft(qe, 8) << "  ";
    if (entry.estimated < 0) {
      out << "(not derivable from stored statistics)";
    } else {
      out << entry.rule << "(";
      for (size_t i = 0; i < entry.feeding.size(); ++i) {
        if (i != 0) out << ", ";
        out << entry.feeding[i].ToString(catalog);
      }
      out << ")";
      if (!entry.source_run_id.empty()) out << " @" << entry.source_run_id;
    }
    if (entry.rel_error >= 0) {
      std::ostringstream e;
      e.precision(1);
      e << std::fixed << entry.rel_error * 100.0;
      out << "  [~±" << e.str() << "%]";
    }
    if (entry.drifted) out << "  [DRIFT]";
    out << "\n";
  }
  return out.str();
}

std::string PlanExplainJson(const PlanExplain& explain,
                            const AttrCatalog* catalog) {
  Json j = Json::Object();
  j.Set("workflow", Json::Str(explain.workflow));
  j.Set("fingerprint", Json::Str(explain.fingerprint));
  Json entries = Json::Array();
  for (const SeExplainEntry& entry : explain.entries) {
    Json je = Json::Object();
    je.Set("block", Json::Int(entry.block));
    je.Set("se", Json::Int(static_cast<int64_t>(entry.se)));
    je.Set("label", Json::Str(SeLabel(entry.se)));
    je.Set("depth", Json::Int(entry.depth));
    je.Set("estimated", Json::Double(entry.estimated));
    je.Set("actual", Json::Double(entry.actual));
    je.Set("qerror", Json::Double(entry.qerror));
    je.Set("drifted", Json::Bool(entry.drifted));
    je.Set("rel_error", Json::Double(entry.rel_error));
    je.Set("rule", Json::Str(entry.rule));
    je.Set("source_run_id", Json::Str(entry.source_run_id));
    Json feeding = Json::Array();
    for (const StatKey& leaf : entry.feeding) {
      Json jf = Json::Object();
      jf.Set("key", Json::Str(WriteStatKeySpec(leaf)));
      jf.Set("display", Json::Str(leaf.ToString(catalog)));
      jf.Set("run_id", Json::Str(entry.source_run_id));
      feeding.push_back(std::move(jf));
    }
    je.Set("feeding", std::move(feeding));
    entries.push_back(std::move(je));
  }
  j.Set("entries", std::move(entries));
  return j.Dump();
}

}  // namespace obs
}  // namespace etlopt
