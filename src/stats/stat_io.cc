#include "stats/stat_io.h"

#include <algorithm>
#include <fstream>
#include <sstream>

namespace etlopt {
namespace {

const char* KindToken(StatKind kind) {
  switch (kind) {
    case StatKind::kCard:
      return "card";
    case StatKind::kDistinct:
      return "distinct";
    case StatKind::kHist:
      return "hist";
    case StatKind::kRejectJoinCard:
      return "rejcard";
    case StatKind::kRejectJoinHist:
      return "rejhist";
  }
  return "?";
}

bool ParseKindToken(const std::string& token, StatKind* kind) {
  if (token == "card") {
    *kind = StatKind::kCard;
  } else if (token == "distinct") {
    *kind = StatKind::kDistinct;
  } else if (token == "hist") {
    *kind = StatKind::kHist;
  } else if (token == "rejcard") {
    *kind = StatKind::kRejectJoinCard;
  } else if (token == "rejhist") {
    *kind = StatKind::kRejectJoinHist;
  } else {
    return false;
  }
  return true;
}

// Parses "name=value" returning the value; empty on mismatch.
Result<int64_t> Field(const std::string& token, const char* name,
                      int lineno) {
  const std::string prefix = std::string(name) + "=";
  if (token.rfind(prefix, 0) != 0) {
    return Status::InvalidArgument("line " + std::to_string(lineno) +
                                   ": expected " + prefix + "..., got '" +
                                   token + "'");
  }
  try {
    size_t pos = 0;
    const int64_t v = std::stoll(token.substr(prefix.size()), &pos);
    if (pos != token.size() - prefix.size()) {
      throw std::invalid_argument(token);
    }
    return v;
  } catch (...) {
    return Status::InvalidArgument("line " + std::to_string(lineno) +
                                   ": bad integer in '" + token + "'");
  }
}

// Parses "name=value" as a double; error on mismatch.
Result<double> DoubleField(const std::string& token, const char* name,
                           int lineno) {
  const std::string prefix = std::string(name) + "=";
  if (token.rfind(prefix, 0) != 0) {
    return Status::InvalidArgument("line " + std::to_string(lineno) +
                                   ": expected " + prefix + "..., got '" +
                                   token + "'");
  }
  try {
    size_t pos = 0;
    const double v = std::stod(token.substr(prefix.size()), &pos);
    if (pos != token.size() - prefix.size()) {
      throw std::invalid_argument(token);
    }
    return v;
  } catch (...) {
    return Status::InvalidArgument("line " + std::to_string(lineno) +
                                   ": bad number in '" + token + "'");
  }
}

// Trailing "mode=sketch err=<e>" annotation after value=/buckets=. Absent
// tokens mean exact collection — the pre-sketch format parses unchanged, so
// old ledgers and stat files stay loadable.
Result<double> ParseModeSuffix(std::istringstream& ls, int lineno) {
  std::string token;
  double rel_error = 0.0;
  bool sketch = false;
  while (ls >> token) {
    if (token == "mode=exact") {
      continue;
    } else if (token == "mode=sketch") {
      sketch = true;
    } else if (token.rfind("err=", 0) == 0) {
      ETLOPT_ASSIGN_OR_RETURN(rel_error, DoubleField(token, "err", lineno));
    } else {
      return Status::InvalidArgument("line " + std::to_string(lineno) +
                                     ": unexpected token '" + token + "'");
    }
  }
  return sketch ? std::max(rel_error, 0.0) : -1.0;  // -1: exact
}

// Writes "<kind> rels=.. stage=.. [attrs=..] [left=.. k=..]".
void AppendKeySpec(std::ostream& out, const StatKey& key) {
  out << KindToken(key.kind) << " rels=" << key.rels
      << " stage=" << key.stage;
  if (key.kind != StatKind::kCard && key.kind != StatKind::kRejectJoinCard) {
    out << " attrs=" << key.attrs;
  }
  if (key.is_reject()) {
    out << " left=" << key.reject_left
        << " k=" << static_cast<int>(key.reject_k);
  }
}

// Reads the kind token + key fields from a token stream, leaving any
// trailing tokens (value=/buckets=) unconsumed.
Result<StatKey> ParseKeyFromStream(std::istringstream& ls, int lineno) {
  std::string kind_token;
  if (!(ls >> kind_token)) {
    return Status::InvalidArgument("line " + std::to_string(lineno) +
                                   ": missing statistic kind");
  }
  StatKey key;
  if (!ParseKindToken(kind_token, &key.kind)) {
    return Status::InvalidArgument("line " + std::to_string(lineno) +
                                   ": unknown kind '" + kind_token + "'");
  }
  std::string token;
  if (!(ls >> token)) return Status::InvalidArgument("missing rels");
  ETLOPT_ASSIGN_OR_RETURN(const int64_t rels, Field(token, "rels", lineno));
  key.rels = static_cast<RelMask>(rels);
  if (!(ls >> token)) return Status::InvalidArgument("missing stage");
  ETLOPT_ASSIGN_OR_RETURN(const int64_t stage, Field(token, "stage", lineno));
  key.stage = static_cast<int16_t>(stage);
  if (key.kind != StatKind::kCard && key.kind != StatKind::kRejectJoinCard) {
    if (!(ls >> token)) return Status::InvalidArgument("missing attrs");
    ETLOPT_ASSIGN_OR_RETURN(const int64_t attrs,
                            Field(token, "attrs", lineno));
    key.attrs = static_cast<AttrMask>(attrs);
  }
  if (key.is_reject()) {
    if (!(ls >> token)) return Status::InvalidArgument("missing left");
    ETLOPT_ASSIGN_OR_RETURN(const int64_t left, Field(token, "left", lineno));
    key.reject_left = static_cast<RelMask>(left);
    if (!(ls >> token)) return Status::InvalidArgument("missing k");
    ETLOPT_ASSIGN_OR_RETURN(const int64_t k, Field(token, "k", lineno));
    key.reject_k = static_cast<uint8_t>(k);
  }
  return key;
}

}  // namespace

std::string WriteStatKeySpec(const StatKey& key) {
  std::ostringstream out;
  AppendKeySpec(out, key);
  return out.str();
}

Result<StatKey> ParseStatKeySpec(const std::string& spec) {
  std::istringstream ls(spec);
  ETLOPT_ASSIGN_OR_RETURN(const StatKey key, ParseKeyFromStream(ls, 1));
  std::string trailing;
  if (ls >> trailing) {
    return Status::InvalidArgument("trailing tokens in stat key spec '" +
                                   spec + "'");
  }
  return key;
}

std::string WriteStatStoreText(const StatStore& store) {
  // Stable ordering for diff-friendly output.
  std::vector<const StatKey*> keys;
  keys.reserve(store.values().size());
  for (const auto& [key, value] : store.values()) {
    (void)value;
    keys.push_back(&key);
  }
  std::sort(keys.begin(), keys.end(), [](const StatKey* a, const StatKey* b) {
    return std::tie(a->kind, a->rels, a->stage, a->attrs, a->reject_left,
                    a->reject_k) < std::tie(b->kind, b->rels, b->stage,
                                            b->attrs, b->reject_left,
                                            b->reject_k);
  });

  std::ostringstream out;
  for (const StatKey* key : keys) {
    const StatValue& value = *store.Find(*key);
    // Collection-mode annotation: only sketch-backed values carry it, so
    // exact stores serialize byte-identically to the pre-sketch format.
    std::string mode_suffix;
    if (value.is_approx()) {
      std::ostringstream m;
      m << " mode=sketch err=" << value.rel_error();
      mode_suffix = m.str();
    }
    out << "stat ";
    AppendKeySpec(out, *key);
    if (value.is_count()) {
      out << " value=" << value.count() << mode_suffix << "\n";
    } else {
      const Histogram& hist = value.hist();
      out << " buckets=" << hist.NumBuckets() << mode_suffix << "\n";
      // Deterministic bucket order.
      for (const auto& [bucket_key, count] : hist.SortedBuckets()) {
        out << "bucket";
        for (Value v : bucket_key) out << " " << v;
        out << " = " << count << "\n";
      }
    }
  }
  return out.str();
}

Result<StatStore> ParseStatStoreText(const std::string& text) {
  StatStore store;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;

  // Pending histogram being filled.
  bool pending_hist = false;
  StatKey pending_key;
  Histogram pending;
  int64_t remaining_buckets = 0;
  double pending_rel_error = -1.0;  // -1: exact

  auto flush = [&]() {
    if (pending_hist) {
      store.Set(pending_key,
                pending_rel_error >= 0.0
                    ? StatValue::HistApprox(std::move(pending),
                                            pending_rel_error)
                    : StatValue::Hist(std::move(pending)));
      pending_hist = false;
    }
  };

  while (std::getline(in, line)) {
    ++lineno;
    std::istringstream ls(line);
    std::string head;
    if (!(ls >> head)) continue;
    if (head == "bucket") {
      if (!pending_hist || remaining_buckets <= 0) {
        return Status::InvalidArgument("line " + std::to_string(lineno) +
                                       ": unexpected bucket line");
      }
      std::vector<Value> key;
      std::string token;
      std::vector<std::string> tokens;
      while (ls >> token) tokens.push_back(token);
      // Format: v1 v2 ... = count
      if (tokens.size() < 3 || tokens[tokens.size() - 2] != "=") {
        return Status::InvalidArgument("line " + std::to_string(lineno) +
                                       ": malformed bucket line");
      }
      try {
        for (size_t i = 0; i + 2 < tokens.size(); ++i) {
          key.push_back(std::stoll(tokens[i]));
        }
        const int64_t count = std::stoll(tokens.back());
        pending.Add(key, count);
      } catch (...) {
        return Status::InvalidArgument("line " + std::to_string(lineno) +
                                       ": bad bucket values");
      }
      --remaining_buckets;
      if (remaining_buckets == 0) flush();
      continue;
    }
    if (head != "stat") {
      return Status::InvalidArgument("line " + std::to_string(lineno) +
                                     ": expected 'stat' or 'bucket'");
    }
    if (pending_hist && remaining_buckets > 0) {
      return Status::InvalidArgument(
          "line " + std::to_string(lineno) +
          ": previous histogram is missing bucket lines");
    }
    flush();

    ETLOPT_ASSIGN_OR_RETURN(const StatKey key, ParseKeyFromStream(ls, lineno));
    std::string token;
    if (!(ls >> token)) {
      return Status::InvalidArgument("line " + std::to_string(lineno) +
                                     ": missing value/buckets");
    }
    const bool is_hist = key.kind == StatKind::kHist ||
                         key.kind == StatKind::kRejectJoinHist;
    if (is_hist) {
      ETLOPT_ASSIGN_OR_RETURN(remaining_buckets,
                              Field(token, "buckets", lineno));
      ETLOPT_ASSIGN_OR_RETURN(pending_rel_error,
                              ParseModeSuffix(ls, lineno));
      pending_key = key;
      pending = Histogram(key.attrs);
      pending_hist = true;
      if (remaining_buckets == 0) flush();
    } else {
      ETLOPT_ASSIGN_OR_RETURN(const int64_t value,
                              Field(token, "value", lineno));
      ETLOPT_ASSIGN_OR_RETURN(const double rel_error,
                              ParseModeSuffix(ls, lineno));
      store.Set(key, rel_error >= 0.0
                         ? StatValue::CountApprox(value, rel_error)
                         : StatValue::Count(value));
    }
  }
  if (pending_hist && remaining_buckets > 0) {
    return Status::InvalidArgument("truncated histogram at end of input");
  }
  flush();
  return store;
}

Status SaveStatStore(const StatStore& store, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return Status::InvalidArgument("cannot open '" + path + "' for writing");
  }
  out << WriteStatStoreText(store);
  return out.good() ? Status::OK()
                    : Status::Internal("write to '" + path + "' failed");
}

Result<StatStore> LoadStatStore(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("cannot open statistics file '" + path + "'");
  }
  std::ostringstream text;
  text << in.rdbuf();
  return ParseStatStoreText(text.str());
}

}  // namespace etlopt
