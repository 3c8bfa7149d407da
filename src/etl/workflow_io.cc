#include "etl/workflow_io.h"

#include <fstream>
#include <memory>
#include <sstream>
#include <unordered_map>

#include "etl/transforms.h"
#include "etl/workflow_builder.h"

namespace etlopt {
namespace {

const char* OpToken(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "eq";
    case CompareOp::kNe:
      return "ne";
    case CompareOp::kLt:
      return "lt";
    case CompareOp::kLe:
      return "le";
    case CompareOp::kGt:
      return "gt";
    case CompareOp::kGe:
      return "ge";
  }
  return "?";
}

bool ParseOpToken(const std::string& token, CompareOp* op) {
  if (token == "eq") {
    *op = CompareOp::kEq;
  } else if (token == "ne") {
    *op = CompareOp::kNe;
  } else if (token == "lt") {
    *op = CompareOp::kLt;
  } else if (token == "le") {
    *op = CompareOp::kLe;
  } else if (token == "gt") {
    *op = CompareOp::kGt;
  } else if (token == "ge") {
    *op = CompareOp::kGe;
  } else {
    return false;
  }
  return true;
}

// Attribute names in the format are single tokens; enforce on write so the
// reader's tokenizer stays trivial.
Status CheckToken(const std::string& s, const char* what) {
  if (s.empty()) {
    return Status::InvalidArgument(std::string(what) + " is empty");
  }
  for (char c : s) {
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
      return Status::InvalidArgument(std::string(what) + " '" + s +
                                     "' contains whitespace");
    }
  }
  return Status::OK();
}

}  // namespace

std::string WriteWorkflowText(const Workflow& workflow, Status* status) {
  *status = Status::OK();
  std::ostringstream out;
  const AttrCatalog& catalog = workflow.catalog();
  Status st = CheckToken(workflow.name(), "workflow name");
  if (!st.ok()) {
    *status = st;
    return "";
  }
  out << "workflow " << workflow.name() << "\n";
  for (AttrId a = 0; a < catalog.size(); ++a) {
    st = CheckToken(catalog.name(a), "attribute name");
    if (!st.ok()) {
      *status = st;
      return "";
    }
    out << "attr " << catalog.name(a) << " " << catalog.domain_size(a)
        << "\n";
  }
  for (const WorkflowNode& node : workflow.nodes()) {
    out << "node " << node.id << " ";
    switch (node.kind) {
      case OpKind::kSource: {
        st = CheckToken(node.table_name, "source table name");
        if (!st.ok()) break;
        out << "source " << node.table_name << " cols";
        for (AttrId a : node.source_schema.attrs()) {
          out << " " << catalog.name(a);
        }
        break;
      }
      case OpKind::kFilter:
        out << "filter " << node.inputs[0] << " where "
            << catalog.name(node.predicate.attr) << " "
            << OpToken(node.predicate.op) << " " << node.predicate.constant;
        break;
      case OpKind::kProject: {
        out << "project " << node.inputs[0] << " cols";
        for (AttrId a : node.keep) out << " " << catalog.name(a);
        break;
      }
      case OpKind::kTransform: {
        const std::string fn = LookupTransformName(node.transform.fn);
        if (fn.empty()) {
          st = Status::InvalidArgument(
              "node '" + node.name +
              "' uses an unregistered transform function; only registry "
              "transforms serialize (see etl/transforms.h)");
          break;
        }
        if (node.transform.is_aggregate) {
          out << "aggudf " << node.inputs[0] << " attr "
              << catalog.name(node.transform.input_attr) << " fn " << fn;
        } else if (node.transform.output_attr == node.transform.input_attr) {
          out << "transform " << node.inputs[0] << " attr "
              << catalog.name(node.transform.input_attr) << " fn " << fn;
        } else {
          out << "derive " << node.inputs[0] << " from "
              << catalog.name(node.transform.input_attr) << " to "
              << catalog.name(node.transform.output_attr) << " fn " << fn;
        }
        break;
      }
      case OpKind::kAggregate: {
        out << "aggregate " << node.inputs[0] << " group";
        for (AttrId a : node.aggregate.group_by) {
          out << " " << catalog.name(a);
        }
        if (node.aggregate.count_attr != kInvalidAttr) {
          out << " count " << catalog.name(node.aggregate.count_attr);
        }
        break;
      }
      case OpKind::kJoin:
        out << "join " << node.inputs[0] << " " << node.inputs[1] << " on "
            << catalog.name(node.join.attr);
        if (node.join.left_reject_link) out << " reject";
        if (node.join.fk_lookup) out << " fk";
        if (node.join.algorithm == JoinAlgorithm::kHash) out << " hash";
        break;
      case OpKind::kMaterialize:
        st = CheckToken(node.target_name, "materialize target");
        if (!st.ok()) break;
        out << "materialize " << node.inputs[0] << " target "
            << node.target_name;
        break;
      case OpKind::kSink:
        st = CheckToken(node.target_name, "sink target");
        if (!st.ok()) break;
        out << "sink " << node.inputs[0] << " target " << node.target_name;
        break;
    }
    if (!st.ok()) {
      *status = st;
      return "";
    }
    out << "\n";
  }
  return out.str();
}

std::string WriteWorkflowTextOrDie(const Workflow& workflow) {
  Status status;
  std::string text = WriteWorkflowText(workflow, &status);
  ETLOPT_CHECK_MSG(status.ok(), status.ToString());
  return text;
}

namespace {

// Parsing helpers over a token stream for one line.
class LineParser {
 public:
  LineParser(std::string line, int lineno)
      : stream_(std::move(line)), lineno_(lineno) {}

  Result<std::string> Token(const char* what) {
    std::string t;
    if (!(stream_ >> t)) {
      return Status::InvalidArgument("line " + std::to_string(lineno_) +
                                     ": expected " + what);
    }
    return t;
  }

  Result<int64_t> Int(const char* what) {
    ETLOPT_ASSIGN_OR_RETURN(std::string t, Token(what));
    try {
      size_t pos = 0;
      const int64_t v = std::stoll(t, &pos);
      if (pos != t.size()) throw std::invalid_argument(t);
      return v;
    } catch (...) {
      return Status::InvalidArgument("line " + std::to_string(lineno_) +
                                     ": bad integer '" + t + "' for " + what);
    }
  }

  // Expects the literal keyword `kw` next.
  Status Keyword(const char* kw) {
    ETLOPT_ASSIGN_OR_RETURN(std::string t, Token(kw));
    if (t != kw) {
      return Status::InvalidArgument("line " + std::to_string(lineno_) +
                                     ": expected '" + kw + "', got '" + t +
                                     "'");
    }
    return Status::OK();
  }

  // Remaining tokens on the line.
  std::vector<std::string> Rest() {
    std::vector<std::string> out;
    std::string t;
    while (stream_ >> t) out.push_back(t);
    return out;
  }

  bool AtEnd() {
    std::string t;
    return !(stream_ >> t);
  }

  int lineno() const { return lineno_; }

 private:
  std::istringstream stream_;
  int lineno_;
};

}  // namespace

Result<Workflow> ParseWorkflowText(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  int lineno = 0;

  std::unique_ptr<WorkflowBuilder> builder;
  std::unordered_map<std::string, AttrId> attrs;
  std::vector<NodeId> nodes;  // parsed-id -> builder node id

  auto attr_of = [&](const std::string& name,
                     int at_line) -> Result<AttrId> {
    auto it = attrs.find(name);
    if (it == attrs.end()) {
      return Status::InvalidArgument("line " + std::to_string(at_line) +
                                     ": unknown attribute '" + name + "'");
    }
    return it->second;
  };
  auto node_of = [&](int64_t id, int at_line) -> Result<NodeId> {
    if (id < 0 || id >= static_cast<int64_t>(nodes.size())) {
      return Status::InvalidArgument("line " + std::to_string(at_line) +
                                     ": unknown node id " +
                                     std::to_string(id));
    }
    return nodes[static_cast<size_t>(id)];
  };

  while (std::getline(in, line)) {
    ++lineno;
    // Strip comments.
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    LineParser p(line, lineno);
    if (p.AtEnd()) continue;
    p = LineParser(line, lineno);

    ETLOPT_ASSIGN_OR_RETURN(const std::string kind, p.Token("directive"));
    if (kind == "workflow") {
      ETLOPT_ASSIGN_OR_RETURN(const std::string name, p.Token("name"));
      if (builder != nullptr) {
        return Status::InvalidArgument("line " + std::to_string(lineno) +
                                       ": duplicate 'workflow' directive");
      }
      builder = std::make_unique<WorkflowBuilder>(name);
      continue;
    }
    if (builder == nullptr) {
      return Status::InvalidArgument(
          "line " + std::to_string(lineno) +
          ": file must start with a 'workflow <name>' directive");
    }
    if (kind == "attr") {
      ETLOPT_ASSIGN_OR_RETURN(const std::string name, p.Token("attr name"));
      ETLOPT_ASSIGN_OR_RETURN(const int64_t domain, p.Int("domain size"));
      if (attrs.count(name)) {
        return Status::InvalidArgument("line " + std::to_string(lineno) +
                                       ": duplicate attribute '" + name +
                                       "'");
      }
      if (domain < 1) {
        return Status::InvalidArgument("line " + std::to_string(lineno) +
                                       ": domain must be positive");
      }
      attrs[name] = builder->DeclareAttr(name, domain);
      continue;
    }
    if (kind != "node") {
      return Status::InvalidArgument("line " + std::to_string(lineno) +
                                     ": unknown directive '" + kind + "'");
    }
    ETLOPT_ASSIGN_OR_RETURN(const int64_t parsed_id, p.Int("node id"));
    if (parsed_id != static_cast<int64_t>(nodes.size())) {
      return Status::InvalidArgument("line " + std::to_string(lineno) +
                                     ": node ids must be dense and ordered "
                                     "(expected " +
                                     std::to_string(nodes.size()) + ")");
    }
    ETLOPT_ASSIGN_OR_RETURN(const std::string op, p.Token("operator"));

    if (op == "source") {
      ETLOPT_ASSIGN_OR_RETURN(const std::string table, p.Token("table"));
      ETLOPT_RETURN_IF_ERROR(p.Keyword("cols"));
      std::vector<AttrId> cols;
      for (const std::string& name : p.Rest()) {
        ETLOPT_ASSIGN_OR_RETURN(const AttrId a, attr_of(name, lineno));
        cols.push_back(a);
      }
      if (cols.empty()) {
        return Status::InvalidArgument("line " + std::to_string(lineno) +
                                       ": source needs at least one column");
      }
      nodes.push_back(builder->Source(table, std::move(cols)));
    } else if (op == "filter") {
      ETLOPT_ASSIGN_OR_RETURN(const int64_t in, p.Int("input"));
      ETLOPT_ASSIGN_OR_RETURN(const NodeId input, node_of(in, lineno));
      ETLOPT_RETURN_IF_ERROR(p.Keyword("where"));
      ETLOPT_ASSIGN_OR_RETURN(const std::string attr, p.Token("attribute"));
      ETLOPT_ASSIGN_OR_RETURN(const std::string op_token,
                              p.Token("comparison"));
      ETLOPT_ASSIGN_OR_RETURN(const int64_t constant, p.Int("constant"));
      ETLOPT_ASSIGN_OR_RETURN(const AttrId a, attr_of(attr, lineno));
      Predicate pred;
      pred.attr = a;
      pred.constant = constant;
      if (!ParseOpToken(op_token, &pred.op)) {
        return Status::InvalidArgument("line " + std::to_string(lineno) +
                                       ": bad comparison '" + op_token + "'");
      }
      nodes.push_back(builder->Filter(input, pred));
    } else if (op == "project") {
      ETLOPT_ASSIGN_OR_RETURN(const int64_t in, p.Int("input"));
      ETLOPT_ASSIGN_OR_RETURN(const NodeId input, node_of(in, lineno));
      ETLOPT_RETURN_IF_ERROR(p.Keyword("cols"));
      std::vector<AttrId> cols;
      for (const std::string& name : p.Rest()) {
        ETLOPT_ASSIGN_OR_RETURN(const AttrId a, attr_of(name, lineno));
        cols.push_back(a);
      }
      nodes.push_back(builder->Project(input, std::move(cols)));
    } else if (op == "transform" || op == "aggudf") {
      ETLOPT_ASSIGN_OR_RETURN(const int64_t in, p.Int("input"));
      ETLOPT_ASSIGN_OR_RETURN(const NodeId input, node_of(in, lineno));
      ETLOPT_RETURN_IF_ERROR(p.Keyword("attr"));
      ETLOPT_ASSIGN_OR_RETURN(const std::string attr, p.Token("attribute"));
      ETLOPT_RETURN_IF_ERROR(p.Keyword("fn"));
      ETLOPT_ASSIGN_OR_RETURN(const std::string fn_name,
                              p.Token("function"));
      ETLOPT_ASSIGN_OR_RETURN(const AttrId a, attr_of(attr, lineno));
      auto fn = LookupTransformByName(fn_name);
      if (!fn) {
        return Status::InvalidArgument("line " + std::to_string(lineno) +
                                       ": unknown transform '" + fn_name +
                                       "'");
      }
      nodes.push_back(op == "aggudf"
                          ? builder->AggregateUdf(input, a, std::move(fn))
                          : builder->Transform(input, a, std::move(fn)));
    } else if (op == "derive") {
      ETLOPT_ASSIGN_OR_RETURN(const int64_t in, p.Int("input"));
      ETLOPT_ASSIGN_OR_RETURN(const NodeId input, node_of(in, lineno));
      ETLOPT_RETURN_IF_ERROR(p.Keyword("from"));
      ETLOPT_ASSIGN_OR_RETURN(const std::string from, p.Token("attribute"));
      ETLOPT_RETURN_IF_ERROR(p.Keyword("to"));
      ETLOPT_ASSIGN_OR_RETURN(const std::string to, p.Token("attribute"));
      ETLOPT_RETURN_IF_ERROR(p.Keyword("fn"));
      ETLOPT_ASSIGN_OR_RETURN(const std::string fn_name,
                              p.Token("function"));
      ETLOPT_ASSIGN_OR_RETURN(const AttrId from_a, attr_of(from, lineno));
      ETLOPT_ASSIGN_OR_RETURN(const AttrId to_a, attr_of(to, lineno));
      auto fn = LookupTransformByName(fn_name);
      if (!fn) {
        return Status::InvalidArgument("line " + std::to_string(lineno) +
                                       ": unknown transform '" + fn_name +
                                       "'");
      }
      nodes.push_back(builder->DeriveAttr(input, from_a, to_a, std::move(fn)));
    } else if (op == "aggregate") {
      ETLOPT_ASSIGN_OR_RETURN(const int64_t in, p.Int("input"));
      ETLOPT_ASSIGN_OR_RETURN(const NodeId input, node_of(in, lineno));
      ETLOPT_RETURN_IF_ERROR(p.Keyword("group"));
      std::vector<AttrId> group;
      AttrId count_attr = kInvalidAttr;
      std::vector<std::string> rest = p.Rest();
      for (size_t i = 0; i < rest.size(); ++i) {
        if (rest[i] == "count") {
          if (i + 2 != rest.size()) {
            return Status::InvalidArgument(
                "line " + std::to_string(lineno) +
                ": 'count' must be followed by exactly one attribute");
          }
          ETLOPT_ASSIGN_OR_RETURN(count_attr, attr_of(rest[i + 1], lineno));
          break;
        }
        ETLOPT_ASSIGN_OR_RETURN(const AttrId a, attr_of(rest[i], lineno));
        group.push_back(a);
      }
      nodes.push_back(builder->Aggregate(input, std::move(group), count_attr));
    } else if (op == "join") {
      ETLOPT_ASSIGN_OR_RETURN(const int64_t l, p.Int("left input"));
      ETLOPT_ASSIGN_OR_RETURN(const int64_t r, p.Int("right input"));
      ETLOPT_ASSIGN_OR_RETURN(const NodeId left, node_of(l, lineno));
      ETLOPT_ASSIGN_OR_RETURN(const NodeId right, node_of(r, lineno));
      ETLOPT_RETURN_IF_ERROR(p.Keyword("on"));
      ETLOPT_ASSIGN_OR_RETURN(const std::string attr, p.Token("attribute"));
      ETLOPT_ASSIGN_OR_RETURN(const AttrId a, attr_of(attr, lineno));
      JoinOptions options;
      JoinAlgorithm algorithm = JoinAlgorithm::kAuto;
      for (const std::string& flag : p.Rest()) {
        if (flag == "reject") {
          options.reject_link = true;
        } else if (flag == "fk") {
          options.fk_lookup = true;
        } else if (flag == "hash" || flag == "sortmerge") {
          // The old sort-merge flag reads as hash: one join kernel.
          algorithm = JoinAlgorithm::kHash;
        } else {
          return Status::InvalidArgument("line " + std::to_string(lineno) +
                                         ": unknown join flag '" + flag +
                                         "'");
        }
      }
      const NodeId join_id = builder->Join(left, right, a, options);
      builder->SetJoinAlgorithm(join_id, algorithm);
      nodes.push_back(join_id);
    } else if (op == "materialize" || op == "sink") {
      ETLOPT_ASSIGN_OR_RETURN(const int64_t in, p.Int("input"));
      ETLOPT_ASSIGN_OR_RETURN(const NodeId input, node_of(in, lineno));
      ETLOPT_RETURN_IF_ERROR(p.Keyword("target"));
      ETLOPT_ASSIGN_OR_RETURN(const std::string target, p.Token("target"));
      nodes.push_back(op == "sink" ? builder->Sink(input, target)
                                   : builder->Materialize(input, target));
    } else {
      return Status::InvalidArgument("line " + std::to_string(lineno) +
                                     ": unknown operator '" + op + "'");
    }
  }
  if (builder == nullptr) {
    return Status::InvalidArgument("empty workflow file");
  }
  return std::move(*builder).Build();
}

Status SaveWorkflow(const Workflow& workflow, const std::string& path) {
  Status status;
  const std::string text = WriteWorkflowText(workflow, &status);
  ETLOPT_RETURN_IF_ERROR(status);
  std::ofstream out(path);
  if (!out) {
    return Status::InvalidArgument("cannot open '" + path + "' for writing");
  }
  out << text;
  return out.good() ? Status::OK()
                    : Status::Internal("write to '" + path + "' failed");
}

Result<Workflow> LoadWorkflow(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("cannot open workflow file '" + path + "'");
  }
  std::ostringstream text;
  text << in.rdbuf();
  return ParseWorkflowText(text.str());
}

}  // namespace etlopt
