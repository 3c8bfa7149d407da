#ifndef ETLOPT_ETL_OPERATOR_H_
#define ETLOPT_ETL_OPERATOR_H_

#include <functional>
#include <string>
#include <vector>

#include "etl/predicate.h"
#include "etl/schema.h"
#include "etl/types.h"

namespace etlopt {

// Logical operator kinds of the ETL workflow DAG (Section 1 / Section 3).
enum class OpKind {
  kSource,       // reads a named input record-set
  kFilter,       // σ_a(T): single-attribute selection
  kProject,      // π_a(T): keeps a subset of columns
  kTransform,    // U(T, a): user-defined per-row value transformation
  kAggregate,    // G(T, a): group-by (blocking)
  kJoin,         // equi-join on a shared attribute, optional reject link
  kMaterialize,  // explicitly materializes the intermediate result
  kSink,         // writes the target record-set
};

const char* OpKindName(OpKind kind);

// U(T, a) from the paper: rewrites attribute `input_attr` row by row. When
// `output_attr` != `input_attr` the result is a *derived* attribute appended
// to the schema (the Fig. 3 pattern that can create a block boundary when the
// derived attribute is later used as a join key). When `is_aggregate` is set
// the operator is a black-box aggregate UDF and always ends a block.
struct TransformSpec {
  AttrId input_attr = kInvalidAttr;
  AttrId output_attr = kInvalidAttr;
  std::function<Value(Value)> fn;
  bool is_aggregate = false;
};

// G(T, a): group-by on `group_by` attributes; when `count_attr` is set an
// occurrence count column is appended.
struct AggregateSpec {
  std::vector<AttrId> group_by;
  AttrId count_attr = kInvalidAttr;
};

// Physical join implementation, as written in the plan. The engine has one
// join kernel, the hash join, which both values run; the cost-based
// optimizer records kHash on every join of a plan it rewrites, and the
// workflow text writes it as ` hash`.
enum class JoinAlgorithm : uint8_t { kAuto = 0, kHash };

// Equi-join of two inputs on a shared attribute. `left_reject_link`
// materializes the left rows that found no match (the diagnostics pattern of
// Section 1), which both constrains reordering (block boundary) and is what
// the union-division rules J4/J5 instrument. `fk_lookup` declares that every
// left row matches exactly one right row (a dimension lookup), which the
// plan-space generator exploits (Section 3.2.2).
struct JoinSpec {
  AttrId attr = kInvalidAttr;
  bool left_reject_link = false;
  bool fk_lookup = false;
  JoinAlgorithm algorithm = JoinAlgorithm::kAuto;
};

// One node of the workflow DAG. Only the payload matching `kind` is
// meaningful; this is a plain aggregate kept simple for serialization and
// inspection (builders enforce the per-kind invariants).
struct WorkflowNode {
  NodeId id = kInvalidNode;
  OpKind kind = OpKind::kSource;
  std::string name;
  std::vector<NodeId> inputs;

  // kSource
  std::string table_name;
  Schema source_schema;

  // kFilter
  Predicate predicate;

  // kProject
  std::vector<AttrId> keep;

  // kTransform
  TransformSpec transform;

  // kAggregate
  AggregateSpec aggregate;

  // kJoin
  JoinSpec join;

  // kMaterialize / kSink
  std::string target_name;
};

}  // namespace etlopt

#endif  // ETLOPT_ETL_OPERATOR_H_
