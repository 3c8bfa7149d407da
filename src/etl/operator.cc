#include "etl/operator.h"

namespace etlopt {

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kSource:
      return "Source";
    case OpKind::kFilter:
      return "Filter";
    case OpKind::kProject:
      return "Project";
    case OpKind::kTransform:
      return "Transform";
    case OpKind::kAggregate:
      return "Aggregate";
    case OpKind::kJoin:
      return "Join";
    case OpKind::kMaterialize:
      return "Materialize";
    case OpKind::kSink:
      return "Sink";
  }
  return "Unknown";
}

}  // namespace etlopt
