#ifndef ETLOPT_PLANSPACE_JOIN_GRAPH_H_
#define ETLOPT_PLANSPACE_JOIN_GRAPH_H_

#include <cstddef>
#include <vector>

#include "etl/types.h"
#include "util/bitmask.h"

namespace etlopt {

// An undirected join edge between two block inputs. `fk_dim` is the relation
// index of the dimension (lookup) side when the designed join was declared a
// foreign-key lookup, else -1.
struct JoinEdge {
  int a = 0;
  int b = 0;
  AttrId attr = kInvalidAttr;
  int fk_dim = -1;
  NodeId join_node = kInvalidNode;  // the designed join using this edge
};

// The join graph of one optimizable block. The library requires it to be a
// forest (stars, chains, snowflakes — the usual ETL shapes): then every
// connected SE is a subtree and every split of an SE corresponds to exactly
// one crossing edge, which keeps plan enumeration and the union-division
// rules well-defined.
class JoinGraph {
 public:
  explicit JoinGraph(int num_rels);

  void AddEdge(JoinEdge edge);

  int num_rels() const { return num_rels_; }
  const std::vector<JoinEdge>& edges() const { return edges_; }
  // Indices into edges() incident to `rel`.
  const std::vector<int>& edges_of(int rel) const {
    return incident_[static_cast<size_t>(rel)];
  }

  bool IsForest() const;
  bool IsConnected(RelMask subset) const;
  // The relations reachable from `rel` through relations of `subset`
  // (`rel` itself included).
  RelMask Component(int rel, RelMask subset) const;

  // The unique edge with one endpoint in `a` and the other in `b`; -1 when
  // there is not exactly one such edge.
  int CrossingEdge(RelMask a, RelMask b) const;

  // Neighbours of `rel` restricted to `subset` (as a mask).
  RelMask Neighbors(int rel, RelMask subset) const;

  // All connected subsets of the graph (singletons included), sorted by
  // population count then value.
  std::vector<RelMask> ConnectedSubsets() const;

 private:
  int num_rels_;
  std::vector<JoinEdge> edges_;
  std::vector<std::vector<int>> incident_;
};

}  // namespace etlopt

#endif  // ETLOPT_PLANSPACE_JOIN_GRAPH_H_
