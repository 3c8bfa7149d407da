#include "planspace/join_graph.h"

#include <algorithm>

#include "util/common.h"

namespace etlopt {

JoinGraph::JoinGraph(int num_rels) : num_rels_(num_rels) {
  ETLOPT_CHECK(num_rels >= 1 && num_rels <= 16);
  incident_.resize(static_cast<size_t>(num_rels));
}

void JoinGraph::AddEdge(JoinEdge edge) {
  ETLOPT_CHECK(edge.a >= 0 && edge.a < num_rels_);
  ETLOPT_CHECK(edge.b >= 0 && edge.b < num_rels_);
  ETLOPT_CHECK(edge.a != edge.b);
  const int idx = static_cast<int>(edges_.size());
  incident_[static_cast<size_t>(edge.a)].push_back(idx);
  incident_[static_cast<size_t>(edge.b)].push_back(idx);
  edges_.push_back(edge);
}

bool JoinGraph::IsForest() const {
  // A forest has no cycle: per connected component, edges == nodes - 1.
  // Union-find over relations.
  std::vector<int> parent(static_cast<size_t>(num_rels_));
  for (int i = 0; i < num_rels_; ++i) parent[static_cast<size_t>(i)] = i;
  auto find = [&](int x) {
    while (parent[static_cast<size_t>(x)] != x) {
      parent[static_cast<size_t>(x)] =
          parent[static_cast<size_t>(parent[static_cast<size_t>(x)])];
      x = parent[static_cast<size_t>(x)];
    }
    return x;
  };
  for (const JoinEdge& e : edges_) {
    const int ra = find(e.a);
    const int rb = find(e.b);
    if (ra == rb) return false;  // cycle
    parent[static_cast<size_t>(ra)] = rb;
  }
  return true;
}

bool JoinGraph::IsConnected(RelMask subset) const {
  if (subset == 0) return false;
  if (IsSingleton(subset)) return true;
  return Component(LowestBit(subset), subset) == subset;
}

RelMask JoinGraph::Component(int rel, RelMask subset) const {
  RelMask visited = RelMask{1} << rel;
  RelMask frontier = visited;
  while (frontier != 0) {
    RelMask next = 0;
    for (int r : MaskToIndices(frontier)) {
      next |= Neighbors(r, subset);
    }
    next &= ~visited;
    visited |= next;
    frontier = next;
  }
  return visited;
}

RelMask JoinGraph::Neighbors(int rel, RelMask subset) const {
  RelMask out = 0;
  for (int ei : edges_of(rel)) {
    const JoinEdge& e = edges_[static_cast<size_t>(ei)];
    const int other = e.a == rel ? e.b : e.a;
    if ((subset >> other) & 1) out |= RelMask{1} << other;
  }
  return out;
}

int JoinGraph::CrossingEdge(RelMask a, RelMask b) const {
  int found = -1;
  for (size_t i = 0; i < edges_.size(); ++i) {
    const JoinEdge& e = edges_[i];
    const bool a_in_a = (a >> e.a) & 1;
    const bool a_in_b = (b >> e.a) & 1;
    const bool b_in_a = (a >> e.b) & 1;
    const bool b_in_b = (b >> e.b) & 1;
    if ((a_in_a && b_in_b) || (a_in_b && b_in_a)) {
      if (found >= 0) return -1;  // more than one crossing edge
      found = static_cast<int>(i);
    }
  }
  return found;
}

std::vector<RelMask> JoinGraph::ConnectedSubsets() const {
  std::vector<RelMask> out;
  const RelMask all = (RelMask{1} << num_rels_) - 1;
  for (RelMask m = 1; m <= all; ++m) {
    if (IsConnected(m)) out.push_back(m);
  }
  std::sort(out.begin(), out.end(), [](RelMask x, RelMask y) {
    const int px = PopCount(x);
    const int py = PopCount(y);
    return px != py ? px < py : x < y;
  });
  return out;
}

}  // namespace etlopt
