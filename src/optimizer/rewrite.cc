#include "optimizer/rewrite.h"

#include <functional>
#include <unordered_map>

namespace etlopt {

Result<Workflow> PlanRewriter::Apply(
    const Workflow& original, const std::vector<BlockPlan>& plans,
    std::vector<std::unordered_map<RelMask, NodeId>>* se_nodes) {
  if (se_nodes != nullptr) {
    se_nodes->assign(plans.size(), {});
  }
  // Index join nodes of reordered blocks.
  struct BlockRef {
    const Block* block;
    const OptimizedPlan* plan;
    size_t plan_index;
  };
  std::unordered_map<NodeId, BlockRef> output_join;   // block output join
  std::unordered_map<NodeId, const Block*> inner_join;  // any block join
  for (size_t i = 0; i < plans.size(); ++i) {
    const BlockPlan& bp = plans[i];
    ETLOPT_CHECK(bp.block != nullptr && bp.plan != nullptr);
    if (bp.block->joins.empty()) continue;
    for (const BlockJoin& j : bp.block->joins) {
      inner_join[j.node] = bp.block;
    }
    output_join[bp.block->joins.back().node] =
        BlockRef{bp.block, bp.plan, i};
  }

  Workflow rewritten;
  rewritten.name_ = original.name() + "_optimized";
  rewritten.catalog_ = original.catalog();

  std::unordered_map<NodeId, NodeId> remap;
  auto append = [&](WorkflowNode node) -> NodeId {
    node.id = static_cast<NodeId>(rewritten.nodes_.size());
    rewritten.nodes_.push_back(std::move(node));
    return rewritten.nodes_.back().id;
  };

  for (const WorkflowNode& node : original.nodes()) {
    auto out_it = output_join.find(node.id);
    if (out_it != output_join.end()) {
      // Emit the optimized join tree in place of the designed one.
      const Block& block = *out_it->second.block;
      const OptimizedPlan& plan = *out_it->second.plan;
      const size_t plan_index = out_it->second.plan_index;
      std::function<NodeId(RelMask)> emit = [&](RelMask se) -> NodeId {
        if (IsSingleton(se)) {
          const int rel = LowestBit(se);
          const NodeId top = block.inputs[static_cast<size_t>(rel)].top();
          return remap.at(top);
        }
        const auto choice_it = plan.choices.find(se);
        ETLOPT_CHECK_MSG(choice_it != plan.choices.end(),
                         "missing join choice for SE");
        const JoinChoice& choice = choice_it->second;
        const NodeId left = emit(choice.left);
        const NodeId right = emit(choice.right);
        WorkflowNode join;
        join.kind = OpKind::kJoin;
        join.name = "opt_join_" + std::to_string(se);
        join.inputs = {left, right};
        join.join.attr = choice.attr;
        join.join.algorithm = JoinAlgorithm::kHash;
        const NodeId id = append(std::move(join));
        if (se_nodes != nullptr) {
          (*se_nodes)[plan_index][se] = id;
        }
        return id;
      };
      remap[node.id] = emit(block.full_mask());
      continue;
    }
    if (inner_join.find(node.id) != inner_join.end()) {
      continue;  // replaced by the emitted tree
    }
    WorkflowNode copy = node;
    for (NodeId& in : copy.inputs) {
      in = remap.at(in);
    }
    remap[node.id] = append(std::move(copy));
  }

  ETLOPT_RETURN_IF_ERROR(rewritten.Finalize());
  return rewritten;
}

}  // namespace etlopt
