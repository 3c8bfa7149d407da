// Section 8 extension, part 3: the whole framework under approximate
// statistics. For representative workflows we run the normal analysis
// (selection with union-division disabled — approximate collectors cannot
// support the exact divisions of J4/J5), observe the chosen statistics with
// *bucketized* collectors at increasing widths, derive every SE cardinality
// through the same CSS derivations, and report
//   * collector memory (Section 5.4 model under bucketization),
//   * the worst relative cardinality error across all SEs,
//   * whether the DP optimizer still picks the same join order as with
//     exact statistics.
// This quantifies the §8.2 space-error trade-off inside the actual
// pipeline rather than on isolated histograms.

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "approx/approx_estimator.h"
#include "css/generator.h"
#include "datagen/workload_suite.h"
#include "engine/instrumentation.h"
#include "opt/greedy_selector.h"
#include "optimizer/join_optimizer.h"
#include "util/string_util.h"

using namespace etlopt;

namespace {

std::string PlanSignature(const OptimizedPlan& plan, RelMask full) {
  // Serialize the chosen tree deterministically.
  std::string sig;
  std::vector<RelMask> stack{full};
  while (!stack.empty()) {
    const RelMask se = stack.back();
    stack.pop_back();
    if (IsSingleton(se)) continue;
    const JoinChoice& c = plan.choices.at(se);
    sig += std::to_string(se) + ":" + std::to_string(c.left) + "|" +
           std::to_string(c.right) + ";";
    stack.push_back(c.left);
    stack.push_back(c.right);
  }
  return sig;
}

}  // namespace

int main() {
  std::printf("== Extension: the full pipeline under bucketized statistics "
              "==\n\n");
  for (int wf : {3, 5, 16, 22, 24}) {
    const WorkloadSpec spec = BuildWorkload(wf);
    const SourceMap sources = GenerateSources(spec, 11, 0.005);
    const std::vector<Block> blocks = PartitionBlocks(spec.workflow);
    // Analyze the (single interesting) join block.
    const Block* join_block = nullptr;
    for (const Block& b : blocks) {
      if (join_block == nullptr || b.num_rels() > join_block->num_rels()) {
        join_block = &b;
      }
    }
    const BlockContext ctx =
        BlockContext::Build(&spec.workflow, *join_block).value();
    const PlanSpace ps = PlanSpace::Build(ctx).value();
    CssGenOptions css;
    css.enable_union_division = false;
    const CssCatalog catalog = GenerateCss(ctx, ps, css);
    CostModel cm(&spec.workflow.catalog(), {});
    SelectionProblem problem = BuildSelectionProblem(ctx, ps, catalog, cm);
    const SelectionResult selection = SelectGreedy(problem);
    if (!selection.feasible) continue;
    ExecutorOptions exec_options;
    exec_options.retain_node_outputs = true;  // ground truth reads them
    const ExecutionResult exec =
        Executor(&spec.workflow, exec_options).Execute(sources).value();
    const auto truth =
        ComputeGroundTruthCards(ctx, ps.subexpressions(), exec).value();
    CardMap truth_cards(truth.begin(), truth.end());
    const OptimizedPlan exact_plan =
        OptimizeJoins(ctx, ps, truth_cards).value();
    const std::string exact_sig =
        PlanSignature(exact_plan, ctx.full_mask());

    std::printf("workflow %d (%s): %d rels, exact-optimal cost %.0f\n", wf,
                spec.name.c_str(), ctx.num_rels(), exact_plan.cost);
    std::printf("  %8s %14s %12s %10s %10s\n", "width", "memory",
                "max err", "same plan", "regret");
    for (int64_t width : {1, 2, 4, 8, 16, 32}) {
      ApproxConfig config(&spec.workflow.catalog(), width);
      ApproxEstimator estimator(&ctx, &catalog, &config);
      const Status st = estimator.ObserveAndDerive(
          exec, selection.ObservedKeys(catalog));
      if (!st.ok()) {
        std::printf("  %8lld: %s\n", static_cast<long long>(width),
                    st.ToString().c_str());
        continue;
      }
      // Collector memory under bucketization.
      int64_t memory = 0;
      for (const StatKey& key : selection.ObservedKeys(catalog)) {
        memory += key.is_count_like() ? 1 : config.MemoryUnits(key.attrs);
      }
      double max_err = 0.0;
      for (RelMask se : ps.subexpressions()) {
        const double est = *estimator.Cardinality(se);
        const double t = static_cast<double>(truth.at(se));
        if (t > 0) max_err = std::max(max_err, std::fabs(est - t) / t);
      }
      const CardMap approx_cards =
          estimator.AllCardinalities(ps.subexpressions()).value();
      const OptimizedPlan approx_plan =
          OptimizeJoins(ctx, ps, approx_cards).value();
      // Regret: cost of the approx-chosen tree under TRUE cardinalities.
      double regret = 0.0;
      {
        // Evaluate the approx plan's tree with true cards.
        double cost = 0.0;
        std::vector<RelMask> stack{ctx.full_mask()};
        while (!stack.empty()) {
          const RelMask se = stack.back();
          stack.pop_back();
          if (IsSingleton(se)) continue;
          const JoinChoice& c = approx_plan.choices.at(se);
          const int64_t l = truth.at(c.left);
          const int64_t r = truth.at(c.right);
          cost += JoinStepCost(std::max(l, r), std::min(l, r), truth.at(se),
                               CostParams{});
          stack.push_back(c.left);
          stack.push_back(c.right);
        }
        regret = exact_plan.cost > 0 ? (cost - exact_plan.cost) /
                                           exact_plan.cost
                                     : 0.0;
      }
      const bool same =
          PlanSignature(approx_plan, ctx.full_mask()) == exact_sig;
      std::printf("  %8lld %14s %11.2f%% %10s %9.2f%%\n",
                  static_cast<long long>(width),
                  WithThousands(memory).c_str(), 100.0 * max_err,
                  same ? "yes" : "NO", 100.0 * regret);
    }
    std::printf("\n");
  }
  std::printf("shape: estimation error grows with bucket width, but the "
              "chosen plan (and its\ntrue cost) stays optimal or near-"
              "optimal far longer — coarse statistics are\noften enough to "
              "rank plans (the §8.2 'allowed error' headroom).\n");
  return 0;
}
