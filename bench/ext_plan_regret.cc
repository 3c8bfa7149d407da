// Section 8 extension, part 2: does approximate statistics collection still
// pick the right plan? For a 3-relation star (the wf3 shape), the join
// order decision reduces to comparing |F ⋈ D0| with |F ⋈ D1|. We estimate
// both from bucketized join-key histograms at increasing widths and report
//   * whether the approx-driven choice matches the exact-statistics choice,
//   * the cost regret when it does not,
// over many Zipf-skewed data instances per width. This quantifies how much
// approximation the *optimizer* tolerates (more than the raw estimate error
// suggests, since only the comparison has to come out right) — the
// "allowed error" knob the paper's future work proposes to co-optimize
// with memory.

#include <cstdio>

#include "approx/dhistogram.h"
#include "engine/executor.h"
#include "util/random.h"

using namespace etlopt;

namespace {

struct Instance {
  Table fact;
  Table d0;
  Table d1;
  int64_t fd0 = 0;  // |F ⋈ D0|
  int64_t fd1 = 0;  // |F ⋈ D1|
};

Instance MakeInstance(AttrId k0, AttrId k1, int64_t domain, uint64_t seed) {
  Rng rng(seed);
  Instance inst{Table{Schema({k0, k1})}, Table{Schema({k0})},
                Table{Schema({k1})}, 0, 0};
  // Random skews per instance so the winning side varies.
  ZipfDistribution z0(domain, 1.0 + rng.NextDouble() * 0.5);
  ZipfDistribution z1(domain, 1.0 + rng.NextDouble() * 0.5);
  for (int i = 0; i < 20000; ++i) {
    inst.fact.AddRow({z0.Sample(rng), z1.Sample(rng)});
  }
  const int64_t n0 = rng.NextInRange(500, 6000);
  const int64_t n1 = rng.NextInRange(500, 6000);
  for (int64_t i = 0; i < n0; ++i) inst.d0.AddRow({z0.Sample(rng)});
  for (int64_t i = 0; i < n1; ++i) inst.d1.AddRow({z1.Sample(rng)});
  inst.fd0 = HashJoin(inst.fact, inst.d0, k0, nullptr).num_rows();
  inst.fd1 = HashJoin(inst.fact, inst.d1, k1, nullptr).num_rows();
  return inst;
}

}  // namespace

int main() {
  const int64_t kDomain = 4096;
  AttrCatalog catalog;
  const AttrId k0 = catalog.Register("k0", kDomain);
  const AttrId k1 = catalog.Register("k1", kDomain);
  const int kInstances = 40;

  std::vector<Instance> instances;
  for (int i = 0; i < kInstances; ++i) {
    instances.push_back(MakeInstance(k0, k1, kDomain, 1000 + i));
  }

  std::printf("== Extension: plan choice under approximate statistics ==\n");
  std::printf("%d Zipf instances; decision: join the dimension with the "
              "smaller intermediate first\n\n",
              kInstances);
  std::printf("%8s %10s | %12s %14s\n", "width", "memory", "right plan",
              "mean regret");
  const AttrMask m0 = AttrMask{1} << k0;
  const AttrMask m1 = AttrMask{1} << k1;
  for (int64_t width : {1, 4, 16, 64, 256, 1024}) {
    int right = 0;
    double regret_sum = 0.0;
    const ApproxConfig config(&catalog, width);
    const int64_t memory =
        2 * (config.MemoryUnits(m0) + config.MemoryUnits(m1));
    for (const Instance& inst : instances) {
      const double est0 = DHistogram::JoinCardinality(
          DHistogram::FromTable(inst.fact, m0, config),
          DHistogram::FromTable(inst.d0, m0, config));
      const double est1 = DHistogram::JoinCardinality(
          DHistogram::FromTable(inst.fact, m1, config),
          DHistogram::FromTable(inst.d1, m1, config));
      const bool approx_first_d0 = est0 <= est1;
      const bool exact_first_d0 = inst.fd0 <= inst.fd1;
      if (approx_first_d0 == exact_first_d0) {
        ++right;
      } else {
        // Regret: extra intermediate rows relative to the better plan.
        const double chosen = static_cast<double>(
            approx_first_d0 ? inst.fd0 : inst.fd1);
        const double best = static_cast<double>(
            exact_first_d0 ? inst.fd0 : inst.fd1);
        regret_sum += (chosen - best) / (best + 1.0);
      }
    }
    std::printf("%8lld %10lld | %10d/%d %13.1f%%\n",
                static_cast<long long>(width),
                static_cast<long long>(memory), right, kInstances,
                100.0 * regret_sum / kInstances);
  }
  std::printf("\nshape: plan choice survives far coarser statistics than "
              "point estimates do —\nthe comparison only flips near ties, "
              "where regret is small anyway.\n");
  return 0;
}
