// Section 8 extension experiment (the paper's stated future work): the
// space-error trade-off of bucketized histograms. We sweep the bucket width
// on Zipf-skewed join keys and report, per width, the memory units of the
// two join-attribute histograms and the relative error of the J1 join
// estimate — plus a uniform-key control where bucketization is nearly free.
//
// width 1 reproduces the exact histograms of the main paper (zero error);
// the skew is what makes wide buckets costly, motivating the paper's
// "allowed error" objective for future optimizers (§8.1-8.2).

#include <cmath>
#include <cstdio>

#include "approx/dhistogram.h"
#include "engine/executor.h"
#include "util/random.h"
#include "util/string_util.h"

using namespace etlopt;

namespace {

struct Series {
  Table t1;
  Table t2;
  int64_t truth = 0;
};

Series MakeSeries(AttrId a, int64_t domain, bool skewed, uint64_t seed) {
  Rng rng(seed);
  Series s{Table{Schema({a})}, Table{Schema({a})}, 0};
  if (skewed) {
    ZipfDistribution zipf(domain, 1.3);
    for (int i = 0; i < 60000; ++i) s.t1.AddRow({zipf.Sample(rng)});
    for (int i = 0; i < 20000; ++i) s.t2.AddRow({zipf.Sample(rng)});
  } else {
    for (int i = 0; i < 60000; ++i) {
      s.t1.AddRow({rng.NextInRange(1, domain)});
    }
    for (int i = 0; i < 20000; ++i) {
      s.t2.AddRow({rng.NextInRange(1, domain)});
    }
  }
  s.truth = HashJoin(s.t1, s.t2, a, nullptr).num_rows();
  return s;
}

}  // namespace

int main() {
  const int64_t kDomain = 8192;
  AttrCatalog catalog;
  const AttrId a = catalog.Register("join_key", kDomain);

  const Series zipf = MakeSeries(a, kDomain, /*skewed=*/true, 5);
  const Series uni = MakeSeries(a, kDomain, /*skewed=*/false, 6);

  std::printf("== Extension: space-error trade-off of bucketized histograms "
              "(Section 8) ==\n");
  std::printf("domain %lld; |T1|=60000, |T2|=20000; truth(zipf)=%lld, "
              "truth(uniform)=%lld\n\n",
              static_cast<long long>(kDomain),
              static_cast<long long>(zipf.truth),
              static_cast<long long>(uni.truth));
  std::printf("%8s %12s | %14s %10s | %14s %10s\n", "width", "memory",
              "est(zipf)", "err(zipf)", "est(unif)", "err(unif)");
  const AttrMask key = AttrMask{1} << a;
  for (int64_t width : {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}) {
    const ApproxConfig config(&catalog, width);
    const double ez = DHistogram::JoinCardinality(
        DHistogram::FromTable(zipf.t1, key, config),
        DHistogram::FromTable(zipf.t2, key, config));
    const double eu = DHistogram::JoinCardinality(
        DHistogram::FromTable(uni.t1, key, config),
        DHistogram::FromTable(uni.t2, key, config));
    const double rz = std::fabs(ez - static_cast<double>(zipf.truth)) /
                      static_cast<double>(zipf.truth);
    const double ru = std::fabs(eu - static_cast<double>(uni.truth)) /
                      static_cast<double>(uni.truth);
    std::printf("%8lld %12s | %14.0f %9.2f%% | %14.0f %9.2f%%\n",
                static_cast<long long>(width),
                WithThousands(2 * config.MemoryUnits(key)).c_str(),
                ez, rz * 100.0, eu, ru * 100.0);
  }
  std::printf("\nshape: exact at width 1; error grows with width on skewed "
              "keys while uniform\nkeys tolerate wide buckets — the "
              "memory/error trade-off the paper defers to\nfuture work, "
              "quantified.\n");
  return 0;
}
