// Golden digests for the estimator over the 30-workload suite. Each workload
// runs once with exact taps and once with sketch taps (a tap budget small
// enough that the large distinct/histogram taps switch to sketches), and
// every block's Estimator::DeriveAll output pins four 16-hex FNV-1a digests:
//   derived    — the stat_io text of estimator.derived();
//   cards      — AllCardinalities over the block's subexpressions;
//   clamped    — clamped_values(), the sanitizer's repair count;
//   provenance — the rule (or "observed") behind every derived statistic.
// The digests were recorded before the histogram kernels were rewritten;
// layout and speed changes must leave all four unchanged. On a mismatch the
// failure message prints the new digest.
//
// EstimationDemandTest runs the same observations through the pipeline's
// demanded derivation (Card(se) of every SE): its cards must match the same
// committed digests, and everything it evaluates must equal the full
// derivation's value and provenance.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "datagen/workload_suite.h"
#include "obs/ledger.h"
#include "stats/stat_io.h"

namespace etlopt {
namespace {

struct GoldenDigests {
  const char* derived;
  const char* cards;
  const char* clamped;
  const char* provenance;
};

// Digests per workload (index - 1), exact taps then sketch taps.
constexpr GoldenDigests kExact[30] = {
    {"03be672e2bde4542", "aca50c56ab7c30eb",  // wf1
     "8156718e984b8178", "d11efadb59a05e49"},
    {"1d54e42e3a3fa275", "93966f569d8e36f0",  // wf2
     "8156718e984b8178", "d11efadb59a05e49"},
    {"fb9c3f9e58eeab8f", "d78b52db1afaa876",  // wf3
     "8156718e984b8178", "a3176c1267af0024"},
    {"b3b305bc0ab1420c", "a619893be825402f",  // wf4
     "8156718e984b8178", "683c92ecb752eff2"},
    {"bca24a368e3329a3", "189e0817961b2af3",  // wf5
     "8156718e984b8178", "de1fed73dcf5fbc4"},
    {"6ec9132e0ad5d548", "76334073edd58df3",  // wf6
     "8156718e984b8178", "82a15d0cc78c8cf8"},
    {"ec0499ea29c930f5", "8c41175eaa021322",  // wf7
     "8156718e984b8178", "5b913a8cb91f451e"},
    {"83ef43c396a922ca", "aa744fb55bbb0f6a",  // wf8
     "8156718e984b8178", "553039973348d193"},
    {"e04a4e111b305738", "c18ac2200c8b3b13",  // wf9
     "8156718e984b8178", "848a4fc7c0492ed7"},
    {"60f80563358e1661", "59505eba59a513c7",  // wf10
     "9980193f461af734", "5518791899877b6e"},
    {"18fcbc672c484779", "e3e8b680d9b12fbf",  // wf11
     "9980193f461af734", "5518791899877b6e"},
    {"7d92b2df9ac08e9d", "9592073555411596",  // wf12
     "8156718e984b8178", "8db49a01a948dfdf"},
    {"4fe070849e8d482e", "7f6457b5541fc83f",  // wf13
     "8156718e984b8178", "fc5ed1efc98b8cec"},
    {"d6f81ed899426e3a", "78c6e12ff617a89d",  // wf14
     "8156718e984b8178", "dc48692979891b14"},
    {"3a1ddc8d7cc12623", "6ac6862dc7647254",  // wf15
     "8156718e984b8178", "848a4fc7c0492ed7"},
    {"4806f580218bb509", "850d2bb20e0356f2",  // wf16
     "8156718e984b8178", "64b274bf5ac45460"},
    {"3500985d161dcc43", "276724880e371185",  // wf17
     "9980193f461af734", "5518791899877b6e"},
    {"9fc879b805969bdd", "59bf269b7a309ba5",  // wf18
     "8156718e984b8178", "afd5a15c283afd2a"},
    {"d9a9a7035b0454b2", "90740e69ad149ff7",  // wf19
     "8156718e984b8178", "b64d42b5c1ec68c4"},
    {"6a90e57b4892fc25", "2e03bd421704b89c",  // wf20
     "8156718e984b8178", "67b78ad271ff2402"},
    {"961bffa6182e9639", "494bcf3e1d257b37",  // wf21
     "8156718e984b8178", "d55052fbda72c16c"},
    {"133d29edf7a584f1", "ef3461266c2c2c1b",  // wf22
     "8156718e984b8178", "6a8820fff22aa528"},
    {"dd425031c65220b2", "e36454b255a0d00d",  // wf23
     "8156718e984b8178", "5ce258f0387af91e"},
    {"a717ba139cadc896", "8383d8368daf3a72",  // wf24
     "8156718e984b8178", "ebee5080c0190fae"},
    {"535a9373e24aa085", "f2f1dfcdf18b612c",  // wf25
     "8156718e984b8178", "14ed2998e046e2c2"},
    {"efd8a8d172e3a294", "b4dcad0faa30cdfc",  // wf26
     "8156718e984b8178", "06c7c2e8b7fc76fa"},
    {"8c659fa958fde670", "7b8ff1666bc0d559",  // wf27
     "8156718e984b8178", "be016521b03f8eca"},
    {"e3b6683db184a06a", "ee72016e7dd8ea50",  // wf28
     "9980193f461af734", "5518791899877b6e"},
    {"c46843d1dae5f4dd", "0eb91665f4db0045",  // wf29
     "9980193f461af734", "939ab718efd24e7f"},
    {"956c3dc40b950a6e", "ef55931ad11b09af",  // wf30
     "8156718e984b8178", "3789860bd79568e4"},
};
constexpr GoldenDigests kSketch[30] = {
    {"03be672e2bde4542", "aca50c56ab7c30eb",  // wf1
     "8156718e984b8178", "d11efadb59a05e49"},
    {"1d54e42e3a3fa275", "93966f569d8e36f0",  // wf2
     "8156718e984b8178", "d11efadb59a05e49"},
    {"31a1b74cbdb65096", "f3382da505b52fc4",  // wf3
     "8156718e984b8178", "c0a131fdb6ab2c94"},
    {"b3b305bc0ab1420c", "a619893be825402f",  // wf4
     "8156718e984b8178", "683c92ecb752eff2"},
    {"41b3da760bd3859b", "189e0817961b2af3",  // wf5
     "8156718e984b8178", "de1fed73dcf5fbc4"},
    {"a885c85ff5014f78", "d94b54eb1bc6069a",  // wf6
     "8156718e984b8178", "82a15d0cc78c8cf8"},
    {"387b43f3d56caebf", "f377b7a531ae96d2",  // wf7
     "8156718e984b8178", "e9c731c1a3590ce8"},
    {"161a2514787723e5", "3073d845292fee35",  // wf8
     "8156718e984b8178", "553039973348d193"},
    {"e04a4e111b305738", "c18ac2200c8b3b13",  // wf9
     "8156718e984b8178", "848a4fc7c0492ed7"},
    {"60f80563358e1661", "59505eba59a513c7",  // wf10
     "9980193f461af734", "5518791899877b6e"},
    {"18fcbc672c484779", "e3e8b680d9b12fbf",  // wf11
     "9980193f461af734", "5518791899877b6e"},
    {"c8f09b4dcfb8ee5d", "475229b462f07577",  // wf12
     "8156718e984b8178", "8db49a01a948dfdf"},
    {"d340bab24d742ad6", "79d6597e296ba8ed",  // wf13
     "8156718e984b8178", "fc5ed1efc98b8cec"},
    {"9dc97510ab114312", "f886e830cdfabf33",  // wf14
     "8156718e984b8178", "dc48692979891b14"},
    {"3a1ddc8d7cc12623", "6ac6862dc7647254",  // wf15
     "8156718e984b8178", "848a4fc7c0492ed7"},
    {"96455f63c48f3123", "922abdc297fcc0aa",  // wf16
     "8156718e984b8178", "64b274bf5ac45460"},
    {"3500985d161dcc43", "276724880e371185",  // wf17
     "9980193f461af734", "5518791899877b6e"},
    {"70a2698b6ec417c1", "adbcaf471f3463dd",  // wf18
     "8156718e984b8178", "44debd1ee0e098da"},
    {"84177299e81227ea", "90740e69ad149ff7",  // wf19
     "8156718e984b8178", "b64d42b5c1ec68c4"},
    {"89a376a1b677a93a", "2e714fd5b8a72d2d",  // wf20
     "8156718e984b8178", "67b78ad271ff2402"},
    {"befb8f2b91c4fecd", "47a1359a9deb820f",  // wf21
     "8156718e984b8178", "d55052fbda72c16c"},
    {"d4e7204147d58bc8", "a97a03fdd297e7a4",  // wf22
     "8156718e984b8178", "6a8820fff22aa528"},
    {"825b0ea5b72de489", "5dc356b48cecc4d5",  // wf23
     "8156718e984b8178", "5ce258f0387af91e"},
    {"e7eef7aed1f15514", "4006562f0deb7dca",  // wf24
     "8156718e984b8178", "ebee5080c0190fae"},
    {"535a9373e24aa085", "f2f1dfcdf18b612c",  // wf25
     "8156718e984b8178", "14ed2998e046e2c2"},
    {"6cea2261eddc097b", "428227b02e343902",  // wf26
     "8156718e984b8178", "06c7c2e8b7fc76fa"},
    {"bf367bf8bd1c1f8f", "c15ef527863c57c8",  // wf27
     "8156718e984b8178", "be016521b03f8eca"},
    {"e3b6683db184a06a", "ee72016e7dd8ea50",  // wf28
     "9980193f461af734", "5518791899877b6e"},
    {"004652bcf3c08e61", "73c77000eb887045",  // wf29
     "9980193f461af734", "939ab718efd24e7f"},
    {"cf2c9639df6c317a", "484c15a708e0c1f1",  // wf30
     "8156718e984b8178", "3789860bd79568e4"},
};

constexpr double kScale = 0.005;
constexpr uint64_t kSeed = 7;
// Small enough that most histogram and distinct taps run as sketches.
constexpr int64_t kSketchBudgetBytes = 512;

struct EstimateTexts {
  std::string derived, cards, clamped, provenance;
};

// One serial observed run of workload `index`, as the digests were taken.
struct Observed {
  std::unique_ptr<Analysis> analysis;
  RunOutcome run;
};

Observed Observe(int index, int64_t tap_budget) {
  const WorkloadSpec spec = BuildWorkload(index);
  const SourceMap sources = GenerateSources(spec, kSeed, kScale);
  PipelineOptions opts;
  opts.num_threads = 1;
  opts.tap_memory_budget_bytes = tap_budget;
  const Pipeline pipeline(opts);
  Observed out;
  out.analysis = pipeline.Analyze(spec.workflow).value();
  out.run = pipeline.RunAndObserve(*out.analysis, sources).value();
  return out;
}

// The sorted `se=card` lines of one block's cardinalities.
std::string CardsText(const Estimator& estimator, const BlockAnalysis& ba) {
  std::string text;
  const auto cards = estimator.AllCardinalities(ba.plan_space.subexpressions());
  if (cards.ok()) {
    std::vector<std::pair<RelMask, int64_t>> sorted(cards->begin(),
                                                    cards->end());
    std::sort(sorted.begin(), sorted.end());
    for (const auto& [se, rows] : sorted) {
      text += std::to_string(se) + "=" + std::to_string(rows) + "\n";
    }
  } else {
    text += cards.status().ToString() + "\n";
  }
  return text;
}

EstimateTexts RunEstimates(int index, int64_t tap_budget) {
  const Observed observed = Observe(index, tap_budget);
  const Analysis& analysis = *observed.analysis;
  const AttrCatalog& attrs = analysis.workflow->catalog();

  EstimateTexts out;
  for (size_t b = 0; b < analysis.blocks.size(); ++b) {
    const BlockAnalysis& ba = *analysis.blocks[b];
    const std::string block = "block " + std::to_string(b) + ":\n";
    Estimator estimator(&ba.ctx, &ba.catalog);
    const Status derived = estimator.DeriveAll(observed.run.block_stats[b]);
    EXPECT_TRUE(derived.ok()) << derived.ToString();
    out.derived += block + WriteStatStoreText(estimator.derived());

    out.cards += block + CardsText(estimator, ba);

    out.clamped += block + std::to_string(estimator.clamped_values()) + "\n";

    std::vector<std::string> rules;
    for (const auto& [key, prov] : estimator.provenance()) {
      rules.push_back(key.ToString(&attrs) + " <- " +
                      (prov.observed ? "observed" : RuleName(prov.rule)));
    }
    std::sort(rules.begin(), rules.end());
    out.provenance += block;
    for (const std::string& line : rules) out.provenance += line + "\n";
  }
  return out;
}

void ExpectDigests(const EstimateTexts& texts, const GoldenDigests& want) {
  EXPECT_EQ(obs::FingerprintText(texts.derived), want.derived) << "derived";
  EXPECT_EQ(obs::FingerprintText(texts.cards), want.cards) << "cards";
  EXPECT_EQ(obs::FingerprintText(texts.clamped), want.clamped) << "clamped";
  EXPECT_EQ(obs::FingerprintText(texts.provenance), want.provenance)
      << "provenance";
}

class EstimationGolden : public ::testing::TestWithParam<int> {};

TEST_P(EstimationGolden, ExactTapsMatchDigests) {
  ExpectDigests(RunEstimates(GetParam(), 0), kExact[GetParam() - 1]);
}

TEST_P(EstimationGolden, SketchTapsMatchDigests) {
  ExpectDigests(RunEstimates(GetParam(), kSketchBudgetBytes),
                kSketch[GetParam() - 1]);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, EstimationGolden,
                         ::testing::Range(1, 31),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "wf" + std::to_string(info.param);
                         });

// Bit-identical values: same kind, same count or the same buckets in the
// same insertion order, same error bound.
void ExpectSameValue(const StatValue& got, const StatValue& want,
                     const std::string& key) {
  ASSERT_EQ(got.is_count(), want.is_count()) << key;
  EXPECT_EQ(got.is_approx(), want.is_approx()) << key;
  EXPECT_EQ(got.rel_error(), want.rel_error()) << key;
  if (got.is_count()) {
    EXPECT_EQ(got.count(), want.count()) << key;
    return;
  }
  const Histogram& g = got.hist();
  const Histogram& w = want.hist();
  ASSERT_EQ(g.attr_mask(), w.attr_mask()) << key;
  ASSERT_EQ(g.NumBuckets(), w.NumBuckets()) << key;
  for (int64_t i = 0; i < g.NumBuckets(); ++i) {
    const Histogram::Bucket x = g.BucketAt(i);
    const Histogram::Bucket y = w.BucketAt(i);
    ASSERT_TRUE(std::equal(x.key.begin(), x.key.end(), y.key.begin(),
                           y.key.end()) &&
                x.count == y.count)
        << key << " bucket " << i;
  }
}

// Counts in *demanded_evaluated and *full_evaluated the statistics each
// derivation evaluated (observed keys excluded), summed over the blocks.
void CheckDemandedDerivation(int index, int64_t tap_budget,
                             const GoldenDigests& want,
                             size_t* demanded_evaluated,
                             size_t* full_evaluated) {
  const Observed observed = Observe(index, tap_budget);
  const Analysis& analysis = *observed.analysis;
  std::string cards;
  for (size_t b = 0; b < analysis.blocks.size(); ++b) {
    const BlockAnalysis& ba = *analysis.blocks[b];
    const std::vector<RelMask>& ses = ba.plan_space.subexpressions();
    Estimator full(&ba.ctx, &ba.catalog);
    EXPECT_TRUE(full.DeriveAll(observed.run.block_stats[b]).ok());
    Estimator demanded(&ba.ctx, &ba.catalog);
    const Status status =
        demanded.Derive(observed.run.block_stats[b], CardKeys(ses));
    EXPECT_TRUE(status.ok()) << status.ToString();
    cards += "block " + std::to_string(b) + ":\n" + CardsText(demanded, ba);
    EXPECT_LE(demanded.clamped_values(), full.clamped_values());

    for (const auto& [key, prov] : demanded.provenance()) {
      const std::string name = key.ToString();
      const StatProvenance* want_prov = full.FindProvenance(key);
      ASSERT_NE(want_prov, nullptr) << name;
      EXPECT_EQ(prov.observed, want_prov->observed) << name;
      if (!prov.observed) {
        EXPECT_EQ(prov.rule, want_prov->rule) << name;
        EXPECT_EQ(prov.inputs, want_prov->inputs) << name;
        ++*demanded_evaluated;
      }
      const StatValue* got = demanded.derived().Find(key);
      const StatValue* expect = full.derived().Find(key);
      ASSERT_NE(got, nullptr) << name;
      ASSERT_NE(expect, nullptr) << name;
      ExpectSameValue(*got, *expect, name);
    }
    for (const auto& [key, prov] : full.provenance()) {
      if (!prov.observed) ++*full_evaluated;
    }
    // The guard's evidence reads the same ancestry.
    for (RelMask se : ses) {
      EXPECT_EQ(demanded.ObservedLeaves(StatKey::Card(se)),
                full.ObservedLeaves(StatKey::Card(se)))
          << "se " << se;
      EXPECT_EQ(demanded.CardinalityConfidence(se),
                full.CardinalityConfidence(se))
          << "se " << se;
    }
  }
  EXPECT_EQ(obs::FingerprintText(cards), want.cards) << "cards";
}

class EstimationDemandTest : public ::testing::TestWithParam<int> {
 protected:
  void Check(int64_t tap_budget, const GoldenDigests& want) {
    size_t demanded = 0;
    size_t full = 0;
    CheckDemandedDerivation(GetParam(), tap_budget, want, &demanded, &full);
    EXPECT_LE(demanded, full);
    // The 8-way join wf21 derives far more than its SE cards read.
    if (GetParam() == 21) {
      EXPECT_LT(demanded, full);
    }
  }
};

TEST_P(EstimationDemandTest, ExactTapsEvaluateTheFullDerivationsSlice) {
  Check(0, kExact[GetParam() - 1]);
}

TEST_P(EstimationDemandTest, SketchTapsEvaluateTheFullDerivationsSlice) {
  Check(kSketchBudgetBytes, kSketch[GetParam() - 1]);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, EstimationDemandTest,
                         ::testing::Range(1, 31),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "wf" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace etlopt
