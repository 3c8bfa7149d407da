#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <set>
#include <string>

#include "engine/executor.h"
#include "util/bitmask.h"
#include "util/env.h"
#include "util/json.h"
#include "util/random.h"
#include "util/status.h"
#include "util/string_util.h"

namespace etlopt {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad join key");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad join key");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsStatus) {
  Result<int> r = Status::NotFound("x");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

Result<int> HalveEven(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> QuarterEven(int x) {
  ETLOPT_ASSIGN_OR_RETURN(int half, HalveEven(x));
  ETLOPT_ASSIGN_OR_RETURN(int quarter, HalveEven(half));
  return quarter;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*QuarterEven(8), 2);
  EXPECT_FALSE(QuarterEven(6).ok());
  EXPECT_FALSE(QuarterEven(3).ok());
}

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.NextInRange(3, 9);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 9);
  }
}

TEST(ZipfTest, CoversDomainAndSkews) {
  Rng rng(17);
  ZipfDistribution zipf(100, 1.2);
  std::vector<int64_t> counts(101, 0);
  const int kSamples = 50000;
  for (int i = 0; i < kSamples; ++i) {
    const int64_t v = zipf.Sample(rng);
    ASSERT_GE(v, 1);
    ASSERT_LE(v, 100);
    ++counts[static_cast<size_t>(v)];
  }
  // Rank 1 must dominate rank 10 roughly by 10^1.2 ≈ 15.8.
  EXPECT_GT(counts[1], counts[10] * 8);
  EXPECT_GT(counts[1], counts[50]);
}

TEST(BitmaskTest, Basics) {
  EXPECT_EQ(PopCount(0b1011), 3);
  EXPECT_TRUE(IsSubset(0b001, 0b011));
  EXPECT_FALSE(IsSubset(0b100, 0b011));
  EXPECT_TRUE(IsSingleton(0b100));
  EXPECT_FALSE(IsSingleton(0b110));
  EXPECT_FALSE(IsSingleton(0));
  EXPECT_EQ(LowestBit(0b1100), 2);
  EXPECT_EQ(MaskToIndices(0b1011), (std::vector<int>{0, 1, 3}));
}

TEST(BitmaskTest, SubsetIteratorEnumeratesProperSubsets) {
  std::set<uint64_t> seen;
  for (SubsetIterator it(0b1011); !it.Done(); it.Next()) {
    seen.insert(it.subset());
  }
  // 2^3 - 2 proper non-empty subsets of a 3-bit mask... minus none: the
  // iterator yields all non-empty proper sub-masks: 2^3 - 2 = 6.
  EXPECT_EQ(seen.size(), 6u);
  for (uint64_t s : seen) {
    EXPECT_TRUE(IsSubset(s, 0b1011));
    EXPECT_NE(s, 0b1011u);
    EXPECT_NE(s, 0u);
  }
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringUtilTest, WithThousands) {
  EXPECT_EQ(WithThousands(0), "0");
  EXPECT_EQ(WithThousands(999), "999");
  EXPECT_EQ(WithThousands(1811197), "1,811,197");
  EXPECT_EQ(WithThousands(-52234), "-52,234");
}

TEST(StringUtilTest, Padding) {
  EXPECT_EQ(PadLeft("7", 3), "  7");
  EXPECT_EQ(PadRight("7", 3), "7  ");
  EXPECT_EQ(PadLeft("1234", 3), "1234");
}

// ---------------------------------------------------------------------------
// Environment settings
// ---------------------------------------------------------------------------

// Sets one environment variable for a scope; null unsets it.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (value == nullptr) {
      ::unsetenv(name);
    } else {
      ::setenv(name, value, 1);
    }
  }
  ~ScopedEnv() { ::unsetenv(name_); }

 private:
  const char* name_;
};

constexpr char kVar[] = "ETLOPT_UTIL_TEST_SETTING";

int64_t Int64From(const char* value, int64_t lo, int64_t hi) {
  const ScopedEnv env(kVar, value);
  return EnvInt64(kVar, lo, hi, -7);
}

double DoubleFrom(const char* value) {
  const ScopedEnv env(kVar, value);
  return EnvDouble(kVar, 2.5);
}

TEST(EnvTest, Int64KeepsTheFallbackUnlessInRange) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  EXPECT_EQ(Int64From(nullptr, 1, kMax), -7);
  EXPECT_EQ(Int64From("", 1, kMax), -7);
  EXPECT_EQ(Int64From("garbage", 1, kMax), -7);
  EXPECT_EQ(Int64From("inf", 1, kMax), -7);
  EXPECT_EQ(Int64From("nan", 1, kMax), -7);
  EXPECT_EQ(Int64From("-3", 1, kMax), -7);
  EXPECT_EQ(Int64From("0", 1, kMax), -7);
  EXPECT_EQ(Int64From("99999999999999999999", 1, kMax), -7);  // overflows
  EXPECT_EQ(Int64From("-99999999999999999999", -kMax, kMax), -7);
  EXPECT_EQ(Int64From("12", 1, kMax), 12);
  EXPECT_EQ(Int64From("  12", 1, kMax), 12);
  EXPECT_EQ(Int64From("12rows", 1, kMax), 12);  // the leading number
  EXPECT_EQ(Int64From("1e300", 1, kMax), 1);    // an integer stops at 'e'
  EXPECT_EQ(Int64From("-3", -5, 5), -3);
  EXPECT_EQ(Int64From("9223372036854775807", 1, kMax), kMax);
}

// ETLOPT_THREADS is read with this bound: a count no int holds keeps the
// default instead of wrapping (4294967297 would wrap to 1 thread).
TEST(EnvTest, ThreadCountBoundIsTheIntRange) {
  constexpr int64_t kIntMax = std::numeric_limits<int>::max();
  EXPECT_EQ(Int64From("2147483647", 1, kIntMax), kIntMax);
  EXPECT_EQ(Int64From("2147483648", 1, kIntMax), -7);
  EXPECT_EQ(Int64From("4294967297", 1, kIntMax), -7);
}

TEST(EnvTest, DoubleKeepsTheFallbackUnlessFinite) {
  EXPECT_EQ(DoubleFrom(nullptr), 2.5);
  EXPECT_EQ(DoubleFrom(""), 2.5);
  EXPECT_EQ(DoubleFrom("garbage"), 2.5);
  EXPECT_EQ(DoubleFrom("inf"), 2.5);
  EXPECT_EQ(DoubleFrom("-inf"), 2.5);
  EXPECT_EQ(DoubleFrom("nan"), 2.5);
  EXPECT_EQ(DoubleFrom("1e400"), 2.5);  // beyond double's range
  EXPECT_EQ(DoubleFrom("1e300"), 1e300);
  EXPECT_EQ(DoubleFrom("-0.25"), -0.25);
  EXPECT_EQ(DoubleFrom("0.5ms"), 0.5);
}

TEST(EnvTest, RetryPolicyFromEnvKeepsDefaultsForUnusableValues) {
  const RetryPolicy defaults;
  for (const char* bad : {"", "garbage", "inf", "nan", "1e300", "-2", "0"}) {
    SCOPED_TRACE(std::string("value '") + bad + "'");
    const ScopedEnv attempts("ETLOPT_RETRY_MAX_ATTEMPTS", bad);
    EXPECT_EQ(RetryPolicy::FromEnv().max_attempts, defaults.max_attempts);
  }
  for (const char* bad : {"", "garbage", "inf", "-inf", "nan"}) {
    SCOPED_TRACE(std::string("value '") + bad + "'");
    const ScopedEnv initial("ETLOPT_RETRY_BACKOFF_MS", bad);
    const ScopedEnv cap("ETLOPT_RETRY_MAX_BACKOFF_MS", bad);
    const RetryPolicy policy = RetryPolicy::FromEnv();
    EXPECT_EQ(policy.initial_backoff_ms, defaults.initial_backoff_ms);
    EXPECT_EQ(policy.max_backoff_ms, defaults.max_backoff_ms);
  }
  {
    const ScopedEnv attempts("ETLOPT_RETRY_MAX_ATTEMPTS", "1e3");
    const ScopedEnv initial("ETLOPT_RETRY_BACKOFF_MS", "-1");
    const ScopedEnv cap("ETLOPT_RETRY_MAX_BACKOFF_MS", "1e300");
    const RetryPolicy policy = RetryPolicy::FromEnv();
    EXPECT_EQ(policy.max_attempts, 1000);
    EXPECT_EQ(policy.initial_backoff_ms, -1.0);
    EXPECT_EQ(policy.max_backoff_ms, 1e300);
  }
  {
    const ScopedEnv attempts("ETLOPT_RETRY_MAX_ATTEMPTS", "2.9");
    EXPECT_EQ(RetryPolicy::FromEnv().max_attempts, 2);
  }
}

// ---------------------------------------------------------------------------
// JSON parser edge cases
// ---------------------------------------------------------------------------

TEST(JsonEdgeCaseTest, UnicodeEscapesDecodeToUtf8) {
  // 1-byte (A), 2-byte (é = U+00E9), and 3-byte (€ = U+20AC) code points,
  // upper- and lower-case hex digits.
  const auto parsed = Json::Parse(R"("\u0041\u00e9\u20AC")");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->string_value(), "A\xC3\xA9\xE2\x82\xAC");
}

TEST(JsonEdgeCaseTest, MalformedUnicodeEscapesAreRejected) {
  EXPECT_FALSE(Json::Parse(R"("\u12")").ok());     // truncated
  EXPECT_FALSE(Json::Parse(R"("\u12gz")").ok());   // non-hex digit
  EXPECT_FALSE(Json::Parse(R"("\x41")").ok());     // unknown escape
  EXPECT_FALSE(Json::Parse("\"unterminated").ok());
}

TEST(JsonEdgeCaseTest, DeepNestingIsBoundedNotUnbounded) {
  // 64 levels parse; 70 trip the depth guard instead of overflowing the
  // parser's stack on corrupted input.
  std::string ok_doc(64, '[');
  ok_doc += std::string(64, ']');
  EXPECT_TRUE(Json::Parse(ok_doc).ok());

  std::string deep_doc(70, '[');
  deep_doc += std::string(70, ']');
  const auto deep = Json::Parse(deep_doc);
  ASSERT_FALSE(deep.ok());
  EXPECT_NE(deep.status().ToString().find("nesting too deep"),
            std::string::npos);
}

TEST(JsonEdgeCaseTest, ExponentNumbersParseAsDoubles) {
  const auto small = Json::Parse("1.5e3");
  ASSERT_TRUE(small.ok());
  EXPECT_TRUE(small->is_number());
  EXPECT_DOUBLE_EQ(small->double_value(), 1500.0);

  const auto negative = Json::Parse("-2E-2");
  ASSERT_TRUE(negative.ok());
  EXPECT_DOUBLE_EQ(negative->double_value(), -0.02);
}

TEST(JsonEdgeCaseTest, Int64OverflowFallsBackToDouble) {
  // One past int64 max: stoll throws, the parser degrades to double
  // rather than rejecting the document.
  const auto big = Json::Parse("9223372036854775808");
  ASSERT_TRUE(big.ok());
  EXPECT_TRUE(big->is_number());
  EXPECT_DOUBLE_EQ(big->double_value(), 9223372036854775808.0);

  // int64 max itself still round-trips exactly as an integer.
  const auto max = Json::Parse("9223372036854775807");
  ASSERT_TRUE(max.ok());
  EXPECT_EQ(max->int_value(), INT64_MAX);
}

TEST(JsonEdgeCaseTest, TrailingGarbageIsRejected) {
  const auto trailing = Json::Parse("{\"a\":1} extra");
  ASSERT_FALSE(trailing.ok());
  EXPECT_NE(trailing.status().ToString().find("trailing characters"),
            std::string::npos);
  EXPECT_FALSE(Json::Parse("[1,2]3").ok());
  // Trailing whitespace alone is fine.
  EXPECT_TRUE(Json::Parse("{\"a\":1}  \n").ok());
}

TEST(JsonEdgeCaseTest, DumpParseRoundTripPreservesStructure) {
  Json doc = Json::Object();
  doc.Set("text", Json::Str("line\nbreak \"quoted\" \x01"));
  doc.Set("neg", Json::Int(-42));
  doc.Set("pi", Json::Double(3.25));
  Json arr = Json::Array();
  arr.push_back(Json::Bool(true));
  arr.push_back(Json::Null());
  doc.Set("arr", std::move(arr));

  const auto back = Json::Parse(doc.Dump());
  ASSERT_TRUE(back.ok()) << doc.Dump();
  EXPECT_EQ(back->GetString("text"), "line\nbreak \"quoted\" \x01");
  EXPECT_EQ(back->GetInt("neg"), -42);
  EXPECT_DOUBLE_EQ(back->GetDouble("pi"), 3.25);
  const Json* arr_back = back->Find("arr");
  ASSERT_NE(arr_back, nullptr);
  ASSERT_EQ(arr_back->array().size(), 2u);
  EXPECT_TRUE(arr_back->array()[0].bool_value());
  EXPECT_TRUE(arr_back->array()[1].is_null());
}

}  // namespace
}  // namespace etlopt
