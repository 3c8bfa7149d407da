#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/executor.h"
#include "obs/accuracy.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "test_util.h"
#include "util/thread_pool.h"

namespace etlopt {
namespace {

// ---------------------------------------------------------------------------
// Minimal JSON value + recursive-descent parser, just enough to round-trip
// the exporter output (objects, arrays, strings, numbers, bools, null).
// ---------------------------------------------------------------------------

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  const JsonValue& at(const std::string& key) const {
    const auto it = object.find(key);
    EXPECT_NE(it, object.end()) << "missing JSON key: " << key;
    static const JsonValue null_value;
    return it == object.end() ? null_value : it->second;
  }
  bool has(const std::string& key) const { return object.count(key) > 0; }
};

// Payload events of a Chrome-trace document: everything except the "ph":"M"
// process/thread-naming metadata the serializer always leads with.
std::vector<const JsonValue*> PayloadEvents(const JsonValue& root) {
  std::vector<const JsonValue*> events;
  for (const JsonValue& e : root.at("traceEvents").array) {
    if (e.at("ph").str != "M") events.push_back(&e);
  }
  return events;
}

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool Parse(JsonValue* out) {
    const bool ok = ParseValue(out);
    SkipWs();
    return ok && pos_ == text_.size();
  }

 private:
  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\t' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ParseValue(JsonValue* out) {
    SkipWs();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') return ParseObject(out);
    if (c == '[') return ParseArray(out);
    if (c == '"') {
      out->type = JsonValue::Type::kString;
      return ParseString(&out->str);
    }
    if (text_.compare(pos_, 4, "true") == 0) {
      out->type = JsonValue::Type::kBool;
      out->boolean = true;
      pos_ += 4;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      out->type = JsonValue::Type::kBool;
      out->boolean = false;
      pos_ += 5;
      return true;
    }
    if (text_.compare(pos_, 4, "null") == 0) {
      out->type = JsonValue::Type::kNull;
      pos_ += 4;
      return true;
    }
    return ParseNumber(out);
  }

  bool ParseObject(JsonValue* out) {
    out->type = JsonValue::Type::kObject;
    if (!Consume('{')) return false;
    if (Consume('}')) return true;
    for (;;) {
      SkipWs();
      std::string key;
      if (!ParseString(&key)) return false;
      if (!Consume(':')) return false;
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->object.emplace(std::move(key), std::move(value));
      if (Consume(',')) continue;
      return Consume('}');
    }
  }

  bool ParseArray(JsonValue* out) {
    out->type = JsonValue::Type::kArray;
    if (!Consume('[')) return false;
    if (Consume(']')) return true;
    for (;;) {
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->array.push_back(std::move(value));
      if (Consume(',')) continue;
      return Consume(']');
    }
  }

  bool ParseString(std::string* out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': *out += '"'; break;
          case '\\': *out += '\\'; break;
          case '/': *out += '/'; break;
          case 'n': *out += '\n'; break;
          case 't': *out += '\t'; break;
          case 'r': *out += '\r'; break;
          case 'b': *out += '\b'; break;
          case 'f': *out += '\f'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return false;
            // Test-only: decode BMP escapes as a single byte (exporter only
            // emits \u00XX for control characters).
            const int code = std::stoi(text_.substr(pos_, 4), nullptr, 16);
            pos_ += 4;
            *out += static_cast<char>(code & 0xff);
            break;
          }
          default:
            return false;
        }
      } else {
        *out += c;
      }
    }
    return false;
  }

  bool ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    out->type = JsonValue::Type::kNumber;
    out->number = std::stod(text_.substr(start, pos_ - start));
    return true;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

JsonValue ParseJsonOrDie(const std::string& text) {
  JsonValue v;
  JsonParser parser(text);
  EXPECT_TRUE(parser.Parse(&v)) << "unparsable JSON: " << text;
  return v;
}

// ---------------------------------------------------------------------------
// Counter / registry semantics
// ---------------------------------------------------------------------------

TEST(ObsCounterTest, AddGetReset) {
  obs::Counter c;
  EXPECT_EQ(c.Get(), 0);
  c.Add(5);
  c.Increment();
  EXPECT_EQ(c.Get(), 6);
  c.Reset();
  EXPECT_EQ(c.Get(), 0);
}

TEST(ObsCounterTest, BatchedCounterFlushesOnDestruction) {
  obs::Counter c;
  {
    obs::BatchedCounter batch(&c);
    for (int i = 0; i < 1000; ++i) batch.Increment();
    EXPECT_EQ(c.Get(), 0) << "batched adds must not hit the atomic early";
  }
  EXPECT_EQ(c.Get(), 1000);
}

TEST(ObsRegistryTest, GetReturnsStableInstanceAndFindSeesIt) {
  auto& registry = obs::MetricsRegistry::Global();
  const std::string name = "test.obs.registry.stable";
  EXPECT_EQ(registry.FindCounter(name), nullptr);
  obs::Counter& a = registry.GetCounter(name);
  obs::Counter& b = registry.GetCounter(name);
  EXPECT_EQ(&a, &b);
  a.Add(3);
  const obs::Counter* found = registry.FindCounter(name);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found, &a);
  EXPECT_EQ(found->Get(), 3);
  // Reset zeroes values but keeps the object (and pointer) registered.
  registry.Reset();
  EXPECT_EQ(registry.FindCounter(name), &a);
  EXPECT_EQ(a.Get(), 0);
}

TEST(ObsRegistryTest, CounterGaugeHistogramNamespacesAreIndependent) {
  auto& registry = obs::MetricsRegistry::Global();
  const std::string name = "test.obs.registry.shared_name";
  registry.GetCounter(name).Add(1);
  registry.GetGauge(name).Set(2.5);
  registry.GetHistogram(name).Record(7);
  EXPECT_EQ(registry.FindCounter(name)->Get(), 1);
  EXPECT_DOUBLE_EQ(registry.FindGauge(name)->Get(), 2.5);
  EXPECT_EQ(registry.FindHistogram(name)->Count(), 1);
}

TEST(ObsRegistryTest, ConcurrentIncrementsSumExactly) {
  auto& registry = obs::MetricsRegistry::Global();
  obs::Counter& counter = registry.GetCounter("test.obs.concurrent.plain");
  obs::Counter& batched = registry.GetCounter("test.obs.concurrent.batched");
  counter.Reset();
  batched.Reset();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter, &batched] {
      obs::BatchedCounter batch(&batched);
      for (int i = 0; i < kPerThread; ++i) {
        counter.Increment();
        batch.Increment();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.Get(), int64_t{kThreads} * kPerThread);
  EXPECT_EQ(batched.Get(), int64_t{kThreads} * kPerThread);
}

TEST(ObsMetricNameTest, FormatsLabels) {
  EXPECT_EQ(obs::MetricName("a.b", {}), "a.b");
  EXPECT_EQ(obs::MetricName("a.b", {{"k", "v"}}), "a.b{k=\"v\"}");
  EXPECT_EQ(obs::MetricName("a", {{"x", "1"}, {"y", "2"}}),
            "a{x=\"1\",y=\"2\"}");
}

// ---------------------------------------------------------------------------
// LogHistogram bucket boundaries and statistics
// ---------------------------------------------------------------------------

TEST(ObsLogHistogramTest, BucketBoundaries) {
  using H = obs::LogHistogram;
  EXPECT_EQ(H::BucketIndex(-5), 0);
  EXPECT_EQ(H::BucketIndex(0), 0);
  EXPECT_EQ(H::BucketIndex(1), 1);
  EXPECT_EQ(H::BucketIndex(2), 2);
  EXPECT_EQ(H::BucketIndex(3), 2);
  EXPECT_EQ(H::BucketIndex(4), 3);
  EXPECT_EQ(H::BucketIndex(1023), 10);
  EXPECT_EQ(H::BucketIndex(1024), 11);
  EXPECT_EQ(H::BucketIndex(INT64_MAX), H::kNumBuckets - 1);
  // Every interior bucket covers exactly [lower, upper).
  for (int b = 1; b < H::kNumBuckets - 1; ++b) {
    EXPECT_EQ(H::BucketIndex(H::BucketLowerBound(b)), b) << "bucket " << b;
    EXPECT_EQ(H::BucketIndex(H::BucketUpperBound(b) - 1), b) << "bucket " << b;
    if (b + 1 < H::kNumBuckets - 1) {
      // Buckets tile: each upper bound is the next bucket's lower bound.
      EXPECT_EQ(H::BucketLowerBound(b + 1), H::BucketUpperBound(b));
    }
  }
  EXPECT_EQ(H::BucketUpperBound(H::kNumBuckets - 1), INT64_MAX);
}

TEST(ObsLogHistogramTest, RecordTracksCountSumMinMax) {
  obs::LogHistogram h;
  EXPECT_EQ(h.Count(), 0);
  EXPECT_EQ(h.Min(), INT64_MAX);
  EXPECT_EQ(h.Max(), INT64_MIN);
  for (int64_t v : {5, 100, 1, 7, 7}) h.Record(v);
  EXPECT_EQ(h.Count(), 5);
  EXPECT_EQ(h.Sum(), 120);
  EXPECT_EQ(h.Min(), 1);
  EXPECT_EQ(h.Max(), 100);
  EXPECT_DOUBLE_EQ(h.Mean(), 24.0);
  // 5, 7, 7 all land in bucket [4, 8).
  EXPECT_EQ(h.BucketCount(obs::LogHistogram::BucketIndex(7)), 3);
  // Quantiles are approximate but must stay within the observed range.
  for (double q : {0.0, 0.5, 0.9, 1.0}) {
    const double v = h.ApproxQuantile(q);
    EXPECT_GE(v, 1.0) << "q=" << q;
    EXPECT_LE(v, 100.0) << "q=" << q;
  }
  h.Reset();
  EXPECT_EQ(h.Count(), 0);
  EXPECT_EQ(h.Sum(), 0);
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

TEST(ObsExportTest, JsonExportRoundTrips) {
  auto& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("test.obs.json.counter").Reset();
  registry.GetCounter("test.obs.json.counter").Add(42);
  registry.GetGauge("test.obs.json.gauge").Set(1.5);
  obs::LogHistogram& h = registry.GetHistogram("test.obs.json.hist");
  h.Reset();
  h.Record(3);
  h.Record(900);

  const JsonValue root = ParseJsonOrDie(registry.ExportJson());
  ASSERT_EQ(root.type, JsonValue::Type::kObject);
  EXPECT_DOUBLE_EQ(root.at("counters").at("test.obs.json.counter").number,
                   42.0);
  EXPECT_DOUBLE_EQ(root.at("gauges").at("test.obs.json.gauge").number, 1.5);
  const JsonValue& hist = root.at("histograms").at("test.obs.json.hist");
  EXPECT_DOUBLE_EQ(hist.at("count").number, 2.0);
  EXPECT_DOUBLE_EQ(hist.at("sum").number, 903.0);
  EXPECT_DOUBLE_EQ(hist.at("min").number, 3.0);
  EXPECT_DOUBLE_EQ(hist.at("max").number, 900.0);
  int64_t bucket_total = 0;
  for (const JsonValue& bucket : hist.at("buckets").array) {
    bucket_total += static_cast<int64_t>(bucket.at("count").number);
    EXPECT_TRUE(bucket.has("lo"));
    EXPECT_TRUE(bucket.has("hi"));
  }
  EXPECT_EQ(bucket_total, 2);
}

TEST(ObsExportTest, PrometheusSanitizesNamesAndEmitsCumulativeBuckets) {
  auto& registry = obs::MetricsRegistry::Global();
  registry
      .GetCounter(obs::MetricName("test.obs.prom.counter", {{"op", "Join"}}))
      .Reset();
  registry
      .GetCounter(obs::MetricName("test.obs.prom.counter", {{"op", "Join"}}))
      .Add(9);
  obs::LogHistogram& h = registry.GetHistogram("test.obs.prom.hist");
  h.Reset();
  h.Record(1);
  h.Record(2);
  h.Record(1000000);

  const std::string text = registry.ExportPrometheus();
  EXPECT_NE(text.find("test_obs_prom_counter{op=\"Join\"} 9\n"),
            std::string::npos)
      << text;
  // Dots never survive sanitization in the metric name itself.
  for (size_t pos = text.find("test"); pos != std::string::npos;
       pos = text.find("test", pos + 1)) {
    const size_t end = text.find_first_of(" {", pos);
    ASSERT_NE(end, std::string::npos);
    EXPECT_EQ(text.substr(pos, end - pos).find('.'), std::string::npos);
  }
  // Cumulative bucket counts: the +Inf bucket equals the total count and
  // every le-bucket is non-decreasing.
  EXPECT_NE(text.find("test_obs_prom_hist_bucket{le=\"2\"} 1\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("test_obs_prom_hist_bucket{le=\"4\"} 2\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("test_obs_prom_hist_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("test_obs_prom_hist_sum 1000003\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("test_obs_prom_hist_count 3\n"), std::string::npos)
      << text;
}

TEST(ObsExportTest, HistogramQuantilesInJsonAndPrometheus) {
  auto& registry = obs::MetricsRegistry::Global();
  obs::LogHistogram& h = registry.GetHistogram("test.obs.quant.hist");
  h.Reset();
  // 98 fast samples, 2 slow outliers: p50 sits in the dense bucket while
  // p99 must climb into the tail.
  for (int i = 0; i < 98; ++i) h.Record(10);
  h.Record(1000);
  h.Record(100000);

  const JsonValue root = ParseJsonOrDie(registry.ExportJson());
  const JsonValue& hist = root.at("histograms").at("test.obs.quant.hist");
  ASSERT_TRUE(hist.has("p50"));
  ASSERT_TRUE(hist.has("p95"));
  ASSERT_TRUE(hist.has("p99"));
  const double p50 = hist.at("p50").number;
  const double p95 = hist.at("p95").number;
  const double p99 = hist.at("p99").number;
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  // Quantiles interpolate within log buckets but stay clamped to the
  // observed range; p50 stays near the dense value, p99 reaches the tail.
  EXPECT_GE(p50, 10.0);
  EXPECT_LE(p50, 16.0);  // upper bound of 10's power-of-two bucket
  EXPECT_GT(p99, 500.0);
  EXPECT_LE(p99, 100000.0);

  const std::string text = registry.ExportPrometheus();
  EXPECT_NE(text.find("test_obs_quant_hist_p50 "), std::string::npos) << text;
  EXPECT_NE(text.find("test_obs_quant_hist_p95 "), std::string::npos) << text;
  EXPECT_NE(text.find("test_obs_quant_hist_p99 "), std::string::npos) << text;

  // An empty histogram exports no quantile keys (they would be lies).
  h.Reset();
  const JsonValue empty_root = ParseJsonOrDie(registry.ExportJson());
  const JsonValue& empty_hist =
      empty_root.at("histograms").at("test.obs.quant.hist");
  EXPECT_FALSE(empty_hist.has("p50"));
  EXPECT_EQ(registry.ExportPrometheus().find("test_obs_quant_hist_p50"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

TEST(ObsTracerTest, NestedSpansProduceValidChromeTrace) {
  obs::SetObsEnabled(true);
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Clear();
  tracer.SetEnabled(true);
  {
    obs::ScopedSpan outer("test.outer");
    outer.Arg("rows", int64_t{42});
    outer.Arg("label", std::string("a\"b"));
    {
      obs::ScopedSpan inner("test.inner");
      inner.Arg("cost", 1.5);
    }
  }
  tracer.SetEnabled(false);
  ASSERT_EQ(tracer.NumEvents(), 2u);

  const JsonValue root = ParseJsonOrDie(tracer.ChromeTraceJson());
  const std::vector<const JsonValue*> events = PayloadEvents(root);
  ASSERT_EQ(events.size(), 2u);
  const JsonValue* outer_ev = nullptr;
  const JsonValue* inner_ev = nullptr;
  for (const JsonValue* e : events) {
    EXPECT_EQ(e->at("ph").str, "X");
    EXPECT_TRUE(e->has("ts"));
    EXPECT_TRUE(e->has("dur"));
    if (e->at("name").str == "test.outer") outer_ev = e;
    if (e->at("name").str == "test.inner") inner_ev = e;
  }
  ASSERT_NE(outer_ev, nullptr);
  ASSERT_NE(inner_ev, nullptr);
  // Nesting by timestamp containment: inner lives inside outer.
  const double outer_start = outer_ev->at("ts").number;
  const double outer_end = outer_start + outer_ev->at("dur").number;
  const double inner_start = inner_ev->at("ts").number;
  const double inner_end = inner_start + inner_ev->at("dur").number;
  EXPECT_GE(inner_start, outer_start);
  EXPECT_LE(inner_end, outer_end);
  EXPECT_DOUBLE_EQ(outer_ev->at("args").at("rows").number, 42.0);
  EXPECT_EQ(outer_ev->at("args").at("label").str, "a\"b");
  EXPECT_DOUBLE_EQ(inner_ev->at("args").at("cost").number, 1.5);
  tracer.Clear();
}

TEST(ObsTracerTest, DisabledTracerRecordsNothing) {
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Clear();
  tracer.SetEnabled(false);
  {
    obs::ScopedSpan span("test.should_not_appear");
    span.Arg("x", int64_t{1});
  }
  EXPECT_EQ(tracer.NumEvents(), 0u);
}

TEST(ObsTracerTest, UnclosedSpansSerializeAsBeginEvents) {
  obs::SetObsEnabled(true);
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Clear();
  tracer.SetEnabled(true);
  {
    obs::ScopedSpan closed("test.closed");
  }
  // A span still on the stack when the trace is dumped — the shape an
  // aborted run leaves behind.
  auto open = std::make_unique<obs::ScopedSpan>("test.still_open");
  EXPECT_EQ(tracer.NumOpenSpans(), 1u);

  const std::string json = tracer.ChromeTraceJson();
  JsonValue root;
  ASSERT_TRUE(JsonParser(json).Parse(&root)) << json;
  const std::vector<const JsonValue*> events = PayloadEvents(root);
  ASSERT_EQ(events.size(), 2u);
  bool saw_open = false;
  for (const JsonValue* e : events) {
    if (e->at("name").str == "test.still_open") {
      saw_open = true;
      EXPECT_EQ(e->at("ph").str, "B");  // unmatched begin: viewers tolerate it
      EXPECT_TRUE(e->has("ts"));
      EXPECT_FALSE(e->has("dur"));
    } else {
      EXPECT_EQ(e->at("ph").str, "X");
    }
  }
  EXPECT_TRUE(saw_open);

  // Once the span ends normally it resolves into a complete event.
  open.reset();
  EXPECT_EQ(tracer.NumOpenSpans(), 0u);
  JsonValue after;
  ASSERT_TRUE(JsonParser(tracer.ChromeTraceJson()).Parse(&after));
  const std::vector<const JsonValue*> after_events = PayloadEvents(after);
  ASSERT_EQ(after_events.size(), 2u);
  for (const JsonValue* e : after_events) {
    EXPECT_EQ(e->at("ph").str, "X");
  }
  tracer.SetEnabled(false);
  tracer.Clear();
}

TEST(ObsTracerTest, WriteChromeTraceIsAtomicAndLoadable) {
  obs::SetObsEnabled(true);
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Clear();
  tracer.SetEnabled(true);
  auto open = std::make_unique<obs::ScopedSpan>("test.open_at_dump");
  // Pid-qualified so the sanitizer twin can run concurrently under ctest.
  const std::string path = ::testing::TempDir() +
                           std::to_string(getpid()) + "_obs_trace_test.json";
  ASSERT_TRUE(tracer.WriteChromeTrace(path).ok());
  open.reset();
  tracer.SetEnabled(false);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  JsonValue root;
  ASSERT_TRUE(JsonParser(buf.str()).Parse(&root)) << buf.str();
  const std::vector<const JsonValue*> events = PayloadEvents(root);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0]->at("ph").str, "B");
  // The temp file was renamed away, not left behind.
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  std::remove(path.c_str());
  tracer.Clear();
}

TEST(ObsTracerTest, MetadataEventsNameProcessAndThreads) {
  obs::SetObsEnabled(true);
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Clear();
  tracer.SetEnabled(true);
  { obs::ScopedSpan span("test.meta"); }
  tracer.SetEnabled(false);

  const JsonValue root = ParseJsonOrDie(tracer.ChromeTraceJson());
  const std::vector<JsonValue>& events = root.at("traceEvents").array;
  ASSERT_GE(events.size(), 3u);  // process_name + >=1 thread_name + span
  // Metadata leads the document so viewers label rows before any slice.
  EXPECT_EQ(events[0].at("ph").str, "M");
  EXPECT_EQ(events[0].at("name").str, "process_name");
  EXPECT_EQ(events[0].at("args").at("name").str, "etlopt");
  bool named_main = false;
  for (const JsonValue& e : events) {
    if (e.at("ph").str != "M" || e.at("name").str != "thread_name") continue;
    EXPECT_TRUE(e.has("tid"));
    if (e.at("tid").number == 1.0) {
      named_main = true;
      EXPECT_EQ(e.at("args").at("name").str, "main");
    }
  }
  EXPECT_TRUE(named_main);
  tracer.Clear();
}

TEST(ObsTracerTest, ConcurrentSpanEmissionAssignsPerThreadTids) {
  // The partitioned executor's workers emit spans concurrently; every span
  // must land, each emitting thread gets its own stable tid, and the "M"
  // metadata block names all of them. A start barrier pins each ParallelFor
  // index to a distinct pool thread so exactly kThreads tids appear.
  obs::SetObsEnabled(true);
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Clear();
  tracer.SetEnabled(true);
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 200;
  std::atomic<int> started{0};
  {
    ThreadPool pool(kThreads);
    const Status s = pool.ParallelFor(kThreads, [&](int t) {
      started.fetch_add(1);
      while (started.load() < kThreads) std::this_thread::yield();
      for (int i = 0; i < kSpansPerThread; ++i) {
        obs::ScopedSpan span("test.concurrent");
        span.Arg("worker", static_cast<int64_t>(t));
      }
      return Status::OK();
    });
    ASSERT_TRUE(s.ok()) << s.ToString();
  }
  tracer.SetEnabled(false);
  ASSERT_EQ(tracer.NumEvents(),
            static_cast<size_t>(kThreads) * kSpansPerThread);
  EXPECT_EQ(tracer.NumOpenSpans(), 0u);

  const JsonValue root = ParseJsonOrDie(tracer.ChromeTraceJson());
  std::set<double> span_tids;
  for (const JsonValue* e : PayloadEvents(root)) {
    EXPECT_EQ(e->at("ph").str, "X");
    ASSERT_TRUE(e->has("tid"));
    span_tids.insert(e->at("tid").number);
  }
  EXPECT_EQ(span_tids.size(), static_cast<size_t>(kThreads));
  // Every emitting tid has a thread_name metadata row.
  std::set<double> named_tids;
  for (const JsonValue& e : root.at("traceEvents").array) {
    if (e.at("ph").str == "M" && e.at("name").str == "thread_name") {
      named_tids.insert(e.at("tid").number);
    }
  }
  for (const double tid : span_tids) {
    EXPECT_TRUE(named_tids.count(tid) > 0) << "unnamed tid " << tid;
  }
  tracer.Clear();
}

TEST(ObsTracerTest, ProfileCounterEventsCarryNoDuration) {
  obs::SetObsEnabled(true);
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Clear();
  tracer.SetEnabled(true);

  obs::RunProfile profile;
  obs::OpProfile op;
  op.node = 2;
  op.op = "Join";
  op.label = "join2";
  op.self_ns = 5000;
  op.rows_out = 40;
  profile.ops.push_back(op);
  profile.tap_ns = 300;
  obs::EmitProfileCounters(profile);
  tracer.SetEnabled(false);

  const JsonValue root = ParseJsonOrDie(tracer.ChromeTraceJson());
  const JsonValue* op_event = nullptr;
  const JsonValue* tap_event = nullptr;
  for (const JsonValue* e : PayloadEvents(root)) {
    if (e->at("name").str == "profile.op") op_event = e;
    if (e->at("name").str == "profile.tap") tap_event = e;
  }
  ASSERT_NE(op_event, nullptr);
  ASSERT_NE(tap_event, nullptr);
  // Counter samples: phase "C", a timestamp, and no duration field.
  EXPECT_EQ(op_event->at("ph").str, "C");
  EXPECT_TRUE(op_event->has("ts"));
  EXPECT_FALSE(op_event->has("dur"));
  EXPECT_DOUBLE_EQ(op_event->at("args").at("join2.self_ns").number, 5000.0);
  EXPECT_DOUBLE_EQ(op_event->at("args").at("join2.rows_out").number, 40.0);
  EXPECT_EQ(tap_event->at("ph").str, "C");
  EXPECT_DOUBLE_EQ(tap_event->at("args").at("tap_ns").number, 300.0);
  tracer.Clear();
}

// ---------------------------------------------------------------------------
// Accuracy tracker
// ---------------------------------------------------------------------------

TEST(ObsAccuracyTest, QErrorIsSymmetricAndClamped) {
  EXPECT_DOUBLE_EQ(obs::QError(100, 10), 10.0);
  EXPECT_DOUBLE_EQ(obs::QError(10, 100), 10.0);
  EXPECT_DOUBLE_EQ(obs::QError(50, 50), 1.0);
  // Zero/negative cardinalities clamp to 1 instead of dividing by zero.
  EXPECT_DOUBLE_EQ(obs::QError(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(obs::QError(0, 8), 8.0);
  EXPECT_GE(obs::QError(-3, 5), 1.0);
}

TEST(ObsAccuracyTest, TrackerGroupsByOpTypeAndDepth) {
  obs::SetObsEnabled(true);
  obs::AccuracyTracker& tracker = obs::AccuracyTracker::Global();
  tracker.Reset();
  EXPECT_TRUE(tracker.empty());
  tracker.Record("join", 2, 100, 50);
  tracker.Record("join", 2, 80, 80);
  tracker.Record("chain", 0, 10, 10);
  EXPECT_EQ(tracker.total_samples(), 3);
  const auto summaries = tracker.Summaries();
  ASSERT_EQ(summaries.size(), 2u);
  bool saw_join = false;
  for (const auto& [key, summary] : summaries) {
    if (key.first == "join") {
      saw_join = true;
      EXPECT_EQ(key.second, 2);
      EXPECT_EQ(summary.count, 2);
      EXPECT_DOUBLE_EQ(summary.max, 2.0);
    }
  }
  EXPECT_TRUE(saw_join);
  const std::string table = tracker.FormatTable();
  EXPECT_NE(table.find("join"), std::string::npos);
  EXPECT_NE(table.find("chain"), std::string::npos);
  tracker.Reset();
  EXPECT_TRUE(tracker.empty());
}

// ---------------------------------------------------------------------------
// Executor integration: per-operator row counters match actual cardinalities
// ---------------------------------------------------------------------------

TEST(ObsExecutorIntegrationTest, RowCountersMatchExecutionResult) {
  obs::SetObsEnabled(true);
  auto& registry = obs::MetricsRegistry::Global();
  registry.Reset();

  testing_util::PaperExample ex = testing_util::MakePaperExample();
  Executor executor(&ex.workflow, testing_util::RetainOutputs());
  Result<ExecutionResult> result = executor.Execute(ex.sources);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  int64_t expected_rows_out = 0;
  for (const WorkflowNode& node : ex.workflow.nodes()) {
    const auto it = result->node_outputs.find(node.id);
    ASSERT_NE(it, result->node_outputs.end());
    const int64_t actual = it->second.num_rows();
    expected_rows_out += actual;
    const std::string name = obs::MetricName(
        "etlopt.engine.rows_out",
        {{"wf", ex.workflow.name()},
         {"node", std::to_string(node.id)},
         {"op", OpKindName(node.kind)}});
    const obs::Counter* c = registry.FindCounter(name);
    ASSERT_NE(c, nullptr) << "missing per-operator counter " << name;
    EXPECT_EQ(c->Get(), actual) << name;
    if (node.kind != OpKind::kSink) {
      EXPECT_GT(c->Get(), 0) << name;
    }
  }

  const obs::Counter* ops = registry.FindCounter("etlopt.engine.ops_executed");
  ASSERT_NE(ops, nullptr);
  EXPECT_EQ(ops->Get(), ex.workflow.num_nodes());
  const obs::Counter* rows_out =
      registry.FindCounter("etlopt.engine.rows_out");
  ASSERT_NE(rows_out, nullptr);
  EXPECT_EQ(rows_out->Get(), expected_rows_out);
  const obs::Counter* processed =
      registry.FindCounter("etlopt.engine.rows_processed");
  ASSERT_NE(processed, nullptr);
  EXPECT_EQ(processed->Get(), result->rows_processed);

  // Reject counters exist for the joins and agree with the captured tables.
  int64_t rejects_right = 0;
  for (const auto& [node_id, table] : result->join_rejects_right) {
    rejects_right += table.num_rows();
  }
  const obs::Counter* rr =
      registry.FindCounter("etlopt.engine.join.rejects_right");
  ASSERT_NE(rr, nullptr);
  EXPECT_EQ(rr->Get(), rejects_right);
}

TEST(ObsDisableTest, RuntimeDisableSkipsRecording) {
  auto& registry = obs::MetricsRegistry::Global();
  obs::SetObsEnabled(false);
  registry.GetCounter("test.obs.disabled.counter").Reset();
  ETLOPT_COUNTER_ADD("test.obs.disabled.counter", 5);
  EXPECT_EQ(registry.FindCounter("test.obs.disabled.counter")->Get(), 0);
  obs::SetObsEnabled(true);
  ETLOPT_COUNTER_ADD("test.obs.disabled.counter", 5);
  EXPECT_EQ(registry.FindCounter("test.obs.disabled.counter")->Get(), 5);
}

}  // namespace
}  // namespace etlopt
