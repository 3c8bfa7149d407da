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

#include "core/report.h"
#include "engine/executor.h"
#include "obs/accuracy.h"
#include "obs/ledger.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/run_report.h"
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
// Run-record exporters (--metrics-out)
// ---------------------------------------------------------------------------

// A record carrying a plain counter, a per-source labelled twin, and the
// gauges its fields export.
obs::RunRecord ExportRecord() {
  obs::RunRecord record;
  record.AddMetric("etlopt.engine.source.retries{source=\"orders\"}", 3);
  record.AddMetric("etlopt.core.cycles", 1);
  record.AddMetric("etlopt.engine.source.retries", 2);
  record.AddMetric("etlopt.engine.source.retries", 1);
  record.initial_cost = 120.0;
  record.optimized_cost = 80.5;
  record.num_threads = 4;
  record.partitions = 4;
  record.partition_skew = 1.25;
  record.peak_rss_bytes = 7 << 20;
  return record;
}

TEST(ObsExportTest, JsonExportRoundTrips) {
  const obs::RunRecord record = ExportRecord();
  // AddMetric keeps names sorted and sums repeated adds.
  ASSERT_EQ(record.metrics.size(), 3u);
  EXPECT_EQ(record.metrics[0].first, "etlopt.core.cycles");
  EXPECT_EQ(record.Metric("etlopt.engine.source.retries"), 3);
  EXPECT_EQ(record.Metric("etlopt.absent"), 0);

  const JsonValue root = ParseJsonOrDie(obs::RunMetricsJson(record));
  ASSERT_EQ(root.type, JsonValue::Type::kObject);
  const JsonValue& counters = root.at("counters");
  EXPECT_DOUBLE_EQ(counters.at("etlopt.core.cycles").number, 1.0);
  EXPECT_DOUBLE_EQ(
      counters.at("etlopt.engine.source.retries{source=\"orders\"}").number,
      3.0);
  const JsonValue& gauges = root.at("gauges");
  EXPECT_DOUBLE_EQ(gauges.at("etlopt.core.initial_cost").number, 120.0);
  EXPECT_DOUBLE_EQ(gauges.at("etlopt.core.optimized_cost").number, 80.5);
  EXPECT_DOUBLE_EQ(gauges.at("etlopt.parallel.workers").number, 4.0);
  EXPECT_DOUBLE_EQ(gauges.at("etlopt.parallel.skew").number, 1.25);
  EXPECT_DOUBLE_EQ(gauges.at("etlopt.process.peak_rss_bytes").number,
                   7 << 20);
  // The adoption gate never ran: no evidence gauge.
  EXPECT_FALSE(gauges.has("etlopt.guard.evidence"));
}

TEST(ObsExportTest, PrometheusSanitizesNamesAndPassesLabels) {
  const std::string text = obs::RunMetricsPrometheus(ExportRecord());
  for (const char* sample :
       {"etlopt_core_cycles 1\n",
        "etlopt_engine_source_retries{source=\"orders\"} 3\n",
        "etlopt_core_optimized_cost 80.5\n", "etlopt_parallel_workers 4\n",
        "etlopt_process_peak_rss_bytes 7340032\n"}) {
    EXPECT_NE(text.find(sample), std::string::npos) << sample << text;
  }
  // Dots never survive sanitization in a metric name itself.
  std::istringstream lines(text);
  std::string line;
  int samples = 0;
  while (std::getline(lines, line)) {
    const std::string name = line.substr(0, line.find_first_of(" {"));
    EXPECT_EQ(name.find('.'), std::string::npos) << line;
    ++samples;
  }
  EXPECT_EQ(samples, 3 + 6);  // three counters, six gauges
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

// A hash join's span is the one channel for its phase timings: build_ns
// and probe_ns appear once each, next to its row counts.
TEST(ObsTracerTest, HashJoinSpanCarriesEachPhaseOnce) {
  obs::SetObsEnabled(true);
  testing_util::PaperExample ex = testing_util::MakePaperExample();
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Clear();
  tracer.SetEnabled(true);
  ASSERT_TRUE(Executor(&ex.workflow).Execute(ex.sources).ok());
  tracer.SetEnabled(false);
  const std::string text = tracer.ChromeTraceJson();
  tracer.Clear();

  const auto occurrences = [&](const std::string& needle) {
    int n = 0;
    for (size_t pos = text.find(needle); pos != std::string::npos;
         pos = text.find(needle, pos + 1)) {
      ++n;
    }
    return n;
  };
  int joins = 0;
  const JsonValue root = ParseJsonOrDie(text);
  for (const JsonValue* e : PayloadEvents(root)) {
    if (e->at("name").str != "engine.hash_join") continue;
    ++joins;
    const JsonValue& args = e->at("args");
    for (const char* key :
         {"build_rows", "probe_rows", "rows_out", "build_ns", "probe_ns"}) {
      EXPECT_TRUE(args.has(key)) << key;
    }
  }
  EXPECT_EQ(joins, 2);
  EXPECT_EQ(occurrences("\"build_ns\""), joins);
  EXPECT_EQ(occurrences("\"probe_ns\""), joins);
  EXPECT_EQ(occurrences("\"build_rows\""), joins);
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
// Q-error summary
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

TEST(ObsAccuracyTest, SummarizeQErrorsInterpolatesQuantiles) {
  const obs::QErrorSummary empty = obs::SummarizeQErrors({});
  EXPECT_EQ(empty.count, 0);
  EXPECT_DOUBLE_EQ(empty.max, 0.0);

  // Unsorted input; quantiles interpolate linearly between ranks.
  const obs::QErrorSummary s = obs::SummarizeQErrors({4.0, 1.0, 2.0, 1.0, 2.0});
  EXPECT_EQ(s.count, 5);
  EXPECT_DOUBLE_EQ(s.mean, 2.0);
  EXPECT_DOUBLE_EQ(s.p50, 2.0);
  EXPECT_DOUBLE_EQ(s.p90, 3.2);  // rank 3.6: 2 + 0.6 * (4 - 2)
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_LE(s.p95, s.p99);
  EXPECT_LE(s.p99, s.max);
}

// The --obs-summary q-error table groups the record's samples by operator
// type and join depth: SE cards by their join count, profile operators as
// "cost", the plan total as "plan_cost", and caller samples as given.
TEST(ObsAccuracyTest, SummaryTableGroupsByOpTypeAndDepth) {
  obs::RunRecord record;
  const auto card = [](RelMask se, double est, double actual) {
    obs::RunRecord::SeCard c;
    c.se = se;
    c.estimated = est;
    c.actual = actual;
    return c;
  };
  record.cards = {card(0b111, 100, 50), card(0b101, 80, 80), card(0b1, 10, 10),
                  card(0b11, 7, -1)};  // no ground truth: not a sample
  obs::OpProfile op;
  op.op = "Join";
  op.self_ns = 100;
  op.pred_ns = 400.0;
  record.profile.ops = {op};

  const std::vector<QErrorSample> samples = RecordQErrorSamples(record);
  std::map<std::pair<std::string, int>, int> counts;
  for (const QErrorSample& s : samples) ++counts[{s.op, s.depth}];
  EXPECT_EQ(counts, (std::map<std::pair<std::string, int>, int>{
                        {{"join", 2}, 1},
                        {{"join", 1}, 1},
                        {{"chain", 0}, 1},
                        {{"cost", 0}, 1},
                        {{"plan_cost", 0}, 1}}));

  const std::string table = FormatObsSummary(record, {{"sketch", 1, 1.5}});
  for (const char* row : {"  join         2       1    2.000",
                          "  chain        0       1    1.000",
                          "  cost         0       1    4.000",
                          "  plan_cost     0       1    4.000",
                          "  sketch       1       1    1.500",
                          "  all          -       6"}) {
    EXPECT_NE(table.find(row), std::string::npos) << row << "\n" << table;
  }
  // No engine ran: the headline counts and sections stay silent.
  EXPECT_EQ(table.find("engine executions"), std::string::npos) << table;
  EXPECT_EQ(table.find("-- guard --"), std::string::npos) << table;
  EXPECT_NE(FormatObsSummary(obs::RunRecord())
                .find("(no ground-truth samples recorded)"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Executor integration: the profile's per-operator rows match the outputs
// ---------------------------------------------------------------------------

TEST(ObsExecutorIntegrationTest, RowCountersMatchExecutionResult) {
  obs::SetObsEnabled(true);
  obs::SetProfilerEnabled(true);
  testing_util::PaperExample ex = testing_util::MakePaperExample();
  Executor executor(&ex.workflow, testing_util::RetainOutputs());
  Result<ExecutionResult> result = executor.Execute(ex.sources);
  obs::SetProfilerEnabled(false);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // One profile entry per operator, in plan order, with its output rows.
  ASSERT_EQ(result->profile.ops.size(),
            static_cast<size_t>(ex.workflow.num_nodes()));
  EXPECT_EQ(result->nodes_completed, ex.workflow.num_nodes());
  int64_t rows_in = 0;
  for (const obs::OpProfile& op : result->profile.ops) {
    const WorkflowNode& node = ex.workflow.node(static_cast<NodeId>(op.node));
    EXPECT_EQ(op.op, OpKindName(node.kind));
    const auto it = result->node_outputs.find(node.id);
    ASSERT_NE(it, result->node_outputs.end());
    EXPECT_EQ(op.rows_out, it->second.num_rows()) << op.label;
    if (node.kind != OpKind::kSink) {
      EXPECT_GT(op.rows_out, 0) << op.label;
    }
    rows_in += op.rows_in;
  }
  // Every operator's input rows are what the engine counts as processed.
  EXPECT_EQ(rows_in, result->rows_processed);
}

// The kill-switch gates instrumentation only: with observability off the
// tracer and the profiler record nothing, while the run's own numbers —
// what its RunRecord is made from — are unchanged.
TEST(ObsDisableTest, RuntimeDisableSkipsRecording) {
  testing_util::PaperExample ex = testing_util::MakePaperExample();
  const Executor executor(&ex.workflow);
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Clear();
  tracer.SetEnabled(true);
  obs::SetProfilerEnabled(true);

  obs::SetObsEnabled(false);
  const Result<ExecutionResult> off = executor.Execute(ex.sources);
  const size_t events_off = tracer.NumEvents();
  obs::SetObsEnabled(true);
  const Result<ExecutionResult> on = executor.Execute(ex.sources);
  const size_t events_on = tracer.NumEvents();
  tracer.SetEnabled(false);
  tracer.Clear();
  obs::SetProfilerEnabled(false);

  ASSERT_TRUE(off.ok()) << off.status().ToString();
  ASSERT_TRUE(on.ok()) << on.status().ToString();
  EXPECT_EQ(events_off, 0u);
  EXPECT_GT(events_on, 0u);
  EXPECT_TRUE(off->profile.empty());
  EXPECT_FALSE(on->profile.empty());
  EXPECT_EQ(off->rows_processed, on->rows_processed);
  EXPECT_EQ(off->bytes_processed, on->bytes_processed);
  EXPECT_EQ(off->nodes_completed, on->nodes_completed);
}

}  // namespace
}  // namespace etlopt
