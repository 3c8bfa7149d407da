// Micro-benchmarks for the columnar engine: vectorized kernels (selection
// vectors, column gathers, the counting-sort hash join) against a row-at-a-
// time reference of the filter+join path they replaced, kept in this file as
// the speedup baseline. Two modes:
//
//   micro_vector                       google-benchmark kernels
//   micro_vector --selfcheck           timed row-vs-columnar comparison
//       [--min-speedup=3]              ... failing (exit 1) if the combined
//                                      filter+join speedup at the largest
//                                      size falls below the floor
//       [--out=BENCH_vector.json]      ... writing the comparison, stamped
//                                      with the build type, to a JSON file
//
// The speedup gate is only meaningful on a Release build; the selfcheck
// stamps `library_build_type` so CI (and readers of the committed JSON) can
// tell a gated Release run from an informational debug one.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/column.h"
#include "engine/executor.h"
#include "etl/workflow_builder.h"
#include "obs/build_info.h"
#include "util/json.h"
#include "util/random.h"
#include "util/timer.h"

namespace etlopt {
namespace {

// A wide key domain keeps the join fanout near one output row per probe
// row: the measured time is selection + hash build + probe, not the (mode-
// independent) cost of materializing a huge join output.
constexpr int64_t kKeyDomain = 1000000;
constexpr int64_t kValDomain = 100;

// A filter+join workload: probe table (k, x), build table (k), predicate
// on x keeping roughly half the rows. Mirrors BM_HashJoin in micro_engine
// but runs the full operator path, so both implementations pay their real
// per-operator costs (selection build + gather vs. row append; hash table
// build + probe in either layout).
struct FilterJoinFixture {
  Table left;
  Table right;
  Predicate pred;

  explicit FilterJoinFixture(int64_t rows)
      : left{Schema({0, 1})}, right{Schema({0})}, pred{1, CompareOp::kLe,
                                                       kValDomain / 2} {
    Rng rng(9);
    std::vector<ColumnPtr> lcols{std::make_shared<Column>(),
                                 std::make_shared<Column>()};
    for (int64_t i = 0; i < rows; ++i) {
      lcols[0]->push_back(rng.NextInRange(1, kKeyDomain));
      lcols[1]->push_back(rng.NextInRange(1, kValDomain));
    }
    std::vector<ColumnPtr> rcols{std::make_shared<Column>()};
    for (int64_t i = 0; i < rows / 4; ++i) {
      rcols[0]->push_back(rng.NextInRange(1, kKeyDomain));
    }
    left = Table::FromColumns(Schema({0, 1}), std::move(lcols), rows);
    right =
        Table::FromColumns(Schema({0}), std::move(rcols), rows / 4);
  }

  // The engine's filter+join: BuildSelection + Table::Gather, then the
  // counting-sort HashJoin.
  Table RunColumnar() const {
    SelVector sel;
    sel.reserve(static_cast<size_t>(left.num_rows()));
    BuildSelection(pred, left.column_data(1), left.num_rows(), &sel);
    return HashJoin(Table::Gather(left, sel), right, 0, nullptr);
  }

  // The row-at-a-time baseline: a Predicate::Matches + AppendRowFrom
  // filter, then an unordered_map build over the right key and a probe that
  // materializes every match row by row, in the same emission order as
  // HashJoin (probe order x build order).
  Table RunRows() const {
    Table filtered{left.schema()};
    for (int64_t r = 0; r < left.num_rows(); ++r) {
      if (pred.Matches(left.at(r, 1))) filtered.AppendRowFrom(left, r);
    }
    std::unordered_map<Value, std::vector<int64_t>> build;
    build.reserve(static_cast<size_t>(right.num_rows()));
    for (int64_t r = 0; r < right.num_rows(); ++r) {
      build[right.at(r, 0)].push_back(r);
    }
    // The build side holds only the key, so a joined row is the probe row.
    Table out{filtered.schema()};
    for (int64_t l = 0; l < filtered.num_rows(); ++l) {
      const auto it = build.find(filtered.at(l, 0));
      if (it == build.end()) continue;
      for (size_t m = 0; m < it->second.size(); ++m) {
        out.AddRow(filtered.row(l));
      }
    }
    return out;
  }

  Table Run(bool columnar) const {
    return columnar ? RunColumnar() : RunRows();
  }
};

// ---- google-benchmark kernels ----

void BM_FilterJoin(benchmark::State& state, bool columnar) {
  const FilterJoinFixture fx(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.Run(columnar).num_rows());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
void BM_FilterJoinRows(benchmark::State& state) {
  BM_FilterJoin(state, false);
}
void BM_FilterJoinVectorized(benchmark::State& state) {
  BM_FilterJoin(state, true);
}
BENCHMARK(BM_FilterJoinRows)
    ->Arg(100000)
    ->Arg(1000000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FilterJoinVectorized)
    ->Arg(100000)
    ->Arg(1000000)
    ->Unit(benchmark::kMillisecond);

void BM_BuildSelection(benchmark::State& state) {
  const FilterJoinFixture fx(state.range(0));
  SelVector sel;
  for (auto _ : state) {
    sel.clear();
    BuildSelection(fx.pred, fx.left.column_data(1), fx.left.num_rows(),
                   &sel);
    benchmark::DoNotOptimize(sel.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BuildSelection)->Arg(100000)->Arg(1000000);

void BM_JoinHashTableBuild(benchmark::State& state) {
  const FilterJoinFixture fx(state.range(0));
  for (auto _ : state) {
    const JoinHashTable ht(fx.left.column_data(0), fx.left.num_rows());
    benchmark::DoNotOptimize(ht.num_keys());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_JoinHashTableBuild)
    ->Arg(100000)
    ->Arg(1000000)
    ->Unit(benchmark::kMillisecond);

// ---- selfcheck mode ----

double BestOfMillis(int reps, const FilterJoinFixture& fx, bool columnar) {
  double best = 0.0;
  int64_t rows_out = 0;
  for (int i = 0; i < reps; ++i) {
    Timer t;
    const int64_t out = fx.Run(columnar).num_rows();
    const double ms = t.ElapsedMillis();
    if (i == 0 || ms < best) best = ms;
    if (i == 0) {
      rows_out = out;
    } else if (out != rows_out) {
      std::fprintf(stderr, "selfcheck: nondeterministic output size\n");
      std::exit(2);
    }
  }
  return best;
}

int RunSelfCheck(double min_speedup, const std::string& out_path) {
  const obs::BuildInfo& build = obs::CurrentBuildInfo();
  Json doc = Json::Object();
  doc.Set("benchmark", Json::Str("bench/micro_vector"));
  doc.Set("library_build_type", Json::Str(build.build_type));
  doc.Set("compiler", Json::Str(build.compiler));
  doc.Set("git_sha", Json::Str(build.git_sha));
  doc.Set("min_speedup_gate", Json::Double(min_speedup));
  Json notes = Json::Object();
  notes.Set("workload",
            Json::Str("filter (x <= 50, ~50% selective) then hash join on a "
                      "1e6-value key against a build side of rows/4; "
                      "row baseline = bench-local row-at-a-time "
                      "Predicate::Matches + AppendRowFrom + unordered_map "
                      "join, vectorized = the engine's BuildSelection + "
                      "Table::Gather + counting-sort HashJoin. Output tables "
                      "are checked identical before timing; best-of-N wall "
                      "time per implementation."));
  notes.Set("acceptance",
            Json::Str("the >=3x gate applies to the largest size on a "
                      "Release build only (see library_build_type)"));
  doc.Set("notes", std::move(notes));

  Json results = Json::Array();
  double gated_speedup = 0.0;
  for (const int64_t rows : {int64_t{100000}, int64_t{1000000}}) {
    const FilterJoinFixture fx(rows);
    const int reps = rows >= 1000000 ? 3 : 5;
    const Table row_out = fx.RunRows();  // warm + record output
    const double row_ms = BestOfMillis(reps, fx, false);
    const Table vector_out = fx.RunColumnar();
    const double vector_ms = BestOfMillis(reps, fx, true);
    if (row_out != vector_out) {
      std::fprintf(stderr,
                   "selfcheck: outputs disagree at %lld rows (row baseline "
                   "%lld rows vs vectorized %lld rows)\n",
                   static_cast<long long>(rows),
                   static_cast<long long>(row_out.num_rows()),
                   static_cast<long long>(vector_out.num_rows()));
      return 2;
    }
    const double speedup = vector_ms > 0.0 ? row_ms / vector_ms : 0.0;
    gated_speedup = speedup;  // last (largest) size carries the gate
    Json row = Json::Object();
    row.Set("rows", Json::Int(rows));
    row.Set("join_rows_out", Json::Int(vector_out.num_rows()));
    row.Set("row_baseline_ms", Json::Double(row_ms));
    row.Set("vectorized_ms", Json::Double(vector_ms));
    row.Set("speedup", Json::Double(speedup));
    results.push_back(std::move(row));
    std::printf("rows=%-8lld row=%9.3f ms  vectorized=%9.3f ms  "
                "speedup=%.2fx\n",
                static_cast<long long>(rows), row_ms, vector_ms, speedup);
  }
  doc.Set("results", std::move(results));
  const bool pass = min_speedup <= 0.0 || gated_speedup >= min_speedup;
  doc.Set("gate_passed", Json::Bool(pass));

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "selfcheck: cannot write %s\n", out_path.c_str());
    return 2;
  }
  out << doc.Dump() << "\n";
  std::printf("wrote %s (build type %s)\n", out_path.c_str(),
              build.build_type.c_str());
  if (!pass) {
    std::fprintf(stderr,
                 "selfcheck FAILED: speedup %.2fx at 1e6 rows is below the "
                 "--min-speedup=%.2f floor\n",
                 gated_speedup, min_speedup);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace etlopt

int main(int argc, char** argv) {
  bool selfcheck = false;
  double min_speedup = 0.0;
  std::string out_path = "BENCH_vector.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--selfcheck") == 0) {
      selfcheck = true;
    } else if (std::strncmp(argv[i], "--min-speedup=", 14) == 0) {
      min_speedup = std::atof(argv[i] + 14);
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    }
  }
  if (selfcheck) {
    return etlopt::RunSelfCheck(min_speedup, out_path);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
