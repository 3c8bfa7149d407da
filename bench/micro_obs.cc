// Micro-benchmarks for the observability layer: what a span open/close and
// the fault, profiler and plan-monitor guards cost on the instrumented hot
// paths, enabled vs runtime-disabled. The acceptance bar is that the
// disabled path stays within ~2x of no instrumentation at all (it is one
// relaxed load + branch per site).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <unordered_map>

#include "engine/executor.h"
#include "obs/build_info.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "util/fault.h"

namespace etlopt {
namespace {

// Baseline: a loop body with no instrumentation at all, for judging the
// disabled sites below against true zero cost.
void BM_Baseline(benchmark::State& state) {
  int64_t local = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(++local);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Baseline);

void BM_SpanEnabled(benchmark::State& state) {
  obs::SetObsEnabled(true);
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Clear();
  tracer.SetEnabled(true);
  for (auto _ : state) {
    obs::ScopedSpan span("bench.obs.span");
    benchmark::DoNotOptimize(&span);
    // Keep the event buffer bounded so the benchmark measures span cost,
    // not allocation growth.
    if (tracer.NumEvents() > 1u << 20) {
      state.PauseTiming();
      tracer.Clear();
      state.ResumeTiming();
    }
  }
  tracer.SetEnabled(false);
  tracer.Clear();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpanEnabled);

void BM_SpanTracerOff(benchmark::State& state) {
  obs::SetObsEnabled(true);
  obs::Tracer::Global().SetEnabled(false);
  for (auto _ : state) {
    obs::ScopedSpan span("bench.obs.span_off");
    benchmark::DoNotOptimize(&span);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpanTracerOff);

void BM_SpanObsDisabled(benchmark::State& state) {
  obs::SetObsEnabled(false);
  for (auto _ : state) {
    obs::ScopedSpan span("bench.obs.span_disabled");
    benchmark::DoNotOptimize(&span);
  }
  obs::SetObsEnabled(true);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpanObsDisabled);

// The fault-injection guard on the executor hot paths when no spec is
// installed (ETLOPT_FAULT_SPEC unset): one pointer load + null branch.
// This is the configuration every production run pays for, so it must be
// indistinguishable from the uninstrumented baseline.
void BM_FaultGuardDisabled(benchmark::State& state) {
  benchmark::DoNotOptimize(fault::FaultInjector::InstallGlobal("").ok());
  int64_t fired = 0;
  for (auto _ : state) {
    const fault::FaultInjector* inj = fault::FaultInjector::Global();
    if (inj != nullptr && inj->HasRules(fault::Scope::kSource, "orders")) {
      ++fired;
    }
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FaultGuardDisabled);

// The same guard with an injector installed whose rules target a different
// site: the per-row cost of running *near* a fault spec without matching it.
void BM_FaultGuardNonMatching(benchmark::State& state) {
  benchmark::DoNotOptimize(
      fault::FaultInjector::InstallGlobal("source:other:io_error").ok());
  int64_t fired = 0;
  for (auto _ : state) {
    const fault::FaultInjector* inj = fault::FaultInjector::Global();
    if (inj != nullptr && inj->HasRules(fault::Scope::kSource, "orders")) {
      ++fired;
    }
    benchmark::DoNotOptimize(fired);
  }
  benchmark::DoNotOptimize(fault::FaultInjector::InstallGlobal("").ok());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FaultGuardNonMatching);

// The profiler guard on the executor's per-operator path when profiling is
// off (the default): two relaxed loads + a branch, taken once per operator
// rather than per row. Must stay at the same order as the fault guard.
void BM_ProfilerGuardDisabled(benchmark::State& state) {
  obs::SetProfilerEnabled(false);
  int64_t ns = 0;
  for (auto _ : state) {
    if (obs::ProfilerEnabled()) ns += obs::ProfileNowNs();
    benchmark::DoNotOptimize(ns);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProfilerGuardDisabled);

// The plan-regression guard's runtime-monitor check on FinishNodeStep when
// no monitors are armed (every run without ledger history, and every run
// with --guard=off): one empty-map branch per completed node. Must stay at
// the same order as the fault and profiler guards.
void BM_GuardMonitorDisabled(benchmark::State& state) {
  const std::unordered_map<NodeId, PlanMonitor> monitors;
  int64_t fired = 0;
  NodeId node = 0;
  for (auto _ : state) {
    if (!monitors.empty()) {
      const auto it = monitors.find(node);
      if (it != monitors.end() && it->second.expected_rows >= 0.0) ++fired;
    }
    ++node;
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GuardMonitorDisabled);

// The armed cost per node: a hash lookup plus two divisions — what
// --guard with ledger history adds to each completed node (node count,
// not row count, so this never touches the per-row hot path).
void BM_GuardMonitorArmed(benchmark::State& state) {
  std::unordered_map<NodeId, PlanMonitor> monitors;
  for (NodeId n = 0; n < 16; ++n) {
    PlanMonitor m;
    m.expected_rows = 1000.0;
    monitors.emplace(n, m);
  }
  int64_t fired = 0;
  NodeId node = 0;
  for (auto _ : state) {
    if (!monitors.empty()) {
      const auto it = monitors.find(node % 16);
      if (it != monitors.end() && it->second.expected_rows >= 0.0) {
        const double actual = 995.0;
        const double qerror = std::max(it->second.expected_rows / actual,
                                       actual / it->second.expected_rows);
        if (qerror > 4.0) ++fired;
      }
    }
    ++node;
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GuardMonitorArmed);

// The enabled cost per operator: two steady-clock reads bracketing the
// operator body — what `advisor run --profile` adds to each node.
void BM_ProfilerTimestampEnabled(benchmark::State& state) {
  obs::SetObsEnabled(true);
  obs::SetProfilerEnabled(true);
  int64_t ns = 0;
  for (auto _ : state) {
    if (obs::ProfilerEnabled()) ns += obs::ProfileNowNs();
    benchmark::DoNotOptimize(ns);
  }
  obs::SetProfilerEnabled(false);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProfilerTimestampEnabled);

}  // namespace
}  // namespace etlopt

int main(int argc, char** argv) {
  // Stamp the measured library's build into the JSON context, so a
  // committed BENCH_*.json says what it measured.
  const etlopt::obs::BuildInfo& build = etlopt::obs::CurrentBuildInfo();
  benchmark::AddCustomContext("etlopt_build_type", build.build_type);
  benchmark::AddCustomContext("etlopt_compiler", build.compiler);
  benchmark::AddCustomContext("etlopt_git_sha", build.git_sha);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
