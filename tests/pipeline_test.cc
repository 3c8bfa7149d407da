#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <sstream>
#include <string>

#include "core/pipeline.h"
#include "core/report.h"
#include "datagen/workload_suite.h"
#include "etl/workflow_io.h"
#include "test_util.h"

namespace etlopt {
namespace {

TEST(PipelineTest, AnalyzePaperExample) {
  auto ex = testing_util::MakePaperExample();
  Pipeline pipeline;
  const auto analysis = Pipeline().Analyze(ex.workflow);
  ASSERT_TRUE(analysis.ok()) << analysis.status().ToString();
  ASSERT_EQ((*analysis)->blocks.size(), 1u);
  const BlockAnalysis& ba = *(*analysis)->blocks[0];
  EXPECT_EQ(ba.plan_space.num_ses(), 6);
  EXPECT_TRUE(ba.selection.feasible);
  EXPECT_GT(ba.catalog.num_css(), 0);
}

TEST(PipelineTest, FullCycleEstimatesExactly) {
  auto ex = testing_util::MakePaperExample();
  Pipeline pipeline;
  const Result<CycleOutcome> cycle =
      pipeline.RunCycle(ex.workflow, ex.sources);
  ASSERT_TRUE(cycle.ok()) << cycle.status().ToString();

  // Estimated cardinalities match ground truth for every block.
  for (size_t b = 0; b < cycle->analysis->blocks.size(); ++b) {
    const BlockAnalysis& ba = *cycle->analysis->blocks[b];
    const auto truth = ComputeGroundTruthCards(
                           ba.ctx, ba.plan_space.subexpressions(),
                           cycle->run.exec)
                           .value();
    for (const auto& [se, card] : cycle->opt.block_cards[b]) {
      EXPECT_EQ(card, truth.at(se)) << "block " << b << " SE " << se;
    }
  }
  EXPECT_LE(cycle->opt.optimized_cost, cycle->opt.initial_cost + 1e-9);
}

TEST(PipelineTest, OptimizedWorkflowProducesSameSinkOutput) {
  auto ex = testing_util::MakePaperExample();
  Pipeline pipeline;
  const CycleOutcome cycle =
      pipeline.RunCycle(ex.workflow, ex.sources).value();
  const ExecutionResult again =
      Executor(&cycle.opt.optimized).Execute(ex.sources).value();
  const Table& before = cycle.run.exec.targets.at("warehouse.orders");
  const Table& after = again.targets.at("warehouse.orders");
  ASSERT_EQ(before.schema().mask(), after.schema().mask());
  EXPECT_TRUE(before.BuildHistogram(before.schema().mask()) ==
              after.BuildHistogram(after.schema().mask()));
}

TEST(PipelineTest, IlpSelectorWorksEndToEnd) {
  auto ex = testing_util::MakePaperExample();
  PipelineOptions options;
  options.selector = SelectorKind::kIlp;
  Pipeline pipeline(options);
  const Result<CycleOutcome> cycle =
      pipeline.RunCycle(ex.workflow, ex.sources);
  ASSERT_TRUE(cycle.ok()) << cycle.status().ToString();
  EXPECT_TRUE((*cycle).analysis->blocks[0]->selection.feasible);
}

TEST(PipelineTest, UnionDivisionOffStillWorks) {
  auto ex = testing_util::MakePaperExample();
  PipelineOptions options;
  options.css.enable_union_division = false;
  Pipeline pipeline(options);
  const Result<CycleOutcome> cycle =
      pipeline.RunCycle(ex.workflow, ex.sources);
  ASSERT_TRUE(cycle.ok()) << cycle.status().ToString();
}

TEST(PipelineTest, MultiBlockWorkloadCycles) {
  // wf10 (derived-key boundary), wf11 (reject link), wf17 (agg UDF), wf28
  // (materialize) all have multiple blocks.
  for (int i : {10, 11, 17, 28}) {
    const WorkloadSpec spec = BuildWorkload(i);
    const SourceMap sources = GenerateSources(spec, 5, 0.01);
    Pipeline pipeline;
    const Result<CycleOutcome> cycle =
        pipeline.RunCycle(spec.workflow, sources);
    ASSERT_TRUE(cycle.ok()) << spec.name << ": " << cycle.status().ToString();
    EXPECT_GE(cycle->analysis->blocks.size(), 2u) << spec.name;
    // Optimized workflow result matches the designed one.
    const ExecutionResult again =
        Executor(&cycle->opt.optimized).Execute(sources).value();
    for (const auto& [target, table] : cycle->run.exec.targets) {
      const Table& other = again.targets.at(target);
      EXPECT_EQ(table.num_rows(), other.num_rows())
          << spec.name << " target " << target;
    }
  }
}

TEST(PipelineTest, DriftTriggersDifferentPlan) {
  // Design once, run repeatedly: when the data drifts (the selective
  // dimension becomes the exploding one), the re-learned statistics flip
  // the chosen join order.
  WorkflowBuilder b("drift");
  const AttrId ka = b.DeclareAttr("ka", 50);
  const AttrId kb = b.DeclareAttr("kb", 50);
  const NodeId f = b.Source("F", {ka, kb});
  const NodeId da = b.Source("DA", {ka});
  const NodeId db = b.Source("DB", {kb});
  const NodeId j1 = b.Join(f, db, kb);
  const NodeId j2 = b.Join(j1, da, ka);
  b.Sink(j2, "out");
  Workflow wf = std::move(b).Build().value();

  auto sources_with = [&](int da_rows, int db_copies) {
    SourceMap s;
    Table tf{Schema({ka, kb})};
    for (int i = 0; i < 200; ++i) tf.AddRow({(i % 10) + 1, (i % 5) + 1});
    Table tda{Schema({ka})};
    for (int i = 0; i < da_rows; ++i) tda.AddRow({(i % 10) + 1});
    Table tdb{Schema({kb})};
    for (int i = 1; i <= 5; ++i) {
      for (int c = 0; c < db_copies; ++c) tdb.AddRow({i});
    }
    s["F"] = std::move(tf);
    s["DA"] = std::move(tda);
    s["DB"] = std::move(tdb);
    return s;
  };

  Pipeline pipeline;
  // Era 1: DA selective (1 row), DB heavy.
  const CycleOutcome era1 =
      pipeline.RunCycle(wf, sources_with(1, 30)).value();
  // Era 2: DA heavy, DB selective.
  const CycleOutcome era2 =
      pipeline.RunCycle(wf, sources_with(300, 1)).value();
  // The rewritten workflows must differ structurally between the eras.
  EXPECT_NE(era1.opt.optimized.ToString(), era2.opt.optimized.ToString());
}


TEST(PipelineTest, CpuMetricWithSizeFeedback) {
  // Section 5.4: the CPU cost of observing a statistic is the tuples at the
  // observation point; the circular dependency is broken with sizes from a
  // previous run. Run once (memory metric), feed the learned SE sizes back,
  // and analyze under the CPU metric.
  auto ex = testing_util::MakePaperExample();
  Pipeline first;
  const CycleOutcome cycle = first.RunCycle(ex.workflow, ex.sources).value();

  PipelineOptions options;
  options.cost.metric = CostMetric::kCpu;
  Pipeline cpu_pipeline(options);
  const auto analysis =
      cpu_pipeline.Analyze(ex.workflow, &cycle.opt.block_cards);
  ASSERT_TRUE(analysis.ok()) << analysis.status().ToString();
  const BlockAnalysis& ba = *(*analysis)->blocks[0];
  EXPECT_TRUE(ba.selection.feasible);
  // Under the CPU metric with real sizes, observing everything on the
  // smallest relations is preferred; the total cost is bounded by a few
  // passes over the data.
  int64_t total_rows = 0;
  for (const auto& [se, card] : cycle.opt.block_cards[0]) {
    (void)se;
    total_rows += card;
  }
  EXPECT_LE(ba.selection.total_cost, static_cast<double>(total_rows) * 3);
  // And the cycle still completes with exact estimates.
  const Result<RunOutcome> run =
      cpu_pipeline.RunAndObserve(**analysis, ex.sources);
  ASSERT_TRUE(run.ok());
  const Result<OptimizeOutcome> opt =
      cpu_pipeline.Optimize(**analysis, *run);
  ASSERT_TRUE(opt.ok()) << opt.status().ToString();
  for (const auto& [se, card] : opt->block_cards[0]) {
    EXPECT_EQ(card, cycle.opt.block_cards[0].at(se)) << "SE " << se;
  }
}

// What one process reports for one cycle: its record's counters and its
// --obs-summary without the lines that carry timings or the process's
// memory (phases, peak RSS, parallel merge time).
std::string ReportCycle(const Workflow& workflow, const SourceMap& sources) {
  const CycleOutcome cycle = Pipeline().RunCycle(workflow, sources).value();
  std::vector<CardMap> truths;
  for (const auto& ba : cycle.analysis->blocks) {
    truths.push_back(ComputeGroundTruthCards(
                         ba->ctx, ba->plan_space.subexpressions(),
                         cycle.run.exec)
                         .value());
  }
  const obs::RunRecord record = MakeRunRecord(cycle, "run-1", &truths);
  std::string report;
  for (const auto& [name, value] : record.metrics) {
    report += name + " = " + std::to_string(value) + "\n";
  }
  std::istringstream summary(FormatObsSummary(record));
  for (std::string line; std::getline(summary, line);) {
    if (line.rfind("  phases: ", 0) == 0 ||
        line.rfind("  peak RSS: ", 0) == 0 ||
        line.rfind("  output merge time: ", 0) == 0) {
      continue;
    }
    report += line + "\n";
  }
  return report;
}

// The same report from a child process that runs only this cycle.
std::string ReportCycleInFreshProcess(const Workflow& workflow,
                                      const SourceMap& sources) {
  int fds[2];
  if (pipe(fds) != 0) return "pipe failed";
  const pid_t pid = fork();
  if (pid == 0) {
    close(fds[0]);
    const std::string report = ReportCycle(workflow, sources);
    size_t written = 0;
    while (written < report.size()) {
      const ssize_t n =
          write(fds[1], report.data() + written, report.size() - written);
      if (n <= 0) break;
      written += static_cast<size_t>(n);
    }
    _exit(written == report.size() ? 0 : 1);
  }
  close(fds[1]);
  std::string report;
  char buf[4096];
  for (ssize_t n; (n = read(fds[0], buf, sizeof(buf))) > 0;) {
    report.append(buf, static_cast<size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  return report;
}

// A record holds its own cycle's numbers: one process running two
// different cycles reports each exactly as a process that ran only that
// cycle does, whatever ran before it.
TEST(PipelineTest, EachCycleReportsItsOwnNumbers) {
  const WorkloadSpec wf3 = BuildWorkload(3);
  const SourceMap wf3_sources = GenerateSources(wf3, 7, 0.01);
  const testing_util::PaperExample paper = testing_util::MakePaperExample();

  const std::string wf3_fresh =
      ReportCycleInFreshProcess(wf3.workflow, wf3_sources);
  const std::string paper_fresh =
      ReportCycleInFreshProcess(paper.workflow, paper.sources);
  ASSERT_NE(wf3_fresh.find("etlopt.engine.executions = 1\n"),
            std::string::npos)
      << wf3_fresh;
  ASSERT_NE(paper_fresh.find("  engine executions: 1\n"), std::string::npos)
      << paper_fresh;

  EXPECT_EQ(ReportCycle(wf3.workflow, wf3_sources), wf3_fresh);
  EXPECT_EQ(ReportCycle(paper.workflow, paper.sources), paper_fresh);
  EXPECT_EQ(ReportCycle(wf3.workflow, wf3_sources), wf3_fresh);
}


// ---- analysis reuse: the workflow key decides ----

// An analysis's counters but the two that say what it reused.
std::vector<std::pair<std::string, int64_t>> CountersWithoutReuse(
    const Analysis& analysis) {
  std::vector<std::pair<std::string, int64_t>> counters =
      AnalysisCounters(analysis);
  std::erase_if(counters, [](const auto& counter) {
    return counter.first == "etlopt.core.analysis_reused" ||
           counter.first == "etlopt.opt.selection_reused";
  });
  return counters;
}

// Two analyses select the same statistics at the same cost, report the same
// counters and analyze the same workflow.
void ExpectSameAnalysis(const Analysis& got, const Analysis& want) {
  EXPECT_EQ(got.workflow->ToString(), want.workflow->ToString());
  EXPECT_EQ(CountersWithoutReuse(got), CountersWithoutReuse(want));
  ASSERT_EQ(got.blocks.size(), want.blocks.size());
  for (size_t b = 0; b < got.blocks.size(); ++b) {
    const SelectionResult& g = got.blocks[b]->selection;
    const SelectionResult& w = want.blocks[b]->selection;
    EXPECT_EQ(g.observed, w.observed) << "block " << b;
    EXPECT_EQ(g.total_cost, w.total_cost) << "block " << b;
    EXPECT_EQ(g.method, w.method) << "block " << b;
  }
}

// The reuse key is the workflow text: a workflow read back from its text
// must analyze exactly like the original, for every suite workload.
TEST(AnalysisReuseTest, WorkflowTextDeterminesTheAnalysis) {
  for (int i = 1; i <= 30; ++i) {
    SCOPED_TRACE("wf" + std::to_string(i));
    const WorkloadSpec spec = BuildWorkload(i);
    const Result<Workflow> parsed =
        ParseWorkflowText(WriteWorkflowTextOrDie(spec.workflow));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    const auto direct = Pipeline().Analyze(spec.workflow);
    const auto via_text = Pipeline().Analyze(*parsed);
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    ASSERT_TRUE(via_text.ok()) << via_text.status().ToString();
    ExpectSameAnalysis(**via_text, **direct);
  }
}

// The first suite workload with a filter, as text.
std::string FilteredWorkloadText() {
  for (int i = 1; i <= 30; ++i) {
    const std::string text = WriteWorkflowTextOrDie(BuildWorkload(i).workflow);
    if (text.find(" where ") != std::string::npos) return text;
  }
  return "";
}

// `text` with `delta` added to the number that ends the first line starting
// with `prefix`.
std::string BumpLastNumber(std::string text, const std::string& prefix,
                           int64_t delta) {
  const size_t line = text.find("\n" + prefix);
  EXPECT_NE(line, std::string::npos) << prefix;
  const size_t end = text.find('\n', line + 1);
  const size_t token = text.rfind(' ', end) + 1;
  const int64_t value = std::stoll(text.substr(token, end - token)) + delta;
  return text.replace(token, end - token, std::to_string(value));
}

// One Pipeline analyzing a workflow and then a variant differing in one
// filter constant or one domain size gives the variant's own analysis.
TEST(AnalysisReuseTest, OneChangedConstantIsAnalyzedAfresh) {
  const std::string text = FilteredWorkloadText();
  ASSERT_FALSE(text.empty());
  const Workflow base = ParseWorkflowText(text).value();
  const size_t where = text.find(" where ");
  const size_t line_start = text.rfind('\n', where) + 1;
  const std::string filter_prefix =
      text.substr(line_start, where - line_start);
  for (const std::string& variant_text :
       {BumpLastNumber(text, filter_prefix, 1),
        BumpLastNumber(text, "attr ", 1000)}) {
    ASSERT_NE(variant_text, text);
    const Workflow variant = ParseWorkflowText(variant_text).value();
    const Pipeline pipeline;
    ASSERT_TRUE(pipeline.Analyze(base).ok());
    const auto reanalyzed = pipeline.Analyze(variant).value();
    EXPECT_FALSE(reanalyzed->analysis_reused);
    EXPECT_FALSE(reanalyzed->selection_reused);
    ExpectSameAnalysis(*reanalyzed, *Pipeline().Analyze(variant).value());
    EXPECT_EQ(WriteWorkflowTextOrDie(*reanalyzed->workflow), variant_text);
  }
}

// A workflow whose text cannot be written (an ad-hoc lambda transform) has
// no key: every Analyze builds it afresh.
TEST(AnalysisReuseTest, LambdaTransformIsNeverReused) {
  WorkflowBuilder b("lambda_load");
  const AttrId k = b.DeclareAttr("k", 20);
  const AttrId v = b.DeclareAttr("v", 30);
  const NodeId left = b.Source("L", {k, v});
  const NodeId right = b.Source("R", {k});
  const NodeId shifted =
      b.Transform(left, v, [](Value x) { return x % 7 + 1; });
  b.Sink(b.Join(shifted, right, k), "out");
  const Workflow wf = std::move(b).Build().value();
  Status status;
  WriteWorkflowText(wf, &status);
  ASSERT_FALSE(status.ok());

  const Pipeline pipeline;
  for (int i = 0; i < 2; ++i) {
    const auto analysis = pipeline.Analyze(wf).value();
    EXPECT_FALSE(analysis->analysis_reused) << "call " << i;
    EXPECT_FALSE(analysis->selection_reused) << "call " << i;
    ExpectSameAnalysis(*analysis, *Pipeline().Analyze(wf).value());
  }
}

// Repeated analyses of one workflow on one Pipeline reuse the structures
// and the selection, and equal a fresh Pipeline's.
TEST(AnalysisReuseTest, RepeatedAnalysisIsReused) {
  const WorkloadSpec spec = BuildWorkload(13);
  const Pipeline pipeline;
  const auto first = pipeline.Analyze(spec.workflow).value();
  EXPECT_FALSE(first->analysis_reused);
  const auto second = pipeline.Analyze(spec.workflow).value();
  EXPECT_TRUE(second->analysis_reused);
  EXPECT_TRUE(second->selection_reused);
  EXPECT_EQ(second->workflow, first->workflow);
  ExpectSameAnalysis(*second, *first);
  // The counters say so; a fresh analysis reports neither.
  const auto counters = AnalysisCounters(*second);
  const auto has = [&](const char* name) {
    for (const auto& [counter, value] : counters) {
      if (counter == name) return value == 1;
    }
    return false;
  };
  EXPECT_TRUE(has("etlopt.core.analysis_reused"));
  EXPECT_TRUE(has("etlopt.opt.selection_reused"));
  for (const auto& [counter, value] : AnalysisCounters(*first)) {
    EXPECT_EQ(counter.find("reused"), std::string::npos) << counter;
  }
}


// --obs-summary marks a reused analysis in its phases line.
TEST(AnalysisReuseTest, ObsSummaryMarksReusedAnalyzePhase) {
  obs::RunRecord record;
  record.analyze_ms = 1.5;
  record.execute_ms = 2.0;
  EXPECT_NE(FormatObsSummary(record, {}).find(
                "  phases: analyze 1.5 ms, execute 2.0 ms\n"),
            std::string::npos);
  record.AddMetric("etlopt.core.analysis_reused", 1);
  EXPECT_NE(FormatObsSummary(record, {}).find(
                "  phases: analyze 1.5 ms (reused), execute 2.0 ms\n"),
            std::string::npos);
}

}  // namespace
}  // namespace etlopt
