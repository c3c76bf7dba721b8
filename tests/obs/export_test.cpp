// Exporter tests: the Chrome trace is well-formed line-oriented JSON with
// one metadata lane per worker, the CSV carries the sampled curves, the
// stats blob embeds every Breakdown category plus histogram percentiles,
// exports stay well-formed when the rings overflowed (and say how much was
// dropped), and the profiler report round-trips through write_profile_json.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/export.h"
#include "obs/trace.h"
#include "runtime/api.h"

namespace dfth {
namespace {

void fork_tree(int depth) {
  annotate_work(20);
  if (depth <= 1) return;
  auto left = spawn([depth]() -> void* {
    fork_tree(depth - 1);
    return nullptr;
  });
  join(left);
}

struct TracedRun {
  obs::Tracer tracer;
  RunStats stats;

  TracedRun() {
    RuntimeOptions o;
    o.engine = EngineKind::Sim;
    o.sched = SchedKind::AsyncDf;
    o.nprocs = 2;
    o.default_stack_size = 8 << 10;
    o.tracer = &tracer;
    stats = run(o, [] { fork_tree(6); });
  }
};

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::size_t count_lines_with(const std::string& text, const std::string& pat) {
  std::size_t n = 0;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.find(pat) != std::string::npos) ++n;
  }
  return n;
}

class ExportTest : public ::testing::Test {
 protected:
  std::string path(const char* suffix) {
    return ::testing::TempDir() + "dfth_export_" + suffix;
  }
};

TEST_F(ExportTest, BreakdownJsonListsEveryCategory) {
  Breakdown bd;
  bd.work_us = 1;
  bd.idle_us = 2;
  const std::string json = obs::to_json(bd);
  for (int c = 0; c < Breakdown::kNumCategories; ++c) {
    const std::string key =
        std::string("\"") + Breakdown::category_name(c) + "_us\"";
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  EXPECT_NE(json.find("\"total_us\""), std::string::npos);
}

TEST_F(ExportTest, RunStatsJsonCarriesTheHeadlineFields) {
  TracedRun r;
  const std::string json = obs::to_json(r.stats);
  EXPECT_NE(json.find("\"engine\""), std::string::npos);
  EXPECT_NE(json.find("\"scheduler\""), std::string::npos);
  EXPECT_NE(json.find("\"heap_peak\""), std::string::npos);
  EXPECT_NE(json.find("\"max_live_threads\""), std::string::npos);
  EXPECT_NE(json.find("\"breakdown\""), std::string::npos);
}

TEST_F(ExportTest, ChromeTraceHasOneLanePerWorkerAndBalancedJson) {
  TracedRun r;
  const std::string file = path("trace.json");
  ASSERT_TRUE(obs::write_chrome_trace(r.tracer, r.stats, file));
  const std::string text = slurp(file);
  std::remove(file.c_str());

  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  // One thread_name metadata record per lane.
  EXPECT_EQ(count_lines_with(text, "thread_name"),
            static_cast<std::size_t>(r.tracer.lanes()));
  EXPECT_GT(count_lines_with(text, "\"ph\": \"X\""), 0u);  // dispatch slices
  EXPECT_GT(count_lines_with(text, "\"ph\": \"C\""), 0u);  // counter tracks

  // Structurally balanced: Perfetto's parser needs matching brackets.
  long depth = 0;
  for (char c : text) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST_F(ExportTest, TimeseriesCsvHasHeaderAndOneRowPerSample) {
  TracedRun r;
  const std::string file = path("series.csv");
  ASSERT_TRUE(obs::write_timeseries_csv(r.tracer, file));
  const std::string text = slurp(file);
  std::remove(file.c_str());

  EXPECT_EQ(text.rfind("ts_us,live_threads,heap_bytes,stack_bytes,ready", 0), 0u);
  EXPECT_EQ(count_lines_with(text, ","),
            r.tracer.samples().size() + 1);  // header + rows
}

TEST_F(ExportTest, StatsJsonEmbedsCountersAndWorksWithoutTracer) {
  TracedRun r;
  const std::string with_tracer = path("stats1.json");
  const std::string without = path("stats2.json");
  ASSERT_TRUE(obs::write_stats_json(r.stats, &r.tracer, with_tracer));
  ASSERT_TRUE(obs::write_stats_json(r.stats, nullptr, without));
  const std::string full = slurp(with_tracer);
  const std::string bare = slurp(without);
  std::remove(with_tracer.c_str());
  std::remove(without.c_str());

  EXPECT_NE(full.find("\"counters\""), std::string::npos);
  EXPECT_NE(full.find("\"trace\""), std::string::npos);
  EXPECT_NE(full.find("\"histograms\""), std::string::npos);
  EXPECT_NE(full.find("\"p99_ns\""), std::string::npos);
  EXPECT_NE(bare.find("\"stats\""), std::string::npos);
  EXPECT_EQ(bare.find("\"trace\""), std::string::npos);
}

TEST_F(ExportTest, RunStatsJsonEmbedsProfileSection) {
  TracedRun r;
  const std::string json = obs::to_json(r.stats);
  EXPECT_NE(json.find("\"profile\""), std::string::npos);
  EXPECT_NE(json.find("\"work_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"span_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"parallelism\""), std::string::npos);
}

// -- ring overflow: exports stay well-formed and admit the loss ------------

struct OverflowRun {
  obs::Tracer tracer;
  RunStats stats;

  OverflowRun() : tracer(small_rings()) {
    RuntimeOptions o;
    o.engine = EngineKind::Sim;
    o.sched = SchedKind::AsyncDf;
    o.nprocs = 2;
    o.default_stack_size = 8 << 10;
    o.tracer = &tracer;
    stats = run(o, [] { fork_tree(48); });
  }

  static obs::TraceConfig small_rings() {
    obs::TraceConfig cfg;
    cfg.ring_capacity = 16;  // a depth-48 chain overflows this immediately
    return cfg;
  }
};

TEST_F(ExportTest, OverflowedChromeTraceStaysBalancedAndReportsDrops) {
  OverflowRun r;
  ASSERT_GT(r.tracer.dropped(), 0u);

  const std::string file = path("overflow_trace.json");
  ASSERT_TRUE(obs::write_chrome_trace(r.tracer, r.stats, file));
  const std::string text = slurp(file);
  std::remove(file.c_str());

  // The drop marker names the exact loss, so the file is never mistaken
  // for a complete trace.
  const std::string marker = "\"dropped\": " + std::to_string(r.tracer.dropped());
  EXPECT_NE(text.find("dfth_dropped"), std::string::npos);
  EXPECT_NE(text.find(marker), std::string::npos);

  // Truncated input, still well-formed output.
  long depth = 0;
  for (char c : text) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST_F(ExportTest, OverflowedCsvAndStatsJsonStayWellFormed) {
  OverflowRun r;
  ASSERT_GT(r.tracer.dropped(), 0u);

  const std::string csv = path("overflow.csv");
  ASSERT_TRUE(obs::write_timeseries_csv(r.tracer, csv));
  const std::string csv_text = slurp(csv);
  std::remove(csv.c_str());
  EXPECT_EQ(csv_text.rfind("ts_us,", 0), 0u);
  EXPECT_EQ(count_lines_with(csv_text, ","), r.tracer.samples().size() + 1);

  const std::string json = path("overflow_stats.json");
  ASSERT_TRUE(obs::write_stats_json(r.stats, &r.tracer, json));
  const std::string json_text = slurp(json);
  std::remove(json.c_str());
  const std::string marker =
      "\"dropped\": " + std::to_string(r.tracer.dropped());
  EXPECT_NE(json_text.find(marker), std::string::npos);
  long depth = 0;
  for (char c : json_text) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

// -- profiler report ---------------------------------------------------------

TEST_F(ExportTest, ProfileJsonCarriesSweepAndAttribution) {
  obs::Profiler prof;
  RuntimeOptions o;
  o.engine = EngineKind::Sim;
  o.sched = SchedKind::AsyncDf;
  o.nprocs = 2;
  o.default_stack_size = 8 << 10;
  o.profiler = &prof;
  const RunStats stats = run(o, [] { fork_tree(6); });

  std::vector<obs::ProfSweepRow> sweep;
  for (int p : {1, 2, 4}) {
    obs::ProfSweepRow row;
    row.p = p;
    row.predicted_lo_us = stats.profile.predict_lo_ns(p) / 1000.0;
    row.predicted_hi_us = stats.profile.predict_hi_ns(p) / 1000.0;
    if (p == o.nprocs) row.measured_us = stats.elapsed_us;
    sweep.push_back(row);
  }

  const std::string file = path("profile.json");
  ASSERT_TRUE(obs::write_profile_json("fork_tree", stats, &prof, sweep, file));
  const std::string text = slurp(file);
  std::remove(file.c_str());

  EXPECT_NE(text.find("\"label\": \"fork_tree\""), std::string::npos);
  EXPECT_NE(text.find("\"sweep\""), std::string::npos);
  EXPECT_EQ(count_lines_with(text, "{\"p\": "), sweep.size());
  EXPECT_NE(text.find("\"critical_path\""), std::string::npos);
  EXPECT_NE(text.find("\"collapsed\""), std::string::npos);
  EXPECT_GT(count_lines_with(text, "{\"stack\": "), 0u);
  long depth = 0;
  for (char c : text) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

}  // namespace
}  // namespace dfth
