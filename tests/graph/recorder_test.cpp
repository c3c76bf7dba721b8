// Computation-graph recording + work/span analysis.
#include <gtest/gtest.h>

#include <algorithm>

#include "graph/analysis.h"
#include "graph/recorder.h"
#include "runtime/api.h"

namespace dfth {
namespace {

RuntimeOptions rec_opts(Recorder* rec, int nprocs = 2) {
  RuntimeOptions o;
  o.engine = EngineKind::Sim;
  o.sched = SchedKind::AsyncDf;
  o.nprocs = nprocs;
  o.recorder = rec;
  return o;
}

TEST(Recorder, SingleThreadSingleSegment) {
  Recorder rec;
  detail::set_recorder(&rec);
  rec.on_thread_start(1, 0);
  rec.on_work(1, 500);
  rec.on_work(1, 250);
  detail::set_recorder(nullptr);
  Graph g = rec.take();
  ASSERT_EQ(g.segments.size(), 1u);
  EXPECT_EQ(g.segments[0].ops, 750u);
  EXPECT_TRUE(g.edges.empty());
}

TEST(Recorder, ForkSplitsParentSegment) {
  Recorder rec;
  rec.on_thread_start(1, 0);
  rec.on_work(1, 100);
  rec.on_thread_start(2, 1);  // thread 1 forks thread 2
  rec.on_work(1, 10);
  rec.on_work(2, 200);
  rec.on_join(2, 1);
  rec.on_work(1, 30);
  Graph g = rec.take();
  // Segments: t1-a (100), t1-b (10), t2 (200), t1-c (30).
  ASSERT_EQ(g.segments.size(), 4u);
  GraphSummary s = analyze(g);
  EXPECT_EQ(s.total_ops, 340u);
  EXPECT_EQ(s.thread_count, 2u);
  // Critical path: t1-a -> t2 -> t1-c = 100+200+30.
  EXPECT_EQ(s.span_ops, 330u);
  EXPECT_EQ(s.serial_live_depth, 2u);
}

TEST(Recorder, EndToEndThroughRuntime) {
  Recorder rec;
  run(rec_opts(&rec), [] {
    annotate_work(100);
    auto a = spawn([]() -> void* {
      annotate_work(400);
      return nullptr;
    });
    auto b = spawn([]() -> void* {
      annotate_work(300);
      return nullptr;
    });
    join(a);
    join(b);
    annotate_work(50);
  });
  Graph g = rec.take();
  const GraphSummary summary = analyze(g);
  EXPECT_EQ(summary.total_ops, 850u);
  EXPECT_EQ(summary.thread_count, 3u);
  // Span: 100 -> max(400, 300) -> 50.
  EXPECT_EQ(summary.span_ops, 550u);
  EXPECT_NEAR(summary.avg_parallelism, 850.0 / 550.0, 1e-9);
}

TEST(Recorder, AllocationAccounting) {
  Recorder rec;
  rec.on_thread_start(1, 0);
  rec.on_alloc(1, 4096);
  rec.on_alloc(1, -1024);
  Graph g = rec.take();
  ASSERT_EQ(g.segments.size(), 1u);
  EXPECT_EQ(g.segments[0].alloc_bytes, 3072);
}

TEST(Recorder, DeepForkChainDepth) {
  Recorder rec;
  rec.on_thread_start(1, 0);
  for (std::uint64_t t = 2; t <= 6; ++t) rec.on_thread_start(t, t - 1);
  Graph g = rec.take();
  GraphSummary s = analyze(g);
  EXPECT_EQ(s.serial_live_depth, 6u);
}

// Main is never started through on_thread_start: a main that forks before
// any annotate_work/df_malloc must still give its child a Fork edge.
class RootForkTest : public ::testing::TestWithParam<EngineKind> {};

TEST_P(RootForkTest, FirstChildOfUnannotatedMainGetsForkEdge) {
  Recorder rec;
  RuntimeOptions o = rec_opts(&rec);
  o.engine = GetParam();
  run(o, [] { join(spawn([]() -> void* { annotate_work(5); return nullptr; })); });
  const Graph g = rec.take();
  EXPECT_EQ(std::count_if(g.edges.begin(), g.edges.end(),
                          [](const GraphEdge& e) { return e.kind == EdgeKind::Fork; }),
            1);
}

INSTANTIATE_TEST_SUITE_P(Engines, RootForkTest,
                         ::testing::Values(EngineKind::Sim, EngineKind::Real),
                         [](const auto& info) { return std::string(to_string(info.param)); });

TEST(Analysis, DotOutputContainsAllSegments) {
  Recorder rec;
  rec.on_thread_start(1, 0);
  rec.on_thread_start(2, 1);
  rec.on_join(2, 1);
  Graph g = rec.take();
  const std::string dot = to_dot(g);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("dashed"), std::string::npos);  // the join edge
  for (std::size_t i = 0; i < g.segments.size(); ++i) {
    EXPECT_NE(dot.find("s" + std::to_string(i)), std::string::npos);
  }
}

TEST(Analysis, EmptyGraph) {
  Graph g;
  GraphSummary s = analyze(g);
  EXPECT_EQ(s.total_ops, 0u);
  EXPECT_EQ(s.segment_count, 0u);
}

}  // namespace
}  // namespace dfth
