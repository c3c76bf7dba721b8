// Work/span profiler tests against analytically known DAGs, the exact
// SimEngine busy invariant (work + overhead == p * elapsed - idle), the
// Brent prediction bracket on a real app, and the exactness guarantees of
// the attribution outputs (critical-path segments sum to the span,
// collapsed stacks sum to the work).
#include "obs/profile.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "apps/matmul/matmul.h"
#include "runtime/api.h"

namespace dfth {
namespace {

RuntimeOptions prof_opts(obs::Profiler* prof, int nprocs,
                         EngineKind engine = EngineKind::Sim,
                         SchedKind sched = SchedKind::AsyncDf) {
  RuntimeOptions o;
  o.engine = engine;
  o.sched = sched;
  o.nprocs = nprocs;
  o.default_stack_size = engine == EngineKind::Sim ? (8 << 10) : (64 << 10);
  o.profiler = prof;
  return o;
}

/// A chain: each node does `ops` work units (100 ops = 1 us of model
/// time), then spawns and immediately joins the next — the DAG is one
/// dependency chain, so parallelism is 1.
void serial_chain(int depth, std::uint64_t ops) {
  annotate_work(ops);
  if (depth <= 1) return;
  join(spawn([depth, ops]() -> void* {
    serial_chain(depth - 1, ops);
    return nullptr;
  }));
}

/// A balanced binary fork tree of 2^depth - 1 nodes, `ops` work units each:
/// work is (2^depth - 1) * w, span is depth * w, parallelism ~ n / log2(n).
void fork_tree(int depth, std::uint64_t ops) {
  annotate_work(ops);
  if (depth <= 1) return;
  auto left = spawn([depth, ops]() -> void* {
    fork_tree(depth - 1, ops);
    return nullptr;
  });
  auto right = spawn([depth, ops]() -> void* {
    fork_tree(depth - 1, ops);
    return nullptr;
  });
  join(left);
  join(right);
}

TEST(ProfileTest, SingleFiberWorkEqualsSpan) {
  obs::Profiler prof;
  run(prof_opts(&prof, 1), [] { annotate_work(500); });
  const ProfileStats& p = prof.stats();
  EXPECT_TRUE(p.enabled);
  // One fiber means one chain: every charge is on the critical path.
  EXPECT_EQ(p.work_ns, p.span_ns);
  EXPECT_GT(p.span_ns, 0u);
  EXPECT_GE(p.burdened_span_ns, p.span_ns);
  EXPECT_EQ(p.fibers, 1u);
}

TEST(ProfileTest, SerialChainParallelismIsOne) {
  obs::Profiler prof;
  run(prof_opts(&prof, 4), [] { serial_chain(64, 100000); });
  const ProfileStats& p = prof.stats();
  EXPECT_EQ(p.fibers, 64u);
  EXPECT_GE(p.work_ns, p.span_ns);
  // The DAG is a single dependency chain. The only off-span work is the
  // joiners' post-join bookkeeping (a few us per link, concurrent with the
  // child under AsyncDf's dive) — a sliver of the 1ms node bodies.
  EXPECT_NEAR(p.parallelism(), 1.0, 0.05);
}

TEST(ProfileTest, ForkTreeParallelismMatchesAnalytic) {
  constexpr int kDepth = 7;
  obs::Profiler prof;
  run(prof_opts(&prof, 4), [] { fork_tree(kDepth, 30000); });
  const ProfileStats& p = prof.stats();
  EXPECT_EQ(p.fibers, (1u << kDepth) - 1);
  // n/log2(n) for the balanced tree: (2^d - 1) * w work, d * w span. The
  // 15% slack absorbs the fork/join charges around each 300us body.
  const double analytic =
      static_cast<double>((1 << kDepth) - 1) / static_cast<double>(kDepth);
  EXPECT_NEAR(p.parallelism(), analytic, 0.15 * analytic);
}

TEST(ProfileTest, SimBusyInvariantIsExact) {
  for (int nprocs : {1, 4}) {
    obs::Profiler prof;
    const RunStats stats =
        run(prof_opts(&prof, nprocs), [] { fork_tree(6, 100); });
    const ProfileStats& p = prof.stats();
    // Every non-idle lane nanosecond is either a fiber charge (work) or a
    // lane-side scheduler span (overhead): p * elapsed == busy + idle.
    const double busy_us =
        static_cast<double>(p.work_ns + p.overhead_ns) / 1000.0;
    const double lane_us = nprocs * stats.elapsed_us - stats.breakdown.idle_us;
    // Tolerance covers only the ns -> us double rounding in the breakdown.
    EXPECT_NEAR(busy_us, lane_us, 1.0 + 1e-6 * lane_us) << "p=" << nprocs;
  }
}

TEST(ProfileTest, MatmulMeasuredFallsBetweenPredictions) {
  apps::MatmulConfig cfg;
  cfg.n = 128;
  cfg.base = 32;
  std::vector<double> a(cfg.n * cfg.n), b(cfg.n * cfg.n), c(cfg.n * cfg.n);
  apps::matmul_fill(a.data(), cfg.n, 1);
  apps::matmul_fill(b.data(), cfg.n, 2);
  for (int p : {1, 4, 8}) {
    obs::Profiler prof;
    const RunStats stats = run(prof_opts(&prof, p), [&] {
      apps::matmul_threaded(a.data(), b.data(), c.data(), cfg);
    });
    const ProfileStats& ps = prof.stats();
    const double measured_ns = stats.elapsed_us * 1000.0;
    // The greedy lower bound and the burdened Brent upper bound bracket
    // what the simulator actually measured.
    EXPECT_LE(ps.predict_lo_ns(p), measured_ns * (1 + 1e-9)) << "p=" << p;
    EXPECT_GE(ps.predict_hi_ns(p), measured_ns * (1 - 1e-9)) << "p=" << p;
  }
}

TEST(ProfileTest, CriticalPathSegmentsSumToSpanExactly) {
  obs::Profiler prof;
  run(prof_opts(&prof, 4), [] { fork_tree(6, 150); });
  const std::vector<obs::CritSegment> crit = prof.critical_path();
  ASSERT_FALSE(crit.empty());
  std::uint64_t sum = 0;
  for (const obs::CritSegment& seg : crit) {
    EXPECT_FALSE(seg.stack.empty());
    sum += seg.ns;
  }
  EXPECT_EQ(sum, prof.stats().span_ns);
}

TEST(ProfileTest, CollapsedStacksSumToWorkExactly) {
  obs::Profiler prof;
  run(prof_opts(&prof, 4), [] { fork_tree(6, 150); });
  const std::vector<obs::CollapsedLine> lines = prof.collapsed();
  ASSERT_FALSE(lines.empty());
  std::uint64_t sum = 0;
  for (const obs::CollapsedLine& line : lines) {
    EXPECT_FALSE(line.stack.empty());
    // Folded format: semicolon-joined frames, rooted at "main".
    EXPECT_EQ(line.stack.rfind("main", 0), 0u) << line.stack;
    sum += line.work_ns;
  }
  EXPECT_EQ(sum, prof.stats().work_ns);
}

TEST(ProfileTest, ProfilerDoesNotChangeSimResults) {
  auto stats_for = [](obs::Profiler* prof) {
    return run(prof_opts(prof, 4), [] { fork_tree(6, 100); });
  };
  obs::Profiler prof;
  const RunStats profiled = stats_for(&prof);
  const RunStats plain = stats_for(nullptr);
  // Profiling is observation only: virtual time and aggregates match.
  EXPECT_EQ(profiled.elapsed_us, plain.elapsed_us);
  EXPECT_EQ(profiled.threads_created, plain.threads_created);
  EXPECT_EQ(profiled.dispatches, plain.dispatches);
  EXPECT_EQ(profiled.heap_peak, plain.heap_peak);
}

TEST(ProfileTest, ProfilerIsReusableAcrossRuns) {
  obs::Profiler prof;
  run(prof_opts(&prof, 2), [] { fork_tree(5, 100); });
  const std::uint64_t first_work = prof.stats().work_ns;
  run(prof_opts(&prof, 2), [] { fork_tree(5, 100); });
  // begin_run clears the previous session instead of accumulating into it.
  EXPECT_EQ(prof.stats().work_ns, first_work);
}

TEST(ProfileTest, RealEngineProfileIsPlausible) {
  obs::Profiler prof;
  const RunStats stats = run(prof_opts(&prof, 2, EngineKind::Real),
                             [] { fork_tree(6, 0); });
  const ProfileStats& p = prof.stats();
  EXPECT_TRUE(p.enabled);
  EXPECT_EQ(p.fibers, stats.threads_created);
  // Steady-clock charges across kernel threads: no exact identities, but
  // the ordering invariants must still hold.
  EXPECT_GT(p.span_ns, 0u);
  EXPECT_GE(p.work_ns, p.span_ns);
  EXPECT_GE(p.burdened_span_ns, p.span_ns);
}

TEST(ProfileTest, StatsMergedIntoRunStats) {
  obs::Profiler prof;
  const RunStats stats = run(prof_opts(&prof, 2), [] { fork_tree(4, 100); });
  EXPECT_TRUE(stats.profile.enabled);
  EXPECT_EQ(stats.profile.work_ns, prof.stats().work_ns);
  EXPECT_EQ(stats.profile.span_ns, prof.stats().span_ns);
  // Without a profiler the embedded struct stays disabled and zeroed.
  const RunStats bare = run(prof_opts(nullptr, 2), [] { fork_tree(4, 100); });
  EXPECT_FALSE(bare.profile.enabled);
  EXPECT_EQ(bare.profile.work_ns, 0u);
}

}  // namespace
}  // namespace dfth
