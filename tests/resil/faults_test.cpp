// Unit tests for the deterministic fault injector (src/resil/faults.h):
// the per-site schedules, the counters, and the inline probe the runtime's
// fault sites call, which must not reach the injector while it is disarmed.
#include "resil/faults.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace dfth::resil {
namespace {

/// Re-arms with `plan`, runs `n` evaluations of `site`, returns the
/// failure pattern as a bool vector, and disarms.
std::vector<bool> schedule_of(const FaultPlan& plan, FaultSite site, int n) {
  auto& inj = FaultInjector::instance();
  inj.arm(plan);
  std::vector<bool> fired;
  fired.reserve(n);
  for (int i = 0; i < n; ++i) fired.push_back(inj.should_fail(site));
  inj.disarm();
  return fired;
}

TEST(FaultSiteNames, DottedNamesAreStable) {
  // These names appear in plans, logs, and the flight-recorder dump; CI
  // greps for them, so they are API.
  EXPECT_STREQ(to_string(FaultSite::kStackMmap), "stack.mmap");
  EXPECT_STREQ(to_string(FaultSite::kStackMprotect), "stack.mprotect");
  EXPECT_STREQ(to_string(FaultSite::kHeapAlloc), "heap.alloc");
  EXPECT_STREQ(to_string(FaultSite::kCtxCreate), "ctx.create");
  EXPECT_STREQ(to_string(FaultSite::kWorkerSpawn), "worker.spawn");
  EXPECT_STREQ(to_string(FaultSite::kSyncTimeout), "sync.timeout");
}

TEST(FaultPlan, DefaultPlanIsInert) {
  FaultPlan plan;
  EXPECT_FALSE(plan.enabled());
  for (int i = 0; i < kNumFaultSites; ++i) {
    EXPECT_FALSE(plan.sites[i].enabled());
  }
}

TEST(FaultPlan, UniformHelpersEnableEverySite) {
  const FaultPlan every = FaultPlan::uniform_every(7, 3);
  const FaultPlan prob = FaultPlan::uniform_probability(7, 0.25);
  EXPECT_TRUE(every.enabled());
  EXPECT_TRUE(prob.enabled());
  for (int i = 0; i < kNumFaultSites; ++i) {
    EXPECT_EQ(every.sites[i].every_nth, 3u);
    EXPECT_DOUBLE_EQ(prob.sites[i].probability, 0.25);
  }
}

TEST(FaultInjector, DisarmedNeverFails) {
  auto& inj = FaultInjector::instance();
  inj.disarm();
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(inj.should_fail(FaultSite::kHeapAlloc));
  }
}

TEST(FaultInjector, EveryNthFiresOnExactlyTheNth) {
  FaultPlan plan;
  plan.site(FaultSite::kHeapAlloc).every_nth = 3;
  const std::vector<bool> fired = schedule_of(plan, FaultSite::kHeapAlloc, 9);
  const std::vector<bool> want = {false, false, true, false, false,
                                  true,  false, false, true};
  EXPECT_EQ(fired, want);
}

TEST(FaultInjector, SkipFirstShiftsTheSchedule) {
  FaultPlan plan;
  plan.site(FaultSite::kCtxCreate).every_nth = 2;
  plan.site(FaultSite::kCtxCreate).skip_first = 3;
  // Evaluations 1..3 pass; thereafter every 2nd of the remainder fails.
  const std::vector<bool> fired = schedule_of(plan, FaultSite::kCtxCreate, 8);
  const std::vector<bool> want = {false, false, false, false,
                                  true,  false, true,  false};
  EXPECT_EQ(fired, want);
}

TEST(FaultInjector, MaxFailuresCapsInjection) {
  FaultPlan plan;
  plan.site(FaultSite::kSyncTimeout).every_nth = 1;
  plan.site(FaultSite::kSyncTimeout).max_failures = 2;
  auto& inj = FaultInjector::instance();
  inj.arm(plan);
  EXPECT_TRUE(inj.should_fail(FaultSite::kSyncTimeout));
  EXPECT_TRUE(inj.should_fail(FaultSite::kSyncTimeout));
  EXPECT_FALSE(inj.should_fail(FaultSite::kSyncTimeout));
  EXPECT_FALSE(inj.should_fail(FaultSite::kSyncTimeout));
  EXPECT_EQ(inj.injected(FaultSite::kSyncTimeout), 2u);
  EXPECT_EQ(inj.evaluations(FaultSite::kSyncTimeout), 4u);
  inj.disarm();
}

TEST(FaultInjector, SameSeedSameBernoulliSchedule) {
  FaultPlan plan;
  plan.seed = 0xfee1;
  plan.site(FaultSite::kStackMmap).probability = 0.3;
  const std::vector<bool> a = schedule_of(plan, FaultSite::kStackMmap, 200);
  const std::vector<bool> b = schedule_of(plan, FaultSite::kStackMmap, 200);
  EXPECT_EQ(a, b);
  // A 0.3 Bernoulli over 200 draws fires at least once and misses at least
  // once with probability ~1 - 2e-31; a violation means the stream is broken.
  EXPECT_NE(std::count(a.begin(), a.end(), true), 0);
  EXPECT_NE(std::count(a.begin(), a.end(), true), 200);
}

TEST(FaultInjector, DifferentSeedsDiverge) {
  FaultPlan a = FaultPlan::uniform_probability(1, 0.5);
  FaultPlan b = FaultPlan::uniform_probability(2, 0.5);
  EXPECT_NE(schedule_of(a, FaultSite::kHeapAlloc, 128),
            schedule_of(b, FaultSite::kHeapAlloc, 128));
}

TEST(FaultInjector, SitesDrawFromIndependentStreams) {
  // Probing one site must not perturb another site's draw sequence: run
  // heap.alloc alone, then interleaved with stack.mmap probes, and compare.
  FaultPlan plan = FaultPlan::uniform_probability(0xabcd, 0.4);
  const std::vector<bool> alone = schedule_of(plan, FaultSite::kHeapAlloc, 64);

  auto& inj = FaultInjector::instance();
  inj.arm(plan);
  std::vector<bool> interleaved;
  for (int i = 0; i < 64; ++i) {
    (void)inj.should_fail(FaultSite::kStackMmap);
    interleaved.push_back(inj.should_fail(FaultSite::kHeapAlloc));
  }
  inj.disarm();
  EXPECT_EQ(alone, interleaved);
}

TEST(FaultInjector, ArmResetsCountersDisarmPreservesThem) {
  auto& inj = FaultInjector::instance();
  FaultPlan plan;
  plan.site(FaultSite::kWorkerSpawn).every_nth = 1;
  inj.arm(plan);
  ASSERT_TRUE(inj.armed());
  EXPECT_TRUE(inj.should_fail(FaultSite::kWorkerSpawn));
  inj.on_recovered(FaultSite::kWorkerSpawn);
  inj.disarm();
  EXPECT_FALSE(inj.armed());
  // Counters survive disarm so a finished run's schedule is inspectable...
  EXPECT_EQ(inj.evaluations(FaultSite::kWorkerSpawn), 1u);
  EXPECT_EQ(inj.injected(FaultSite::kWorkerSpawn), 1u);
  EXPECT_EQ(inj.recovered(FaultSite::kWorkerSpawn), 1u);
  EXPECT_EQ(inj.injected_total(), 1u);
  EXPECT_EQ(inj.recovered_total(), 1u);
  // ...and the next arm starts from zero.
  inj.arm(plan);
  EXPECT_EQ(inj.evaluations_total(), 0u);
  EXPECT_EQ(inj.injected_total(), 0u);
  EXPECT_EQ(inj.recovered_total(), 0u);
  inj.disarm();
}

TEST(FaultInjector, SummaryNamesEverySite) {
  auto& inj = FaultInjector::instance();
  inj.arm(FaultPlan::uniform_every(1, 1));
  (void)inj.should_fail(FaultSite::kHeapAlloc);
  inj.disarm();
  std::string out;
  inj.append_summary(&out);
  for (int i = 0; i < kNumFaultSites; ++i) {
    EXPECT_NE(out.find(to_string(static_cast<FaultSite>(i))), std::string::npos)
        << out;
  }
  EXPECT_NE(out.find("injected=1"), std::string::npos) << out;
}

TEST(FaultProbe, DisarmedProbeNeverReachesTheInjector) {
  auto& inj = FaultInjector::instance();
  // Arming zeroes the counters and leaves a plan that fails every
  // evaluation of every site; disarming must make the probe ignore it.
  inj.arm(FaultPlan::uniform_every(1, 1));
  inj.disarm();
  for (int i = 0; i < kNumFaultSites; ++i) {
    EXPECT_FALSE(should_fail(static_cast<FaultSite>(i)));
  }
  EXPECT_EQ(inj.evaluations_total(), 0u);
  EXPECT_EQ(inj.injected_total(), 0u);
}

}  // namespace
}  // namespace dfth::resil
