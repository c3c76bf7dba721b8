#include "space/stack_pool.h"

#include <gtest/gtest.h>

#include <csetjmp>
#include <csignal>
#include <cstdint>
#include <cstring>

#include "resil/faults.h"

namespace dfth {
namespace {

TEST(StackPool, AcquireGivesWritableRegion) {
  auto& pool = StackPool::instance();
  Stack s = pool.acquire(32 << 10);
  ASSERT_TRUE(s);
  EXPECT_GE(s.size, 32u << 10);
  // Entire usable region is writable.
  std::memset(s.base, 0x5A, s.size);
  pool.release(s);
}

TEST(StackPool, ReusesSameSizeClass) {
  auto& pool = StackPool::instance();
  pool.begin_epoch();
  Stack a = pool.acquire(64 << 10);
  void* base = a.base;
  pool.release(a);
  Stack b = pool.acquire(64 << 10);
  EXPECT_EQ(b.base, base);
  EXPECT_FALSE(b.fresh);
  EXPECT_EQ(pool.reuse_count(), 1u);
  pool.release(b);
}

TEST(StackPool, DifferentSizesDoNotMix) {
  auto& pool = StackPool::instance();
  pool.trim();
  Stack a = pool.acquire(16 << 10);
  pool.release(a);
  Stack b = pool.acquire(32 << 10);
  EXPECT_TRUE(b.fresh);
  pool.release(b);
  pool.trim();
}

TEST(StackPool, LivePeakAccounting) {
  auto& pool = StackPool::instance();
  pool.trim();
  pool.begin_epoch();
  const auto base_live = pool.live_bytes();
  Stack a = pool.acquire(16 << 10);
  Stack b = pool.acquire(16 << 10);
  EXPECT_EQ(pool.live_bytes(), base_live + 2 * (16 << 10));
  pool.release(a);
  EXPECT_EQ(pool.live_bytes(), base_live + (16 << 10));
  EXPECT_GE(pool.peak_bytes(), base_live + 2 * (16 << 10));
  pool.release(b);
}

TEST(StackPool, SizeRoundsToPages) {
  auto& pool = StackPool::instance();
  Stack s = pool.acquire(1);  // sub-page request
  EXPECT_GE(s.size, 4096u);
  EXPECT_EQ(s.size % 4096, 0u);
  pool.release(s);
}

TEST(StackPool, TopIsOnePastTheUsableRegion) {
  // Regression: top() used to mix the guard page into its arithmetic and
  // point below the true stack top, silently wasting usable bytes and (for
  // downward-growing fibers) seeding the context one page short. It is
  // defined as exactly base + size.
  auto& pool = StackPool::instance();
  Stack s = pool.acquire(16 << 10);
  ASSERT_TRUE(s);
  EXPECT_EQ(s.top(), static_cast<char*>(s.base) + s.size);
  // The highest usable bytes really are usable: a fiber's first frame lands
  // right below top().
  auto* word = reinterpret_cast<std::uint64_t*>(static_cast<char*>(s.top()) - 8);
  *word = 0xfeedfacecafebeefull;
  EXPECT_EQ(*word, 0xfeedfacecafebeefull);
  pool.release(s);
}

TEST(StackPool, HeapFallbackWhenMappingIsFailed) {
  auto& pool = StackPool::instance();
  pool.trim();  // empty the cache so acquire must reach the mmap site
  resil::FaultPlan plan;
  plan.site(resil::FaultSite::kStackMmap).probability = 1.0;
  resil::FaultInjector::instance().arm(plan);
  Stack s = pool.acquire(20 << 10);
  resil::FaultInjector::instance().disarm();
  // Every mapping attempt "failed", so the pool degraded to a guard-less
  // heap-backed stack — still fully usable.
  ASSERT_TRUE(s);
  EXPECT_TRUE(s.heap);
  EXPECT_GE(s.size, 20u << 10);
  std::memset(s.base, 0x5A, s.size);
  EXPECT_EQ(s.top(), static_cast<char*>(s.base) + s.size);
  pool.release(s);  // freed immediately, not cached
  Stack again = pool.acquire(20 << 10);
  EXPECT_FALSE(again.heap);  // injector disarmed: mmap works again
  EXPECT_TRUE(again.fresh);  // and the heap stack was not in the cache
  pool.release(again);
  pool.trim();
}

TEST(StackPoolDeathTest, GuardPageCatchesOverflow) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        auto& pool = StackPool::instance();
        Stack s = pool.acquire(8 << 10);
        // Write below the usable region — into the PROT_NONE guard page.
        static_cast<char*>(s.base)[-1] = 1;
      },
      "");
}

}  // namespace
}  // namespace dfth
