// Thread control block recycling (threads/tcb_pool.h): the pool's two-sided
// release contract, the bound it puts on the blocks a run allocates (the
// live threads, not the threads ever created), and the handle diagnostics
// that must survive recycling — join twice, join after detach, detach twice
// and a stale handle whose block already serves another thread.
#include "threads/tcb_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>

#include "runtime/api.h"

namespace dfth {
namespace {

TEST(TcbPool, LastReleaseOfEitherSideRecyclesTheBlock) {
  TcbPool pool;
  Tcb* a = pool.acquire(1);
  EXPECT_EQ(a->id, 1u);
  EXPECT_EQ(a->refs.load(), Tcb::kHandleRef | Tcb::kExitRef);
  pool.release(a, Tcb::kExitRef);
  Tcb* b = pool.acquire(2);  // a's handle side still holds it
  EXPECT_NE(b, a);
  pool.release(b, Tcb::kHandleRef);
  pool.release(b, Tcb::kExitRef);
  pool.release(a, Tcb::kHandleRef);
  Tcb* c = pool.acquire(3);
  Tcb* d = pool.acquire(4);
  EXPECT_EQ(c, a);  // the free list is LIFO
  EXPECT_EQ(d, b);
  EXPECT_EQ(c->id, 3u);
  EXPECT_EQ(d->id, 4u);
  EXPECT_EQ(pool.allocated(), 2u);
}

TEST(TcbPool, RecycledBlockIsRebuiltFromScratch) {
  TcbPool pool;
  Tcb* a = pool.acquire(1);
  a->joined = true;
  a->finished = true;
  a->dispatches = 5;
  a->held_locks.push_back(&pool);
  a->race_vc.assign(64, 7);
  a->state.store(ThreadState::Done);
  pool.release(a, Tcb::kHandleRef);
  pool.release(a, Tcb::kExitRef);
  Tcb* b = pool.acquire(2);
  ASSERT_EQ(b, a);
  EXPECT_EQ(b->id, 2u);
  EXPECT_FALSE(b->joined);
  EXPECT_FALSE(b->finished);
  EXPECT_EQ(b->dispatches, 0u);
  EXPECT_TRUE(b->held_locks.empty());
  EXPECT_TRUE(b->race_vc.empty());
  EXPECT_EQ(b->state.load(), ThreadState::Embryo);
  EXPECT_EQ(b->refs.load(), Tcb::kHandleRef | Tcb::kExitRef);
}

TEST(TcbPoolDeathTest, ReleasingOneSideTwiceAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        TcbPool pool;
        Tcb* t = pool.acquire(1);
        pool.release(t, Tcb::kHandleRef);
        pool.release(t, Tcb::kHandleRef);
      },
      "released twice");
}

// -- whole runs ----------------------------------------------------------------

RuntimeOptions opts_for(EngineKind engine, int nprocs = 4) {
  RuntimeOptions o;
  o.engine = engine;
  o.sched = SchedKind::AsyncDf;
  o.nprocs = nprocs;
  o.default_stack_size = 8 << 10;
  return o;
}

std::uint64_t leaves(int depth) {
  if (depth == 0) return 1;
  Thread l = spawn([depth]() -> void* {
    return reinterpret_cast<void*>(leaves(depth - 1));
  });
  Thread r = spawn([depth]() -> void* {
    return reinterpret_cast<void*>(leaves(depth - 1));
  });
  return reinterpret_cast<std::uint64_t>(join(l)) +
         reinterpret_cast<std::uint64_t>(join(r));
}

void* noop() { return nullptr; }

class TcbRecycling : public ::testing::TestWithParam<EngineKind> {};

// Each exited-but-unjoined child belongs to a live parent, and Real keeps at
// most one block per worker between a fiber's exit and its final switch.
void expect_blocks_follow_live_threads(const RunStats& s) {
  EXPECT_GT(s.tcbs_allocated, 0u);
  EXPECT_LE(s.tcbs_allocated,
            2 * static_cast<std::uint64_t>(s.max_live_threads) +
                static_cast<std::uint64_t>(s.nprocs))
      << "threads_created=" << s.threads_created
      << " max_live_threads=" << s.max_live_threads;
}

TEST_P(TcbRecycling, ForkTreeAllocatesBlocksForLiveThreadsOnly) {
  constexpr int kDepth = 14;
  std::uint64_t sum = 0;
  const RunStats s = run(opts_for(GetParam()), [&] { sum = leaves(kDepth); });
  EXPECT_EQ(sum, std::uint64_t{1} << kDepth);
  // main is the root: 2^(kDepth+1) - 2 spawned threads plus main.
  EXPECT_EQ(s.threads_created, (std::uint64_t{1} << (kDepth + 1)) - 1);
  expect_blocks_follow_live_threads(s);
}

TEST_P(TcbRecycling, DetachedStormAllocatesBlocksForLiveThreadsOnly) {
  constexpr int kChildren = 1 << 14;
  std::atomic<int> ran{0};
  const RunStats s = run(opts_for(GetParam()), [&] {
    auto body = [&ran]() -> void* {
      ran.fetch_add(1, std::memory_order_relaxed);
      return nullptr;
    };
    for (int i = 0; i < kChildren; ++i) {
      if (i % 2 == 0) {
        Attr attr;
        attr.detached = true;
        spawn(body, attr);
      } else {
        detach(spawn(body));
      }
    }
  });
  EXPECT_EQ(ran.load(), kChildren);
  EXPECT_EQ(s.threads_created, static_cast<std::uint64_t>(kChildren) + 1);
  expect_blocks_follow_live_threads(s);
}

TEST_P(TcbRecycling, HandleIdOutlivesTheBlock) {
  std::uint64_t id = 0;
  std::uint64_t reused_by = 0;
  run(opts_for(GetParam(), 1), [&] {
    Thread t = spawn(noop);
    id = t.id();
    join(t);
    Thread u = spawn(noop);
    reused_by = u.id();
    join(u);
    EXPECT_EQ(t.id(), id);  // stored in the handle, not read from the block
  });
  EXPECT_NE(id, 0u);
  EXPECT_NE(reused_by, id);
}

// p = 1 keeps the Real runs' recycling order deterministic: each child runs
// to its final switch before main resumes.
TEST_P(TcbRecycling, JoinTwiceAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const RuntimeOptions o = opts_for(GetParam(), 1);
  EXPECT_DEATH(run(o,
                   [] {
                     Thread t = spawn(noop);
                     join(t);
                     join(t);
                   }),
               "thread joined twice");
}

TEST_P(TcbRecycling, JoinAfterDetachAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const RuntimeOptions o = opts_for(GetParam(), 1);
  EXPECT_DEATH(run(o,
                   [] {
                     Thread t = spawn(noop);
                     detach(t);
                     join(t);
                   }),
               "joined after detach");
}

TEST_P(TcbRecycling, DetachTwiceAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const RuntimeOptions o = opts_for(GetParam(), 1);
  EXPECT_DEATH(run(o,
                   [] {
                     Thread t = spawn(noop);
                     detach(t);
                     detach(t);
                   }),
               "thread detached twice");
}

TEST_P(TcbRecycling, JoinThroughAHandleWhoseBlockWasReusedAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const RuntimeOptions o = opts_for(GetParam(), 1);
  EXPECT_DEATH(run(o,
                   [] {
                     Thread t = spawn(noop);
                     join(t);
                     Thread u = spawn(noop);  // takes t's recycled block
                     join(t);
                     join(u);
                   }),
               "stale thread handle");
}

INSTANTIATE_TEST_SUITE_P(BothEngines, TcbRecycling,
                         ::testing::Values(EngineKind::Sim, EngineKind::Real),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

}  // namespace
}  // namespace dfth
