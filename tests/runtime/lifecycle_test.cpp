// The thread-lifecycle rules both engines share (runtime/engine.h): the
// deadline rule fires a cancel token at dispatch and counts it, and an
// allocation no host could ever meet fails at once, before the dummy-thread
// tree and the OOM-recovery rounds.
#include "runtime/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>

#include "runtime/api.h"
#include "space/tracked_heap.h"

namespace dfth {
namespace {

class EngineLifecycle : public ::testing::TestWithParam<EngineKind> {
 protected:
  RuntimeOptions opts() const {
    RuntimeOptions o;
    o.engine = GetParam();
    o.sched = SchedKind::AsyncDf;
    o.nprocs = 4;
    o.default_stack_size = 8 << 10;
    return o;
  }
};

std::string engine_name(const ::testing::TestParamInfo<EngineKind>& info) {
  return to_string(info.param);
}

// Each of kTokens children runs under its own token whose deadline passed
// before the spawn, and spawns a grandchild that inherits it. The token
// fires at the child's first dispatch; later dispatches under it see it
// already cancelled and do not count again.
TEST_P(EngineLifecycle, ExpiredDeadlineCancelsAtDispatchAndCounts) {
  constexpr int kTokens = 4;
  std::atomic<int> saw_cancel{0};
  const RunStats stats = run(opts(), [&] {
    CancelToken tokens[kTokens];
    Thread children[kTokens];
    for (int i = 0; i < kTokens; ++i) {
      tokens[i].deadline_ns = std::max<std::uint64_t>(now_ns(), 1);
      Attr attr;
      attr.cancel = &tokens[i];
      children[i] = spawn(
          [&saw_cancel]() -> void* {
            if (cancel_requested()) saw_cancel.fetch_add(1);
            Thread grandchild = spawn([&saw_cancel]() -> void* {
              if (cancel_requested()) saw_cancel.fetch_add(1);
              return nullptr;
            });
            join(grandchild);
            return nullptr;
          },
          attr);
    }
    for (Thread& t : children) join(t);
    for (const CancelToken& t : tokens) EXPECT_TRUE(t.is_cancelled());
  });
  EXPECT_EQ(saw_cancel.load(), 2 * kTokens);
  if (GetParam() == EngineKind::Sim) {
    EXPECT_EQ(stats.deadline_expirations, static_cast<std::uint64_t>(kTokens));
  } else {
    EXPECT_GE(stats.deadline_expirations, 1u);
    EXPECT_LE(stats.deadline_expirations, static_cast<std::uint64_t>(kTokens));
  }
}

// A request above physical memory leaves no trace: no dummy threads, no OOM
// rounds, K unchanged. K is huge so that even a runtime that did fork the
// dummies and retry would finish: 2^50 bytes at K = 2^40 is 1024 dummies.
TEST_P(EngineLifecycle, ImpossibleAllocationFailsBeforeDummiesAndRecovery) {
  constexpr std::size_t kQuota = std::size_t{1} << 40;
  constexpr std::size_t kRequest = std::size_t{1} << 50;
  ASSERT_GT(kRequest, TrackedHeap::max_request_bytes());
  RuntimeOptions o = opts();
  o.mem_quota = kQuota;
  DfStatus status = DfStatus::kOk;
  std::size_t quota_after = 0;
  const RunStats stats = run(o, [&] {
    EXPECT_EQ(df_try_malloc(kRequest, &status), nullptr);
    quota_after = engine()->quota_bytes();
  });
  EXPECT_EQ(status, DfStatus::kNoMem);
  EXPECT_EQ(stats.dummy_threads, 0u);
  EXPECT_EQ(stats.oom_preemptions, 0u);
  EXPECT_EQ(quota_after, kQuota);
}

INSTANTIATE_TEST_SUITE_P(BothEngines, EngineLifecycle,
                         ::testing::Values(EngineKind::Sim, EngineKind::Real),
                         engine_name);

}  // namespace
}  // namespace dfth
