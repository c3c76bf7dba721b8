// Analyzer coverage for every acquire variant, on both engines. Each sync
// primitive has one acquire body, parameterised by how it waits; these
// tests pin that every variant still reaches the analyzers through it:
//   * try_lock, try_lock_for, try_rdlock and try_wrlock feed the lock-order
//     graph (an ABBA inversion through each is reported, DFTH_VALIDATE);
//   * a successful try_lock_for, try_acquire, try_acquire_for and a
//     signalled timed_wait each carry the release→acquire edge (a program
//     protected only by that variant reports no race, DFTH_RACE).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <tuple>

#include "analyze/lock_graph.h"
#include "analyze/race_detector.h"
#include "runtime/api.h"
#include "runtime/sync.h"

namespace dfth {
namespace {

constexpr std::uint64_t kLongNs = 10'000'000'000;  // never expires here

RuntimeOptions opts(EngineKind engine) {
  RuntimeOptions o;
  o.engine = engine;
  o.sched = SchedKind::AsyncDf;
  o.nprocs = 2;
  o.default_stack_size = engine == EngineKind::Sim ? (16 << 10) : (64 << 10);
  return o;
}

std::string engine_name(const ::testing::TestParamInfo<EngineKind>& info) {
  return to_string(info.param);
}

// ---------- lock graph: ABBA through each try variant ----------

// Static storage: the captureless fiber lambdas below name them.
Mutex g_partner;
Mutex g_mutex;
RwLock g_rw;

enum class TryVariant { kTryLock, kTryLockFor, kTryRdLock, kTryWrLock };

// Takes the variant's lock, uncontended (the two threads run one after the
// other), so the try must succeed.
void take(TryVariant v) {
  switch (v) {
    case TryVariant::kTryLock: EXPECT_TRUE(g_mutex.try_lock()); break;
    case TryVariant::kTryLockFor: EXPECT_TRUE(g_mutex.try_lock_for(kLongNs)); break;
    case TryVariant::kTryRdLock: EXPECT_TRUE(g_rw.try_rdlock()); break;
    case TryVariant::kTryWrLock: EXPECT_TRUE(g_rw.try_wrlock()); break;
  }
}

void drop(TryVariant v) {
  switch (v) {
    case TryVariant::kTryLock:
    case TryVariant::kTryLockFor: g_mutex.unlock(); break;
    case TryVariant::kTryRdLock: g_rw.rdunlock(); break;
    case TryVariant::kTryWrLock: g_rw.wrunlock(); break;
  }
}

class TryVariantLockGraphTest
    : public ::testing::TestWithParam<std::tuple<EngineKind, TryVariant>> {};

std::string try_case_name(
    const ::testing::TestParamInfo<std::tuple<EngineKind, TryVariant>>& info) {
  static const char* kNames[] = {"try_lock", "try_lock_for", "try_rdlock", "try_wrlock"};
  return std::string(to_string(std::get<0>(info.param))) + "_" +
         kNames[static_cast<int>(std::get<1>(info.param))];
}

TEST_P(TryVariantLockGraphTest, AbbaThroughTheVariantIsReported) {
  if (!analyze::validate_enabled()) {
    GTEST_SKIP() << "lockset hooks need -DDFTH_VALIDATE=ON";
  }
  analyze::LockGraph& g = analyze::LockGraph::instance();
  g.clear();
  g.set_abort_on_cycle(false);
  static TryVariant variant;
  variant = std::get<1>(GetParam());
  run(opts(std::get<0>(GetParam())), [] {
    Thread first = spawn([]() -> void* {
      take(variant);
      g_partner.lock();
      g_partner.unlock();
      drop(variant);
      return nullptr;
    });
    join(first);
    Thread second = spawn([]() -> void* {
      g_partner.lock();
      take(variant);
      drop(variant);
      g_partner.unlock();
      return nullptr;
    });
    join(second);
  });
  EXPECT_GE(g.cycles_detected(), 1u);
  g.clear();
  g.set_abort_on_cycle(true);
}

INSTANTIATE_TEST_SUITE_P(
    BothEngines, TryVariantLockGraphTest,
    ::testing::Combine(::testing::Values(EngineKind::Sim, EngineKind::Real),
                       ::testing::Values(TryVariant::kTryLock, TryVariant::kTryLockFor,
                                         TryVariant::kTryRdLock,
                                         TryVariant::kTryWrLock)),
    try_case_name);

// ---------- race detector: each variant orders its critical sections ----------

class VariantRaceTest : public ::testing::TestWithParam<EngineKind> {
 protected:
  void SetUp() override {
    if (!analyze::race_enabled()) GTEST_SKIP() << "race hooks need -DDFTH_RACE=ON";
    analyze::RaceDetector::instance().clear();
    analyze::RaceDetector::instance().set_abort_on_race(false);
  }
  void TearDown() override {
    analyze::RaceDetector::instance().clear();
    analyze::RaceDetector::instance().set_abort_on_race(true);
  }

  /// Two threads each bump one df_malloc'd cell inside [enter, leave). Both
  /// start before either enters, and the holder yields mid-section, so the
  /// second enter contends and takes the variant's blocking path.
  template <typename Enter, typename Leave>
  std::uint64_t races_bumping_under(Enter enter, Leave leave) {
    std::atomic<int> started{0};
    run(opts(GetParam()), [&] {
      auto* cell = static_cast<double*>(df_malloc(sizeof(double)));
      df_write(cell, sizeof(double), "init");
      *cell = 0.0;
      auto bump = [&, cell]() -> void* {
        started.fetch_add(1);
        while (started.load() < 2) yield();
        enter();
        df_write(cell, sizeof(double), "bump");
        *cell += 1.0;
        yield();
        leave();
        return nullptr;
      };
      Thread a = spawn(bump);
      Thread b = spawn(bump);
      join(a);
      join(b);
      df_read(cell, sizeof(double), "check");
      EXPECT_EQ(*cell, 2.0);
      df_free(cell);
    });
    return analyze::RaceDetector::instance().races_detected();
  }
};

TEST_P(VariantRaceTest, TryLockForOrdersCriticalSections) {
  static Mutex m;
  EXPECT_EQ(races_bumping_under([] { EXPECT_TRUE(m.try_lock_for(kLongNs)); },
                                [] { m.unlock(); }),
            0u);
}

TEST_P(VariantRaceTest, TryAcquireOrdersCriticalSections) {
  static Semaphore s(1);
  EXPECT_EQ(races_bumping_under(
                [] {
                  while (!s.try_acquire()) yield();
                },
                [] { s.release(); }),
            0u);
}

TEST_P(VariantRaceTest, TryAcquireForOrdersCriticalSections) {
  static Semaphore s(1);
  EXPECT_EQ(races_bumping_under([] { EXPECT_TRUE(s.try_acquire_for(kLongNs)); },
                                [] { s.release(); }),
            0u);
}

// The waiter's only edge from the signaler is the signal itself: the
// signaler never touches the mutex, so the waiter's reacquire inherits
// nothing from it. The signaler re-signals until the waiter reports back, so
// a signal sent before the waiter blocked is not lost.
TEST_P(VariantRaceTest, SignalledTimedWaitOrdersSignalerBeforeWaiter) {
  static Mutex m;
  static CondVar cv;
  static std::atomic<bool> waiting;
  static std::atomic<bool> woken;
  waiting = false;
  woken = false;
  run(opts(GetParam()), [] {
    auto* cell = static_cast<double*>(df_malloc(sizeof(double)));
    Thread waiter = spawn([cell]() -> void* {
      m.lock();
      waiting = true;
      EXPECT_TRUE(cv.timed_wait(m, kLongNs));
      woken = true;
      m.unlock();
      df_read(cell, sizeof(double), "waiter:read");
      EXPECT_EQ(*cell, 1.0);
      return nullptr;
    });
    Thread signaler = spawn([cell]() -> void* {
      while (!waiting) yield();
      df_write(cell, sizeof(double), "signaler:write");
      *cell = 1.0;
      while (!woken) {
        cv.signal();
        yield();
      }
      return nullptr;
    });
    join(waiter);
    join(signaler);
    df_free(cell);
  });
  EXPECT_EQ(analyze::RaceDetector::instance().races_detected(), 0u);
}

INSTANTIATE_TEST_SUITE_P(BothEngines, VariantRaceTest,
                         ::testing::Values(EngineKind::Sim, EngineKind::Real),
                         engine_name);

}  // namespace
}  // namespace dfth
