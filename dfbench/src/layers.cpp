// Micro-probes: the benchmark's own calls into single layers, timed with
// the steady clock. Each probe reports the median of several repetitions.
#include <memory>
#include <vector>

#include "common.h"
#include "core/order_list.h"
#include "core/scheduler.h"
#include "space/stack_pool.h"
#include "threads/context.h"

namespace dfbench {
namespace {

using namespace dfth;

constexpr int kReps = 9;

/// Median over kReps of (elapsed ns of `body` / ops).
template <typename Body>
double ns_per_op(double ops, Body body) {
  std::vector<double> v;
  for (int r = 0; r < kReps; ++r) {
    const std::uint64_t t0 = mono_ns();
    body();
    v.push_back(static_cast<double>(mono_ns() - t0) / ops);
  }
  return median(v);
}

struct PingPong {
  Context main_ctx;
  Context fiber_ctx;
};

[[noreturn]] void pingpong_entry(void* arg) {
  auto* pp = static_cast<PingPong*>(arg);
  for (;;) context_switch(&pp->fiber_ctx, &pp->main_ctx);
}

double ctx_switch_ns() {
  constexpr int kRounds = 100000;
  StackPool& pool = StackPool::instance();
  Stack stack = pool.acquire(kStackBytes);
  PingPong pp;
  context_make(&pp.fiber_ctx, stack.base, stack.top(), &pingpong_entry, &pp);
  const double ns = ns_per_op(2.0 * kRounds, [&] {
    for (int i = 0; i < kRounds; ++i) context_switch(&pp.main_ctx, &pp.fiber_ctx);
  });
  context_destroy(&pp.fiber_ctx);
  context_destroy(&pp.main_ctx);
  pool.release(stack);
  return ns;
}

double stack_pair_ns() {
  constexpr int kPairs = 100000;
  StackPool& pool = StackPool::instance();
  return ns_per_op(kPairs, [&] {
    for (int i = 0; i < kPairs; ++i) pool.release(pool.acquire(kStackBytes));
  });
}

/// on_ready + pick_next over 64 registered threads, as bench/micro_sched_ops.
double push_pop_ns(SchedKind kind) {
  constexpr int kThreads = 64, kRounds = 2000;
  std::unique_ptr<Scheduler> sched = make_scheduler(kind, kProcs, 42);
  std::vector<std::unique_ptr<Tcb>> tcbs;
  for (int i = 0; i < kThreads; ++i) {
    tcbs.push_back(std::make_unique<Tcb>(static_cast<std::uint64_t>(i + 1)));
    sched->register_thread(nullptr, tcbs.back().get());
  }
  std::uint64_t earliest = 0;
  const double ns = ns_per_op(static_cast<double>(kThreads) * kRounds, [&] {
    for (int r = 0; r < kRounds; ++r) {
      for (auto& t : tcbs) {
        t->state.store(ThreadState::Ready, std::memory_order_relaxed);
        sched->on_ready(t.get(), 0);
      }
      for (int i = 0; i < kThreads; ++i) {
        Tcb* t = sched->pick_next(0, ~std::uint64_t{0}, &earliest);
        if (t == nullptr) break;
        t->state.store(ThreadState::Running, std::memory_order_relaxed);
      }
    }
  });
  for (auto& t : tcbs) sched->unregister_thread(t.get());
  return ns;
}

double order_list_ns() {
  constexpr int kNodes = 64, kRounds = 2000;
  OrderList list;
  OrderNode anchor;
  list.push_back(&anchor);
  std::vector<OrderNode> nodes(kNodes);
  return ns_per_op(static_cast<double>(kNodes) * kRounds, [&] {
    for (int r = 0; r < kRounds; ++r) {
      for (auto& n : nodes) list.insert_before(&anchor, &n);
      for (auto& n : nodes) list.erase(&n);
    }
  });
}

}  // namespace

void micro_layers(Series& layers) {
  layers.add("threads.ctx_switch_ns", "ns", ctx_switch_ns());
  layers.add("space.stack_acquire_release_ns", "ns", stack_pair_ns());
  layers.add("core.asyncdf.push_pop_ns", "ns", push_pop_ns(SchedKind::AsyncDf));
  layers.add("core.worksteal.push_pop_ns", "ns", push_pop_ns(SchedKind::WorkSteal));
  layers.add("core.dfdeques.push_pop_ns", "ns", push_pop_ns(SchedKind::DfDeques));
  layers.add("core.fifo.push_pop_ns", "ns", push_pop_ns(SchedKind::Fifo));
  layers.add("core.order_list.insert_unlink_ns", "ns", order_list_ns());
}

}  // namespace dfbench
