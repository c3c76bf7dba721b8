#include "runtime/engine.h"

#include <algorithm>

#include "obs/profile.h"
#include "obs/trace.h"
#include "replay/hooks.h"
#include "replay/log.h"
#include "resil/faults.h"
#include "runtime/edges.h"
#include "space/tracked_heap.h"
#include "util/check.h"

namespace dfth {

Engine::Engine(const RuntimeOptions& opts, std::unique_ptr<Scheduler> pinned,
               void (*fiber_entry)(void*))
    : opts_(opts), fiber_entry_(fiber_entry) {
  DFTH_CHECK(opts_.nprocs >= 1);
  sched_ = pinned ? std::move(pinned)
                  : make_scheduler(opts_.sched, opts_.nprocs, opts_.seed,
                                   opts_.cluster_size);
  stats_.sched = opts_.sched;
  stats_.nprocs = opts_.nprocs;
}

bool Engine::deadline_due(const Tcb* t, int lane) {
  (void)lane;
  const CancelToken* c = t->cancel;
  return c != nullptr && c->deadline_ns != 0 && !c->is_cancelled() &&
         now_ns() >= c->deadline_ns;
}

Tcb* Engine::make_tcb(std::function<void*()> fn, const Attr& attr, bool is_dummy,
                      std::uint64_t tid, std::size_t stack_bytes) {
  Tcb* t = tcbs_.acquire(tid);
  t->attr = attr;
  if (t->attr.stack_size == 0) t->attr.stack_size = opts_.default_stack_size;
  DFTH_CHECK(t->attr.priority >= 0 && t->attr.priority < kNumPriorities);
  t->entry = std::move(fn);
  t->is_dummy = is_dummy;
  if (stack_bytes == 0) return t;
  t->stack = StackPool::instance().acquire(stack_bytes);
  if (t->stack && resil::should_fail(resil::FaultSite::kCtxCreate)) {
    StackPool::instance().release(t->stack);
    t->stack = Stack{};
    // The inline-run fallback at the spawn site absorbs this.
    resil::on_recovered(resil::FaultSite::kCtxCreate);
  }
  if (t->stack) {
    context_make(&t->ctx, t->stack.base, t->stack.top(), fiber_entry_, t);
  }
  return t;
}

void Engine::start_main(Tcb* main) {
  main->is_main = true;
  release_handle(main);  // nobody joins main
  link_child(main, nullptr, "<main>", 0);
}

void Engine::link_child(Tcb* child, Tcb* parent, const char* site_file,
                        int site_line) {
  child->parent = parent;
  // Deadline propagation: a child without its own cancellation scope joins
  // the parent's, so a request's token covers the whole spawn subtree.
  child->cancel = child->attr.cancel != nullptr
                      ? child->attr.cancel
                      : (parent ? parent->cancel : nullptr);
  child->site_file = site_file;
  child->site_line = site_line;
  edges::on_fork(*this, child);
}

void Engine::count_inline_spawn(Tcb* parent, Tcb* child) {
  ++stats_.threads_created;
  ++stats_.inline_runs;
  if (child->is_dummy) ++stats_.dummy_threads;
  edges::on_inline_run(parent, child);
}

Tcb* Engine::run_inline(Tcb* child) {
  child->state.store(ThreadState::Running, std::memory_order_relaxed);
  ++child->dispatches;
  DFTH_TRACE_EMIT(lane(), obs::EvKind::Dispatch, child->id, child->dispatches);
  // The body's costs and race segments land on the caller: it runs on the
  // caller's stack in the caller's scheduling window, serialized on its
  // span — which is exactly what running inline means.
  child->result = child->entry();
  child->entry = nullptr;
  edges::on_exit(*this, child);
  child->join_lock.lock();
  child->finished = true;
  child->join_lock.unlock();
  child->state.store(ThreadState::Done, std::memory_order_release);
  tcbs_.release(child, Tcb::kExitRef);  // the caller still holds the handle
  return child;
}

void Engine::grant_dispatch(Tcb* t, int lane, std::uint64_t flags) {
  t->state.store(ThreadState::Running, std::memory_order_relaxed);
  t->quota = static_cast<std::int64_t>(eff_quota_.load(std::memory_order_relaxed));
  ++t->dispatches;
  ++stats_.dispatches;
  DFTH_TRACE_EMIT(lane, obs::EvKind::Dispatch, t->id, t->dispatches);
  // Cooperative: the fiber still runs; its body polls cancel_requested()
  // and drains. The flag lands in the Dispatch record either way, so a
  // replay (or a tool) sees where each token fired.
  if (deadline_due(t, lane)) {
    if (CancelToken* c = t->cancel; c != nullptr && !c->is_cancelled()) c->cancel();
    ++stats_.deadline_expirations;
    DFTH_TRACE_EMIT(lane, obs::EvKind::Preempt, t->id, obs::kPreemptDeadline);
    DFTH_REPLAY_CANCEL_FIRE(lane, t->id);
    flags |= replay::kDispatchDeadline;
  }
  DFTH_REPLAY_COMMIT(replay::EvKind::Dispatch, replay::lane_actor(lane), t->id,
                     flags);
}

bool Engine::charge_quota(Tcb* t, std::size_t bytes) {
  t->quota -= static_cast<std::int64_t>(bytes);
  // §4 item 2: "when the counter reaches zero, the thread is preempted."
  if (t->quota > 0) return false;
  DFTH_TRACE_EMIT(lane(), obs::EvKind::QuotaExhaust, t->id, bytes);
  return true;
}

std::size_t Engine::shrink_quota(Tcb* cur) {
  edges::on_oom_preempt(cur);
  ++stats_.oom_preemptions;
  std::size_t q = eff_quota_.load(std::memory_order_relaxed);
  if (q > 0) {
    q = std::max<std::size_t>(q / 2, 4096);
    eff_quota_.store(q, std::memory_order_relaxed);
  }
  return q;
}

Engine::Sleeper Engine::arm_timed_wait(Tcb* t, SpinLock* guard, WaitList* list,
                                       std::uint64_t timeout_ns) {
  DFTH_CHECK(t && t->state.load(std::memory_order_relaxed) == ThreadState::Blocked);
  DFTH_CHECK_MSG(guard != nullptr && guard->is_locked(),
                 "block_current_timed without holding the wait-list guard");
  DFTH_CHECK(list != nullptr);
  t->timed_out = false;
  return {now_ns() + timeout_ns, t, guard, list};
}

bool Engine::claim_timeout(const Sleeper& s, std::optional<std::uint64_t> log_actor) {
  s.guard->lock();
  const bool claimed = s.list->remove(s.t);
  if (claimed && log_actor) {
    DFTH_REPLAY_COMMIT(replay::EvKind::TimeoutClaim, *log_actor, s.t->id, 0);
  }
  s.guard->unlock();
  if (claimed) {
    s.t->timed_out = true;
    edges::on_timeout(*this, s.t);
  }
  return claimed;
}

void Engine::cancel_sleeper(Tcb* t) {
  auto it = std::find_if(sleepers_.begin(), sleepers_.end(),
                         [t](const Sleeper& s) { return s.t == t; });
  if (it != sleepers_.end()) sleepers_.erase(it);
}

void Engine::begin_run(int trace_lanes, std::function<std::uint64_t()> trace_clock) {
  TrackedHeap::instance().begin_epoch();
  eff_quota_.store(opts_.mem_quota, std::memory_order_relaxed);
  stats_.engine = kind();
  // Per-run fault stats are deltas, so a harness that armed the injector
  // itself (and keeps it armed across runs) still gets accurate counts.
  auto& inj = resil::FaultInjector::instance();
  faults_armed_here_ = opts_.fault_plan != nullptr;
  if (faults_armed_here_) inj.arm(*opts_.fault_plan);
  faults_injected0_ = inj.injected_total();
  faults_recovered0_ = inj.recovered_total();
  if (opts_.tracer) {
    obs::detail::set_tracer(opts_.tracer);
    opts_.tracer->begin_run(trace_lanes, std::move(trace_clock));
  }
  if (opts_.profiler) {
    opts_.profiler->begin_run();
    obs::detail::set_profiler(opts_.profiler);
  }
}

RunStats Engine::end_run() {
  stats_.stack_high_water = StackPool::instance().high_water_bytes();
  stats_.tcbs_allocated = tcbs_.allocated();
  stats_.steals = sched_->steal_count();
  if (obs::Tracer* tr = obs::tracer()) {
    tr->end_run();
    obs::detail::set_tracer(nullptr);
  }
  if (opts_.profiler) {
    opts_.profiler->end_run(stats_.elapsed_us, opts_.nprocs);
    stats_.profile = opts_.profiler->stats();
    obs::detail::set_profiler(nullptr);
  }
  auto& inj = resil::FaultInjector::instance();
  stats_.faults_injected = inj.injected_total() - faults_injected0_;
  stats_.faults_recovered = inj.recovered_total() - faults_recovered0_;
  if (faults_armed_here_) inj.disarm();
  return stats_;
}

void Engine::dump_flight(const char* reason, bool sched_state_consistent) {
  resil::FlightInfo info;
  info.reason = reason;
  info.engine = to_string(kind());
  info.live_threads = live_;
  info.sched_state_consistent = sched_state_consistent;
  info.lanes = flight_lanes();
  info.tcbs = &tcbs_;
  info.sched = sched_.get();
  info.tracer = obs::tracer();
  if (auto* rs = replay::active()) {
    if (rs->mode() == replay::Mode::Record) {
      // Persist the schedule up to the abort so the failure itself replays.
      rs->flush_partial();
      info.record_log = rs->path();
      info.replay_cmd = "tools/dfth-replay replay " + rs->path();
    } else {
      info.replay_log = rs->path();
      info.replay_position = rs->position_summary();
    }
  }
  resil::dump_flight_recorder(info, opts_.watchdog);
}

}  // namespace dfth
