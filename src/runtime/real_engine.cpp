#include "runtime/real_engine.h"

#include <algorithm>
#include <chrono>
#include <limits>

#include "analyze/race_hooks.h"
#include "core/worksteal_sched.h"
#include "obs/counters.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "replay/hooks.h"
#include "replay/log.h"
#include "resil/faults.h"
#include "resil/watchdog.h"
#include "space/tracked_heap.h"
#include "util/check.h"
#include "util/timer.h"

#include "replay/replay_sched.h"

#if DFTH_VALIDATE
#include "analyze/auditor.h"
#endif

namespace dfth {
namespace {

constexpr std::uint64_t kInf = std::numeric_limits<std::uint64_t>::max();
constexpr std::size_t kRealStackFloor = 64 << 10;

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

thread_local void* tl_worker = nullptr;  // RealEngine::Worker*
thread_local Tcb* tl_bound = nullptr;    // bound thread's own Tcb

// Thread-id allocation goes through the replay session when one is active:
// the raw atomic's assignment order is itself a recorded (and replayed)
// decision, so a replayed run names every fiber identically.
std::uint64_t take_tid(std::atomic<std::uint64_t>& next) {
  if (auto* rs = ::dfth::replay::active()) {
    return rs->alloc_tid(next, ::dfth::replay::self_actor());
  }
  return next++;
}

}  // namespace

// Both accessors are noinline on purpose: fibers migrate between kernel
// threads, and a thread-local read cached across a context switch would
// observe another worker's state (see engine.h).
__attribute__((noinline)) RealEngine::Worker* RealEngine::this_worker() {
  return static_cast<Worker*>(tl_worker);
}

__attribute__((noinline)) Tcb* RealEngine::current() {
  if (Worker* w = this_worker()) return w->current;
  return tl_bound;
}

RealEngine::RealEngine(const RuntimeOptions& opts) : opts_(opts) {
  DFTH_CHECK(opts_.nprocs >= 1);
  if (auto* rs = replay::active();
      rs != nullptr && rs->mode() == replay::Mode::Replay) {
    // Schedule-pinned replay: serve the logged dispatch outcomes instead of
    // re-running the recorded policy (see replay/replay_sched.h for why the
    // policy itself cannot be replayed through).
    sched_ = std::make_unique<replay::ReplayScheduler>(
        rs, opts_.sched, replay::ReplayScheduler::Pinning::Pin);
  }
  if (!sched_) {
    sched_ = make_scheduler(opts_.sched, opts_.nprocs, opts_.seed,
                            opts_.cluster_size);
  }
  eff_quota_.store(opts_.mem_quota, std::memory_order_relaxed);
  stats_.engine = EngineKind::Real;
  stats_.sched = opts_.sched;
  stats_.nprocs = opts_.nprocs;
}

RealEngine::~RealEngine() {
  for (Tcb* t : all_tcbs_) {
    if (t->stack) StackPool::instance().release(t->stack);
    context_destroy(&t->ctx);
    delete t;
  }
}

Tcb* RealEngine::make_tcb(std::function<void*()> fn, const Attr& attr, bool is_dummy) {
  Tcb* t = new Tcb(take_tid(next_tid_));
  t->attr = attr;
  if (t->attr.stack_size == 0) t->attr.stack_size = opts_.default_stack_size;
  DFTH_CHECK(t->attr.priority >= 0 && t->attr.priority < kNumPriorities);
  t->entry = std::move(fn);
  t->is_dummy = is_dummy;
  t->detached = attr.detached;
  if (!t->attr.bound) {
    // Real stacks honor the requested size but keep a floor under the
    // benchmarks' serial base cases.
    t->stack = StackPool::instance().acquire(std::max(t->attr.stack_size, kRealStackFloor));
    if (t->stack && DFTH_FAULT_SHOULD_FAIL(resil::FaultSite::kCtxCreate)) {
      StackPool::instance().release(t->stack);
      t->stack = Stack{};
      // The inline-run fallback in spawn() absorbs this.
      DFTH_FAULT_RECOVERED(resil::FaultSite::kCtxCreate);
    }
    if (t->stack) {
      context_make(&t->ctx, t->stack.base, t->stack.top(), &fiber_entry, t);
      DFTH_TRACE_EMIT(this_worker() ? this_worker()->id : opts_.nprocs,
                      t->stack.fresh ? obs::EvKind::StackFresh
                                     : obs::EvKind::StackReuse,
                      t->id, t->stack.size);
    }
  }
  return t;
}

void RealEngine::fiber_entry(void* arg) {
  Tcb* t = static_cast<Tcb*>(arg);
  t->result = t->entry();
  t->entry = nullptr;
  auto* self = static_cast<RealEngine*>(engine());
  // Flush the final slice and seal the span *before* finish_thread wakes the
  // joiner — the wake edge must read the fiber's finished span. run_fiber
  // skips its post-switch charge on ExitCleanup so nothing double-counts;
  // the slice restarts so the wake edge's offset covers only finish_thread.
  if (obs::Profiler* pr = obs::profiler()) {
    Worker* w = this_worker();
    const std::uint64_t now = steady_now_ns();
    pr->work(t->id, now - w->slice_start_ns);
    w->slice_start_ns = now;
    pr->exit_fiber(t->id, 0);
  }
  self->finish_thread(t);
  t->state.store(ThreadState::Done, std::memory_order_release);
  Worker* w = this_worker();
  w->post = Post::ExitCleanup;
  w->post_fiber = t;
  context_switch_final(&t->ctx, &w->ctx);
}

void RealEngine::finish_thread(Tcb* t) {
  DFTH_TRACE_EMIT(this_worker() ? this_worker()->id : opts_.nprocs,
                  obs::EvKind::Exit, t->id, 0);
  DFTH_REPLAY_GATE_SELF();
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!t->attr.bound) sched_->unregister_thread(t);
    --live_;
    progress_.fetch_add(1, std::memory_order_relaxed);
    DFTH_REPLAY_COMMIT(::dfth::replay::EvKind::ExitSched,
                       ::dfth::replay::self_actor(), t->id, 0);
    if (live_ == 0) {
      done_ = true;
      cv_.notify_all();
      done_cv_.notify_all();
    }
  }
  DFTH_REPLAY_GATE_SELF();
  t->join_lock.lock();
  t->finished = true;
  Tcb* joiner = t->joiner;
  t->joiner = nullptr;
  // The exit-vs-join race on join_lock decides whether the joiner blocks;
  // b records which joiner (0 = none yet) so replay verifies the outcome.
  DFTH_REPLAY_COMMIT(::dfth::replay::EvKind::ExitJoin,
                     ::dfth::replay::self_actor(), t->id,
                     joiner ? joiner->id : 0);
  t->join_lock.unlock();
  if (joiner) wake(joiner);
}

Tcb* RealEngine::spawn(std::function<void*()> fn, const Attr& attr, bool is_dummy,
                       const char* site_file, int site_line) {
  const std::uint64_t fork_t0 = steady_now_ns();
  Tcb* child = make_tcb(std::move(fn), attr, is_dummy);
  child->site_file = site_file;
  child->site_line = site_line;
  Worker* w = this_worker();
  Tcb* parent = current();
  child->parent = parent;
  // Deadline propagation: a child without its own cancellation scope joins
  // the parent's, so a request's token covers the whole spawn subtree.
  child->cancel =
      attr.cancel != nullptr ? attr.cancel : (parent ? parent->cancel : nullptr);
  DFTH_RACE_FORK(child, parent);
  if (Recorder* rec = active_recorder()) {
    rec->on_thread_start(child->id, parent ? parent->id : 0);
  }
  DFTH_TRACE_EMIT(w ? w->id : opts_.nprocs,
                  is_dummy ? obs::EvKind::DummySpawn : obs::EvKind::Fork,
                  parent ? parent->id : 0, child->id);
  // Fork edge, emitted before the child is published to the scheduler —
  // another worker may dispatch it (and charge work to it) the moment
  // register_thread returns. The offset is the parent's uncharged partial
  // slice so the child inherits the span as of *now*, not slice start.
  DFTH_PROF_THREAD_START(
      child->id, parent ? parent->id : 0,
      (w && parent && !parent->attr.bound) ? steady_now_ns() - w->slice_start_ns
                                           : 0,
      child->site_file, child->site_line);

  if (child->attr.bound) {
    DFTH_REPLAY_GATE_SELF();
    {
      std::lock_guard<std::mutex> lk(mu_);
      all_tcbs_.push_back(child);
      ++live_;
      ++bound_live_;
      ++stats_.threads_created;
      stats_.max_live_threads = std::max(stats_.max_live_threads, live_);
      DFTH_REPLAY_COMMIT(::dfth::replay::EvKind::SpawnReg,
                         ::dfth::replay::self_actor(), child->id,
                         ::dfth::replay::kSpawnBound);
    }
    start_bound_thread(child);
    return child;
  }

  if (!child->stack) return run_inline(child);

  bool preempt;
  DFTH_REPLAY_GATE_SELF();
  {
    std::lock_guard<std::mutex> lk(mu_);
    all_tcbs_.push_back(child);
    preempt = sched_->register_thread(parent, child);
    ++live_;
    ++stats_.threads_created;
    if (is_dummy) ++stats_.dummy_threads;
    stats_.max_live_threads = std::max(stats_.max_live_threads, live_);
    // A bound (or engine-external) caller has no worker to preempt.
    if (!(preempt && w && parent && !parent->attr.bound)) {
      preempt = false;
      child->state.store(ThreadState::Ready, std::memory_order_relaxed);
      sched_->on_ready(child, w ? w->id : 0);
      cv_.notify_one();
    }
    // Committed after the placement is final: b is the *effective*
    // decision (fork dive or queued), which is what replay must pin.
    DFTH_REPLAY_COMMIT(::dfth::replay::EvKind::SpawnReg,
                       ::dfth::replay::self_actor(), child->id,
                       preempt ? ::dfth::replay::kSpawnPreempt : 0);
  }
  DFTH_PROF_FORK_COST(child->id, steady_now_ns() - fork_t0);

  if (preempt) {
    // Dive into the child; the worker requeues the parent once its context
    // is fully saved (save-before-publish, see header comment).
    DFTH_TRACE_EMIT(w->id, obs::EvKind::Preempt, parent->id,
                    obs::kPreemptForkDive);
    w->post = Post::RunNext;
    w->post_fiber = parent;
    w->post_next = child;
    context_switch(&parent->ctx, &w->ctx);
    // Parent resumes here later, possibly on a different worker.
  }
  return child;
}

Tcb* RealEngine::run_inline(Tcb* child) {
  // Stack or context acquisition failed even after the pool's fallbacks.
  // Degrade by running the child to completion on the caller's stack: the
  // child precedes the parent's continuation in the serial depth-first
  // order, so this is the 1-processor schedule — correct, just not
  // parallel. The child is never registered with the scheduler and never
  // counted in live_ (it is already Done when the handle becomes visible).
  [[maybe_unused]] Tcb* parent = current();
  DFTH_REPLAY_GATE_SELF();
  {
    std::lock_guard<std::mutex> lk(mu_);
    all_tcbs_.push_back(child);
    ++stats_.threads_created;
    ++stats_.inline_runs;
    if (child->is_dummy) ++stats_.dummy_threads;
#if DFTH_VALIDATE
    if (auto* aud = analyze::active_auditor()) aud->on_inline_run(parent, child);
#endif
    DFTH_REPLAY_COMMIT(::dfth::replay::EvKind::SpawnReg,
                       ::dfth::replay::self_actor(), child->id,
                       ::dfth::replay::kSpawnInline);
  }
  child->state.store(ThreadState::Running, std::memory_order_relaxed);
  ++child->dispatches;
  DFTH_TRACE_EMIT(this_worker() ? this_worker()->id : opts_.nprocs,
                  obs::EvKind::Dispatch, child->id, child->dispatches);
  child->result = child->entry();
  child->entry = nullptr;
  DFTH_TRACE_EMIT(this_worker() ? this_worker()->id : opts_.nprocs,
                  obs::EvKind::Exit, child->id, 0);
  // The body's time lands in the caller's slice (it ran on the caller's
  // stack — serialized on the caller's span, which is what inline means).
  DFTH_PROF_EXIT(child->id, 0);
  child->join_lock.lock();
  child->finished = true;
  child->join_lock.unlock();
  child->state.store(ThreadState::Done, std::memory_order_release);
  return child;
}

void RealEngine::start_bound_thread(Tcb* t) {
  std::lock_guard<std::mutex> lk(mu_);
  bound_threads_.emplace_back([this, t] {
    tl_bound = t;
    t->state.store(ThreadState::Running, std::memory_order_relaxed);
    const std::uint64_t t0 = steady_now_ns();
    t->result = t->entry();
    t->entry = nullptr;
    // A bound thread is one uninterrupted slice on its own kernel thread.
    DFTH_PROF_WORK(t->id, steady_now_ns() - t0);
    DFTH_PROF_EXIT(t->id, 0);
    t->state.store(ThreadState::Done, std::memory_order_release);
    {
      std::lock_guard<std::mutex> inner(mu_);
      --bound_live_;
    }
    finish_thread(t);
    tl_bound = nullptr;
  });
}

void* RealEngine::join(Tcb* t) {
  DFTH_CHECK_MSG(!t->detached, "join of detached thread");
  DFTH_CHECK_MSG(!t->joined, "thread joined twice");
  DFTH_TRACE_EMIT(this_worker() ? this_worker()->id : opts_.nprocs,
                  obs::EvKind::Join, current() ? current()->id : 0, t->id);
  DFTH_REPLAY_GATE_SELF();
  t->join_lock.lock();
  // The join-vs-exit race on join_lock decides blocking; commit the outcome
  // inside the section so replay reproduces (and verifies) it.
  DFTH_REPLAY_COMMIT(::dfth::replay::EvKind::Join, ::dfth::replay::self_actor(),
                     t->id, t->finished ? 0 : 1);
  if (!t->finished) {
    Tcb* cur = current();
    DFTH_CHECK_MSG(cur, "join from outside the runtime");
    DFTH_CHECK_MSG(t->joiner == nullptr, "two concurrent joiners");
    t->joiner = cur;
    cur->state.store(ThreadState::Blocked, std::memory_order_relaxed);
    block_current(&t->join_lock);  // releases join_lock after the switch
    DFTH_CHECK(t->finished);
    // Span edge for this path: the wake() from finish_thread.
  } else {
    t->join_lock.unlock();
    // Fast path — the child already finished; take the span max here.
    Worker* w = this_worker();
    Tcb* cur = current();
    DFTH_PROF_JOIN(cur ? cur->id : 0, t->id,
                   (w && cur) ? steady_now_ns() - w->slice_start_ns : 0);
  }
  t->joined = true;
  return t->result;
}

void RealEngine::detach(Tcb* t) { t->detached = true; }

void RealEngine::yield() {
  Worker* w = this_worker();
  if (!w) {
    std::this_thread::yield();  // bound threads yield to the kernel
    return;
  }
  Tcb* cur = w->current;
  DFTH_TRACE_EMIT(w->id, obs::EvKind::Preempt, cur->id, obs::kPreemptYield);
  w->post = Post::Requeue;
  w->post_fiber = cur;
  context_switch(&cur->ctx, &w->ctx);
}

void RealEngine::block_current(SpinLock* guard) {
  Tcb* cur = current();
  DFTH_CHECK(cur && cur->state.load(std::memory_order_relaxed) == ThreadState::Blocked);
  DFTH_CHECK_MSG(guard->is_locked(),
                 "block_current without holding the wait-list guard");
  Worker* w = this_worker();
  DFTH_TRACE_EMIT(w ? w->id : opts_.nprocs, obs::EvKind::Block, cur->id, 0);
  if (!w || cur->attr.bound) {
    // Bound threads have no fiber to switch away from: release the guard
    // and wait for wake() to flip the state (kernel-level blocking stand-in).
    guard->unlock();
    while (cur->state.load(std::memory_order_acquire) == ThreadState::Blocked) {
      std::this_thread::yield();
    }
    return;
  }
  w->post = Post::ReleaseGuard;
  w->post_guard = guard;
  context_switch(&cur->ctx, &w->ctx);
}

void RealEngine::block_current_timed(SpinLock* guard, WaitList* list,
                                     std::uint64_t timeout_ns) {
  Tcb* cur = current();
  DFTH_CHECK(cur && cur->state.load(std::memory_order_relaxed) == ThreadState::Blocked);
  DFTH_CHECK_MSG(guard != nullptr && guard->is_locked(),
                 "block_current_timed without holding the wait-list guard");
  DFTH_CHECK(list != nullptr);
  cur->timed_out = false;
  Worker* w = this_worker();
  DFTH_TRACE_EMIT(w ? w->id : opts_.nprocs, obs::EvKind::Block, cur->id, 0);

  if (!w || cur->attr.bound) {
    // Bound threads poll with a deadline: on expiry, claim ourselves off the
    // wait list under the guard. Losing the claim means a waker popped us
    // and is about to flip our state — keep spinning for that.
    guard->unlock();
    const std::uint64_t deadline = steady_now_ns() + timeout_ns;
    while (cur->state.load(std::memory_order_acquire) == ThreadState::Blocked) {
      bool due = steady_now_ns() >= deadline;
      if (auto* rs = replay::active();
          rs != nullptr && rs->mode() == replay::Mode::Replay &&
          !rs->replay_exhausted()) {
        // The deadline-vs-waker race is pinned: expire exactly when the log
        // says this waiter claimed itself, never on this run's wall clock.
        due = rs->head_is(replay::EvKind::TimeoutClaim, cur->id, nullptr);
      }
      if (due) {
        guard->lock();
        const bool claimed = list->remove(cur);
        if (claimed) {
          DFTH_REPLAY_COMMIT(::dfth::replay::EvKind::TimeoutClaim, cur->id,
                             cur->id, 0);
        }
        guard->unlock();
        if (claimed) {
          cur->timed_out = true;
          cur->state.store(ThreadState::Ready, std::memory_order_relaxed);
          {
            std::lock_guard<std::mutex> lk(mu_);
            ++stats_.sync_timeouts;
          }
          DFTH_TRACE_EMIT(opts_.nprocs, obs::EvKind::Wake, cur->id, 0);
          return;
        }
      }
      std::this_thread::yield();
    }
    return;
  }

  // Unbound fiber: arm the supervisor's timer *before* switching away. The
  // timer can only claim us off the wait list under the guard, which the
  // worker releases strictly after our context is saved (Post::ReleaseGuard)
  // — so a premature fire blocks on the guard until the save completes.
  {
    std::lock_guard<std::mutex> lk(sup_mu_);
    sleepers_.push_back({steady_now_ns() + timeout_ns, cur, guard, list});
  }
  sup_cv_.notify_all();
  w->post = Post::ReleaseGuard;
  w->post_guard = guard;
  context_switch(&cur->ctx, &w->ctx);
  // Resumed by the timer or a waker; either way the timer entry is dead.
  cancel_sleeper(cur);
}

void RealEngine::cancel_sleeper(Tcb* t) {
  std::unique_lock<std::mutex> lk(sup_mu_);
  // An in-flight fire for t already left sleepers_ but may not have taken
  // the guard yet; wait it out or it could claim t's *next* wait.
  sup_cv_.wait(lk, [this, t] { return firing_ != t; });
  for (std::size_t i = 0; i < sleepers_.size(); ++i) {
    if (sleepers_[i].t == t) {
      sleepers_.erase(sleepers_.begin() + static_cast<std::ptrdiff_t>(i));
      return;
    }
  }
}

void RealEngine::wake(Tcb* t) {
  DFTH_TRACE_EMIT(this_worker() ? this_worker()->id : opts_.nprocs,
                  obs::EvKind::Wake, t->id, current() ? current()->id : 0);
  {
    Worker* w = this_worker();
    Tcb* cur = current();
    DFTH_PROF_WAKE(
        cur ? cur->id : 0, t->id,
        (w && cur && !cur->attr.bound) ? steady_now_ns() - w->slice_start_ns
                                       : 0);
  }
  if (t->attr.bound) {
    // A bound waiter spins on its own state word; no shared scheduler state
    // is touched, so this store is not an ordered replay event (documented
    // limitation: bound-thread wake timing is not bit-pinned).
    t->state.store(ThreadState::Ready, std::memory_order_release);
    return;
  }
  Worker* w = this_worker();
  DFTH_REPLAY_GATE_SELF();
  std::lock_guard<std::mutex> lk(mu_);
  t->state.store(ThreadState::Ready, std::memory_order_relaxed);
  t->ready_at_ns = 0;
  sched_->on_ready(t, w ? w->id : 0);
  progress_.fetch_add(1, std::memory_order_relaxed);
  DFTH_REPLAY_COMMIT(::dfth::replay::EvKind::Wake, ::dfth::replay::self_actor(),
                     t->id, 0);
  cv_.notify_one();
}

void RealEngine::on_alloc(std::size_t bytes, std::int64_t fresh_bytes) {
  (void)fresh_bytes;
  DFTH_TRACE_ALLOC_EVENT(this_worker() ? this_worker()->id : opts_.nprocs,
                         obs::EvKind::Alloc, current() ? current()->id : 0,
                         bytes);
  if (!sched_->needs_quota()) return;
  Tcb* cur = current();
  Worker* w = this_worker();
  if (!cur || !w || cur->attr.bound) return;
  cur->quota -= static_cast<std::int64_t>(bytes);
  if (cur->quota <= 0) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      ++stats_.quota_preemptions;
    }
    DFTH_TRACE_EMIT(w->id, obs::EvKind::QuotaExhaust, cur->id, bytes);
    DFTH_TRACE_EMIT(w->id, obs::EvKind::Preempt, cur->id, obs::kPreemptQuota);
    w->post = Post::Requeue;
    w->post_fiber = cur;
    context_switch(&cur->ctx, &w->ctx);
  }
}

void RealEngine::on_free(std::size_t bytes) {
  DFTH_TRACE_ALLOC_EVENT(this_worker() ? this_worker()->id : opts_.nprocs,
                         obs::EvKind::Free, current() ? current()->id : 0,
                         bytes);
}

bool RealEngine::uses_alloc_quota() const { return sched_->needs_quota(); }

bool RealEngine::on_alloc_failed(std::size_t bytes, int attempt) {
  (void)bytes;
  // Treat heap exhaustion like quota exhaustion: preempt AsyncDF-style,
  // shrink the effective K, back off, retry — bounded, then df_try_malloc
  // surfaces DfStatus::kNoMem.
  constexpr int kOomMaxAttempts = 16;
  if (attempt >= kOomMaxAttempts) return false;
  Tcb* cur = current();
#if DFTH_VALIDATE
  if (auto* aud = analyze::active_auditor()) aud->on_oom_preempt(cur);
#endif
  // The halving is an ordered decision: every later dispatch grants
  // t->quota from eff_quota_, so the quota a fiber runs with — and hence
  // where it quota-preempts — depends on how many halvings landed before
  // its dispatch. Serialize the shrink under mu_ (the same lock the grant
  // holds) and log it like any other scheduling decision; a lock-free CAS
  // here raced the grants at physical timing, which record/replay cannot
  // pin.
  DFTH_REPLAY_GATE_SELF();
  {
    std::lock_guard<std::mutex> lk(mu_);
    ++stats_.oom_preemptions;
    const std::size_t q = eff_quota_.load(std::memory_order_relaxed);
    std::size_t shrunk = q;
    if (q > 0) {
      shrunk = std::max<std::size_t>(q / 2, 4096);
      eff_quota_.store(shrunk, std::memory_order_relaxed);
    }
    DFTH_REPLAY_COMMIT(::dfth::replay::EvKind::QuotaShrink,
                       ::dfth::replay::self_actor(), shrunk,
                       static_cast<std::uint64_t>(attempt));
  }
  // Real backoff: give concurrent frees a chance to land before retrying.
  std::this_thread::sleep_for(
      std::chrono::microseconds(50ull << std::min(attempt, 8)));
  Worker* w = this_worker();
  if (cur && w && !cur->attr.bound) {
    DFTH_TRACE_EMIT(w->id, obs::EvKind::Preempt, cur->id, obs::kPreemptOom);
    w->post = Post::Requeue;
    w->post_fiber = cur;
    context_switch(&cur->ctx, &w->ctx);
  }
  return true;
}

void RealEngine::run_fiber(Worker& w, Tcb* t) {
  w.current = t;
  w.post = Post::None;
  w.post_fiber = nullptr;
  w.post_next = nullptr;
  w.post_guard = nullptr;
  if (obs::profiler()) w.slice_start_ns = steady_now_ns();
  context_switch(&w.ctx, &t->ctx);
  if (obs::Profiler* pr = obs::profiler()) {
    const std::uint64_t now = steady_now_ns();
    // ExitCleanup: fiber_entry already flushed the slice before sealing.
    if (w.post != Post::ExitCleanup) pr->work(t->id, now - w.slice_start_ns);
    w.idle_since_ns = now;
  }
  w.current = nullptr;
}

void RealEngine::handle_post(Worker& w) {
  switch (w.post) {
    case Post::None:
      break;
    case Post::ReleaseGuard:
      w.post_guard->unlock();
      break;
    case Post::Requeue:
      enqueue_ready(w.post_fiber, w.id);
      break;
    case Post::RunNext:
      enqueue_ready(w.post_fiber, w.id);
      break;  // caller inspects post_next
    case Post::ExitCleanup: {
      Tcb* t = w.post_fiber;
      context_finalize(&t->ctx);
      StackPool::instance().release(t->stack);
      t->stack = Stack{};
      break;
    }
  }
}

void RealEngine::enqueue_ready(Tcb* t, int proc_hint) {
  // Only workers reach here (handle_post), so the deciding actor is the
  // lane, not a fiber — the requeued fiber's context is already detached.
  DFTH_REPLAY_GATE(::dfth::replay::lane_actor(proc_hint));
  std::lock_guard<std::mutex> lk(mu_);
  t->state.store(ThreadState::Ready, std::memory_order_relaxed);
  sched_->on_ready(t, proc_hint);
  progress_.fetch_add(1, std::memory_order_relaxed);
  DFTH_REPLAY_COMMIT(::dfth::replay::EvKind::Requeue,
                     ::dfth::replay::lane_actor(proc_hint), t->id, 0);
  cv_.notify_one();
}

std::uint64_t RealEngine::now_ns() const { return steady_now_ns(); }

std::uint64_t RealEngine::dispatch_cancel_flags(Tcb* t, int lane,
                                                std::uint64_t base) {
  CancelToken* c = t->cancel;
  bool fire = false;
  if (auto* rs = replay::active();
      rs != nullptr && rs->mode() == replay::Mode::Replay &&
      !rs->replay_exhausted()) {
    // Pinned replay: this lane's gate already passed, so the head is this
    // very Dispatch — read the recorded expire-or-not flag instead of the
    // clock (which drifts between runs). head_is failing here just means
    // the run is about to diverge; commit will diagnose that, so stay
    // conservative and don't fire.
    std::uint64_t tid = 0;
    std::uint64_t logged_b = 0;
    if (rs->head_is(replay::EvKind::Dispatch, replay::lane_actor(lane), &tid,
                    nullptr, &logged_b) &&
        tid == t->id) {
      fire = (logged_b & replay::kDispatchDeadline) != 0;
    }
    if (!fire) return base;
    if (c != nullptr && !c->is_cancelled()) c->cancel();
    ++stats_.deadline_expirations;
    DFTH_TRACE_EMIT(lane, obs::EvKind::Preempt, t->id, obs::kPreemptDeadline);
    return base | replay::kDispatchDeadline;
  }
  fire = c != nullptr && c->deadline_ns != 0 && !c->is_cancelled() &&
         steady_now_ns() >= c->deadline_ns;
  if (!fire) return base;
  c->cancel();
  ++stats_.deadline_expirations;
  DFTH_TRACE_EMIT(lane, obs::EvKind::Preempt, t->id, obs::kPreemptDeadline);
  DFTH_REPLAY_CANCEL_FIRE(lane, t->id);
  return base | ::dfth::replay::kDispatchDeadline;
}

void RealEngine::worker_loop(Worker& w) {
  tl_worker = &w;
  DFTH_REPLAY_BIND_LANE(w.id);
  std::unique_lock<std::mutex> lk(mu_);
  while (!done_) {
    // Admission control: in a pinned replay a lane may only take the
    // scheduler lock to dispatch when the log's next ordered decision is its
    // own (its events are all emitted from this kernel thread in program
    // order, so the head here is always this lane's next Dispatch).
    if (auto* rs = replay::active();
        rs != nullptr && rs->mode() == replay::Mode::Replay) {
      lk.unlock();
      rs->gate(replay::lane_actor(w.id));
      lk.lock();
      if (done_) break;
    }
    std::uint64_t pick_t0 = 0;
    if (obs::profiler()) pick_t0 = steady_now_ns();
    std::uint64_t earliest = kInf;
    Tcb* t = sched_->pick_next(w.id, kInf, &earliest);
    if (!t) {
      ++idle_workers_;
      auto all_stuck = [this] {
        if (idle_workers_ != static_cast<int>(workers_.size())) return false;
        if (live_ <= 0 || bound_live_ > 0 || sched_->ready_count() != 0) return false;
        for (const auto& other : workers_) {
          if (other.current) return false;
        }
        return true;
      };
      if (all_stuck()) {
        // Possible deadlock — but a bound thread or an in-flight wake() may
        // be about to ready someone, so only abort if the condition persists
        // across a grace period with no notification arriving.
        const auto verdict = cv_.wait_for(lk, std::chrono::milliseconds(500));
        if (verdict == std::cv_status::timeout && all_stuck()) {
          dump_flight("RealEngine: deadlock — all workers idle, no ready work",
                      /*have_lock=*/true);
          DFTH_CHECK_MSG(false, "deadlock: all threads blocked");
        }
      } else {
        cv_.wait(lk);
      }
      --idle_workers_;
      continue;
    }
    t->state.store(ThreadState::Running, std::memory_order_relaxed);
    t->quota =
        static_cast<std::int64_t>(eff_quota_.load(std::memory_order_relaxed));
    ++t->dispatches;
    ++stats_.dispatches;
    progress_.fetch_add(1, std::memory_order_relaxed);
    DFTH_TRACE_EMIT(w.id, obs::EvKind::Dispatch, t->id, t->dispatches);
    [[maybe_unused]] const std::uint64_t cancel_b =
        dispatch_cancel_flags(t, w.id, 0);
    DFTH_REPLAY_COMMIT(::dfth::replay::EvKind::Dispatch,
                       ::dfth::replay::lane_actor(w.id), t->id, cancel_b);
    if (obs::Profiler* pr = obs::profiler()) {
      const std::uint64_t now = steady_now_ns();
      const std::uint64_t gap =
          w.idle_since_ns ? now - w.idle_since_ns : 0;
      pr->dispatch(t->id, now - pick_t0, gap);
      DFTH_HIST(obs::Hist::DispatchGapNs, gap);
    }
    lk.unlock();

    Tcb* next = t;
    while (next) {
      run_fiber(w, next);
      const Post post = w.post;
      Tcb* follow = w.post_next;
      handle_post(w);
      if (post == Post::RunNext) {
        std::uint64_t dive_t0 = 0;
        if (obs::profiler()) dive_t0 = steady_now_ns();
        DFTH_REPLAY_GATE(::dfth::replay::lane_actor(w.id));
        {
          std::lock_guard<std::mutex> inner(mu_);
          follow->state.store(ThreadState::Running, std::memory_order_relaxed);
          follow->quota = static_cast<std::int64_t>(
              eff_quota_.load(std::memory_order_relaxed));
          ++follow->dispatches;
          ++stats_.dispatches;
          progress_.fetch_add(1, std::memory_order_relaxed);
          DFTH_TRACE_EMIT(w.id, obs::EvKind::Dispatch, follow->id,
                          follow->dispatches);
          // kDispatchForkDive: a dive, not a queue-served pick — cross-replay
          // on the simulator excludes these (they re-happen on its own spawn
          // path).
          [[maybe_unused]] const std::uint64_t dive_b = dispatch_cancel_flags(
              follow, w.id, ::dfth::replay::kDispatchForkDive);
          DFTH_REPLAY_COMMIT(::dfth::replay::EvKind::Dispatch,
                             ::dfth::replay::lane_actor(w.id), follow->id,
                             dive_b);
        }
        if (obs::Profiler* pr = obs::profiler()) {
          pr->dispatch(follow->id, steady_now_ns() - dive_t0, 0);
        }
        next = follow;
      } else {
        next = nullptr;
      }
    }
    lk.lock();
  }
  tl_worker = nullptr;
}

// -- supervisor: timed-wait timers + stall watchdog -------------------------

void RealEngine::fire_due_sleepers(std::unique_lock<std::mutex>& lk) {
  // Called with lk (sup_mu_) held. The vector mutates while unlocked, so
  // restart the scan after every fire; fired entries are gone, so it ends.
restart:
  const std::uint64_t now = steady_now_ns();
  for (std::size_t i = 0; i < sleepers_.size(); ++i) {
    if (sleepers_[i].deadline_ns > now) continue;
    const RtSleeper s = sleepers_[i];
    sleepers_.erase(sleepers_.begin() + static_cast<std::ptrdiff_t>(i));
    firing_ = s.t;
    lk.unlock();
    // Claim protocol: wait-list membership under the guard is the claim.
    // Losing means a waker popped the fiber first; its wake() owns the
    // resume and the timer loses quietly.
    s.guard->lock();
    const bool claimed = s.list->remove(s.t);
    if (claimed) {
      DFTH_REPLAY_COMMIT(::dfth::replay::EvKind::TimeoutClaim,
                         ::dfth::replay::kActorTimer, s.t->id, 0);
    }
    s.guard->unlock();
    if (claimed) {
      s.t->timed_out = true;
      DFTH_TRACE_EMIT(opts_.nprocs, obs::EvKind::Wake, s.t->id, 0);
      DFTH_REPLAY_GATE(::dfth::replay::kActorTimer);
      std::lock_guard<std::mutex> g(mu_);
      ++stats_.sync_timeouts;
      s.t->state.store(ThreadState::Ready, std::memory_order_relaxed);
      s.t->ready_at_ns = 0;
      sched_->on_ready(s.t, 0);
      progress_.fetch_add(1, std::memory_order_relaxed);
      DFTH_REPLAY_COMMIT(::dfth::replay::EvKind::TimeoutReady,
                         ::dfth::replay::kActorTimer, s.t->id, 0);
      cv_.notify_one();
    }
    lk.lock();
    firing_ = nullptr;
    sup_cv_.notify_all();
    goto restart;
  }
}

void RealEngine::replay_fire_sleepers(std::unique_lock<std::mutex>& lk) {
  auto* rs = replay::active();
  DFTH_CHECK(rs != nullptr && rs->mode() == replay::Mode::Replay);
restart:
  std::uint64_t tid = 0;
  if (!rs->head_is(replay::EvKind::TimeoutClaim, replay::kActorTimer, &tid)) {
    // A truncated (abort-time) log free-runs on wall-clock deadlines once
    // every ordered decision has been consumed.
    if (rs->replay_exhausted()) fire_due_sleepers(lk);
    return;
  }
  // The log's next decision is a timer claim of fiber `tid`. Its sleeper may
  // not be armed yet (the fiber is still switching away) — leave the head
  // alone and retry on the next supervisor poll.
  for (std::size_t i = 0; i < sleepers_.size(); ++i) {
    if (sleepers_[i].t->id != tid) continue;
    const RtSleeper s = sleepers_[i];
    sleepers_.erase(sleepers_.begin() + static_cast<std::ptrdiff_t>(i));
    firing_ = s.t;
    lk.unlock();
    s.guard->lock();
    const bool claimed = s.list->remove(s.t);
    // A waker cannot have popped the fiber first: its guard section is gated
    // behind this very record. Losing the claim anyway means the run
    // diverged from the log.
    DFTH_CHECK_MSG(claimed, "replay: logged timeout claim lost its race");
    rs->commit(replay::EvKind::TimeoutClaim, replay::kActorTimer, tid, 0);
    s.guard->unlock();
    s.t->timed_out = true;
    DFTH_TRACE_EMIT(opts_.nprocs, obs::EvKind::Wake, s.t->id, 0);
    rs->gate(replay::kActorTimer);
    {
      std::lock_guard<std::mutex> g(mu_);
      ++stats_.sync_timeouts;
      s.t->state.store(ThreadState::Ready, std::memory_order_relaxed);
      s.t->ready_at_ns = 0;
      sched_->on_ready(s.t, 0);
      progress_.fetch_add(1, std::memory_order_relaxed);
      rs->commit(replay::EvKind::TimeoutReady, replay::kActorTimer, tid, 0);
      cv_.notify_one();
    }
    lk.lock();
    firing_ = nullptr;
    sup_cv_.notify_all();
    goto restart;
  }
}

void RealEngine::supervisor_loop() {
  using std::chrono::milliseconds;
  using std::chrono::nanoseconds;
  const milliseconds stall(opts_.watchdog.stall_deadline_ms);
  std::uint64_t last_progress = progress_.load(std::memory_order_relaxed);
  auto last_change = std::chrono::steady_clock::now();

  std::unique_lock<std::mutex> lk(sup_mu_);
  while (!sup_stop_) {
    // Nap until the nearest timer deadline or the next watchdog poll,
    // whichever is sooner; sleep unbounded when neither is armed.
    std::uint64_t nap_ns = kInf;
    const std::uint64_t now_ns = steady_now_ns();
    for (const RtSleeper& s : sleepers_) {
      nap_ns = std::min(nap_ns,
                        s.deadline_ns > now_ns ? s.deadline_ns - now_ns : 0);
    }
    if (stall.count() > 0) {
      const auto poll = std::max(stall / 4, milliseconds(1));
      nap_ns = std::min(
          nap_ns, static_cast<std::uint64_t>(nanoseconds(poll).count()));
    }
    const bool pinned = [] {
      auto* rs = replay::active();
      return rs != nullptr && rs->mode() == replay::Mode::Replay;
    }();
    if (pinned) {
      // Replayed timer fires are driven by the log head, not by deadlines —
      // no notification marks the head becoming a TimeoutClaim, so poll at a
      // flat 1ms. Deadline-derived naps must not apply here: a past-due
      // sleeper the log is not yet ready to fire yields nap_ns == 0, and a
      // zero nap skips both wait branches below — the loop would then spin
      // without ever releasing sup_mu_, starving fibers that register and
      // deregister sleepers under it (a replay-only livelock).
      nap_ns = std::uint64_t{1'000'000};
    }
    if (nap_ns == kInf) {
      sup_cv_.wait(lk);
    } else if (nap_ns > 0) {
      sup_cv_.wait_for(lk, nanoseconds(nap_ns));
    }
    if (sup_stop_) break;

    if (pinned) {
      replay_fire_sleepers(lk);
    } else {
      fire_due_sleepers(lk);
    }

    if (stall.count() > 0) {
      // Liveness heartbeat (resil/watchdog.h): an intentionally idle serving
      // engine beats instead of dispatching. Both counters only grow, so the
      // sum moves whenever either does and the snapshot logic is unchanged.
      std::uint64_t p = progress_.load(std::memory_order_relaxed);
      if (const auto* hb = opts_.watchdog.heartbeat) {
        p += hb->load(std::memory_order_relaxed);
      }
      const auto now = std::chrono::steady_clock::now();
      if (p != last_progress) {
        last_progress = p;
        last_change = now;
      } else if (now - last_change >= stall) {
        // No dispatch/wake/exit for a full deadline. Only trip while live
        // work remains — a finished run making no progress is just done.
        lk.unlock();
        bool outstanding;
        {
          std::lock_guard<std::mutex> g(mu_);
          outstanding = live_ > 0 && !done_;
        }
        if (outstanding) {
          dump_flight("RealEngine watchdog: no scheduler progress within the "
                      "stall deadline",
                      /*have_lock=*/false);
          DFTH_CHECK_MSG(false, "stall watchdog tripped");
        }
        lk.lock();
        last_change = now;  // run is draining; don't re-trip every poll
      }
    }
  }
}

void RealEngine::dump_flight(const char* reason, bool have_lock) {
  // A wedged worker may hold mu_ forever; bound the wait, then dump the
  // possibly-inconsistent snapshot anyway (flagged as such).
  std::unique_lock<std::mutex> lk(mu_, std::defer_lock);
  bool locked = have_lock;
  if (!have_lock) {
    for (int i = 0; i < 200 && !locked; ++i) {
      locked = lk.try_lock();
      if (!locked) std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  resil::FlightInfo info;
  info.reason = reason;
  info.engine = "real";
  info.live_threads = live_;
  info.sched_state_consistent = locked;
  for (const Worker& w : workers_) info.lanes.push_back({w.id, w.current});
  info.all_tcbs = &all_tcbs_;
  info.sched = sched_.get();
  info.tracer = obs::tracer();
  if (auto* rs = replay::active()) {
    if (rs->mode() == replay::Mode::Record) {
      // Persist the schedule up to the abort so the hang itself replays.
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

RunStats RealEngine::run(const std::function<void()>& main_fn) {
  TrackedHeap::instance().begin_epoch();
  StackPool::instance().begin_epoch();
  eff_quota_.store(opts_.mem_quota, std::memory_order_relaxed);

  // Arm the fault injector for this run if the caller supplied a plan (no-op
  // when faults are compiled out). Per-run fault stats are deltas so a
  // harness that armed the injector itself still gets accurate counts.
  auto& inj = resil::FaultInjector::instance();
  const bool armed_here = resil::kFaultsEnabled && opts_.fault_plan != nullptr;
  if (armed_here) inj.arm(*opts_.fault_plan);
  const std::uint64_t injected0 = inj.injected_total();
  const std::uint64_t recovered0 = inj.recovered_total();

  std::thread sampler;
  std::atomic<bool> sampler_stop{false};
  if (opts_.tracer) {
    obs::detail::set_tracer(opts_.tracer);
    // One lane per worker plus a shared "external" lane for bound threads
    // and engine-external callers.
    opts_.tracer->begin_run(
        opts_.nprocs + 1,
        [t0 = steady_now_ns()] { return steady_now_ns() - t0; });
  }

  if (opts_.profiler) {
    opts_.profiler->begin_run();
    obs::detail::set_profiler(opts_.profiler);
  }

  Timer timer;

  Tcb* main = make_tcb(
      [&main_fn]() -> void* {
        main_fn();
        return nullptr;
      },
      Attr{}, /*is_dummy=*/false);
  main->is_main = true;
  main->site_file = "<main>";
  main->site_line = 0;
  DFTH_RACE_FORK(main, nullptr);
  DFTH_PROF_THREAD_START(main->id, 0, 0, main->site_file, main->site_line);
  if (!main->stack) {
    // No fiber stack for main even after the pool's heap fallback (or an
    // injected ctx.create fault): run main bound on a dedicated kernel
    // thread — the Solaris bound-thread escape hatch. Children it spawns
    // still go through the scheduler as usual.
    main->attr.bound = true;
    DFTH_REPLAY_GATE(::dfth::replay::kActorHost);
    {
      std::lock_guard<std::mutex> lk(mu_);
      all_tcbs_.push_back(main);
      live_ = 1;
      ++bound_live_;
      stats_.threads_created = 1;
      stats_.max_live_threads = 1;
      DFTH_REPLAY_COMMIT(::dfth::replay::EvKind::SpawnReg,
                         ::dfth::replay::kActorHost, main->id,
                         ::dfth::replay::kSpawnBound);
    }
    start_bound_thread(main);
  } else {
    DFTH_REPLAY_GATE(::dfth::replay::kActorHost);
    std::lock_guard<std::mutex> lk(mu_);
    all_tcbs_.push_back(main);
    sched_->register_thread(nullptr, main);
    main->state.store(ThreadState::Ready, std::memory_order_relaxed);
    sched_->on_ready(main, 0);
    live_ = 1;
    stats_.threads_created = 1;
    stats_.max_live_threads = 1;
    DFTH_REPLAY_COMMIT(::dfth::replay::EvKind::SpawnReg,
                       ::dfth::replay::kActorHost, main->id, 0);
  }

  // Resource-exhaustion degradation: losing workers only loses parallelism.
  // Worker 0 is exempt so the run is always able to make progress. The kept
  // count is fixed *before* any thread starts: ids stay dense in
  // [0, nprocs), which every scheduler hint path assumes.
  int kept_workers = 0;
  for (int i = 0; i < opts_.nprocs; ++i) {
    if (i > 0 && DFTH_FAULT_SHOULD_FAIL(resil::FaultSite::kWorkerSpawn)) {
      DFTH_FAULT_RECOVERED(resil::FaultSite::kWorkerSpawn);
      continue;
    }
    ++kept_workers;
  }
  workers_.resize(static_cast<std::size_t>(kept_workers));
  for (int i = 0; i < kept_workers; ++i) {
    workers_[static_cast<std::size_t>(i)].id = i;
  }
  for (auto& w : workers_) {
    // Genuine kernel-thread exhaustion: retry with backoff — other processes
    // (or our own exiting bound threads) may return slots — then give up
    // loudly. (Injected worker.spawn faults were already absorbed above by
    // shrinking the worker count before any thread started.)
    for (int attempt = 0;; ++attempt) {
      try {
        w.thread = std::thread([this, &w] { worker_loop(w); });
        break;
      } catch (const std::system_error&) {
        DFTH_CHECK_MSG(attempt < 4, "cannot spawn worker kernel threads");
        std::this_thread::sleep_for(std::chrono::milliseconds(1 << attempt));
      }
    }
  }

  {
    std::lock_guard<std::mutex> lk(sup_mu_);
    sup_stop_ = false;
  }
  supervisor_ = std::thread([this] { supervisor_loop(); });

  if (obs::Tracer* tr = obs::tracer()) {
    std::uint64_t interval_ns = tr->config().sample_interval_ns;
    if (interval_ns == 0) interval_ns = 1'000'000;  // 1 ms
    sampler = std::thread([this, tr, interval_ns, &sampler_stop] {
      while (!sampler_stop.load(std::memory_order_acquire)) {
        obs::Sample s;
        s.ts_ns = tr->now();
        {
          std::lock_guard<std::mutex> lk(mu_);
          s.live_threads = live_;
          s.ready = static_cast<std::int64_t>(sched_->ready_count());
        }
        s.heap_bytes = TrackedHeap::instance().live_bytes();
        s.stack_bytes = StackPool::instance().live_bytes();
        tr->add_sample(s);
        std::this_thread::sleep_for(std::chrono::nanoseconds(interval_ns));
      }
    });
  }

  {
    std::unique_lock<std::mutex> lk(mu_);
    done_cv_.wait(lk, [this] { return done_; });
  }
  for (auto& w : workers_) w.thread.join();
  // Worker dispatch-loop contexts are created implicitly by their first
  // save; the ucontext backend heap-allocates an impl for them.
  for (auto& w : workers_) context_destroy(&w.ctx);
  for (auto& bt : bound_threads_) bt.join();
  bound_threads_.clear();
  {
    std::lock_guard<std::mutex> lk(sup_mu_);
    sup_stop_ = true;
  }
  sup_cv_.notify_all();
  supervisor_.join();

  stats_.elapsed_us = timer.elapsed_us();
  stats_.heap_peak = TrackedHeap::instance().peak_bytes();
  stats_.stack_peak = StackPool::instance().peak_bytes();
  stats_.stacks_fresh = StackPool::instance().fresh_count();
  stats_.stacks_reused = StackPool::instance().reuse_count();
  stats_.stack_high_water = StackPool::instance().high_water_bytes();
  if (auto* ws = dynamic_cast<WorkStealScheduler*>(sched_->underlying())) {
    stats_.steals = ws->steal_count();
  }
  if (auto* prs = dynamic_cast<replay::ReplayScheduler*>(sched_.get())) {
    stats_.steals = prs->steal_count();
  }

  if (obs::Tracer* tr = obs::tracer()) {
    sampler_stop.store(true, std::memory_order_release);
    sampler.join();
    tr->end_run();
    obs::detail::set_tracer(nullptr);
  }
  if (opts_.profiler) {
    opts_.profiler->end_run(stats_.elapsed_us, opts_.nprocs);
    stats_.profile = opts_.profiler->stats();
    obs::detail::set_profiler(nullptr);
  }
  stats_.faults_injected = inj.injected_total() - injected0;
  stats_.faults_recovered = inj.recovered_total() - recovered0;
  if (armed_here) inj.disarm();
  return stats_;
}

}  // namespace dfth
