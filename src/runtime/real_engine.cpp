#include "runtime/real_engine.h"

#include <algorithm>
#include <chrono>
#include <limits>

#include "obs/counters.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "replay/hooks.h"
#include "replay/log.h"
#include "replay/replay_sched.h"
#include "resil/faults.h"
#include "space/tracked_heap.h"
#include "util/check.h"
#include "util/timer.h"

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

// True while a strict replay still has logged decisions to serve.
bool replay_pinned() {
  auto* rs = replay::active();
  return rs != nullptr && rs->mode() == replay::Mode::Replay &&
         !rs->replay_exhausted();
}

// Schedule-pinned replay: serve the logged dispatch outcomes instead of
// re-running the recorded policy (see replay/replay_sched.h for why the
// policy itself cannot be replayed through).
std::unique_ptr<Scheduler> pinned_replay_scheduler(SchedKind sched) {
  auto* rs = replay::active();
  if (rs == nullptr || rs->mode() != replay::Mode::Replay) return nullptr;
  return std::make_unique<replay::ReplayScheduler>(
      rs, sched, replay::ReplayScheduler::Pinning::Pin);
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

int RealEngine::lane() const {
  Worker* w = this_worker();
  return w ? w->id : opts_.nprocs;
}

RealEngine::RealEngine(const RuntimeOptions& opts)
    : Engine(opts, pinned_replay_scheduler(opts.sched), &fiber_entry) {}

RealEngine::~RealEngine() = default;

Tcb* RealEngine::make_fiber(std::function<void*()> fn, const Attr& attr,
                            bool is_dummy) {
  // Real stacks honor the requested size but keep a floor under the
  // benchmarks' serial base cases.
  const std::size_t size = attr.stack_size ? attr.stack_size : opts_.default_stack_size;
  Tcb* t = make_tcb(std::move(fn), attr, is_dummy, take_tid(next_tid_),
                    attr.bound ? 0 : std::max(size, kRealStackFloor));
  if (t->stack) {
    DFTH_TRACE_EMIT(lane(), t->stack.fresh ? obs::EvKind::StackFresh
                                           : obs::EvKind::StackReuse,
                    t->id, t->stack.size);
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
  audit_exit(t);
  DFTH_TRACE_EMIT(lane(), obs::EvKind::Exit, t->id, 0);
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
  // Only the profiler's fork-cost edge reads the clock.
  const std::uint64_t fork_t0 = obs::profiler() ? steady_now_ns() : 0;
  Tcb* child = make_fiber(std::move(fn), attr, is_dummy);
  Worker* w = this_worker();
  Tcb* parent = current();
  link_child(child, parent, site_file, site_line);
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

  if (!child->stack) {
    // Never registered with the scheduler and never counted in live_: the
    // child is already Done when the handle becomes visible.
    DFTH_REPLAY_GATE_SELF();
    {
      std::lock_guard<std::mutex> lk(mu_);
      count_inline_spawn(parent, child);
      DFTH_REPLAY_COMMIT(::dfth::replay::EvKind::SpawnReg,
                         ::dfth::replay::self_actor(), child->id,
                         ::dfth::replay::kSpawnInline);
    }
    return run_inline(child);
  }

  bool preempt;
  DFTH_REPLAY_GATE_SELF();
  {
    std::lock_guard<std::mutex> lk(mu_);
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
    tcbs_.release(t, Tcb::kExitRef);
  });
}

void* RealEngine::join(Tcb* t) {
  DFTH_TRACE_EMIT(lane(), obs::EvKind::Join, current() ? current()->id : 0, t->id);
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
  return t->result;
}

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
  DFTH_TRACE_EMIT(lane(), obs::EvKind::Block, cur->id, 0);
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
  const Sleeper s = arm_timed_wait(cur, guard, list, timeout_ns);
  Worker* w = this_worker();
  DFTH_TRACE_EMIT(lane(), obs::EvKind::Block, cur->id, 0);

  if (!w || cur->attr.bound) {
    // Bound threads poll with a deadline: on expiry, claim ourselves off the
    // wait list under the guard. Losing the claim means a waker popped us
    // and is about to flip our state — keep spinning for that.
    guard->unlock();
    while (cur->state.load(std::memory_order_acquire) == ThreadState::Blocked) {
      // In a pinned replay the deadline-vs-waker race expires exactly when
      // the log says this waiter claimed itself, never on the wall clock.
      const bool due = replay_pinned()
                           ? replay::active()->head_is(
                                 replay::EvKind::TimeoutClaim, cur->id, nullptr)
                           : steady_now_ns() >= s.deadline_ns;
      if (due) {
        if (claim_timeout(s, cur->id)) {
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
    sleepers_.push_back(s);
  }
  sup_cv_.notify_all();
  w->post = Post::ReleaseGuard;
  w->post_guard = guard;
  context_switch(&cur->ctx, &w->ctx);
  // Resumed by the timer or a waker; either way the timer entry is dead. An
  // in-flight fire for us already left sleepers_ but may not have taken the
  // guard yet; wait it out or it could claim our *next* wait.
  std::unique_lock<std::mutex> lk(sup_mu_);
  sup_cv_.wait(lk, [this, cur] { return firing_ != cur; });
  cancel_sleeper(cur);
}

void RealEngine::wake(Tcb* t) {
  DFTH_TRACE_EMIT(lane(), obs::EvKind::Wake, t->id, current() ? current()->id : 0);
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
  DFTH_TRACE_ALLOC_EVENT(lane(), obs::EvKind::Alloc, current() ? current()->id : 0,
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
  DFTH_TRACE_ALLOC_EVENT(lane(), obs::EvKind::Free, current() ? current()->id : 0,
                         bytes);
}

bool RealEngine::on_alloc_failed(std::size_t bytes, int attempt) {
  (void)bytes;
  // Treat heap exhaustion like quota exhaustion: preempt AsyncDF-style,
  // shrink the effective K, back off, retry — bounded, then df_try_malloc
  // surfaces DfStatus::kNoMem.
  if (attempt >= kOomMaxAttempts) return false;
  Tcb* cur = current();
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
    const std::size_t shrunk = shrink_quota(cur);
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
      // Not earlier: fiber_entry still writes t->state after finish_thread
      // has woken the joiner, right up to the final switch.
      tcbs_.release(t, Tcb::kExitRef);
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

bool RealEngine::deadline_due(const Tcb* t, int lane) {
  if (!replay_pinned()) return Engine::deadline_due(t, lane);
  // This lane's gate already passed, so the head is this very Dispatch —
  // read the recorded expire-or-not flag instead of the clock. head_is
  // failing here just means the run is about to diverge; commit will
  // diagnose that, so stay conservative and don't fire.
  std::uint64_t tid = 0;
  std::uint64_t logged_b = 0;
  return replay::active()->head_is(replay::EvKind::Dispatch,
                                   replay::lane_actor(lane), &tid, nullptr,
                                   &logged_b) &&
         tid == t->id && (logged_b & replay::kDispatchDeadline) != 0;
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
                      /*sched_state_consistent=*/true);
          DFTH_CHECK_MSG(false, "deadlock: all threads blocked");
        }
      } else {
        cv_.wait(lk);
      }
      --idle_workers_;
      continue;
    }
    progress_.fetch_add(1, std::memory_order_relaxed);
    grant_dispatch(t, w.id, 0);
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
          progress_.fetch_add(1, std::memory_order_relaxed);
          // kDispatchForkDive: a dive, not a queue-served pick — cross-replay
          // on the simulator excludes these (they re-happen on its own spawn
          // path).
          grant_dispatch(follow, w.id, ::dfth::replay::kDispatchForkDive);
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

bool RealEngine::fire_sleeper(std::unique_lock<std::mutex>& lk, std::size_t i) {
  const Sleeper s = sleepers_[i];
  sleepers_.erase(sleepers_.begin() + static_cast<std::ptrdiff_t>(i));
  firing_ = s.t;
  lk.unlock();
  // Losing the claim means a waker popped the fiber first; its wake() owns
  // the resume and the timer loses quietly.
  const bool claimed = claim_timeout(s, replay::kActorTimer);
  if (claimed) {
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
  return claimed;
}

void RealEngine::fire_due_sleepers(std::unique_lock<std::mutex>& lk) {
  // The vector mutates while unlocked, so restart the scan after every
  // fire; fired entries are gone, so it ends.
restart:
  const std::uint64_t now = steady_now_ns();
  for (std::size_t i = 0; i < sleepers_.size(); ++i) {
    if (sleepers_[i].deadline_ns > now) continue;
    fire_sleeper(lk, i);
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
    // A waker cannot have popped the fiber first: its guard section is gated
    // behind this very record. Losing the claim anyway means the run
    // diverged from the log.
    DFTH_CHECK_MSG(fire_sleeper(lk, i), "replay: logged timeout claim lost its race");
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
    for (const Sleeper& s : sleepers_) {
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
          // A wedged worker may hold mu_ forever; bound the wait, then dump
          // the possibly-inconsistent snapshot anyway (flagged as such).
          std::unique_lock<std::mutex> g(mu_, std::defer_lock);
          bool locked = false;
          for (int i = 0; i < 200 && !locked; ++i) {
            locked = g.try_lock();
            if (!locked) std::this_thread::sleep_for(milliseconds(5));
          }
          dump_flight("RealEngine watchdog: no scheduler progress within the "
                      "stall deadline",
                      locked);
          DFTH_CHECK_MSG(false, "stall watchdog tripped");
        }
        lk.lock();
        last_change = now;  // run is draining; don't re-trip every poll
      }
    }
  }
}

std::vector<resil::FlightLane> RealEngine::flight_lanes() const {
  std::vector<resil::FlightLane> lanes;
  for (const Worker& w : workers_) lanes.push_back({w.id, w.current});
  return lanes;
}

RunStats RealEngine::run(const std::function<void()>& main_fn) {
  StackPool::instance().begin_epoch();
  // One trace lane per worker plus a shared "external" lane for bound
  // threads and engine-external callers.
  begin_run(opts_.nprocs + 1,
            [t0 = steady_now_ns()] { return steady_now_ns() - t0; });
  std::thread sampler;
  std::atomic<bool> sampler_stop{false};
  Timer timer;

  Tcb* main = make_fiber(
      [&main_fn]() -> void* {
        main_fn();
        return nullptr;
      },
      Attr{}, /*is_dummy=*/false);
  start_main(main);
  // No fiber stack for main even after the pool's heap fallback (or an
  // injected ctx.create fault): run main bound on a dedicated kernel thread
  // — the Solaris bound-thread escape hatch. Children it spawns still go
  // through the scheduler as usual.
  const bool bound = !main->stack;
  main->attr.bound = bound;
  DFTH_REPLAY_GATE(::dfth::replay::kActorHost);
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (bound) {
      ++bound_live_;
    } else {
      sched_->register_thread(nullptr, main);
      main->state.store(ThreadState::Ready, std::memory_order_relaxed);
      sched_->on_ready(main, 0);
    }
    live_ = 1;
    stats_.threads_created = 1;
    stats_.max_live_threads = 1;
    DFTH_REPLAY_COMMIT(::dfth::replay::EvKind::SpawnReg,
                       ::dfth::replay::kActorHost, main->id,
                       bound ? ::dfth::replay::kSpawnBound : 0);
  }
  if (bound) start_bound_thread(main);

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
  if (sampler.joinable()) {
    sampler_stop.store(true, std::memory_order_release);
    sampler.join();
  }
  return end_run();
}

}  // namespace dfth
