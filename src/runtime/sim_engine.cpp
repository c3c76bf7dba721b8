#include "runtime/sim_engine.h"

#include <algorithm>
#include <limits>

#include "replay/hooks.h"
#include "replay/log.h"
#include "replay/replay_sched.h"
#include "runtime/edges.h"
#include "space/tracked_heap.h"
#include "util/check.h"
#include "util/log.h"

namespace dfth {
namespace {

constexpr std::uint64_t kInf = std::numeric_limits<std::uint64_t>::max();

/// Real stack sizes are decoupled from simulated ones: simulated sizes feed
/// the cost/space model (a simulated 1 MB Solaris stack must not consume
/// 1 MB of host memory across thousands of live fibers), while real fibers
/// get enough space for the benchmarks' serial base cases.
constexpr std::size_t kRealStackBytes = 128 << 10;
constexpr std::size_t kRealMainStackBytes = 1 << 20;

double ns_to_us(std::uint64_t ns) { return static_cast<double>(ns) * 1e-3; }

// Cross-replay: map a recorded run's dispatch order onto virtual time. The
// pinned scheduler carries the *logged* policy kind (its needs_quota answer
// must match the run that produced the schedule), and is built directly so
// AuditedScheduler never audits a pinned schedule against a policy it does
// not implement.
std::unique_ptr<Scheduler> cross_replay_scheduler() {
  auto* rs = replay::active();
  if (rs == nullptr || rs->mode() != replay::Mode::CrossReplay) return nullptr;
  return std::make_unique<replay::ReplayScheduler>(
      rs, static_cast<SchedKind>(rs->header().sched),
      replay::ReplayScheduler::Pinning::Cross);
}

}  // namespace

bool SimEngine::LruCache::touch_block(std::uint32_t id) {
  ++tick;
  std::size_t victim = 0;
  std::uint64_t oldest = kInf;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (slots[i].first == id) {
      slots[i].second = tick;
      return true;
    }
    if (slots[i].second < oldest) {
      oldest = slots[i].second;
      victim = i;
    }
  }
  if (slots.size() < capacity) {
    slots.emplace_back(id, tick);
  } else if (capacity > 0) {
    slots[victim] = {id, tick};
  }
  return false;
}

SimEngine::SimEngine(const RuntimeOptions& opts)
    : Engine(opts, cross_replay_scheduler(), &fiber_entry) {
  procs_.resize(static_cast<std::size_t>(opts_.nprocs));
  for (auto& vp : procs_) vp.cache.capacity = opts_.cost.cache_blocks;
}

SimEngine::~SimEngine() { context_destroy(&loop_ctx_); }

void SimEngine::fiber_entry(void* arg) {
  Tcb* t = static_cast<Tcb*>(arg);
  auto* self = static_cast<SimEngine*>(engine());
  t->result = t->entry();
  t->entry = nullptr;  // release captured resources promptly
  self->charge(kThread, self->opts_.cost.exit_us);
  self->ev_ = Ev::Exit;
  context_switch_final(&t->ctx, &self->loop_ctx_);
}

void SimEngine::charge(Cat cat, double us) {
  pend_ns_[cat] += us_to_ns(us);
}

std::uint64_t SimEngine::vnow_ns() const {
  if (!in_fiber_) return loop_now_ns_;
  std::uint64_t pend = 0;
  for (int c = 0; c < kNumCats; ++c) pend += pend_ns_[c];
  return procs_[static_cast<std::size_t>(cur_proc_)].clock_ns + pend;
}

void SimEngine::switch_to_loop(Ev ev, SpinLock* guard) {
  ev_ = ev;
  ev_guard_ = guard;
  context_switch(&cur_->ctx, &loop_ctx_);
}

// -- fiber-context operations --------------------------------------------------

Tcb* SimEngine::spawn(std::function<void*()> fn, const Attr& attr, bool is_dummy,
                      const char* site_file, int site_line) {
  DFTH_CHECK_MSG(in_fiber_, "spawn outside a thread");
  // Sim's tids are its own loop order: allocating them logs nothing.
  Tcb* child = make_tcb(std::move(fn), attr, is_dummy, next_tid_++,
                        is_dummy ? (64 << 10) : kRealStackBytes);
  link_child(child, cur_, site_file, site_line);
  if (child->stack) {
    ev_child_ = child;
    switch_to_loop(Ev::Spawn);
    return child;
  }
  count_inline_spawn(cur_, child);
  charge(kThread, opts_.cost.create_unbound_us);
  DFTH_REPLAY_COMMIT(::dfth::replay::EvKind::SpawnReg, cur_->id, child->id,
                     ::dfth::replay::kSpawnInline);
  live_events_.emplace_back(vnow_ns(), +1);
  // The body's charges accrue to cur_ (the parent), so the child's own span
  // stays at its fork-instant value.
  run_inline(child);
  charge(kThread, opts_.cost.exit_us);
  live_events_.emplace_back(vnow_ns(), -1);
  return child;
}

void* SimEngine::join(Tcb* t) {
  DFTH_CHECK_MSG(in_fiber_, "join outside a thread");
  charge(kThread, opts_.cost.join_us);
  if (!t->finished) {
    DFTH_CHECK_MSG(t->joiner == nullptr, "two concurrent joiners");
    t->joiner = cur_;
    cur_->state.store(ThreadState::Blocked, std::memory_order_relaxed);
    switch_to_loop(Ev::Block);
    DFTH_CHECK(t->finished);
  }
  edges::on_join(*this, t);
  return t->result;
}

void SimEngine::yield() {
  DFTH_CHECK_MSG(in_fiber_, "yield outside a thread");
  switch_to_loop(Ev::Yield);
}

void SimEngine::block_current(SpinLock* guard) {
  DFTH_CHECK_MSG(in_fiber_, "block outside a thread");
  DFTH_CHECK(cur_->state.load(std::memory_order_relaxed) == ThreadState::Blocked);
  DFTH_CHECK_MSG(guard == nullptr || guard->is_locked(),
                 "block_current without holding the wait-list guard");
  charge(kSync, opts_.cost.block_us);
  switch_to_loop(Ev::Block, guard);
}

void SimEngine::block_current_timed(SpinLock* guard, WaitList* list,
                                    std::uint64_t timeout_ns) {
  DFTH_CHECK_MSG(in_fiber_, "timed block outside a thread");
  charge(kSync, opts_.cost.block_us);  // the deadline counts from after it
  sleepers_.push_back(arm_timed_wait(cur_, guard, list, timeout_ns));
  switch_to_loop(Ev::Block, guard);
  // Resumed — by the timer or by a waker. Either way our timer entry is
  // dead; drop it so a later wait cannot be hit by this deadline.
  cancel_sleeper(cur_);
}

void SimEngine::fire_due_sleepers(VProc& vp, int pid) {
  for (std::size_t i = 0; i < sleepers_.size();) {
    if (sleepers_[i].deadline_ns > vp.clock_ns) {
      ++i;
      continue;
    }
    const Sleeper s = sleepers_[i];
    sleepers_.erase(sleepers_.begin() + static_cast<std::ptrdiff_t>(i));
    // A lost claim means a waker popped the waiter first and its wake() owns
    // the resume. One host thread: the claim order is the loop's own, so it
    // is not logged.
    loop_now_ns_ = vp.clock_ns;  // the timeout edge's instant
    if (!claim_timeout(s)) continue;
    ++stats_.sync_timeouts;
    sched_lock_acquire(vp, pid);
    make_ready(s.t, s.deadline_ns, pid);  // eligible from its deadline instant
  }
}

void SimEngine::wake(Tcb* t) {
  DFTH_CHECK(t->state.load(std::memory_order_relaxed) == ThreadState::Blocked);
  // Covers both sync-object wakes (fiber context) and the exit → joiner wake
  // (loop context, cur_ = the exiting child whose final span the joiner
  // inherits).
  edges::on_wake(*this, t);
  make_ready(t, vnow_ns(), lane());
  if (in_fiber_) charge(kSync, opts_.cost.sched_op_us);
}

void SimEngine::charge_sync_op() {
  charge(kSync, opts_.cost.sync_op_us);
  if (!in_fiber_) return;
  // Pause at every sync operation (see Ev::SyncPause): the loop will resume
  // this fiber once its processor is again the earliest, so the operation's
  // effect lands in virtual-time order relative to other threads' sync ops.
  switch_to_loop(Ev::SyncPause);
}

void SimEngine::on_alloc(std::size_t bytes, std::int64_t fresh_bytes) {
  charge(kMem, opts_.cost.malloc_us(bytes, fresh_bytes));
  heap_events_.emplace_back(vnow_ns(), static_cast<std::int64_t>(bytes));
  edges::on_heap(*this, static_cast<std::int64_t>(bytes));
  if (sched_->needs_quota() && in_fiber_ && charge_quota(cur_, bytes)) {
    switch_to_loop(Ev::QuotaPreempt);
  }
}

void SimEngine::on_free(std::size_t bytes) {
  charge(kMem, opts_.cost.free_base_us);
  heap_events_.emplace_back(vnow_ns(), -static_cast<std::int64_t>(bytes));
  edges::on_heap(*this, -static_cast<std::int64_t>(bytes));
}

bool SimEngine::on_alloc_failed(std::size_t bytes, int attempt) {
  (void)bytes;
  // Treat heap exhaustion as quota exhaustion (AsyncDF-style): preempt,
  // reinsert leftmost-ready, shrink K, back off, retry — bounded, then
  // df_try_malloc surfaces DfStatus::kNoMem.
  if (!in_fiber_ || attempt >= kOomMaxAttempts) return false;
  shrink_quota(cur_);
  // Exponential virtual backoff: later attempts wait longer for concurrent
  // frees to land.
  charge(kMem, opts_.cost.free_base_us *
                   static_cast<double>(1u << std::min(attempt, 10)));
  switch_to_loop(Ev::OomPreempt);
  return true;
}

void SimEngine::add_work(std::uint64_t ops) {
  // Memory pressure multiplies the cost of useful work: a large live
  // footprint (heap plus the touched pages of live and cached stacks) means
  // TLB/page misses on every access (paper §3.1 and Figure 6).
  const double mult = opts_.cost.pressure(TrackedHeap::instance().live_bytes() +
                                          sim_stack_touched_);
  charge(kWork, opts_.cost.work_us(ops) * mult);
}

void SimEngine::touch(const std::uint32_t* block_ids, std::size_t count) {
  if (!in_fiber_) return;
  auto& cache = procs_[static_cast<std::size_t>(cur_proc_)].cache;
  double us = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    if (cache.touch_block(block_ids[i])) {
      ++stats_.cache_hits;
      us += opts_.cost.cache_hit_us;
    } else {
      ++stats_.cache_misses;
      us += opts_.cost.cache_miss_us;
    }
  }
  charge(kMem, us);
}

// -- simulated stack pool ---------------------------------------------------

double SimEngine::sim_stack_acquire_us(const Tcb* t) {
  const std::size_t bytes = t->attr.stack_size;
  sim_stack_live_ += static_cast<std::int64_t>(bytes);
  auto it = sim_stack_pool_.find(bytes);
  const bool fresh = it == sim_stack_pool_.end() || it->second == 0;
  double us;
  if (!fresh) {
    // A cached stack is already mapped and touched; its footprint simply
    // moves from the pool back to a live thread.
    --it->second;
    sim_stack_pooled_ -= static_cast<std::int64_t>(bytes);
    ++stats_.stacks_reused;
    us = opts_.cost.stack_pooled_us;
  } else {
    ++stats_.stacks_fresh;
    sim_stack_touched_ += static_cast<std::int64_t>(
        std::min(bytes, opts_.cost.stack_touched_cap));
    us = opts_.cost.stack_fresh_us(bytes);
  }
  edges::on_stack(*this, t, fresh, bytes);
  sim_stack_peak_ = std::max(sim_stack_peak_, sim_stack_live_ + sim_stack_pooled_);
  return us;
}

void SimEngine::sim_stack_release(std::size_t bytes) {
  sim_stack_live_ -= static_cast<std::int64_t>(bytes);
  sim_stack_pooled_ += static_cast<std::int64_t>(bytes);
  ++sim_stack_pool_[bytes];
}

// -- the event loop --------------------------------------------------------

RunStats SimEngine::run(const std::function<void()>& main_fn) {
  begin_run(opts_.nprocs, [this] { return vnow_ns(); });
  heap_initial_live_ = TrackedHeap::instance().live_bytes();
  if (opts_.tracer) {
    sample_interval_ns_ = opts_.tracer->config().sample_interval_ns;
    if (sample_interval_ns_ == 0) sample_interval_ns_ = 1000;  // 1 µs virtual
    next_sample_ns_ = 0;
  }

  Tcb* main = make_tcb(
      [&main_fn]() -> void* {
        main_fn();
        return nullptr;
      },
      Attr{}, /*is_dummy=*/false, next_tid_++, /*stack_bytes=*/0);
  // Main's stack skips the ctx.create fault site. It has no parent to run
  // inline on: a null stack here means even the heap-backed fallback
  // failed — the host is truly out of memory.
  main->stack = StackPool::instance().acquire(kRealMainStackBytes);
  DFTH_CHECK_MSG(main->stack, "out of memory acquiring the main fiber stack");
  context_make(&main->ctx, main->stack.base, main->stack.top(), &fiber_entry, main);
  start_main(main);

  live_ = 1;
  stats_.threads_created = 1;
  live_events_.emplace_back(0, +1);
  sim_stack_acquire_us(main);  // cost of the first stack: free
  sched_->register_thread(nullptr, main);
  // Single host thread: recording needs no gates here or below — commits
  // merely stamp the (already deterministic) decision order into the log so
  // a Sim log can be inspected and cross-replayed like a Real one.
  DFTH_REPLAY_COMMIT(::dfth::replay::EvKind::SpawnReg,
                     ::dfth::replay::kActorHost, main->id, 0);
  make_ready(main, 0, 0);

  sim_loop();

  // Finalize: pad every processor with idle time to the completion instant
  // so breakdown percentages are over p * T_completion, then aggregate.
  std::uint64_t completion = 0;
  for (const auto& vp : procs_) completion = std::max(completion, vp.clock_ns);
  stats_.elapsed_us = ns_to_us(completion);
  for (auto& vp : procs_) {
    vp.bd.idle_us += ns_to_us(completion - vp.clock_ns);
    for (int c = 0; c < Breakdown::kNumCategories; ++c) {
      stats_.breakdown.category(c) += vp.bd.category(c);
    }
  }
  // Max simultaneously-active threads: sweep the birth/death events in
  // virtual-time order (births before deaths at the same instant — a thread
  // exiting exactly when another starts briefly coexists with it).
  std::sort(live_events_.begin(), live_events_.end(),
            [](const auto& a, const auto& b) {
              return a.first != b.first ? a.first < b.first : a.second > b.second;
            });
  std::int64_t level = 0;
  for (const auto& [when, delta] : live_events_) {
    (void)when;
    level += delta;
    stats_.max_live_threads = std::max(stats_.max_live_threads, level);
  }

  // Heap high-water over virtual time (frees before allocations at equal
  // instants, matching allocator reuse), on top of whatever was live when
  // the run started (e.g. input matrices).
  std::sort(heap_events_.begin(), heap_events_.end(),
            [](const auto& a, const auto& b) {
              return a.first != b.first ? a.first < b.first : a.second < b.second;
            });
  std::int64_t heap_level = heap_initial_live_;
  stats_.heap_peak = heap_level;
  for (const auto& [when, delta] : heap_events_) {
    (void)when;
    heap_level += delta;
    stats_.heap_peak = std::max(stats_.heap_peak, heap_level);
  }
  stats_.stack_peak = sim_stack_peak_;
  finish_trace(completion);
  return end_run();
}

void SimEngine::finish_trace(std::uint64_t completion_ns) {
  obs::Tracer* tr = obs::tracer();
  if (!tr) return;
  // Close the time series at the completion instant, then fill in the exact
  // live-thread and heap levels at every sample instant by sweeping the
  // already-sorted virtual-time event lists (the online pass cannot know
  // them: a fiber's whole life can commit in one host resume).
  obs::Sample last;
  last.ts_ns = completion_ns;
  last.stack_bytes = sim_stack_live_ + sim_stack_pooled_;
  last.ready = static_cast<std::int64_t>(sched_->ready_count());
  trace_samples_.push_back(last);
  std::sort(trace_samples_.begin(), trace_samples_.end(),
            [](const obs::Sample& a, const obs::Sample& b) {
              return a.ts_ns < b.ts_ns;
            });
  std::size_t li = 0, hi = 0;
  std::int64_t live_level = 0;
  std::int64_t heap_level = heap_initial_live_;
  for (obs::Sample& s : trace_samples_) {
    while (li < live_events_.size() && live_events_[li].first <= s.ts_ns) {
      live_level += live_events_[li++].second;
    }
    while (hi < heap_events_.size() && heap_events_[hi].first <= s.ts_ns) {
      heap_level += heap_events_[hi++].second;
    }
    s.live_threads = live_level;
    s.heap_bytes = heap_level;
    tr->add_sample(s);
  }
}

void SimEngine::maybe_sample(std::uint64_t now_ns) {
  if (!obs::tracer() || now_ns < next_sample_ns_) return;
  obs::Sample s;
  s.ts_ns = now_ns;
  s.stack_bytes = sim_stack_live_ + sim_stack_pooled_;
  s.ready = static_cast<std::int64_t>(sched_->ready_count());
  trace_samples_.push_back(s);
  next_sample_ns_ = now_ns + sample_interval_ns_;
  // Run length is unknown up front: when the series fills, halve the
  // resolution and double the interval, keeping memory bounded while the
  // final spacing stays proportional to the run's actual length.
  constexpr std::size_t kMaxSamples = 4096;
  if (trace_samples_.size() >= kMaxSamples) {
    std::vector<obs::Sample> kept;
    kept.reserve(trace_samples_.size() / 2 + 1);
    for (std::size_t i = 0; i < trace_samples_.size(); i += 2) {
      kept.push_back(trace_samples_[i]);
    }
    trace_samples_.swap(kept);
    sample_interval_ns_ *= 2;
  }
}

void SimEngine::sim_loop() {
  const std::uint64_t wd_deadline = opts_.watchdog.virtual_deadline_ns;
  // Liveness heartbeat (resil/watchdog.h): when the caller beats, the
  // virtual deadline becomes a window since the last beat, so an
  // intentionally idle-but-armed serving run is never mistaken for a stall.
  std::uint64_t hb_seen = 0;
  std::uint64_t hb_base_ns = 0;
  while (live_ > 0) {
    const int pid = pick_proc();
    VProc& vp = procs_[static_cast<std::size_t>(pid)];
    // Virtual-time stall watchdog: pick_proc returns the minimum clock, so
    // crossing the deadline here means *every* processor is past it and the
    // run is still not finished.
    if (wd_deadline != 0) {
      if (const auto* hb = opts_.watchdog.heartbeat) {
        const std::uint64_t v = hb->load(std::memory_order_relaxed);
        if (v != hb_seen) {
          hb_seen = v;
          hb_base_ns = vp.clock_ns;
        }
      }
      if (vp.clock_ns > hb_base_ns && vp.clock_ns - hb_base_ns > wd_deadline) {
        dump_flight("SimEngine watchdog: virtual-time deadline exceeded", true);
        DFTH_CHECK_MSG(false, "virtual-time stall watchdog tripped");
      }
    }
    if (vp.running) {
      cur_ = vp.running;
      cur_proc_ = pid;
      in_fiber_ = true;
      for (auto& p : pend_ns_) p = 0;
      ev_ = Ev::None;

      context_switch(&loop_ctx_, &cur_->ctx);

      in_fiber_ = false;
      apply_pending(vp);
      loop_now_ns_ = vp.clock_ns;
      DFTH_CHECK_MSG(ev_ != Ev::None, "fiber switched out without an event");
      handle_event(vp, pid);
      cur_ = nullptr;
    } else {
      attempt_dispatch(vp, pid);
    }
    maybe_sample(vp.clock_ns);
  }
}

int SimEngine::pick_proc() const {
  int best = 0;
  for (int i = 1; i < static_cast<int>(procs_.size()); ++i) {
    const auto& a = procs_[static_cast<std::size_t>(i)];
    const auto& b = procs_[static_cast<std::size_t>(best)];
    // Min clock; ties prefer a processor holding a fiber (it must generate
    // the events an equal-clock idle processor is waiting for).
    if (a.clock_ns < b.clock_ns ||
        (a.clock_ns == b.clock_ns && a.running && !b.running)) {
      best = i;
    }
  }
  return best;
}

void SimEngine::apply_pending(VProc& vp) {
  // Everything a fiber charged between scheduling points is pure fiber time:
  // it is the profiler's "work" (advances span too), as opposed to the
  // loop-side clock advances below, which are scheduler overhead.
  edges::on_work(vp.running->id, pend_total_ns());
  vp.clock_ns += pend_ns_[kWork] + pend_ns_[kThread] + pend_ns_[kMem] + pend_ns_[kSync];
  vp.bd.work_us += ns_to_us(pend_ns_[kWork]);
  vp.bd.thread_us += ns_to_us(pend_ns_[kThread]);
  vp.bd.mem_us += ns_to_us(pend_ns_[kMem]);
  vp.bd.sync_us += ns_to_us(pend_ns_[kSync]);
  for (auto& p : pend_ns_) p = 0;
}

void SimEngine::sched_lock_acquire(VProc& vp, int proc) {
  // The scheduler's global queue is serialized by one lock (paper §6). The
  // lock is busy only *during* queue operations, so a processor is made to
  // wait only when its operation lands within the contention window of the
  // most recent one (near-simultaneous operations queue up behind each
  // other); an operation that maps to an instant further in the virtual
  // past found the lock free back then. (Events are simulated slightly out
  // of virtual-time order — a fiber's long run commits at its end — so the
  // busy horizon can be ahead of this processor's clock without implying
  // the lock was held the whole time.)
  const int domain = sched_->lock_domain(proc);
  if (lock_free_ns_.size() <= static_cast<std::size_t>(domain)) {
    lock_free_ns_.resize(static_cast<std::size_t>(domain) + 1, 0);
  }
  std::uint64_t& lock_free = lock_free_ns_[static_cast<std::size_t>(domain)];
  const std::uint64_t op = us_to_ns(opts_.cost.sched_op_us);
  const std::uint64_t window = op * static_cast<std::uint64_t>(4 * opts_.nprocs);
  std::uint64_t start = vp.clock_ns;
  if (lock_free > vp.clock_ns && lock_free - vp.clock_ns <= window) {
    start = lock_free;  // genuine contention: queue behind the last op
  }
  const std::uint64_t wait = start - vp.clock_ns;
  vp.bd.sched_us += ns_to_us(wait + op);
  vp.clock_ns = start + op;
  if (start + op > lock_free) lock_free = start + op;
}

void SimEngine::preempt(VProc& vp, int pid, Tcb* t, std::uint64_t reason) {
  make_ready(t, vp.clock_ns, pid);
  DFTH_TRACE_EMIT_AT(pid, obs::EvKind::Preempt, vp.clock_ns, t->id, reason);
}

void SimEngine::attempt_dispatch(VProc& vp, int pid) {
  // Keep the loop clock fresh: schedulers emit Steal events from inside
  // pick_next through the tracer clock, which reads loop_now_ns_ here.
  loop_now_ns_ = vp.clock_ns;
  cur_proc_ = pid;  // the lane of the edges crossed below
  const std::uint64_t fire_t0 = vp.clock_ns;
  fire_due_sleepers(vp, pid);
  edges::on_overhead(0, vp.clock_ns - fire_t0);
  std::uint64_t earliest = kInf;
  Tcb* t = sched_->pick_next(pid, vp.clock_ns, &earliest);
  if (t) {
    const std::uint64_t disp_t0 = vp.clock_ns;
    sched_lock_acquire(vp, pid);
    vp.clock_ns += us_to_ns(opts_.cost.ctx_switch_us);
    vp.bd.thread_us += opts_.cost.ctx_switch_us;
    // The tracer and the deadline rule read the loop clock. Virtual time
    // makes the deadline decision deterministic, so it needs no pinning.
    loop_now_ns_ = vp.clock_ns;
    grant_dispatch(t, pid, 0);
    // The lane's accumulated idle time is this dispatch's gap; it burdens
    // the fiber (an ideal scheduler would have run it sooner) and must be
    // consumed whether or not a profiler is installed.
    edges::on_dispatch(t, vp.clock_ns - disp_t0, vp.pending_gap_ns);
    vp.pending_gap_ns = 0;
    vp.running = t;
    return;
  }

  // Nothing eligible: advance to the next instant anything can change —
  // the earliest future ready time, the nearest timed-wait deadline, or the
  // clock of a processor that holds a fiber (its next event may wake/spawn
  // work).
  std::uint64_t horizon = earliest;
  for (const Sleeper& s : sleepers_) {
    horizon = std::min(horizon, s.deadline_ns);
  }
  for (const auto& other : procs_) {
    if (other.running) horizon = std::min(horizon, other.clock_ns);
  }
  if (horizon == kInf) report_deadlock();
  DFTH_CHECK_MSG(horizon > vp.clock_ns, "simulation failed to make progress");
  vp.bd.idle_us += ns_to_us(horizon - vp.clock_ns);
  vp.pending_gap_ns += horizon - vp.clock_ns;
  vp.clock_ns = horizon;
}

void SimEngine::handle_event(VProc& vp, int pid) {
  switch (ev_) {
    case Ev::Spawn: {
      Tcb* child = ev_child_;
      Tcb* parent = vp.running;
      const std::uint64_t fork_t0 = vp.clock_ns;
      const double create_us = child->attr.bound ? opts_.cost.create_bound_us
                                                 : opts_.cost.create_unbound_us;
      vp.clock_ns += us_to_ns(create_us);
      vp.bd.thread_us += create_us;
      const double stack_us = sim_stack_acquire_us(child);
      vp.clock_ns += us_to_ns(stack_us);
      vp.bd.mem_us += stack_us;

      sched_lock_acquire(vp, pid);
      const bool preempt_parent = sched_->register_thread(parent, child);
      DFTH_REPLAY_COMMIT(::dfth::replay::EvKind::SpawnReg, parent->id,
                         child->id,
                         preempt_parent ? ::dfth::replay::kSpawnPreempt : 0);
      ++live_;
      ++stats_.threads_created;
      if (child->is_dummy) ++stats_.dummy_threads;
      live_events_.emplace_back(vp.clock_ns, +1);
      edges::on_fork_cost(child, vp.clock_ns - fork_t0);

      if (preempt_parent) {
        // AsyncDF / work stealing: the processor dives into the child.
        preempt(vp, pid, parent, obs::kPreemptForkDive);
        child->ready_at_ns = vp.clock_ns;
        vp.running = child;
        vp.clock_ns += us_to_ns(opts_.cost.ctx_switch_us);
        vp.bd.thread_us += opts_.cost.ctx_switch_us;
        loop_now_ns_ = vp.clock_ns;
        grant_dispatch(child, pid, ::dfth::replay::kDispatchForkDive);
        edges::on_dispatch(child, us_to_ns(opts_.cost.ctx_switch_us), std::nullopt);
      } else {
        // FIFO / LIFO: the child waits its turn; the parent continues.
        make_ready(child, vp.clock_ns, pid);
      }
      break;
    }

    case Ev::Exit: {
      Tcb* t = vp.running;
      const std::uint64_t exit_t0 = vp.clock_ns;
      sched_lock_acquire(vp, pid);
      sched_->unregister_thread(t);
      t->finished = true;
      t->state.store(ThreadState::Done, std::memory_order_relaxed);
      --live_;
      live_events_.emplace_back(vp.clock_ns, -1);
      context_finalize(&t->ctx);
      StackPool::instance().release(t->stack);
      t->stack = Stack{};
      sim_stack_release(t->attr.stack_size);
      loop_now_ns_ = vp.clock_ns;
      // Seals the span before the joiner wake below reads it.
      edges::on_exit(*this, t);
      DFTH_REPLAY_COMMIT(::dfth::replay::EvKind::ExitSched, t->id, t->id, 0);
      edges::on_overhead(t->id, vp.clock_ns - exit_t0);
      if (t->joiner) {
        Tcb* j = t->joiner;
        t->joiner = nullptr;
        wake(j);
      }
      vp.running = nullptr;
      tcbs_.release(t, Tcb::kExitRef);
      break;
    }

    case Ev::Block: {
      Tcb* t = vp.running;
      DFTH_CHECK(t->state.load(std::memory_order_relaxed) == ThreadState::Blocked);
      edges::on_block(*this, t);
      if (ev_guard_) ev_guard_->unlock();
      vp.running = nullptr;
      break;
    }

    case Ev::Yield:
    case Ev::QuotaPreempt:
    case Ev::OomPreempt: {
      Tcb* t = vp.running;
      const std::uint64_t pre_t0 = vp.clock_ns;
      vp.clock_ns += us_to_ns(opts_.cost.ctx_switch_us);
      vp.bd.thread_us += opts_.cost.ctx_switch_us;
      sched_lock_acquire(vp, pid);
      edges::on_overhead(t->id, vp.clock_ns - pre_t0);
      if (ev_ == Ev::QuotaPreempt) ++stats_.quota_preemptions;
      preempt(vp, pid, t,
              ev_ == Ev::QuotaPreempt  ? obs::kPreemptQuota
              : ev_ == Ev::OomPreempt ? obs::kPreemptOom
                                      : obs::kPreemptYield);
      vp.running = nullptr;
      break;
    }

    case Ev::SyncPause:
      // The fiber keeps its processor; nothing to do — the clock advance
      // from apply_pending() already reordered it among the processors.
      break;

    case Ev::None:
      DFTH_CHECK(false);
  }
}

std::vector<resil::FlightLane> SimEngine::flight_lanes() const {
  std::vector<resil::FlightLane> lanes;
  for (int i = 0; i < static_cast<int>(procs_.size()); ++i) {
    lanes.push_back({i, procs_[static_cast<std::size_t>(i)].running});
  }
  return lanes;
}

void SimEngine::report_deadlock() {
  // The dump's thread section lists every thread that has not exited. One
  // host thread: the snapshot is exact.
  dump_flight("SimEngine: deadlock — live threads but none runnable", true);
  DFTH_LOG_ERROR("dfth: DEADLOCK — %lld live threads, none runnable",
                 static_cast<long long>(live_));
  DFTH_CHECK_MSG(false, "deadlock detected in simulation");
}

}  // namespace dfth
