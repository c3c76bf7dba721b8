// Execution-engine interface. The public API in runtime/api.h dispatches
// every thread operation to the active engine:
//   * SimEngine — deterministic discrete-event model of a p-processor SMP
//     (runtime/sim_engine.h); regenerates the paper's measurements.
//   * RealEngine — kernel-thread workers multiplexing fibers
//     (runtime/real_engine.h); true concurrency for stress tests and for
//     the Figure 3 operation-cost microbenchmarks.
//
// Engine itself owns the clock-independent half of the thread lifecycle
// (runtime/engine.cpp): control-block creation, the spawn prologue, inline
// runs, the dispatch grant with its deadline rule, OOM quota halving, the
// timed-wait claim, the run scope and the flight dump. Each engine keeps its
// clock, its dispatch loop, its cost charging and its own locking around
// these helpers (DESIGN.md §3, "Engine split").
//
// Threading contract: engine methods are called from fiber context (user
// code) except run(), which is called from the host thread that owns the
// runtime for the duration of the run.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "resil/watchdog.h"
#include "runtime/api.h"
#include "runtime/run_stats.h"
#include "threads/tcb.h"
#include "threads/tcb_pool.h"
#include "util/spinlock.h"

namespace dfth {

class Engine {
 public:
  virtual ~Engine() = default;

  virtual EngineKind kind() const = 0;

  /// Executes `main_fn` as the main thread; returns when every thread
  /// (including detached ones) has exited.
  virtual RunStats run(const std::function<void()>& main_fn) = 0;

  // -- thread operations (fiber context) -----------------------------------
  virtual Tcb* current() = 0;
  /// `site_file`/`site_line` name the user-visible spawn call site (static
  /// storage duration) for the work/span profiler's attribution; the engine
  /// stores them on the child's Tcb before it can first run.
  virtual Tcb* spawn(std::function<void*()> fn, const Attr& attr, bool is_dummy,
                     const char* site_file = nullptr, int site_line = 0) = 0;
  virtual void* join(Tcb* t) = 0;
  virtual void yield() = 0;

  /// Drops the handle side of t's two references (threads/tcb_pool.h).
  /// runtime/api.cpp calls it once per spawned thread: after join has read
  /// the child, on detach, or at spawn for Attr::detached.
  void release_handle(Tcb* t) { tcbs_.release(t, Tcb::kHandleRef); }

  // -- synchronization support ----------------------------------------------
  /// Blocks the current fiber. The caller has already enqueued itself on a
  /// wait list and set its state to Blocked while holding `guard`; the
  /// engine releases `guard` only after the fiber's context is fully saved
  /// (so a concurrent wake() can never resume a half-saved context).
  virtual void block_current(SpinLock* guard) = 0;

  /// Makes a previously Blocked thread runnable again.
  virtual void wake(Tcb* t) = 0;

  /// Timed variant of block_current() for the sync timed-waits: the engine
  /// additionally arms a timer for `timeout_ns` (virtual ns in Sim,
  /// steady-clock ns in Real). If the timer fires before a waker pops the
  /// fiber from `list`, the engine removes it itself (the wait-list
  /// membership under `guard` is the claim token — exactly one of timer and
  /// waker wins), sets t->timed_out, and resumes the fiber. On return the
  /// caller inspects current()->timed_out to distinguish the two outcomes.
  virtual void block_current_timed(SpinLock* guard, WaitList* list,
                                   std::uint64_t timeout_ns) = 0;

  /// Charges the virtual cost of one uncontended sync operation (no-op in
  /// the real engine, where the cost is real).
  virtual void charge_sync_op() = 0;

  /// Engine-clock nanoseconds: the timebase for timed waits and for
  /// CancelToken::deadline_ns. Virtual ns in Sim, steady-clock ns in Real.
  virtual std::uint64_t now_ns() const = 0;

  // -- allocation accounting (called by df_malloc / df_free) -----------------
  virtual void on_alloc(std::size_t bytes, std::int64_t fresh_bytes) = 0;
  virtual void on_free(std::size_t bytes) = 0;
  /// True when the active scheduler bounds memory with per-scheduling quotas
  /// (AsyncDF); df_malloc then forks dummy threads for allocations > quota.
  bool uses_alloc_quota() const { return sched_->needs_quota(); }
  /// The *effective* quota K: starts at opts.mem_quota and shrinks when OOM
  /// recovery degrades the run toward serial order (shrink_quota).
  std::size_t quota_bytes() const {
    return eff_quota_.load(std::memory_order_relaxed);
  }

  /// Heap exhaustion recovery (df_malloc's retry loop). `attempt` counts
  /// failures for this one allocation, starting at 0. Returns true if the
  /// engine recovered enough to justify a retry — AsyncDF-style: treat OOM
  /// like quota exhaustion (preempt the fiber leftmost-ready, shrink the
  /// effective quota K so everyone allocates less per scheduling, back off)
  /// — or false to give up, surfacing DfStatus::kNoMem to the caller.
  virtual bool on_alloc_failed(std::size_t bytes, int attempt) = 0;

  // -- virtual-time annotations (no-ops in the real engine) -------------------
  virtual void add_work(std::uint64_t ops) = 0;
  virtual void touch(const std::uint32_t* block_ids, std::size_t count) = 0;

 protected:
  /// `pinned` is a replay session's scheduler, or null for the policy
  /// opts.sched names. `fiber_entry` is the engine's context entry point.
  Engine(const RuntimeOptions& opts, std::unique_ptr<Scheduler> pinned,
         void (*fiber_entry)(void*));

  /// Failed attempts one allocation may recover from (on_alloc_failed).
  static constexpr int kOomMaxAttempts = 16;

  /// A timed wait's timer entry: fires at deadline_ns (engine clock) unless
  /// a waker claimed t off `list` under `guard` first.
  struct Sleeper {
    std::uint64_t deadline_ns = 0;
    Tcb* t = nullptr;
    SpinLock* guard = nullptr;
    WaitList* list = nullptr;
  };

  /// Trace lane of the calling fiber context.
  virtual int lane() const = 0;
  /// The lanes and the fibers they run, for the flight dump.
  virtual std::vector<resil::FlightLane> flight_lanes() const = 0;
  /// The deadline-at-dispatch test: has t's cancel token passed its
  /// deadline on the engine clock? A replaying engine may answer from its
  /// log instead.
  virtual bool deadline_due(const Tcb* t, int lane);

  // -- lifecycle helpers ------------------------------------------------------
  /// A new control block: defaulted attr, `tid`, and — when `stack_bytes`
  /// is nonzero — a cached stack with a context at fiber_entry. A null
  /// t->stack then means no stack or context could be had (or the ctx.create
  /// fault site fired), and the caller runs the thread inline.
  Tcb* make_tcb(std::function<void*()> fn, const Attr& attr, bool is_dummy,
                std::uint64_t tid, std::size_t stack_bytes);
  /// Main-thread setup: nobody joins main, and it opens the profiler's span.
  void start_main(Tcb* main);
  /// Spawn prologue: parent link, inherited cancel scope, spawn site, race
  /// fork edge, graph recorder, and the Fork/DummySpawn trace event.
  void link_child(Tcb* child, Tcb* parent, const char* site_file, int site_line);
  /// Counts an inline-run spawn and audits it. Real holds its lock here.
  void count_inline_spawn(Tcb* parent, Tcb* child);
  /// Degraded spawn: the child got no stack, so it runs to completion right
  /// here on the caller's stack. The child precedes the parent's
  /// continuation in the serial depth-first order, so this is the
  /// 1-processor schedule — correct, just not parallel. The child is never
  /// registered with the scheduler and no joiner can exist yet.
  Tcb* run_inline(Tcb* child);
  /// The dispatch grant: t runs next on `lane` with a fresh quota K. Fires
  /// t's cancel token when deadline_due, then logs the Dispatch with
  /// `flags` (plus kDispatchDeadline when it fired). The caller holds
  /// whatever serializes dispatch decisions.
  void grant_dispatch(Tcb* t, int lane, std::uint64_t flags);
  /// One OOM-recovery round: audits and counts the preempt, then halves the
  /// effective quota K (floor 4096; K = 0 stays 0). Returns the new K.
  std::size_t shrink_quota(Tcb* cur);
  /// Checks block_current_timed's contract, clears t->timed_out and returns
  /// t's timer entry, due `timeout_ns` from now on the engine clock.
  Sleeper arm_timed_wait(Tcb* t, SpinLock* guard, WaitList* list,
                         std::uint64_t timeout_ns);
  /// The timed-wait claim token: removing s.t from s.list under s.guard.
  /// Exactly one of the timer and a waker wins; a timer win marks the waiter
  /// timed out and, given `log_actor`, is logged as that actor's
  /// TimeoutClaim inside the guard.
  bool claim_timeout(const Sleeper& s,
                     std::optional<std::uint64_t> log_actor = std::nullopt);
  /// Drops t's timer entry, if any.
  void cancel_sleeper(Tcb* t);
  /// Validate builds: a thread must not exit holding a lock.
  void audit_exit(const Tcb* t);

  /// Opens a run: new heap epoch, K reset to opts.mem_quota, the fault plan
  /// armed, the tracer (`trace_lanes` rings on `trace_clock`) and the
  /// profiler installed.
  void begin_run(int trace_lanes, std::function<std::uint64_t()> trace_clock);
  /// Closes it: fills the RunStats fields both engines share (the caller has
  /// set elapsed_us), uninstalls tracer and profiler, disarms the plan.
  RunStats end_run();
  /// Best-effort crash dump through resil::dump_flight_recorder, flushing a
  /// recorded schedule log so the failure replays.
  void dump_flight(const char* reason, bool sched_state_consistent);

  // Field order is cache layout. The pool's lock shares the first line with
  // the vtable pointer; the read-mostly fields that every spawn, dispatch
  // and df_malloc reads come next; the counters the engines write under
  // their scheduler lock come last, beside that lock.

  /// Every control block of this engine's run; engines acquire from it at
  /// spawn and drop the exit side after a thread's final switch.
  TcbPool tcbs_;
  RuntimeOptions opts_;
  std::unique_ptr<Scheduler> sched_;
  /// Effective allocation quota K (atomic: Real reads it without its lock).
  std::atomic<std::size_t> eff_quota_{0};

 private:
  void (*fiber_entry_)(void*);
  bool faults_armed_here_ = false;
  std::uint64_t faults_injected0_ = 0;
  std::uint64_t faults_recovered0_ = 0;

 protected:
  RunStats stats_;
  std::int64_t live_ = 0;
  std::vector<Sleeper> sleepers_;  ///< armed timed-wait timers
};

/// The active engine, or nullptr outside dfth::run(). Deliberately a
/// function (not a global) and never inlined: fibers migrate between kernel
/// threads in the real engine, and a compiler caching a thread-local read
/// across a context switch would read another worker's state.
Engine* engine();

namespace detail {
void set_engine(Engine* e);
}

}  // namespace dfth
