// RealEngine: user-level threads multiplexed over kernel-thread workers —
// the two-level Solaris model (unbound Pthreads over LWPs) built for real.
//
// nprocs kernel threads ("LWPs") each run a dispatch loop; unbound fibers
// are handed out by the pluggable Scheduler under one global mutex (the
// same serialized-scheduler structure as the paper's library, §6). Bound
// threads (Attr::bound) get a dedicated kernel thread and bypass the
// scheduler entirely, exactly like bound Solaris threads.
//
// This engine provides true concurrency for the synchronization stress
// tests, real microsecond costs for the Figure 3 microbenchmark, and the
// wall-clock runs of dfbench. Its speedup is bounded by the host's cores;
// SimEngine reproduces the paper's processor counts in virtual time, and
// oversubscribed workers still exercise every race.
//
// Blocking protocol (the classic save-before-publish problem): a fiber that
// blocks or is preempted never publishes itself as resumable directly.
// It records a post-switch action and switches to the worker's context; the
// worker — running strictly after the fiber's state is saved — performs the
// action (release a spinlock, requeue the fiber, free an exited fiber's
// stack). A fiber can therefore never be resumed by another worker while
// its context is half-saved.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "runtime/api.h"
#include "runtime/engine.h"

namespace dfth {

class RealEngine final : public Engine {
 public:
  explicit RealEngine(const RuntimeOptions& opts);
  ~RealEngine() override;

  EngineKind kind() const override { return EngineKind::Real; }
  RunStats run(const std::function<void()>& main_fn) override;

  Tcb* current() override;
  Tcb* spawn(std::function<void*()> fn, const Attr& attr, bool is_dummy,
             const char* site_file, int site_line) override;
  void* join(Tcb* t) override;
  void yield() override;
  void block_current(SpinLock* guard) override;
  void block_current_timed(SpinLock* guard, WaitList* list,
                           std::uint64_t timeout_ns) override;
  void wake(Tcb* t) override;
  void charge_sync_op() override {}
  std::uint64_t now_ns() const override;
  void on_alloc(std::size_t bytes, std::int64_t fresh_bytes) override;
  void on_free(std::size_t bytes) override;
  bool on_alloc_failed(std::size_t bytes, int attempt) override;
  void add_work(std::uint64_t ops) override { (void)ops; }
  void touch(const std::uint32_t* block_ids, std::size_t count) override {
    (void)block_ids;
    (void)count;
  }

 private:
  enum class Post : std::uint8_t {
    None,
    ReleaseGuard,   ///< unlock post_guard (fiber blocked on a wait list)
    Requeue,        ///< make post_fiber Ready again (yield / quota preempt)
    RunNext,        ///< requeue post_fiber, then run post_next directly
    ExitCleanup,    ///< post_fiber exited: release its stack and block
  };

  struct Worker {
    int id = 0;
    Context ctx;             ///< dispatch-loop context
    Tcb* current = nullptr;  ///< fiber this worker is executing
    Post post = Post::None;
    Tcb* post_fiber = nullptr;
    Tcb* post_next = nullptr;
    SpinLock* post_guard = nullptr;
    /// Steady-clock start of the slice the worker is currently running; the
    /// work/span profiler charges `now - slice_start_ns` when the fiber
    /// switches back (and uses it as the uncharged offset on edges taken
    /// from inside the slice). Maintained only while a profiler is installed.
    std::uint64_t slice_start_ns = 0;
    /// Steady-clock instant the worker last finished a slice; the next
    /// dispatch reads it as its dispatch-gap measurement.
    std::uint64_t idle_since_ns = 0;
    std::thread thread;
  };

  static void fiber_entry(void* arg);
  static Worker* this_worker();

  /// Worker lane, or the shared lane nprocs for bound threads and
  /// engine-external callers.
  int lane() const override;
  std::vector<resil::FlightLane> flight_lanes() const override;
  /// In a pinned replay the recorded Dispatch flags win over the live clock
  /// — wall time drifts between runs, and the flag is the one place the
  /// expire-or-not race is logged. Called with mu_ held, immediately before
  /// the Dispatch commit.
  bool deadline_due(const Tcb* t, int lane) override;
  /// make_tcb with a replay-ordered tid and a stack of at least
  /// kRealStackFloor (none for bound threads).
  Tcb* make_fiber(std::function<void*()> fn, const Attr& attr, bool is_dummy);
  void worker_loop(Worker& w);
  void run_fiber(Worker& w, Tcb* t);
  void handle_post(Worker& w);
  void enqueue_ready(Tcb* t, int proc_hint);
  void start_bound_thread(Tcb* t);
  void finish_thread(Tcb* t);  ///< shared exit bookkeeping (fiber + bound)

  /// Timer + stall-watchdog thread: fires due sleepers and aborts with a
  /// flight-recorder dump when no dispatch progress happens for longer than
  /// WatchdogConfig::stall_deadline_ms.
  void supervisor_loop();
  /// Fires sleepers_[i]: claims its waiter off the wait list and readies
  /// it. Called with `lk` (sup_mu_) held; drops it around the claim and the
  /// wake. Returns whether the timer won the claim.
  bool fire_sleeper(std::unique_lock<std::mutex>& lk, std::size_t i);
  /// Fires every due sleeper. Called with `lk` (sup_mu_) held.
  void fire_due_sleepers(std::unique_lock<std::mutex>& lk);
  /// Replay-pinned variant: fires a sleeper exactly when the schedule log's
  /// next ordered decision is the timer's TimeoutClaim for it — wall-clock
  /// deadlines are ignored, the recorded timer-vs-waker race outcome is
  /// what's honored. Free-runs via fire_due_sleepers once the log ends.
  void replay_fire_sleepers(std::unique_lock<std::mutex>& lk);

  std::mutex mu_;                 ///< the global scheduler lock; also
                                  ///< guards live_ and stats_ counters
  std::condition_variable cv_;    ///< workers: "ready work exists" / shutdown
  std::condition_variable done_cv_;  ///< host thread in run(): completion.
                                     ///< Separate from cv_ so a notify_one
                                     ///< meant for a worker can never be
                                     ///< swallowed by the waiting host.
  bool done_ = false;
  std::int64_t bound_live_ = 0;
  int idle_workers_ = 0;
  // Atomic: make_tcb runs in the spawning fiber before it takes mu_, so
  // concurrent spawns on different workers allocate ids in parallel.
  std::atomic<std::uint64_t> next_tid_{1};

  std::vector<Worker> workers_;
  std::vector<std::thread> bound_threads_;  ///< guarded by mu_

  // -- supervisor (timed waits + stall watchdog) ----------------------------
  std::mutex sup_mu_;                 ///< guards sleepers_, firing_, sup_stop_
  std::condition_variable sup_cv_;
  Tcb* firing_ = nullptr;             ///< sleeper whose fire is in flight
  bool sup_stop_ = false;
  std::thread supervisor_;
  /// Monotonic dispatch/wake/exit counter; the watchdog trips when it stops
  /// moving while live work remains.
  std::atomic<std::uint64_t> progress_{0};
};

}  // namespace dfth
