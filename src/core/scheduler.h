// Scheduler policy interface.
//
// A Scheduler decides *which* ready thread a processor runs next and *where*
// newly runnable threads are placed — exactly the component of the Solaris
// Pthreads library the paper modifies. Engines (runtime/) own all
// synchronization: every method here is called with the engine's scheduler
// lock held (the paper's implementation serializes its global queue with a
// lock as well, §6).
//
// Lifecycle contract, in terms of thread states (threads/tcb.h):
//  * register_thread(parent, child): child enters the system (placeholder
//    creation for AsyncDF). Called once per thread, before it first becomes
//    ready or running. Returns true if the policy wants the child to run
//    IMMEDIATELY on the spawning processor, preempting the parent (AsyncDF
//    and work-first work stealing); the engine then marks the parent Ready
//    and calls on_ready(parent) — the child never visits the ready set.
//    Returns false for FIFO/LIFO: the engine calls on_ready(child) and the
//    parent keeps running.
//  * on_ready(t, proc): t became runnable (spawned-not-run, unblocked,
//    yielded, or quota-preempted) — enter the ready structure.
//  * pick_next(proc, now, earliest): remove and return the policy's choice
//    among ready threads with ready_at_ns <= now (virtual-time causality for
//    the simulator; the real engine passes now = UINT64_MAX). When nothing
//    is eligible, returns nullptr and stores the smallest ready_at_ns of any
//    ready thread into *earliest (UINT64_MAX if the ready set is empty).
//  * unregister_thread(t): t exited — drop its placeholder.
//
// Priorities: levels are strictly ordered; within a level the policy
// applies. (The paper proposes exactly this: their scheduler implements
// SCHED_OTHER and coexists with the prioritized SCHED_FIFO/SCHED_RR.)
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "threads/tcb.h"

namespace dfth {

enum class SchedKind {
  Fifo,         ///< stock Solaris SCHED_OTHER: global FIFO queue (breadth-first)
  Lifo,         ///< §4 item 1: global LIFO stack (≈ depth-first)
  AsyncDf,      ///< §4 item 2: the paper's space-efficient scheduler
  WorkSteal,    ///< Cilk-style per-processor deques (baseline from §2.1)
  ClusteredAdf, ///< §6 future work: per-SMP AsyncDF queues with migration
  DfDeques,     ///< §5.3 "current work": locality-aware ordered deques
};

const char* to_string(SchedKind kind);
SchedKind sched_kind_from_string(const std::string& name);

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  virtual SchedKind kind() const = 0;

  /// True for policies that bound memory with a per-scheduling quota
  /// (AsyncDF). The engine then resets t->quota on each dispatch and
  /// preempts on exhaustion; df_malloc inserts dummy threads for
  /// allocations larger than the quota.
  virtual bool needs_quota() const { return false; }

  virtual bool register_thread(Tcb* parent, Tcb* child) = 0;
  virtual void on_ready(Tcb* t, int proc) = 0;
  virtual Tcb* pick_next(int proc, std::uint64_t now, std::uint64_t* earliest) = 0;
  virtual void unregister_thread(Tcb* t) = 0;

  /// Number of threads currently in the ready structure (stats/tests).
  virtual std::size_t ready_count() const = 0;

  /// Threads taken from another processor's deque (RunStats::steals); zero
  /// for the policies without per-processor deques.
  virtual std::uint64_t steal_count() const { return 0; }

  /// The concrete policy object, unwrapping any validation decorator
  /// (DFTH_VALIDATE builds wrap every policy in analyze::AuditedScheduler);
  /// diagnostics dynamic_cast this for policy-specific state.
  virtual Scheduler* underlying() { return this; }

  /// Serialization domain of a processor's queue operations: the simulator
  /// models one scheduler lock per domain. The single-list schedulers all
  /// share domain 0 (the paper's serialized global lock, §6); the clustered
  /// scheduler returns the processor's cluster.
  virtual int lock_domain(int proc) const {
    (void)proc;
    return 0;
  }
};

/// Factory. `nprocs`/`seed` matter only to work stealing (deque count and
/// victim selection); `cluster_size` only to the clustered scheduler.
std::unique_ptr<Scheduler> make_scheduler(SchedKind kind, int nprocs,
                                          std::uint64_t seed,
                                          int cluster_size = 4);

}  // namespace dfth
