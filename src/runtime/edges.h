// The edge spine: one inline function per edge of the fork/join/sync DAG.
//
// Every place the runtime crosses an edge — fork, join, wake, block, exit,
// alloc/free, stack acquire, ready push/pop, steal, dispatch, and each sync
// acquire/release — makes exactly one call here, and the call fans out to
// the installed consumers in one fixed order:
//
//   1. race detector        (analyze/race_detector.h; -DDFTH_RACE builds)
//   2. lock graph, auditor  (analyze/lock_graph.h, analyze/auditor.h;
//                            -DDFTH_VALIDATE builds)
//   3. profiler             (obs/profile.h; when a Profiler is installed)
//   4. tracer, counters and histograms
//                           (obs/trace.h, obs/counters.h; when a Tracer is
//                            installed)
//   5. graph recorder       (graph/recorder.h; when a Recorder is attached)
//
// Each consumer has exactly one gate, and it lives here: `if constexpr` on
// the build's analyzer switch (analyze::race_enabled, validate_enabled) for
// the analyzers, a run-time pointer test for the rest. With nothing
// installed an edge costs one load and one branch per run-time gate. No
// argument is computed, no clock is read and no virtual Engine call is made
// outside the gate of the consumer that needs it — which is why most edges
// take the Engine and look values up themselves.
//
// Record/replay is deliberately not a consumer: its gates and commits must
// sit inside the critical section that orders each decision, so they stay
// explicit at the call sites (DESIGN.md §11). The one exception is the steal
// annotation, which is recorded inside the scheduler's pick and never gated.
//
// Sync placement contract (matters only under the RealEngine, where fibers
// run on concurrent kernel threads): release-side edges and fast-path
// acquire-side edges run while the sync object's guard_ spinlock is held, so
// a releaser's clock is always recorded before the next acquirer reads it.
// A blocked acquirer runs its edge after Engine::block_current returns,
// which the wake protocol already orders after the releaser's edge. Lock
// order: object guard_ → analyzer mutex; no analyzer ever takes a guard.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>

#include "analyze/auditor.h"
#include "analyze/lock_graph.h"
#include "analyze/race_detector.h"
#include "graph/recorder.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "replay/session.h"
#include "runtime/engine.h"

namespace dfth::edges {

/// How a sync object orders its acquirers after its releasers.
enum class Mode : std::uint8_t {
  kExcl,     ///< Mutex, RwLock write side: lock-graph tracked; a writer also
             ///< orders after every reader since the last write (a Mutex
             ///< never publishes a read side, so that join is empty there)
  kShared,   ///< RwLock read side: lock-graph tracked; readers order after
             ///< the last writer, not after each other
  kSem,      ///< Semaphore V→P and Once run→observe
  kCv,       ///< CondVar signal→wakeup
  kBarrier,  ///< all-to-all per generation `gen`
};

inline constexpr bool kRace = analyze::race_enabled();
inline constexpr bool kValidate = analyze::validate_enabled();

namespace detail {

/// The thread running the caller, or nullptr outside a run or a thread.
inline Tcb* self() {
  Engine* e = engine();
  return e ? e->current() : nullptr;
}

inline std::uint64_t id_of(const Tcb* t) { return t ? t->id : 0; }

/// True when `now` is a real instant at or after `ready_ns` (RealEngine
/// picks with now == uint64 max, and a reused Tcb's ready stamp may be stale).
inline bool waited(std::uint64_t now, std::uint64_t ready_ns) {
  return now != std::numeric_limits<std::uint64_t>::max() && now >= ready_ns;
}

}  // namespace detail

// -- thread lifecycle --------------------------------------------------------

/// Run start: fiber ids restart per run, so stale happens-before state from
/// a prior run must not leak into this one (accumulated reports are kept).
inline void on_run_start() {
  if constexpr (kRace) analyze::RaceDetector::instance().begin_run();
}

/// Fork edge parent → child. The caller has linked child->parent and the
/// spawn site. The child inherits the parent's span as of now (the parent's
/// uncharged work is Engine::span_offset_ns). The root thread has no fork
/// event and no incoming graph edge.
inline void on_fork(Engine& e, Tcb* child) {
  Tcb* parent = child->parent;
  if constexpr (kRace) analyze::RaceDetector::instance().on_thread_start(child, parent);
  if (obs::Profiler* pr = obs::profiler()) {
    pr->thread_start(child->id, detail::id_of(parent), parent ? e.span_offset_ns() : 0,
                     child->site_file, child->site_line);
  }
  if (child->is_main) return;
  if (obs::Tracer* tr = obs::tracer()) {
    tr->emit(e.lane(), child->is_dummy ? obs::EvKind::DummySpawn : obs::EvKind::Fork,
             detail::id_of(parent), child->id);
  }
  if (Recorder* rec = active_recorder()) rec->on_thread_start(child->id, detail::id_of(parent));
}

/// A degraded spawn runs `child` inline on `parent`'s stack.
inline void on_inline_run(Tcb* parent, Tcb* child) {
  if constexpr (kValidate) {
    if (auto* aud = analyze::active_auditor()) aud->on_inline_run(parent, child);
  }
}

/// Join edge child-exit → the current thread, once `child` has finished.
/// Everything the child (and its whole joined subtree) did happens-before
/// the joiner's continuation.
inline void on_join(Engine& e, Tcb* child) {
  if constexpr (kRace) {
    if (Tcb* joiner = e.current()) analyze::RaceDetector::instance().on_join(joiner, child);
  }
  if (obs::Profiler* pr = obs::profiler()) {
    pr->join_edge(detail::id_of(e.current()), child->id, e.span_offset_ns());
  }
  if (obs::Tracer* tr = obs::tracer()) {
    tr->emit(e.lane(), obs::EvKind::Join, detail::id_of(e.current()), child->id);
  }
  if (Recorder* rec = active_recorder()) rec->on_join(child->id, detail::id_of(e.current()));
}

/// `t` is about to block (join or sync object).
inline void on_block(Engine& e, const Tcb* t) {
  if (obs::Tracer* tr = obs::tracer()) tr->emit(e.lane(), obs::EvKind::Block, t->id, 0);
}

/// Wake edge: the current thread (the waker; none on an engine-external
/// caller) makes `wakee` runnable. The wakee's span becomes at least the
/// waker's — the same edge the race detector orders through the object.
inline void on_wake(Engine& e, const Tcb* wakee) {
  if (obs::Profiler* pr = obs::profiler()) {
    if (const Tcb* waker = e.current()) pr->wake_edge(waker->id, wakee->id, e.span_offset_ns());
  }
  if (obs::Tracer* tr = obs::tracer()) {
    tr->emit(e.lane(), obs::EvKind::Wake, wakee->id, detail::id_of(e.current()));
  }
}

/// A timed wait's timer claimed `t`: runnable again, ordered after nobody.
inline void on_timeout(Engine& e, const Tcb* t) {
  if (obs::Tracer* tr = obs::tracer()) tr->emit(e.lane(), obs::EvKind::Wake, t->id, 0);
}

/// `t` finished: it must hold no lock, and its span is final.
inline void on_exit(Engine& e, const Tcb* t) {
  if constexpr (kValidate) {
    if (auto* aud = analyze::active_auditor()) aud->on_exit(t);
  }
  if (obs::Profiler* pr = obs::profiler()) pr->exit_fiber(t->id, 0);
  if (obs::Tracer* tr = obs::tracer()) tr->emit(e.lane(), obs::EvKind::Exit, t->id, 0);
}

// -- profiler charges ----------------------------------------------------------
// The RealEngine reads its slice clock only under obs::profiler(); these
// re-check the gate, which keeps them the profiler's only entry points.

/// `ns` of pure fiber time ran on `tid`: work and span advance.
inline void on_work(std::uint64_t tid, std::uint64_t ns) {
  if (obs::Profiler* pr = obs::profiler()) pr->work(tid, ns);
}

/// `ns` of lane-side scheduler time not tied to a dispatch.
inline void on_overhead(std::uint64_t tid, std::uint64_t ns) {
  if (obs::Profiler* pr = obs::profiler()) pr->overhead(tid, ns);
}

/// Creation cost of `child` (create + stack): overhead that burdens it.
inline void on_fork_cost(const Tcb* child, std::uint64_t ns) {
  if (obs::Profiler* pr = obs::profiler()) pr->fork_cost(child->id, ns);
}

/// Dispatch of `t` after `overhead_ns` of lock + switch. A queue-served
/// dispatch passes the lane's idle gap before it; a fork dive has none.
inline void on_dispatch(const Tcb* t, std::uint64_t overhead_ns,
                        std::optional<std::uint64_t> gap_ns) {
  if (obs::Profiler* pr = obs::profiler()) pr->dispatch(t->id, overhead_ns, gap_ns.value_or(0));
  if (gap_ns && obs::tracer()) obs::histograms().record(obs::Hist::DispatchGapNs, *gap_ns);
}

// -- space -------------------------------------------------------------------

/// `t` got a stack of `bytes`: freshly mapped, or reused from the cache.
inline void on_stack(Engine& e, const Tcb* t, bool fresh, std::size_t bytes) {
  if (obs::Tracer* tr = obs::tracer()) {
    tr->emit(e.lane(), fresh ? obs::EvKind::StackFresh : obs::EvKind::StackReuse, t->id, bytes);
  }
}

/// The current thread df_malloc'ed (`bytes` > 0, after any δ dummy
/// threads) or df_free'd (`bytes` < 0) tracked memory.
inline void on_heap(Engine& e, std::int64_t bytes) {
  const auto size = static_cast<std::size_t>(bytes < 0 ? -bytes : bytes);
  if constexpr (kValidate) {
    if (auto* aud = analyze::active_auditor(); aud && bytes > 0 && e.uses_alloc_quota()) {
      aud->on_alloc(e.current(), size, e.quota_bytes());
    }
  }
  if (obs::Tracer* tr = obs::tracer(); tr && size >= tr->config().alloc_event_min_bytes) {
    tr->emit(e.lane(), bytes > 0 ? obs::EvKind::Alloc : obs::EvKind::Free,
             detail::id_of(e.current()), size);
  }
  if (Recorder* rec = active_recorder()) rec->on_alloc(detail::id_of(e.current()), bytes);
}

/// Heap exhaustion preempted `t`; its re-dispatch opens a fresh window.
inline void on_oom_preempt(Tcb* t) {
  if constexpr (kValidate) {
    if (auto* aud = analyze::active_auditor()) aud->on_oom_preempt(t);
  }
}

// -- annotations ---------------------------------------------------------------

/// A df_read (`write` false) or df_write annotation by the current thread.
inline void on_access(const void* p, std::size_t bytes, const char* site, bool write) {
  if constexpr (kRace) {
    if (Tcb* t = detail::self()) {
      auto& rd = analyze::RaceDetector::instance();
      write ? rd.on_write(t, p, bytes, site) : rd.on_read(t, p, bytes, site);
    }
  }
}

/// annotate_work(ops) by the current thread: graph segment weight.
inline void on_annotated_work(std::uint64_t ops) {
  if (Recorder* rec = active_recorder()) rec->on_work(detail::id_of(detail::self()), ops);
}

// -- scheduler ready set -----------------------------------------------------

/// A scheduler's on_ready() queued a thread.
inline void on_ready_push() {
  if (obs::tracer()) obs::counters().inc(obs::Counter::ReadyPushes);
}

/// A scheduler's pick took `t` off a ready set at `now`.
inline void on_ready_pop(const Tcb* t, std::uint64_t now) {
  if (!obs::tracer()) return;
  obs::counters().inc(obs::Counter::ReadyPops);
  if (detail::waited(now, t->ready_at_ns)) {
    obs::histograms().record(obs::Hist::ReadyWaitNs, now - t->ready_at_ns);
  }
}

/// Lane `proc` stole `t` from `victim` (a processor, cluster or deque
/// owner) at `now`. The steal latency burdens the stolen thread's critical
/// path: an ideal scheduler would have run it the instant it became ready.
inline void on_steal(int proc, const Tcb* t, std::uint64_t victim, std::uint64_t now) {
  const bool waited = detail::waited(now, t->ready_at_ns);  // two compares
  if (obs::Profiler* pr = obs::profiler(); pr && waited) pr->steal(t->id, now - t->ready_at_ns);
  if (obs::Tracer* tr = obs::tracer()) {
    on_ready_pop(t, now);
    obs::counters().inc(obs::Counter::Steals);
    tr->emit(proc, obs::EvKind::Steal, t->id, victim);
    if (waited) obs::histograms().record(obs::Hist::StealLatencyNs, now - t->ready_at_ns);
  }
  if (auto* rs = replay::active()) rs->annotate_steal(proc, t->id, victim);
}

// -- sync objects --------------------------------------------------------------
// The acting thread is the current one; the analyzers look it up inside
// their own gates, so a build without them passes nothing but `obj`.

/// The current thread acquired `obj` (a barrier: left generation `gen`).
inline void on_acquire(const void* obj, Mode m, std::uint64_t gen = 0) {
  if constexpr (kRace || kValidate) {
    Tcb* t = detail::self();
    if (!t) return;
    if constexpr (kRace) {
      auto& rd = analyze::RaceDetector::instance();
      switch (m) {
        case Mode::kExcl: rd.on_wr_acquire(t, obj); break;
        case Mode::kShared: rd.on_rd_acquire(t, obj); break;
        case Mode::kSem:
        case Mode::kCv: rd.on_acquire(t, obj); break;
        case Mode::kBarrier: rd.on_barrier_leave(t, obj, gen); break;
      }
    }
    if constexpr (kValidate) {
      if (m == Mode::kExcl) analyze::LockGraph::instance().on_acquire(t, obj);
      if (m == Mode::kShared) analyze::LockGraph::instance().on_acquire_shared(t, obj);
    }
  }
}

/// The current thread released `obj` (a barrier: arrived at generation
/// `gen`, `last` when the arrival completes it).
inline void on_release(const void* obj, Mode m, std::uint64_t gen = 0, bool last = false) {
  if constexpr (kRace || kValidate) {
    Tcb* t = detail::self();
    if (!t) return;
    if constexpr (kRace) {
      auto& rd = analyze::RaceDetector::instance();
      switch (m) {
        case Mode::kShared: rd.on_rd_release(t, obj); break;
        case Mode::kBarrier: rd.on_barrier_arrive(t, obj, gen, last); break;
        case Mode::kExcl:
        case Mode::kSem:
        case Mode::kCv: rd.on_release(t, obj); break;
      }
    }
    if constexpr (kValidate) {
      if (m == Mode::kExcl || m == Mode::kShared) analyze::LockGraph::instance().on_release(t, obj);
    }
  }
}

}  // namespace dfth::edges
