#include "runtime/sync.h"

#include "resil/faults.h"
#include "runtime/engine.h"
#include "util/check.h"

// Lockset hooks (analyze/lock_graph.h): every acquire/release of a Mutex or
// RwLock — write *and* read mode, since a shared hold blocks the next writer
// under the writer-preferring discipline — is reported to the global
// lock-order graph in DFTH_VALIDATE builds; release builds compile the hooks
// away entirely.
#if DFTH_VALIDATE
#include "analyze/lock_graph.h"
#define DFTH_LOCK_ACQUIRED(t, l) ::dfth::analyze::LockGraph::instance().on_acquire((t), (l))
#define DFTH_LOCK_ACQUIRED_SHARED(t, l) \
  ::dfth::analyze::LockGraph::instance().on_acquire_shared((t), (l))
#define DFTH_LOCK_RELEASED(t, l) ::dfth::analyze::LockGraph::instance().on_release((t), (l))
#else
#define DFTH_LOCK_ACQUIRED(t, l) ((void)0)
#define DFTH_LOCK_ACQUIRED_SHARED(t, l) ((void)0)
#define DFTH_LOCK_RELEASED(t, l) ((void)0)
#endif

// Happens-before hooks (analyze/race_hooks.h, -DDFTH_RACE builds): every
// primitive publishes release→acquire edges to the race detector. See the
// placement contract in race_hooks.h — release-side and fast-path
// acquire-side hooks run under the object's guard_.
#include "analyze/race_hooks.h"

// Record/replay hooks (replay/hooks.h): every guard_
// critical section is one ordered decision. The SYNC_GATE runs before
// guard_.lock() (no instrumented lock held), the SYNC_COMMIT runs inside the
// section, immediately after the acquire — so the log captures exactly the
// order in which fibers won each object's guard, which is the only
// nondeterminism these primitives have (everything else is a deterministic
// function of that order plus the wait-list FIFO discipline).
#include "replay/hooks.h"

#define DFTH_SYNC_SECTION(op)                             \
  DFTH_REPLAY_SYNC_GATE();                                \
  guard_.lock();                                          \
  DFTH_REPLAY_SYNC_COMMIT(this, ::dfth::replay::SyncOp::op)

namespace dfth {
namespace {

Engine* checked_engine() {
  Engine* e = engine();
  DFTH_CHECK_MSG(e, "synchronization primitive used outside dfth::run");
  return e;
}

}  // namespace

// Destructors only unbind the object from the record/replay schedule log:
// arena-per-phase apps destroy a whole tree of primitives and rebuild at the
// recycled addresses, and a stale address→id binding would name the new
// object with its corpse's id (record and replay recycle memory in different
// orders, so the conflation diverges). Destroying a primitive with waiters
// is still UB, exactly as for pthreads.
Mutex::~Mutex() { DFTH_REPLAY_SYNC_DESTROY(this); }
CondVar::~CondVar() { DFTH_REPLAY_SYNC_DESTROY(this); }
Semaphore::~Semaphore() { DFTH_REPLAY_SYNC_DESTROY(this); }
Barrier::~Barrier() { DFTH_REPLAY_SYNC_DESTROY(this); }
RwLock::~RwLock() { DFTH_REPLAY_SYNC_DESTROY(this); }

// -- Mutex --------------------------------------------------------------------

void Mutex::lock() {
  Engine* e = checked_engine();
  e->charge_sync_op();
  DFTH_SYNC_SECTION(MutexLock);
  Tcb* cur = e->current();
  if (owner_ == nullptr) {
    owner_ = cur;
    DFTH_RACE_ACQUIRE(cur, this);
    guard_.unlock();
    DFTH_LOCK_ACQUIRED(cur, this);
    return;
  }
  DFTH_CHECK_MSG(owner_ != cur, "recursive Mutex::lock");
  waiters_.push(cur);
  cur->state.store(ThreadState::Blocked, std::memory_order_relaxed);
  e->block_current(&guard_);
  // unlock() handed ownership to us before waking (and recorded its release
  // clock under the guard, so this acquire needs no guard).
  DFTH_RACE_ACQUIRE(cur, this);
  DFTH_LOCK_ACQUIRED(cur, this);
}

bool Mutex::try_lock_for(std::uint64_t timeout_ns) {
  Engine* e = checked_engine();
  e->charge_sync_op();
  if (DFTH_FAULT_SHOULD_FAIL(resil::FaultSite::kSyncTimeout)) {
    // Injected immediate timeout; the caller's timeout path absorbs it.
    DFTH_FAULT_RECOVERED(resil::FaultSite::kSyncTimeout);
    return false;
  }
  DFTH_SYNC_SECTION(MutexTryLockFor);
  Tcb* cur = e->current();
  if (owner_ == nullptr) {
    owner_ = cur;
    DFTH_RACE_ACQUIRE(cur, this);
    guard_.unlock();
    DFTH_LOCK_ACQUIRED(cur, this);
    return true;
  }
  DFTH_CHECK_MSG(owner_ != cur, "recursive Mutex::try_lock_for");
  waiters_.push(cur);
  cur->state.store(ThreadState::Blocked, std::memory_order_relaxed);
  e->block_current_timed(&guard_, &waiters_, timeout_ns);
  const bool timed_out = cur->timed_out;
  cur->timed_out = false;
  if (timed_out) return false;
  // unlock() handed ownership to us before waking; the timer lost the claim
  // (we were already off the wait list), so only this path takes the
  // release→acquire edge — the race detector stays schedule-insensitive.
  DFTH_RACE_ACQUIRE(cur, this);
  DFTH_LOCK_ACQUIRED(cur, this);
  return true;
}

bool Mutex::try_lock() {
  Engine* e = checked_engine();
  e->charge_sync_op();
  DFTH_SYNC_SECTION(MutexTryLock);
  if (owner_ != nullptr) {
    guard_.unlock();
    return false;
  }
  owner_ = e->current();
  DFTH_RACE_ACQUIRE(owner_, this);
  guard_.unlock();
  DFTH_LOCK_ACQUIRED(e->current(), this);
  return true;
}

void Mutex::unlock() {
  Engine* e = checked_engine();
  e->charge_sync_op();
  DFTH_SYNC_SECTION(MutexUnlock);
  DFTH_CHECK_MSG(owner_ == e->current(), "Mutex::unlock by non-owner");
  DFTH_RACE_RELEASE(e->current(), this);
  Tcb* next = waiters_.pop();
  owner_ = next;  // direct handoff keeps the queue FIFO-fair
  guard_.unlock();
  DFTH_LOCK_RELEASED(e->current(), this);
  if (next) e->wake(next);
}

// -- CondVar --------------------------------------------------------------------

void CondVar::wait(Mutex& m) {
  Engine* e = checked_engine();
  e->charge_sync_op();
  Tcb* cur = e->current();
  DFTH_CHECK_MSG(m.held_by(cur), "CondVar::wait caller does not hold the mutex");
  // The m.unlock() below commits its own nested MutexUnlock while this
  // CvWait section still holds guard_ — safe: no other actor's event on this
  // CondVar can sit between the two in the log (it would have needed guard_).
  DFTH_SYNC_SECTION(CvWait);
  waiters_.push(cur);
  cur->state.store(ThreadState::Blocked, std::memory_order_relaxed);
  // Release the user mutex only after we are on the wait list (we still hold
  // guard_, so a signaler cannot pop-and-wake us before we finish blocking —
  // no lost-wakeup window).
  m.unlock();
  e->block_current(&guard_);
  // Re-fetch the engine: we may resume on another kernel thread.
  engine()->current();  // (no-op read; documents the refetch discipline)
  // signal()/broadcast() recorded the signaler's clock before waking us.
  DFTH_RACE_ACQUIRE(cur, this);
  m.lock();
}

bool CondVar::timed_wait(Mutex& m, std::uint64_t timeout_ns) {
  Engine* e = checked_engine();
  e->charge_sync_op();
  Tcb* cur = e->current();
  DFTH_CHECK_MSG(m.held_by(cur),
                 "CondVar::timed_wait caller does not hold the mutex");
  if (DFTH_FAULT_SHOULD_FAIL(resil::FaultSite::kSyncTimeout)) {
    // Injected immediate timeout: the mutex is never released, exactly as
    // if the deadline expired before the wait began.
    DFTH_FAULT_RECOVERED(resil::FaultSite::kSyncTimeout);
    return false;
  }
  DFTH_SYNC_SECTION(CvTimedWait);
  waiters_.push(cur);
  cur->state.store(ThreadState::Blocked, std::memory_order_relaxed);
  m.unlock();
  e->block_current_timed(&guard_, &waiters_, timeout_ns);
  const bool timed_out = cur->timed_out;
  cur->timed_out = false;
  // Only a genuine signal carries the signaler's release→acquire edge; a
  // timeout synchronizes with nobody.
  if (!timed_out) DFTH_RACE_ACQUIRE(cur, this);
  m.lock();
  return !timed_out;
}

void CondVar::signal() {
  Engine* e = checked_engine();
  e->charge_sync_op();
  DFTH_SYNC_SECTION(CvSignal);
  DFTH_RACE_RELEASE(e->current(), this);
  Tcb* t = waiters_.pop();
  guard_.unlock();
  if (t) e->wake(t);
}

void CondVar::broadcast() {
  Engine* e = checked_engine();
  e->charge_sync_op();
  DFTH_SYNC_SECTION(CvBroadcast);
  DFTH_RACE_RELEASE(e->current(), this);
  WaitList woken;
  while (Tcb* t = waiters_.pop()) woken.push(t);
  guard_.unlock();
  while (Tcb* t = woken.pop()) e->wake(t);
}

// -- Semaphore ----------------------------------------------------------------

void Semaphore::acquire() {
  Engine* e = checked_engine();
  e->charge_sync_op();
  DFTH_SYNC_SECTION(SemAcquire);
  Tcb* cur = e->current();
  if (count_ > 0) {
    --count_;
    DFTH_RACE_ACQUIRE(cur, this);
    guard_.unlock();
    return;
  }
  waiters_.push(cur);
  cur->state.store(ThreadState::Blocked, std::memory_order_relaxed);
  e->block_current(&guard_);
  // release() transferred one unit directly to us (V→P edge recorded under
  // the guard before the wake).
  DFTH_RACE_ACQUIRE(cur, this);
}

bool Semaphore::try_acquire() {
  Engine* e = checked_engine();
  e->charge_sync_op();
  DFTH_SYNC_SECTION(SemTryAcquire);
  const bool ok = count_ > 0;
  if (ok) {
    --count_;
    DFTH_RACE_ACQUIRE(e->current(), this);
  }
  guard_.unlock();
  return ok;
}

bool Semaphore::try_acquire_for(std::uint64_t timeout_ns) {
  Engine* e = checked_engine();
  e->charge_sync_op();
  if (DFTH_FAULT_SHOULD_FAIL(resil::FaultSite::kSyncTimeout)) {
    DFTH_FAULT_RECOVERED(resil::FaultSite::kSyncTimeout);
    return false;
  }
  DFTH_SYNC_SECTION(SemTryAcquireFor);
  Tcb* cur = e->current();
  if (count_ > 0) {
    --count_;
    DFTH_RACE_ACQUIRE(cur, this);
    guard_.unlock();
    return true;
  }
  waiters_.push(cur);
  cur->state.store(ThreadState::Blocked, std::memory_order_relaxed);
  e->block_current_timed(&guard_, &waiters_, timeout_ns);
  const bool timed_out = cur->timed_out;
  cur->timed_out = false;
  if (timed_out) return false;
  // release() transferred one unit directly to us (V→P edge).
  DFTH_RACE_ACQUIRE(cur, this);
  return true;
}

void Semaphore::release() {
  Engine* e = checked_engine();
  e->charge_sync_op();
  DFTH_SYNC_SECTION(SemRelease);
  DFTH_RACE_RELEASE(e->current(), this);
  Tcb* t = waiters_.pop();
  if (!t) ++count_;
  guard_.unlock();
  if (t) e->wake(t);
}

// -- Barrier --------------------------------------------------------------------

void Barrier::arrive_and_wait() {
  Engine* e = checked_engine();
  e->charge_sync_op();
  DFTH_SYNC_SECTION(BarrierArrive);
  Tcb* cur = e->current();
  const std::uint64_t gen = generation_.load(std::memory_order_relaxed);
  if (++arrived_ == parties_) {
    arrived_ = 0;
    generation_.fetch_add(1, std::memory_order_release);
    // Every earlier arrival recorded its clock under the guard; the `last`
    // arrival seals generation `gen` as an all-to-all edge and inherits it
    // immediately (it never blocks).
    DFTH_RACE_BARRIER_ARRIVE(cur, this, gen, /*last=*/true);
    DFTH_RACE_BARRIER_LEAVE(cur, this, gen);
    WaitList woken;
    while (Tcb* t = waiters_.pop()) woken.push(t);
    guard_.unlock();
    while (Tcb* t = woken.pop()) e->wake(t);
    return;
  }
  DFTH_RACE_BARRIER_ARRIVE(cur, this, gen, /*last=*/false);
  waiters_.push(cur);
  cur->state.store(ThreadState::Blocked, std::memory_order_relaxed);
  e->block_current(&guard_);
  DFTH_RACE_BARRIER_LEAVE(cur, this, gen);
}

// -- RwLock ----------------------------------------------------------------------

void RwLock::rdlock() {
  Engine* e = checked_engine();
  e->charge_sync_op();
  DFTH_SYNC_SECTION(RwRdLock);
  Tcb* cur = e->current();
  if (!writer_ && waiting_writers_ == 0) {
    ++readers_;
    DFTH_RACE_RD_ACQUIRE(cur, this);
    guard_.unlock();
    DFTH_LOCK_ACQUIRED_SHARED(cur, this);
    return;
  }
  read_waiters_.push(cur);
  cur->state.store(ThreadState::Blocked, std::memory_order_relaxed);
  e->block_current(&guard_);
  // The releasing thread counted us into readers_ before waking us.
  DFTH_RACE_RD_ACQUIRE(cur, this);
  DFTH_LOCK_ACQUIRED_SHARED(cur, this);
}

bool RwLock::try_rdlock() {
  Engine* e = checked_engine();
  e->charge_sync_op();
  DFTH_SYNC_SECTION(RwTryRdLock);
  const bool ok = !writer_ && waiting_writers_ == 0;
  if (ok) {
    ++readers_;
    DFTH_RACE_RD_ACQUIRE(e->current(), this);
  }
  guard_.unlock();
  if (ok) DFTH_LOCK_ACQUIRED_SHARED(e->current(), this);
  return ok;
}

void RwLock::rdunlock() {
  Engine* e = checked_engine();
  e->charge_sync_op();
  DFTH_SYNC_SECTION(RwRdUnlock);
  DFTH_CHECK_MSG(readers_ > 0, "rdunlock without rdlock");
  --readers_;
  DFTH_RACE_RD_RELEASE(e->current(), this);
  DFTH_LOCK_RELEASED(e->current(), this);
  if (readers_ == 0 && !writer_) {
    release_to_next();
    return;  // release_to_next unlocked the guard
  }
  guard_.unlock();
}

void RwLock::wrlock() {
  Engine* e = checked_engine();
  e->charge_sync_op();
  DFTH_SYNC_SECTION(RwWrLock);
  Tcb* cur = e->current();
  if (!writer_ && readers_ == 0) {
    writer_ = true;
    DFTH_RACE_WR_ACQUIRE(cur, this);
    guard_.unlock();
    DFTH_LOCK_ACQUIRED(cur, this);
    return;
  }
  ++waiting_writers_;
  write_waiters_.push(cur);
  cur->state.store(ThreadState::Blocked, std::memory_order_relaxed);
  e->block_current(&guard_);
  // The releasing thread set writer_ = true on our behalf.
  DFTH_RACE_WR_ACQUIRE(cur, this);
  DFTH_LOCK_ACQUIRED(cur, this);
}

bool RwLock::try_wrlock() {
  Engine* e = checked_engine();
  e->charge_sync_op();
  DFTH_SYNC_SECTION(RwTryWrLock);
  const bool ok = !writer_ && readers_ == 0;
  if (ok) {
    writer_ = true;
    DFTH_RACE_WR_ACQUIRE(e->current(), this);
  }
  guard_.unlock();
  if (ok) DFTH_LOCK_ACQUIRED(e->current(), this);
  return ok;
}

void RwLock::wrunlock() {
  Engine* e = checked_engine();
  e->charge_sync_op();
  DFTH_SYNC_SECTION(RwWrUnlock);
  DFTH_CHECK_MSG(writer_, "wrunlock without wrlock");
  writer_ = false;
  DFTH_RACE_RELEASE(e->current(), this);
  DFTH_LOCK_RELEASED(e->current(), this);
  release_to_next();
}

void RwLock::release_to_next() {
  Engine* e = engine();
  // Prefer a waiting writer (writer-preferring discipline)...
  if (Tcb* w = write_waiters_.pop()) {
    --waiting_writers_;
    writer_ = true;
    guard_.unlock();
    e->wake(w);
    return;
  }
  // ...otherwise admit every waiting reader at once.
  WaitList woken;
  while (Tcb* r = read_waiters_.pop()) {
    ++readers_;
    woken.push(r);
  }
  guard_.unlock();
  while (Tcb* r = woken.pop()) e->wake(r);
}

// -- Once ------------------------------------------------------------------------

void Once::call(const std::function<void()>& fn) {
  // Under an active record/replay session the lock-free fast path is
  // disabled: whether a caller sees done_ without taking m_ is a data race
  // the log cannot capture. Forcing everyone through m_ makes the whole
  // operation a function of the mutex-acquisition order, which the m_ hooks
  // already record. Same policy on record and replay, so the event streams
  // line up.
  if (::dfth::replay::active() == nullptr &&
      done_.load(std::memory_order_acquire)) {
#if DFTH_RACE
    // Fast-path observers synchronize with the runner through done_ alone
    // (no mutex), so the run→observe edge must be inherited here too. The
    // release clock is recorded before the store that made done_ visible.
    if (Engine* e = engine()) {
      if (Tcb* cur = e->current()) DFTH_RACE_ACQUIRE(cur, this);
    }
#endif
    return;
  }
  LockGuard lock(m_);
  if (!done_.load(std::memory_order_relaxed)) {
    fn();
    DFTH_RACE_RELEASE(engine()->current(), this);
    done_.store(true, std::memory_order_release);
  }
  // Slow-path observers inherit the runner's clock through m_'s own
  // release→acquire edge.
}

}  // namespace dfth
