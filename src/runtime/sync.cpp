#include "runtime/sync.h"

#include "resil/faults.h"
#include "runtime/edges.h"
#include "runtime/engine.h"
#include "util/check.h"

// Record/replay hooks (replay/hooks.h): every guard_
// critical section is one ordered decision. The SYNC_GATE runs before
// guard_.lock() (no instrumented lock held), the SYNC_COMMIT runs inside the
// section, immediately after the acquire — so the log captures exactly the
// order in which fibers won each object's guard, which is the only
// nondeterminism these primitives have (everything else is a deterministic
// function of that order plus the wait-list FIFO discipline).
#include "replay/hooks.h"

#define DFTH_SYNC_SECTION(op) \
  DFTH_REPLAY_SYNC_GATE();      \
  guard_.lock();                \
  DFTH_REPLAY_SYNC_COMMIT(this, (op))

namespace dfth {

using detail::Wait;

namespace {

/// Every operation's entry: the active engine, charged one sync op.
Engine* enter() {
  Engine* e = engine();
  DFTH_CHECK_MSG(e, "synchronization primitive used outside dfth::run");
  e->charge_sync_op();
  return e;
}

/// Releases `guard`, then wakes everyone the caller popped into `woken`.
void wake_all(Engine* e, SpinLock& guard, WaitList& woken) {
  guard.unlock();
  while (Tcb* t = woken.pop()) e->wake(t);
}

/// A timed variant's entry probe of the sync.timeout fault site: an injected
/// immediate timeout, which the caller's timeout path absorbs.
bool timeout_injected() {
  if (!resil::should_fail(resil::FaultSite::kSyncTimeout)) return false;
  resil::on_recovered(resil::FaultSite::kSyncTimeout);
  return true;
}

/// Protocol step 2: queue `cur` on `list` and mark it Blocked (guard held).
void enqueue(WaitList& list, Tcb* cur) {
  list.push(cur);
  cur->state.store(ThreadState::Blocked, std::memory_order_relaxed);
}

/// The slow path of every acquire, entered with `guard` held while `obj` is
/// taken. A try fails at once. Otherwise protocol steps 2–3: queue `cur` on
/// `list`, hand `guard` to the engine and block until a releaser hands `obj`
/// over and wakes us, then cross the acquire edge the releaser ordered under
/// the guard before the wake (so this one needs no guard). With
/// Wait::kTimed the timer may win instead: the engine took us off `list`, no
/// handoff happened, we synchronized with nobody, and this returns false.
bool wait_for_handoff(Engine* e, Tcb* cur, SpinLock& guard, WaitList& list,
                      Wait wait, std::uint64_t timeout_ns, const void* obj,
                      edges::Mode mode) {
  if (wait == Wait::kTry) {
    guard.unlock();
    return false;
  }
  enqueue(list, cur);
  if (wait == Wait::kTimed) {
    e->block_current_timed(&guard, &list, timeout_ns);
    const bool timed_out = cur->timed_out;
    cur->timed_out = false;
    if (timed_out) return false;
  } else {
    e->block_current(&guard);
  }
  edges::on_acquire(obj, mode);
  return true;
}

}  // namespace

// Destruction only unbinds the object from the record/replay schedule log:
// arena-per-phase apps destroy a whole tree of primitives and rebuild at the
// recycled addresses, and a stale address→id binding would name the new
// object with its corpse's id (record and replay recycle memory in different
// orders, so the conflation diverges). Destroying a primitive with waiters
// is still UB, exactly as for pthreads. The base sits at offset 0, so
// `this` is the primitive's own address.
detail::SyncObject::~SyncObject() { DFTH_REPLAY_SYNC_DESTROY(this); }

// -- Mutex --------------------------------------------------------------------

void Mutex::lock() { acquire(Wait::kBlock, 0, replay::SyncOp::MutexLock); }
bool Mutex::try_lock() { return acquire(Wait::kTry, 0, replay::SyncOp::MutexTryLock); }
bool Mutex::try_lock_for(std::uint64_t timeout_ns) {
  return acquire(Wait::kTimed, timeout_ns, replay::SyncOp::MutexTryLockFor);
}

bool Mutex::acquire(Wait wait, std::uint64_t timeout_ns, replay::SyncOp op) {
  Engine* e = enter();
  if (wait == Wait::kTimed && timeout_injected()) return false;
  DFTH_SYNC_SECTION(op);
  Tcb* cur = e->current();
  if (owner_ == nullptr) {
    owner_ = cur;
    edges::on_acquire(this, edges::Mode::kExcl);
    guard_.unlock();
    return true;
  }
  DFTH_CHECK_MSG(wait == Wait::kTry || owner_ != cur, "recursive Mutex::lock");
  // unlock() hands ownership to us before waking.
  return wait_for_handoff(e, cur, guard_, waiters_, wait, timeout_ns, this,
                          edges::Mode::kExcl);
}

void Mutex::unlock() {
  Engine* e = enter();
  DFTH_SYNC_SECTION(replay::SyncOp::MutexUnlock);
  DFTH_CHECK_MSG(owner_ == e->current(), "Mutex::unlock by non-owner");
  edges::on_release(this, edges::Mode::kExcl);
  Tcb* next = waiters_.pop();
  owner_ = next;  // direct handoff keeps the queue FIFO-fair
  guard_.unlock();
  if (next) e->wake(next);
}

// -- CondVar --------------------------------------------------------------------

void CondVar::wait(Mutex& m) { wait_for(m, Wait::kBlock, 0, replay::SyncOp::CvWait); }

bool CondVar::timed_wait(Mutex& m, std::uint64_t timeout_ns) {
  return wait_for(m, Wait::kTimed, timeout_ns, replay::SyncOp::CvTimedWait);
}

bool CondVar::wait_for(Mutex& m, Wait wait, std::uint64_t timeout_ns,
                       replay::SyncOp op) {
  Engine* e = enter();
  Tcb* cur = e->current();
  DFTH_CHECK_MSG(m.held_by(cur), "CondVar::wait caller does not hold the mutex");
  // An injected timeout never releases the mutex, exactly as if the deadline
  // expired before the wait began.
  if (wait == Wait::kTimed && timeout_injected()) return false;
  // The m.unlock() below commits its own nested MutexUnlock while this
  // section still holds guard_ — safe: no other actor's event on this
  // CondVar can sit between the two in the log (it would have needed guard_).
  DFTH_SYNC_SECTION(op);
  // We hold guard_ from before releasing the user mutex until the engine
  // has saved our context on the wait list, so a signaler cannot
  // pop-and-wake us before we finish blocking — no lost-wakeup window.
  m.unlock();
  const bool signalled = wait_for_handoff(e, cur, guard_, waiters_, wait, timeout_ns,
                                          this, edges::Mode::kCv);
  m.lock();
  return signalled;
}

void CondVar::signal() { notify(replay::SyncOp::CvSignal); }
void CondVar::broadcast() { notify(replay::SyncOp::CvBroadcast); }

void CondVar::notify(replay::SyncOp op) {
  Engine* e = enter();
  DFTH_SYNC_SECTION(op);
  edges::on_release(this, edges::Mode::kCv);
  WaitList woken;
  if (op == replay::SyncOp::CvBroadcast) {
    while (Tcb* t = waiters_.pop()) woken.push(t);
  } else if (Tcb* t = waiters_.pop()) {
    woken.push(t);
  }
  wake_all(e, guard_, woken);
}

// -- Semaphore ----------------------------------------------------------------

void Semaphore::acquire() { acquire(Wait::kBlock, 0, replay::SyncOp::SemAcquire); }
bool Semaphore::try_acquire() {
  return acquire(Wait::kTry, 0, replay::SyncOp::SemTryAcquire);
}
bool Semaphore::try_acquire_for(std::uint64_t timeout_ns) {
  return acquire(Wait::kTimed, timeout_ns, replay::SyncOp::SemTryAcquireFor);
}

bool Semaphore::acquire(Wait wait, std::uint64_t timeout_ns, replay::SyncOp op) {
  Engine* e = enter();
  if (wait == Wait::kTimed && timeout_injected()) return false;
  DFTH_SYNC_SECTION(op);
  if (count_ > 0) {
    --count_;
    edges::on_acquire(this, edges::Mode::kSem);
    guard_.unlock();
    return true;
  }
  // release() transfers one unit directly to a woken waiter.
  return wait_for_handoff(e, e->current(), guard_, waiters_, wait, timeout_ns, this,
                          edges::Mode::kSem);
}

void Semaphore::release() {
  Engine* e = enter();
  DFTH_SYNC_SECTION(replay::SyncOp::SemRelease);
  edges::on_release(this, edges::Mode::kSem);
  Tcb* t = waiters_.pop();
  if (!t) ++count_;
  guard_.unlock();
  if (t) e->wake(t);
}

// -- Barrier --------------------------------------------------------------------

void Barrier::arrive_and_wait() {
  Engine* e = enter();
  DFTH_SYNC_SECTION(replay::SyncOp::BarrierArrive);
  Tcb* cur = e->current();
  const std::uint64_t gen = generation_.load(std::memory_order_relaxed);
  const bool last = ++arrived_ == parties_;
  // Every arrival records its clock under the guard; the last one seals
  // generation `gen` as an all-to-all edge and inherits it at once.
  edges::on_release(this, edges::Mode::kBarrier, gen, last);
  if (last) {
    arrived_ = 0;
    generation_.fetch_add(1, std::memory_order_release);
    edges::on_acquire(this, edges::Mode::kBarrier, gen);
    WaitList woken;
    while (Tcb* t = waiters_.pop()) woken.push(t);
    wake_all(e, guard_, woken);
    return;
  }
  enqueue(waiters_, cur);
  e->block_current(&guard_);
  edges::on_acquire(this, edges::Mode::kBarrier, gen);
}

// -- RwLock ----------------------------------------------------------------------

void RwLock::rdlock() { acquire(/*write=*/false, Wait::kBlock, replay::SyncOp::RwRdLock); }
bool RwLock::try_rdlock() {
  return acquire(/*write=*/false, Wait::kTry, replay::SyncOp::RwTryRdLock);
}
void RwLock::wrlock() { acquire(/*write=*/true, Wait::kBlock, replay::SyncOp::RwWrLock); }
bool RwLock::try_wrlock() {
  return acquire(/*write=*/true, Wait::kTry, replay::SyncOp::RwTryWrLock);
}

bool RwLock::acquire(bool write, Wait wait, replay::SyncOp op) {
  Engine* e = enter();
  DFTH_SYNC_SECTION(op);
  const edges::Mode mode = write ? edges::Mode::kExcl : edges::Mode::kShared;
  if (write ? !writer_ && readers_ == 0 : !writer_ && waiting_writers_ == 0) {
    if (write) {
      writer_ = true;
    } else {
      ++readers_;
    }
    edges::on_acquire(this, mode);
    guard_.unlock();
    return true;
  }
  if (write && wait != Wait::kTry) ++waiting_writers_;
  // The releasing thread sets writer_ (or counts us into readers_) on our
  // behalf before waking us.
  return wait_for_handoff(e, e->current(), guard_, write ? write_waiters_ : read_waiters_,
                          wait, 0, this, mode);
}

void RwLock::rdunlock() { release(/*write=*/false, replay::SyncOp::RwRdUnlock); }
void RwLock::wrunlock() { release(/*write=*/true, replay::SyncOp::RwWrUnlock); }

void RwLock::release(bool write, replay::SyncOp op) {
  Engine* e = enter();
  DFTH_SYNC_SECTION(op);
  if (write) {
    DFTH_CHECK_MSG(writer_, "wrunlock without wrlock");
    writer_ = false;
  } else {
    DFTH_CHECK_MSG(readers_ > 0, "rdunlock without rdlock");
    --readers_;
  }
  edges::on_release(this, write ? edges::Mode::kExcl : edges::Mode::kShared);
  if (readers_ != 0 || writer_) {
    guard_.unlock();
    return;
  }
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
  wake_all(e, guard_, woken);
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
    // Fast-path observers synchronize with the runner through done_ alone
    // (no mutex), so the run→observe edge must be inherited here too. The
    // release edge is crossed before the store that made done_ visible.
    edges::on_acquire(this, edges::Mode::kSem);
    return;
  }
  LockGuard lock(m_);
  if (!done_.load(std::memory_order_relaxed)) {
    fn();
    edges::on_release(this, edges::Mode::kSem);
    done_.store(true, std::memory_order_release);
  }
  // Slow-path observers inherit the runner's clock through m_'s own
  // release→acquire edge.
}

}  // namespace dfth
