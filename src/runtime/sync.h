// Blocking synchronization primitives: the Pthreads functionality the paper
// stresses its scheduler must preserve ("any existing Pthreads program can
// be executed using our space-efficient scheduler, including programs with
// blocking locks and condition variables" — unlike Cilk/Filaments-style
// systems that only support fork/join).
//
// All primitives follow one protocol, engine-agnostic:
//   1. take the object's spinlock guard,
//   2. fast path or: enqueue self on the wait list, set state Blocked,
//   3. Engine::block_current(&guard) — the engine releases the guard only
//      after the blocking thread's context is fully saved,
//   4. a releasing thread pops a waiter under the guard and Engine::wake()s
//      it.
// Each primitive has one acquire body: lock/try_lock/try_lock_for (and
// acquire/try_*, wait/timed_wait, the four RwLock entries) differ only in
// how they wait when the object is taken (detail::Wait). Every body crosses
// one acquire edge and every release one release edge of the edge spine
// (runtime/edges.h), which feeds the race detector and the lock graph; the
// spine header holds the placement contract (release and fast-path acquire
// edges under guard_, a blocked acquirer's edge after it is woken).
// Blocked threads keep their placeholder in the AsyncDF ordered list, so
// blocking composes with the space-efficient scheduler exactly as the paper
// describes. Bound threads use the same code; the engine parks them on the
// kernel instead of switching fibers.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>

#include "threads/tcb.h"
#include "util/spinlock.h"

namespace dfth {

namespace replay {
enum class SyncOp : std::uint64_t;
}

namespace detail {
/// How an acquire waits while the object is taken: not at all (try_*),
/// until woken, or until woken or a deadline passes (*_for, timed_wait).
enum class Wait : std::uint8_t { kTry, kBlock, kTimed };

/// The part every blocking primitive shares: the guard of the protocol
/// above, and a destructor that unbinds the object's address from the
/// record/replay schedule log (the allocator may recycle it for a new
/// primitive within the same run). Non-copyable, like its pthreads
/// counterparts.
class SyncObject {
 protected:
  SyncObject() = default;
  ~SyncObject();
  SyncObject(const SyncObject&) = delete;
  SyncObject& operator=(const SyncObject&) = delete;

  SpinLock guard_;
};
}  // namespace detail

/// pthread_mutex_t equivalent. Non-recursive; FIFO handoff to waiters.
class Mutex : detail::SyncObject {
 public:
  void lock();
  bool try_lock();
  /// lock() with a deadline: returns true if the mutex was acquired within
  /// `timeout_ns`, false on timeout (the mutex is then NOT held). Timeouts
  /// use the claim-token protocol (Engine::block_current_timed): wait-list
  /// membership under the guard is the claim, so a timeout and a handoff
  /// can never both win. The sync.timeout fault site injects an immediate
  /// timeout at entry.
  bool try_lock_for(std::uint64_t timeout_ns);
  void unlock();

  /// The thread currently holding the mutex (diagnostics/tests).
  bool held() const { return owner_ != nullptr; }

  /// True iff `t` is the current owner. CondVar::wait asserts this on its
  /// caller — waiting without holding the mutex is the classic lost-wakeup
  /// bug and is unconditionally fatal.
  bool held_by(const Tcb* t) const { return owner_ == t; }

 private:
  bool acquire(detail::Wait wait, std::uint64_t timeout_ns, replay::SyncOp op);

  Tcb* owner_ = nullptr;
  WaitList waiters_;
};

/// RAII lock for Mutex.
class LockGuard {
 public:
  explicit LockGuard(Mutex& m) : m_(m) { m_.lock(); }
  ~LockGuard() { m_.unlock(); }
  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  Mutex& m_;
};

/// pthread_cond_t equivalent.
class CondVar : detail::SyncObject {
 public:
  /// Atomically releases `m` and blocks; reacquires `m` before returning.
  void wait(Mutex& m);

  /// wait() with a deadline. Returns true if signaled, false on timeout; `m`
  /// is reacquired before returning either way (pthread_cond_timedwait
  /// semantics). An injected sync.timeout fault returns false immediately
  /// *without* ever releasing `m`.
  bool timed_wait(Mutex& m, std::uint64_t timeout_ns);

  /// wait() that returns once `pred()` holds (always rechecks the predicate
  /// under the mutex, so spurious signals are harmless).
  template <typename Pred>
  void wait_until(Mutex& m, Pred pred) {
    while (!pred()) wait(m);
  }

  void signal();
  void broadcast();

 private:
  bool wait_for(Mutex& m, detail::Wait wait, std::uint64_t timeout_ns,
                replay::SyncOp op);
  /// signal() or broadcast(), as `op` says.
  void notify(replay::SyncOp op);

  WaitList waiters_;
};

/// Counting semaphore (sema_t equivalent; Figure 3 measures its pair-sync
/// cost).
class Semaphore : detail::SyncObject {
 public:
  explicit Semaphore(int initial = 0) : count_(initial) {}

  void acquire();       ///< P: decrement or block
  bool try_acquire();
  /// acquire() with a deadline: true if a unit was obtained within
  /// `timeout_ns`, false on timeout.
  bool try_acquire_for(std::uint64_t timeout_ns);
  void release();       ///< V: wake one waiter or increment

  int value() const { return count_; }

 private:
  bool acquire(detail::Wait wait, std::uint64_t timeout_ns, replay::SyncOp op);

  int count_ = 0;
  WaitList waiters_;
};

/// pthread_barrier_t equivalent (the coarse-grained SPLASH-2 codes
/// synchronize phases with one of these).
class Barrier : detail::SyncObject {
 public:
  explicit Barrier(int parties) : parties_(parties) {}

  /// Blocks until `parties` threads have arrived; the generation then flips
  /// and the barrier is immediately reusable.
  void arrive_and_wait();

  /// Completed-generation count. Atomic because observers poll it without
  /// the guard (a plain read here raced with arrive_and_wait's increment
  /// under the RealEngine — exactly the class of bug the happens-before
  /// race detector exists to catch).
  std::uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

 private:
  const int parties_;
  int arrived_ = 0;
  std::atomic<std::uint64_t> generation_{0};
  WaitList waiters_;
};

/// pthread_once_t equivalent.
class Once {
 public:
  void call(const std::function<void()>& fn);
  bool done() const { return done_.load(std::memory_order_acquire); }

 private:
  std::atomic<bool> done_{false};
  Mutex m_;
};

/// pthread_rwlock_t equivalent. Writer-preferring: once a writer waits, new
/// readers queue behind it (no writer starvation); a releasing writer hands
/// off to the next writer if any, otherwise wakes every waiting reader.
class RwLock : detail::SyncObject {
 public:
  void rdlock();
  bool try_rdlock();
  void rdunlock();

  void wrlock();
  bool try_wrlock();
  void wrunlock();

  // RAII helpers.
  class ReadGuard {
   public:
    explicit ReadGuard(RwLock& l) : l_(l) { l_.rdlock(); }
    ~ReadGuard() { l_.rdunlock(); }
    ReadGuard(const ReadGuard&) = delete;
    ReadGuard& operator=(const ReadGuard&) = delete;

   private:
    RwLock& l_;
  };
  class WriteGuard {
   public:
    explicit WriteGuard(RwLock& l) : l_(l) { l_.wrlock(); }
    ~WriteGuard() { l_.wrunlock(); }
    WriteGuard(const WriteGuard&) = delete;
    WriteGuard& operator=(const WriteGuard&) = delete;

   private:
    RwLock& l_;
  };

 private:
  bool acquire(bool write, detail::Wait wait, replay::SyncOp op);
  /// Drops a hold; the last one out hands the lock on.
  void release(bool write, replay::SyncOp op);

  int readers_ = 0;           ///< threads currently holding it shared
  bool writer_ = false;       ///< a thread currently holds it exclusive
  int waiting_writers_ = 0;
  WaitList read_waiters_;
  WaitList write_waiters_;
};

}  // namespace dfth
