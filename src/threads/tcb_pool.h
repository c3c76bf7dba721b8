// TcbPool: the recycling allocator behind every engine's thread control
// blocks, so the runtime's own memory follows the threads alive at once
// rather than every thread ever created (the paper's space argument, applied
// to the library's bookkeeping as well as to user memory and stacks).
//
// A block carries two references (Tcb::refs):
//   * the handle side — dropped after the API-level join has read the child
//     (result, race clock, profiler join edge), on detach, or at spawn for
//     Attr::detached;
//   * the exit side — dropped by the engine after the thread's final switch,
//     once nothing touches the block again.
// Whichever side goes last returns the block to the free list; acquire()
// rebuilds a free block in place before it allocates a new one. The pool
// owns every block until it is destroyed with its engine, so a stale
// handle's read of a recycled block is never a use-after-free — the id the
// handle stores tells the two apart (runtime/api.cpp).
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "threads/tcb.h"
#include "util/spinlock.h"

namespace dfth {

class TcbPool {
 public:
  TcbPool() = default;
  TcbPool(const TcbPool&) = delete;
  TcbPool& operator=(const TcbPool&) = delete;
  ~TcbPool();

  /// A fresh block for thread `id` holding both references.
  Tcb* acquire(std::uint64_t id);

  /// Drops one reference (Tcb::kHandleRef or Tcb::kExitRef); the last drop
  /// puts the block on the free list.
  void release(Tcb* t, std::uint8_t side);

  /// Blocks allocated so far (RunStats::tcbs_allocated).
  std::uint64_t allocated() const {
    std::lock_guard<SpinLock> g(lock_);
    return blocks_.size();
  }

  /// Calls fn(const Tcb&) on every block, free ones included (their state is
  /// Done). Diagnostics only: a block being rebuilt concurrently is read
  /// best-effort.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    std::lock_guard<SpinLock> g(lock_);
    for (const Tcb* t : blocks_) fn(*t);
  }

 private:
  mutable SpinLock lock_;
  std::vector<Tcb*> blocks_;  ///< every block, owned
  std::vector<Tcb*> free_;
};

}  // namespace dfth
