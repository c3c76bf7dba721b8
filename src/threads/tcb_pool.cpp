#include "threads/tcb_pool.h"

#include <new>

#include "space/stack_pool.h"
#include "util/check.h"

namespace dfth {

TcbPool::~TcbPool() {
  for (Tcb* t : blocks_) {
    if (t->stack) StackPool::instance().release(t->stack);
    context_destroy(&t->ctx);
    delete t;
  }
}

Tcb* TcbPool::acquire(std::uint64_t id) {
  Tcb* t = nullptr;
  {
    std::lock_guard<SpinLock> g(lock_);
    if (!free_.empty()) {
      t = free_.back();
      free_.pop_back();
    }
  }
  if (t == nullptr) {
    t = new Tcb(id);
    std::lock_guard<SpinLock> g(lock_);
    blocks_.push_back(t);
    return t;
  }
  // The ucontext backend keeps heap state behind ctx; the rebuild below
  // would otherwise leak it.
  context_destroy(&t->ctx);
  t->~Tcb();
  return new (t) Tcb(id);
}

void TcbPool::release(Tcb* t, std::uint8_t side) {
  // acq_rel: the side that drops last sees every write the other side made
  // to the block before it is rebuilt for another thread.
  const std::uint8_t before = t->refs.fetch_and(
      static_cast<std::uint8_t>(~side), std::memory_order_acq_rel);
  DFTH_CHECK_MSG((before & side) != 0, "thread control block released twice");
  if (before != side) return;
  std::lock_guard<SpinLock> g(lock_);
  free_.push_back(t);
}

}  // namespace dfth
