#include "core/worksteal_sched.h"

#include <limits>

#include "runtime/edges.h"
#include "util/check.h"

namespace dfth {

WorkStealScheduler::WorkStealScheduler(int nprocs, std::uint64_t seed)
    : deques_(static_cast<std::size_t>(nprocs > 0 ? nprocs : 1)), rng_(seed) {}

bool WorkStealScheduler::register_thread(Tcb* parent, Tcb* child) {
  (void)parent;
  (void)child;
  // Work-first: the processor dives into the child; the parent continuation
  // is pushed onto the deque (by the engine via on_ready(parent)).
  return true;
}

void WorkStealScheduler::on_ready(Tcb* t, int proc) {
  const auto idx = static_cast<std::size_t>(proc) % deques_.size();
  t->home_proc = static_cast<int>(idx);
  deques_[idx].push_back(t);  // back == top (owner end)
  ++ready_;
  edges::on_ready_push();
}

Tcb* WorkStealScheduler::take(std::deque<Tcb*>& dq, bool from_top, std::uint64_t now,
                              std::uint64_t* earliest) {
  // Scan from the requested end for the first virtual-time-eligible thread.
  if (from_top) {
    for (auto it = dq.rbegin(); it != dq.rend(); ++it) {
      Tcb* t = *it;
      if (t->ready_at_ns <= now) {
        dq.erase(std::next(it).base());
        --ready_;
        return t;
      }
      if (t->ready_at_ns < *earliest) *earliest = t->ready_at_ns;
    }
  } else {
    for (auto it = dq.begin(); it != dq.end(); ++it) {
      Tcb* t = *it;
      if (t->ready_at_ns <= now) {
        dq.erase(it);
        --ready_;
        return t;
      }
      if (t->ready_at_ns < *earliest) *earliest = t->ready_at_ns;
    }
  }
  return nullptr;
}

Tcb* WorkStealScheduler::pick_next(int proc, std::uint64_t now, std::uint64_t* earliest) {
  *earliest = std::numeric_limits<std::uint64_t>::max();
  const auto n = deques_.size();
  const auto self = static_cast<std::size_t>(proc) % n;

  // Own deque first, owner end.
  if (Tcb* t = take(deques_[self], /*from_top=*/true, now, earliest)) {
    edges::on_ready_pop(t, now);
    return t;
  }

  // Steal: random starting victim, then cycle, taking from the bottom.
  if (n > 1) {
    const std::size_t start = static_cast<std::size_t>(rng_.next_below(n));
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t victim = (start + i) % n;
      if (victim == self) continue;
      if (Tcb* t = take(deques_[victim], /*from_top=*/false, now, earliest)) {
        ++steals_;
        edges::on_steal(proc, t, static_cast<std::uint64_t>(victim), now);
        return t;
      }
    }
  }
  return nullptr;
}

void WorkStealScheduler::unregister_thread(Tcb* t) {
  DFTH_DCHECK(t->state.load(std::memory_order_relaxed) != ThreadState::Ready);
  (void)t;
}

}  // namespace dfth
