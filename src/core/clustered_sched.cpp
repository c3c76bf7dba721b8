#include "core/clustered_sched.h"

#include <algorithm>
#include <limits>

#include "runtime/edges.h"
#include "util/check.h"

namespace dfth {

ClusteredAdfScheduler::ClusteredAdfScheduler(int nprocs, int cluster_size)
    : cluster_size_(std::max(1, cluster_size)) {
  const int clusters =
      (std::max(1, nprocs) + cluster_size_ - 1) / cluster_size_;
  lists_ = std::vector<OrderList>(static_cast<std::size_t>(clusters));
}

bool ClusteredAdfScheduler::register_thread(Tcb* parent, Tcb* child) {
  child->order.owner = child;
  if (parent && parent->order.linked()) {
    // Child joins its parent's cluster, immediately to the parent's left —
    // the AsyncDF placement, per SMP.
    child->home_proc = parent->home_proc;
    lists_[static_cast<std::size_t>(child->home_proc)].insert_before(
        &parent->order, &child->order);
  } else {
    child->home_proc = 0;
    lists_[0].push_front(&child->order);
  }
  return true;  // the parent is preempted; the processor runs the child
}

void ClusteredAdfScheduler::on_ready(Tcb* t, int proc) {
  (void)proc;  // a thread stays on its home SMP until explicitly migrated
  DFTH_DCHECK(t->order.linked());
  DFTH_DCHECK(t->state.load(std::memory_order_relaxed) == ThreadState::Ready);
  ++ready_;
  edges::on_ready_push();
}

Tcb* ClusteredAdfScheduler::scan(int cluster, std::uint64_t now,
                                 std::uint64_t* earliest) {
  const OrderList& list = lists_[static_cast<std::size_t>(cluster)];
  for (OrderNode* node = list.front();
       node != nullptr && node != list.end_sentinel(); node = node->next) {
    auto* t = static_cast<Tcb*>(node->owner);
    if (t->state.load(std::memory_order_relaxed) != ThreadState::Ready) continue;
    if (t->ready_at_ns <= now) return t;
    if (t->ready_at_ns < *earliest) *earliest = t->ready_at_ns;
  }
  return nullptr;
}

Tcb* ClusteredAdfScheduler::pick_next(int proc, std::uint64_t now,
                                      std::uint64_t* earliest) {
  *earliest = std::numeric_limits<std::uint64_t>::max();
  const int home = std::min(cluster_of(proc),
                            static_cast<int>(lists_.size()) - 1);
  if (Tcb* t = scan(home, now, earliest)) {
    --ready_;
    edges::on_ready_pop(t, now);
    return t;
  }
  // "Threads would be moved between SMPs only when required": the home
  // cluster is dry, so migrate the leftmost ready thread of another cluster
  // (round-robin from the right neighbor) into this one.
  for (std::size_t offset = 1; offset < lists_.size(); ++offset) {
    const int victim =
        static_cast<int>((static_cast<std::size_t>(home) + offset) % lists_.size());
    if (Tcb* t = scan(victim, now, earliest)) {
      lists_[static_cast<std::size_t>(victim)].erase(&t->order);
      // The migrant becomes the leftmost (most urgent) entry of its new SMP;
      // its future children will fork relative to this position.
      lists_[static_cast<std::size_t>(home)].push_front(&t->order);
      t->home_proc = home;
      ++migrations_;
      --ready_;
      edges::on_steal(proc, t, static_cast<std::uint64_t>(victim), now);
      return t;
    }
  }
  return nullptr;
}

void ClusteredAdfScheduler::unregister_thread(Tcb* t) {
  if (!t->order.linked()) return;
  lists_[static_cast<std::size_t>(t->home_proc)].erase(&t->order);
}

}  // namespace dfth
