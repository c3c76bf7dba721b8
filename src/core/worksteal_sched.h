// Cilk-style work stealing, the space-efficient baseline the paper compares
// against in §2.1: per-processor deques of ready threads; on a fork the
// processor runs the child and pushes the parent (work-first); an idle
// processor picks a random victim and steals from the *bottom* (oldest end)
// of its deque. Guarantees live space ≤ p · S1, which bench/abl_ws_vs_adf
// contrasts with AsyncDF's S1 + O(pKD).
//
// Priorities are not supported by this policy (Cilk has none); all threads
// are treated as one level. Victim selection uses a deterministic seeded RNG
// so simulator runs are reproducible.
#pragma once

#include <cstddef>
#include <deque>
#include <vector>

#include "core/scheduler.h"
#include "util/rng.h"

namespace dfth {

class WorkStealScheduler final : public Scheduler {
 public:
  WorkStealScheduler(int nprocs, std::uint64_t seed);

  SchedKind kind() const override { return SchedKind::WorkSteal; }

  bool register_thread(Tcb* parent, Tcb* child) override;
  void on_ready(Tcb* t, int proc) override;
  Tcb* pick_next(int proc, std::uint64_t now, std::uint64_t* earliest) override;
  void unregister_thread(Tcb* t) override;
  std::size_t ready_count() const override { return ready_; }

  std::uint64_t steal_count() const override { return steals_; }

 private:
  /// Pops an eligible thread from `dq`; `from_top` selects the owner end
  /// (top/back) vs the thief end (bottom/front).
  Tcb* take(std::deque<Tcb*>& dq, bool from_top, std::uint64_t now,
            std::uint64_t* earliest);

  std::vector<std::deque<Tcb*>> deques_;
  std::size_t ready_ = 0;
  std::uint64_t steals_ = 0;
  Rng rng_;
};

}  // namespace dfth
