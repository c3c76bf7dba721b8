#include "runtime/cost_model.h"

#include <algorithm>
#include <cmath>

namespace dfth {

CostModel CostModel::unit_ops() {
  CostModel c;
  c.create_unbound_us = c.create_bound_us = c.join_us = c.exit_us = 0.0;
  c.ctx_switch_us = c.sync_op_us = c.block_us = c.sem_sync_us = 0.0;
  c.sched_op_us = 0.0;
  c.stack_pooled_us = c.stack_fresh_8k_us = c.stack_fresh_1m_us = 0.0;
  c.malloc_base_us = c.free_base_us = c.fresh_page_us = 0.0;
  c.cache_hit_us = c.cache_miss_us = 0.0;
  c.ops_per_us = 1000.0;
  c.pressure_max = 1.0;
  return c;
}

double CostModel::stack_fresh_us(std::size_t bytes) const {
  // Two calibration points from the paper: (8 KB, 200 µs) and (1 MB, 260 µs).
  // Interpolate on log2(size) — the cost is dominated by a constant mmap and
  // grows slowly with the mapping size.
  constexpr double kLo = 13.0;  // log2(8 KB)
  constexpr double kHi = 20.0;  // log2(1 MB)
  const double lg = std::log2(static_cast<double>(std::max<std::size_t>(bytes, 1)));
  const double t = std::clamp((lg - kLo) / (kHi - kLo), 0.0, 2.0);
  return stack_fresh_8k_us + t * (stack_fresh_1m_us - stack_fresh_8k_us);
}

double CostModel::pressure(std::int64_t live_bytes) const {
  if (live_bytes <= pressure_knee_bytes) return 1.0;
  const double span =
      static_cast<double>(pressure_saturate_bytes - pressure_knee_bytes);
  const double t = std::min(
      1.0, static_cast<double>(live_bytes - pressure_knee_bytes) / span);
  return 1.0 + t * (pressure_max - 1.0);
}

double CostModel::malloc_us(std::size_t bytes, std::int64_t fresh_bytes) const {
  (void)bytes;
  const double fresh_pages =
      static_cast<double>(fresh_bytes) / static_cast<double>(page_bytes);
  return malloc_base_us + fresh_pages * fresh_page_us;
}

}  // namespace dfth
