// Order statistics and the serving-ladder rule used by every dfbench
// workload. Kept header-only and free of runtime dependencies so
// `dfbench --self-test` can check it in isolation.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace dfbench {

/// Nearest-rank percentile: the smallest sample with at least q*n samples
/// at or below it (q in [0,1]). Exact on the samples, no interpolation, so
/// the reported p99 is a latency some request really saw.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  auto rank = static_cast<std::size_t>(q * n + 0.999999999);  // ceil(q*n)
  if (rank < 1) rank = 1;
  if (rank > v.size()) rank = v.size();
  return v[rank - 1];
}

/// Samples strictly above percentile(v, q): the tail a reported
/// percentile rests on. The guide asks for at least ten.
inline std::size_t samples_beyond(const std::vector<double>& v, double q) {
  const double cut = percentile(v, q);
  return static_cast<std::size_t>(
      std::count_if(v.begin(), v.end(), [cut](double x) { return x > cut; }));
}

/// Median (mean of the two middle samples for even counts).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

/// One step of the open-loop rate ladder.
struct LadderStep {
  double rate_rps = 0;     ///< offered (scheduled) rate
  double p99_ms = 0;       ///< from scheduled send to finish
  double fail_frac = 0;    ///< (rejected + expired) / attempted
  bool backlog_grew = false;
};

/// Service-level objective a ladder step must meet to count as sustained.
struct Slo {
  double p99_ms = 20.0;
  double fail_frac = 0.01;
};

/// Index of the highest-rate step meeting the SLO with no growing backlog,
/// or -1 when none does.
inline int max_sustained_step(const std::vector<LadderStep>& steps,
                              const Slo& slo) {
  int best = -1;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const LadderStep& s = steps[i];
    const bool ok = s.p99_ms <= slo.p99_ms && s.fail_frac <= slo.fail_frac &&
                    !s.backlog_grew;
    if (ok && (best < 0 || s.rate_rps > steps[best].rate_rps)) {
      best = static_cast<int>(i);
    }
  }
  return best;
}

}  // namespace dfbench
