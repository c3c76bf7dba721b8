// Shared plumbing for the dfbench workloads: options, metric series,
// run-statistics aggregation and host probes.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/counters.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "runtime/api.h"
#include "stats.h"

namespace dfbench {

inline constexpr int kProcs = 4;                     // Real lanes
inline constexpr std::size_t kStackBytes = 8 << 10;  // paper §4 item 3
/// Untimed running of the workload itself before any timed pass, so every
/// run reaches the same host regime (see dfbench/METRICS.md, Warm-up).
inline constexpr double kWarmupS = 3;

struct Options {
  std::uint64_t seed = 1;
  double seconds = 10;   ///< measured time for the timed passes
  bool trace = false;    ///< per-layer run (Tracer + Profiler installed)
  bool inject_wrong = false;  ///< corrupt one output (self-test)
};

/// Steady-clock nanoseconds. (dfth::now_ns is the engine clock; on the
/// RealEngine it reads the same steady clock.)
inline std::uint64_t mono_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
inline double secs_since(std::uint64_t t0) {
  return static_cast<double>(mono_ns() - t0) / 1e9;
}

/// Named samples with units; each metric reports the median of its samples.
class Series {
 public:
  void add(const std::string& name, const std::string& unit, double v) {
    auto& e = data_[name];
    e.unit = unit;
    e.values.push_back(v);
  }
  /// Appends all of `other`'s samples.
  void merge(const Series& other) {
    for (const auto& [name, e] : other.data_) {
      for (double v : e.values) add(name, e.unit, v);
    }
  }
  struct Entry {
    std::string unit;
    std::vector<double> values;
  };
  const std::map<std::string, Entry>& entries() const { return data_; }

 private:
  std::map<std::string, Entry> data_;
};

/// RuntimeOptions for every timed run: RealEngine, AsyncDF, 4 lanes, 8 KiB
/// stacks, default quota. `tracer`/`profiler` may be null.
inline dfth::RuntimeOptions real_opts(std::uint64_t seed,
                                      dfth::obs::Tracer* tracer = nullptr,
                                      dfth::obs::Profiler* profiler = nullptr) {
  dfth::RuntimeOptions o;
  o.engine = dfth::EngineKind::Real;
  o.sched = dfth::SchedKind::AsyncDf;
  o.nprocs = kProcs;
  o.default_stack_size = kStackBytes;
  o.seed = seed;
  o.tracer = tracer;
  o.profiler = profiler;
  return o;
}

/// A trace session for one traced run, with rings large enough to hold
/// most of a fork-storm pass.
inline std::unique_ptr<dfth::obs::Tracer> make_tracer() {
  dfth::obs::TraceConfig cfg;
  cfg.ring_capacity = std::size_t{1} << 19;
  return std::make_unique<dfth::obs::Tracer>(cfg);
}

/// Sums RunStats, profiles and obs counters over the runs of one traced
/// pass (apps-batch makes seven runs per pass, the others one), and derives
/// exact ready-wait and dispatch-gap samples from the trace events. (The
/// obs ReadyWaitNs histogram stays empty on the RealEngine, which calls
/// pick_next without a clock, and DispatchGapNs has 2x-wide buckets.)
struct RunAgg {
  std::uint64_t fibers = 0, dispatches = 0, quota_preemptions = 0;
  std::uint64_t dummy_threads = 0, steals = 0;
  std::uint64_t stacks_fresh = 0, stacks_reused = 0;
  std::int64_t max_live_threads = 0;
  std::uint64_t work_ns = 0, span_ns = 0, overhead_ns = 0;
  std::uint64_t blocks = 0, wakes = 0;
  std::vector<double> ready_wait_us;    // ready (fork/wake/preempt) -> dispatch
  std::vector<double> dispatch_gap_us;  // lane switch-out -> next dispatch

  void add(const dfth::RunStats& s, const dfth::obs::Tracer* tr);
  /// Appends the runtime/core/space per-layer metrics of this pass.
  void emit(Series& out) const;
};

/// Process peak resident set (VmHWM) in MiB.
double rss_peak_mb();

/// Resets VmHWM to the current resident set, so that rss_peak_mb() reads
/// the peak since this call (Linux /proc/self/clear_refs). Where the kernel
/// refuses, VmHWM keeps the peak since the process started.
void reset_rss_peak();

/// Tracked-heap peak of the last run above `live_before`, in MiB.
inline double heap_above_mb(const dfth::RunStats& s, std::int64_t live_before) {
  return static_cast<double>(s.heap_peak - live_before) / (1 << 20);
}

// ---- workloads --------------------------------------------------------------
//
// Each workload fills `e2e` (untraced run) or `layers` (traced run) and
// returns false when any output was wrong.
struct Result {
  Series e2e;
  Series layers;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> notes;  ///< printed as label lines
};

bool apps_batch(const Options& o, Result& r);
bool fork_storm(const Options& o, Result& r);
bool lock_storm(const Options& o, Result& r);
bool serve_open(const Options& o, Result& r);

/// One traced pass of another workload, contributing only that workload's
/// own per-layer metrics (apps.*, serve.*, ...). Every traced run calls the
/// ones it does not run itself, so every per-layer metric is measured in
/// every traced run.
bool apps_layers_once(const Options& o, Series& layers);
bool fork_layers_once(const Options& o, Series& layers);
bool serve_layers_once(const Options& o, Series& layers);

/// Micro-probes timing the layer entry points directly (context switch,
/// stack pool, scheduler push/pop, order list).
void micro_layers(Series& layers);

}  // namespace dfbench
