#include "common.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <unordered_map>

namespace dfbench {

namespace {

/// Ready-wait and dispatch-gap samples from one run's events. Only the
/// window before the first ring filled is used: past it, events of some
/// lanes are missing and pairs would be matched wrongly.
void derive_waits(const dfth::obs::Tracer& tr, std::vector<double>& ready_wait_us,
                  std::vector<double>& gap_us) {
  using dfth::obs::EvKind;
  std::uint64_t cut = ~std::uint64_t{0};
  for (int lane = 0; lane < tr.lanes(); ++lane) {
    const auto ev = tr.lane_events(lane);
    if (!ev.empty() && ev.size() >= tr.config().ring_capacity) {
      cut = std::min(cut, ev.back().ts_ns);
    }
  }
  std::unordered_map<std::uint64_t, std::uint64_t> ready_at;
  std::vector<std::uint64_t> last_out(static_cast<std::size_t>(tr.lanes()), 0);
  for (const dfth::obs::TraceEvent& e : tr.merged()) {
    if (e.ts_ns > cut) break;
    std::uint64_t& out = last_out[e.lane];
    switch (e.kind) {
      case EvKind::Fork: ready_at[e.arg] = e.ts_ns; break;
      case EvKind::Wake: ready_at[e.tid] = e.ts_ns; break;
      case EvKind::Preempt:
        ready_at[e.tid] = e.ts_ns;
        out = e.ts_ns;
        break;
      case EvKind::Block:
      case EvKind::Exit: out = e.ts_ns; break;
      case EvKind::Dispatch: {
        auto it = ready_at.find(e.tid);
        if (it != ready_at.end()) {
          ready_wait_us.push_back(static_cast<double>(e.ts_ns - it->second) / 1e3);
          ready_at.erase(it);
        }
        if (out != 0) gap_us.push_back(static_cast<double>(e.ts_ns - out) / 1e3);
        out = 0;
        break;
      }
      default: break;
    }
  }
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

void RunAgg::add(const dfth::RunStats& s, const dfth::obs::Tracer* tr) {
  fibers += s.threads_created;
  dispatches += s.dispatches;
  quota_preemptions += s.quota_preemptions;
  dummy_threads += s.dummy_threads;
  steals += s.steals;
  stacks_fresh += s.stacks_fresh;
  stacks_reused += s.stacks_reused;
  max_live_threads = std::max(max_live_threads, s.max_live_threads);
  work_ns += s.profile.work_ns;
  span_ns += s.profile.span_ns;
  overhead_ns += s.profile.overhead_ns;
  if (tr != nullptr) {
    blocks += tr->counter(dfth::obs::Counter::Blocks);
    wakes += tr->counter(dfth::obs::Counter::Wakes);
    derive_waits(*tr, ready_wait_us, dispatch_gap_us);
  }
}

void RunAgg::emit(Series& out) const {
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  out.add("runtime.dispatches_per_fiber", "ratio", ratio(d(dispatches), d(fibers)));
  out.add("runtime.max_live_threads", "count", static_cast<double>(max_live_threads));
  out.add("runtime.blocks", "count", d(blocks));
  out.add("runtime.wakes", "count", d(wakes));
  out.add("runtime.overhead_share", "ratio",
          ratio(d(overhead_ns), d(work_ns + overhead_ns)));
  out.add("runtime.parallelism", "ratio", ratio(d(work_ns), d(span_ns)));
  out.add("runtime.dispatch_gap_us.p99", "us", percentile(dispatch_gap_us, 0.99));
  out.add("runtime.quota_preemptions", "count", d(quota_preemptions));
  out.add("runtime.dummy_threads", "count", d(dummy_threads));
  out.add("runtime.steals", "count", d(steals));
  out.add("core.ready_wait_us.p50", "us", percentile(ready_wait_us, 0.50));
  out.add("core.ready_wait_us.p99", "us", percentile(ready_wait_us, 0.99));
  out.add("space.stack_reuse_ratio", "ratio",
          ratio(d(stacks_reused), d(stacks_fresh + stacks_reused)));
}

void reset_rss_peak() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return;
  std::fputs("5", f);
  std::fclose(f);
}

double rss_peak_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

}  // namespace dfbench
