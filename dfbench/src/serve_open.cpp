// serve-open: open-loop Poisson arrivals over the seven serve_soak
// endpoints, stepping a fixed rate ladder on the RealEngine. The generator
// is one fiber in the same run as the server.
//
// The inputs and handlers are serve_soak's own: its source is compiled into
// this file (its main renamed away) so the endpoints cannot drift from the
// soak's. Every request is timed from its *scheduled* send time, so a late
// generator or a stalled server shows up in the latency.
#define main serve_soak_main
#include "serve_soak.cpp"  // NOLINT(bugprone-suspicious-include)
#undef main

#include <atomic>
#include <memory>

#include "common.h"

namespace dfbench {
namespace {

using namespace dfth;

constexpr double kNominalRps = 1600;
constexpr double kLadderRps[] = {1200, 1600, 2000, 2400};
constexpr std::size_t kNominalMinRequests = 8000;  // >= 80 beyond p99
constexpr Slo kSlo{20.0, 0.01};
constexpr int kSetupReps = 9;  // set-up repetitions behind setup_s

struct Step {
  double rate = 0;
  std::vector<std::uint64_t> offset_ns;  // scheduled send, from step start
  std::vector<int> endpoint;
};

Step make_step(double rate, std::size_t n, Rng& rng) {
  Step s;
  s.rate = rate;
  double t = 0;
  for (std::size_t i = 0; i < n; ++i) {
    t += -std::log(rng.next_double(1e-12, 1.0)) * 1e9 / rate;
    s.offset_ns.push_back(static_cast<std::uint64_t>(t));
    s.endpoint.push_back(static_cast<int>(rng.next_below(7)));
  }
  return s;
}

struct Inputs {
  SoakInputs soak;
  std::vector<Step> steps;  // served in order, draining in between
};

/// The endpoints' inputs are serve_soak's at its default seed, so a
/// request's service time does not depend on --seed; the seed draws the
/// traffic (arrival times and endpoint mix).
constexpr std::uint64_t kSoakSeed = 0x5eed;

Inputs make_all(std::uint64_t seed, const std::vector<std::pair<double, double>>& plan) {
  Inputs in{make_inputs(kSoakSeed), {}};
  Rng rng(seed ^ 0x5e7e'0be7ull);
  for (const auto& [rate, secs] : plan) {
    const auto n = static_cast<std::size_t>(rate * secs);
    in.steps.push_back(make_step(rate, n, rng));
  }
  return in;
}

struct StepOut {
  double rate = 0;
  std::vector<double> latency_ms;  // completed requests, scheduled -> finish
  std::vector<double> all_ms;      // every request, failures as +inf
  std::vector<double> queue_ms, service_ms, gen_lag_ms, submit_ns;
  std::uint64_t attempted = 0, failed = 0;
  std::uint64_t rej_queue = 0, rej_shed = 0, rej_admission = 0, expired = 0;
  double wall_s = 0;  // first scheduled send -> last finish
  bool backlog_grew = false;
};

struct RunOut {
  std::vector<StepOut> steps;
  std::vector<double> overshoot_us;  // timed-wait wake minus requested wake
  double heap_mb = 0;
  int violations = 0;  // exactly-once, leak and budget checks
  RunStats stats;
};

RunOut serve_run(const Inputs& in, std::uint64_t seed, obs::Tracer* tracer,
                 obs::Profiler* prof, bool corrupt = false) {
  RunOut out;
  std::size_t total = 0;
  for (const Step& s : in.steps) total += s.offset_ns.size();
  std::vector<std::unique_ptr<std::vector<serve::Request>>> arenas;
  for (const Step& s : in.steps) {
    arenas.push_back(std::make_unique<std::vector<serve::Request>>(s.offset_ns.size()));
  }
  std::unique_ptr<std::atomic<int>[]> done(new std::atomic<int>[total]);
  for (std::size_t i = 0; i < total; ++i) done[i].store(0);
  std::atomic<std::int64_t> outstanding{0};

  // serve_soak's server configuration.
  const std::int64_t baseline = TrackedHeap::instance().live_bytes();
  serve::ServerConfig cfg;
  cfg.ingress_capacity = 64;
  cfg.mem_budget = static_cast<std::size_t>(baseline) + (std::size_t{4096} << 10);
  cfg.max_inflight = 16;
  cfg.shed_priority_floor = 2;
  cfg.poll_ns = 100'000;
  std::vector<serve::EndpointSpec> eps = make_endpoints(in.soak);
  for (serve::EndpointSpec& e : eps) e.deadline_ns = 80'000'000;

  RuntimeOptions opts = real_opts(seed, tracer, prof);
  opts.default_stack_size = 64 << 10;
  opts.mem_quota = 64 << 10;

  std::uint64_t peak_live = 0;
  out.stats = run(opts, [&] {
    serve::Server server(cfg, std::move(eps));
    server.set_on_done([&](serve::Request* r) {
      done[r->id].fetch_add(1, std::memory_order_relaxed);
      outstanding.fetch_sub(1, std::memory_order_relaxed);
    });
    Thread pump = spawn([&server]() -> void* {
      server.pump();
      return nullptr;
    });
    Semaphore zzz(0);  // never released: a pure timed sleep
    std::uint64_t next_id = 0;
    for (std::size_t si = 0; si < in.steps.size(); ++si) {
      const Step& step = in.steps[si];
      std::vector<serve::Request>& arena = *arenas[si];
      const std::size_t n = step.offset_ns.size();
      std::vector<double> depth(n);
      StepOut so;
      so.rate = step.rate;
      const std::uint64_t start = now_ns() + 1'000'000;
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t due = start + step.offset_ns[i];
        for (std::uint64_t now = now_ns(); now < due; now = now_ns()) {
          zzz.try_acquire_for(due - now);
          out.overshoot_us.push_back(
              static_cast<double>(static_cast<std::int64_t>(now_ns() - due)) / 1e3);
        }
        serve::Request* r = &arena[i];
        r->id = next_id + i;
        r->endpoint = step.endpoint[i];
        outstanding.fetch_add(1, std::memory_order_relaxed);
        const std::uint64_t s0 = now_ns();
        server.submit(r);
        so.submit_ns.push_back(static_cast<double>(now_ns() - s0));
        depth[i] = static_cast<double>(outstanding.load(std::memory_order_relaxed));
      }
      while (outstanding.load(std::memory_order_relaxed) > 0) {
        zzz.try_acquire_for(200'000);
      }
      // Backlog grows when the last quarter queues well above the first.
      double first = 0, last = 0;
      const std::size_t q = n / 4;
      for (std::size_t i = 0; i < q; ++i) {
        first += depth[i];
        last += depth[n - 1 - i];
      }
      so.backlog_grew = q > 0 && last / q > 2 * (first / q) + 4;
      std::uint64_t last_finish = start;
      for (std::size_t i = 0; i < n; ++i) {
        const serve::Request& r = arena[i];
        const std::uint64_t due = start + step.offset_ns[i];
        last_finish = std::max(last_finish, r.finish_ns);
        so.gen_lag_ms.push_back(static_cast<double>(r.submit_ns - due) / 1e6);
        ++so.attempted;
        if (r.outcome == serve::Outcome::kCompleted) {
          const double ms = static_cast<double>(r.finish_ns - due) / 1e6;
          so.latency_ms.push_back(ms);
          so.all_ms.push_back(ms);
          so.queue_ms.push_back(static_cast<double>(r.admit_ns - r.submit_ns) / 1e6);
          so.service_ms.push_back(static_cast<double>(r.finish_ns - r.admit_ns) / 1e6);
          continue;
        }
        ++so.failed;
        so.all_ms.push_back(std::numeric_limits<double>::infinity());
        if (r.outcome == serve::Outcome::kExpired) ++so.expired;
        else if (r.reject == serve::RejectReason::kQueueFull) ++so.rej_queue;
        else if (r.reject == serve::RejectReason::kAdmission) ++so.rej_admission;
        else ++so.rej_shed;
      }
      so.wall_s = static_cast<double>(last_finish - start) / 1e9;
      next_id += n;
      out.steps.push_back(std::move(so));
    }
    server.stop();
    join(pump);
    const serve::ServeReport rep = server.report();
    peak_live = static_cast<std::uint64_t>(rep.peak_live_bytes);
  });

  // Exactly-once termination, no leaked tracked bytes, heap within budget.
  if (corrupt) done[0].fetch_add(1);  // a request "terminated" twice
  for (std::size_t si = 0; si < arenas.size(); ++si) {
    for (const serve::Request& r : *arenas[si]) {
      if (done[r.id].load() != 1 || r.outcome == serve::Outcome::kPending) {
        std::fprintf(stderr, "serve-open: request %llu terminated %d times\n",
                     static_cast<unsigned long long>(r.id), done[r.id].load());
        ++out.violations;
      }
      if (r.bytes_live.load() != 0) {
        std::fprintf(stderr, "serve-open: request %llu leaked %lld bytes\n",
                     static_cast<unsigned long long>(r.id),
                     static_cast<long long>(r.bytes_live.load()));
        ++out.violations;
      }
    }
  }
  if (peak_live > cfg.mem_budget) {
    std::fprintf(stderr, "serve-open: peak tracked heap %llu over budget %zu\n",
                 static_cast<unsigned long long>(peak_live), cfg.mem_budget);
    ++out.violations;
  }
  out.heap_mb = static_cast<double>(static_cast<std::int64_t>(peak_live) - baseline) /
                (1 << 20);
  return out;
}

LadderStep ladder_step(const StepOut& s) {
  return {s.rate, percentile(s.all_ms, 0.99),
          static_cast<double>(s.failed) / static_cast<double>(s.attempted),
          s.backlog_grew};
}

/// The ladder plan: every rung for 15% of the run, the nominal one longer
/// so that at least 80 samples lie beyond its p99.
std::vector<std::pair<double, double>> ladder_plan(const Options& o) {
  std::vector<std::pair<double, double>> plan;
  for (double rate : kLadderRps) {
    double secs = 0.15 * o.seconds;
    if (rate == kNominalRps) {
      secs = std::max(o.seconds - 3 * secs,
                      static_cast<double>(kNominalMinRequests) / rate);
    }
    plan.emplace_back(rate, secs);
  }
  return plan;
}

void add_serve_layers(const RunOut& ro, Series& s) {
  std::vector<double> sub, queue, service, lag;
  std::uint64_t attempted = 0, rq = 0, rs = 0, ra = 0, ex = 0;
  for (const StepOut& so : ro.steps) {
    sub.insert(sub.end(), so.submit_ns.begin(), so.submit_ns.end());
    queue.insert(queue.end(), so.queue_ms.begin(), so.queue_ms.end());
    service.insert(service.end(), so.service_ms.begin(), so.service_ms.end());
    lag.insert(lag.end(), so.gen_lag_ms.begin(), so.gen_lag_ms.end());
    attempted += so.attempted;
    rq += so.rej_queue;
    rs += so.rej_shed;
    ra += so.rej_admission;
    ex += so.expired;
  }
  const auto frac = [attempted](std::uint64_t n) {
    return static_cast<double>(n) / static_cast<double>(attempted);
  };
  s.add("serve.submit_ns.p50", "ns", percentile(sub, 0.50));
  s.add("serve.submit_ns.p99", "ns", percentile(sub, 0.99));
  s.add("serve.queue_wait_ms.p50", "ms", percentile(queue, 0.50));
  s.add("serve.queue_wait_ms.p99", "ms", percentile(queue, 0.99));
  s.add("serve.service_ms.p50", "ms", percentile(service, 0.50));
  s.add("serve.service_ms.p99", "ms", percentile(service, 0.99));
  s.add("serve.gen_lag_ms.p50", "ms", percentile(lag, 0.50));
  s.add("serve.gen_lag_ms.p99", "ms", percentile(lag, 0.99));
  s.add("serve.rejected_queue", "ratio", frac(rq));
  s.add("serve.rejected_shed", "ratio", frac(rs));
  s.add("serve.rejected_admission", "ratio", frac(ra));
  s.add("serve.expired", "ratio", frac(ex));
  s.add("runtime.timed_wait_overshoot_us.p50", "us", percentile(ro.overshoot_us, 0.50));
  s.add("runtime.timed_wait_overshoot_us.p99", "us", percentile(ro.overshoot_us, 0.99));
}

}  // namespace

bool serve_open(const Options& o, Result& r) {
  std::vector<std::pair<double, double>> plan = ladder_plan(o);
  const std::size_t nominal =
      static_cast<std::size_t>(std::find(std::begin(kLadderRps), std::end(kLadderRps),
                                         kNominalRps) - std::begin(kLadderRps));
  std::vector<double> setups;
  Inputs in;
  for (int i = 0; i < kSetupReps; ++i) {
    const std::uint64_t t0 = mono_ns();
    in = make_all(o.seed, plan);
    setups.push_back(secs_since(t0));
  }
  r.notes.push_back("serve-open set-up: " + std::to_string(setups.size()) +
                    " repetitions, median " + std::to_string(median(setups)) + " s");

  // Warm-up: the nominal rate, in its own run, untimed.
  const Inputs warm = make_all(o.seed + 1, {{kNominalRps, kWarmupS}});
  const RunOut w = serve_run(warm, o.seed, nullptr, nullptr);
  int violations = w.violations;
  r.notes.push_back("serve-open runs with serve_soak's 64 KiB stacks and 64 KiB quota");
  r.notes.push_back("serve-open warm-up: " + std::to_string(kWarmupS) +
                    " s at the nominal " + std::to_string(kNominalRps) + " rps");

  // Tracing overhead compares the nominal step's median latency (its
  // wall_s is set by the arrival schedule).
  double untraced_p50 = 0;
  std::unique_ptr<obs::Tracer> tracer;
  std::unique_ptr<obs::Profiler> prof;
  if (o.trace) {
    const Inputs only = make_all(o.seed, {plan[nominal]});
    const RunOut u = serve_run(only, o.seed, nullptr, nullptr);
    violations += u.violations;
    untraced_p50 = percentile(u.steps[0].latency_ms, 0.50);
    tracer = make_tracer();
    prof = std::make_unique<obs::Profiler>();
  }
  reset_rss_peak();
  const RunOut ro = serve_run(in, o.seed, tracer.get(), prof.get(), o.inject_wrong);
  violations += ro.violations;

  std::vector<LadderStep> ladder;
  for (const StepOut& so : ro.steps) ladder.push_back(ladder_step(so));
  const int best = max_sustained_step(ladder, kSlo);
  const StepOut& nom = ro.steps[nominal];
  r.attempted = nom.attempted;
  r.failed = nom.failed;
  for (const StepOut& so : ro.steps) {
    const LadderStep ls = ladder_step(so);
    char line[200];
    std::snprintf(line, sizeof line,
                  "serve-open step %.0f rps: %llu requests, p50 %.3f ms, p99 %.3f ms, "
                  "fail %.4f, backlog %s",
                  so.rate, static_cast<unsigned long long>(so.attempted),
                  percentile(so.latency_ms, 0.5), ls.p99_ms, ls.fail_frac,
                  so.backlog_grew ? "grew" : "steady");
    r.notes.push_back(line);
  }

  if (o.trace) {
    add_serve_layers(ro, r.layers);
    RunAgg agg;
    agg.add(ro.stats, tracer.get());
    agg.emit(r.layers);
    r.layers.add("obs.trace_overhead_pct", "%",
                 (percentile(nom.latency_ms, 0.50) / untraced_p50 - 1.0) * 100.0);
    r.layers.add("fail_frac", "ratio",
                 static_cast<double>(nom.failed) / static_cast<double>(nom.attempted));
  } else {
    r.e2e.add("setup_s", "s", median(setups));
    r.e2e.add("wall_s", "s", nom.wall_s);
    r.e2e.add("heap_peak_mb", "MB", ro.heap_mb);
    r.e2e.add("rss_peak_mb", "MB", rss_peak_mb());
    r.e2e.add("p50_ms", "ms", percentile(nom.latency_ms, 0.50));
    r.e2e.add("p99_ms", "ms", percentile(nom.latency_ms, 0.99));
    r.e2e.add("max_rate_rps", "1/s", best < 0 ? 0.0 : ladder[best].rate_rps);
    r.e2e.add("fail_frac", "ratio",
              static_cast<double>(nom.failed) / static_cast<double>(nom.attempted));
    r.notes.push_back("serve-open nominal step: " + std::to_string(nom.latency_ms.size()) +
                      " completed samples, " +
                      std::to_string(samples_beyond(nom.latency_ms, 0.99)) +
                      " beyond p99; generator lag p99 " +
                      std::to_string(percentile(nom.gen_lag_ms, 0.99)) + " ms");
  }
  return violations == 0;
}

bool serve_layers_once(const Options& o, Series& layers) {
  const Inputs in = make_all(o.seed, {{kNominalRps, 1.0}});
  const std::unique_ptr<obs::Tracer> tracer = make_tracer();
  obs::Profiler prof;
  const RunOut ro = serve_run(in, o.seed, tracer.get(), &prof);
  add_serve_layers(ro, layers);
  return ro.violations == 0;
}

}  // namespace dfbench
