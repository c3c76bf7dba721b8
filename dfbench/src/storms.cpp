// fork-storm and lock-storm: a binary fork tree written against the public
// API, where the runtime itself is almost the whole run.
//
// Every internal node spawns its left half, recurses into its right half
// and joins. Each leaf df_mallocs a seed-chosen small buffer, fills it with
// its value, sums it back and df_frees it; lock-storm leaves also add their
// value to one of a few shared counters under a contended dfth::Mutex. The
// results are checked against sums computed serially at set-up.
//
// lock-storm passes run in a forked child so a pass that exceeds the stall
// limit can be killed, counted as failed and reported with its time.
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <sstream>
#include <string>

#include "common.h"
#include "runtime/sync.h"
#include "space/tracked_heap.h"
#include "util/rng.h"

namespace dfbench {
namespace {

constexpr int kDepth = 17;          // 2^17 leaves
constexpr int kMutexes = 2;         // lock-storm contention
constexpr double kStallLimitS = 5;  // lock-storm pass counted as stalled
constexpr int kSetupReps = 9;       // set-up repetitions behind setup_s

struct StormInputs {
  std::vector<std::uint32_t> leaf_bytes;  // per-leaf df_malloc size
  std::vector<std::uint64_t> leaf_val;
  std::uint64_t expect_sum = 0;           // sum of leaf checksums
  std::uint64_t expect_counter[kMutexes] = {};
};

/// A leaf's work: a tracked buffer filled with its value and summed back.
std::uint64_t leaf_work(std::uint32_t bytes, std::uint64_t val) {
  auto* buf = static_cast<std::uint64_t*>(dfth::df_malloc(bytes));
  for (std::uint32_t w = 0; w < bytes / 8; ++w) buf[w] = val;
  std::uint64_t sum = 0;
  for (std::uint32_t w = 0; w < bytes / 8; ++w) sum += buf[w];
  dfth::df_free(buf);
  return sum;
}

/// Leaf inputs from the seed, and the reference sums from running every
/// leaf's work serially.
StormInputs make_inputs(std::uint64_t seed) {
  StormInputs in;
  const std::size_t leaves = std::size_t{1} << kDepth;
  dfth::Rng rng(seed ^ 0xf0a4'57e0ull);
  in.leaf_bytes.resize(leaves);
  in.leaf_val.resize(leaves);
  for (std::size_t i = 0; i < leaves; ++i) {
    in.leaf_bytes[i] = static_cast<std::uint32_t>(256 + 8 * rng.next_below(225));
    in.leaf_val[i] = rng.next_below(1 << 20) + 1;
    in.expect_sum += leaf_work(in.leaf_bytes[i], in.leaf_val[i]);
    in.expect_counter[i % kMutexes] += in.leaf_val[i];
  }
  return in;
}

/// Per-call timings, indexed by leaf (or by an internal node's split
/// point), filled only on call-timed passes.
struct CallTimes {
  std::vector<double> spawn_ns, first_run_us, join_wait_us, heap_ns, lock_us;
  explicit CallTimes(std::size_t n)
      : spawn_ns(n, -1), first_run_us(n, -1), join_wait_us(n, -1),
        heap_ns(n, -1), lock_us(n, -1) {}
  static std::vector<double> filled(const std::vector<double>& v) {
    std::vector<double> out;
    for (double x : v) if (x >= 0) out.push_back(x);
    return out;
  }
};

struct Tree {
  const StormInputs& in;
  bool locks;
  CallTimes* times;  // null except on call-timed passes
  dfth::Mutex mu[kMutexes];
  std::uint64_t counter[kMutexes] = {};

  std::uint64_t leaf(std::size_t i) {
    const std::uint64_t t0 = times ? mono_ns() : 0;
    const std::uint64_t sum = leaf_work(in.leaf_bytes[i], in.leaf_val[i]);
    if (times) times->heap_ns[i] = static_cast<double>(mono_ns() - t0);
    if (locks) {
      dfth::Mutex& m = mu[i % kMutexes];
      const std::uint64_t l0 = times ? mono_ns() : 0;
      m.lock();
      if (times) times->lock_us[i] = static_cast<double>(mono_ns() - l0) / 1e3;
      counter[i % kMutexes] += in.leaf_val[i];
      m.unlock();
    }
    return sum;
  }

  std::uint64_t node(std::size_t lo, std::size_t hi) {
    if (hi - lo == 1) return leaf(lo);
    const std::size_t mid = lo + (hi - lo) / 2;
    std::uint64_t left = 0;
    const std::uint64_t t_spawn = times ? mono_ns() : 0;
    dfth::Thread t = dfth::spawn([this, lo, mid, &left, t_spawn]() -> void* {
      if (times) {
        times->first_run_us[mid] = static_cast<double>(mono_ns() - t_spawn) / 1e3;
      }
      left = node(lo, mid);
      return nullptr;
    });
    if (times) times->spawn_ns[mid] = static_cast<double>(mono_ns() - t_spawn);
    const std::uint64_t right = node(mid, hi);
    const std::uint64_t j0 = times ? mono_ns() : 0;
    dfth::join(t);
    if (times) times->join_wait_us[mid] = static_cast<double>(mono_ns() - j0) / 1e3;
    return left + right;
  }
};

struct PassOut {
  double wall_s = 0;
  double heap_mb = 0;
  double rss_mb = 0;  // VmHWM over the pass
  bool correct = false;
};

/// What a pass measures besides its wall time. Tracing and the harness's
/// own per-call clock reads are kept to separate passes, so the traced
/// passes' wall time carries the cost of the Tracer and Profiler alone.
enum class Probe {
  kNone,
  kTrace,      ///< Tracer + Profiler installed; run-level per-layer metrics
  kCallTimes,  ///< spawn/first-run/join/heap/lock calls timed per call
};

/// One tree under its own run(), appending the per-layer samples its probe
/// gives to `layers`.
PassOut tree_pass(const StormInputs& in, bool locks, std::uint64_t seed,
                  Probe probe, bool inject_wrong, Series* layers) {
  std::unique_ptr<dfth::obs::Tracer> tracer;
  std::unique_ptr<dfth::obs::Profiler> prof;
  std::unique_ptr<CallTimes> times;
  if (probe == Probe::kTrace) {
    tracer = make_tracer();
    prof = std::make_unique<dfth::obs::Profiler>();
  } else if (probe == Probe::kCallTimes) {
    times = std::make_unique<CallTimes>(in.leaf_val.size());
  }
  Tree tree{in, locks, times.get(), {}, {}};
  std::uint64_t sum = 0;
  reset_rss_peak();
  const std::int64_t live0 = dfth::TrackedHeap::instance().live_bytes();
  const std::uint64_t t0 = mono_ns();
  const dfth::RunStats st =
      dfth::run(real_opts(seed, tracer.get(), prof.get()),
                [&] { sum = tree.node(0, in.leaf_val.size()); });
  PassOut out;
  out.wall_s = secs_since(t0);
  out.heap_mb = heap_above_mb(st, live0);
  out.rss_mb = rss_peak_mb();
  if (inject_wrong) sum ^= 1;
  out.correct = sum == in.expect_sum;
  if (locks) {
    for (int m = 0; m < kMutexes; ++m) {
      out.correct = out.correct && tree.counter[m] == in.expect_counter[m];
    }
  }
  if (probe == Probe::kCallTimes && layers != nullptr) {
    Series& s = *layers;
    const auto pct = [](const std::vector<double>& v, double q) {
      return percentile(CallTimes::filled(v), q);
    };
    if (!locks) {
      s.add("runtime.spawn_ns.p50", "ns", pct(times->spawn_ns, 0.50));
      s.add("runtime.spawn_ns.p99", "ns", pct(times->spawn_ns, 0.99));
      s.add("runtime.first_run_us.p50", "us", pct(times->first_run_us, 0.50));
      s.add("runtime.first_run_us.p99", "us", pct(times->first_run_us, 0.99));
      s.add("runtime.join_wait_us.p50", "us", pct(times->join_wait_us, 0.50));
      s.add("runtime.join_wait_us.p99", "us", pct(times->join_wait_us, 0.99));
      s.add("space.heap_alloc_free_ns", "ns", median(CallTimes::filled(times->heap_ns)));
    } else {
      s.add("runtime.lock_wait_us.p50", "us", pct(times->lock_us, 0.50));
      s.add("runtime.lock_wait_us.p99", "us", pct(times->lock_us, 0.99));
    }
  }
  if (probe == Probe::kTrace && layers != nullptr) {
    RunAgg agg;
    agg.add(st, tracer.get());
    agg.emit(*layers);
  }
  return out;
}

// ---- isolation for passes that may stall ------------------------------------

enum class Isolated { kFinished, kStalled, kCrashed };

/// Runs `fn` in a forked child and collects what it returned in `payload`.
/// A child still running after `limit_s` is killed and reaped (kStalled).
/// Called only between runs, when the process has no runtime threads.
template <typename Fn>
Isolated run_isolated(double limit_s, Fn fn, std::string* payload) {
  int fds[2];
  if (pipe(fds) != 0) return Isolated::kCrashed;
  std::fflush(stdout);
  const pid_t pid = fork();
  if (pid == 0) {
    close(fds[0]);
    const std::string msg = fn();
    std::size_t off = 0;
    while (off < msg.size()) {
      const ssize_t n = write(fds[1], msg.data() + off, msg.size() - off);
      if (n <= 0) break;
      off += static_cast<std::size_t>(n);
    }
    close(fds[1]);
    _exit(0);
  }
  close(fds[1]);
  if (pid < 0) {
    close(fds[0]);
    return Isolated::kCrashed;
  }
  payload->clear();
  const std::uint64_t t0 = mono_ns();
  bool done = false;
  for (;;) {
    const double left_s = limit_s - secs_since(t0);
    if (left_s <= 0) break;
    pollfd p{fds[0], POLLIN, 0};
    if (poll(&p, 1, static_cast<int>(left_s * 1000) + 1) <= 0) continue;
    char buf[4096];
    const ssize_t n = read(fds[0], buf, sizeof buf);
    if (n <= 0) {
      done = true;  // child closed the pipe: finished
      break;
    }
    payload->append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  if (!done) kill(pid, SIGKILL);
  int status = 0;
  waitpid(pid, &status, 0);
  if (!done) return Isolated::kStalled;
  return WIFEXITED(status) && WEXITSTATUS(status) == 0 ? Isolated::kFinished
                                                        : Isolated::kCrashed;
}

std::string serialize(const PassOut& p, const Series& layers) {
  std::ostringstream os;
  os.precision(17);
  os << "pass " << p.wall_s << ' ' << p.heap_mb << ' ' << p.rss_mb << ' '
     << p.correct << '\n';
  for (const auto& [name, e] : layers.entries()) {
    for (double v : e.values) os << name << ' ' << e.unit << ' ' << v << '\n';
  }
  return os.str();
}

void deserialize(const std::string& text, PassOut* p, Series* layers) {
  std::istringstream is(text);
  std::string name, unit;
  is >> name >> p->wall_s >> p->heap_mb >> p->rss_mb >> p->correct;
  double v = 0;
  while (is >> name >> unit >> v) layers->add(name, unit, v);
}

struct StormRun {
  std::vector<double> walls;
  std::vector<double> heaps;
  std::vector<double> rss;
  std::uint64_t passes = 0, stalled = 0;
  bool correct = true;
};

/// One pass of either storm; lock-storm goes through run_isolated. Returns
/// false when the pass stalled (then only `out->wall_s` is meaningful).
bool storm_pass(const StormInputs& in, bool locks, const Options& o,
                Probe probe, Series* layers, PassOut* out) {
  if (!locks) {
    *out = tree_pass(in, false, o.seed, probe, o.inject_wrong, layers);
    return true;
  }
  std::string payload;
  const std::uint64_t t0 = mono_ns();
  const Isolated how = run_isolated(kStallLimitS, [&] {
    Series child;
    const PassOut p = tree_pass(in, true, o.seed, probe, o.inject_wrong, &child);
    return serialize(p, child);
  }, &payload);
  if (how != Isolated::kFinished) {
    *out = PassOut{};
    out->wall_s = secs_since(t0);
    // A stalled pass is not wrong, just late: it counts as failed.
    out->correct = how == Isolated::kStalled;
    return how == Isolated::kCrashed;
  }
  Series child;
  deserialize(payload, out, &child);
  if (layers != nullptr) layers->merge(child);
  return true;
}

/// Runs passes with `probe` for `budget_s` (and until `run` holds at least
/// three), recording each in `run` and its per-layer samples in `layers`.
void storm_passes(const StormInputs& in, bool locks, const Options& o, Probe probe,
                  double budget_s, StormRun& run, Series* layers, Result& r) {
  const char* name = locks ? "lock-storm" : "fork-storm";
  const std::uint64_t t0 = mono_ns();
  while (secs_since(t0) < budget_s || run.passes < 3) {
    PassOut p;
    const bool finished = storm_pass(in, locks, o, probe, layers, &p);
    ++run.passes;
    if (!finished) {
      ++run.stalled;
      static const char* const kProbeName[] = {"", "traced ", "call-timed "};
      r.notes.push_back(std::string(name) + " " + kProbeName[static_cast<int>(probe)] +
                        "pass " + std::to_string(run.passes) + " stalled: killed after " +
                        std::to_string(p.wall_s) + " s");
    } else {
      run.correct = run.correct && p.correct;
      run.heaps.push_back(p.heap_mb);
      run.rss.push_back(p.rss_mb);
    }
    run.walls.push_back(p.wall_s);
  }
}

bool run_storm(const Options& o, bool locks, Result& r) {
  const char* name = locks ? "lock-storm" : "fork-storm";
  StormInputs in = make_inputs(o.seed);

  // Warm-up: the workload itself, untimed, until the host is in the
  // regime the timed passes see.
  PassOut p;
  const std::uint64_t t0 = mono_ns();
  int warm = 0;
  while (secs_since(t0) < kWarmupS || warm < 2) {
    storm_pass(in, locks, o, Probe::kNone, nullptr, &p);
    ++warm;
  }
  r.notes.push_back(std::string(name) + " warm-up: " + std::to_string(warm) +
                    " untimed passes over " + std::to_string(secs_since(t0)) + " s");

  // Set-up: leaf inputs and the serial reference sums. It is short, so it
  // is repeated here, on the warmed-up host, where repetitions read
  // steadily.
  std::vector<double> setups;
  for (int i = 0; i < kSetupReps; ++i) {
    const std::uint64_t s0 = mono_ns();
    in = make_inputs(o.seed);
    setups.push_back(secs_since(s0));
  }
  r.notes.push_back(std::string(name) + " set-up: " + std::to_string(setups.size()) +
                    " repetitions, median " + std::to_string(median(setups)) + " s");

  // A traced run splits --seconds three ways: plain passes (the base of the
  // trace overhead), traced passes, and call-timed passes.
  StormRun run;
  if (o.trace) {
    StormRun traced, timed;
    storm_passes(in, locks, o, Probe::kNone, o.seconds / 3, run, nullptr, r);
    storm_passes(in, locks, o, Probe::kTrace, o.seconds / 3, traced, &r.layers, r);
    storm_passes(in, locks, o, Probe::kCallTimes, o.seconds / 3, timed, &r.layers, r);
    r.layers.add("obs.trace_overhead_pct", "%",
                 (median(traced.walls) / median(run.walls) - 1.0) * 100.0);
    for (const StormRun* s : {&traced, &timed}) {
      run.passes += s->passes;
      run.stalled += s->stalled;
      run.correct = run.correct && s->correct;
      run.walls.insert(run.walls.end(), s->walls.begin(), s->walls.end());
    }
  } else {
    storm_passes(in, locks, o, Probe::kNone, o.seconds, run, nullptr, r);
  }

  std::string times = std::string(name) + " pass times (s):";
  for (double w : run.walls) times += " " + std::to_string(w).substr(0, 6);
  r.notes.push_back(times);
  r.attempted = run.passes;
  r.failed = run.stalled;
  const double fail_frac =
      static_cast<double>(run.stalled) / static_cast<double>(run.passes);
  if (o.trace) {
    r.layers.add("fail_frac", "ratio", fail_frac);
  } else {
    r.e2e.add("setup_s", "s", median(setups));
    r.e2e.add("wall_s", "s", median(run.walls));
    r.e2e.add("heap_peak_mb", "MB", median(run.heaps));
    r.e2e.add("rss_peak_mb", "MB", median(run.rss));
    r.e2e.add("fail_frac", "ratio", fail_frac);
  }
  if (locks) {
    std::string s = "lock-storm stalls: " + std::to_string(run.stalled) + "/" +
                    std::to_string(run.passes) + " passes over " +
                    std::to_string(kStallLimitS) + " s";
    r.notes.push_back(s);
  }
  return run.correct;
}

}  // namespace

bool fork_storm(const Options& o, Result& r) { return run_storm(o, false, r); }
bool lock_storm(const Options& o, Result& r) { return run_storm(o, true, r); }

bool fork_layers_once(const Options& o, Series& layers) {
  const StormInputs in = make_inputs(o.seed);
  PassOut p;
  storm_pass(in, false, o, Probe::kCallTimes, &layers, &p);
  return p.correct;
}

}  // namespace dfbench
