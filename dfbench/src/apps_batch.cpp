// apps-batch: the seven paper apps, fine-grained, at the paper's sizes (the
// configurations bench/apps_runner.h's make_apps(true, ...) builds), run
// on the RealEngine and checked against their serial versions.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>

#include "apps/barnes/barnes.h"
#include "apps/dtree/dtree.h"
#include "apps/fft/fft.h"
#include "apps/fmm/fmm.h"
#include "apps/matmul/matmul.h"
#include "apps/spmv/spmv.h"
#include "apps/volrend/volrend.h"
#include "common.h"
#include "space/tracked_heap.h"

namespace dfbench {
namespace {

using namespace dfth;

constexpr int kSetupReps = 3;  // set-up repetitions behind setup_s

/// One app: inputs and serial reference built at set-up, `fine` runs the
/// fine-grained version once and reports whether its output matches. Only
/// the run() call is timed (RunStats::elapsed_us), not the input copies or
/// output checks around it.
struct App {
  std::string name;
  double serial_s = 0;
  std::function<bool(const RuntimeOptions&, bool corrupt, RunStats*)> fine;
};

/// Runs `fn` on one simulated processor, as make_apps' serial baselines do,
/// and returns the wall time of the run() call (the Sim engine's own
/// elapsed time is virtual).
template <typename Fn>
double serial_run(Fn fn) {
  RuntimeOptions o;
  o.engine = EngineKind::Sim;
  o.sched = SchedKind::AsyncDf;
  o.nprocs = 1;
  o.default_stack_size = kStackBytes;
  const std::uint64_t t0 = mono_ns();
  run(o, fn);
  return secs_since(t0);
}

struct DfArray {  // df_malloc'd doubles, as bench/matmul_runner.h holds them
  double* p;
  explicit DfArray(std::size_t n)
      : p(static_cast<double*>(df_malloc(n * sizeof(double)))) {}
  ~DfArray() { df_free(p); }
  DfArray(const DfArray&) = delete;
  DfArray& operator=(const DfArray&) = delete;
};

std::vector<App> make_apps(std::uint64_t seed) {
  std::vector<App> apps;

  {  // Matrix multiply, 1024x1024
    struct In {
      apps::MatmulConfig cfg;
      DfArray a, b, c, ref;
      explicit In(std::size_t n) : a(n * n), b(n * n), c(n * n), ref(n * n) {
        cfg.n = n;
        cfg.base = 64;
      }
    };
    auto in = std::make_shared<In>(1024);
    apps::matmul_fill(in->a.p, in->cfg.n, seed);
    apps::matmul_fill(in->b.p, in->cfg.n, seed + 1);
    App app{"matmul", 0, nullptr};
    app.serial_s = serial_run(
        [&] { apps::matmul_serial(in->a.p, in->b.p, in->ref.p, in->cfg); });
    app.fine = [in](const RuntimeOptions& o, bool corrupt, RunStats* st) {
      *st = run(o, [&] { apps::matmul_threaded(in->a.p, in->b.p, in->c.p, in->cfg); });
      if (corrupt) in->c.p[0] += 1.0;
      return apps::matmul_max_abs_diff(in->c.p, in->ref.p, in->cfg.n) < 1e-9;
    };
    apps.push_back(std::move(app));
  }

  {  // Barnes-Hut, 100k bodies, 2 timesteps
    auto cfg = std::make_shared<apps::BarnesConfig>();
    cfg->bodies = 100000;
    cfg->timesteps = 2;
    cfg->seed = seed;
    auto bodies = std::make_shared<std::vector<apps::Body>>(apps::barnes_generate(*cfg));
    auto ref = std::make_shared<apps::BarnesResult>();
    App app{"barnes", 0, nullptr};
    app.serial_s = serial_run([&] { *ref = apps::barnes_serial(*bodies, *cfg); });
    app.fine = [cfg, bodies, ref](const RuntimeOptions& o, bool corrupt, RunStats* st) {
      apps::BarnesResult res;
      *st = run(o, [&] { res = apps::barnes_fine(*bodies, *cfg); });
      if (corrupt) res.bodies[0].acc[0] += 1.0;
      return res.interactions == ref->interactions &&
             apps::barnes_max_rel_acc_error(res.bodies, ref->bodies) < 1e-9;
    };
    apps.push_back(std::move(app));
  }

  {  // FMM, 10k particles, 4 levels, 5 terms
    auto cfg = std::make_shared<apps::FmmConfig>();
    cfg->particles = 10000;
    cfg->levels = 4;
    cfg->terms = 5;
    cfg->chunk = 9;
    cfg->seed = seed;
    auto particles =
        std::make_shared<std::vector<apps::FmmParticle>>(apps::fmm_generate(*cfg));
    auto ref = std::make_shared<std::vector<apps::FmmParticle>>(*particles);
    App app{"fmm", 0, nullptr};
    app.serial_s = serial_run([&] { apps::fmm_serial(*ref, *cfg); });
    app.fine = [cfg, particles, ref](const RuntimeOptions& o, bool corrupt, RunStats* st) {
      auto copy = *particles;
      *st = run(o, [&] { apps::fmm_threaded(copy, *cfg); });
      if (corrupt) copy[0].potential += 1.0;
      return apps::fmm_max_rel_error(copy, *ref) < 1e-9;
    };
    apps.push_back(std::move(app));
  }

  {  // Decision tree, 133999 instances
    auto cfg = std::make_shared<apps::DtreeConfig>();
    cfg->instances = 133999;
    cfg->seed = seed;
    auto data = std::make_shared<std::vector<apps::Instance>>(apps::dtree_generate(*cfg));
    auto ref = std::make_shared<std::unique_ptr<apps::DtreeNode>>();
    App app{"dtree", 0, nullptr};
    app.serial_s = serial_run([&] { *ref = apps::dtree_build_serial(*data, *cfg); });
    app.fine = [cfg, data, ref](const RuntimeOptions& o, bool corrupt, RunStats* st) {
      std::unique_ptr<apps::DtreeNode> tree;
      *st = run(o, [&] { tree = apps::dtree_build_threaded(*data, *cfg); });
      if (corrupt) tree->count += 1;
      return tree != nullptr && apps::dtree_equal(*tree, **ref);
    };
    apps.push_back(std::move(app));
  }

  {  // FFT, N = 2^22, 256 threads
    constexpr std::size_t n = std::size_t{1} << 22;
    auto in = std::make_shared<std::vector<apps::Complex>>(n);
    auto ref = std::make_shared<std::vector<apps::Complex>>(n);
    apps::fft_fill(in->data(), n, seed);
    App app{"fft", 0, nullptr};
    // As in make_apps, the transform's output buffer is df_malloc'd inside
    // the run (so it is part of the heap peak); it is checked and freed
    // after the run.
    auto transform = [in](bool threaded, apps::Complex** out) {
      apps::FftPlan plan(n);
      *out = static_cast<apps::Complex*>(df_malloc(sizeof(apps::Complex) * n));
      if (threaded) plan.execute_threaded(in->data(), *out, 256);
      else plan.execute_serial(in->data(), *out);
    };
    apps::Complex* serial_out = nullptr;
    app.serial_s = serial_run([&] { transform(false, &serial_out); });
    std::copy(serial_out, serial_out + n, ref->data());
    df_free(serial_out);
    app.fine = [ref, transform](const RuntimeOptions& o, bool corrupt, RunStats* st) {
      apps::Complex* out = nullptr;
      *st = run(o, [&] { transform(true, &out); });
      if (corrupt) out[0] += 1.0;
      const bool ok = apps::fft_max_abs_diff(out, ref->data(), n) < 1e-9;
      df_free(out);
      return ok;
    };
    apps.push_back(std::move(app));
  }

  {  // Sparse matrix-vector product, paper mesh size, 20 iterations
    auto cfg = std::make_shared<apps::SpmvConfig>();
    cfg->seed = seed;
    auto m = std::make_shared<apps::CsrMatrix>(cfg->rows, cfg->rows);
    apps::spmv_generate(*m, *cfg);
    auto v = std::make_shared<std::vector<double>>(cfg->rows, 1.0);
    auto ref = std::make_shared<std::vector<double>>(cfg->rows, 0.0);
    App app{"spmv", 0, nullptr};
    app.serial_s = serial_run([&] {
      for (int i = 0; i < cfg->iterations; ++i) apps::spmv_serial(*m, v->data(), ref->data());
    });
    app.fine = [cfg, m, v, ref](const RuntimeOptions& o, bool corrupt, RunStats* st) {
      std::vector<double> w(cfg->rows, 0.0);
      *st = run(o, [&] { apps::spmv_fine(*m, v->data(), w.data(), *cfg); });
      if (corrupt) w[0] += 1.0;
      return apps::spmv_max_abs_diff(w.data(), ref->data(), cfg->rows) < 1e-12;
    };
    apps.push_back(std::move(app));
  }

  {  // Volume rendering, 256^3 volume, 375^2 image
    auto cfg = std::make_shared<apps::VolrendConfig>();
    cfg->volume_dim = 256;
    cfg->image_dim = 375;
    cfg->tiles_per_thread = 64;
    cfg->seed = seed;
    auto vol = std::make_shared<apps::Volume>(*cfg);
    auto ref = std::make_shared<apps::Image>();
    App app{"volrend", 0, nullptr};
    app.serial_s = serial_run([&] { *ref = apps::volrend_serial(*vol, *cfg); });
    app.fine = [cfg, vol, ref](const RuntimeOptions& o, bool corrupt, RunStats* st) {
      apps::Image img;
      *st = run(o, [&] { img = apps::volrend_fine(*vol, *cfg); });
      if (corrupt) img[0] ^= 1;
      return apps::volrend_images_equal(img, *ref);
    };
    apps.push_back(std::move(app));
  }
  return apps;
}

/// Per-pass measurements of all seven apps.
struct PassOut {
  double wall_s = 0;
  double heap_mb = 0;             // sum over apps
  double rss_mb = 0;              // VmHWM over the pass
  std::vector<double> app_wall;   // per app, seconds
  std::vector<double> app_heap;   // per app, MiB
  bool correct = true;
  RunAgg agg;
};

PassOut run_pass(std::vector<App>& apps, const Options& o, bool tracing) {
  PassOut out;
  reset_rss_peak();
  for (std::size_t i = 0; i < apps.size(); ++i) {
    std::unique_ptr<obs::Tracer> tracer;
    std::unique_ptr<obs::Profiler> prof;
    if (tracing) {
      tracer = make_tracer();
      prof = std::make_unique<obs::Profiler>();
    }
    const RuntimeOptions opts = real_opts(o.seed, tracer.get(), prof.get());
    const std::int64_t live0 = TrackedHeap::instance().live_bytes();
    RunStats st;
    const bool ok = apps[i].fine(opts, o.inject_wrong && i == 0, &st);
    const double wall = st.elapsed_us / 1e6;
    if (!ok) {
      std::fprintf(stderr, "apps-batch: %s output differs from serial\n",
                   apps[i].name.c_str());
    }
    out.correct = out.correct && ok;
    out.app_wall.push_back(wall);
    out.app_heap.push_back(heap_above_mb(st, live0));
    out.wall_s += wall;
    out.heap_mb += out.app_heap.back();
    if (tracing) out.agg.add(st, tracer.get());
  }
  out.rss_mb = rss_peak_mb();
  return out;
}

void add_app_layers(const std::vector<App>& apps, const PassOut& p, Series& s) {
  double serial = 0;
  for (std::size_t i = 0; i < apps.size(); ++i) {
    const std::string pre = "apps." + apps[i].name + ".";
    s.add(pre + "wall_s", "s", p.app_wall[i]);
    s.add(pre + "serial_s", "s", apps[i].serial_s);
    s.add(pre + "heap_peak_mb", "MB", p.app_heap[i]);
    serial += apps[i].serial_s;
  }
  s.add("apps.speedup", "ratio", serial / p.wall_s);
}

}  // namespace

bool apps_batch(const Options& o, Result& r) {
  std::vector<double> setups;
  std::vector<App> apps;
  for (int i = 0; i < kSetupReps; ++i) {
    apps.clear();  // release the previous set-up's inputs first
    const std::uint64_t t0 = mono_ns();
    apps = make_apps(o.seed);
    setups.push_back(secs_since(t0));
  }
  r.notes.push_back("apps-batch set-up: " + std::to_string(setups.size()) +
                    " repetitions, median " + std::to_string(median(setups)) + " s");

  bool correct = true;
  std::uint64_t t0 = mono_ns();
  int warm = 0;
  while (secs_since(t0) < kWarmupS || warm < 1) {
    correct = run_pass(apps, o, false).correct && correct;
    ++warm;
  }
  r.notes.push_back("apps-batch warm-up: " + std::to_string(warm) +
                    " untimed passes over " + std::to_string(secs_since(t0)) + " s");

  std::vector<PassOut> passes;
  double untraced = 0;
  if (o.trace) {
    std::vector<double> plain;
    t0 = mono_ns();
    while (secs_since(t0) < o.seconds / 2 || plain.size() < 2) {
      const PassOut p = run_pass(apps, o, false);
      correct = correct && p.correct;
      plain.push_back(p.wall_s);
    }
    untraced = median(plain);
  }
  const double budget = o.trace ? o.seconds / 2 : o.seconds;
  t0 = mono_ns();
  while (secs_since(t0) < budget || passes.size() < 3) {
    passes.push_back(run_pass(apps, o, o.trace));
    correct = correct && passes.back().correct;
  }

  r.attempted = passes.size() * apps.size();
  r.failed = 0;
  if (o.trace) {
    std::vector<double> walls;
    for (const PassOut& p : passes) {
      add_app_layers(apps, p, r.layers);
      p.agg.emit(r.layers);
      walls.push_back(p.wall_s);
    }
    r.layers.add("obs.trace_overhead_pct", "%", (median(walls) / untraced - 1.0) * 100.0);
  } else {
    std::vector<double> walls, heaps, rss;
    for (const PassOut& p : passes) {
      walls.push_back(p.wall_s);
      heaps.push_back(p.heap_mb);
      rss.push_back(p.rss_mb);
    }
    r.e2e.add("setup_s", "s", median(setups));
    r.e2e.add("wall_s", "s", median(walls));
    r.e2e.add("heap_peak_mb", "MB", median(heaps));
    r.e2e.add("rss_peak_mb", "MB", median(rss));
    std::string per_app = "apps-batch median wall per app (s):";
    for (std::size_t i = 0; i < apps.size(); ++i) {
      std::vector<double> w;
      for (const PassOut& p : passes) w.push_back(p.app_wall[i]);
      per_app += " " + apps[i].name + "=" + std::to_string(median(w)).substr(0, 6) +
                 " (serial " + std::to_string(apps[i].serial_s).substr(0, 6) + ")";
    }
    r.notes.push_back(per_app);
    std::string times = "apps-batch pass times (s):";
    for (double w : walls) times += " " + std::to_string(w).substr(0, 6);
    r.notes.push_back(times);
  }
  return correct;
}

bool apps_layers_once(const Options& o, Series& layers) {
  std::vector<App> apps = make_apps(o.seed);
  const PassOut p = run_pass(apps, o, true);
  add_app_layers(apps, p, layers);
  return p.correct;
}

}  // namespace dfbench
