// Profiler acceptance driver: run all seven paper apps with the work/span
// profiler installed and emit PROF_<app>.json per app — ProfileStats, the
// Brent what-if sweep (predicted T_p bounds vs simulator-measured T_p),
// critical-path attribution by spawn site, and collapsed stacks for
// speedscope / flamegraph.pl (via `dfth-prof collapse`).
//
// The reference profile for the predictions is the p=1 run: work and span
// are schedule-invariant, so the serial profile predicts the parallel runs.
// The sweep runs descending so the profiler object ends the loop holding
// the p=1 ledger (critical path / collapsed stacks are read from it last).
#include <cstdio>
#include <string>
#include <vector>

#include "apps_runner.h"
#include "core/scheduler.h"
#include "obs/export.h"
#include "obs/profile.h"

int main(int argc, char** argv) {
  using namespace dfth;
  bench::Common common("prof_apps",
                       "work/span profiles for the seven paper apps");
  auto* sched_name =
      common.cli.str_opt("sched", "asyncdf", "scheduler for the profiled runs");
  if (!common.parse(argc, argv)) return 0;
  const auto seed = static_cast<std::uint64_t>(*common.seed);
  const SchedKind sched = sched_kind_from_string(*sched_name);

  obs::Profiler prof;
  std::vector<bench::AppSpec> apps =
      bench::make_apps(*common.full, seed, EngineKind::Sim, &prof);
  // Slugs for PROF_<app>.json, in make_apps order.
  static const char* kSlugs[] = {"matmul", "barnes", "fmm",    "dtree",
                                 "fft",    "spmv",   "volrend"};
  if (apps.size() != sizeof kSlugs / sizeof kSlugs[0]) {
    std::fprintf(stderr, "app registry changed: %zu apps, %zu slugs\n",
                 apps.size(), sizeof kSlugs / sizeof kSlugs[0]);
    return 1;
  }

  std::vector<int> ps;
  for (int p = 1; p <= static_cast<int>(*common.procs_max); p *= 2) {
    ps.push_back(p);
  }

  bool ok = true;
  for (std::size_t i = 0; i < apps.size(); ++i) {
    const bench::AppSpec& app = apps[i];
    const std::string slug = kSlugs[i];

    // Descending, so the final (p=1) run leaves its ledger in `prof`.
    RunStats ref;
    std::vector<obs::ProfSweepRow> sweep(ps.size());
    for (std::size_t j = ps.size(); j-- > 0;) {
      const int p = ps[j];
      const RunStats stats = app.fine(sched, p, seed);
      common.record(slug + "/p" + std::to_string(p), stats);
      sweep[j].p = p;
      sweep[j].measured_us = stats.elapsed_us;
      if (p == 1) ref = stats;
    }
    for (std::size_t j = 0; j < ps.size(); ++j) {
      sweep[j].predicted_lo_us = ref.profile.predict_lo_ns(ps[j]) / 1000.0;
      sweep[j].predicted_hi_us = ref.profile.predict_hi_ns(ps[j]) / 1000.0;
    }

    const std::string path = "PROF_" + slug + ".json";
    if (!obs::write_profile_json(slug, ref, &prof, sweep, path)) {
      std::fprintf(stderr, "failed to write %s\n", path.c_str());
      return 1;
    }

    std::printf("%-8s fibers %8llu  work %12.3f ms  span %10.3f ms  "
                "parallelism %7.2f  -> %s\n",
                slug.c_str(),
                static_cast<unsigned long long>(ref.profile.fibers),
                ref.profile.work_ns / 1e6, ref.profile.span_ns / 1e6,
                ref.profile.parallelism(), path.c_str());
    for (std::size_t j = 0; j < ps.size(); ++j) {
      std::printf("         p=%d  predicted [%10.3f, %10.3f] ms  "
                  "measured %10.3f ms\n",
                  ps[j], sweep[j].predicted_lo_us / 1000.0,
                  sweep[j].predicted_hi_us / 1000.0,
                  sweep[j].measured_us / 1000.0);
    }

    if (!(ref.profile.work_ns >= ref.profile.span_ns &&
          ref.profile.span_ns > 0)) {
      std::fprintf(stderr, "%s: profile violates work >= span > 0\n",
                   slug.c_str());
      ok = false;
    }
  }

  common.write_json();
  if (!ok) return 1;
  std::puts("(inspect with: dfth-prof report PROF_matmul.json)");
  return 0;
}
