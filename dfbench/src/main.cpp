// dfbench: end-to-end and per-layer benchmark of DFThreads on the
// RealEngine. dfbench/run.py builds this and is the normal entry point.
//
//   dfbench --workload fork-storm --seed 3 --seconds 10 --trace 0
//   dfbench --self-test
//
// The last line of stdout is one JSON object: correct, attempted, failed,
// metrics (median of each metric's samples, with its unit). Earlier lines
// starting with '#' label the run. The exit code is non-zero when any
// output was wrong.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"

#ifndef DFBENCH_FLAVOUR
#define DFBENCH_FLAVOUR "unknown"
#endif

namespace dfbench {
namespace {

struct Kind {
  const char* name;
  bool (*workload)(const Options&, Result&);
  bool (*layers_once)(const Options&, Series&);
};

const Kind kKinds[] = {
    {"apps-batch", apps_batch, apps_layers_once},
    {"fork-storm", fork_storm, fork_layers_once},
    // lock-storm stalls at random (see dfbench/METRICS.md), so its
    // per-layer metrics come only from its own runs.
    {"lock-storm", lock_storm, nullptr},
    {"serve-open", serve_open, serve_layers_once},
};

void print_json_string(const std::string& s) {
  std::putchar('"');
  for (char c : s) {
    if (c == '"' || c == '\\') std::putchar('\\');
    std::putchar(c);
  }
  std::putchar('"');
}

void print_result(bool correct, const Result& r, const Series& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  bool first = true;
  for (const auto& [name, e] : metrics.entries()) {
    const double v = median(e.values);
    if (!std::isfinite(v)) continue;  // JSON has no inf/nan
    std::printf("%s", first ? "" : ", ");
    print_json_string(name);
    std::printf(": {\"value\": %.17g, \"unit\": ", v);
    print_json_string(e.unit);
    std::printf("}");
    first = false;
  }
  std::printf("}}\n");
}

// ---- self-test of the benchmark's own arithmetic ----------------------------

int self_test() {
  int bad = 0;
  auto check = [&bad](bool ok, const char* what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
    if (!ok) ++bad;
  };
  std::vector<double> thousand;
  for (int i = 1; i <= 1000; ++i) thousand.push_back(1001 - i);  // unsorted
  check(percentile(thousand, 0.99) == 990, "p99 of 1..1000 is 990 (nearest rank)");
  check(samples_beyond(thousand, 0.99) == 10, "10 samples lie beyond that p99");
  check(percentile(thousand, 0.50) == 500, "p50 of 1..1000 is 500");
  std::vector<double> hundred(thousand.begin() + 900, thousand.end());  // 100..1
  check(percentile(hundred, 0.99) == 99, "p99 of 1..100 is 99");
  check(samples_beyond(hundred, 0.99) == 1, "1 sample lies beyond it");
  check(percentile({7.0}, 0.99) == 7 && percentile({}, 0.5) == 0,
        "percentile of one and of no samples");
  check(median({3, 1, 2}) == 2 && median({4, 1, 3, 2}) == 2.5,
        "median of odd and even counts");

  const Slo slo{20.0, 0.01};
  std::vector<LadderStep> ladder = {{1200, 4, 0, false},
                                    {1600, 9, 0.001, false},
                                    {2000, 19.9, 0.0, false},
                                    {2400, 35, 0.05, true}};
  check(max_sustained_step(ladder, slo) == 2, "ladder picks 2000 rps");
  ladder[2].fail_frac = 0.02;
  check(max_sustained_step(ladder, slo) == 1, "a step over 1% failed is not sustained");
  ladder[2].fail_frac = 0;
  ladder[2].backlog_grew = true;
  check(max_sustained_step(ladder, slo) == 1, "a growing backlog is not sustained");
  ladder[2].backlog_grew = false;
  ladder[2].p99_ms = 20.5;
  check(max_sustained_step(ladder, slo) == 1, "p99 over the limit is not sustained");
  for (LadderStep& s : ladder) s.p99_ms = 50;
  check(max_sustained_step(ladder, slo) == -1, "no sustained step gives -1");
  return bad == 0 ? 0 : 1;
}

void usage() {
  std::fprintf(stderr,
               "usage: dfbench --workload NAME --seed N --seconds S --trace 0|1\n"
               "               [--commit ID] [--inject-wrong]\n"
               "       dfbench --self-test\n"
               "workloads: apps-batch fork-storm lock-storm serve-open\n");
}

}  // namespace
}  // namespace dfbench

int main(int argc, char** argv) {
  using namespace dfbench;
  Options o;
  std::string workload, commit = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (a == "--self-test") return self_test();
    if (a == "--inject-wrong") {
      o.inject_wrong = true;
      continue;
    }
    if (v == nullptr) {
      usage();
      return 2;
    }
    ++i;
    if (a == "--workload") workload = v;
    else if (a == "--seed") o.seed = std::strtoull(v, nullptr, 10);
    else if (a == "--seconds") o.seconds = std::strtod(v, nullptr);
    else if (a == "--trace") o.trace = std::strcmp(v, "0") != 0;
    else if (a == "--commit") commit = v;
    else {
      usage();
      return 2;
    }
  }
  const Kind* kind = nullptr;
  for (const Kind& k : kKinds) {
    if (workload == k.name) kind = &k;
  }
  if (kind == nullptr || o.seconds <= 0) {
    usage();
    return 2;
  }

  std::printf("# workload=%s engine=real clock=wall lanes=%d sched=asyncdf "
              "stack=%zu flavour=\"%s\" commit=%s seed=%llu seconds=%g "
              "warmup=%gs trace=%d\n",
              kind->name, kProcs, kStackBytes, DFBENCH_FLAVOUR, commit.c_str(),
              static_cast<unsigned long long>(o.seed), o.seconds, kWarmupS,
              o.trace ? 1 : 0);
  std::fflush(stdout);

  Result r;
  bool correct = kind->workload(o, r);
  if (o.trace) {
    // Every per-layer metric in every traced run: the probes, plus one
    // traced pass of each workload this one does not run itself.
    micro_layers(r.layers);
    for (const Kind& k : kKinds) {
      if (&k != kind && k.layers_once != nullptr) {
        correct = k.layers_once(o, r.layers) && correct;
      }
    }
  }
  for (const std::string& n : r.notes) std::printf("# %s\n", n.c_str());
  print_result(correct, r, o.trace ? r.layers : r.e2e);
  std::fflush(stdout);
  return correct ? 0 : 1;
}
