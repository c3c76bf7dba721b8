// dfth-prof: offline views of the PROF_<app>.json files written by
// obs/export.h (write_profile_json). Like dfth-trace, it parses the
// writer's fixed line-oriented key order with plain string scanning — the
// toolchain has no JSON library, and none is needed.
//
//   dfth-prof report <PROF.json> [--top N]
//       Parallelism report: work, span, burdened span, overhead,
//       parallelism, the Brent what-if sweep (predicted T_p bounds vs
//       measured T_p), and the top-N critical-path spawn-site segments.
//
//   dfth-prof collapse <PROF.json>
//       Collapsed spawn-site stacks ("stack work_ns", one per line) on
//       stdout — pipe to a file and load in speedscope or feed to
//       flamegraph.pl. Work is keyed by the df_create/dfth::spawn call
//       chain that created each fiber, so the flame graph answers "which
//       spawn sites cost what".
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

namespace {

/// Extracts the value after `"key": ` as a raw token (up to , } or end).
bool raw_value(const std::string& line, const char* key, std::string* out) {
  const std::string pat = std::string("\"") + key + "\": ";
  const auto pos = line.find(pat);
  if (pos == std::string::npos) return false;
  auto start = pos + pat.size();
  auto end = start;
  int depth = 0;
  while (end < line.size()) {
    const char c = line[end];
    if (c == '{') ++depth;
    if (depth == 0 && (c == ',' || c == '}')) break;
    if (c == '}') --depth;
    ++end;
  }
  *out = line.substr(start, end - start);
  return true;
}

bool string_value(const std::string& line, const char* key, std::string* out) {
  std::string raw;
  if (!raw_value(line, key, &raw)) return false;
  if (raw.size() < 2 || raw.front() != '"' || raw.back() != '"') return false;
  *out = raw.substr(1, raw.size() - 2);
  return true;
}

bool num_value(const std::string& line, const char* key, double* out) {
  std::string raw;
  if (!raw_value(line, key, &raw)) return false;
  *out = std::atof(raw.c_str());
  return true;
}

bool u64_value(const std::string& line, const char* key, std::uint64_t* out) {
  std::string raw;
  if (!raw_value(line, key, &raw)) return false;
  *out = static_cast<std::uint64_t>(std::strtoull(raw.c_str(), nullptr, 10));
  return true;
}

struct SweepRow {
  int p = 0;
  double lo_us = 0, hi_us = 0, measured_us = -1;
};

struct StackRow {
  std::string stack;
  std::uint64_t ns = 0;
};

struct ProfFile {
  std::string label;
  bool enabled = false;
  std::uint64_t work_ns = 0, span_ns = 0, burdened_span_ns = 0;
  std::uint64_t overhead_ns = 0, fibers = 0;
  double parallelism = 0, elapsed_us = 0;
  int nprocs = 0;
  std::vector<SweepRow> sweep;
  std::vector<StackRow> crit;       ///< segments sum to span_ns
  std::vector<StackRow> collapsed;  ///< lines sum to work_ns
};

bool load(const std::string& path, ProfFile* pf) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("\"label\": ", 0) == 0) {
      string_value(line, "label", &pf->label);
    } else if (line.rfind("\"profile\": ", 0) == 0) {
      std::string enabled;
      raw_value(line, "enabled", &enabled);
      pf->enabled = enabled == "true";
      u64_value(line, "work_ns", &pf->work_ns);
      u64_value(line, "span_ns", &pf->span_ns);
      u64_value(line, "burdened_span_ns", &pf->burdened_span_ns);
      u64_value(line, "overhead_ns", &pf->overhead_ns);
      u64_value(line, "fibers", &pf->fibers);
      num_value(line, "parallelism", &pf->parallelism);
    } else if (line.rfind("\"elapsed_us\": ", 0) == 0) {
      num_value(line, "elapsed_us", &pf->elapsed_us);
    } else if (line.rfind("\"nprocs\": ", 0) == 0) {
      double p = 0;
      num_value(line, "nprocs", &p);
      pf->nprocs = static_cast<int>(p);
    } else if (line.rfind("{\"p\": ", 0) == 0) {
      SweepRow r;
      double p = 0;
      num_value(line, "p", &p);
      r.p = static_cast<int>(p);
      num_value(line, "predicted_lo_us", &r.lo_us);
      num_value(line, "predicted_hi_us", &r.hi_us);
      num_value(line, "measured_us", &r.measured_us);
      pf->sweep.push_back(r);
    } else if (line.rfind("{\"stack\": ", 0) == 0) {
      StackRow r;
      string_value(line, "stack", &r.stack);
      // Collapsed lines carry "work_ns", critical-path segments "ns"; the
      // underscore keeps the two keys from matching each other's pattern.
      if (u64_value(line, "work_ns", &r.ns)) {
        pf->collapsed.push_back(std::move(r));
      } else if (u64_value(line, "ns", &r.ns)) {
        pf->crit.push_back(std::move(r));
      }
    }
  }
  return true;
}

int report(const ProfFile& pf, const std::string& path, std::size_t top_n) {
  std::printf("profile: %s (%s)\n", path.c_str(), pf.label.c_str());
  if (!pf.enabled) {
    std::printf("  (profiling was not enabled for this run — install a "
                "Profiler through RuntimeOptions::profiler)\n");
    return 0;
  }
  std::printf("  fibers        %12llu\n",
              static_cast<unsigned long long>(pf.fibers));
  std::printf("  work          %12.3f ms   (T1: one processor, no scheduler)\n",
              pf.work_ns / 1e6);
  std::printf("  span          %12.3f ms   (T_inf: critical path)\n",
              pf.span_ns / 1e6);
  std::printf("  burdened span %12.3f ms   (span + scheduling burden)\n",
              pf.burdened_span_ns / 1e6);
  std::printf("  overhead      %12.3f ms   (lane-side scheduler time)\n",
              pf.overhead_ns / 1e6);
  std::printf("  parallelism   %12.2f      (work / span)\n", pf.parallelism);

  if (!pf.sweep.empty()) {
    std::printf("\nwhat-if (Brent bounds from this profile):\n");
    std::printf("  %4s  %14s  %14s  %14s\n", "p", "predicted lo", "predicted hi",
                "measured");
    for (const SweepRow& r : pf.sweep) {
      std::printf("  %4d  %11.3f ms  %11.3f ms  ", r.p, r.lo_us / 1000.0,
                  r.hi_us / 1000.0);
      if (r.measured_us >= 0) {
        const char* verdict =
            r.measured_us >= r.lo_us - 1e-3 && r.measured_us <= r.hi_us + 1e-3
                ? ""
                : "  <- outside bounds";
        std::printf("%11.3f ms%s\n", r.measured_us / 1000.0, verdict);
      } else {
        std::printf("%14s\n", "-");
      }
    }
  }

  std::printf("\ncritical path by spawn site (segments sum to span):\n");
  std::size_t shown = 0;
  for (const StackRow& r : pf.crit) {
    if (shown++ >= top_n) break;
    const double share =
        pf.span_ns ? 100.0 * static_cast<double>(r.ns) / pf.span_ns : 0.0;
    std::printf("  %5.1f%%  %11.3f ms  %s\n", share, r.ns / 1e6,
                r.stack.c_str());
  }
  if (pf.crit.empty()) std::printf("  (none)\n");
  if (shown > top_n) {
    std::printf("  ... %zu more segments (--top N)\n", pf.crit.size() - top_n);
  }
  return 0;
}

int collapse(const ProfFile& pf) {
  for (const StackRow& r : pf.collapsed) {
    std::printf("%s %llu\n", r.stack.c_str(),
                static_cast<unsigned long long>(r.ns));
  }
  return 0;
}

void usage() {
  std::fprintf(stderr,
               "usage: dfth-prof report <PROF.json> [--top N]\n"
               "       dfth-prof collapse <PROF.json>\n"
               "  PROF.json: output of a profiled run "
               "(obs::write_profile_json, e.g. bench/prof_apps)\n"
               "  collapse prints folded stacks for speedscope/flamegraph.pl\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    usage();
    return argc >= 2 && std::strcmp(argv[1], "--help") == 0 ? 0 : 2;
  }
  const bool is_report = std::strcmp(argv[1], "report") == 0;
  const bool is_collapse = std::strcmp(argv[1], "collapse") == 0;
  if (!is_report && !is_collapse) {
    usage();
    return 2;
  }
  std::size_t top_n = 10;
  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], "--top") == 0 && i + 1 < argc) {
      top_n = static_cast<std::size_t>(std::atoll(argv[++i]));
    }
  }
  ProfFile pf;
  if (!load(argv[2], &pf)) {
    std::fprintf(stderr, "dfth-prof: cannot open %s\n", argv[2]);
    return 1;
  }
  return is_report ? report(pf, argv[2], top_n) : collapse(pf);
}
