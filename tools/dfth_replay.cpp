// dfth-replay: inspect, diff and re-execute schedule logs (src/replay/).
//
//   dfth-replay inspect <log>        header + event-kind histogram
//   dfth-replay diff <a> <b>         first divergence between two logs
//   dfth-replay replay [--sim] [--full] <log>
//                                    re-run the recorded app pinned to the log
//
// `replay` resolves the app through the recorded tag: the soak and the
// property tests record tag = bench::app_slug(name), and this tool rebuilds
// the same input (bench/apps_runner.h) from the seed stored in the header.
// --sim forces the run onto the SimEngine — a cross-replay of a RealEngine
// log under virtual time. --full selects the paper-size inputs for logs
// recorded from a --full run (problem size is not part of the header).
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "apps_runner.h"
#include "replay/log.h"
#include "replay/signature.h"

namespace {

using namespace dfth;

int usage() {
  std::fprintf(stderr,
               "usage: dfth-replay inspect <log>\n"
               "       dfth-replay diff <a> <b>\n"
               "       dfth-replay replay [--sim] [--full] <log>\n");
  return 2;
}

const char* kind_name(std::uint16_t kind) {
  if (kind >= static_cast<std::uint16_t>(replay::EvKind::kCount)) return "?";
  return replay::to_string(static_cast<replay::EvKind>(kind));
}

bool load_or_complain(const std::string& path, replay::LoadedLog* log) {
  std::string error;
  if (!replay::load_log(path, log, &error)) {
    std::fprintf(stderr, "dfth-replay: %s\n", error.c_str());
    return false;
  }
  return true;
}

void print_actor(std::uint64_t actor) {
  if (actor == replay::kActorHost) {
    std::printf("host");
  } else if (actor == replay::kActorTimer) {
    std::printf("timer");
  } else if (actor & replay::kLaneActorBit) {
    std::printf("lane%" PRIu64, actor & ~replay::kLaneActorBit);
  } else {
    std::printf("tid%" PRIu64, actor);
  }
}

void print_record(const replay::Record& r) {
  std::printf("seq=%" PRIu64 " %s actor=", r.seq, kind_name(r.kind));
  print_actor(r.actor);
  std::printf(" a=%" PRIu64 " b=%" PRIu64 " (lane %u)", r.a, r.b, r.lane);
}

int cmd_inspect(const std::string& path, std::size_t ev_from,
                std::size_t ev_to) {
  replay::LoadedLog log;
  if (!load_or_complain(path, &log)) return 1;
  if (ev_from != ev_to) {
    // --events A B: dump the ordered decisions in [A, B) — the view to pull
    // up around the index a divergence/stall diagnostic names.
    for (std::size_t i = ev_from; i < ev_to && i < log.ordered.size(); ++i) {
      std::printf("[%zu] ", i);
      print_record(log.ordered[i]);
      std::printf("\n");
    }
    return 0;
  }
  const replay::LogHeader& h = log.header;
  std::printf("log:      %s\n", path.c_str());
  std::printf("tag:      %s\n", h.tag[0] ? h.tag : "(none)");
  std::printf("engine:   %s   sched=%u  nprocs=%u  cluster=%u  lanes=%u\n",
              h.engine == static_cast<std::uint32_t>(EngineKind::Real) ? "real"
                                                                       : "sim",
              h.sched, h.nprocs, h.cluster_size, h.lanes);
  std::printf("seed:     %" PRIu64 "  quota=%" PRIu64 "  stack=%" PRIu64 "\n",
              h.seed, h.mem_quota, h.default_stack_size);
  std::printf("events:   %" PRIu64 " (%zu ordered, %zu annotations)  %s\n",
              h.event_count, log.ordered.size(), log.annotations.size(),
              h.clean_end ? "clean end" : "PARTIAL (abort-time flush)");
  if (h.has_fault_plan) {
    std::printf("faults:   embedded plan, seed %" PRIu64 "\n", h.fault_seed);
    for (int i = 0; i < replay::kMaxFaultSitesWire; ++i) {
      const replay::SiteSpecWire& s = h.fault_sites[i];
      if (s.every_nth == 0 && s.probability == 0.0) continue;
      std::printf("          site %d: every_nth=%" PRIu64 " p=%.3f skip=%" PRIu64
                  " max=%" PRIu64 "\n",
                  i, s.every_nth, s.probability, s.skip_first, s.max_failures);
    }
  } else {
    std::printf("faults:   no embedded plan\n");
  }
  std::uint64_t counts[static_cast<int>(replay::EvKind::kCount)] = {};
  auto tally = [&counts](const std::vector<replay::Record>& v) {
    for (const replay::Record& r : v) {
      if (r.kind < static_cast<std::uint16_t>(replay::EvKind::kCount)) {
        ++counts[r.kind];
      }
    }
  };
  tally(log.ordered);
  tally(log.annotations);
  std::printf("-- event kinds --\n");
  for (int k = 0; k < static_cast<int>(replay::EvKind::kCount); ++k) {
    if (counts[k] == 0) continue;
    std::printf("  %-12s %10" PRIu64 "\n",
                kind_name(static_cast<std::uint16_t>(k)), counts[k]);
  }
  return 0;
}

int cmd_diff(const std::string& pa, const std::string& pb) {
  replay::LoadedLog a, b;
  if (!load_or_complain(pa, &a) || !load_or_complain(pb, &b)) return 1;
  int rc = 0;
  if (std::memcmp(&a.header.engine, &b.header.engine,
                  sizeof(std::uint32_t) * 4) != 0 ||
      a.header.seed != b.header.seed) {
    std::printf("headers differ (engine/sched/nprocs/cluster/seed)\n");
    rc = 1;
  }
  const std::size_t n = std::min(a.ordered.size(), b.ordered.size());
  for (std::size_t i = 0; i < n; ++i) {
    const replay::Record &ra = a.ordered[i], &rb = b.ordered[i];
    // seq values may differ (they interleave with annotations); the decision
    // stream itself — kind, actor, operands — is what must match.
    if (ra.kind != rb.kind || ra.actor != rb.actor || ra.a != rb.a ||
        ra.b != rb.b) {
      std::printf("ordered streams diverge at decision %zu:\n  %s: ", i,
                  pa.c_str());
      print_record(ra);
      std::printf("\n  %s: ", pb.c_str());
      print_record(rb);
      std::printf("\n");
      return 1;
    }
  }
  if (a.ordered.size() != b.ordered.size()) {
    std::printf("ordered streams agree for %zu decisions, then %s has %zu more\n",
                n, a.ordered.size() > b.ordered.size() ? pa.c_str() : pb.c_str(),
                a.ordered.size() > b.ordered.size()
                    ? a.ordered.size() - b.ordered.size()
                    : b.ordered.size() - a.ordered.size());
    return 1;
  }
  if (a.annotations.size() != b.annotations.size()) {
    std::printf("annotation (steal) counts differ: %zu vs %zu\n",
                a.annotations.size(), b.annotations.size());
    rc = 1;
  }
  if (rc == 0) {
    std::printf("identical: %zu ordered decisions, %zu annotations\n",
                a.ordered.size(), a.annotations.size());
  }
  return rc;
}

int cmd_replay(const std::string& path, bool force_sim, bool full) {
  replay::LoadedLog log;
  if (!load_or_complain(path, &log)) return 1;
  const replay::LogHeader& h = log.header;
  if (h.tag[0] == '\0') {
    std::fprintf(stderr,
                 "dfth-replay: log has no tag; cannot resolve which app to "
                 "re-run (record with RuntimeOptions::record_tag set)\n");
    return 1;
  }
  const EngineKind engine =
      force_sim ? EngineKind::Sim : static_cast<EngineKind>(h.engine);
  const bool cross = engine == EngineKind::Sim &&
                     h.engine == static_cast<std::uint32_t>(EngineKind::Real);

  // The header pins every option the replay-session open checks; the tweak
  // copies them over whatever defaults the app registry picked so a log
  // recorded outside the soak's exact configuration still replays.
  auto tweak = [&path, &h](RuntimeOptions& o) {
    o.replay_path = path;
    o.cluster_size = static_cast<int>(h.cluster_size);
    o.mem_quota = h.mem_quota;
    o.default_stack_size = h.default_stack_size;
    o.seed = h.seed;
  };
  auto apps = bench::make_apps(full, h.seed, engine, nullptr, tweak);
  for (bench::AppSpec& app : apps) {
    if (bench::app_slug(app.name) != h.tag && app.name != h.tag) continue;
    std::printf("replaying %s (%s, %s%s) from %s\n", app.name.c_str(),
                app.problem.c_str(), to_string(engine),
                cross ? " cross-replay" : "", path.c_str());
    std::fflush(stdout);
    const RunStats stats = app.fine(static_cast<SchedKind>(h.sched),
                                    static_cast<int>(h.nprocs), h.seed);
    std::printf("DFTH-SIG replay/%s %s\n", h.tag,
                replay::determinism_signature(stats).c_str());
    std::printf("replay completed\n");
    return 0;
  }
  std::fprintf(stderr,
               "dfth-replay: no app matches tag '%s' (known: ", h.tag);
  for (std::size_t i = 0; i < apps.size(); ++i) {
    std::fprintf(stderr, "%s%s", i ? ", " : "",
                 bench::app_slug(apps[i].name).c_str());
  }
  std::fprintf(stderr, ")\n");
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (cmd == "inspect" && argc == 3) return cmd_inspect(argv[2], 0, 0);
  if (cmd == "inspect" && argc == 6 &&
      std::string(argv[3]) == "--events") {
    return cmd_inspect(argv[2], std::strtoull(argv[4], nullptr, 10),
                       std::strtoull(argv[5], nullptr, 10));
  }
  if (cmd == "diff" && argc == 4) return cmd_diff(argv[2], argv[3]);
  if (cmd == "replay") {
    bool sim = false, full = false;
    std::string path;
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--sim") {
        sim = true;
      } else if (arg == "--full") {
        full = true;
      } else if (path.empty()) {
        path = arg;
      } else {
        return usage();
      }
    }
    if (path.empty()) return usage();
    return cmd_replay(path, sim, full);
  }
  return usage();
}
