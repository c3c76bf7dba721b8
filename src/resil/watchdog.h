// Stall watchdog and flight recorder.
//
// A hung parallel run is the one failure mode neither the tracer (which is
// read after the run) nor the auditor (which checks per-operation
// invariants) can report, because nothing *happens* anymore. The watchdog
// closes that gap: RealEngine runs a supervisor thread that notices when no
// scheduler progress (dispatch / wake / exit) occurs within a wall-clock
// deadline, and SimEngine enforces a ceiling on virtual time. Either trip
// ends in dump_flight_recorder(): a best-effort crash dump of everything
// the runtime knows — per-worker current fibers, every thread's state and
// held locks (PR-1 LockGraph data), the AsyncDF serial-order list, the tail
// of the obs trace rings, and the fault-injection counters — written to
// stderr and optionally a file, followed by abort().
//
// The dump lives in src/resil (not src/runtime) deliberately: the engine
// layers are stdio-free by lint rule; a crash dump is the one place raw
// stderr is the right tool.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace dfth {

struct Tcb;
class TcbPool;
class Scheduler;

namespace obs {
class Tracer;
}

namespace resil {

/// Watchdog knobs, carried by RuntimeOptions. Both deadlines default to 0 =
/// disabled; the watchdog is an opt-in diagnostic, not a supervisor that
/// kills slow-but-correct runs.
struct WatchdogConfig {
  /// RealEngine: abort when no dispatch/wake/exit progress is observed for
  /// this many wall-clock milliseconds.
  std::uint64_t stall_deadline_ms = 0;

  /// SimEngine: abort when the virtual clock of any processor exceeds this
  /// many virtual nanoseconds (a stalled simulation either stops advancing —
  /// caught by the deadlock check — or spins past any plausible ceiling).
  std::uint64_t virtual_deadline_ns = 0;

  /// When non-empty, the flight-recorder dump is also written to this file
  /// (CI uploads it as an artifact on failure).
  std::string dump_path;

  /// Optional caller-owned liveness heartbeat for intentionally idle runs.
  /// A long-lived serving engine with an empty ingress makes no scheduler
  /// progress by design — that is liveness, not a stall. When set, the
  /// caller bumps this counter whenever it is alive-but-idle (the serve
  /// pump's drain/poll loop), and both watchdogs treat a beat like
  /// dispatch progress: RealEngine folds it into the supervisor's progress
  /// snapshot, SimEngine restarts the virtual deadline window from the last
  /// beat instead of measuring from time zero. The deadline itself stays
  /// tight — a wedged pump stops beating and still trips it.
  const std::atomic<std::uint64_t>* heartbeat = nullptr;
};

/// One execution lane (kernel worker or virtual processor) and the fiber it
/// was running when the recorder fired.
struct FlightLane {
  int lane = 0;
  const Tcb* running = nullptr;
};

/// Everything the dump needs, gathered by the tripping engine. All pointers
/// are borrowed; reads are best-effort (the process is about to abort, and
/// for a real-engine stall the other workers may still be mutating state —
/// `sched_state_consistent` records whether the engine managed to lock its
/// scheduler before collecting).
struct FlightInfo {
  const char* reason = "";
  const char* engine = "";
  std::int64_t live_threads = -1;
  bool sched_state_consistent = true;
  std::vector<FlightLane> lanes;
  const TcbPool* tcbs = nullptr;  ///< the engine's control blocks
  Scheduler* sched = nullptr;      ///< may be an AuditedScheduler decorator
  obs::Tracer* tracer = nullptr;   ///< active trace session, if any

  /// Record/replay context (src/replay/): when the aborting run was
  /// recording, the engine flushes the in-flight schedule log before
  /// gathering this info and sets record_log to its path plus replay_cmd to
  /// a paste-ready command line that re-executes the recorded schedule.
  /// When the aborting run itself was a replay, replay_log names its input.
  std::string record_log;
  std::string replay_cmd;
  std::string replay_log;
  /// Replaying runs: cursor + next expected decision at abort time.
  std::string replay_position;
};

/// Writes the flight-recorder dump to stderr (and cfg.dump_path when set).
/// Does not abort — callers decide (engines abort; tests capture).
void dump_flight_recorder(const FlightInfo& info, const WatchdogConfig& cfg);

}  // namespace resil
}  // namespace dfth
