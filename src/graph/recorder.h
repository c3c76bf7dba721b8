// Computation-graph recorder.
//
// Section 2 of the paper reasons about programs via their computation
// graphs (Figure 1): nodes are sequential chunks of a thread, solid edges
// are forks, dashed edges are joins. This module records exactly that DAG
// while a program runs (under either engine), so tests and benches can
// compute total work T1, critical-path work (span), average parallelism,
// and check schedule properties like Brent's bound and the AsyncDF space
// bound against ground truth.
//
// Model: each thread is a chain of *segments* split at fork and join
// points. Edges:
//   * continuation: segment i -> segment i+1 of the same thread,
//   * fork: forking segment -> first segment of the child,
//   * join: last segment of the exited thread -> segment after the join.
// Segment weights are the annotate_work() ops and net df_malloc bytes
// accrued while the segment was open. Segments are created in a valid
// topological order by construction.
//
// The recorder is attached by RuntimeOptions::record_graph and driven from
// the API layer; it is mutex-protected for the real engine.
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

namespace dfth {

enum class EdgeKind : std::uint8_t { Continuation, Fork, Join };

struct GraphSegment {
  std::uint64_t thread_id = 0;
  std::uint64_t ops = 0;          ///< annotated work units
  std::int64_t alloc_bytes = 0;   ///< net df_malloc - df_free while open
};

struct GraphEdge {
  std::uint32_t from = 0;
  std::uint32_t to = 0;
  EdgeKind kind = EdgeKind::Continuation;
};

struct Graph {
  std::vector<GraphSegment> segments;  ///< index order is topological
  std::vector<GraphEdge> edges;
};

class Recorder {
 public:
  /// Thread `tid` enters the system; `parent_tid` is 0 for the main thread.
  void on_thread_start(std::uint64_t tid, std::uint64_t parent_tid);

  void on_work(std::uint64_t tid, std::uint64_t ops);
  void on_alloc(std::uint64_t tid, std::int64_t bytes);

  /// `joiner` observed the exit of `target` (join edge).
  void on_join(std::uint64_t target_tid, std::uint64_t joiner_tid);

  /// Extracts the recorded graph (recorder becomes empty).
  Graph take();

 private:
  struct ThreadRec {
    std::uint64_t tid = 0;
    std::int32_t open_segment = -1;  ///< index into graph_.segments
    std::int32_t last_segment = -1;  ///< final segment (set implicitly)
  };

  // Finds/creates per-thread record; caller holds mu_.
  ThreadRec& rec_for(std::uint64_t tid);
  std::uint32_t open_new_segment(ThreadRec& rec, EdgeKind incoming_kind,
                                 std::int32_t extra_pred);

  std::mutex mu_;
  Graph graph_;
  std::vector<ThreadRec> threads_;  // indexed lookup by tid via map below
  std::vector<std::int64_t> tid_to_index_;
};

namespace detail {
inline constinit Recorder* g_recorder = nullptr;
void set_recorder(Recorder* r);
}  // namespace detail

/// Recorder attached to the active run (nullptr when record_graph is off).
/// Inline, so the edge spine's recorder gate is one load and a branch.
inline Recorder* active_recorder() { return detail::g_recorder; }

}  // namespace dfth
