#include "graph/recorder.h"

#include "util/check.h"

namespace dfth {

namespace detail {
void set_recorder(Recorder* r) { g_recorder = r; }
}  // namespace detail

Recorder::ThreadRec& Recorder::rec_for(std::uint64_t tid) {
  if (tid >= tid_to_index_.size()) tid_to_index_.resize(tid + 1, -1);
  std::int64_t idx = tid_to_index_[tid];
  if (idx < 0) {
    idx = static_cast<std::int64_t>(threads_.size());
    threads_.push_back(ThreadRec{tid, -1, -1});
    tid_to_index_[tid] = idx;
  }
  return threads_[static_cast<std::size_t>(idx)];
}

std::uint32_t Recorder::open_new_segment(ThreadRec& rec, EdgeKind incoming_kind,
                                         std::int32_t extra_pred) {
  const auto seg = static_cast<std::uint32_t>(graph_.segments.size());
  graph_.segments.push_back(GraphSegment{rec.tid, 0, 0});
  if (rec.open_segment >= 0) {
    graph_.edges.push_back(
        {static_cast<std::uint32_t>(rec.open_segment), seg, EdgeKind::Continuation});
  }
  if (extra_pred >= 0) {
    graph_.edges.push_back({static_cast<std::uint32_t>(extra_pred), seg, incoming_kind});
  }
  rec.open_segment = static_cast<std::int32_t>(seg);
  rec.last_segment = rec.open_segment;
  return seg;
}

void Recorder::on_thread_start(std::uint64_t tid, std::uint64_t parent_tid) {
  std::lock_guard<std::mutex> lock(mu_);
  std::int32_t fork_pred = -1;
  if (parent_tid != 0) {
    ThreadRec& parent = rec_for(parent_tid);
    // Main is never started through here: its forking segment opens now.
    if (parent.open_segment < 0) open_new_segment(parent, EdgeKind::Continuation, -1);
    // The fork splits the parent's current segment: remember the forking
    // segment, then open the parent's continuation.
    fork_pred = parent.open_segment;
    open_new_segment(parent, EdgeKind::Continuation, -1);
  }
  ThreadRec& child = rec_for(tid);
  DFTH_CHECK_MSG(child.open_segment < 0, "thread started twice");
  open_new_segment(child, EdgeKind::Fork, fork_pred);
}

void Recorder::on_work(std::uint64_t tid, std::uint64_t ops) {
  std::lock_guard<std::mutex> lock(mu_);
  ThreadRec& rec = rec_for(tid);
  if (rec.open_segment < 0) open_new_segment(rec, EdgeKind::Continuation, -1);
  graph_.segments[static_cast<std::size_t>(rec.open_segment)].ops += ops;
}

void Recorder::on_alloc(std::uint64_t tid, std::int64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  ThreadRec& rec = rec_for(tid);
  if (rec.open_segment < 0) open_new_segment(rec, EdgeKind::Continuation, -1);
  graph_.segments[static_cast<std::size_t>(rec.open_segment)].alloc_bytes += bytes;
}

void Recorder::on_join(std::uint64_t target_tid, std::uint64_t joiner_tid) {
  std::lock_guard<std::mutex> lock(mu_);
  ThreadRec& target = rec_for(target_tid);
  ThreadRec& joiner = rec_for(joiner_tid);
  open_new_segment(joiner, EdgeKind::Join, target.last_segment);
}

Graph Recorder::take() {
  std::lock_guard<std::mutex> lock(mu_);
  Graph out = std::move(graph_);
  graph_ = Graph{};
  threads_.clear();
  tid_to_index_.clear();
  return out;
}

}  // namespace dfth
