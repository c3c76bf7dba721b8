// Heap accounting — the substrate for every space measurement in the paper.
//
// All benchmark allocations go through df_malloc/df_free (runtime/api.h),
// which delegate here. The heap records live bytes, the historical peak
// ("high water mark of total heap memory allocation", the paper's space
// metric in Figs 5b, 7b and 9), allocation counts, and the number of bytes
// that were *fresh* (grew the peak) — the simulator charges fresh pages more
// because the OS must zero-fill and map them.
//
// Thread-safe: counters are atomics; the real engine allocates from many
// kernel threads concurrently.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace dfth {

// -- race-detector shadow memory ----------------------------------------------
//
// The happens-before race detector (analyze/race_detector.h) keeps one
// shadow cell per 8-byte *granule* of df_malloc'd memory that the program
// has annotated with df_read/df_write. A cell remembers the last write as a
// FastTrack epoch (thread id, clock) and the read history as either a single
// epoch (the common, O(1) case) or an escalated per-thread clock vector when
// reads are genuinely concurrent. Cells live here — beside the heap that
// owns the memory they shadow — so df_free can retire a block's shadow in
// the same breath that retires the block (stale cells across allocator reuse
// would otherwise report races between unrelated lifetimes).

inline constexpr std::size_t kShadowGranuleBytes = 8;

/// One side of a recorded access, kept for race reports.
struct ShadowAccess {
  const char* site = nullptr;     ///< caller-supplied annotation label
  std::uint64_t order_tag = 0;    ///< serial-order (order-list) position
};

struct ShadowCell {
  std::uint64_t write_epoch = 0;  ///< packed (tid, clock); 0 = never written
  std::uint64_t read_epoch = 0;   ///< single-reader epoch; 0 = none
  std::vector<std::uint64_t> read_vc;  ///< escalated read clocks (index = tid)
  ShadowAccess write_info;
  ShadowAccess read_info;         ///< most recent read
};

/// Hash map of shadow cells keyed by granule index (address >> 3). The race
/// detector performs all cell reads/updates while holding mu(); the heap's
/// deallocation path clears ranges through the self-locking helpers.
class ShadowTable {
 public:
  /// Finds or creates the cell for a granule. Caller holds mu().
  ShadowCell& cell(std::uintptr_t granule);

  /// Drops every cell shadowing [p, p+bytes) — called on df_free so a
  /// recycled block starts with clean shadow. Early-outs without locking
  /// while the table has never held a cell (release-build fast path).
  void clear_range(const void* p, std::size_t bytes);

  void clear_all();
  std::size_t cell_count() const;

  std::mutex& mu() { return mu_; }

 private:
  mutable std::mutex mu_;
  std::atomic<std::size_t> count_{0};  ///< cells_ size mirror (lock-free gate)
  std::unordered_map<std::uintptr_t, ShadowCell> cells_;
};

class TrackedHeap {
 public:
  static TrackedHeap& instance();

  /// Allocates `bytes` (16-byte aligned) and records it. Returns nullptr on
  /// exhaustion with *no* counter mutated — the failure path is effect-free
  /// so callers can retry after the engines' OOM-preempt recovery. No
  /// exception ever leaves this class (a bad_alloc unwinding across a fiber
  /// context switch would kill the process).
  void* allocate(std::size_t bytes);

  /// Frees a pointer from allocate(); nullptr is a no-op.
  void deallocate(void* p);

  /// Size recorded for an allocate()d pointer.
  static std::size_t allocated_size(const void* p);

  /// Largest request worth handing to malloc: one that fits, with its
  /// header, in the host's physical memory. A larger one can never be met
  /// (and the sanitizer allocators abort on such sizes instead of returning
  /// null), so allocate_ex refuses it outright. Read once, when instance()
  /// first builds the heap, so every check is a plain load.
  std::size_t max_request_bytes() const { return max_request_; }

  std::int64_t live_bytes() const { return live_.load(std::memory_order_relaxed); }
  std::int64_t peak_bytes() const { return peak_.load(std::memory_order_relaxed); }
  std::uint64_t alloc_count() const { return allocs_.load(std::memory_order_relaxed); }
  std::uint64_t free_count() const { return frees_.load(std::memory_order_relaxed); }

  /// Starts a new measurement epoch: peak is reset to the current live level.
  /// Engines call this at run() entry so each experiment reports its own peak.
  void begin_epoch();

  /// Bytes by which the given allocation grew the peak (0 if it fit under
  /// the previous high water mark). Returned by allocate via out-param.
  /// Returns nullptr (leaving *fresh_bytes_out zero and every counter
  /// untouched) when the backing allocation fails, when sizeof(Header) +
  /// bytes would overflow, or when the resil injector fails the
  /// `heap.alloc` site.
  /// `probe_faults` = false skips the kHeapAlloc fault-site evaluation:
  /// df_malloc's OOM-recovery retries use it, so one allocation request
  /// draws the site exactly once and an injected failure is transient by
  /// construction (an aggressive plan — every 2nd evaluation failing —
  /// could otherwise fail all bounded retries and surface kNoMem into code
  /// that treats allocation as infallible). df_try_malloc with a status
  /// probes every retry, so its caller sees persistent faults.
  /// `injected_out` (may be null) reports whether a nullptr return was an
  /// injected failure as opposed to the backing malloc failing.
  void* allocate_ex(std::size_t bytes, std::int64_t* fresh_bytes_out,
                    bool probe_faults = true, bool* injected_out = nullptr);

  /// Shadow cells for the race detector; deallocate() clears a freed
  /// block's range automatically.
  ShadowTable& shadow() { return shadow_; }

 private:
  TrackedHeap();

  std::atomic<std::int64_t> live_{0};
  std::atomic<std::int64_t> peak_{0};
  std::atomic<std::uint64_t> allocs_{0};
  std::atomic<std::uint64_t> frees_{0};
  ShadowTable shadow_;
  // After shadow_, so it neither shares a cache line with the counters,
  // which every core writes on each allocation and free, nor shifts them.
  const std::size_t max_request_;
};

}  // namespace dfth
