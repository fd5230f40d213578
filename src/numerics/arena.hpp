#pragma once

// Arena-based memory ownership for the numerics substrate.
//
// The substrate's unit of memory lifetime is the *slice*: a forward slice
// retains a fixed set of activations plus one KV chunk, and the matching
// backward — strictly LIFO within a microbatch (§4.1.2) — retires exactly
// that set. A bump allocator with watermark reclamation models this
// directly: forward pushes a Mark, retained tensors land above it, backward
// releases back to it. Per-op scratch (attention score rows, reduction
// partials) instead comes from a grow-only per-thread workspace that is
// reused across calls, so the hot path stops churning the heap entirely.
//
// Accounting is per mem::Category (the same indices the analytical tracker
// books simulated MemDelta records against), which is what lets
// src/memory/reconcile.hpp compare the substrate's *measured* peaks against
// mem::replay_memory's prediction for the same schedule.
//
// Thread-safety: an Arena is single-owner (one stage thread drives it; the
// determinism contract keeps kernel workers away from retained-tensor
// construction), but the ArenaStats sink it reports into is atomic so many
// arenas — one per in-flight microbatch, plus every thread's workspace —
// can share one per-stage (or global) sink.

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/memory/category.hpp"

namespace slim::num {

/// Thread-safe live/peak byte accounting per mem::Category. The peak of the
/// *sum across all arenas sharing the sink* is tracked, not the sum of
/// per-arena peaks — concurrent microbatch arenas overlap in time, and the
/// reconciliation needs the true high-water mark.
class ArenaStats {
 public:
  ArenaStats() {
    for (auto& v : live_) v.store(0, std::memory_order_relaxed);
    for (auto& v : peak_) v.store(0, std::memory_order_relaxed);
    total_live_.store(0, std::memory_order_relaxed);
    total_peak_.store(0, std::memory_order_relaxed);
  }

  void on_alloc(int category, std::int64_t bytes);
  void on_free(int category, std::int64_t bytes);

  std::int64_t live_bytes(int category) const {
    return live_[static_cast<std::size_t>(category)].load(
        std::memory_order_relaxed);
  }
  /// High-water mark of this category's live bytes.
  std::int64_t peak_bytes(int category) const {
    return peak_[static_cast<std::size_t>(category)].load(
        std::memory_order_relaxed);
  }
  /// High-water mark of the all-category total (≤ sum of per-category
  /// peaks, which may occur at different times).
  std::int64_t total_peak_bytes() const {
    return total_peak_.load(std::memory_order_relaxed);
  }
  std::int64_t total_live_bytes() const {
    return total_live_.load(std::memory_order_relaxed);
  }

  void reset();

 private:
  std::array<std::atomic<std::int64_t>, mem::kNumCategories> live_;
  std::array<std::atomic<std::int64_t>, mem::kNumCategories> peak_;
  std::atomic<std::int64_t> total_live_;
  std::atomic<std::int64_t> total_peak_;
};

/// Bump allocator over chained blocks with watermark (Mark) reclamation.
/// Pointers stay valid until the allocation's region is released — growing
/// appends a new block, never moves old ones.
class Arena {
 public:
  /// `stats` may be null (no accounting) or shared across arenas.
  explicit Arena(ArenaStats* stats = nullptr,
                 std::size_t block_bytes = kDefaultBlockBytes);
  ~Arena();

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Scope watermark: everything allocated after mark() is reclaimed —
  /// bytes returned to the stats sink and the bump offset rewound — by
  /// release_to(). Releases must nest LIFO.
  struct Mark {
    std::size_t block = 0;
    std::size_t used = 0;
    std::size_t log_size = 0;
  };

  /// 64-byte-aligned raw allocation booked under `category`. A request no
  /// block from the current one on has room for appends a block of its own
  /// (at least block_bytes), first releasing the empty blocks past the
  /// current one, so growing requests keep only the blocks in use reserved.
  void* allocate(std::size_t bytes, int category);
  float* allocate_floats(std::int64_t count, int category) {
    return static_cast<float*>(
        allocate(static_cast<std::size_t>(count) * sizeof(float), category));
  }

  Mark mark() const;
  void release_to(const Mark& m);
  /// Releases everything (watermark zero); blocks are kept for reuse.
  void release_all();
  /// Frees the (empty) blocks past the current one, for an arena whose
  /// scopes retire for good (a microbatch's slices) rather than recur.
  void trim();

  std::int64_t live_bytes() const { return live_bytes_; }
  /// Live (not yet released) allocations, mirroring live_bytes().
  std::int64_t allocation_count() const { return allocation_count_; }
  /// Bytes of backing blocks currently reserved (reused across scopes).
  std::int64_t reserved_bytes() const;

  static constexpr std::size_t kDefaultBlockBytes = std::size_t{1} << 20;

 private:
  struct Block {
    std::unique_ptr<unsigned char[]> data;
    std::size_t capacity = 0;
    std::size_t used = 0;
  };
  // One log entry per allocation so release_to can return the right byte
  // counts to the right categories (a plain bump pointer forgets them).
  struct LogEntry {
    int category;
    std::size_t bytes;
  };

  std::vector<Block> blocks_;
  std::size_t current_ = 0;   // block accepting new allocations
  std::vector<LogEntry> log_;
  ArenaStats* stats_ = nullptr;
  std::size_t block_bytes_ = kDefaultBlockBytes;
  std::int64_t live_bytes_ = 0;
  std::int64_t allocation_count_ = 0;
};

/// RAII arena scope: captures the watermark on construction, releases back
/// to it on destruction. Scopes must nest LIFO (asserted by release_to).
class ArenaScope {
 public:
  explicit ArenaScope(Arena& arena) : arena_(&arena), mark_(arena.mark()) {}
  ~ArenaScope() { arena_->release_to(mark_); }
  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

 private:
  Arena* arena_;
  Arena::Mark mark_;
};

/// Routes Tensor allocations made *on this thread* while the binding is
/// alive into `arena` under `category`. Bindings nest (the previous binding
/// is restored on destruction). Kernel worker threads never inherit the
/// caller's binding — thread_local by design — so parallel regions keep
/// allocating scratch from their own workspaces, preserving the determinism
/// contract.
class ArenaBinding {
 public:
  ArenaBinding(Arena* arena, int category);
  ~ArenaBinding();
  ArenaBinding(const ArenaBinding&) = delete;
  ArenaBinding& operator=(const ArenaBinding&) = delete;

  static Arena* current_arena();
  static int current_category();

 private:
  Arena* prev_arena_;
  int prev_category_;
};

/// Global accounting sink for all per-thread workspaces (category
/// mem::kWorkspace). The bench reports its total peak as
/// "peak-workspace-bytes".
ArenaStats& workspace_stats();

/// This thread's grow-only scratch arena. Blocks are allocated once and
/// reused by every subsequent kernel call on the thread.
Arena& workspace_arena();

/// RAII lease of `count` elements of per-thread workspace. Contents are
/// UNINITIALIZED (and recycled from earlier leases): users must write every
/// element they read, the same rule Tensor's uninitialized path follows.
template <typename T>
class WorkspaceLease {
 public:
  explicit WorkspaceLease(std::int64_t count)
      : arena_(&workspace_arena()), mark_(arena_->mark()) {
    data_ = static_cast<T*>(arena_->allocate(
        static_cast<std::size_t>(count) * sizeof(T), mem::kWorkspace));
  }
  ~WorkspaceLease() { arena_->release_to(mark_); }
  WorkspaceLease(const WorkspaceLease&) = delete;
  WorkspaceLease& operator=(const WorkspaceLease&) = delete;

  T* data() { return data_; }
  T& operator[](std::int64_t i) { return data_[i]; }
  const T& operator[](std::int64_t i) const { return data_[i]; }

 private:
  Arena* arena_;
  Arena::Mark mark_;
  T* data_;
};

/// Allocation counters for the bench's churn columns. Heap counts every
/// Tensor backing buffer taken from the global allocator; arena counts
/// Tensor buffers served by a bound arena. Monotonic per process, read as
/// deltas around a region of interest.
std::int64_t tensor_heap_allocs();
std::int64_t tensor_arena_allocs();
namespace detail {
void count_tensor_heap_alloc();
void count_tensor_arena_alloc();
}  // namespace detail

}  // namespace slim::num
