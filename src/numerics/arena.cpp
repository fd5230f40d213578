#include "src/numerics/arena.hpp"

#include <algorithm>

#include "src/util/logging.hpp"

namespace slim::num {

namespace {

constexpr std::size_t kAlign = 64;

std::size_t aligned(std::size_t bytes) {
  return (bytes + kAlign - 1) / kAlign * kAlign;
}

// Atomic max without a fetch_max: CAS loop, relaxed — the peak is a
// monotone statistic, not a synchronization edge.
void raise_peak(std::atomic<std::int64_t>& peak, std::int64_t candidate) {
  std::int64_t seen = peak.load(std::memory_order_relaxed);
  while (candidate > seen &&
         !peak.compare_exchange_weak(seen, candidate,
                                     std::memory_order_relaxed)) {
  }
}

thread_local Arena* t_bound_arena = nullptr;
thread_local int t_bound_category = mem::kActivation;

std::atomic<std::int64_t> g_tensor_heap_allocs{0};
std::atomic<std::int64_t> g_tensor_arena_allocs{0};

}  // namespace

void ArenaStats::on_alloc(int category, std::int64_t bytes) {
  SLIM_CHECK(category >= 0 && category < mem::kNumCategories,
             "arena category out of range");
  const std::size_t c = static_cast<std::size_t>(category);
  const std::int64_t cat_live =
      live_[c].fetch_add(bytes, std::memory_order_relaxed) + bytes;
  raise_peak(peak_[c], cat_live);
  const std::int64_t total =
      total_live_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  raise_peak(total_peak_, total);
}

void ArenaStats::on_free(int category, std::int64_t bytes) {
  const std::size_t c = static_cast<std::size_t>(category);
  live_[c].fetch_sub(bytes, std::memory_order_relaxed);
  total_live_.fetch_sub(bytes, std::memory_order_relaxed);
}

void ArenaStats::reset() {
  for (auto& v : live_) v.store(0, std::memory_order_relaxed);
  for (auto& v : peak_) v.store(0, std::memory_order_relaxed);
  total_live_.store(0, std::memory_order_relaxed);
  total_peak_.store(0, std::memory_order_relaxed);
}

Arena::Arena(ArenaStats* stats, std::size_t block_bytes)
    : stats_(stats), block_bytes_(std::max<std::size_t>(block_bytes, kAlign)) {}

Arena::~Arena() { release_all(); }

void* Arena::allocate(std::size_t bytes, int category) {
  const std::size_t need = aligned(std::max<std::size_t>(bytes, 1));
  // Find room at or after the current block; never rewind past the
  // watermark by reusing an earlier block's tail.
  while (current_ < blocks_.size() &&
         blocks_[current_].used + need > blocks_[current_].capacity) {
    ++current_;
  }
  if (current_ == blocks_.size()) {
    Block block;
    block.capacity = std::max(need, block_bytes_);
    // Not zero-filled: a Tensor zeroes its own floats unless it is uninit
    // (and then written before it is read), so zeroing a whole 1 MiB+
    // block would only slow a stage's first forward.
    block.data = std::make_unique_for_overwrite<unsigned char[]>(block.capacity);
    blocks_.push_back(std::move(block));
  }
  Block& block = blocks_[current_];
  void* ptr = block.data.get() + block.used;
  block.used += need;
  log_.push_back(LogEntry{category, need});
  live_bytes_ += static_cast<std::int64_t>(need);
  ++allocation_count_;
  if (stats_ != nullptr) {
    stats_->on_alloc(category, static_cast<std::int64_t>(need));
  }
  return ptr;
}

Arena::Mark Arena::mark() const {
  Mark m;
  m.block = current_;
  m.used = blocks_.empty() ? 0 : blocks_[current_].used;
  m.log_size = log_.size();
  return m;
}

void Arena::release_to(const Mark& m) {
  SLIM_CHECK(m.log_size <= log_.size() && m.block <= current_,
             "arena scopes must release LIFO");
  for (std::size_t i = m.log_size; i < log_.size(); ++i) {
    live_bytes_ -= static_cast<std::int64_t>(log_[i].bytes);
    --allocation_count_;
    if (stats_ != nullptr) {
      stats_->on_free(log_[i].category,
                      static_cast<std::int64_t>(log_[i].bytes));
    }
  }
  log_.resize(m.log_size);
  for (std::size_t b = m.block + 1; b < blocks_.size(); ++b) {
    blocks_[b].used = 0;
  }
  if (m.block < blocks_.size()) blocks_[m.block].used = m.used;
  current_ = std::min(m.block, blocks_.empty() ? 0 : blocks_.size() - 1);
}

void Arena::release_all() { release_to(Mark{}); }

void Arena::trim() {
  if (!blocks_.empty()) blocks_.resize(current_ + 1);
}

std::int64_t Arena::reserved_bytes() const {
  std::int64_t total = 0;
  for (const Block& b : blocks_) {
    total += static_cast<std::int64_t>(b.capacity);
  }
  return total;
}

ArenaBinding::ArenaBinding(Arena* arena, int category)
    : prev_arena_(t_bound_arena), prev_category_(t_bound_category) {
  t_bound_arena = arena;
  t_bound_category = category;
}

ArenaBinding::~ArenaBinding() {
  t_bound_arena = prev_arena_;
  t_bound_category = prev_category_;
}

Arena* ArenaBinding::current_arena() { return t_bound_arena; }
int ArenaBinding::current_category() { return t_bound_category; }

ArenaStats& workspace_stats() {
  static ArenaStats stats;
  return stats;
}

Arena& workspace_arena() {
  thread_local Arena arena(&workspace_stats());
  return arena;
}

std::int64_t tensor_heap_allocs() {
  return g_tensor_heap_allocs.load(std::memory_order_relaxed);
}
std::int64_t tensor_arena_allocs() {
  return g_tensor_arena_allocs.load(std::memory_order_relaxed);
}

namespace detail {
void count_tensor_heap_alloc() {
  g_tensor_heap_allocs.fetch_add(1, std::memory_order_relaxed);
}
void count_tensor_arena_alloc() {
  g_tensor_arena_allocs.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace detail

}  // namespace slim::num
