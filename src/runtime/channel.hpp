#pragma once

// Blocking message channel between pipeline-stage threads — the
// shared-memory analogue of the point-to-point sends a distributed SlimPipe
// implementation posts between pipeline ranks.
//
// Channels support poisoning (close()): a closed channel keeps draining the
// messages already queued, then reports Closed instead of blocking. This is
// the shutdown protocol's backbone — when a stage fails, closing every
// channel unblocks all peers waiting in receive, so a crash surfaces as a
// structured error instead of a deadlocked join.

#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

#include "src/util/logging.hpp"

namespace slim::rt {

/// Outcome of a status-reporting receive.
enum class RecvStatus : int {
  Ok,       // a message was delivered
  Timeout,  // the wait expired with the queue empty (starvation probe)
  Closed,   // channel poisoned and drained; no message will ever arrive
};

template <typename T>
class Channel {
 public:
  /// Appends a message (FIFO order, like a NCCL P2P stream). Sends to a
  /// closed channel are dropped: the receivers are unwinding and the
  /// payload can no longer be consumed.
  void send(T message) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_) return;
      queue_.push_back(std::move(message));
      peak_depth_ = std::max(peak_depth_, queue_.size());
    }
    cv_.notify_one();
  }

  /// Poisons the channel: queued messages still drain, further sends are
  /// dropped, and receives return Closed once the queue is empty.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

  /// Blocks until a message is available. Throws (SLIM_CHECK) if the
  /// channel is closed and drained — callers that participate in the
  /// shutdown protocol use receive_status_for instead.
  T receive() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return !queue_.empty() || closed_; });
    SLIM_CHECK(!queue_.empty(), "receive on a closed, drained channel");
    T message = std::move(queue_.front());
    queue_.pop_front();
    return message;
  }

  /// Blocks up to `timeout`; fills `out` and returns Ok, or reports why no
  /// message arrived (Timeout = starvation probe expired, Closed = channel
  /// poisoned and drained).
  template <typename Rep, typename Period>
  RecvStatus receive_status_for(std::chrono::duration<Rep, Period> timeout,
                                T& out) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!cv_.wait_for(lock, timeout,
                      [&] { return !queue_.empty() || closed_; })) {
      return RecvStatus::Timeout;
    }
    if (queue_.empty()) return RecvStatus::Closed;
    out = std::move(queue_.front());
    queue_.pop_front();
    return RecvStatus::Ok;
  }

  /// Non-blocking receive.
  std::optional<T> try_receive() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (queue_.empty()) return std::nullopt;
    T message = std::move(queue_.front());
    queue_.pop_front();
    return message;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return queue_.size();
  }

  /// High-water mark of the queue depth over the channel's lifetime (an
  /// observability probe: how far ahead the producer ran).
  std::size_t peak_depth() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return peak_depth_;
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<T> queue_;
  std::size_t peak_depth_ = 0;
  bool closed_ = false;
};

}  // namespace slim::rt
