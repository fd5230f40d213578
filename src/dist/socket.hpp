#pragma once

// Minimal POSIX socket layer for the multi-process pipeline runtime.
//
// Adjacent pipeline stages (and each worker's control channel to the
// supervisor) are connected by AF_UNIX stream socketpairs — the local
// stand-in for the point-to-point links of a multi-machine deployment.
// Everything here is deliberately boring: RAII fds, retried-on-EINTR
// exact-size reads/writes that report peer death as a status instead of a
// signal (MSG_NOSIGNAL — a worker whose neighbor was SIGKILLed must keep
// running, not die of SIGPIPE), and poll helpers the supervisor's
// single-threaded event loop is built on.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace slim::dist {

/// RAII file descriptor.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }
  Fd(Fd&& other) noexcept : fd_(other.release()) {}
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.release();
    }
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }
  void reset();

 private:
  int fd_ = -1;
};

/// Connected full-duplex local stream pair: end `a` stays with one process,
/// end `b` with the other (each closes the end it does not use after fork).
struct SocketPair {
  Fd a;
  Fd b;
};

SocketPair make_socket_pair();

/// Outcome of an exact-size read.
enum class IoStatus : int {
  Ok,       // all requested bytes delivered
  Eof,      // clean close before any byte (peer finished or died idle)
  Torn,     // peer vanished mid-object — a half-written message
  Corrupt,  // caller-level framing/CRC validation failed
};

const char* io_status_name(IoStatus status);

/// Writes all n bytes (EINTR retried, MSG_NOSIGNAL). Returns false when the
/// peer is gone (EPIPE/ECONNRESET) — the caller decides whether that is
/// fatal; any other errno throws.
bool send_all(int fd, const void* data, std::size_t n);

/// Writes head_n bytes of head, then body_n bytes of body, with one sendmsg
/// over both while the socket takes them, resuming where a partial write
/// stopped (in either part). Same errors as above.
bool send_all(int fd, const void* head, std::size_t head_n, const void* body,
              std::size_t body_n);

/// Reads exactly n bytes: Ok, Eof (clean close before any byte) or Torn
/// (connection dropped partway through).
IoStatus recv_all(int fd, void* data, std::size_t n);

/// True when fd is readable (or at EOF) within timeout_ms. EINTR retried.
bool poll_readable(int fd, int timeout_ms);

/// Waits up to timeout_ms until any of fds (negative entries skipped) is
/// readable or at EOF; with none to wait on it sleeps the timeout, so the
/// caller's cadence holds. EINTR retried.
void poll_readable_many(const std::vector<int>& fds, int timeout_ms);

/// Establishes one stage-boundary transport, retrying over transient
/// connect failures. `fail_first` initial attempts fail (injected by a
/// fault::SocketConnectFail rule — 0 in healthy runs); each failure invokes
/// on_retry(attempt) and backs off briefly before the next attempt.
SocketPair connect_with_retry(int fail_first,
                              const std::function<void(int)>& on_retry);

}  // namespace slim::dist
