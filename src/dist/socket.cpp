#include "src/dist/socket.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>

#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include "src/util/logging.hpp"

namespace slim::dist {

void Fd::reset() {
  if (fd_ >= 0) {
    // Best-effort close; EINTR on close must not retry (POSIX leaves the fd
    // state unspecified and Linux has already released it).
    ::close(fd_);
    fd_ = -1;
  }
}

SocketPair make_socket_pair() {
  int fds[2] = {-1, -1};
  const int rc = ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds);
  SLIM_CHECK(rc == 0, std::string("socketpair failed: ") +
                          std::strerror(errno));
  SocketPair pair;
  pair.a = Fd(fds[0]);
  pair.b = Fd(fds[1]);
  return pair;
}

const char* io_status_name(IoStatus status) {
  switch (status) {
    case IoStatus::Ok: return "ok";
    case IoStatus::Eof: return "eof";
    case IoStatus::Torn: return "torn";
    case IoStatus::Corrupt: return "corrupt";
  }
  return "?";
}

bool send_all(int fd, const void* data, std::size_t n) {
  return send_all(fd, data, n, nullptr, 0);
}

bool send_all(int fd, const void* head, std::size_t head_n, const void* body,
              std::size_t body_n) {
  iovec parts[2] = {{const_cast<void*>(head), head_n},
                    {const_cast<void*>(body), body_n}};
  iovec* next = parts;
  std::size_t left = 2;
  while (left > 0) {
    if (next->iov_len == 0) {
      ++next;
      --left;
      continue;
    }
    msghdr msg{};
    msg.msg_iov = next;
    msg.msg_iovlen = left;
    const ssize_t rc = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (rc < 0) {
      if (errno == EINTR) continue;
      if (errno == EPIPE || errno == ECONNRESET) return false;
      SLIM_CHECK(false, std::string("socket send failed: ") +
                            std::strerror(errno));
    }
    // Resume after the bytes sent, which may end inside either part.
    for (std::size_t sent = static_cast<std::size_t>(rc); sent > 0;) {
      const std::size_t step = std::min(sent, next->iov_len);
      next->iov_base = static_cast<char*>(next->iov_base) + step;
      next->iov_len -= step;
      sent -= step;
      if (next->iov_len == 0) {
        ++next;
        --left;
      }
    }
  }
  return true;
}

IoStatus recv_all(int fd, void* data, std::size_t n) {
  char* p = static_cast<char*>(data);
  std::size_t got = 0;
  while (got < n) {
    const ssize_t rc = ::recv(fd, p + got, n - got, 0);
    if (rc < 0) {
      if (errno == EINTR) continue;
      if (errno == ECONNRESET) return got == 0 ? IoStatus::Eof : IoStatus::Torn;
      SLIM_CHECK(false, std::string("socket recv failed: ") +
                            std::strerror(errno));
    }
    if (rc == 0) return got == 0 ? IoStatus::Eof : IoStatus::Torn;
    got += static_cast<std::size_t>(rc);
  }
  return IoStatus::Ok;
}

bool poll_readable(int fd, int timeout_ms) {
  struct pollfd pfd;
  pfd.fd = fd;
  pfd.events = POLLIN;
  pfd.revents = 0;
  for (;;) {
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      SLIM_CHECK(false, std::string("poll failed: ") + std::strerror(errno));
    }
    return rc > 0;
  }
}

void poll_readable_many(const std::vector<int>& fds, int timeout_ms) {
  std::vector<struct pollfd> pfds;
  for (const int fd : fds) {
    if (fd >= 0) pfds.push_back({fd, POLLIN, 0});
  }
  if (pfds.empty()) {
    if (timeout_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(timeout_ms));
    }
    return;
  }
  while (::poll(pfds.data(), pfds.size(), timeout_ms) < 0) {
    SLIM_CHECK(errno == EINTR,
               std::string("poll failed: ") + std::strerror(errno));
  }
}

SocketPair connect_with_retry(int fail_first,
                              const std::function<void(int)>& on_retry) {
  for (int attempt = 1; attempt <= fail_first; ++attempt) {
    if (on_retry) on_retry(attempt);
    // Bounded backoff: 1, 2, 4, ... ms capped at 16 ms — enough to model
    // a transient listener, short enough for tests.
    const int shift = attempt < 5 ? attempt - 1 : 4;
    std::this_thread::sleep_for(std::chrono::milliseconds(1 << shift));
  }
  return make_socket_pair();
}

}  // namespace slim::dist
