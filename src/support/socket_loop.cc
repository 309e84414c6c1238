#include "src/support/socket_loop.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <vector>

namespace pkrusafe {

namespace {

// Reads per connection per PollOnce, so one fast writer cannot hold the loop.
constexpr int kReadsPerPoll = 16;

uint64_t NowMs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::milliseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

bool WouldBlock() { return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR; }

}  // namespace

SocketLoop::SocketLoop(uint64_t idle_timeout_ms)
    : idle_timeout_ms_(idle_timeout_ms), wake_fd_(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {}

SocketLoop::~SocketLoop() {
  Shutdown();
  ::close(wake_fd_);
}

Status SocketLoop::Listen(uint16_t port) {
  if (listen_fd_ >= 0) {
    return FailedPreconditionError("socket loop already listening");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
  const int one = 1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  socklen_t len = sizeof(addr);
  if (fd < 0 || ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) != 0 ||
      ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, static_cast<int>(kMaxConnections)) != 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    const Status status = UnavailableError(std::string("listen: ") + std::strerror(errno));
    if (fd >= 0) {
      ::close(fd);
    }
    return status;
  }
  listen_fd_ = fd;
  port_ = ntohs(addr.sin_port);
  return Status::Ok();
}

void SocketLoop::Shutdown() {
  for (const auto& [id, connection] : connections_) {
    ::close(connection.fd);
  }
  connections_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

Status SocketLoop::PollOnce(int timeout_ms, const InputHandler& on_input,
                            const CloseHandler& on_close) {
  if (listen_fd_ < 0) {
    return FailedPreconditionError("socket loop not listening");
  }
  Reap(NowMs(), on_close);  // what Send, Close and SetBusy finished since the last call
  std::vector<pollfd> fds = {{wake_fd_, POLLIN, 0}, {listen_fd_, POLLIN, 0}};
  std::vector<uint64_t> ids;  // ids[i] is polled as fds[i + 2]
  for (auto& [id, connection] : connections_) {
    if (connection.redeliver && !connection.busy && !connection.closing && !connection.in.empty()) {
      on_input(id, connection.in);  // input left over from before the busy mark cleared
    }
    connection.redeliver = false;
    const int events = (connection.busy || connection.closing ? 0 : POLLIN) |
                       (connection.out.empty() ? 0 : POLLOUT);
    if (events != 0) {
      fds.push_back({connection.fd, static_cast<short>(events), 0});
      ids.push_back(id);
    }
  }
  if (::poll(fds.data(), fds.size(), timeout_ms) < 0) {
    return errno == EINTR ? Status::Ok()
                          : UnavailableError(std::string("poll: ") + std::strerror(errno));
  }
  const uint64_t now_ms = NowMs();
  if ((fds[0].revents & POLLIN) != 0) {
    uint64_t wakes = 0;
    (void)::read(wake_fd_, &wakes, sizeof(wakes));
  }
  // Errors and hang-ups surface through the send or recv that follows.
  for (size_t i = 0; i < ids.size(); ++i) {
    Connection& connection = connections_.at(ids[i]);
    const short revents = fds[i + 2].revents;
    if ((revents & (POLLOUT | POLLERR | POLLHUP)) != 0 && !connection.out.empty()) {
      (void)Flush(connection, now_ms);
    }
    if ((revents & (POLLIN | POLLERR | POLLHUP)) != 0) {
      Read(ids[i], connection, now_ms, on_input);
    }
  }
  Reap(now_ms, on_close);
  int fd = -1;
  while ((fds[1].revents & POLLIN) != 0 &&
         (fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC | SOCK_NONBLOCK)) >= 0) {
    if (connections_.size() >= kMaxConnections) {
      ::close(fd);
      continue;
    }
    const int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    Connection& connection = connections_[next_id_++];
    connection.fd = fd;
    connection.last_active_ms = now_ms;
  }
  return Status::Ok();
}

Status SocketLoop::Send(uint64_t id, std::string_view bytes) {
  Connection* connection = Find(id);
  if (connection == nullptr) {
    return NotFoundError("no such connection");
  }
  if (!connection->out.empty() && connection->out.size() + bytes.size() > kMaxOutputBytes) {
    return ResourceExhaustedError("connection output buffer full");
  }
  connection->out.append(bytes);
  return Flush(*connection, NowMs()) ? Status::Ok() : UnavailableError("connection broken");
}

void SocketLoop::Close(uint64_t id) {
  if (Connection* connection = Find(id)) {
    connection->closing = true;
  }
}

void SocketLoop::SetBusy(uint64_t id, bool busy) {
  if (Connection* connection = Find(id)) {
    connection->busy = busy;
    connection->redeliver = !busy;
    connection->last_active_ms = NowMs();
  }
}

void SocketLoop::Wake() {
  const uint64_t one = 1;
  (void)::write(wake_fd_, &one, sizeof(one));
}

SocketLoop::Connection* SocketLoop::Find(uint64_t id) {
  const auto it = connections_.find(id);
  return it == connections_.end() ? nullptr : &it->second;
}

bool SocketLoop::Flush(Connection& connection, uint64_t now_ms) {
  while (!connection.out.empty()) {
    const ssize_t n = ::send(connection.fd, connection.out.data(), connection.out.size(),
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n < 0 && WouldBlock()) {
      return true;
    }
    if (n <= 0) {
      connection.out.clear();
      connection.closing = true;
      return false;
    }
    connection.out.erase(0, static_cast<size_t>(n));
    connection.last_active_ms = now_ms;
  }
  return true;
}

void SocketLoop::Read(uint64_t id, Connection& connection, uint64_t now_ms,
                      const InputHandler& on_input) {
  char buf[16384];
  // The handler may mark the connection busy or closing: stop reading then.
  for (int i = 0; i < kReadsPerPoll && !connection.busy && !connection.closing; ++i) {
    const ssize_t n = ::recv(connection.fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (n < 0 && WouldBlock()) {
      return;
    }
    if (n <= 0) {
      // EOF closes once the output is flushed; an error drops the output.
      connection.closing = true;
      if (n < 0) {
        connection.out.clear();
      }
      return;
    }
    connection.last_active_ms = now_ms;
    connection.in.append(buf, static_cast<size_t>(n));
    on_input(id, connection.in);
  }
}

void SocketLoop::Reap(uint64_t now_ms, const CloseHandler& on_close) {
  for (auto it = connections_.begin(); it != connections_.end();) {
    const Connection& connection = it->second;
    // SetBusy may stamp last_active_ms after now_ms was read: saturate.
    const bool idle = idle_timeout_ms_ != kNeverIdle && !connection.busy &&
                      now_ms - std::min(now_ms, connection.last_active_ms) >= idle_timeout_ms_;
    if (!idle && !(connection.closing && !connection.busy && connection.out.empty())) {
      ++it;
      continue;
    }
    const uint64_t id = it->first;
    ::close(connection.fd);
    it = connections_.erase(it);
    if (on_close) {
      on_close(id);
    }
  }
}

}  // namespace pkrusafe
