// The one server-side socket loop: a caller-driven poll over a loopback
// listener and its connections. Each connection has an input buffer the
// caller's handler consumes and a bounded output buffer flushed on POLLOUT;
// idle connections are closed. The loop owns no thread: one thread makes
// every call except Wake(). Framing stays with the caller.
//
// A caller that hands a connection's request to another thread marks it
// busy. A busy connection is not read and its input is not handed out, so
// input never queues past the request in flight. It never idles out, and it
// outlives its peer's EOF until the mark clears and its output is flushed.
// Clearing the mark hands leftover input to the next PollOnce.
#ifndef SRC_SUPPORT_SOCKET_LOOP_H_
#define SRC_SUPPORT_SOCKET_LOOP_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>

#include "src/support/status.h"

namespace pkrusafe {

class SocketLoop {
 public:
  // Connections past this are accepted and closed at once.
  static constexpr size_t kMaxConnections = 64;
  // Send refuses a message that would take a non-empty output buffer past
  // this, so a peer that stops reading costs bounded memory.
  static constexpr size_t kMaxOutputBytes = size_t{4} << 20;
  static constexpr uint64_t kNeverIdle = 0;

  // (connection id, its input): erases what it consumes. Ids are not reused.
  using InputHandler = std::function<void(uint64_t, std::string&)>;
  using CloseHandler = std::function<void(uint64_t)>;

  // Closes connections with no input, output progress or busy mark for
  // `idle_timeout_ms`.
  explicit SocketLoop(uint64_t idle_timeout_ms);
  ~SocketLoop();
  SocketLoop(const SocketLoop&) = delete;
  SocketLoop& operator=(const SocketLoop&) = delete;

  // Listens on 127.0.0.1:`port` (0 = ephemeral; port() reports it).
  Status Listen(uint16_t port);
  // Closes the listener and every connection; no handler runs.
  void Shutdown();

  uint16_t port() const { return port_; }
  size_t connection_count() const { return connections_.size(); }

  // Waits up to `timeout_ms` for activity or Wake(), flushes, reads into
  // `on_input`, closes connections that are finished (EOF or Close(),
  // flushed, not busy), broken or idle, reporting each to `on_close`, and
  // accepts. Handlers may call Send, Close and SetBusy.
  Status PollOnce(int timeout_ms, const InputHandler& on_input, const CloseHandler& on_close);

  // Queues `bytes` and writes what the socket takes now; never blocks.
  // NotFound for an unknown id, ResourceExhausted (nothing queued) when the
  // buffer is full, Unavailable when the socket broke.
  Status Send(uint64_t id, std::string_view bytes);
  // Stops reading; closes once the output is flushed.
  void Close(uint64_t id);
  void SetBusy(uint64_t id, bool busy);
  // The one thread-safe call: ends the current or next PollOnce wait.
  void Wake();

 private:
  struct Connection {
    int fd = -1;
    std::string in;          // read, not yet consumed by the handler
    std::string out;         // queued output
    bool busy = false;
    bool redeliver = false;  // the busy mark cleared: offer `in` again
    bool closing = false;    // read no more; close once flushed and not busy
    uint64_t last_active_ms = 0;
  };

  Connection* Find(uint64_t id);
  // Flush and Read drop the output and mark the connection closing on a
  // socket error.
  bool Flush(Connection& connection, uint64_t now_ms);
  void Read(uint64_t id, Connection& connection, uint64_t now_ms, const InputHandler& on_input);
  void Reap(uint64_t now_ms, const CloseHandler& on_close);

  const uint64_t idle_timeout_ms_;
  int listen_fd_ = -1;
  int wake_fd_ = -1;  // eventfd
  uint16_t port_ = 0;
  uint64_t next_id_ = 1;
  std::map<uint64_t, Connection> connections_;
};

}  // namespace pkrusafe

#endif  // SRC_SUPPORT_SOCKET_LOOP_H_
