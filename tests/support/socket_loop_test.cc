// SocketLoop: the cross-thread Wake and the busy mark a request-dispatching
// server leans on. Connection-level behaviour (cap, idle close, bounded
// output) is covered through both servers in tests/server and
// tests/telemetry.
#include "src/support/socket_loop.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>

#include <gtest/gtest.h>

namespace pkrusafe {
namespace {

int Connect(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  return fd;
}

TEST(SocketLoopTest, WakeFromAnotherThreadEndsAWait) {
  SocketLoop loop(SocketLoop::kNeverIdle);
  ASSERT_TRUE(loop.Listen(0).ok());
  std::thread waker([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    loop.Wake();
  });
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(loop.PollOnce(20'000, nullptr, nullptr).ok());
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(10));
  waker.join();
}

// While busy, a connection is not read, not closed as idle and not closed on
// its peer's EOF; once the mark clears, its response flushes before the close.
TEST(SocketLoopTest, BusyConnectionOutlivesIdleTimeoutAndPeerEof) {
  SocketLoop loop(/*idle_timeout_ms=*/50);
  ASSERT_TRUE(loop.Listen(0).ok());
  const int client = Connect(loop.port());

  std::string read;
  uint64_t busy_id = 0;
  bool closed = false;
  const auto on_input = [&](uint64_t id, std::string& input) {
    read.append(input);
    input.clear();
    busy_id = id;
    loop.SetBusy(id, true);
  };
  const auto on_close = [&](uint64_t) { closed = true; };
  ASSERT_EQ(::send(client, "a", 1, MSG_NOSIGNAL), 1);
  for (int i = 0; i < 200 && read.empty(); ++i) {
    ASSERT_TRUE(loop.PollOnce(10, on_input, on_close).ok());
  }
  ASSERT_EQ(read, "a");

  ASSERT_EQ(::send(client, "b", 1, MSG_NOSIGNAL), 1);
  ASSERT_EQ(::shutdown(client, SHUT_WR), 0);
  const auto until = std::chrono::steady_clock::now() + std::chrono::milliseconds(200);
  while (std::chrono::steady_clock::now() < until) {
    ASSERT_TRUE(loop.PollOnce(10, on_input, on_close).ok());
  }
  EXPECT_EQ(read, "a");
  EXPECT_FALSE(closed);
  EXPECT_EQ(loop.connection_count(), 1u);

  ASSERT_TRUE(loop.Send(busy_id, "reply").ok());
  loop.SetBusy(busy_id, false);
  for (int i = 0; i < 200 && !closed; ++i) {
    ASSERT_TRUE(loop.PollOnce(10, on_input, on_close).ok());
    loop.SetBusy(busy_id, false);
  }
  EXPECT_EQ(read, "ab");
  EXPECT_TRUE(closed);

  std::string reply;
  char chunk[16];
  ssize_t n = 0;
  while ((n = ::recv(client, chunk, sizeof(chunk), 0)) > 0) {
    reply.append(chunk, static_cast<size_t>(n));
  }
  EXPECT_EQ(reply, "reply");
  ::close(client);
}

}  // namespace
}  // namespace pkrusafe
