// Fleet stream transport: frame codec against adversarial bytes, the bounded
// frame queue both sinks share, the reconnect schedule, and a real loopback
// client/server roundtrip. The
// decoder tests are the protocol's safety argument — every malformed shape a
// hostile or torn producer can emit must be skipped without a crash and
// without poisoning later frames.
#include "src/telemetry/stream_net.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/support/rng.h"

namespace pkrusafe {
namespace telemetry {
namespace {

std::string Valid(FrameType type, const std::string& payload) {
  std::string frame = EncodeFrame(type, payload);
  EXPECT_FALSE(frame.empty());
  return frame;
}

TEST(FrameCodecTest, RoundtripsEveryType) {
  for (const FrameType type : {FrameType::kHello, FrameType::kProfileDelta,
                               FrameType::kSamplerRow, FrameType::kPolicyUpdate}) {
    FrameDecoder decoder;
    decoder.Feed(Valid(type, "payload-bytes"));
    auto frame = decoder.Next();
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->type, type);
    EXPECT_EQ(frame->payload, "payload-bytes");
    EXPECT_FALSE(decoder.Next().has_value());
    EXPECT_FALSE(decoder.mid_frame());
  }
}

TEST(FrameCodecTest, EmptyPayloadRoundtrips) {
  FrameDecoder decoder;
  decoder.Feed(Valid(FrameType::kHello, ""));
  auto frame = decoder.Next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_TRUE(frame->payload.empty());
}

TEST(FrameCodecTest, OversizedPayloadRefusedAtEncode) {
  EXPECT_TRUE(EncodeFrame(FrameType::kSamplerRow,
                          std::string(kMaxFramePayload + 1, 'x'))
                  .empty());
}

TEST(FrameCodecTest, TruncatedHeaderStaysPending) {
  const std::string frame = Valid(FrameType::kProfileDelta, "delta");
  FrameDecoder decoder;
  decoder.Feed(std::string_view(frame).substr(0, kFrameHeaderSize - 3));
  EXPECT_FALSE(decoder.Next().has_value());
  EXPECT_TRUE(decoder.mid_frame());
  decoder.Feed(std::string_view(frame).substr(kFrameHeaderSize - 3));
  auto out = decoder.Next();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->payload, "delta");
  EXPECT_FALSE(decoder.mid_frame());
}

TEST(FrameCodecTest, TruncatedPayloadStaysPendingUntilFed) {
  const std::string frame = Valid(FrameType::kProfileDelta, "delta-payload");
  FrameDecoder decoder;
  decoder.Feed(std::string_view(frame).substr(0, frame.size() - 4));
  EXPECT_FALSE(decoder.Next().has_value());
  EXPECT_TRUE(decoder.mid_frame());  // this is the torn-tail state
  decoder.Feed(std::string_view(frame).substr(frame.size() - 4));
  EXPECT_TRUE(decoder.Next().has_value());
}

TEST(FrameCodecTest, GarbageBeforeFrameResyncs) {
  FrameDecoder decoder;
  decoder.Feed("not a frame at all");
  decoder.Feed(Valid(FrameType::kHello, "hi"));
  auto frame = decoder.Next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->payload, "hi");
  EXPECT_GT(decoder.stats().bad_magic, 0u);
}

TEST(FrameCodecTest, BadCrcDropsExactlyThatFrame) {
  std::string bad = Valid(FrameType::kSamplerRow, "row-one");
  bad[bad.size() - 1] ^= 0x55;  // corrupt the payload, not the header
  FrameDecoder decoder;
  decoder.Feed(bad);
  decoder.Feed(Valid(FrameType::kSamplerRow, "row-two"));
  auto frame = decoder.Next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->payload, "row-two");
  EXPECT_EQ(decoder.stats().bad_crc, 1u);
  EXPECT_EQ(decoder.stats().frames, 1u);
}

TEST(FrameCodecTest, VersionSkewSkipsWithoutTrustingHeader) {
  std::string skewed = Valid(FrameType::kHello, "future");
  skewed[3] = char(kProtocolVersion + 1);
  FrameDecoder decoder;
  decoder.Feed(skewed);
  decoder.Feed(Valid(FrameType::kHello, "present"));
  auto frame = decoder.Next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->payload, "present");
  EXPECT_GT(decoder.stats().bad_version, 0u);
}

TEST(FrameCodecTest, UnknownTypeAndReservedBitsSkip) {
  std::string bad_type = Valid(FrameType::kHello, "x");
  bad_type[4] = 99;
  std::string bad_flags = Valid(FrameType::kHello, "y");
  bad_flags[5] = 1;
  FrameDecoder decoder;
  decoder.Feed(bad_type);
  decoder.Feed(bad_flags);
  decoder.Feed(Valid(FrameType::kHello, "good"));
  auto frame = decoder.Next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->payload, "good");
  EXPECT_GT(decoder.stats().bad_type, 0u);
}

TEST(FrameCodecTest, OversizedLengthNeverAllocates) {
  // Hand-build a header declaring a 1 GiB payload: the decoder must not
  // buffer toward it, just resync.
  std::string huge(kFrameHeaderSize, '\0');
  std::memcpy(huge.data(), "PSF", 3);
  huge[3] = char(kProtocolVersion);
  huge[4] = char(FrameType::kHello);
  const uint32_t length = 1u << 30;
  std::memcpy(huge.data() + 8, &length, 4);  // little-endian host assumed in tests
  FrameDecoder decoder;
  decoder.Feed(huge);
  decoder.Feed(Valid(FrameType::kHello, "after"));
  auto frame = decoder.Next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->payload, "after");
  EXPECT_GT(decoder.stats().oversized, 0u);
}

TEST(FrameCodecTest, RandomBytesNeverCrashAndAlwaysRecover) {
  SplitMix64 rng(0x5eed);
  FrameDecoder decoder;
  for (int round = 0; round < 32; ++round) {
    std::string noise;
    const size_t n = 1 + rng.Next() % 512;
    for (size_t i = 0; i < n; ++i) {
      noise.push_back(static_cast<char>(rng.Next()));
    }
    decoder.Feed(noise);
    while (decoder.Next().has_value()) {
    }
    // A genuine frame after arbitrary noise must still parse: feed it twice —
    // the first may be consumed resyncing through a noise frame-prefix, the
    // second always lands on a clean boundary.
    decoder.Feed(Valid(FrameType::kProfileDelta, "recovery"));
    decoder.Feed(Valid(FrameType::kProfileDelta, "recovery"));
    bool recovered = false;
    while (auto frame = decoder.Next()) {
      if (frame->type == FrameType::kProfileDelta && frame->payload == "recovery") {
        recovered = true;
      }
    }
    EXPECT_TRUE(recovered) << "round " << round;
  }
}

// --- FrameQueue: short writes and overflow ---
//
// A fake writer stands in for the file or socket: it takes `budget` more
// bytes, then reports EAGAIN. The queue must never leave a torn frame at
// rest: a partly written frame's tail stays queued and completes on a later
// Write, and overflow drops only whole frames that have not started.

struct FakeWriter {
  size_t budget = 0;
  std::string out;

  FrameQueue::Writer AsWriter() {
    return [this](const char* data, size_t size) -> ssize_t {
      if (budget == 0) {
        errno = EAGAIN;
        return -1;
      }
      const size_t n = std::min(size, budget);
      out.append(data, n);
      budget -= n;
      return static_cast<ssize_t>(n);
    };
  }
};

// A ~5 KiB frame whose payload starts with its sequence number.
std::string WideFrame(int seq) {
  std::string payload = "seq=" + std::to_string(seq) + ";";
  payload.resize(5000, 'p');
  return Valid(FrameType::kProfileDelta, payload);
}

TEST(FrameQueueTest, ShortWriteNeverLeavesTornFrame) {
  FrameQueue queue;
  const std::string frame = WideFrame(0);
  EXPECT_EQ(queue.Push(frame), 0u);

  FakeWriter sink;
  sink.budget = 1000;  // the sink takes a prefix, then would block
  FrameQueue::Written written = queue.Write(sink.AsWriter());
  EXPECT_EQ(written.frames, 0u);
  EXPECT_EQ(written.bytes, 1000u);
  EXPECT_EQ(written.error, 0);
  EXPECT_EQ(queue.unsent_bytes(), frame.size() - 1000) << "the unwritten tail must stay queued";

  // A later Write resumes mid-frame and completes exactly that frame.
  sink.budget = ~size_t{0};
  written = queue.Write(sink.AsWriter());
  EXPECT_EQ(written.frames, 1u);
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.unsent_bytes(), 0u);
  EXPECT_EQ(sink.out, frame);

  FrameDecoder decoder;
  decoder.Feed(sink.out);
  auto decoded = decoder.Next();
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->payload.substr(0, 6), "seq=0;");
  EXPECT_FALSE(decoder.mid_frame());
}

TEST(FrameQueueTest, OverflowDropsWholeFramesNeverTheStartedOne) {
  constexpr size_t kCap = 16 * 1024;  // three wide frames at most
  FrameQueue queue(kCap);
  FakeWriter sink;

  // Start frame 0 (a short write), then keep pushing with the sink full so
  // the queue overflows and whole frames drop.
  queue.Push(WideFrame(0));
  sink.budget = 500;
  (void)queue.Write(sink.AsWriter());
  size_t dropped = 0;
  for (int seq = 1; seq < 8; ++seq) {
    dropped += queue.Push(WideFrame(seq));
    (void)queue.Write(sink.AsWriter());  // the sink takes nothing more
  }
  EXPECT_GT(dropped, 0u);
  EXPECT_LE(queue.unsent_bytes(), kCap);

  sink.budget = ~size_t{0};
  (void)queue.Write(sink.AsWriter());
  EXPECT_TRUE(queue.empty());

  // Every frame at rest decodes: in particular the FIRST one, whose prefix
  // was already out when the overflow policy ran. Dropping it would have
  // left a torn frame forever. The newest frame always survives.
  FrameDecoder decoder;
  decoder.Feed(sink.out);
  std::vector<int> seqs;
  while (auto frame = decoder.Next()) {
    seqs.push_back(std::atoi(frame->payload.c_str() + 4));
  }
  EXPECT_FALSE(decoder.mid_frame());
  EXPECT_EQ(decoder.stats().bad_magic, 0u);
  EXPECT_EQ(decoder.stats().bad_crc, 0u);
  ASSERT_EQ(seqs.size() + dropped, 8u);
  EXPECT_EQ(seqs.front(), 0);
  EXPECT_EQ(seqs.back(), 7);
  for (size_t i = 1; i < seqs.size(); ++i) {
    EXPECT_GT(seqs[i], seqs[i - 1]) << "gaps allowed, reordering not";
  }
}

TEST(NetSinkTest, BackoffGrowsExponentiallyAndCaps) {
  NetSinkOptions options;
  options.backoff_initial_ms = 50;
  options.backoff_max_ms = 5000;
  SplitMix64 jitter(1);
  uint64_t previous = 0;
  for (uint64_t attempt = 0; attempt < 12; ++attempt) {
    const uint64_t base = std::min<uint64_t>(50ull << std::min<uint64_t>(attempt, 20),
                                             options.backoff_max_ms);
    const uint64_t ms = NetSink::BackoffMs(options, attempt, &jitter);
    EXPECT_GE(ms, base);
    EXPECT_LT(ms, base + base / 2 + 1);  // jitter in [0, 50%)
    if (attempt > 0 && base < options.backoff_max_ms) {
      EXPECT_GT(ms, previous / 4);  // monotone up to jitter
    }
    previous = ms;
  }
}

TEST(NetSinkTest, BuffersWhileDownAndDropsOldestOnOverflow) {
  NetSinkOptions options;
  options.host = "127.0.0.1";
  options.port = 1;  // nothing listens on port 1
  options.max_buffer_bytes = 256;
  NetSink sink(options);
  for (int i = 0; i < 64; ++i) {
    sink.Send(FrameType::kSamplerRow, "0123456789abcdef0123456789abcdef");
  }
  EXPECT_LE(sink.buffered_bytes(), options.max_buffer_bytes);
  EXPECT_GT(sink.stats().frames_dropped, 0u);
  EXPECT_FALSE(sink.connected());
}

// --- loopback integration ---

int RawConnect(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
      << strerror(errno);
  return fd;
}

TEST(FrameServerTest, RoundtripAndPolicyPushback) {
  FrameServer server;
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server.port(), 0);

  NetSinkOptions options;
  options.port = server.port();
  NetSink sink(options);
  sink.Send(FrameType::kHello, "{\"kind\":\"pkru_safe_hello\",\"stream\":\"t\"}");
  sink.Send(FrameType::kProfileDelta, "psd1-bytes");

  std::vector<Frame> received;
  uint64_t client = 0;
  for (int i = 0; i < 100 && received.size() < 2; ++i) {
    sink.Pump();
    auto n = server.PollOnce(20, [&](uint64_t id, Frame&& frame) {
      client = id;
      received.push_back(std::move(frame));
    });
    ASSERT_TRUE(n.ok());
  }
  ASSERT_EQ(received.size(), 2u);
  EXPECT_EQ(received[0].type, FrameType::kHello);
  EXPECT_EQ(received[1].payload, "psd1-bytes");

  // Server pushes a policy frame back; the client surfaces it.
  ASSERT_TRUE(server.SendTo(client, FrameType::kPolicyUpdate, "{\"action\":\"promote\"}").ok());
  std::vector<Frame> incoming;
  for (int i = 0; i < 100 && incoming.empty(); ++i) {
    sink.Pump();
    incoming = sink.TakeIncoming();
    (void)server.PollOnce(10, [](uint64_t, Frame&&) {});
  }
  ASSERT_EQ(incoming.size(), 1u);
  EXPECT_EQ(incoming[0].type, FrameType::kPolicyUpdate);
  server.Stop();
}

TEST(FrameServerTest, MidFrameDisconnectReportedAndSurvived) {
  FrameServer server;
  ASSERT_TRUE(server.Start().ok());

  // A producer dies mid-frame: header promises more bytes than ever arrive.
  const std::string frame = Valid(FrameType::kProfileDelta, "never-finished");
  const int torn = RawConnect(server.port());
  ASSERT_EQ(::send(torn, frame.data(), frame.size() - 5, MSG_NOSIGNAL),
            static_cast<ssize_t>(frame.size() - 5));
  // Let the server read the partial bytes before the close lands.
  for (int i = 0; i < 10 && server.client_count() == 0; ++i) {
    (void)server.PollOnce(10, [](uint64_t, Frame&&) {});
  }
  (void)server.PollOnce(10, [](uint64_t, Frame&&) {});
  ::close(torn);

  bool saw_torn = false;
  size_t frames = 0;
  for (int i = 0; i < 100 && !saw_torn; ++i) {
    auto n = server.PollOnce(
        10, [&](uint64_t, Frame&&) { ++frames; },
        [&](uint64_t, bool mid_frame) { saw_torn = saw_torn || mid_frame; });
    ASSERT_TRUE(n.ok());
  }
  EXPECT_TRUE(saw_torn);
  EXPECT_EQ(frames, 0u);  // the torn frame never dispatched

  // A healthy client afterwards works: the server survived the tear.
  const int good = RawConnect(server.port());
  const std::string ok_frame = Valid(FrameType::kSamplerRow, "alive");
  ASSERT_EQ(::send(good, ok_frame.data(), ok_frame.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(ok_frame.size()));
  std::string payload;
  for (int i = 0; i < 100 && payload.empty(); ++i) {
    (void)server.PollOnce(10, [&](uint64_t, Frame&& f) { payload = f.payload; });
  }
  EXPECT_EQ(payload, "alive");
  ::close(good);
  server.Stop();
}

TEST(FrameServerTest, ReconnectsCountEstablishedConnectionsNotAttempts) {
  // Regression: the counter used to tick on every connect *attempt* once the
  // first reconnect happened, so a single long outage (dozens of backoff
  // retries) inflated telemetry.net.reconnects unboundedly. A flapping server
  // must produce exactly one reconnect per re-established connection.
  FrameServer server;
  ASSERT_TRUE(server.Start().ok());
  const uint16_t port = server.port();

  NetSinkOptions options;
  options.port = port;
  options.backoff_initial_ms = 1;
  options.backoff_max_ms = 2;
  NetSink sink(options);

  auto deliver_one = [&]() {
    size_t got = 0;
    for (int i = 0; i < 500 && got == 0; ++i) {
      sink.Send(FrameType::kSamplerRow, "tick");
      sink.Pump();
      auto n = server.PollOnce(5, [&](uint64_t, Frame&&) { ++got; });
      ASSERT_TRUE(n.ok());
    }
    ASSERT_GT(got, 0u);
  };

  deliver_one();
  EXPECT_EQ(sink.stats().reconnects, 0u);  // the first connection is not a reconnect

  constexpr uint64_t kFlaps = 5;
  for (uint64_t flap = 0; flap < kFlaps; ++flap) {
    server.Stop();
    // Outage: every one of these pumps may burn a failed connect attempt
    // (1-2ms backoff), and none of them may move the counter.
    for (int i = 0; i < 50; ++i) {
      sink.Send(FrameType::kSamplerRow, "down");
      sink.Pump();
    }
    ASSERT_TRUE(server.Start(port).ok());
    deliver_one();
    EXPECT_EQ(sink.stats().reconnects, flap + 1);
  }
  EXPECT_EQ(sink.stats().reconnects, kFlaps);
  server.Stop();
}

TEST(FrameServerTest, ReconnectContinuesAfterServerRestart) {
  FrameServer server;
  ASSERT_TRUE(server.Start().ok());
  const uint16_t port = server.port();

  NetSinkOptions options;
  options.port = port;
  options.backoff_initial_ms = 1;
  options.backoff_max_ms = 10;
  NetSink sink(options);
  sink.Send(FrameType::kSamplerRow, "before");
  size_t got = 0;
  for (int i = 0; i < 100 && got < 1; ++i) {
    sink.Pump();
    (void)server.PollOnce(10, [&](uint64_t, Frame&&) { ++got; });
  }
  ASSERT_EQ(got, 1u);

  server.Stop();
  // Sends while the server is down buffer (or drop whole frames) client-side.
  sink.Send(FrameType::kSamplerRow, "while-down");
  sink.Pump();

  FrameServer revived;
  ASSERT_TRUE(revived.Start(port).ok());
  sink.Send(FrameType::kSamplerRow, "after");
  std::vector<std::string> payloads;
  for (int i = 0; i < 300 && payloads.empty(); ++i) {
    // Frames flushed into the dying socket are dropped by design (a resend
    // could double-count); keep producing until one lands post-reconnect.
    if (i % 20 == 19) {
      sink.Send(FrameType::kSamplerRow, "after");
    }
    sink.Pump();
    (void)revived.PollOnce(10, [&](uint64_t, Frame&& f) { payloads.push_back(f.payload); });
  }
  ASSERT_FALSE(payloads.empty());
  // Whatever arrives must be whole frames — never a torn replay.
  for (const std::string& payload : payloads) {
    EXPECT_TRUE(payload == "while-down" || payload == "after") << payload;
  }
  EXPECT_GT(sink.stats().reconnects, 0u);
  revived.Stop();
}

// Aborts the test binary if the test body outlives `limit`: the failure
// under test is a hang, and a hung test would otherwise never report.
class Watchdog {
 public:
  explicit Watchdog(std::chrono::seconds limit)
      : thread_([this, limit] {
          std::unique_lock lock(mu_);
          if (!cv_.wait_for(lock, limit, [this] { return done_; })) {
            std::fprintf(stderr, "watchdog: test still running after %llds\n",
                         static_cast<long long>(limit.count()));
            std::abort();
          }
        }) {}
  ~Watchdog() {
    {
      std::lock_guard lock(mu_);
      done_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;
};

// A client that never reads costs the server queued bytes, not time:
// SendTo used to spin on EAGAIN forever once the socket buffers filled.
TEST(FrameServerTest, StalledReaderBlocksNeitherSendToNorOtherClients) {
  const Watchdog watchdog(std::chrono::seconds(30));
  FrameServer server;
  ASSERT_TRUE(server.Start().ok());

  const int stalled = RawConnect(server.port());
  const std::string hello = Valid(FrameType::kHello, "stalled");
  ASSERT_EQ(::send(stalled, hello.data(), hello.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(hello.size()));
  uint64_t stalled_id = 0;
  for (int i = 0; i < 100 && stalled_id == 0; ++i) {
    ASSERT_TRUE(server.PollOnce(10, [&](uint64_t id, Frame&&) { stalled_id = id; }).ok());
  }
  ASSERT_NE(stalled_id, 0u);

  // Far more policy updates than any socket buffer holds, until the
  // server's own bounded queue refuses one.
  const std::string update(64 * 1024, 'u');
  bool refused = false;
  for (size_t pushed = 0; pushed < (size_t{256} << 20) && !refused; pushed += update.size()) {
    const Status status = server.SendTo(stalled_id, FrameType::kPolicyUpdate, update);
    refused = status.code() == StatusCode::kResourceExhausted;
    ASSERT_TRUE(status.ok() || refused) << status.ToString();
  }
  EXPECT_TRUE(refused);

  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(server.PollOnce(50, [](uint64_t, Frame&&) {}).ok());
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1));

  const int good = RawConnect(server.port());
  const std::string frame = Valid(FrameType::kSamplerRow, "alive");
  ASSERT_EQ(::send(good, frame.data(), frame.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(frame.size()));
  std::string payload;
  for (int i = 0; i < 100 && payload.empty(); ++i) {
    ASSERT_TRUE(server.PollOnce(10, [&](uint64_t, Frame&& f) { payload = f.payload; }).ok());
  }
  EXPECT_EQ(payload, "alive");
  ::close(good);
  ::close(stalled);
  server.Stop();
}

}  // namespace
}  // namespace telemetry
}  // namespace pkrusafe
