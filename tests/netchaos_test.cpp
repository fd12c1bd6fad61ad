// Network-chaos suite: the seeded frame fuzzer, the recv_frame stream
// discipline under byte-level adversaries, the WAL disk-full regression,
// the TcpBus reconnect-backoff schedule and its framing rule (a partial
// frame waits, a malformed one or EOF drops the link), and ChaosProxy unit
// tests against a local frame-echo server.
//
// The fuzzer is the CI face of the wire contract: ANY byte string handed to
// wire::decode either parses or is rejected with a typed DecodeError — the
// decoder never crashes, never throws, and never reads past the length it
// was given (mutated inputs live in exactly-sized heap buffers so an
// over-read is an ASan/valgrind crash, not a silent success). The proxy
// tests pin down each fault primitive in isolation: what chaos_run composes
// statistically, these assert deterministically. One more pins the proxy's
// listeners off its upstreams' ports.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "abd/wal.hpp"
#include "common/rng.hpp"
#include "net/chaos_proxy.hpp"
#include "net/socket.hpp"
#include "net/tcp_bus.hpp"
#include "net/wire.hpp"

namespace asnap {
namespace {

using namespace std::chrono_literals;
namespace fs = std::filesystem;
using net::RecvStatus;
using net::wire::Bytes;
using net::wire::DecodeError;
using net::wire::Frame;

// --- wire decode fuzzer -----------------------------------------------------

/// Decode from an exactly-sized heap copy: one byte past `len` is
/// unallocated, so an over-read trips the allocator/sanitizer instead of
/// silently reading a bigger stack buffer.
std::optional<Frame> decode_exact(const Bytes& body, DecodeError* error) {
  if (body.empty()) {
    // data() may be null for an empty vector; give the decoder a real
    // (but zero-length) allocation so the call itself is well-defined.
    const auto one = std::make_unique<std::uint8_t[]>(1);
    return net::wire::decode(one.get(), 0, error);
  }
  const auto copy = std::make_unique<std::uint8_t[]>(body.size());
  std::memcpy(copy.get(), body.data(), body.size());
  return net::wire::decode(copy.get(), body.size(), error);
}

Frame random_frame(Rng& rng) {
  Frame f;
  f.type = static_cast<std::uint8_t>(1 + rng.below(6));
  f.from = rng.next();
  f.rid = rng.next();
  f.epoch = rng.next();
  f.reg = rng.next();
  f.ts = rng.next();
  f.value.resize(rng.below(64));
  for (auto& b : f.value) b = static_cast<std::uint8_t>(rng.below(256));
  return f;
}

TEST(WireFuzz, MutatedFramesParseOrFailTyped) {
  Rng rng(0xF022EDull);
  for (int iter = 0; iter < 2000; ++iter) {
    const Frame in = random_frame(rng);
    Bytes buf = net::wire::encode(in);
    Bytes body(buf.begin() + 4, buf.end());  // strip the length prefix
    switch (rng.below(4)) {
      case 0:  // truncate
        body.resize(rng.below(body.size() + 1));
        break;
      case 1:  // extend with junk
        for (std::uint64_t i = 0, n = 1 + rng.below(16); i < n; ++i) {
          body.push_back(static_cast<std::uint8_t>(rng.below(256)));
        }
        break;
      case 2:  // flip bytes
        for (std::uint64_t i = 0, n = 1 + rng.below(4); i < n; ++i) {
          body[rng.below(body.size())] ^=
              static_cast<std::uint8_t>(1 + rng.below(255));
        }
        break;
      default:  // pristine
        break;
    }
    DecodeError error = DecodeError::kNone;
    const auto out = decode_exact(body, &error);
    // The contract under fuzz: success XOR a typed reason, never a crash.
    if (out.has_value()) {
      EXPECT_EQ(error, DecodeError::kNone);
      EXPECT_LE(out->value.size(), body.size());
    } else {
      EXPECT_NE(error, DecodeError::kNone);
      EXPECT_STRNE(net::wire::decode_error_name(error), "unknown decode error");
    }
  }
}

TEST(WireFuzz, RandomBlobsAreRejectedWithTypedErrors) {
  Rng rng(0xB10B5ull);
  for (int iter = 0; iter < 2000; ++iter) {
    Bytes body(rng.below(128));
    for (auto& b : body) b = static_cast<std::uint8_t>(rng.below(256));
    DecodeError error = DecodeError::kNone;
    const auto out = decode_exact(body, &error);
    if (!out.has_value()) {
      EXPECT_NE(error, DecodeError::kNone);
    }
  }
}

TEST(WireFuzz, EveryDecodeErrorVariantIsProducible) {
  Frame f;
  f.type = net::wire::kReadReq;
  f.value = {1, 2, 3};
  const Bytes buf = net::wire::encode(f);
  Bytes body(buf.begin() + 4, buf.end());
  DecodeError error = DecodeError::kNone;

  Bytes short_body(net::wire::kHeaderBytes - 1, 0);
  EXPECT_FALSE(decode_exact(short_body, &error));
  EXPECT_EQ(error, DecodeError::kShortHeader);

  Bytes oversized(net::wire::kMaxBody + 1, 0);
  EXPECT_FALSE(decode_exact(oversized, &error));
  EXPECT_EQ(error, DecodeError::kOversized);

  Bytes bad_magic = body;
  bad_magic[0] ^= 0xFF;
  EXPECT_FALSE(decode_exact(bad_magic, &error));
  EXPECT_EQ(error, DecodeError::kBadMagic);

  Bytes bad_version = body;
  bad_version[4] = net::wire::kWireVersion + 1;
  EXPECT_FALSE(decode_exact(bad_version, &error));
  EXPECT_EQ(error, DecodeError::kBadVersion);

  Bytes torn(body.begin(), body.end() - 1);
  EXPECT_FALSE(decode_exact(torn, &error));
  EXPECT_EQ(error, DecodeError::kLengthMismatch);

  // The string overload reports the same reasons by name.
  std::string text;
  EXPECT_FALSE(net::wire::decode(bad_magic.data(), bad_magic.size(), &text));
  EXPECT_EQ(text, "bad magic");
}

// --- recv_frame stream discipline -------------------------------------------

/// A connected AF_UNIX pair: write raw bytes into one end, recv_frame from
/// the other. Byte-level control no TCP loopback test can give.
struct BytePipe {
  net::Socket reader;
  int writer_fd = -1;

  BytePipe() {
    int fds[2] = {-1, -1};
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0) {
      reader = net::Socket(fds[0]);
      writer_fd = fds[1];
    }
  }
  ~BytePipe() {
    if (writer_fd >= 0) ::close(writer_fd);
  }
  void write(const void* data, std::size_t len) const {
    ASSERT_EQ(::send(writer_fd, data, len, MSG_NOSIGNAL),
              static_cast<ssize_t>(len));
  }
  void close_writer() {
    ::close(writer_fd);
    writer_fd = -1;
  }
};

TEST(RecvFrameFuzz, OversizedLengthPrefixIsMalformedNotAnAllocation) {
  BytePipe pipe;
  ASSERT_TRUE(pipe.reader.valid());
  const std::uint32_t huge = net::wire::kMaxBody + 1;
  pipe.write(&huge, sizeof(huge));
  Frame out;
  EXPECT_EQ(net::recv_frame(pipe.reader,
                            std::chrono::steady_clock::now() + 100ms, &out),
            RecvStatus::kMalformed);
}

TEST(RecvFrameFuzz, PartialFrameThenSilenceIsMalformed) {
  BytePipe pipe;
  ASSERT_TRUE(pipe.reader.valid());
  Frame f;
  f.type = net::wire::kPing;
  const Bytes buf = net::wire::encode(f);
  pipe.write(buf.data(), buf.size() - 7);  // mid-body, then silence
  Frame out;
  EXPECT_EQ(net::recv_frame(pipe.reader,
                            std::chrono::steady_clock::now() + 100ms, &out),
            RecvStatus::kMalformed);
}

TEST(RecvFrameFuzz, PartialFrameThenCloseIsClosed) {
  BytePipe pipe;
  ASSERT_TRUE(pipe.reader.valid());
  Frame f;
  f.type = net::wire::kPing;
  const Bytes buf = net::wire::encode(f);
  pipe.write(buf.data(), buf.size() - 7);
  pipe.close_writer();
  Frame out;
  EXPECT_EQ(net::recv_frame(pipe.reader,
                            std::chrono::steady_clock::now() + 100ms, &out),
            RecvStatus::kClosed);
}

TEST(RecvFrameFuzz, SilenceIsTimeoutAndValidFramesStillParse) {
  BytePipe pipe;
  ASSERT_TRUE(pipe.reader.valid());
  Frame out;
  EXPECT_EQ(net::recv_frame(pipe.reader,
                            std::chrono::steady_clock::now() + 30ms, &out),
            RecvStatus::kTimeout);
  Frame f;
  f.type = net::wire::kWriteReq;
  f.rid = 77;
  f.value = {9, 8, 7};
  const Bytes buf = net::wire::encode(f);
  pipe.write(buf.data(), buf.size());
  EXPECT_EQ(net::recv_frame(pipe.reader,
                            std::chrono::steady_clock::now() + 100ms, &out),
            RecvStatus::kOk);
  EXPECT_EQ(out.rid, 77u);
  EXPECT_EQ(out.value, Bytes({9, 8, 7}));
}

TEST(RecvFrameFuzz, SeededByteStreamsNeverWedgeTheReader) {
  // Random byte soup (including torn frames and garbage lengths) must
  // always resolve to a terminal status within the deadline.
  Rng rng(0x57E4Aull);
  for (int iter = 0; iter < 50; ++iter) {
    BytePipe pipe;
    ASSERT_TRUE(pipe.reader.valid());
    Bytes junk(rng.below(256));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.below(256));
    if (!junk.empty()) pipe.write(junk.data(), junk.size());
    if (rng.chance(0.5)) pipe.close_writer();
    Frame out;
    const auto status = net::recv_frame(
        pipe.reader, std::chrono::steady_clock::now() + 20ms, &out);
    (void)status;  // any classification is fine; returning at all is the test
  }
}

// --- WAL disk-full regression ------------------------------------------------

struct WalTempDir : ::testing::Test {
  std::string dir;
  void SetUp() override {
    char tmpl[] = "/tmp/asnap_netchaos_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir = tmpl;
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
};

TEST_F(WalTempDir, DiskFullNeverAcksThenLoses) {
  const std::string path = dir + "/wal.log";
  abd::WalState state;
  std::string error;
  auto wal = abd::ReplicaWal::open(path, &state, &error);
  ASSERT_NE(wal, nullptr) << error;

  ASSERT_TRUE(wal->append_write(0, 1, {0xAA}));
  ASSERT_TRUE(wal->append_write(1, 1, {0xBB}));

  // ENOSPC mid-record: a realistic full volume writes SOME bytes of the
  // record before failing. The append must report failure (no ack!) and
  // roll the file back to the last record boundary.
  wal->inject_append_failure(ENOSPC, /*count=*/2, /*partial_bytes=*/9);
  EXPECT_FALSE(wal->append_write(2, 1, {0xCC}));
  EXPECT_EQ(wal->last_error(), abd::WalError::kNoSpace);
  EXPECT_STREQ(abd::wal_error_name(wal->last_error()), "no_space");
  EXPECT_FALSE(wal->append_write(2, 2, {0xCD}));
  EXPECT_EQ(wal->last_error(), abd::WalError::kNoSpace);

  // Space freed (injection exhausted): appends work again, error clears.
  EXPECT_TRUE(wal->append_write(3, 1, {0xDD}));
  EXPECT_EQ(wal->last_error(), abd::WalError::kNone);
  wal.reset();

  // Replay: every acked write present, no torn garbage resurrected, and the
  // failed writes absent — exactly what "never ack-then-lose" promises.
  abd::WalState replayed;
  auto reopened =
      abd::ReplicaWal::open(path, &replayed, &error);
  ASSERT_NE(reopened, nullptr) << error;
  ASSERT_EQ(replayed.regs.count(0), 1u);
  ASSERT_EQ(replayed.regs.count(1), 1u);
  ASSERT_EQ(replayed.regs.count(3), 1u);
  EXPECT_EQ(replayed.regs.count(2), 0u);
  EXPECT_EQ(replayed.regs[0].second, net::wire::Bytes{0xAA});
  EXPECT_EQ(replayed.regs[3].second, net::wire::Bytes{0xDD});
  // The reopened log is at a record boundary: appending works immediately.
  EXPECT_TRUE(reopened->append_write(4, 1, {0xEE}));
}

TEST_F(WalTempDir, IoErrorsAreClassifiedDistinctFromDiskFull) {
  const std::string path = dir + "/wal.log";
  abd::WalState state;
  std::string error;
  auto wal = abd::ReplicaWal::open(path, &state, &error);
  ASSERT_NE(wal, nullptr) << error;

  wal->inject_append_failure(EIO, /*count=*/1);
  EXPECT_FALSE(wal->append_write(0, 1, {0x01}));
  EXPECT_EQ(wal->last_error(), abd::WalError::kIo);
  EXPECT_STREQ(abd::wal_error_name(wal->last_error()), "io");

  wal->inject_append_failure(EDQUOT, /*count=*/1);
  EXPECT_FALSE(wal->append_write(0, 1, {0x02}));
  EXPECT_EQ(wal->last_error(), abd::WalError::kNoSpace);  // quota == full

  EXPECT_TRUE(wal->append_write(0, 3, {0x03}));
  EXPECT_EQ(wal->last_error(), abd::WalError::kNone);
}

// --- TcpBus reconnect backoff ------------------------------------------------

TEST(TcpBusBackoff, GrowsToCapAndResetsAfterSuccess) {
  // Reserve a port nobody listens on by opening and closing a listener.
  std::string error;
  net::Endpoint ep{"127.0.0.1", 0};
  {
    net::Listener probe = net::Listener::open(ep, &error);
    ASSERT_TRUE(probe.valid()) << error;
    ep.port = probe.bound_port();
  }

  net::TcpBusOptions opts;
  opts.connect_timeout = 50ms;
  opts.reconnect_cooldown = 10ms;
  opts.reconnect_cooldown_max = 160ms;
  net::TcpBus bus({ep}, /*seed=*/0xBACC0FFull, opts);
  Frame ping;
  ping.type = net::wire::kPing;

  // Each refused dial arms a jittered cooldown drawn from [base/2, 3base/2]
  // and doubles the base; after enough failures the base saturates at the
  // ceiling, so the armed value lands in [80, 240] ms — far above anything
  // the 10 ms floor can produce.
  for (int i = 0; i < 8; ++i) {
    EXPECT_FALSE(bus.send(0, ping));
    std::this_thread::sleep_for(bus.reconnect_cooldown(0) + 5ms);
  }
  const auto at_cap = bus.reconnect_cooldown(0);
  EXPECT_GE(at_cap, 80ms);
  EXPECT_LE(at_cap, 240ms);

  // Bring the replica up on that port: one successful send resets the
  // schedule, so the next failure re-arms near the floor, not the cap.
  net::Listener listener = net::Listener::open(ep, &error);
  ASSERT_TRUE(listener.valid()) << error;
  std::this_thread::sleep_for(at_cap + 5ms);  // let the cooldown lapse
  bool sent = false;
  for (int i = 0; i < 50 && !sent; ++i) {
    sent = bus.send(0, ping);
    if (!sent) std::this_thread::sleep_for(bus.reconnect_cooldown(0) + 5ms);
  }
  ASSERT_TRUE(sent);
  auto sink = listener.accept(1000ms);
  ASSERT_TRUE(sink.has_value());
  listener.close();
  sink->close();  // EOF: the next sends hit a reset connection

  bool failed = false;
  for (int i = 0; i < 50 && !failed; ++i) {
    failed = !bus.send(0, ping);
    std::this_thread::sleep_for(10ms);
  }
  ASSERT_TRUE(failed);
  // That first failure may have been the broken-pipe write itself, which
  // drops the link but does not redial; push one more send through the dial
  // path so the post-reset schedule is what reconnect_cooldown() reports.
  std::this_thread::sleep_for(bus.reconnect_cooldown(0) + 5ms);
  EXPECT_FALSE(bus.send(0, ping));
  // Two armings after the reset at most: base 10 then 20, +50% jitter.
  EXPECT_LE(bus.reconnect_cooldown(0), 45ms);
}

// --- TcpBus::wait: the op thread reads its own sockets ----------------------

/// A one-replica TcpBus whose replica is the test: it accepts the bus's
/// connection on `listener` and writes raw bytes back on `replica`.
struct BusWait : ::testing::Test {
  net::Listener listener;
  std::optional<net::TcpBus> bus;
  net::Socket replica;

  void SetUp() override {
    std::string error;
    listener = net::Listener::open({"127.0.0.1", 0}, &error);
    ASSERT_TRUE(listener.valid()) << error;
    bus.emplace(std::vector<net::Endpoint>{{"127.0.0.1",
                                            listener.bound_port()}},
                /*seed=*/5);
    dial();
  }

  /// Send a ping through the bus, which dials if its link is down, and take
  /// the replica's end of the connection it arrived on.
  void dial() {
    Frame ping;
    ping.type = net::wire::kPing;
    ASSERT_TRUE(bus->send(0, ping));
    auto conn = listener.accept(1000ms);
    ASSERT_TRUE(conn.has_value()) << "the ping did not open a new connection";
    replica = std::move(*conn);
    Frame got;
    ASSERT_EQ(net::recv_frame(replica, std::chrono::steady_clock::now() + 1s,
                              &got),
              RecvStatus::kOk);
  }

  std::optional<net::wire::Received<Bytes>> wait_for(
      std::chrono::milliseconds timeout) {
    return bus->wait(std::chrono::steady_clock::now() + timeout);
  }
};

TEST_F(BusWait, FrameWrittenOneByteAtATimeComesBackWhole) {
  Frame f;
  f.type = net::wire::kReadReply;
  f.rid = 5;
  f.ts = 3;
  f.value = {1, 2, 3, 4};
  const Bytes bytes = net::wire::encode(f);
  std::jthread writer([&] {
    for (const std::uint8_t byte : bytes) {
      ASSERT_EQ(::send(replica.fd(), &byte, 1, MSG_NOSIGNAL), 1);
      std::this_thread::sleep_for(1ms);
    }
  });
  const auto got = wait_for(5s);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->from, 0u);
  EXPECT_EQ(got->frame.type, net::wire::kReadReply);
  EXPECT_EQ(got->frame.rid, 5u);
  EXPECT_EQ(got->frame.ts, 3u);
  EXPECT_EQ(got->frame.value, Bytes({1, 2, 3, 4}));
  writer.join();
  EXPECT_FALSE(wait_for(20ms).has_value()) << "exactly one frame was sent";
  EXPECT_EQ(bus->reconnects(), 1u);
}

TEST_F(BusWait, MalformedFrameDropsTheLinkAndTheNextSendRedials) {
  Frame f;
  f.type = net::wire::kReadReply;
  Bytes bytes = net::wire::encode(f);
  bytes[4] ^= 0xFF;  // first magic byte: a bad frame, never resynchronized
  ASSERT_TRUE(net::send_all(replica, bytes.data(), bytes.size(),
                            std::chrono::steady_clock::now() + 1s));
  EXPECT_FALSE(wait_for(100ms).has_value());
  Frame eof;
  EXPECT_EQ(net::recv_frame(replica, std::chrono::steady_clock::now() + 1s,
                            &eof),
            RecvStatus::kClosed)
      << "the bus closes its end of a malformed stream";
  dial();
  EXPECT_EQ(bus->reconnects(), 2u);
}

TEST_F(BusWait, EofDropsTheLinkAndTheNextSendRedials) {
  replica.close();
  EXPECT_FALSE(wait_for(100ms).has_value());
  dial();
  EXPECT_EQ(bus->reconnects(), 2u);
}

// --- ChaosProxy primitives ---------------------------------------------------

/// Frame-echo server + proxy + client harness shared by the proxy tests.
struct ProxyEcho : ::testing::Test {
  net::Listener echo;
  std::jthread echo_thread;
  std::unique_ptr<net::ChaosProxy> proxy;
  net::Socket client;

  void SetUp() override {
    std::string error;
    echo = net::Listener::open({"127.0.0.1", 0}, &error);
    ASSERT_TRUE(echo.valid()) << error;
    echo_thread = std::jthread([this](std::stop_token st) {
      std::vector<net::Socket> conns;
      Frame f;
      while (!st.stop_requested()) {
        if (auto conn = echo.accept(10ms)) conns.push_back(std::move(*conn));
        for (std::size_t i = 0; i < conns.size();) {
          const auto status = net::recv_frame(
              conns[i], std::chrono::steady_clock::now() + 10ms, &f);
          if (status == RecvStatus::kOk) {
            if (!net::send_frame(conns[i], f)) {
              conns.erase(conns.begin() + static_cast<std::ptrdiff_t>(i));
              continue;
            }
          } else if (status != RecvStatus::kTimeout) {
            // EOF or a frame torn across the slice deadline: this stream is
            // desynchronized for good, stop polling it.
            conns.erase(conns.begin() + static_cast<std::ptrdiff_t>(i));
            continue;
          }
          ++i;
        }
      }
    });
    proxy = std::make_unique<net::ChaosProxy>(
        std::vector<net::Endpoint>{{"127.0.0.1", echo.bound_port()}},
        /*seed=*/0xC4A05ull);
    ASSERT_TRUE(proxy->start(&error)) << error;
    connect_client();
  }

  void connect_client() {
    client = net::tcp_connect(proxy->endpoints()[0], 500ms);
    ASSERT_TRUE(client.valid());
  }

  void TearDown() override {
    proxy->stop();
    echo_thread.request_stop();
    echo_thread.join();
    echo.close();
  }

  /// Ping through the proxy; the echoed reply must carry the same rid.
  RecvStatus ping(std::uint64_t rid, std::chrono::milliseconds wait,
                  Frame* reply) {
    Frame f;
    f.type = net::wire::kPing;
    f.rid = rid;
    if (!net::send_frame(client, f)) return RecvStatus::kClosed;
    for (;;) {
      const auto status = net::recv_frame(
          client, std::chrono::steady_clock::now() + wait, reply);
      if (status == RecvStatus::kOk && reply->rid != rid) continue;
      return status;
    }
  }
};

TEST_F(ProxyEcho, CleanLinkEchoesFrames) {
  Frame reply;
  ASSERT_EQ(ping(1, 1000ms, &reply), RecvStatus::kOk);
  EXPECT_EQ(reply.type, net::wire::kPing);
  // The pump bumps `forwarded` after the bytes are already readable by the
  // client, so poll briefly instead of racing it.
  const auto deadline = std::chrono::steady_clock::now() + 1000ms;
  while (proxy->stats(0).forwarded < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_GE(proxy->stats(0).forwarded, 2u);  // request + reply
}

TEST_F(ProxyEcho, DropEatsFramesUntilHealed) {
  net::LinkFaults f;
  f.drop_prob = 1.0;
  proxy->set_faults(0, net::ChaosProxy::kToReplica, f);
  Frame reply;
  EXPECT_EQ(ping(2, 150ms, &reply), RecvStatus::kTimeout);
  EXPECT_GE(proxy->stats(0).dropped, 1u);
  proxy->heal();
  ASSERT_EQ(ping(3, 1000ms, &reply), RecvStatus::kOk);
}

TEST_F(ProxyEcho, DelayAddsMeasurableLatency) {
  net::LinkFaults f;
  f.delay = std::chrono::microseconds(30000);
  proxy->set_faults(0, net::ChaosProxy::kToReplica, f);
  Frame reply;
  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_EQ(ping(4, 2000ms, &reply), RecvStatus::kOk);
  const auto rtt = std::chrono::steady_clock::now() - t0;
  EXPECT_GE(rtt, 30ms);
  EXPECT_GE(proxy->stats(0).delayed, 1u);
}

TEST_F(ProxyEcho, ReorderSwapsAdjacentFrames) {
  net::LinkFaults f;
  f.reorder_prob = 1.0;
  proxy->set_faults(0, net::ChaosProxy::kToReplica, f);
  Frame a, b;
  a.type = b.type = net::wire::kPing;
  a.rid = 10;
  b.rid = 11;
  ASSERT_TRUE(net::send_frame(client, a));
  ASSERT_TRUE(net::send_frame(client, b));
  // Frame 10 is held; frame 11 arrives (already holding) and flushes 10
  // behind it — the receiver sees 11 before 10.
  Frame first;
  ASSERT_EQ(net::recv_frame(client, std::chrono::steady_clock::now() + 2000ms,
                            &first),
            RecvStatus::kOk);
  EXPECT_EQ(first.rid, 11u);
  Frame second;
  ASSERT_EQ(net::recv_frame(client, std::chrono::steady_clock::now() + 2000ms,
                            &second),
            RecvStatus::kOk);
  EXPECT_EQ(second.rid, 10u);
  EXPECT_GE(proxy->stats(0).reordered, 1u);
}

TEST_F(ProxyEcho, AsymmetricBlackholeSilencesOneDirectionOnly) {
  // Reply direction dead: the request still reaches the echo server (its
  // forwarded counter moves) but nothing comes back — and the connection
  // stays open, which kill -9 could never produce.
  proxy->blackhole(0, net::ChaosProxy::kToClient, true);
  Frame reply;
  EXPECT_EQ(ping(20, 200ms, &reply), RecvStatus::kTimeout);
  EXPECT_TRUE(proxy->impaired(0));
  EXPECT_GE(proxy->stats(0).blackholed, 1u);
  proxy->blackhole(0, net::ChaosProxy::kToClient, false);
  EXPECT_FALSE(proxy->impaired(0));
  ASSERT_EQ(ping(21, 1000ms, &reply), RecvStatus::kOk);
}

TEST_F(ProxyEcho, ResetSurfacesAsClosedConnection) {
  net::LinkFaults f;
  f.reset_prob = 1.0;
  proxy->set_faults(0, net::ChaosProxy::kToReplica, f);
  Frame reply;
  EXPECT_EQ(ping(30, 500ms, &reply), RecvStatus::kClosed);
  EXPECT_GE(proxy->stats(0).resets, 1u);
  // A fresh connection after heal() works.
  proxy->heal();
  connect_client();
  ASSERT_EQ(ping(31, 1000ms, &reply), RecvStatus::kOk);
}

TEST_F(ProxyEcho, MidFrameStallIsMalformedAtTheReceiver) {
  // Stall the REPLY path: the client receives a length prefix (and maybe
  // part of the body), then silence — its recv_frame must take the
  // kMalformed mid-frame path, never resynchronize.
  net::LinkFaults f;
  f.stall_prob = 1.0;
  f.stall = std::chrono::milliseconds(400);
  proxy->set_faults(0, net::ChaosProxy::kToClient, f);
  Frame request;
  request.type = net::wire::kPing;
  request.rid = 40;
  ASSERT_TRUE(net::send_frame(client, request));
  Frame reply;
  const auto status = net::recv_frame(
      client, std::chrono::steady_clock::now() + 250ms, &reply);
  EXPECT_EQ(status, RecvStatus::kMalformed);
  EXPECT_GE(proxy->stats(0).stalled, 1u);
}

TEST_F(ProxyEcho, KillConnectionsDropsLiveSessions) {
  Frame reply;
  ASSERT_EQ(ping(50, 1000ms, &reply), RecvStatus::kOk);
  proxy->kill_connections(0);
  Frame f;
  f.type = net::wire::kPing;
  // The severed socket surfaces as EOF/error on the next recv (the send
  // may still succeed into the kernel buffer).
  EXPECT_EQ(net::recv_frame(client, std::chrono::steady_clock::now() + 500ms,
                            &f),
            RecvStatus::kClosed);
}

// A replica's port is probed free, released, and bound by the daemon only
// after the proxy in front of it has started. The proxy's own port-0
// listeners must never take such a port, or the replica is locked out and
// the cluster never comes up. With 64 upstream ports just released, about
// 44% of proxy starts hand some link one of them unless start() skips it.
TEST(ChaosProxyPorts, ListenersNeverTakeAnUpstreamPort) {
  for (std::uint64_t round = 0; round < 20; ++round) {
    std::vector<net::Endpoint> upstreams;
    {
      std::vector<net::Listener> probes;
      for (int i = 0; i < 64; ++i) {
        probes.push_back(net::Listener::open({"127.0.0.1", 0}));
        ASSERT_TRUE(probes.back().valid());
        upstreams.push_back({"127.0.0.1", probes.back().bound_port()});
      }
    }
    net::ChaosProxy proxy(upstreams, round);
    ASSERT_TRUE(proxy.start());
    for (const net::Endpoint& listener : proxy.endpoints()) {
      for (const net::Endpoint& upstream : upstreams) {
        ASSERT_NE(listener.port, upstream.port) << "round " << round;
      }
    }
  }
}

}  // namespace
}  // namespace asnap
