// Real socket-cluster suite: wire format, WAL crash-recovery replay, and
// end-to-end quorum operations against actual abd_replicad OS processes
// that get kill -9ed mid-test.
//
// The end-to-end tests are the CI face of ISSUE 6's acceptance criterion:
// a 3-process cluster must survive kill -9 + restart of any minority with
// every acknowledged write still readable. They spawn the real daemon
// binary (path injected by CMake as ASNAP_REPLICAD_PATH) on ephemeral
// 127.0.0.1 ports and are bounded by a ctest TIMEOUT so a hung socket
// fails fast instead of wedging CI.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "abd/remote_client.hpp"
#include "abd/wal.hpp"
#include "chaos/process_orchestrator.hpp"
#include "net/socket.hpp"
#include "net/tcp_bus.hpp"
#include "net/wire.hpp"

namespace asnap {
namespace {

using namespace std::chrono_literals;
namespace fs = std::filesystem;
using net::wire::Bytes;
using net::wire::Frame;

bool eventually(const std::function<bool()>& pred,
                std::chrono::milliseconds timeout = 5s) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(10ms);
  }
  return pred();
}

// --- wire format ------------------------------------------------------------

TEST(Wire, RoundTripPreservesEveryField) {
  Frame in;
  in.type = net::wire::kWriteReq;
  in.from = 42;
  in.rid = 0xDEADBEEFCAFEull;
  in.epoch = 7;
  in.reg = 3;
  in.ts = 99;
  in.value = {1, 2, 3, 4, 5};
  const Bytes buf = net::wire::encode(in);
  ASSERT_GE(buf.size(), 4u + net::wire::kHeaderBytes);
  // Strip the length prefix, as a transport would.
  const auto out = net::wire::decode(buf.data() + 4, buf.size() - 4);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->version, net::wire::kWireVersion);
  EXPECT_EQ(out->type, in.type);
  EXPECT_EQ(out->from, in.from);
  EXPECT_EQ(out->rid, in.rid);
  EXPECT_EQ(out->epoch, in.epoch);
  EXPECT_EQ(out->reg, in.reg);
  EXPECT_EQ(out->ts, in.ts);
  EXPECT_EQ(out->value, in.value);
}

TEST(Wire, DecodeRejectsCorruptFrames) {
  Frame in;
  in.type = net::wire::kReadReq;
  Bytes buf = net::wire::encode(in);
  std::string error;

  Bytes bad_magic(buf.begin() + 4, buf.end());
  bad_magic[0] ^= 0xFF;
  EXPECT_FALSE(net::wire::decode(bad_magic.data(), bad_magic.size(), &error));
  EXPECT_EQ(error, "bad magic");

  Bytes bad_version(buf.begin() + 4, buf.end());
  bad_version[4] = net::wire::kWireVersion + 1;
  EXPECT_FALSE(
      net::wire::decode(bad_version.data(), bad_version.size(), &error));
  EXPECT_EQ(error, "unknown wire version");

  Bytes truncated(buf.begin() + 4, buf.end() - 1);
  // A frame whose declared value length disagrees with its size is torn.
  in.value = {9};
  Bytes with_value = net::wire::encode(in);
  Bytes torn(with_value.begin() + 4, with_value.end() - 1);
  EXPECT_FALSE(net::wire::decode(torn.data(), torn.size(), &error));

  Bytes short_frame(8, 0);
  EXPECT_FALSE(
      net::wire::decode(short_frame.data(), short_frame.size(), &error));
}

TEST(Wire, Crc32MatchesIeeeReference) {
  const char* s = "123456789";
  EXPECT_EQ(net::wire::crc32(reinterpret_cast<const std::uint8_t*>(s), 9),
            0xCBF43926u);
}

TEST(Wire, TagAndU64CodecsRoundTrip) {
  const lin::Tag tag{3, 12345678901ull};
  const auto back = net::wire::decode_tag(net::wire::encode_tag(tag));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->writer, tag.writer);
  EXPECT_EQ(back->seq, tag.seq);
  EXPECT_FALSE(net::wire::decode_tag(Bytes{1, 2, 3}));

  const auto u = net::wire::decode_u64(net::wire::encode_u64(0x1122334455ull));
  ASSERT_TRUE(u.has_value());
  EXPECT_EQ(*u, 0x1122334455ull);
}

TEST(Wire, FlagsRoundTripInV2Frames) {
  Frame in;
  in.type = net::wire::kReadReply;
  in.from = 1;
  in.rid = 77;
  in.ts = 9;
  in.flags = net::wire::kFlagTsConfirmed;
  const Bytes buf = net::wire::encode(in);
  const auto out = net::wire::decode(buf.data() + 4, buf.size() - 4);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->version, net::wire::kWireVersion);
  EXPECT_EQ(out->flags, net::wire::kFlagTsConfirmed);
  EXPECT_EQ(out->ts, in.ts);
}

TEST(Wire, V1FramesStillDecodeWithFlagsZero) {
  // A v1 peer knows nothing of the flags field — its bytes were reserved
  // zeros. encode() must zero them for version-1 frames even if the caller
  // set flags, and a v2 decoder must accept the frame with flags == 0
  // rather than reject the version byte. This is the rolling-upgrade
  // contract: old daemon replies simply never claim kFlagTsConfirmed, so
  // clients fall back to the two-round read — slower, never unsafe.
  Frame in;
  in.version = 1;
  in.type = net::wire::kReadReply;
  in.from = 2;
  in.rid = 78;
  in.ts = 5;
  in.value = {1, 2, 3};
  in.flags = net::wire::kFlagTsConfirmed;  // must NOT survive a v1 encode
  const Bytes buf = net::wire::encode(in);
  const auto out = net::wire::decode(buf.data() + 4, buf.size() - 4);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->version, 1);
  EXPECT_EQ(out->flags, 0) << "v1 frames carry no flags";
  EXPECT_EQ(out->ts, in.ts);
  EXPECT_EQ(out->value, in.value);

  // Below kMinWireVersion stays rejected.
  Frame ancient;
  ancient.version = 0;
  const Bytes bad = net::wire::encode(ancient);
  std::string error;
  EXPECT_FALSE(net::wire::decode(bad.data() + 4, bad.size() - 4, &error));
  EXPECT_EQ(error, "unknown wire version");
}

TEST(Wire, ParseEndpoints) {
  const auto eps = net::parse_endpoints("127.0.0.1:7001,10.0.0.2:80");
  ASSERT_TRUE(eps.has_value());
  ASSERT_EQ(eps->size(), 2u);
  EXPECT_EQ((*eps)[0].host, "127.0.0.1");
  EXPECT_EQ((*eps)[0].port, 7001);
  EXPECT_EQ((*eps)[1].port, 80);
  EXPECT_FALSE(net::parse_endpoints(""));
  EXPECT_FALSE(net::parse_endpoints("127.0.0.1"));
  EXPECT_FALSE(net::parse_endpoints("127.0.0.1:0"));
  EXPECT_FALSE(net::parse_endpoints("127.0.0.1:99999"));
  EXPECT_FALSE(net::parse_endpoints("a:1,,b:2"));
}

// --- write-ahead log --------------------------------------------------------

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/asnap_wal_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
    path_ = dir_ + "/wal.log";
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  // One write record as the log encodes it: appended to a log of its own
  // and read back up to that log's logical end.
  Bytes encoded_write(std::uint64_t reg, std::uint64_t ts, const Bytes& value) {
    const std::string scratch = dir_ + "/encode.log";
    fs::remove(scratch);
    abd::WalState state;
    std::string error;
    auto wal = abd::ReplicaWal::open(scratch, &state, &error);
    EXPECT_NE(wal, nullptr) << error;
    if (wal == nullptr || !wal->append_write(reg, ts, value)) return {};
    Bytes rec(wal->bytes());
    std::ifstream in(scratch, std::ios::binary);
    in.read(reinterpret_cast<char*>(rec.data()),
            static_cast<std::streamsize>(rec.size()));
    return rec;
  }

  // A write of register 1 at ts 2 whose value holds a complete, valid
  // record of (9, 77), which nobody writes. Torn after that record, the
  // decoy must never let it replay.
  struct Decoy {
    Bytes value;
    Bytes record;    // as the log encodes the write
    std::size_t at;  // where the embedded record starts in `record`
    Bytes filler;    // a value whose record is `at` bytes long
  };
  Decoy decoy() {
    const Bytes embedded = encoded_write(9, 77, {7, 7});
    Decoy d;
    d.value.assign(16 + embedded.size() + 16, 0xEE);
    std::copy(embedded.begin(), embedded.end(), d.value.begin() + 16);
    d.record = encoded_write(1, 2, d.value);
    d.at = static_cast<std::size_t>(
        std::search(d.record.begin(), d.record.end(), embedded.begin(),
                    embedded.end()) -
        d.record.begin());
    d.filler.assign(d.at - encoded_write(0, 0, {}).size(), 0xAB);
    return d;
  }

  // Puts `bytes` at `offset` of the log, where a crash mid-append leaves
  // the part of a record that reached the disk.
  void write_at(std::uint64_t offset, const Bytes& bytes) {
    const int fd = ::open(path_.c_str(), O_WRONLY);
    ASSERT_GE(fd, 0);
    EXPECT_EQ(::pwrite(fd, bytes.data(), bytes.size(),
                       static_cast<off_t>(offset)),
              static_cast<ssize_t>(bytes.size()));
    ::close(fd);
  }

  std::string dir_;
  std::string path_;
};

TEST_F(WalTest, ReplayRestoresWritesAndEpoch) {
  {
    abd::WalState state;
    std::string error;
    auto wal = abd::ReplicaWal::open(path_, &state, &error);
    ASSERT_NE(wal, nullptr) << error;
    EXPECT_EQ(state.epoch, 0u);
    ASSERT_TRUE(wal->append_epoch(1));
    ASSERT_TRUE(wal->append_write(0, 5, {10, 11}));
    ASSERT_TRUE(wal->append_write(1, 7, {20}));
    ASSERT_TRUE(wal->append_write(0, 9, {30, 31, 32}));
  }
  abd::WalState state;
  std::string error;
  auto wal = abd::ReplicaWal::open(path_, &state, &error);
  ASSERT_NE(wal, nullptr) << error;
  EXPECT_EQ(state.epoch, 1u);
  ASSERT_EQ(state.regs.count(0), 1u);
  EXPECT_EQ(state.regs[0].first, 9u);
  EXPECT_EQ(state.regs[0].second, (Bytes{30, 31, 32}));
  EXPECT_EQ(state.regs[1].first, 7u);
}

TEST_F(WalTest, TornTailIsTruncatedNotFatal) {
  {
    abd::WalState state;
    std::string error;
    auto wal = abd::ReplicaWal::open(path_, &state, &error);
    ASSERT_NE(wal, nullptr) << error;
    ASSERT_TRUE(wal->append_write(0, 3, {1}));
  }
  // Garbage half-record at the end of the file, which is past the room the
  // append left; TornRecordAtTheBoundaryIsDropped puts one at the logical
  // end, where a kill -9 mid-append leaves it.
  {
    std::ofstream out(path_, std::ios::app | std::ios::binary);
    out.write("WAL1\x01\x00", 6);  // looks like a record start, then torn
  }
  const auto dirty_size = fs::file_size(path_);
  abd::WalState state;
  std::string error;
  auto wal = abd::ReplicaWal::open(path_, &state, &error);
  ASSERT_NE(wal, nullptr) << error;
  EXPECT_EQ(state.regs[0].first, 3u);  // intact prefix survived
  EXPECT_LT(fs::file_size(path_), dirty_size);  // tail gone
  // And the log is appendable again at the clean boundary.
  ASSERT_TRUE(wal->append_write(0, 4, {2}));
  wal.reset();
  abd::WalState again;
  ASSERT_NE(abd::ReplicaWal::open(path_, &again, &error), nullptr);
  EXPECT_EQ(again.regs[0].first, 4u);
}

TEST_F(WalTest, CompactionShrinksLogAndPreservesState) {
  abd::WalState state;
  std::string error;
  auto wal = abd::ReplicaWal::open(path_, &state, &error);
  ASSERT_NE(wal, nullptr) << error;
  ASSERT_TRUE(wal->append_epoch(3));
  state.epoch = 3;
  for (std::uint64_t ts = 1; ts <= 50; ++ts) {
    ASSERT_TRUE(wal->append_write(0, ts, {static_cast<std::uint8_t>(ts)}));
    state.regs[0] = {ts, {static_cast<std::uint8_t>(ts)}};
  }
  const auto before = wal->bytes();
  ASSERT_TRUE(wal->compact(state));
  EXPECT_LT(wal->bytes(), before);
  // Appends after compaction extend the compacted image.
  ASSERT_TRUE(wal->append_write(0, 51, {51}));
  wal.reset();
  abd::WalState replayed;
  ASSERT_NE(abd::ReplicaWal::open(path_, &replayed, &error), nullptr);
  EXPECT_EQ(replayed.epoch, 3u);
  EXPECT_EQ(replayed.regs[0].first, 51u);
}

TEST_F(WalTest, AppendsInsideTheRoomKeepTheFileSize) {
  abd::WalState state;
  std::string error;
  auto wal = abd::ReplicaWal::open(path_, &state, &error);
  ASSERT_NE(wal, nullptr) << error;
  ASSERT_TRUE(wal->append_epoch(1));
  state.epoch = 1;
  ASSERT_TRUE(wal->compact(state));
  const auto size = fs::file_size(path_);
  for (std::uint64_t ts = 1; ts <= 200; ++ts) {
    ASSERT_TRUE(wal->append_write(0, ts, {static_cast<std::uint8_t>(ts)}));
  }
  // Every record landed in the room compaction preallocated, so no append's
  // fsync had a new file size to commit.
  EXPECT_EQ(fs::file_size(path_), size);
  EXPECT_GE(size, wal->bytes());
}

TEST_F(WalTest, TornRecordAtTheBoundaryIsDropped) {
  std::uint64_t intact = 0;
  {
    abd::WalState state;
    std::string error;
    auto wal = abd::ReplicaWal::open(path_, &state, &error);
    ASSERT_NE(wal, nullptr) << error;
    ASSERT_TRUE(wal->append_epoch(1));
    ASSERT_TRUE(wal->append_write(0, 3, {1}));
    intact = wal->bytes();
    // kill -9 mid-append: the next record's header and part of its value
    // reached the room at the logical end, its CRC did not.
    Bytes torn = encoded_write(0, 4, Bytes(16, 2));
    torn.resize(torn.size() / 2);
    write_at(intact, torn);
  }
  abd::WalState state;
  std::string error;
  auto wal = abd::ReplicaWal::open(path_, &state, &error);
  ASSERT_NE(wal, nullptr) << error;
  EXPECT_EQ(wal->bytes(), intact);
  EXPECT_EQ(fs::file_size(path_), intact);  // cut there, room included
  EXPECT_EQ(state.epoch, 1u);
  EXPECT_EQ(state.regs[0].first, 3u);
  ASSERT_TRUE(wal->append_write(0, 5, {5}));
  wal.reset();
  abd::WalState again;
  ASSERT_NE(abd::ReplicaWal::open(path_, &again, &error), nullptr) << error;
  EXPECT_EQ(again.regs[0].first, 5u);
  EXPECT_EQ(again.regs[0].second, Bytes{5});
}

TEST_F(WalTest, NoStaleRecordSurfacesAfterATornOne) {
  const Decoy d = decoy();
  Bytes torn = d.record;
  torn.resize(torn.size() - 8);  // torn after the embedded record
  {
    abd::WalState state;
    std::string error;
    auto wal = abd::ReplicaWal::open(path_, &state, &error);
    ASSERT_NE(wal, nullptr) << error;
    ASSERT_TRUE(wal->append_write(0, 1, {1}));
    write_at(wal->bytes(), torn);
  }
  {
    abd::WalState state;
    std::string error;
    auto wal = abd::ReplicaWal::open(path_, &state, &error);
    ASSERT_NE(wal, nullptr) << error;
    EXPECT_EQ(state.regs.count(1), 0u);
    // Had the torn bytes stayed in the file, the embedded record would now
    // start where this one ends.
    ASSERT_TRUE(wal->append_write(0, 2, d.filler));
  }
  abd::WalState state;
  std::string error;
  ASSERT_NE(abd::ReplicaWal::open(path_, &state, &error), nullptr) << error;
  EXPECT_EQ(state.regs.count(9), 0u) << "a torn record's bytes replayed";
  EXPECT_EQ(state.regs.count(1), 0u);
  EXPECT_EQ(state.regs[0].first, 2u);
}

TEST_F(WalTest, FailedAppendLeavesNoTornBytesBehind) {
  // The same decoy, torn by a failed append in a live log: the rollback
  // must erase it before a shorter record lands on its first bytes.
  const Decoy d = decoy();
  {
    abd::WalState state;
    std::string error;
    auto wal = abd::ReplicaWal::open(path_, &state, &error);
    ASSERT_NE(wal, nullptr) << error;
    ASSERT_TRUE(wal->append_write(0, 1, {1}));
    wal->inject_append_failure(ENOSPC, /*count=*/1, d.record.size() - 8);
    EXPECT_FALSE(wal->append_write(1, 2, d.value));
    ASSERT_TRUE(wal->append_write(0, 2, d.filler));
  }
  abd::WalState state;
  std::string error;
  ASSERT_NE(abd::ReplicaWal::open(path_, &state, &error), nullptr) << error;
  EXPECT_EQ(state.regs.count(9), 0u) << "a failed append's bytes replayed";
  EXPECT_EQ(state.regs.count(1), 0u);
  EXPECT_EQ(state.regs[0].first, 2u);
}

TEST_F(WalTest, AppendsAndCompactsWhenNoRoomCanBeHad) {
  // A file size limit well under one chunk makes every preallocation fail,
  // as a volume with less than a chunk free would. SIGXFSZ, which the
  // refused preallocation raises, is ignored while the limit holds.
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &saved), 0);
  const auto old_handler = std::signal(SIGXFSZ, SIG_IGN);
  rlimit tight = saved;
  tight.rlim_cur = 64 << 10;
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &tight), 0);
  struct Restore {
    rlimit limit;
    void (*handler)(int);
    ~Restore() {
      ::setrlimit(RLIMIT_FSIZE, &limit);
      std::signal(SIGXFSZ, handler);
    }
  } restore{saved, old_handler};

  abd::WalState state;
  std::string error;
  auto wal = abd::ReplicaWal::open(path_, &state, &error);
  ASSERT_NE(wal, nullptr) << error;
  ASSERT_TRUE(wal->append_epoch(1));
  state.epoch = 1;
  for (std::uint64_t ts = 1; ts <= 20; ++ts) {
    ASSERT_TRUE(wal->append_write(0, ts, {static_cast<std::uint8_t>(ts)}));
    state.regs[0] = {ts, {static_cast<std::uint8_t>(ts)}};
  }
  // Without room the records still fit the file limit, so the writes grow
  // the file as appends did before the room existed.
  EXPECT_EQ(fs::file_size(path_), wal->bytes());
  const auto before = wal->bytes();
  ASSERT_TRUE(wal->compact(state));
  EXPECT_LT(wal->bytes(), before);
  ASSERT_TRUE(wal->append_write(0, 21, {21}));
  EXPECT_EQ(wal->last_error(), abd::WalError::kNone);
  wal.reset();
  abd::WalState replayed;
  ASSERT_NE(abd::ReplicaWal::open(path_, &replayed, &error), nullptr)
      << error;
  EXPECT_EQ(replayed.epoch, 1u);
  EXPECT_EQ(replayed.regs[0].first, 21u);
}

// --- end-to-end: real processes --------------------------------------------

std::vector<net::Endpoint> free_endpoints(std::size_t n) {
  // Bind port 0 to let the kernel pick, record, release. The tiny window
  // before the daemon rebinds is acceptable for a local test.
  std::vector<net::Endpoint> eps;
  std::vector<net::Listener> held;
  for (std::size_t i = 0; i < n; ++i) {
    auto lst = net::Listener::open({"127.0.0.1", 0});
    EXPECT_TRUE(lst.valid());
    eps.push_back({"127.0.0.1", lst.bound_port()});
    held.push_back(std::move(lst));
  }
  return eps;
}

class ClusterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/asnap_cluster_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
    chaos::ProcessClusterConfig config;
    config.replicad_path = ASNAP_REPLICAD_PATH;
    config.state_dir = dir_;
    config.endpoints = free_endpoints(3);
    config.regs = 4;
    config.restart_delay = 100ms;
    cluster_ = std::make_unique<chaos::ProcessCluster>(config);
    ASSERT_TRUE(cluster_->start());
    ASSERT_TRUE(cluster_->wait_ready(10s));
  }

  void TearDown() override {
    cluster_->stop();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  abd::AbdConfig client_config() {
    abd::AbdConfig config;
    config.op_deadline = std::chrono::duration_cast<std::chrono::microseconds>(
        std::chrono::seconds(5));
    return config;
  }

  /// Count READY lines in replica i's daemon log (one per incarnation).
  std::size_t incarnations(std::size_t i) {
    std::ifstream in(dir_ + "/replica-" + std::to_string(i) + "/daemon.log");
    std::string line;
    std::size_t n = 0;
    while (std::getline(in, line)) {
      if (line.rfind("READY", 0) == 0) ++n;
    }
    return n;
  }

  std::string dir_;
  std::unique_ptr<chaos::ProcessCluster> cluster_;
};

TEST_F(ClusterTest, WriteThenReadOverRealSockets) {
  abd::RemoteRegisterClient client(cluster_->endpoints(), 1, client_config());
  EXPECT_EQ(client.try_write(0, 1, net::wire::encode_u64(111)),
            abd::OpStatus::kOk);
  const auto got = client.try_read(0);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->ts, 1u);
  EXPECT_EQ(net::wire::decode_u64(got->value), 111u);
  // An unwritten register reads as (0, empty) — the initial value.
  const auto empty = client.try_read(3);
  ASSERT_TRUE(empty.has_value());
  EXPECT_EQ(empty->ts, 0u);
  EXPECT_TRUE(empty->value.empty());
}

TEST_F(ClusterTest, SurvivesKillMinusNineOfAnyMinority) {
  abd::RemoteRegisterClient client(cluster_->endpoints(), 2, client_config());
  ASSERT_EQ(client.try_write(1, 1, net::wire::encode_u64(1)),
            abd::OpStatus::kOk);

  // Kill each replica in turn; with the other two alive every op must
  // still complete, and the victim must come back (supervisor + WAL).
  for (std::size_t victim = 0; victim < 3; ++victim) {
    ASSERT_TRUE(cluster_->kill9(victim));
    const std::uint64_t ts = 2 + victim;
    EXPECT_EQ(client.try_write(1, ts, net::wire::encode_u64(100 + victim)),
              abd::OpStatus::kOk);
    const auto got = client.try_read(1);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->ts, ts);
    // Wait for the victim's new incarnation before the next kill, so the
    // set of dead replicas never reaches a majority.
    ASSERT_TRUE(eventually([&] { return incarnations(victim) >= 2; }, 15s))
        << "replica " << victim << " was not restarted";
    ASSERT_TRUE(eventually([&] { return cluster_->unavailable() == 0; }, 5s));
  }
  const auto final = client.try_read(1);
  ASSERT_TRUE(final.has_value());
  EXPECT_EQ(final->ts, 4u);
  EXPECT_EQ(net::wire::decode_u64(final->value), 102u);
}

TEST_F(ClusterTest, AckedWritesSurviveFullClusterCrash) {
  abd::RemoteRegisterClient client(cluster_->endpoints(), 3, client_config());
  ASSERT_EQ(client.try_write(2, 41, net::wire::encode_u64(424242)),
            abd::OpStatus::kOk);
  // kill -9 ALL replicas at once: no majority holds the value in memory
  // any more — only the fsynced WALs do.
  for (std::size_t i = 0; i < 3; ++i) ASSERT_TRUE(cluster_->kill9(i));
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(eventually([&] { return incarnations(i) >= 2; }, 15s));
  }
  const auto got = client.try_read(2);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->ts, 41u);
  EXPECT_EQ(net::wire::decode_u64(got->value), 424242u);
}

TEST_F(ClusterTest, ToleratesStalledReplicaAndStaleEpochReplies) {
  abd::RemoteRegisterClient client(cluster_->endpoints(), 4, client_config());
  ASSERT_EQ(client.try_write(0, 1, net::wire::encode_u64(7)),
            abd::OpStatus::kOk);
  // Freeze one replica: its peers see silence (no EOF), ops proceed on the
  // remaining majority.
  ASSERT_TRUE(cluster_->stall(1));
  EXPECT_EQ(client.try_write(0, 2, net::wire::encode_u64(8)),
            abd::OpStatus::kOk);
  const auto got = client.try_read(0);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->ts, 2u);
  ASSERT_TRUE(cluster_->resume(1));
  EXPECT_TRUE(eventually([&] { return cluster_->unavailable() == 0; }));
}

TEST_F(ClusterTest, CleanReadsAskAMajority) {
  abd::RemoteRegisterClient client(cluster_->endpoints(), 7, client_config());
  ASSERT_EQ(client.try_write(0, 1, net::wire::encode_u64(3)),
            abd::OpStatus::kOk);
  constexpr int kReads = 200;
  const auto before = client.stats();
  for (int i = 0; i < kReads; ++i) {
    const auto got = client.try_read(0);
    ASSERT_TRUE(got.has_value());
    ASSERT_EQ(got->ts, 1u);
  }
  const auto after = client.stats();
  const std::uint64_t requests = after.requests - before.requests;
  const std::uint64_t hedges = after.hedges - before.hedges;
  const std::uint64_t waves = after.retransmit_waves - before.retransmit_waves;
  // A full wave is 3 requests. A majority-first read's first wave is 2,
  // and its hedge asks the one daemon left.
  if (waves == 0) {
    EXPECT_EQ(requests, 2 * kReads + hedges);
  }
  // On a 4-vCPU VM 5-9% of the reads hedged when idle, and up to 22%
  // beside the other suites under `ctest -j4`.
  EXPECT_LE(static_cast<double>(requests) / kReads, 2.5)
      << hedges << " hedges, " << waves << " retransmission waves";
}

TEST_F(ClusterTest, ReadsCompleteWithAPreferredReplicaStopped) {
  abd::RemoteRegisterClient client(cluster_->endpoints(), 8, client_config());
  ASSERT_EQ(client.try_write(0, 1, net::wire::encode_u64(9)),
            abd::OpStatus::kOk);
  // Two of the three replicas are preferred after every clean round, so
  // stopping each in turn stops a preferred one at least once.
  for (std::size_t victim = 0; victim < 3; ++victim) {
    ASSERT_TRUE(client.try_read(0).has_value());
    ASSERT_TRUE(cluster_->stall(victim));
    for (int i = 0; i < 20; ++i) {
      const auto got = client.try_read(0);
      ASSERT_TRUE(got.has_value()) << "replica " << victim << " stopped";
      EXPECT_EQ(got->ts, 1u);
    }
    ASSERT_TRUE(cluster_->resume(victim));
    ASSERT_TRUE(eventually([&] { return cluster_->unavailable() == 0; }));
  }
  EXPECT_GE(client.stats().hedges, 1u)
      << "a stopped preferred replica is covered by the hedge";
}

TEST_F(ClusterTest, EpochAdvancesAcrossRestarts) {
  // Two kills => three incarnations; the epoch in the READY line must be
  // strictly increasing (durable incarnation counter).
  for (int round = 0; round < 2; ++round) {
    const std::size_t want = 2 + static_cast<std::size_t>(round);
    ASSERT_TRUE(cluster_->kill9(0));
    ASSERT_TRUE(eventually([&] { return incarnations(0) >= want; }, 15s));
  }
  std::ifstream in(dir_ + "/replica-0/daemon.log");
  std::string line;
  std::uint64_t last_epoch = 0;
  std::size_t seen = 0;
  while (std::getline(in, line)) {
    unsigned port = 0;
    unsigned long long epoch = 0;
    if (std::sscanf(line.c_str(), "READY port=%u epoch=%llu", &port,
                    &epoch) == 2) {
      EXPECT_GT(epoch, last_epoch);
      last_epoch = epoch;
      ++seen;
    }
  }
  EXPECT_GE(seen, 3u);
}

TEST_F(ClusterTest, RecoveredReplicaResyncsWritesItMissed) {
  abd::RemoteRegisterClient client(cluster_->endpoints(), 5, client_config());
  ASSERT_TRUE(cluster_->kill9(2));
  // Write while replica 2 is down: it never sees ts=10.
  ASSERT_EQ(client.try_write(0, 10, net::wire::encode_u64(1000)),
            abd::OpStatus::kOk);
  ASSERT_TRUE(eventually([&] { return incarnations(2) >= 2; }, 15s));
  // After resync, replica 2's log records completion; the write must now
  // be on all three replicas — kill a DIFFERENT majority-complement and
  // the value must still be readable even if the surviving majority
  // includes the once-dead replica 2.
  // Wait for a RESYNC logged *after* the second READY: the first
  // incarnation's resync may have been killed mid-flight (it races the
  // kill9 above, and loses under sanitizers), so counting two resync lines
  // would hang forever.
  ASSERT_TRUE(eventually(
      [&] {
        std::ifstream in(dir_ + "/replica-2/daemon.log");
        std::string line;
        std::size_t readys = 0;
        bool resynced_after_restart = false;
        while (std::getline(in, line)) {
          if (line.rfind("READY", 0) == 0) {
            ++readys;
          } else if (line.rfind("RESYNC done", 0) == 0 && readys >= 2) {
            resynced_after_restart = true;
          }
        }
        return resynced_after_restart;
      },
      15s));
  ASSERT_TRUE(cluster_->kill9(0));
  const auto got = client.try_read(0);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->ts, 10u);
  EXPECT_EQ(net::wire::decode_u64(got->value), 1000u);
}

/// Raw single-replica read: one frame over a fresh socket, no quorum, no
/// write-back, no confirm side effects — sees exactly what the daemon
/// would reply to a client's query round.
std::optional<Frame> probe_read(const net::Endpoint& ep, std::uint64_t reg) {
  std::string err;
  net::Socket sock = net::tcp_connect(ep, 1000ms, &err);
  if (!sock.valid()) return std::nullopt;
  Frame req;
  req.type = net::wire::kReadReq;
  req.from = 99;
  req.rid = 1;
  req.reg = reg;
  if (!net::send_frame(sock, req)) return std::nullopt;
  Frame reply;
  if (net::recv_frame(sock, std::chrono::steady_clock::now() + 2s, &reply) !=
      net::RecvStatus::kOk) {
    return std::nullopt;
  }
  return reply;
}

TEST_F(ClusterTest, ConfirmedBitIsServedAndResetByRestart) {
  abd::RemoteRegisterClient client(cluster_->endpoints(), 6, client_config());
  ASSERT_EQ(client.try_write(0, 1, net::wire::encode_u64(5)),
            abd::OpStatus::kOk);
  // The confirm broadcast is fire-and-forget; each daemon folds it in
  // asynchronously and must then serve reads with kFlagTsConfirmed.
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(eventually([&] {
      const auto r = probe_read(cluster_->endpoints()[i], 0);
      return r.has_value() && r->ts == 1 &&
             (r->flags & net::wire::kFlagTsConfirmed) != 0;
    })) << "replica " << i << " never served the confirmed bit";
  }

  // Confirmed state is deliberately in-memory only: after kill -9 the WAL
  // restores the VALUE, but the restarted incarnation must not claim it
  // confirmed — it cannot know which of its log entries reached a
  // majority, and a false claim would let fast reads return an
  // unstabilized value.
  ASSERT_TRUE(cluster_->kill9(2));
  ASSERT_TRUE(eventually([&] { return incarnations(2) >= 2; }, 15s));
  ASSERT_TRUE(eventually(
      [&] {
        const auto r = probe_read(cluster_->endpoints()[2], 0);
        return r.has_value() && r->ts == 1;
      },
      10s))
      << "restarted replica lost the write";
  const auto after = probe_read(cluster_->endpoints()[2], 0);
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->flags & net::wire::kFlagTsConfirmed, 0)
      << "restart manufactured stability evidence";

  // A fresh completed write re-establishes the bit. The confirm rides a
  // fire-and-forget frame that is dropped if the bus link to the restarted
  // replica is still in reconnect cooldown, so retry with fresh timestamps
  // until one write's confirm lands there.
  std::uint64_t ts = 1;
  EXPECT_TRUE(eventually(
      [&] {
        (void)client.try_write(0, ++ts, net::wire::encode_u64(6));
        const auto r = probe_read(cluster_->endpoints()[2], 0);
        return r.has_value() && r->ts >= 2 &&
               (r->flags & net::wire::kFlagTsConfirmed) != 0;
      },
      10s))
      << "no write's confirm ever reached the restarted replica";
}

}  // namespace
}  // namespace asnap
