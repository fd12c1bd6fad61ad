// Experiment E17 — the replica WAL append, alone.
//
// abd::ReplicaWal as abd_replicad drives it, with no network in the way:
// 1 or 3 logs, one thread each, and in every round each log appends one
// 44-byte write record (a 12-byte value, the size of the benchmark's
// (slot, seq) updates) and fsyncs it, all logs at once — the way three
// replicas receive one quorum write. Before the rounds each log is set up
// as the daemon sets up its log at start: an epoch record, then compaction.
//
// Reported per log count, in microseconds:
//   append_p50/p90/p99  one append_write() call, over every append of the
//                       cell;
//   quorum_p50/p90/p99  from a round's start to its majority-th completion
//                       (the second of three logs, the only one of one):
//                       what a writer waits for on the WAL before its
//                       quorum is in.
// After the rounds every log is reopened and must replay its last write;
// a failed append or a wrong replay exits 1.
//
// Flags: --rounds <n> per log count (default 3000), --dir <path> for the
// logs (default: a fresh directory under the system temp directory; the
// device under it is what gets measured).
// Emits one "JSON {...}" line per log count; scripts/run_experiments.sh
// collects them into results/wal.jsonl.
#include <algorithm>
#include <barrier>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "abd/wal.hpp"
#include "bench_util.hpp"
#include "common/flags.hpp"

namespace {

using namespace asnap;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

// The value of a benchmark update, (slot, seq), and the record it makes
// with the WAL's 32 bytes of framing (abd/wal.hpp).
constexpr std::size_t kValueBytes = 12;
constexpr std::size_t kRecordBytes = kValueBytes + 32;

struct CellResult {
  std::vector<double> append_us;  // every append of every log
  std::vector<double> quorum_us;  // one per round
  bool ok = true;
};

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[static_cast<std::size_t>(q * static_cast<double>(v.size() - 1))];
}

/// The value log `log` appends in round `round`: (log, round) in 4 + 8
/// little-endian bytes, like a (slot, seq) update.
net::wire::Bytes value_of(std::size_t log, std::uint64_t round) {
  net::wire::Bytes v(kValueBytes, 0);
  for (std::size_t i = 0; i < 4; ++i) {
    v[i] = static_cast<std::uint8_t>(log >> (8 * i));
  }
  for (std::size_t i = 0; i < 8; ++i) {
    v[4 + i] = static_cast<std::uint8_t>(round >> (8 * i));
  }
  return v;
}

std::string log_path(const std::string& dir, std::size_t logs,
                     std::size_t i) {
  return dir + "/wal-" + std::to_string(logs) + "-" + std::to_string(i) +
         ".log";
}

CellResult run_cell(const std::string& dir, std::size_t logs,
                    std::uint64_t rounds) {
  CellResult r;
  std::vector<std::unique_ptr<abd::ReplicaWal>> wals;
  for (std::size_t i = 0; i < logs; ++i) {
    const std::string path = log_path(dir, logs, i);
    fs::remove(path);
    abd::WalState state;
    std::string error;
    auto wal = abd::ReplicaWal::open(path, &state, &error);
    if (wal == nullptr) {
      std::fprintf(stderr, "bench_wal: %s\n", error.c_str());
      r.ok = false;
      return r;
    }
    state.epoch = 1;
    if (!wal->append_epoch(state.epoch) || !wal->compact(state)) {
      std::fprintf(stderr, "bench_wal: cannot set up %s\n", path.c_str());
      r.ok = false;
      return r;
    }
    wals.push_back(std::move(wal));
  }

  // starts[k] is taken when the last log thread reaches round k's barrier;
  // done[k * logs + i] when log i's append of round k returned.
  std::vector<Clock::time_point> starts(rounds);
  std::vector<Clock::time_point> done(rounds * logs);
  r.append_us.resize(rounds * logs);
  std::vector<char> failed(logs, 0);
  std::uint64_t phase = 0;
  std::barrier sync(static_cast<std::ptrdiff_t>(logs), [&]() noexcept {
    if (phase < rounds) starts[phase] = Clock::now();
    ++phase;
  });
  {
    std::vector<std::jthread> threads;
    for (std::size_t i = 0; i < logs; ++i) {
      threads.emplace_back([&, i] {
        for (std::uint64_t k = 0; k < rounds; ++k) {
          const net::wire::Bytes value = value_of(i, k + 1);
          sync.arrive_and_wait();
          const auto t0 = Clock::now();
          if (!wals[i]->append_write(0, k + 1, value)) failed[i] = 1;
          const auto t1 = Clock::now();
          done[k * logs + i] = t1;
          r.append_us[k * logs + i] =
              std::chrono::duration<double, std::micro>(t1 - t0).count();
        }
      });
    }
  }

  const std::size_t majority = logs / 2 + 1;
  for (std::uint64_t k = 0; k < rounds; ++k) {
    std::vector<Clock::time_point> ends(done.begin() + k * logs,
                                        done.begin() + (k + 1) * logs);
    std::nth_element(ends.begin(), ends.begin() + (majority - 1), ends.end());
    r.quorum_us.push_back(
        std::chrono::duration<double, std::micro>(ends[majority - 1] -
                                                  starts[k])
            .count());
  }

  for (std::size_t i = 0; i < logs; ++i) {
    if (failed[i] != 0) {
      std::fprintf(stderr, "bench_wal: an append to log %zu failed\n", i);
      r.ok = false;
    }
  }
  wals.clear();
  for (std::size_t i = 0; i < logs && r.ok; ++i) {
    const std::string path = log_path(dir, logs, i);
    abd::WalState state;
    std::string error;
    const auto wal = abd::ReplicaWal::open(path, &state, &error);
    const auto reg = state.regs.find(0);
    if (wal == nullptr || reg == state.regs.end() ||
        reg->second.first != rounds ||
        reg->second.second != value_of(i, rounds)) {
      std::fprintf(stderr,
                   "bench_wal: log %zu does not replay its last write\n", i);
      r.ok = false;
    }
    fs::remove(path);
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const long rounds_arg =
      std::atol(consume_flag(argc, argv, "--rounds", "3000").c_str());

  std::string dir = consume_flag(argc, argv, "--dir");
  if (!no_unknown_args(argc, argv, "bench_wal")) return 2;
  if (rounds_arg <= 0 || rounds_arg > 1000000) {
    std::fprintf(stderr, "bench_wal: bad --rounds value\n");
    return 2;
  }

  const auto rounds = static_cast<std::uint64_t>(rounds_arg);
  const bool own_dir = dir.empty();
  if (own_dir) {
    std::string tmpl =
        (fs::temp_directory_path() / "asnap_wal_XXXXXX").string();
    if (::mkdtemp(tmpl.data()) == nullptr) {
      std::perror("bench_wal: mkdtemp");
      return 1;
    }
    dir = tmpl;
  }

  std::printf("%4s %7s %8s %8s %8s %8s %8s %8s   (%zu-byte records, us, %s)\n",
              "logs", "rounds", "app_p50", "app_p90", "app_p99", "quo_p50",
              "quo_p90", "quo_p99", kRecordBytes, dir.c_str());
  bool ok = true;
  for (const std::size_t logs : {1, 3}) {
    const CellResult r = run_cell(dir, logs, rounds);
    ok = ok && r.ok;
    if (!r.ok) continue;
    const double a[] = {percentile(r.append_us, 0.50),
                        percentile(r.append_us, 0.90),
                        percentile(r.append_us, 0.99)};
    const double q[] = {percentile(r.quorum_us, 0.50),
                        percentile(r.quorum_us, 0.90),
                        percentile(r.quorum_us, 0.99)};
    std::printf("%4zu %7llu %8.1f %8.1f %8.1f %8.1f %8.1f %8.1f\n", logs,
                static_cast<unsigned long long>(rounds), a[0], a[1], a[2],
                q[0], q[1], q[2]);
    bench::JsonWriter json("E17-wal");
    json.field("logs", static_cast<std::uint64_t>(logs))
        .field("rounds", rounds)
        .field("record_bytes", static_cast<std::uint64_t>(kRecordBytes))
        .field("append_p50_us", a[0])
        .field("append_p90_us", a[1])
        .field("append_p99_us", a[2])
        .field("quorum_p50_us", q[0])
        .field("quorum_p90_us", q[1])
        .field("quorum_p99_us", q[2]);
    json.print();
  }
  if (own_dir) {
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
  return ok ? 0 : 1;
}
