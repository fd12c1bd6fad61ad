// Experiment E15-mvcc — the multi-version scan engine head-to-head.
//
// Four engines serve the same kWords-word snapshot under a mixed
// read/write load, swept over read ratio x thread count:
//
//   mvcc-leased : mvcc::VersionGate borrow — one fetch_add acquires a
//                 whole version, the reader touches it in place (A4's
//                 scan_view path). The tens-of-ns wait-free scan.
//   mvcc-copy   : same acquire plus a full copy-out (A4's scan path,
//                 what the svc cache pays on a hit).
//   urcu        : epoch-based URCU baseline (mvcc/urcu_baseline.hpp) —
//                 wait-free-ish reads, but writers block in synchronize()
//                 until every reader quiesces.
//   mutex-cache : the PR-4 design this PR replaces — a generation-stamped
//                 vector copied under std::shared_mutex; fills take the
//                 lock exclusively and block every concurrent hit.
//
// Scan latency is batch-sampled (bursts of 64 reads per timestamp pair, so
// the clock itself does not dominate a ~20 ns operation); p50/p99 are over
// burst means. Each cell also reports read/write throughput, and the mvcc
// engines report gate counters (published/reclaimed/cas retries/refcount
// high water) so reclamation health is visible in the same table.
//
// Flags: --seconds <s> per cell (default 0.3), --threads <csv> (default
// 1,4,16,64), --ratios <csv> (default 0.5,0.9,0.99), --engines <csv>
// subset filter, --trace <path> protocol trace of the whole run.
// Emits one "JSON {...}" line per (engine, ratio, threads) cell —
// scripts/run_experiments.sh collects them into results/mvcc.jsonl.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/flags.hpp"
#include "common/rng.hpp"
#include "mvcc/urcu_baseline.hpp"
#include "mvcc/version_gate.hpp"
#include "trace/exporter.hpp"

namespace {

using namespace asnap;
using Clock = std::chrono::steady_clock;

// 256 words ≈ a multi-shard global view. The payload size is load-bearing
// for the head-to-head: VersionGate versions are immutable, so a reader
// can *borrow* the array (two fetch_adds, size-independent), while the
// copy-under-mutex design must copy it on every hit — the filler mutates
// the cached vector in place, so lending a reference out of the lock would
// be a use-after-write race. The copy (plus its allocation) is intrinsic
// to that design, not an implementation detail.
constexpr std::size_t kWords = 256;
constexpr int kBurst = 64;        ///< reads per latency sample
constexpr int kSampleEvery = 256; ///< ops between latency samples

std::atomic<std::uint64_t> g_sink;  ///< defeats dead-read elimination

struct CellResult {
  double p50_ns = 0;
  double p99_ns = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  double secs = 0;
};

/// Runs `threads` workers for ~secs wall seconds; each worker flips a
/// seeded coin per op: read with probability read_ratio, else write.
/// read_burst(tid) performs kBurst reads and returns a checksum;
/// write_op(tid, i) performs one write.
template <typename ReadBurst, typename WriteOp>
CellResult run_cell(std::size_t threads, double read_ratio, double secs,
                    const ReadBurst& read_burst, const WriteOp& write_op) {
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};
  std::atomic<std::uint64_t> writes{0};
  std::mutex samples_mu;
  std::vector<double> samples;  // ns per read, burst means

  const auto start = Clock::now();
  {
    std::vector<std::jthread> workers;
    for (std::size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        Rng rng(0x5EED + t * 7919);
        std::vector<double> local;
        std::uint64_t my_reads = 0;
        std::uint64_t my_writes = 0;
        std::uint64_t it = 0;
        while (!stop.load(std::memory_order_acquire)) {
          if (rng.chance(read_ratio)) {
            if (++it % kSampleEvery == 0) {
              const auto t0 = Clock::now();
              g_sink.store(read_burst(t), std::memory_order_relaxed);
              const auto t1 = Clock::now();
              local.push_back(
                  std::chrono::duration<double, std::nano>(t1 - t0).count() /
                  kBurst);
            } else {
              g_sink.store(read_burst(t), std::memory_order_relaxed);
            }
            my_reads += kBurst;
          } else {
            write_op(t, ++it);
            ++my_writes;
          }
        }
        reads.fetch_add(my_reads, std::memory_order_relaxed);
        writes.fetch_add(my_writes, std::memory_order_relaxed);
        std::lock_guard lk(samples_mu);
        samples.insert(samples.end(), local.begin(), local.end());
      });
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(secs));
    stop.store(true, std::memory_order_release);
  }
  CellResult r;
  r.secs = std::chrono::duration<double>(Clock::now() - start).count();
  r.reads = reads.load();
  r.writes = writes.load();
  if (!samples.empty()) {
    std::sort(samples.begin(), samples.end());
    const auto at = [&](double q) {
      return samples[static_cast<std::size_t>(q * (samples.size() - 1))];
    };
    r.p50_ns = at(0.50);
    r.p99_ns = at(0.99);
  }
  return r;
}

void report(const char* engine, double ratio, std::size_t threads,
            const CellResult& r, const mvcc::GateStats* gs) {
  std::printf("%-12s %5.2f %7zu %10.1f %10.1f %12.0f %11.0f\n", engine, ratio,
              threads, r.p50_ns, r.p99_ns, r.reads / r.secs,
              r.writes / r.secs);
  bench::JsonWriter json("E15-mvcc");
  json.field("engine", engine)
      .field("read_ratio", ratio)
      .field("threads", static_cast<std::uint64_t>(threads))
      .field("scan_p50_ns", r.p50_ns)
      .field("scan_p99_ns", r.p99_ns)
      .field("reads_per_s", r.reads / r.secs)
      .field("writes_per_s", r.writes / r.secs);
  if (gs != nullptr) {
    json.field("versions_published", gs->published)
        .field("versions_reclaimed", gs->reclaimed)
        .field("cas_retries", gs->cas_retries)
        .field("refcount_high_water", gs->refcount_high_water);
  }
  json.print();
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    const std::size_t comma = s.find(',', pos);
    out.push_back(s.substr(pos, comma - pos));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

bool engine_enabled(const std::vector<std::string>& filter, const char* name) {
  if (filter.empty()) return true;
  for (const auto& f : filter) {
    if (f == name) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string trace_path = consume_flag(argc, argv, "--trace");
  const double secs =
      std::atof(consume_flag(argc, argv, "--seconds", "0.3").c_str());
  const std::string threads_csv =
      consume_flag(argc, argv, "--threads", "1,4,16,64");
  const std::string ratios_csv =
      consume_flag(argc, argv, "--ratios", "0.5,0.9,0.99");
  const std::string engines_csv =
      consume_flag(argc, argv, "--engines", "");
  if (secs <= 0) {
    std::fprintf(stderr, "bad --seconds value\n");
    return 2;
  }
  std::vector<std::size_t> threads_list;
  for (const auto& t : split_csv(threads_csv)) {
    threads_list.push_back(static_cast<std::size_t>(std::atoi(t.c_str())));
  }
  std::vector<double> ratios;
  for (const auto& r : split_csv(ratios_csv)) {
    ratios.push_back(std::atof(r.c_str()));
  }
  const std::vector<std::string> engine_filter =
      engines_csv.empty() ? std::vector<std::string>{} : split_csv(engines_csv);

  trace::Session trace_session(trace_path);

  std::printf("%-12s %5s %7s %10s %10s %12s %11s   (%zu words, %.2fs/cell)\n",
              "engine", "ratio", "threads", "p50_ns", "p99_ns", "reads/s",
              "writes/s", kWords, secs);

  for (const double ratio : ratios) {
    for (const std::size_t threads : threads_list) {
      if (threads == 0) continue;

      if (engine_enabled(engine_filter, "mvcc-leased")) {
        mvcc::VersionGate<std::vector<std::uint64_t>> gate(
            std::vector<std::uint64_t>(kWords, 0), /*trace_id=*/2);
        const auto r = run_cell(
            threads, ratio, secs,
            [&](std::size_t) {
              std::uint64_t sum = 0;
              for (int i = 0; i < kBurst; ++i) {
                auto g = gate.acquire();
                sum += (*g)[0] + (*g)[kWords - 1];
              }
              return sum;
            },
            [&](std::size_t t, std::uint64_t) {
              gate.update_with(
                  [&](std::vector<std::uint64_t>& v) { v[t % kWords] += 1; });
            });
        const auto gs = gate.stats();
        report("mvcc-leased", ratio, threads, r, &gs);
      }

      if (engine_enabled(engine_filter, "mvcc-copy")) {
        mvcc::VersionGate<std::vector<std::uint64_t>> gate(
            std::vector<std::uint64_t>(kWords, 0), /*trace_id=*/3);
        const auto r = run_cell(
            threads, ratio, secs,
            [&](std::size_t) {
              std::uint64_t sum = 0;
              for (int i = 0; i < kBurst; ++i) {
                auto g = gate.acquire();
                const std::vector<std::uint64_t> copy = *g;  // A4 scan()
                sum += copy[0] + copy[kWords - 1];
              }
              return sum;
            },
            [&](std::size_t t, std::uint64_t) {
              gate.update_with(
                  [&](std::vector<std::uint64_t>& v) { v[t % kWords] += 1; });
            });
        const auto gs = gate.stats();
        report("mvcc-copy", ratio, threads, r, &gs);
      }

      if (engine_enabled(engine_filter, "urcu")) {
        mvcc::UrcuGate<std::vector<std::uint64_t>> gate(
            std::vector<std::uint64_t>(kWords, 0));
        std::mutex writer_mu;  // classic URCU writer-side lock
        const auto r = run_cell(
            threads, ratio, secs,
            [&](std::size_t) {
              std::uint64_t sum = 0;
              for (int i = 0; i < kBurst; ++i) {
                auto g = gate.acquire();
                sum += (*g)[0] + (*g)[kWords - 1];
              }
              return sum;
            },
            [&](std::size_t t, std::uint64_t) {
              std::lock_guard lk(writer_mu);
              std::vector<std::uint64_t> next = *gate.acquire();
              next[t % kWords] += 1;
              gate.publish(std::move(next));
            });
        report("urcu", ratio, threads, r, nullptr);
      }

      if (engine_enabled(engine_filter, "mutex-cache")) {
        // PR-4 scan cache shape: generation-stamped vector, copied under a
        // shared_mutex; writers exclude every reader while they mutate.
        std::shared_mutex mu;
        std::vector<std::uint64_t> data(kWords, 0);
        const auto r = run_cell(
            threads, ratio, secs,
            [&](std::size_t) {
              std::uint64_t sum = 0;
              for (int i = 0; i < kBurst; ++i) {
                std::shared_lock lk(mu);
                const std::vector<std::uint64_t> copy = data;
                sum += copy[0] + copy[kWords - 1];
              }
              return sum;
            },
            [&](std::size_t t, std::uint64_t) {
              std::unique_lock lk(mu);
              data[t % kWords] += 1;
            });
        report("mutex-cache", ratio, threads, r, nullptr);
      }
    }
  }
  return 0;
}
