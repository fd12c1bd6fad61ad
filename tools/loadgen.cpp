// loadgen — open/closed-loop load generator for the snapshot service layer
// (experiment E11-svc) and the sharded snapshot fabric (E13-shard).
//
// Drives M concurrent clients through svc::SnapshotService over any of the
// paper's snapshot backends (a1 = Figure 2 unbounded, a2 = Figure 3 bounded,
// a3 = Figure 4 via the single-writer adapter, a4 = the multi-version
// pointer-swap engine over mvcc::VersionGate) or the ABD message-passing
// snapshot, with client churn (disconnect/reconnect), pipelined updates and
// a seeded read/write mix. With --shards S the same workload runs against a
// shard::ShardedSnapshotFabric of S services (clients hash-routed; scans are
// shard-local, and with probability --global-ratio a scan is a cross-shard
// global_scan instead). Reports throughput and p50/p99/p999 latency per op
// type, plus service/lease/fabric counters, as a human table and a
// machine-readable "JSON {...}" line (bench::JsonWriter format consumed by
// scripts/run_experiments.sh).
//
// Modes:
//   closed : each client issues its next op as soon as the previous one
//            completes — fixed concurrency M, latency = call duration
//            (updates: submit-to-ack, i.e. until a flush covers the seq).
//   open   : ops arrive on a Poisson schedule at --rate ops/s split across
//            the clients; latency is measured from the *scheduled* arrival,
//            so queueing delay under overload is visible (coordinated
//            omission avoided).
//
// --check records every completed operation in a lin::Recorder and runs the
// exact single-writer linearizability checker over the full history at the
// end: nonzero exit iff a violation is found. This is the acceptance gate
// that multiplexing, batching, lease handover, the scan cache and cross-shard
// composition preserved the paper's correctness notion end to end.
//
// --check-file PATH is the long-run variant: instead of growing an in-memory
// op vector for the whole measured interval, completed ops stream to PATH as
// text records (lin::HistoryFileWriter, O(1) history memory while the clock
// runs); the file is replayed through the same checker afterwards and doubles
// as a tools/check_history artifact for bug reports.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "abd/abd_snapshot.hpp"
#include "abd/remote_client.hpp"
#include "abd/remote_snapshot.hpp"
#include "bench_util.hpp"
#include "net/socket.hpp"
#include "common/flags.hpp"
#include "common/rng.hpp"
#include "core/bounded_mw_snapshot.hpp"
#include "core/bounded_sw_snapshot.hpp"
#include "core/mvcc_snapshot.hpp"
#include "core/snapshot_types.hpp"
#include "core/unbounded_sw_snapshot.hpp"
#include "lin/history.hpp"
#include "lin/history_io.hpp"
#include "lin/snapshot_checker.hpp"
#include "shard/fabric.hpp"
#include "svc/service.hpp"
#include "trace/exporter.hpp"
#include "trace/histogram.hpp"

namespace asnap {
namespace {

using lin::Tag;
using namespace std::chrono_literals;

struct Options {
  std::string backend = "a1";
  std::string mode = "closed";
  std::size_t slots = 3;   ///< words per service (per shard when sharded)
  std::size_t shards = 0;  ///< 0 = plain service; >= 1 = fabric of S shards
  std::size_t clients = 12;
  double seconds = 1.0;
  double rate = 2000.0;  // open loop: total arrivals/s across all clients
  double read_ratio = 0.9;
  double global_ratio = 0.1;  ///< fraction of scans that go cross-shard
  std::size_t global_attempts = 8;  ///< confirm rounds before sealed fallback
  double churn = 0.02;  // per-op probability of disconnect + reconnect
  std::size_t pipeline = 4;  // outstanding submits before a forced flush
  std::size_t batch = 8;     // service max_batch
  bool cache = true;
  std::size_t max_concurrent = 0;
  double ttl_ms = 100.0;
  std::uint64_t seed = 1;
  bool check = false;
  std::string check_file;  ///< spill history records here instead of RAM
  std::string trace_path;
  std::string experiment = "E11-svc";
  std::string cluster;  ///< backend=cluster: "host:port,..." endpoints

  bool checking() const { return check || !check_file.empty(); }
};

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One client's not-yet-acknowledged submits.
struct PendingUpdate {
  std::uint64_t seq;
  Tag tag;
  lin::Time inv;      // recorder tick (check mode only)
  std::uint64_t t0;   // latency start, ns
};

/// Per-thread results, merged after the run.
struct ThreadResult {
  trace::LogHistogram update_ns;  // submit-to-ack
  trace::LogHistogram scan_ns;    // shard-local (or single-service) scans
  trace::LogHistogram global_ns;  // cross-shard global scans
  std::uint64_t updates = 0;
  std::uint64_t scans = 0;
  std::uint64_t global_scans = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t expirations = 0;
  std::uint64_t sheds = 0;
  std::uint64_t connect_failures = 0;
};

struct RunOutput {
  ThreadResult merged;
  svc::ServiceStats svc;
  svc::LeaseStats lease;
  shard::FabricStats fabric;  // all-zero for the plain (unsharded) service
  std::uint64_t violations = 0;
  double elapsed_s = 0;
};

/// Front = svc::SnapshotService<...> or shard::ShardedSnapshotFabric<...>;
/// both expose connect/submit_update/flush/scan/disconnect/stats with the
/// same shapes, the fabric adds global_scan(), word_base on scan results and
/// fabric_stats() — all detected structurally below.
template <typename Front>
RunOutput run_workload(Front& front, std::size_t total_words,
                       const Options& opt) {
  std::unique_ptr<lin::Recorder> recorder;  // logical clock + in-memory ops
  std::unique_ptr<lin::HistoryFileWriter> spill;
  if (opt.checking()) {
    recorder = std::make_unique<lin::Recorder>(total_words);
    if (!opt.check_file.empty()) {
      spill = std::make_unique<lin::HistoryFileWriter>(opt.check_file,
                                                       total_words);
      if (!spill->ok()) {
        std::fprintf(stderr, "loadgen: cannot open --check-file '%s'\n",
                     opt.check_file.c_str());
        std::exit(2);
      }
    }
  }
  // With a spill file, the recorder serves only as the logical clock: ops go
  // straight to disk and history memory stays O(1) for the whole run.
  auto record_update = [&](ProcessId proc, std::size_t word, Tag tag,
                           lin::Time inv, lin::Time res) {
    if (spill) {
      spill->add_update(proc, word, tag, inv, res);
    } else {
      recorder->add_update(proc, word, tag, inv, res);
    }
  };
  auto record_scan = [&](ProcessId proc, std::size_t word_base,
                         std::vector<Tag> view, lin::Time inv, lin::Time res) {
    if (spill) {
      spill->add_scan(proc, word_base, view, inv, res);
    } else {
      recorder->add_scan(proc, word_base, std::move(view), inv, res);
    }
  };

  std::vector<ThreadResult> results(opt.clients);
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};

  {
    std::vector<std::jthread> threads;
    threads.reserve(opt.clients);
    for (std::size_t c = 0; c < opt.clients; ++c) {
      threads.emplace_back([&, c] {
        ThreadResult& out = results[c];
        Rng rng(opt.seed * 0x9E3779B9ULL + c);
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();

        using Session = std::decay_t<decltype(front
                                                  .connect(svc::ClientId{0},
                                                           std::chrono::
                                                               nanoseconds{0})
                                                  .session)>;
        Session sess;
        std::vector<PendingUpdate> pending;

        // Ack every pending submit with seq <= flushed_through: record its
        // latency and, in check mode, its history interval (one shared res
        // tick — the covering flush lies inside every such interval).
        auto ack_through = [&](std::size_t slot, std::uint64_t ft) {
          if (pending.empty() || pending.front().seq > ft) return;
          const std::uint64_t t = now_ns();
          const lin::Time res = recorder ? recorder->tick() : 0;
          std::size_t i = 0;
          for (; i < pending.size() && pending[i].seq <= ft; ++i) {
            out.update_ns.record(t - pending[i].t0);
            ++out.updates;
            if (recorder) {
              record_update(static_cast<ProcessId>(slot), slot,
                            pending[i].tag, pending[i].inv, res);
            }
          }
          pending.erase(pending.begin(), pending.begin() + i);
        };

        auto connect = [&]() -> bool {
          while (!stop.load(std::memory_order_acquire)) {
            auto conn =
                front.connect(static_cast<svc::ClientId>(c), 200ms);
            if (conn.error == svc::SvcError::kOk) {
              sess = conn.session;
              ++out.reconnects;
              return true;
            }
            ++out.connect_failures;
          }
          return false;
        };
        if (!connect()) return;

        // Open loop: this client's share of the Poisson arrival process.
        const double client_rate = opt.rate / static_cast<double>(opt.clients);
        const bool open_loop = opt.mode == "open";
        std::uint64_t next_arrival = now_ns();
        auto exp_gap_ns = [&]() -> std::uint64_t {
          const double u = std::max(rng.uniform01(), 1e-12);
          return static_cast<std::uint64_t>(-std::log(u) / client_rate * 1e9);
        };

        while (!stop.load(std::memory_order_acquire)) {
          if (!sess.connected() && !connect()) break;
          const std::size_t slot = sess.slot();

          std::uint64_t t0 = now_ns();
          if (open_loop) {
            next_arrival += exp_gap_ns();
            while (now_ns() < next_arrival &&
                   !stop.load(std::memory_order_acquire)) {
              std::this_thread::yield();
            }
            // The run ended before this arrival was due: don't issue it
            // (its scheduled origin lies in the future).
            if (now_ns() < next_arrival) break;
            t0 = next_arrival;  // latency includes queueing behind schedule
          }

          if (rng.chance(opt.churn)) {
            const auto d = front.disconnect(sess);
            ack_through(slot, d.flushed_through);
            continue;  // reconnect at the top of the loop
          }

          if (rng.uniform01() < opt.read_ratio) {  // ---- scan
            // Against a fabric, a slice of the reads asks for the globally
            // consistent cross-shard view (lease-free two-level scan).
            if constexpr (requires { front.global_scan(); }) {
              if (rng.uniform01() < opt.global_ratio) {
                const lin::Time inv = recorder ? recorder->tick() : 0;
                auto g = front.global_scan();
                const lin::Time res = recorder ? recorder->tick() : 0;
                out.global_ns.record(now_ns() - t0);
                ++out.global_scans;
                if (recorder) {
                  record_scan(static_cast<ProcessId>(slot), 0,
                              std::move(g.view), inv, res);
                }
                continue;
              }
            }
            const lin::Time inv = recorder ? recorder->tick() : 0;
            auto s = front.scan(sess);
            if (s.error == svc::SvcError::kLeaseExpired) {
              ack_through(slot, s.flushed_through);  // seal flushed for us
              ++out.expirations;
              sess = {};
              continue;
            }
            if (s.error == svc::SvcError::kOverloaded) {
              ++out.sheds;
              continue;
            }
            const lin::Time res = recorder ? recorder->tick() : 0;
            ack_through(slot, s.flushed_through);
            out.scan_ns.record(now_ns() - t0);
            ++out.scans;
            if (recorder) {
              std::size_t word_base = 0;  // shard-local scans are partial
              if constexpr (requires { s.word_base; }) word_base = s.word_base;
              record_scan(static_cast<ProcessId>(slot), word_base,
                          std::move(s.view), inv, res);
            }
          } else {  // ---- update (pipelined; acked at a covering flush)
            const lin::Time inv = recorder ? recorder->tick() : 0;
            const auto r = front.submit_update(
                sess, [](ProcessId s, std::uint64_t q) { return Tag{s, q}; });
            if (r.error == svc::SvcError::kLeaseExpired) {
              ack_through(slot, r.flushed_through);
              ++out.expirations;
              sess = {};
              continue;
            }
            if (r.error == svc::SvcError::kOverloaded) {
              ++out.sheds;
              continue;
            }
            pending.push_back({r.seq, Tag{static_cast<ProcessId>(slot), r.seq},
                               inv, t0});
            ack_through(slot, r.flushed_through);
            if (pending.size() >= opt.pipeline) {
              const auto f = front.flush(sess);
              if (f.error == svc::SvcError::kLeaseExpired) {
                ack_through(slot, f.flushed_through);
                ++out.expirations;
                sess = {};
                continue;
              }
              if (f.error == svc::SvcError::kOk) {
                ack_through(slot, f.flushed_through);
              }
            }
          }
        }
        if (sess.connected()) {
          const std::size_t slot = sess.slot();
          const auto d = front.disconnect(sess);
          ack_through(slot, d.flushed_through);
        }
      });
    }

    go.store(true, std::memory_order_release);
    std::this_thread::sleep_for(std::chrono::duration<double>(opt.seconds));
    stop.store(true, std::memory_order_release);
    threads.clear();  // join
  }

  RunOutput out;
  for (const ThreadResult& r : results) {
    out.merged.update_ns.merge(r.update_ns);
    out.merged.scan_ns.merge(r.scan_ns);
    out.merged.global_ns.merge(r.global_ns);
    out.merged.updates += r.updates;
    out.merged.scans += r.scans;
    out.merged.global_scans += r.global_scans;
    out.merged.reconnects += r.reconnects;
    out.merged.expirations += r.expirations;
    out.merged.sheds += r.sheds;
    out.merged.connect_failures += r.connect_failures;
  }
  out.svc = front.stats();
  if constexpr (requires { front.lease_stats(); }) {
    out.lease = front.lease_stats();
  } else {
    out.lease = front.lease_manager().stats();
  }
  if constexpr (requires { front.fabric_stats(); }) {
    out.fabric = front.fabric_stats();
  }
  out.elapsed_s = opt.seconds;

  if (opt.checking()) {
    auto run_check = [&](const lin::History& history) {
      const lin::CheckResult violation = lin::check_single_writer(history);
      if (violation.has_value()) {
        out.violations = 1;
        std::fprintf(stderr, "loadgen: LINEARIZABILITY VIOLATION: %s\n",
                     violation->c_str());
      } else {
        std::fprintf(stderr,
                     "loadgen: history linearizable (%zu updates, %zu scans)\n",
                     history.updates.size(), history.scans.size());
      }
    };
    if (spill) {
      if (!spill->close()) {
        out.violations = 1;
        std::fprintf(stderr, "loadgen: --check-file write failed ('%s')\n",
                     opt.check_file.c_str());
      } else {
        std::ifstream in(opt.check_file);
        std::string error;
        const auto history = lin::read_history(in, &error);
        if (!history.has_value()) {
          out.violations = 1;
          std::fprintf(stderr, "loadgen: --check-file replay failed: %s\n",
                       error.c_str());
        } else {
          run_check(*history);
        }
      }
    } else {
      run_check(recorder->take());
    }
  }
  return out;
}

/// The ABD counters of the in-process backend, summed over its nodes.
abd::CounterValues abd_counters(const abd::MessagePassingSnapshot<Tag>& snap) {
  return snap.cluster().counters();
}

template <typename Front>
int report(Front& front, std::size_t total_words, const Options& opt) {
  const RunOutput out = run_workload(front, total_words, opt);
  const ThreadResult& m = out.merged;
  const double ops =
      static_cast<double>(m.updates + m.scans + m.global_scans);
  const double thr = ops / out.elapsed_s;
  const double scan_thr = static_cast<double>(m.scans) / out.elapsed_s;
  const double upd_thr = static_cast<double>(m.updates) / out.elapsed_s;
  const double global_thr =
      static_cast<double>(m.global_scans) / out.elapsed_s;
  const std::uint64_t cache_lookups = out.svc.cache_hits + out.svc.cache_misses;
  const double hit_ratio =
      cache_lookups ? static_cast<double>(out.svc.cache_hits) /
                          static_cast<double>(cache_lookups)
                    : 0.0;
  const double coalesce =
      out.svc.submits ? static_cast<double>(out.svc.coalesced) /
                            static_cast<double>(out.svc.submits)
                      : 0.0;
  const double attempts_per_global =
      out.fabric.global_scans
          ? static_cast<double>(out.fabric.global_scan_attempts) /
                static_cast<double>(out.fabric.global_scans)
          : 0.0;

  // The ABD protocol counters (backend=abd / backend=cluster only; zero
  // otherwise): fast-read hits vs fallbacks, protocol rounds apart from the
  // retransmission waves inside them, the request frames the rounds sent.
  abd::CounterValues counters;
  constexpr bool kAbd = requires { abd_counters(front.backend()); };
  if constexpr (kAbd) counters = abd_counters(front.backend());
  const double requests_per_op =
      ops > 0 ? static_cast<double>(counters.requests) / ops : 0.0;
  const std::uint64_t fast_attempts =
      counters.fast_reads + counters.fast_fallbacks;
  const double fast_hit_ratio =
      fast_attempts ? static_cast<double>(counters.fast_reads) /
                          static_cast<double>(fast_attempts)
                    : 0.0;

  std::printf("loadgen %s backend=%s mode=%s slots=%zu shards=%zu clients=%zu "
              "read=%.2f cache=%s %.2fs\n",
              opt.experiment.c_str(), opt.backend.c_str(), opt.mode.c_str(),
              opt.slots, opt.shards, opt.clients, opt.read_ratio,
              opt.cache ? "on" : "off", out.elapsed_s);
  std::printf("  throughput  %10.0f ops/s (%0.0f scans/s, %0.0f updates/s"
              ", %0.0f global scans/s)\n",
              thr, scan_thr, upd_thr, global_thr);
  std::printf("  scan   p50 %8.1f us  p99 %8.1f us  p999 %8.1f us  (n=%llu)\n",
              m.scan_ns.percentile(0.50) / 1e3, m.scan_ns.percentile(0.99) / 1e3,
              m.scan_ns.percentile(0.999) / 1e3,
              static_cast<unsigned long long>(m.scan_ns.count()));
  std::printf("  update p50 %8.1f us  p99 %8.1f us  p999 %8.1f us  (n=%llu)\n",
              m.update_ns.percentile(0.50) / 1e3,
              m.update_ns.percentile(0.99) / 1e3,
              m.update_ns.percentile(0.999) / 1e3,
              static_cast<unsigned long long>(m.update_ns.count()));
  if (opt.shards > 0) {
    std::printf("  global p50 %8.1f us  p99 %8.1f us  p999 %8.1f us  (n=%llu)\n",
                m.global_ns.percentile(0.50) / 1e3,
                m.global_ns.percentile(0.99) / 1e3,
                m.global_ns.percentile(0.999) / 1e3,
                static_cast<unsigned long long>(m.global_ns.count()));
    std::printf("  fabric      %zu shards x %zu words; %.2f attempts/global "
                "scan, %llu confirm failures, %llu sealed\n",
                opt.shards, opt.slots, attempts_per_global,
                static_cast<unsigned long long>(
                    out.fabric.global_confirm_failures),
                static_cast<unsigned long long>(out.fabric.sealed_scans));
  }
  std::printf("  batching    %llu flushes, %.2f coalesced/submit\n",
              static_cast<unsigned long long>(out.svc.flushes), coalesce);
  std::printf("  scan cache  %.1f%% hit (%llu/%llu)\n", 100.0 * hit_ratio,
              static_cast<unsigned long long>(out.svc.cache_hits),
              static_cast<unsigned long long>(cache_lookups));
  std::printf("  leases      %llu grants, %llu steals, %llu timeouts, "
              "%llu queue-full; %llu reconnects, %llu expirations\n",
              static_cast<unsigned long long>(out.lease.grants),
              static_cast<unsigned long long>(out.lease.steals),
              static_cast<unsigned long long>(out.lease.timeouts),
              static_cast<unsigned long long>(out.lease.queue_rejections),
              static_cast<unsigned long long>(m.reconnects),
              static_cast<unsigned long long>(m.expirations));
  std::printf("  shed        %llu (client-observed %llu)\n",
              static_cast<unsigned long long>(out.svc.sheds),
              static_cast<unsigned long long>(m.sheds));
  if (kAbd) {
    std::printf("  abd        ");
    abd::for_each_counter([](const char* name, std::uint64_t value) {
      std::printf(" %s %llu", name, static_cast<unsigned long long>(value));
    }, counters);
    std::printf("\n  abd wire    %.2f requests per op, fast hit %.1f%%\n",
                requests_per_op, 100.0 * fast_hit_ratio);
  }
  if (opt.checking()) {
    std::printf("  check       %s%s\n",
                out.violations == 0 ? "LINEARIZABLE" : "VIOLATION",
                opt.check_file.empty() ? "" : " (spilled to disk)");
  }

  bench::JsonWriter json(opt.experiment);
  json.field("backend", opt.backend)
      .field("mode", opt.mode)
      .field("slots", static_cast<std::uint64_t>(opt.slots))
      .field("shards", static_cast<std::uint64_t>(opt.shards))
      .field("clients", static_cast<std::uint64_t>(opt.clients))
      .field("seconds", out.elapsed_s)
      .field("rate", opt.rate)
      .field("read_ratio", opt.read_ratio)
      .field("global_ratio", opt.global_ratio)
      .field("churn", opt.churn)
      .field("cache", opt.cache)
      .field("checked", opt.checking())
      .field("check_spilled", !opt.check_file.empty())
      .field("throughput", thr)
      .field("scan_throughput", scan_thr)
      .field("update_throughput", upd_thr)
      .field("global_scan_throughput", global_thr)
      .field("scan_p50_us", m.scan_ns.percentile(0.50) / 1e3)
      .field("scan_p99_us", m.scan_ns.percentile(0.99) / 1e3)
      .field("scan_p999_us", m.scan_ns.percentile(0.999) / 1e3)
      .field("update_p50_us", m.update_ns.percentile(0.50) / 1e3)
      .field("update_p99_us", m.update_ns.percentile(0.99) / 1e3)
      .field("update_p999_us", m.update_ns.percentile(0.999) / 1e3)
      .field("global_p50_us", m.global_ns.percentile(0.50) / 1e3)
      .field("global_p99_us", m.global_ns.percentile(0.99) / 1e3)
      .field("global_scans", out.fabric.global_scans)
      .field("global_attempts_per_scan", attempts_per_global)
      .field("global_confirm_failures", out.fabric.global_confirm_failures)
      .field("global_sealed", out.fabric.sealed_scans)
      .field("cache_hit_ratio", hit_ratio)
      .field("coalesced_per_submit", coalesce)
      .field("flushes", out.svc.flushes)
      .field("lease_grants", out.lease.grants)
      .field("lease_steals", out.lease.steals)
      .field("lease_timeouts", out.lease.timeouts)
      .field("sheds", out.svc.sheds)
      .field("fast_hit_ratio", fast_hit_ratio)
      .field("requests_per_op", requests_per_op)
      .field("violations", out.violations);
  abd::for_each_counter([&](const char* name, std::uint64_t value) {
    json.field(name, value);
  }, counters);
  json.print();
  return out.violations == 0 ? 0 : 1;
}

svc::ServiceConfig service_config(const Options& opt) {
  svc::ServiceConfig cfg;
  cfg.max_batch = opt.batch;
  cfg.cache_scans = opt.cache;
  cfg.max_concurrent_ops = opt.max_concurrent;
  cfg.lease.ttl = std::chrono::nanoseconds(
      static_cast<std::uint64_t>(opt.ttl_ms * 1e6));
  return cfg;
}

/// Run the workload against one SnapshotService (no --shards) or a
/// ShardedSnapshotFabric of opt.shards services; make(shard) builds one
/// backend of opt.slots words per shard.
template <typename Backend, typename MakeBackend>
int run_front(const Options& opt, MakeBackend&& make) {
  if (opt.shards == 0) {
    const std::unique_ptr<Backend> backend = make(0);
    svc::SnapshotService<Backend, Tag> service(*backend, service_config(opt));
    return report(service, opt.slots, opt);
  }
  shard::FabricConfig cfg;
  cfg.service = service_config(opt);
  cfg.max_global_attempts = opt.global_attempts;
  std::vector<std::unique_ptr<Backend>> backends;
  backends.reserve(opt.shards);
  for (std::size_t s = 0; s < opt.shards; ++s) backends.push_back(make(s));
  shard::ShardedSnapshotFabric<Backend, Tag> fabric(std::move(backends), cfg);
  return report(fabric, fabric.words(), opt);
}

/// Snapshot backend over a REAL socket cluster of abd_replicad daemons
/// (--cluster host:port,...): per-slot abd::RemoteSnapshots, one to write
/// and one to scan. Writers use ts = tag.seq, which the service keeps
/// monotone per slot across lease handovers, so retransmitted writes stay
/// idempotent. Quorum loss surfaces as QuorumUnavailable, same as the
/// in-process ABD backend.
class ClusterSnapshot {
 public:
  ClusterSnapshot(const std::vector<net::Endpoint>& endpoints,
                  std::size_t slots, std::uint64_t seed)
      : slots_(slots) {
    abd::AbdConfig config;
    config.op_deadline = std::chrono::duration_cast<std::chrono::microseconds>(
        std::chrono::seconds(5));
    for (std::size_t i = 0; i < slots; ++i) {
      writers_.push_back(std::make_unique<abd::RemoteSnapshot>(
          endpoints, seed * 10000 + 2000 + i, slots, config));
      scanners_.push_back(std::make_unique<abd::RemoteSnapshot>(
          endpoints, seed * 10000 + 3000 + i, slots, config));
    }
  }

  std::size_t size() const { return slots_; }

  void update(ProcessId i, Tag v) {
    if (!writers_[i]->try_update(i, v)) throw abd::QuorumUnavailable("write");
  }

  std::vector<Tag> scan(ProcessId i) {
    auto view = scanners_[i % slots_]->try_scan(i);
    if (!view.has_value()) throw abd::QuorumUnavailable("scan");
    return std::move(*view);
  }

  /// The ABD counters summed over every writer and scanner client.
  friend abd::CounterValues abd_counters(const ClusterSnapshot& snap) {
    abd::CounterValues total;
    for (const auto& s : snap.writers_) total += s->client().stats();
    for (const auto& s : snap.scanners_) total += s->client().stats();
    return total;
  }

 private:
  std::size_t slots_;
  std::vector<std::unique_ptr<abd::RemoteSnapshot>> writers_;
  std::vector<std::unique_ptr<abd::RemoteSnapshot>> scanners_;
};

/// A3 behind the single-writer adapter (m == n words).
class MwAsSw {
 public:
  MwAsSw(std::size_t n, const Tag& init) : snap_(n, n, init), adapter_(snap_) {}
  std::size_t size() const { return adapter_.size(); }
  void update(ProcessId i, Tag v) { adapter_.update(i, v); }
  std::vector<Tag> scan(ProcessId i) { return adapter_.scan(i); }

 private:
  core::BoundedMwSnapshot<Tag> snap_;
  core::SingleWriterAdapter<core::BoundedMwSnapshot<Tag>> adapter_;
};

int usage() {
  std::fprintf(
      stderr,
      "usage: loadgen [--backend a1|a2|a3|a4|abd|cluster] [--mode closed|open]\n"
      "               [--slots N] [--shards S] [--clients M] [--seconds S]\n"
      "               [--rate R] [--read-ratio r] [--global-ratio g]\n"
      "               [--global-attempts k] [--churn p] [--pipeline k]\n"
      "               [--batch b] [--cache on|off] [--max-concurrent C]\n"
      "               [--ttl-ms T] [--seed s] [--check]\n"
      "               [--check-file history.txt]  (stream the checked history\n"
      "                to disk: O(1) memory during the run, file replayable\n"
      "                via tools/check_history)\n"
      "               [--trace out.json|out.jsonl] [--experiment name]\n"
      "               [--cluster host:port,...]   (backend=cluster: the\n"
      "                abd_replicad endpoints to drive)\n");
  return 2;
}

}  // namespace
}  // namespace asnap

int main(int argc, char** argv) {
  using namespace asnap;

  constexpr const char* kTool = "loadgen";
  constexpr bool kProbability = true;
  Options opt;
  opt.backend = consume_flag(argc, argv, "--backend", opt.backend);
  opt.mode = consume_flag(argc, argv, "--mode", opt.mode);
  opt.slots = consume_number(argc, argv, "--slots", opt.slots, kTool);
  opt.shards = consume_number(argc, argv, "--shards", opt.shards, kTool);
  opt.clients = consume_number(argc, argv, "--clients", opt.clients, kTool);
  opt.seconds = consume_number(argc, argv, "--seconds", opt.seconds, kTool);
  opt.rate = consume_number(argc, argv, "--rate", opt.rate, kTool);
  opt.read_ratio = consume_number(argc, argv, "--read-ratio", opt.read_ratio,
                                  kTool, kProbability);
  opt.global_ratio = consume_number(argc, argv, "--global-ratio",
                                    opt.global_ratio, kTool, kProbability);
  opt.global_attempts = consume_number(argc, argv, "--global-attempts",
                                       opt.global_attempts, kTool);
  opt.churn =
      consume_number(argc, argv, "--churn", opt.churn, kTool, kProbability);
  opt.pipeline = consume_number(argc, argv, "--pipeline", opt.pipeline, kTool);
  opt.batch = consume_number(argc, argv, "--batch", opt.batch, kTool);
  opt.cache = consume_flag(argc, argv, "--cache", "on") != "off";
  opt.max_concurrent = consume_number(argc, argv, "--max-concurrent",
                                      opt.max_concurrent, kTool);
  opt.ttl_ms = consume_number(argc, argv, "--ttl-ms", opt.ttl_ms, kTool);
  opt.seed = consume_number(argc, argv, "--seed", opt.seed, kTool);
  opt.check_file = consume_flag(argc, argv, "--check-file", "");
  opt.trace_path = consume_flag(argc, argv, "--trace", "");
  opt.experiment = consume_flag(argc, argv, "--experiment", opt.experiment);
  opt.cluster = consume_flag(argc, argv, "--cluster", "");
  opt.check = consume_switch(argc, argv, "--check");
  if (!no_unknown_args(argc, argv, kTool)) return usage();
  if (opt.slots == 0 || opt.clients == 0 ||
      (opt.mode != "closed" && opt.mode != "open")) {
    return usage();
  }
  if (opt.experiment == "E11-svc" && opt.shards > 0) {
    opt.experiment = "E13-shard";  // default label follows the topology
  }

  trace::Session trace_session(opt.trace_path);

  if (opt.backend == "a1") {
    return run_front<core::UnboundedSwSnapshot<lin::Tag>>(
        opt, [&](std::size_t) {
          return std::make_unique<core::UnboundedSwSnapshot<lin::Tag>>(
              opt.slots, lin::Tag{});
        });
  }
  if (opt.backend == "a2") {
    return run_front<core::BoundedSwSnapshot<lin::Tag>>(
        opt, [&](std::size_t) {
          return std::make_unique<core::BoundedSwSnapshot<lin::Tag>>(
              opt.slots, lin::Tag{});
        });
  }
  if (opt.backend == "a3") {
    return run_front<MwAsSw>(opt, [&](std::size_t) {
      return std::make_unique<MwAsSw>(opt.slots, lin::Tag{});
    });
  }
  if (opt.backend == "a4") {
    return run_front<core::MvccSnapshot<lin::Tag>>(opt, [&](std::size_t) {
      return std::make_unique<core::MvccSnapshot<lin::Tag>>(opt.slots,
                                                            lin::Tag{});
    });
  }
  if (opt.backend == "abd") {
    return run_front<abd::MessagePassingSnapshot<lin::Tag>>(
        opt, [&](std::size_t shard) {
          // Distinct simulated-network seed per shard.
          return std::make_unique<abd::MessagePassingSnapshot<lin::Tag>>(
              opt.slots, lin::Tag{}, opt.seed + shard * 7919);
        });
  }
  if (opt.backend == "cluster") {
    if (opt.shards > 0) {
      std::fprintf(stderr,
                   "loadgen: --shards is not supported with backend=cluster "
                   "(one daemon set = one shard)\n");
      return usage();
    }
    const auto endpoints = net::parse_endpoints(opt.cluster);
    if (!endpoints.has_value() || endpoints->size() < 3) {
      std::fprintf(stderr,
                   "loadgen: --backend cluster needs --cluster with >= 3 "
                   "host:port endpoints\n");
      return usage();
    }
    ClusterSnapshot snap(*endpoints, opt.slots, opt.seed);
    svc::SnapshotService<ClusterSnapshot, lin::Tag> service(
        snap, service_config(opt));
    return report(service, opt.slots, opt);
  }
  std::fprintf(stderr, "loadgen: unknown backend '%s'\n", opt.backend.c_str());
  return usage();
}
