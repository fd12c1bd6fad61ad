// trace_analyze — paper-shaped statistics from a protocol trace.
//
// Ingests a trace written by trace::Session / trace::write_chrome_trace
// (Chrome trace-event JSON) or trace::write_jsonl (one event per line) and
// reports the distributions the paper's arguments are about:
//
//   * double collects per scan against the pigeonhole bound — n+1 for the
//     single-writer algorithms (Lemma 3.4), 2n+1 for the multi-writer
//     algorithm (Lemma 5.2); any traced scan over the bound is a protocol
//     violation and makes the tool exit nonzero;
//   * borrow rate (Observation-2 terminations) vs clean double collects;
//   * scan / update latency percentiles (log-bucketed histograms);
//   * handshake toggle frequency;
//   * ABD retransmissions per quorum round (the robustness tail) and
//     round timeouts;
//   * fault-injector decisions observed (drops / dups / delays);
//   * sharded-fabric composition health: per-shard update/scan traffic, the
//     cross-shard global-scan retry rate (generation-vector double collects
//     that had to rerun), confirm failures, and sealed-fallback frequency;
//   * multi-version scan engine health: versions published / retired /
//     reclaimed through mvcc::VersionGate, reader acquires, the refcount
//     high-water at unlink, and grace-period latency percentiles (version
//     unlinked -> provably reader-free, kMvccRetire -> kMvccReclaim
//     matched on (gate, epoch));
//   * network chaos: per-link wire faults the userspace netem proxy
//     injected (drops / delays / reorders / stalls / resets / blackholes /
//     flaps / throttle pauses) side by side with the client symptoms they
//     provoked (retransmit waves, round timeouts, reconnect backoffs) — the
//     cause/effect ledger of a --scenario net run.
//
// Usage:
//   trace_analyze <trace.json | trace.jsonl> ...
//   trace_analyze --demo     # trace a small in-process workload, then
//                            # analyze it (self-contained smoke test)
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/bounded_mw_snapshot.hpp"
#include "core/bounded_sw_snapshot.hpp"
#include "core/mvcc_snapshot.hpp"
#include "core/unbounded_sw_snapshot.hpp"
#include "net/chaos_proxy.hpp"
#include "net/socket.hpp"
#include "net/tcp_bus.hpp"
#include "shard/fabric.hpp"
#include "svc/service.hpp"
#include "trace/event.hpp"
#include "trace/exporter.hpp"
#include "trace/histogram.hpp"
#include "trace/json.hpp"

namespace {

using namespace asnap;

/// One normalized event, whichever file format it came from.
struct Row {
  std::uint64_t ts_ns = 0;
  std::string kind;
  std::uint32_t pid = 0;
  std::uint32_t tid = 0;
  std::uint64_t a0 = 0;
  std::uint64_t a1 = 0;
};

Row row_from_object(const trace::json::Value& obj, bool chrome) {
  Row r;
  if (chrome) {
    // Chrome "ts" is microseconds; payload lives under "args".
    r.ts_ns = static_cast<std::uint64_t>(obj["ts"].as_number() * 1000.0);
    const trace::json::Value& args = obj["args"];
    r.kind = args["kind"].is_string() ? args["kind"].as_string()
                                      : obj["name"].as_string();
    r.a0 = args["a0"].as_u64();
    r.a1 = args["a1"].as_u64();
  } else {
    r.ts_ns = obj["ts"].as_u64();
    r.kind = obj["kind"].as_string();
    r.a0 = obj["a0"].as_u64();
    r.a1 = obj["a1"].as_u64();
  }
  r.pid = static_cast<std::uint32_t>(obj["pid"].as_u64());
  r.tid = static_cast<std::uint32_t>(obj["tid"].as_u64());
  return r;
}

/// Loads a chrome-format ({"traceEvents":[...]}) or JSONL trace file.
bool load_trace(const std::string& path, std::vector<Row>& rows) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "trace_analyze: cannot open %s\n", path.c_str());
    return false;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  try {
    const std::size_t first = text.find_first_not_of(" \t\r\n");
    if (first != std::string::npos && text[first] == '{' &&
        text.find("\"traceEvents\"") != std::string::npos) {
      const trace::json::Value doc = trace::json::parse(text);
      const trace::json::Value& events = doc["traceEvents"];
      if (!events.is_array()) {
        std::fprintf(stderr, "trace_analyze: %s: traceEvents is not an array\n",
                     path.c_str());
        return false;
      }
      for (const trace::json::Value& ev : events.as_array()) {
        rows.push_back(row_from_object(ev, /*chrome=*/true));
      }
    } else {  // JSONL
      std::istringstream lines(text);
      std::string line;
      while (std::getline(lines, line)) {
        if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
        rows.push_back(
            row_from_object(trace::json::parse(line), /*chrome=*/false));
      }
    }
  } catch (const trace::json::ParseError& e) {
    std::fprintf(stderr, "trace_analyze: %s: %s\n", path.c_str(), e.what());
    return false;
  }
  return true;
}

struct ScanRecord {
  std::uint64_t algo = 0;
  std::uint64_t n = 0;
  std::uint64_t attempts = 0;
  bool borrowed = false;
  std::uint64_t latency_ns = 0;
};

struct Analysis {
  std::vector<ScanRecord> scans;
  std::size_t incomplete_scans = 0;  ///< ends whose begin was overwritten
  trace::LogHistogram update_latency_ns;
  std::uint64_t updates = 0;
  std::uint64_t handshake_toggles = 0;
  std::uint64_t moved_detected = 0;
  trace::LogHistogram retransmits_per_round;
  std::uint64_t rounds = 0;
  std::uint64_t round_timeouts = 0;
  // Fast-read round complexity (PR 10): one-round reads vs slow-path
  // fallbacks, with the fallback reason split out. Protocol rounds and
  // retransmit waves stay separately accounted (a wave is a resend INSIDE
  // a round, never a new round).
  std::uint64_t fast_reads = 0;
  std::uint64_t fast_fallbacks = 0;
  std::uint64_t fast_fallback_disagree = 0;
  std::uint64_t fast_fallback_gap = 0;
  std::uint64_t fault_drops = 0;
  std::uint64_t fault_dups = 0;
  std::uint64_t fault_delays = 0;
  // Self-healing layer (PR 3): detector verdicts, degraded-mode client
  // decisions, supervised recoveries, chaos injections.
  std::uint64_t suspects = 0;
  std::uint64_t trusts = 0;
  std::uint64_t breaker_skips = 0;
  std::uint64_t breaker_fail_fasts = 0;
  std::uint64_t stale_epoch_replies = 0;
  std::uint64_t chaos_actions = 0;
  std::uint64_t recoveries_ok = 0;
  std::uint64_t recoveries_failed = 0;
  trace::LogHistogram detection_latency_ns;  ///< chaos crash -> 1st suspect
  trace::LogHistogram recovery_latency_ns;   ///< recover_begin -> _end ok
  // Service layer (PR 4): slot-lease churn, batching, scan cache, shedding.
  std::uint64_t lease_grants = 0;
  std::uint64_t lease_steals = 0;
  std::uint64_t lease_expires = 0;
  trace::LogHistogram batch_sizes;  ///< submits coalesced per flush
  std::uint64_t batch_flushes = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_invalidates = 0;
  std::uint64_t sheds = 0;
  // Sharded fabric (PR 6): hash routing, shard-local traffic, two-level
  // cross-shard global scans.
  std::uint64_t shard_routes = 0;
  std::map<std::uint32_t, std::uint64_t> shard_updates;      ///< by shard
  std::map<std::uint32_t, std::uint64_t> shard_local_scans;  ///< by shard
  std::map<std::uint32_t, std::uint64_t> shard_local_hits;   ///< by shard
  std::uint64_t global_scans = 0;
  std::uint64_t global_retried = 0;  ///< needed > 1 confirmation round
  std::uint64_t global_sealed = 0;   ///< fell back to the quiesce path
  std::uint64_t incomplete_global_scans = 0;
  trace::LogHistogram global_attempts;
  trace::LogHistogram global_latency_ns;
  std::uint64_t confirm_failures = 0;  ///< generation vector moved mid-round
  // Multi-version scan engine (PR 9): versioned publication through
  // mvcc::VersionGate (the A4 backend and the svc scan cache's gate).
  std::uint64_t mvcc_published = 0;
  std::uint64_t mvcc_acquires = 0;
  std::uint64_t mvcc_retired = 0;
  std::uint64_t mvcc_reclaimed = 0;
  std::uint64_t mvcc_readers_high_water = 0;  ///< max readers out at unlink
  std::uint64_t mvcc_orphan_reclaims = 0;  ///< reclaim whose retire was lost
  trace::LogHistogram mvcc_grace_ns;  ///< unlink -> provably reader-free
  // Network chaos (PR 8): wire faults the ChaosProxy injected, keyed by
  // link (= replica index), plus the client-side reconnect backoffs they
  // provoked. Events kNetDrop..kNetThrottle carry pid = link.
  struct NetLink {
    std::uint64_t drops = 0;
    std::uint64_t delays = 0;
    std::uint64_t reorders = 0;
    std::uint64_t stalls = 0;
    std::uint64_t resets = 0;
    std::uint64_t blackhole_edges = 0;  ///< asymmetric-partition toggles
    std::uint64_t flap_edges = 0;       ///< link up/down transitions
    std::uint64_t throttles = 0;        ///< bandwidth-cap pauses
  };
  std::map<std::uint32_t, NetLink> net_by_link;
  trace::LogHistogram net_delay_us;  ///< injected per-frame delay
  std::uint64_t retransmit_events = 0;  ///< all waves, matched or not
  std::uint64_t reconnect_backoffs = 0;
  trace::LogHistogram backoff_cooldown_ms;  ///< armed cooldown per backoff
  std::uint64_t first_ts = ~std::uint64_t{0};
  std::uint64_t last_ts = 0;
};

Analysis analyze(std::vector<Row> rows) {
  std::stable_sort(rows.begin(), rows.end(),
                   [](const Row& a, const Row& b) { return a.ts_ns < b.ts_ns; });
  Analysis out;
  struct PendingScan {
    bool open = false;
    std::uint64_t algo = 0, n = 0, begin_ts = 0;
  };
  struct PendingRound {
    bool open = false;
    std::uint64_t rid = 0, retransmits = 0;
  };
  std::map<std::uint32_t, PendingScan> scan_by_tid;
  std::map<std::uint32_t, std::uint64_t> update_begin_by_tid;
  std::map<std::uint32_t, PendingRound> round_by_tid;
  std::map<std::uint64_t, std::uint64_t> crash_ts_by_node;   // chaos kCrash
  std::map<std::uint32_t, std::uint64_t> recover_begin_by_node;
  std::map<std::uint32_t, std::uint64_t> global_begin_by_tid;
  // (gate pid, version epoch) -> unlink timestamp; the matching reclaim may
  // fire on any thread (whichever reader releases last).
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::uint64_t>
      mvcc_retire_ts;

  for (const Row& r : rows) {
    if (r.ts_ns < out.first_ts) out.first_ts = r.ts_ns;
    if (r.ts_ns > out.last_ts) out.last_ts = r.ts_ns;

    if (r.kind == "scan_begin") {
      scan_by_tid[r.tid] = PendingScan{true, r.a0, r.a1, r.ts_ns};
    } else if (r.kind == "scan_end") {
      PendingScan& p = scan_by_tid[r.tid];
      if (!p.open) {  // begin lost to ring overwrite: not attributable
        ++out.incomplete_scans;
        continue;
      }
      out.scans.push_back(ScanRecord{p.algo, p.n, r.a0, r.a1 != 0,
                                     r.ts_ns - p.begin_ts});
      p.open = false;
    } else if (r.kind == "update_begin") {
      update_begin_by_tid[r.tid] = r.ts_ns;
    } else if (r.kind == "update_end") {
      const auto it = update_begin_by_tid.find(r.tid);
      if (it != update_begin_by_tid.end()) {
        out.update_latency_ns.record(r.ts_ns - it->second);
        update_begin_by_tid.erase(it);
      }
      ++out.updates;
    } else if (r.kind == "handshake_toggle") {
      ++out.handshake_toggles;
    } else if (r.kind == "moved_detected") {
      ++out.moved_detected;
    } else if (r.kind == "abd_round_begin") {
      round_by_tid[r.tid] = PendingRound{true, r.a0, 0};
    } else if (r.kind == "abd_retransmit") {
      ++out.retransmit_events;
      PendingRound& p = round_by_tid[r.tid];
      if (p.open && p.rid == r.a0) ++p.retransmits;
    } else if (r.kind == "abd_quorum_reached" ||
               r.kind == "abd_round_timeout") {
      PendingRound& p = round_by_tid[r.tid];
      if (p.open && p.rid == r.a0) {
        out.retransmits_per_round.record(p.retransmits);
        ++out.rounds;
        if (r.kind == "abd_round_timeout") ++out.round_timeouts;
        p.open = false;
      }
    } else if (r.kind == "abd_fast_read") {
      ++out.fast_reads;
    } else if (r.kind == "abd_fast_fallback") {
      ++out.fast_fallbacks;
      if (r.a1 == 1) ++out.fast_fallback_disagree;
      if (r.a1 == 2) ++out.fast_fallback_gap;
    } else if (r.kind == "fault_drop") {
      ++out.fault_drops;
    } else if (r.kind == "fault_dup") {
      ++out.fault_dups;
    } else if (r.kind == "fault_delay") {
      ++out.fault_delays;
    } else if (r.kind == "suspect") {
      ++out.suspects;
      // First suspicion (by any observer) after a chaos-injected crash of
      // that node is the detection latency.
      const auto it = crash_ts_by_node.find(r.a0);
      if (it != crash_ts_by_node.end()) {
        out.detection_latency_ns.record(r.ts_ns - it->second);
        crash_ts_by_node.erase(it);
      }
    } else if (r.kind == "trust") {
      ++out.trusts;
    } else if (r.kind == "breaker_skip") {
      ++out.breaker_skips;
    } else if (r.kind == "breaker_fail_fast") {
      ++out.breaker_fail_fasts;
    } else if (r.kind == "stale_epoch_reply") {
      ++out.stale_epoch_replies;
    } else if (r.kind == "recover_begin") {
      recover_begin_by_node[r.pid] = r.ts_ns;
    } else if (r.kind == "recover_end") {
      if (r.a0 != 0) {
        ++out.recoveries_ok;
        const auto it = recover_begin_by_node.find(r.pid);
        if (it != recover_begin_by_node.end()) {
          out.recovery_latency_ns.record(r.ts_ns - it->second);
          recover_begin_by_node.erase(it);
        }
      } else {
        ++out.recoveries_failed;
      }
    } else if (r.kind == "chaos_action") {
      ++out.chaos_actions;
      if (r.a0 == 0) crash_ts_by_node[r.a1] = r.ts_ns;  // ActionKind::kCrash
    } else if (r.kind == "lease_grant") {
      ++out.lease_grants;
    } else if (r.kind == "lease_steal") {
      ++out.lease_grants;  // a steal IS a grant, of a reclaimed slot
      ++out.lease_steals;
    } else if (r.kind == "lease_expire") {
      ++out.lease_expires;
    } else if (r.kind == "batch_flush") {
      ++out.batch_flushes;
      out.batch_sizes.record(r.a0);
    } else if (r.kind == "scan_cache_hit") {
      ++out.cache_hits;
    } else if (r.kind == "scan_cache_miss") {
      ++out.cache_misses;
    } else if (r.kind == "scan_cache_invalidate") {
      ++out.cache_invalidates;
    } else if (r.kind == "svc_shed") {
      ++out.sheds;
    } else if (r.kind == "shard_route") {
      ++out.shard_routes;
    } else if (r.kind == "shard_local_update") {
      ++out.shard_updates[r.pid];
    } else if (r.kind == "shard_local_scan") {
      ++out.shard_local_scans[r.pid];
      if (r.a0 != 0) ++out.shard_local_hits[r.pid];
    } else if (r.kind == "shard_global_scan_begin") {
      global_begin_by_tid[r.tid] = r.ts_ns;
    } else if (r.kind == "shard_global_scan_end") {
      ++out.global_scans;
      out.global_attempts.record(r.a0);
      if (r.a0 > 1) ++out.global_retried;
      if (r.a1 != 0) ++out.global_sealed;
      const auto it = global_begin_by_tid.find(r.tid);
      if (it != global_begin_by_tid.end()) {
        out.global_latency_ns.record(r.ts_ns - it->second);
        global_begin_by_tid.erase(it);
      } else {  // begin lost to ring overwrite: latency not attributable
        ++out.incomplete_global_scans;
      }
    } else if (r.kind == "shard_confirm_fail") {
      ++out.confirm_failures;
    } else if (r.kind == "mvcc_publish") {
      ++out.mvcc_published;
    } else if (r.kind == "mvcc_acquire") {
      ++out.mvcc_acquires;
    } else if (r.kind == "mvcc_retire") {
      ++out.mvcc_retired;
      if (r.a1 > out.mvcc_readers_high_water) {
        out.mvcc_readers_high_water = r.a1;
      }
      mvcc_retire_ts[{r.pid, r.a0}] = r.ts_ns;
    } else if (r.kind == "mvcc_reclaim") {
      ++out.mvcc_reclaimed;
      const auto it = mvcc_retire_ts.find({r.pid, r.a0});
      if (it != mvcc_retire_ts.end()) {
        out.mvcc_grace_ns.record(r.ts_ns - it->second);
        mvcc_retire_ts.erase(it);
      } else {  // retire lost to ring overwrite: latency not attributable
        ++out.mvcc_orphan_reclaims;
      }
    } else if (r.kind == "net_drop") {
      ++out.net_by_link[r.pid].drops;
    } else if (r.kind == "net_delay") {
      ++out.net_by_link[r.pid].delays;
      out.net_delay_us.record(r.a1);
    } else if (r.kind == "net_reorder") {
      ++out.net_by_link[r.pid].reorders;
    } else if (r.kind == "net_stall") {
      ++out.net_by_link[r.pid].stalls;
    } else if (r.kind == "net_reset") {
      ++out.net_by_link[r.pid].resets;
    } else if (r.kind == "net_blackhole") {
      ++out.net_by_link[r.pid].blackhole_edges;
    } else if (r.kind == "net_flap") {
      ++out.net_by_link[r.pid].flap_edges;
    } else if (r.kind == "net_throttle") {
      ++out.net_by_link[r.pid].throttles;
    } else if (r.kind == "net_reconnect_backoff") {
      ++out.reconnect_backoffs;
      out.backoff_cooldown_ms.record(r.a1);
    }
  }
  return out;
}

const char* algo_name(std::uint64_t algo) {
  switch (algo) {
    case trace::kAlgoUnboundedSw: return "Fig2 unbounded SW";
    case trace::kAlgoBoundedSw: return "Fig3 bounded SW";
    case trace::kAlgoBoundedMw: return "Fig4 bounded MW";
    case trace::kAlgoMvccGate: return "A4 mvcc gate";
    default: return "unknown";
  }
}

std::uint64_t pigeonhole_bound(std::uint64_t algo, std::uint64_t n) {
  return algo == trace::kAlgoBoundedMw ? 2 * n + 1 : n + 1;
}

/// Prints the report; returns the number of bound violations.
std::size_t report(const Analysis& a) {
  const double span_s = a.last_ts > a.first_ts
                            ? static_cast<double>(a.last_ts - a.first_ts) / 1e9
                            : 0.0;

  // Per-algorithm scan statistics.
  struct PerAlgo {
    trace::LogHistogram attempts;
    trace::LogHistogram latency_ns;
    std::uint64_t n_max = 0;
    std::uint64_t borrowed = 0;
    std::uint64_t worst = 0;
    std::uint64_t violations = 0;
  };
  std::map<std::uint64_t, PerAlgo> by_algo;
  std::size_t violations = 0;
  for (const ScanRecord& s : a.scans) {
    PerAlgo& pa = by_algo[s.algo];
    pa.attempts.record(s.attempts);
    pa.latency_ns.record(s.latency_ns);
    if (s.n > pa.n_max) pa.n_max = s.n;
    if (s.borrowed) ++pa.borrowed;
    if (s.attempts > pa.worst) pa.worst = s.attempts;
    if (s.attempts > pigeonhole_bound(s.algo, s.n)) {
      ++pa.violations;
      ++violations;
    }
  }

  std::printf("== scans: double collects vs the pigeonhole bound ==\n");
  std::printf("%-20s %8s %6s %6s %6s %6s %6s %7s %10s\n", "algorithm",
              "scans", "p50", "p99", "max", "bound", "viol", "borrow%",
              "p99 lat");
  for (const auto& [algo, pa] : by_algo) {
    const std::uint64_t bound = pigeonhole_bound(algo, pa.n_max);
    std::printf("%-20s %8llu %6llu %6llu %6llu %6llu %6llu %6.1f%% %8.1fus\n",
                algo_name(algo),
                static_cast<unsigned long long>(pa.attempts.count()),
                static_cast<unsigned long long>(pa.attempts.percentile(0.50)),
                static_cast<unsigned long long>(pa.attempts.percentile(0.99)),
                static_cast<unsigned long long>(pa.worst),
                static_cast<unsigned long long>(bound),
                static_cast<unsigned long long>(pa.violations),
                pa.attempts.count() == 0
                    ? 0.0
                    : 100.0 * static_cast<double>(pa.borrowed) /
                          static_cast<double>(pa.attempts.count()),
                static_cast<double>(pa.latency_ns.percentile(0.99)) / 1000.0);
  }
  if (by_algo.empty()) std::printf("(no complete scans in trace)\n");
  if (a.incomplete_scans != 0) {
    std::printf("(%zu scan_end events had no scan_begin in the trace — "
                "ring overwrote their start; excluded)\n",
                a.incomplete_scans);
  }

  std::printf("\n== updates ==\n");
  std::printf("updates: %llu   p50 %.1fus  p99 %.1fus  p999 %.1fus\n",
              static_cast<unsigned long long>(a.updates),
              static_cast<double>(a.update_latency_ns.percentile(0.50)) / 1e3,
              static_cast<double>(a.update_latency_ns.percentile(0.99)) / 1e3,
              static_cast<double>(a.update_latency_ns.percentile(0.999)) / 1e3);
  std::printf("handshake toggles: %llu (%.1f/s)   moved-detections: %llu\n",
              static_cast<unsigned long long>(a.handshake_toggles),
              span_s > 0 ? static_cast<double>(a.handshake_toggles) / span_s
                         : 0.0,
              static_cast<unsigned long long>(a.moved_detected));

  if (a.rounds != 0) {
    std::printf("\n== ABD quorum rounds ==\n");
    std::printf("rounds: %llu  timeouts: %llu  retransmits/round: p50 %llu "
                "p99 %llu max %llu\n",
                static_cast<unsigned long long>(a.rounds),
                static_cast<unsigned long long>(a.round_timeouts),
                static_cast<unsigned long long>(
                    a.retransmits_per_round.percentile(0.50)),
                static_cast<unsigned long long>(
                    a.retransmits_per_round.percentile(0.99)),
                static_cast<unsigned long long>(a.retransmits_per_round.max()));
  }
  if (a.fast_reads + a.fast_fallbacks != 0) {
    // Round complexity of reads: a fast read is 1 round, a fallback is 2
    // (query + write-back). Retransmit waves are NOT rounds and are
    // reported above, per round.
    const std::uint64_t reads = a.fast_reads + a.fast_fallbacks;
    const double rounds_per_read =
        static_cast<double>(a.fast_reads + 2 * a.fast_fallbacks) /
        static_cast<double>(reads);
    std::printf("\n== ABD read round complexity ==\n");
    std::printf("reads: %llu  fast (1-round): %llu  fallback (2-round): %llu "
                "(%llu ts-disagree, %llu stability-gap)\n",
                static_cast<unsigned long long>(reads),
                static_cast<unsigned long long>(a.fast_reads),
                static_cast<unsigned long long>(a.fast_fallbacks),
                static_cast<unsigned long long>(a.fast_fallback_disagree),
                static_cast<unsigned long long>(a.fast_fallback_gap));
    std::printf("fast-hit ratio: %.1f%%  rounds/read: %.2f\n",
                100.0 * static_cast<double>(a.fast_reads) /
                    static_cast<double>(reads),
                rounds_per_read);
  }
  if (a.fault_drops + a.fault_dups + a.fault_delays != 0) {
    std::printf("\n== fault injector ==\n");
    std::printf("drops: %llu  dups: %llu  delays: %llu\n",
                static_cast<unsigned long long>(a.fault_drops),
                static_cast<unsigned long long>(a.fault_dups),
                static_cast<unsigned long long>(a.fault_delays));
  }
  if (a.suspects + a.trusts + a.recoveries_ok + a.recoveries_failed +
          a.breaker_skips + a.breaker_fail_fasts + a.stale_epoch_replies +
          a.chaos_actions !=
      0) {
    std::printf("\n== self-healing ==\n");
    std::printf("detector: %llu suspicions, %llu trust restorations\n",
                static_cast<unsigned long long>(a.suspects),
                static_cast<unsigned long long>(a.trusts));
    std::printf("breaker: %llu replica skips, %llu fail-fasts, %llu "
                "stale-epoch replies discarded\n",
                static_cast<unsigned long long>(a.breaker_skips),
                static_cast<unsigned long long>(a.breaker_fail_fasts),
                static_cast<unsigned long long>(a.stale_epoch_replies));
    std::printf("recoveries: %llu ok, %llu failed attempts; chaos actions "
                "injected: %llu\n",
                static_cast<unsigned long long>(a.recoveries_ok),
                static_cast<unsigned long long>(a.recoveries_failed),
                static_cast<unsigned long long>(a.chaos_actions));
    if (a.detection_latency_ns.count() != 0) {
      std::printf("detection latency (chaos crash -> first suspicion): "
                  "p50 %.1fus  p99 %.1fus  (%llu samples)\n",
                  static_cast<double>(a.detection_latency_ns.percentile(0.50)) /
                      1e3,
                  static_cast<double>(a.detection_latency_ns.percentile(0.99)) /
                      1e3,
                  static_cast<unsigned long long>(
                      a.detection_latency_ns.count()));
    }
    if (a.recovery_latency_ns.count() != 0) {
      std::printf("recovery duration (rejoin + replica resync): p50 %.1fus  "
                  "p99 %.1fus  max %.1fus\n",
                  static_cast<double>(a.recovery_latency_ns.percentile(0.50)) /
                      1e3,
                  static_cast<double>(a.recovery_latency_ns.percentile(0.99)) /
                      1e3,
                  static_cast<double>(a.recovery_latency_ns.max()) / 1e3);
    }
  }

  if (a.lease_grants + a.batch_flushes + a.cache_hits + a.cache_misses +
          a.sheds !=
      0) {
    std::printf("\n== service layer ==\n");
    std::printf("leases: %llu grants (%llu steals, %llu expiries) — churn "
                "%.1f grants/s\n",
                static_cast<unsigned long long>(a.lease_grants),
                static_cast<unsigned long long>(a.lease_steals),
                static_cast<unsigned long long>(a.lease_expires),
                span_s > 0 ? static_cast<double>(a.lease_grants) / span_s
                           : 0.0);
    if (a.batch_flushes != 0) {
      std::printf("batching: %llu flushes, size p50 %llu p99 %llu max %llu "
                  "(mean %.2f submits/flush)\n",
                  static_cast<unsigned long long>(a.batch_flushes),
                  static_cast<unsigned long long>(
                      a.batch_sizes.percentile(0.50)),
                  static_cast<unsigned long long>(
                      a.batch_sizes.percentile(0.99)),
                  static_cast<unsigned long long>(a.batch_sizes.max()),
                  a.batch_sizes.mean());
    }
    const std::uint64_t lookups = a.cache_hits + a.cache_misses;
    if (lookups != 0) {
      std::printf("scan cache: %.1f%% hit (%llu/%llu), %llu invalidations "
                  "observed\n",
                  100.0 * static_cast<double>(a.cache_hits) /
                      static_cast<double>(lookups),
                  static_cast<unsigned long long>(a.cache_hits),
                  static_cast<unsigned long long>(lookups),
                  static_cast<unsigned long long>(a.cache_invalidates));
    }
    std::printf("admission: %llu requests shed\n",
                static_cast<unsigned long long>(a.sheds));
  }

  if (a.shard_routes + a.global_scans + a.confirm_failures != 0 ||
      !a.shard_updates.empty() || !a.shard_local_scans.empty()) {
    // Union of shard ids seen on either the update or the scan path.
    std::map<std::uint32_t, bool> shards;
    for (const auto& [sh, n] : a.shard_updates) shards[sh] = true;
    for (const auto& [sh, n] : a.shard_local_scans) shards[sh] = true;

    std::printf("\n== sharded fabric ==\n");
    std::printf("routing: %llu client routes across %zu shard(s)\n",
                static_cast<unsigned long long>(a.shard_routes),
                shards.size());
    std::printf("%-8s %12s %12s %8s\n", "shard", "updates", "local scans",
                "hit%");
    for (const auto& [sh, present] : shards) {
      const auto count = [&](const std::map<std::uint32_t, std::uint64_t>& m) {
        const auto it = m.find(sh);
        return it == m.end() ? std::uint64_t{0} : it->second;
      };
      const std::uint64_t scans = count(a.shard_local_scans);
      std::printf("%-8u %12llu %12llu %7.1f%%\n", sh,
                  static_cast<unsigned long long>(count(a.shard_updates)),
                  static_cast<unsigned long long>(scans),
                  scans == 0 ? 0.0
                             : 100.0 *
                                   static_cast<double>(
                                       count(a.shard_local_hits)) /
                                   static_cast<double>(scans));
    }
    if (a.global_scans != 0) {
      std::printf("global scans: %llu — %.1f%% retried, attempts p50 %llu "
                  "p99 %llu max %llu, %llu sealed fallbacks\n",
                  static_cast<unsigned long long>(a.global_scans),
                  100.0 * static_cast<double>(a.global_retried) /
                      static_cast<double>(a.global_scans),
                  static_cast<unsigned long long>(
                      a.global_attempts.percentile(0.50)),
                  static_cast<unsigned long long>(
                      a.global_attempts.percentile(0.99)),
                  static_cast<unsigned long long>(a.global_attempts.max()),
                  static_cast<unsigned long long>(a.global_sealed));
      std::printf("global scan latency: p50 %.1fus  p99 %.1fus  max %.1fus\n",
                  static_cast<double>(a.global_latency_ns.percentile(0.50)) /
                      1e3,
                  static_cast<double>(a.global_latency_ns.percentile(0.99)) /
                      1e3,
                  static_cast<double>(a.global_latency_ns.max()) / 1e3);
    }
    std::printf("generation confirm failures: %llu (a shard's writes crossed "
                "a collect window)\n",
                static_cast<unsigned long long>(a.confirm_failures));
    if (a.incomplete_global_scans != 0) {
      std::printf("(%llu global_scan_end events had no begin in the trace — "
                  "ring overwrote their start; latency excluded)\n",
                  static_cast<unsigned long long>(a.incomplete_global_scans));
    }
  }

  if (a.mvcc_published + a.mvcc_acquires + a.mvcc_retired + a.mvcc_reclaimed !=
      0) {
    std::printf("\n== mvcc versioned scans ==\n");
    std::printf("versions: %llu published, %llu retired, %llu reclaimed "
                "(%lld awaiting readers or a reclamation pass)\n",
                static_cast<unsigned long long>(a.mvcc_published),
                static_cast<unsigned long long>(a.mvcc_retired),
                static_cast<unsigned long long>(a.mvcc_reclaimed),
                static_cast<long long>(a.mvcc_retired) -
                    static_cast<long long>(a.mvcc_reclaimed));
    std::printf("reader acquires: %llu   refcount high-water at unlink: %llu "
                "(of 65535 the packed counter tolerates)\n",
                static_cast<unsigned long long>(a.mvcc_acquires),
                static_cast<unsigned long long>(a.mvcc_readers_high_water));
    if (a.mvcc_grace_ns.count() != 0) {
      std::printf("grace period (unlink -> provably reader-free): p50 %.1fus "
                  " p99 %.1fus  max %.1fus  (%llu versions)\n",
                  static_cast<double>(a.mvcc_grace_ns.percentile(0.50)) / 1e3,
                  static_cast<double>(a.mvcc_grace_ns.percentile(0.99)) / 1e3,
                  static_cast<double>(a.mvcc_grace_ns.max()) / 1e3,
                  static_cast<unsigned long long>(a.mvcc_grace_ns.count()));
    }
    if (a.mvcc_orphan_reclaims != 0) {
      std::printf("(%llu reclaims had no retire in the trace — ring "
                  "overwrote it; grace latency excluded)\n",
                  static_cast<unsigned long long>(a.mvcc_orphan_reclaims));
    }
  }

  if (!a.net_by_link.empty() || a.reconnect_backoffs != 0) {
    std::printf("\n== network chaos ==\n");
    std::printf("%-6s %8s %8s %8s %7s %7s %10s %6s %9s\n", "link", "drops",
                "delays", "reorder", "stalls", "resets", "blackholes",
                "flaps", "throttles");
    Analysis::NetLink total;
    for (const auto& [link, nl] : a.net_by_link) {
      std::printf("%-6u %8llu %8llu %8llu %7llu %7llu %10llu %6llu %9llu\n",
                  link, static_cast<unsigned long long>(nl.drops),
                  static_cast<unsigned long long>(nl.delays),
                  static_cast<unsigned long long>(nl.reorders),
                  static_cast<unsigned long long>(nl.stalls),
                  static_cast<unsigned long long>(nl.resets),
                  static_cast<unsigned long long>(nl.blackhole_edges),
                  static_cast<unsigned long long>(nl.flap_edges),
                  static_cast<unsigned long long>(nl.throttles));
      total.drops += nl.drops;
      total.delays += nl.delays;
      total.reorders += nl.reorders;
      total.stalls += nl.stalls;
      total.resets += nl.resets;
      total.blackhole_edges += nl.blackhole_edges;
      total.flap_edges += nl.flap_edges;
      total.throttles += nl.throttles;
    }
    const std::uint64_t injected = total.drops + total.delays +
                                   total.reorders + total.stalls +
                                   total.resets + total.throttles;
    if (a.net_delay_us.count() != 0) {
      std::printf("injected delay/frame: p50 %.1fus  p99 %.1fus  max %.1fus "
                  "(%llu delayed frames)\n",
                  static_cast<double>(a.net_delay_us.percentile(0.50)),
                  static_cast<double>(a.net_delay_us.percentile(0.99)),
                  static_cast<double>(a.net_delay_us.max()),
                  static_cast<unsigned long long>(a.net_delay_us.count()));
    }
    // The cause/effect ledger: everything above is what the proxy DID;
    // this line is how the client code EXPERIENCED it. A healthy run shows
    // symptoms scaling with injections, not with wall-clock.
    std::printf("injected: %llu wire faults -> observed: %llu retransmit "
                "waves, %llu round timeouts, %llu reconnect backoffs\n",
                static_cast<unsigned long long>(injected),
                static_cast<unsigned long long>(a.retransmit_events),
                static_cast<unsigned long long>(a.round_timeouts),
                static_cast<unsigned long long>(a.reconnect_backoffs));
    if (a.backoff_cooldown_ms.count() != 0) {
      std::printf("reconnect cooldown armed: p50 %llums  max %llums — the "
                  "cap bounds redial pressure on a dead replica\n",
                  static_cast<unsigned long long>(
                      a.backoff_cooldown_ms.percentile(0.50)),
                  static_cast<unsigned long long>(a.backoff_cooldown_ms.max()));
    }
  }

  if (violations != 0) {
    std::printf("\nPROTOCOL VIOLATION: %zu scan(s) exceeded the pigeonhole "
                "bound\n",
                violations);
  }
  return violations;
}

/// --demo: run a small traced workload of all three algorithms (plus ABD
/// fault events are exercised elsewhere) and analyze the result in-process.
int run_demo() {
  const std::string path = "trace_demo.json";
  {
    trace::Session session(path, /*buffer_capacity=*/1 << 16);
    constexpr std::size_t kN = 4;
    core::UnboundedSwSnapshot<std::uint64_t> a1(kN, 0);
    core::BoundedSwSnapshot<std::uint64_t> a2(kN, 0);
    core::BoundedMwSnapshot<std::uint64_t> a3(kN, kN, 0);
    std::vector<std::jthread> threads;
    for (std::size_t p = 1; p < kN; ++p) {
      threads.emplace_back([&, pid = static_cast<ProcessId>(p)] {
        for (std::uint64_t it = 1; it <= 500; ++it) {
          a1.update(pid, it);
          a2.update(pid, it);
          a3.update(pid, it % kN, it);
        }
      });
    }
    for (int s = 0; s < 500; ++s) {
      (void)a1.scan(0);
      (void)a2.scan(0);
      (void)a3.scan(0);
    }
    // Multi-version engine: concurrent writers RCU-publishing through A4's
    // VersionGate while a reader scans and leases, so the "== mvcc
    // versioned scans ==" section has data (publishes, acquires, retires,
    // reclaims, and retire->reclaim grace periods with readers pinning
    // versions across publishes).
    {
      core::MvccSnapshot<std::uint64_t> a4(kN, 0);
      std::vector<std::jthread> writers;
      for (std::size_t p = 1; p < kN; ++p) {
        writers.emplace_back([&, pid = static_cast<ProcessId>(p)] {
          for (std::uint64_t it = 1; it <= 300; ++it) a4.update(pid, it);
        });
      }
      for (int s = 0; s < 300; ++s) {
        (void)a4.scan(0);
        auto lease = a4.scan_view();  // pins a version across publishes
        (void)lease.epoch();
      }
      writers.clear();  // join
      (void)a4.reclaim();
    }
    // Service layer on top of A1: a couple of clients batching updates and
    // hitting the scan cache, so the "== service layer ==" section has data.
    core::UnboundedSwSnapshot<std::uint64_t> backing(kN, 0);
    svc::ServiceConfig scfg;
    scfg.max_batch = 4;
    svc::SnapshotService<decltype(backing), std::uint64_t> service(backing,
                                                                   scfg);
    auto c1 = service.connect(1, std::chrono::seconds(1));
    auto c2 = service.connect(2, std::chrono::seconds(1));
    for (std::uint64_t it = 1; it <= 100; ++it) {
      (void)service.submit_update(c1.session,
                                  [it](ProcessId, std::uint64_t) { return it; });
      (void)service.scan(c2.session);
    }
    (void)service.disconnect(c1.session);
    (void)service.disconnect(c2.session);
    // Sharded fabric: two shards of A1 under hash routing, with local and
    // cross-shard global scans, so the "== sharded fabric ==" section has
    // data (including at least the zero-failure confirm line).
    using ShardBackend = core::UnboundedSwSnapshot<std::uint64_t>;
    std::vector<std::unique_ptr<ShardBackend>> parts;
    for (int s = 0; s < 2; ++s) {
      parts.push_back(std::make_unique<ShardBackend>(kN, 0));
    }
    shard::ShardedSnapshotFabric<ShardBackend, std::uint64_t> fabric(
        std::move(parts));
    std::vector<decltype(fabric)::Session> sessions(4);
    for (std::uint64_t c = 0; c < sessions.size(); ++c) {
      sessions[c] = fabric.connect(c, std::chrono::seconds(1)).session;
    }
    for (std::uint64_t it = 1; it <= 100; ++it) {
      for (auto& sess : sessions) {
        (void)fabric.submit_update(
            sess, [it](ProcessId, std::uint64_t) { return it; });
        (void)fabric.flush(sess);
        (void)fabric.scan(sess);
      }
      (void)fabric.global_scan();
    }
    for (auto& sess : sessions) (void)fabric.disconnect(sess);
    // Network chaos: a ChaosProxy fronting a local frame-echo server, with
    // ambient drop/delay/reorder/throttle plus a blackhole toggle and a
    // flap window, so the "== network chaos ==" section has data. The
    // echoed pings are real frames over real sockets; every fault decision
    // is the proxy's own.
    {
      std::string error;
      net::Listener echo = net::Listener::open({"127.0.0.1", 0}, &error);
      std::jthread echo_thread([&echo](std::stop_token st) {
        const auto slice = [] {
          return std::chrono::steady_clock::now() +
                 std::chrono::milliseconds(20);
        };
        std::optional<net::Socket> conn;
        net::FrameBuffer inbound;
        net::wire::Frame f;
        while (!st.stop_requested()) {
          if (!conn.has_value()) {
            conn = echo.accept(slice());
            inbound.clear();
            continue;
          }
          const auto status = inbound.receive(*conn, slice(), &f);
          if (status == net::RecvStatus::kTimeout) continue;
          if (status != net::RecvStatus::kOk ||
              !net::send_frame(*conn, f, slice())) {
            conn.reset();
          }
        }
      });
      const std::uint16_t echo_port = echo.bound_port();
      net::ChaosProxy proxy({{"127.0.0.1", echo_port}}, /*seed=*/42);
      if (echo.valid() && proxy.start(&error)) {
        net::LinkFaults faults;
        faults.drop_prob = 0.2;
        faults.reorder_prob = 0.1;
        faults.delay = std::chrono::microseconds(200);
        faults.jitter = std::chrono::microseconds(100);
        faults.throttle_bytes_per_sec = 64 * 1024;
        proxy.set_all(faults);
        net::Socket client = net::tcp_connect(proxy.endpoints()[0],
                                              std::chrono::milliseconds(200));
        net::FrameBuffer inbound;
        net::wire::Frame ping;
        ping.type = net::wire::kPing;
        net::wire::Frame reply;
        for (int i = 0; i < 60 && client.valid(); ++i) {
          ping.rid = static_cast<std::uint64_t>(i);
          const auto wait =
              std::chrono::steady_clock::now() + std::chrono::milliseconds(5);
          if (!net::send_frame(client, ping, wait)) break;
          (void)inbound.receive(client, wait, &reply);
          if (i == 20) proxy.blackhole(0, net::ChaosProxy::kToClient, true);
          if (i == 30) proxy.blackhole(0, net::ChaosProxy::kToClient, false);
          if (i == 40) {
            proxy.flap(0, std::chrono::milliseconds(5),
                       std::chrono::milliseconds(5), true);
          }
          if (i == 50) {
            proxy.flap(0, std::chrono::milliseconds(0),
                       std::chrono::milliseconds(0), false);
          }
        }
        proxy.stop();
      }
      echo_thread.request_stop();
      echo_thread.join();
      echo.close();
      // TcpBus vs the now-closed port: every refused dial arms a longer
      // (jittered, capped) cooldown — the reconnect-backoff ledger.
      net::TcpBusOptions opts;
      opts.connect_timeout = std::chrono::milliseconds(10);
      opts.reconnect_cooldown = std::chrono::milliseconds(2);
      opts.reconnect_cooldown_max = std::chrono::milliseconds(8);
      net::TcpBus bus({{"127.0.0.1", echo_port}}, /*seed=*/7, opts);
      net::wire::Frame probe;
      probe.type = net::wire::kPing;
      for (int i = 0; i < 5; ++i) {
        (void)bus.send(0, probe,
                       std::chrono::steady_clock::now() +
                           std::chrono::milliseconds(10));
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
  }
  std::vector<Row> rows;
  if (!load_trace(path, rows)) return 2;
  std::printf("demo trace: %zu events from %s\n\n", rows.size(), path.c_str());
  const Analysis a = analyze(std::move(rows));
  if (a.scans.empty() && a.updates == 0) {
    // ASNAP_TRACE compiled out: nothing to analyze, nothing to violate.
    std::printf("(tracing compiled out — empty trace)\n");
    return 0;
  }
  return report(a) == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "--demo") == 0) return run_demo();
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s <trace.json|trace.jsonl|trace-dir> ...\n"
                 "       %s --demo\n",
                 argv[0], argv[0]);
    return 2;
  }
  namespace fs = std::filesystem;
  // Resolve every argument to concrete trace files up front, with a clear
  // diagnosis for each failure mode instead of a crash or an empty report:
  // missing path, empty file, directory with no trace files.
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const fs::path path(argv[i]);
    std::error_code ec;
    if (!fs::exists(path, ec)) {
      std::fprintf(stderr,
                   "trace_analyze: %s: no such file or directory (was a "
                   "trace written there? see --trace on the tools)\n",
                   argv[i]);
      return 2;
    }
    if (fs::is_directory(path, ec)) {
      std::size_t found = 0;
      for (const auto& entry : fs::directory_iterator(path, ec)) {
        if (!entry.is_regular_file()) continue;
        const std::string ext = entry.path().extension().string();
        if (ext == ".json" || ext == ".jsonl") {
          files.push_back(entry.path().string());
          ++found;
        }
      }
      if (found == 0) {
        std::fprintf(stderr,
                     "trace_analyze: %s: directory contains no .json/.jsonl "
                     "trace files\n",
                     argv[i]);
        return 2;
      }
      continue;
    }
    if (fs::file_size(path, ec) == 0) {
      std::fprintf(stderr,
                   "trace_analyze: %s: trace file is empty (the traced run "
                   "may have recorded no events or crashed before the "
                   "exporter flushed)\n",
                   argv[i]);
      return 2;
    }
    files.push_back(argv[i]);
  }
  std::sort(files.begin(), files.end());
  std::vector<Row> rows;
  for (const std::string& file : files) {
    if (!load_trace(file, rows)) return 2;
  }
  if (rows.empty()) {
    std::fprintf(stderr,
                 "trace_analyze: no events in %zu trace file(s) — nothing "
                 "to analyze\n",
                 files.size());
    return 2;
  }
  std::printf("loaded %zu events from %zu file(s)\n\n", rows.size(),
              files.size());
  return report(analyze(std::move(rows))) == 0 ? 0 : 1;
}
