// chaos_run: named self-healing chaos scenarios over the message-passing
// snapshot (see src/chaos/). Exits nonzero when a run records any safety
// violation or liveness flag, so CI and scripts/run_experiments.sh can gate
// on it directly.
//
// Every scenario that runs a workload runs chaos/workload.hpp's: the same
// worker loop and the same closing linearizability check, in process or
// against real daemons. Only the adversary differs per scenario.
//
// Scenarios:
//   mixed           crash/recover + partition/heal + message loss against a
//                   self-healing cluster (the acceptance scenario).
//   breaker-ab      the same outage run twice, circuit breaker off then on,
//                   to measure what the breaker buys (E10).
//   broken-breaker  NEGATIVE control: the unsafe_shrink_quorum misfeature
//                   lets an isolated node "commit" without a majority; the
//                   linearizability checker must catch it, so this scenario
//                   is expected to FAIL (ctest passes it only on a
//                   `linearizability:` violation).
//   broken-fastread NEGATIVE control: unsafe_always_fast_read skips the
//                   read write-back unconditionally (the exact mutant the
//                   fast-read stability evidence exists to prevent).
//                   chaos/fastread_inversion.hpp's deterministic partition
//                   schedule around a timed-out write produces a new/old
//                   read inversion that check_single_writer must reject, so
//                   this scenario is expected to FAIL the same way.
//   real            REAL PROCESSES: spawn --nodes abd_replicad daemons on
//                   127.0.0.1 sockets, run the checked workload through
//                   abd::RemoteSnapshot while injecting kill -9 and
//                   SIGSTOP faults on the live PIDs (majority-safe, seeded),
//                   restart victims via the process supervisor, then audit
//                   durability (every acked write still readable) and run
//                   the exact linearizability checker.
//   net             the real cluster behind a net::ChaosProxy: ambient
//                   seeded loss/delay/jitter/reorder on every client<->
//                   replica link plus bounded bursts of asymmetric
//                   blackholes, link flaps, mid-frame stalls, bandwidth
//                   throttling and connection resets — all majority-safe.
//                   Ends with heal + liveness watchdog (every worker must
//                   complete an operation once the network is perfect
//                   again), the durability audit and the exact
//                   linearizability check.
//   net+kill        `net` composed with the kill -9 / SIGSTOP injector:
//                   wire faults and process faults under one shared
//                   majority rail.
//   net-split       NEGATIVE control: minority-only connectivity (a
//                   majority of links blackholed both ways) held for the
//                   whole run with the safety rail off and no heal. The
//                   liveness watchdog and durability audit must flag it
//                   (ctest passes it only on a `liveness:` or `durability:`
//                   violation).
//
// Usage:
//   chaos_run [--scenario mixed|breaker-ab|broken-breaker|broken-fastread|
//              real|net|net+kill|net-split]
//             [--seconds S] [--nodes N] [--seed K]
//             [--crash-rate HZ] [--partition-rate HZ] [--loss P]
//             [--breaker on|off] [--fast on|off]
//             [--trace out.json|out.jsonl]
//   real/net-scenario extras:
//             [--writers W] [--think-ms T] [--stall-ms T]
//             [--replicad PATH] [--keep-state]
//   net-scenario extras:
//             [--delay-ms D] [--jitter-ms J] [--reorder P]
//             [--partition on|off]  (include blackhole/flap bursts)
// Unknown arguments are rejected (exit 2).
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "abd/remote_client.hpp"
#include "abd/remote_snapshot.hpp"
#include "bench_util.hpp"
#include "chaos/fastread_inversion.hpp"
#include "chaos/orchestrator.hpp"
#include "chaos/process_orchestrator.hpp"
#include "chaos/schedule.hpp"
#include "chaos/workload.hpp"
#include "common/flags.hpp"
#include "common/rng.hpp"
#include "lin/history.hpp"
#include "net/chaos_proxy.hpp"
#include "net/socket.hpp"
#include "trace/exporter.hpp"

#ifndef ASNAP_REPLICAD_PATH
#define ASNAP_REPLICAD_PATH ""
#endif

namespace {

using namespace asnap;

std::chrono::microseconds seconds_us(double s) {
  return std::chrono::microseconds(static_cast<std::int64_t>(s * 1e6));
}

double mean_us(const std::vector<std::chrono::nanoseconds>& xs) {
  if (xs.empty()) return 0.0;
  double total = 0.0;
  for (const auto x : xs) {
    total += std::chrono::duration<double, std::micro>(x).count();
  }
  return total / static_cast<double>(xs.size());
}

struct Cli {
  std::string scenario = "mixed";
  double seconds = 3.0;
  std::size_t nodes = 5;
  std::uint64_t seed = 1;
  double crash_rate = 2.0;
  double partition_rate = 0.5;
  double loss = 0.10;
  bool breaker = true;
  bool fast = true;  ///< one-round fast reads (AbdConfig::fast_reads)
  std::string trace_path;
  // --scenario real extras:
  std::size_t writers = 3;
  double think_ms = 2.0;
  double stall_ms = 200.0;
  std::string replicad = ASNAP_REPLICAD_PATH;
  bool keep_state = false;
  // --scenario net extras (ambient wire faults + burst selection):
  double delay_ms = 0.0;
  double jitter_ms = 0.0;
  double reorder = 0.0;
  bool partition = true;  ///< include blackhole/flap bursts
};

/// Which network adversary run_real composes with the process one.
enum class NetMode {
  kNone,   ///< --scenario real: perfect wire, kill -9/SIGSTOP only
  kNet,    ///< --scenario net: wire faults only
  kNetKill,  ///< --scenario net+kill: wire faults + kill -9/SIGSTOP
  kSplit,  ///< --scenario net-split: negative control, rail off, no heal
};

// --- report parts shared by every scenario -----------------------------------

void print_workload(const chaos::WorkloadReport& r) {
  std::printf(
      "  workload    : %llu updates, %llu scans ok; %llu failed update "
      "attempts, %llu failed scans, %llu indeterminate (history %zu ops)\n",
      (unsigned long long)r.updates_ok, (unsigned long long)r.scans_ok,
      (unsigned long long)r.failed_update_attempts,
      (unsigned long long)r.failed_scans,
      (unsigned long long)r.indeterminate_updates, r.history_ops);
}

/// The ABD clients' counters, summed over the run's clients.
void print_counters(const abd::CounterValues& counters) {
  std::printf("  counters    :");
  abd::for_each_counter([](const char* name, std::uint64_t value) {
    std::printf(" %s %llu", name, (unsigned long long)value);
  }, counters);
  std::printf("\n");
}

void print_verdict(const std::vector<std::string>& violations) {
  if (violations.empty()) {
    std::printf("  verdict     : PASS (no violations)\n");
    return;
  }
  std::printf("  verdict     : FAIL (%zu violation(s))\n", violations.size());
  for (const std::string& v : violations) std::printf("    - %s\n", v.c_str());
}

void print_latency_and_verdict(const chaos::WorkloadReport& r) {
  std::printf(
      "  latency     : update p50 %.1f us p99 %.1f us | scan p50 %.1f us "
      "p99 %.1f us\n",
      r.update_latency_ns.percentile(0.50) / 1e3,
      r.update_latency_ns.percentile(0.99) / 1e3,
      r.scan_latency_ns.percentile(0.50) / 1e3,
      r.scan_latency_ns.percentile(0.99) / 1e3);
  print_verdict(r.violations);
}

/// The JSON fields every scenario prints.
bench::JsonWriter scenario_json(const char* experiment,
                                const std::string& scenario, const Cli& cli,
                                const std::vector<std::string>& violations) {
  bench::JsonWriter j(experiment);
  j.field("scenario", scenario)
      .field("seed", (std::uint64_t)cli.seed)
      .field("violations", (std::uint64_t)violations.size());
  return j;
}

/// ...and those of every scenario that runs the workload, the ABD clients'
/// counters among them.
bench::JsonWriter workload_json(const char* experiment,
                                const std::string& scenario, const Cli& cli,
                                const chaos::WorkloadReport& r) {
  bench::JsonWriter j = scenario_json(experiment, scenario, cli, r.violations);
  j.field("nodes", (std::uint64_t)cli.nodes)
      .field("seconds", cli.seconds)
      .field("crash_rate", cli.crash_rate)
      .field("fast", cli.fast)
      .field("updates_ok", r.updates_ok)
      .field("scans_ok", r.scans_ok)
      .field("failed_update_attempts", r.failed_update_attempts)
      .field("failed_scans", r.failed_scans)
      .field("indeterminate_updates", r.indeterminate_updates)
      .field("update_p50_us", r.update_latency_ns.percentile(0.50) / 1e3)
      .field("update_p99_us", r.update_latency_ns.percentile(0.99) / 1e3)
      .field("scan_p50_us", r.scan_latency_ns.percentile(0.50) / 1e3)
      .field("scan_p99_us", r.scan_latency_ns.percentile(0.99) / 1e3);
  abd::for_each_counter([&](const char* name, std::uint64_t value) {
    j.field(name, value);
  }, r.counters);
  return j;
}

// --- in-process scenarios ----------------------------------------------------

void print_report(const std::string& label, const chaos::RunReport& r) {
  std::printf("== %s ==\n", label.c_str());
  print_workload(r);
  std::printf(
      "  injection   : %llu crashes, %llu partitions\n",
      (unsigned long long)r.crashes_injected,
      (unsigned long long)r.partitions_injected);
  std::printf(
      "  healing     : %llu suspicions, %llu trusts, %llu recoveries "
      "(%llu failed attempts); detection mean %.1f us, recovery mean %.1f us\n",
      (unsigned long long)r.suspicions, (unsigned long long)r.trusts,
      (unsigned long long)r.recoveries,
      (unsigned long long)r.failed_recovery_attempts,
      mean_us(r.detection_latencies), mean_us(r.recovery_latencies));
  print_counters(r.counters);
  print_latency_and_verdict(r);
}

void print_json(const Cli& cli, const std::string& label,
                const chaos::RunReport& r) {
  const std::uint64_t attempts =
      r.updates_ok + r.scans_ok + r.failed_update_attempts + r.failed_scans;
  workload_json("E10-chaos", label, cli, r)
      .field("loss", cli.loss)
      .field("breaker", cli.breaker)
      .field("availability",
             attempts == 0 ? 1.0
                           : (double)(r.updates_ok + r.scans_ok) /
                                 (double)attempts)
      .field("crashes", r.crashes_injected)
      .field("partitions", r.partitions_injected)
      .field("suspicions", r.suspicions)
      .field("recoveries", r.recoveries)
      .field("detection_mean_us", mean_us(r.detection_latencies))
      .field("recovery_mean_us", mean_us(r.recovery_latencies))
      .print();
}

chaos::OrchestratorOptions base_options(const Cli& cli) {
  chaos::OrchestratorOptions opt;
  opt.nodes = cli.nodes;
  opt.seed = cli.seed;
  opt.duration = seconds_us(cli.seconds);
  opt.abd.breaker.enabled = cli.breaker;
  opt.abd.fast_reads = cli.fast;
  return opt;
}

/// The acceptance scenario: sustained workload under crash/recover,
/// partition/heal and message loss, self-healing on.
int run_mixed(const Cli& cli) {
  chaos::OrchestratorOptions opt = base_options(cli);
  chaos::ChaosProfile profile;
  profile.duration = opt.duration;
  profile.crash_rate_hz = cli.crash_rate;
  profile.partition_rate_hz = cli.partition_rate;
  profile.plan.drop_prob = cli.loss;
  opt.schedule = chaos::random_schedule(cli.nodes, profile, cli.seed);
  const chaos::RunReport r = chaos::run(opt);
  print_report("mixed", r);
  print_json(cli, "mixed", r);
  return r.ok() ? 0 : 1;
}

/// One node down for nearly the whole run (supervisor held off); measure
/// client latency with the breaker off, then on. The breaker arm should
/// show a much lower p99: rounds stop waiting out retransmit timers aimed
/// at the dead replica.
int run_breaker_ab(const Cli& cli) {
  int rc = 0;
  for (const bool breaker : {false, true}) {
    Cli arm = cli;
    arm.breaker = breaker;
    chaos::OrchestratorOptions opt = base_options(arm);
    // Detector stays on (the breaker needs it); the supervisor is parked
    // past the end of the run so the outage actually persists.
    opt.supervisor.restart_delay = opt.duration * 2;
    const auto victim = static_cast<net::NodeId>(cli.nodes - 1);
    chaos::Action loss;
    loss.kind = chaos::ActionKind::kSetFaultPlan;
    loss.plan.drop_prob = cli.loss;
    chaos::Action crash;
    crash.kind = chaos::ActionKind::kCrash;
    crash.at = std::chrono::milliseconds(10);
    crash.node = victim;
    chaos::Action restart;  // let convergence succeed at the very end
    restart.kind = chaos::ActionKind::kRecover;
    restart.at = opt.duration;
    restart.node = victim;
    opt.schedule.actions = {loss, crash, restart};
    const chaos::RunReport r = chaos::run(opt);
    print_report(breaker ? "breaker-ab (breaker on)"
                         : "breaker-ab (breaker off)",
                 r);
    print_json(arm, "breaker-ab", r);
    if (!r.ok()) rc = 1;
  }
  return rc;
}

/// NEGATIVE control. unsafe_shrink_quorum lets a partitioned-away node
/// shrink its quorum below a majority instead of failing fast, which is
/// exactly the split-brain the breaker must never cause. The isolated
/// node's updates and scans "succeed" against itself alone, the survivors
/// never see them, and check_single_writer reports the stale reads. A
/// passing run here would mean the checkers lost their teeth.
int run_broken_breaker(const Cli& cli) {
  Cli fixed = cli;
  fixed.nodes = 5;
  fixed.breaker = true;
  chaos::OrchestratorOptions opt = base_options(fixed);
  opt.abd.breaker.unsafe_shrink_quorum = true;
  chaos::Action part;
  part.kind = chaos::ActionKind::kPartition;
  part.at = opt.duration / 10;
  part.groups = {{0}, {1, 2, 3, 4}};
  chaos::Action heal;
  heal.kind = chaos::ActionKind::kHeal;
  heal.at = opt.duration * 9 / 10;
  opt.schedule.actions = {part, heal};
  const chaos::RunReport r = chaos::run(opt);
  print_report("broken-breaker (negative control)", r);
  print_json(fixed, "broken-breaker", r);
  if (r.ok()) {
    std::printf(
        "broken-breaker: expected the checkers to catch the unsafe quorum "
        "shrink, but the run passed\n");
  }
  return r.ok() ? 0 : 1;
}

/// NEGATIVE control for the fast-read path: the inversion schedule with
/// unsafe_always_fast_read, which skips the read write-back even when the
/// query quorum DISAGREED on the best timestamp. check_single_writer must
/// reject the history. With the real stability rule the same schedule
/// stays linearizable — the fast-read tests pin that.
int run_broken_fastread(const Cli& cli) {
  abd::AbdConfig config;
  config.unsafe_always_fast_read = true;
  // Short deadline so the partitioned write times out quickly; healthy
  // in-process rounds finish in microseconds, so reads are unhurt.
  config.op_deadline = std::chrono::milliseconds(50);
  const chaos::FastReadInversion r =
      chaos::run_fastread_inversion(config, cli.seed);
  std::vector<std::string> violations;
  if (r.setup_error) violations.push_back("setup: " + *r.setup_error);
  if (r.violation) violations.push_back("linearizability: " + *r.violation);

  std::printf("== broken-fastread (negative control) ==\n");
  std::printf("  fast reads  : %llu (mutant: write-back always skipped)\n",
              (unsigned long long)r.fast_reads);
  print_verdict(violations);
  if (violations.empty()) {
    std::printf(
        "broken-fastread: expected the checker to catch the unconditional "
        "write-back skip, but the run passed\n");
  }
  scenario_json("E16-fastread-negative", "broken-fastread", cli, violations)
      .field("fast_reads", r.fast_reads)
      .field("history_ops", (std::uint64_t)r.history_ops)
      .print();
  return violations.empty() ? 0 : 1;
}

// --- process scenarios: kill -9 and wire chaos against live abd_replicad -----

/// Outcome of one process-cluster run: the shared workload report plus
/// what only real processes and the fault proxy produce.
struct ProcessReport : chaos::WorkloadReport {
  std::uint64_t reconnects = 0;
  chaos::ProcessCluster::Report proc;
  // Net-scenario only: proxy-side injected-fault totals over all links,
  // plus how many fault bursts the driver fired.
  bool net_mode = false;
  net::LinkStats net;
  std::uint64_t net_bursts = 0;
};

std::vector<net::Endpoint> probe_free_endpoints(std::size_t n) {
  // Bind port 0, record the kernel's pick, release. The small window before
  // the daemons rebind is acceptable on a loopback test host.
  std::vector<net::Endpoint> eps;
  std::vector<net::Listener> held;
  for (std::size_t i = 0; i < n; ++i) {
    auto lst = net::Listener::open({"127.0.0.1", 0});
    if (!lst.valid()) return {};
    eps.push_back({"127.0.0.1", lst.bound_port()});
    held.push_back(std::move(lst));
  }
  return eps;
}

double restart_mean_ms(const chaos::ProcessCluster::Report& proc) {
  if (proc.restart_latencies_ms.empty()) return 0.0;
  double total = 0.0;
  for (const double x : proc.restart_latencies_ms) total += x;
  return total / (double)proc.restart_latencies_ms.size();
}

void print_process_report(const std::string& label, const ProcessReport& r) {
  std::printf("== %s ==\n", label.c_str());
  print_workload(r);
  std::printf("  injection   : %llu kill -9, %llu SIGSTOP stalls\n",
              (unsigned long long)r.proc.kills,
              (unsigned long long)r.proc.stalls);
  if (r.net_mode) {
    std::printf(
        "  wire faults : %llu bursts; %llu dropped, %llu delayed, %llu "
        "reordered, %llu stalled, %llu resets, %llu blackholed, %llu "
        "throttle pauses (%llu frames forwarded)\n",
        (unsigned long long)r.net_bursts, (unsigned long long)r.net.dropped,
        (unsigned long long)r.net.delayed, (unsigned long long)r.net.reordered,
        (unsigned long long)r.net.stalled, (unsigned long long)r.net.resets,
        (unsigned long long)r.net.blackholed,
        (unsigned long long)r.net.throttle_pauses,
        (unsigned long long)r.net.forwarded);
  }
  std::printf(
      "  supervisor  : %llu restarts, mean respawn %.1f ms; %llu client "
      "reconnects\n",
      (unsigned long long)r.proc.restarts, restart_mean_ms(r.proc),
      (unsigned long long)r.reconnects);
  print_counters(r.counters);
  print_latency_and_verdict(r);
}

void print_process_json(const Cli& cli, const std::string& scenario,
                        const ProcessReport& r) {
  bench::JsonWriter j = workload_json(
      r.net_mode ? "E14-netchaos" : "E12-cluster", scenario, cli, r);
  j.field("writers", (std::uint64_t)cli.writers)
      .field("kills", r.proc.kills)
      .field("stalls", r.proc.stalls)
      .field("restarts", r.proc.restarts)
      .field("restart_mean_ms", restart_mean_ms(r.proc))
      .field("reconnects", r.reconnects);
  if (r.net_mode) {
    j.field("loss", cli.loss)
        .field("delay_ms", cli.delay_ms)
        .field("jitter_ms", cli.jitter_ms)
        .field("reorder", cli.reorder)
        .field("partition", cli.partition)
        .field("net_bursts", r.net_bursts)
        .field("net_forwarded", r.net.forwarded)
        .field("net_dropped", r.net.dropped)
        .field("net_delayed", r.net.delayed)
        .field("net_reordered", r.net.reordered)
        .field("net_stalled", r.net.stalled)
        .field("net_resets", r.net.resets)
        .field("net_blackholed", r.net.blackholed)
        .field("net_throttle_pauses", r.net.throttle_pauses);
  }
  j.print();
}

/// The daemons' state directory, removed when the run returns — on setup
/// failures too — unless --keep-state asks to keep it.
struct StateDir {
  std::string path;
  bool keep;
  ~StateDir() {
    std::error_code ec;
    if (!keep) std::filesystem::remove_all(path, ec);
  }
};

/// Shared runner for every real-process scenario. `mode` selects the
/// adversary: process faults only (kNone), wire faults via net::ChaosProxy
/// (kNet), both (kNetKill), or the negative minority-connectivity control
/// (kSplit — safety rail OFF, no heal, MUST end in violations).
int run_real(const Cli& cli, NetMode mode) {
  using SClock = std::chrono::steady_clock;
  const std::string label = mode == NetMode::kNone ? "real"
                            : mode == NetMode::kNet ? "net"
                            : mode == NetMode::kNetKill ? "net+kill"
                                                        : "net-split";
  ProcessReport report;
  report.net_mode = mode != NetMode::kNone;
  const auto fail = [&](const std::string& why) {
    report.violations.push_back(why);
    print_process_report(label, report);
    print_process_json(cli, label, report);
    return 1;
  };

  if (cli.replicad.empty() || !std::filesystem::exists(cli.replicad)) {
    return fail("setup: abd_replicad binary not found (pass --replicad)");
  }
  const std::size_t n = cli.nodes;
  const std::size_t writers = cli.writers;
  const auto endpoints = probe_free_endpoints(n);
  if (endpoints.size() != n) return fail("setup: could not probe free ports");

  char tmpl[] = "/tmp/asnap_real_XXXXXX";
  if (::mkdtemp(tmpl) == nullptr) {
    return fail("setup: mkdtemp failed");
  }
  // Declared before the cluster, so the daemons are stopped before their
  // directory goes.
  const StateDir state_dir{tmpl, cli.keep_state};

  chaos::ProcessClusterConfig cluster_config;
  cluster_config.replicad_path = cli.replicad;
  cluster_config.state_dir = state_dir.path;
  cluster_config.endpoints = endpoints;
  cluster_config.regs = writers;
  cluster_config.restart_delay = std::chrono::milliseconds(150);
  cluster_config.proxy = report.net_mode;
  cluster_config.proxy_seed = cli.seed ^ 0xAD7E53EEDull;
  chaos::ProcessCluster cluster(cluster_config);
  if (!cluster.start() || !cluster.wait_ready(std::chrono::seconds(10))) {
    return fail("setup: cluster did not come up");
  }
  // Clients dial the proxy in net modes; the daemons peer directly.
  const std::vector<net::Endpoint> client_eps = cluster.client_endpoints();
  net::ChaosProxy* proxy = cluster.proxy();

  // Ambient wire faults for the whole run (the loss x delay floor the E14
  // sweep varies); bursts below layer the acute faults on top.
  net::LinkFaults ambient;
  if (report.net_mode) {
    ambient.drop_prob = cli.loss;
    ambient.delay = std::chrono::microseconds(
        static_cast<std::int64_t>(cli.delay_ms * 1e3));
    ambient.jitter = std::chrono::microseconds(
        static_cast<std::int64_t>(cli.jitter_ms * 1e3));
    ambient.reorder_prob = cli.reorder;
    proxy->set_all(ambient);
  }
  if (mode == NetMode::kSplit) {
    // Minority-only connectivity, rail OFF: blackhole a MAJORITY of links
    // in both directions for the entire run and never heal. ABD must not
    // complete quorum operations, so the watchdog/audit below must flag
    // the run.
    const std::size_t cut = n / 2 + 1;
    for (std::size_t i = 0; i < cut; ++i) {
      proxy->blackhole(i, net::ChaosProxy::kToReplica, true);
      proxy->blackhole(i, net::ChaosProxy::kToClient, true);
    }
  }

  // One worker per writer, each with its own client, running the shared
  // workload: 1 ms before a retry, --think-ms after every operation.
  abd::AbdConfig client_config;
  client_config.op_deadline =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::seconds(3));
  client_config.fast_reads = cli.fast;
  std::vector<std::unique_ptr<abd::RemoteSnapshot>> snaps;
  for (std::size_t w = 0; w < writers; ++w) {
    snaps.push_back(std::make_unique<abd::RemoteSnapshot>(
        client_eps, /*client_id=*/100 + w, writers, client_config));
  }
  const auto think =
      std::chrono::microseconds(static_cast<std::int64_t>(cli.think_ms * 1e3));
  lin::Recorder recorder(writers);
  std::vector<chaos::WorkerState> workers(writers);
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < writers; ++w) {
    threads.emplace_back([&, w] {
      chaos::worker_loop(*snaps[w], recorder, workers[w],
                         static_cast<ProcessId>(w),
                         std::chrono::milliseconds(1), think, stop);
    });
  }

  // Seeded majority-safe fault injection. One fault (or burst) at a time;
  // never let down + stalled + net-impaired replicas reach a majority
  // (ABD's liveness precondition — chaos/schedule.hpp's rail, enforced at
  // runtime here because restart timing is the kernel's, not ours). The
  // kSplit negative control deliberately skips this loop: its partition is
  // static and rail-free.
  Rng rng(cli.seed ^ 0x9EA1C4A0ull);
  const std::size_t max_down = (n - 1) / 2;
  const auto run_end = SClock::now() + std::chrono::microseconds(
                                           seconds_us(cli.seconds).count());
  // One bounded wire-fault burst; returns when the link is restored.
  const auto net_burst = [&](std::size_t victim) {
    const auto window = std::chrono::milliseconds(150 + rng.below(250));
    const auto dir = rng.chance(0.5) ? net::ChaosProxy::kToReplica
                                     : net::ChaosProxy::kToClient;
    // partition=off restricts the repertoire to faults that keep the link
    // logically connected (the E14 sweep's partition dimension).
    const std::uint64_t kinds = cli.partition ? 5 : 3;
    switch (rng.below(kinds)) {
      case 0: {  // mid-frame stall burst: exercises kMalformed discipline
        net::LinkFaults f = ambient;
        f.stall_prob = 0.5;
        f.stall = std::chrono::milliseconds(300);
        proxy->set_faults(victim, dir, f);
        std::this_thread::sleep_for(window);
        proxy->set_faults(victim, dir, ambient);
        break;
      }
      case 1: {  // bandwidth throttle burst
        net::LinkFaults f = ambient;
        f.throttle_bytes_per_sec = 16 * 1024;
        proxy->set_faults(victim, dir, f);
        std::this_thread::sleep_for(window);
        proxy->set_faults(victim, dir, ambient);
        break;
      }
      case 2:  // connection resets
        proxy->kill_connections(victim);
        break;
      case 3:  // asymmetric partition: one direction dead, the other live
        proxy->blackhole(victim, dir, true);
        std::this_thread::sleep_for(window);
        proxy->blackhole(victim, dir, false);
        break;
      case 4:  // link flapping (reconnect-backoff workout)
        proxy->flap(victim, std::chrono::milliseconds(40),
                    std::chrono::milliseconds(60), true);
        std::this_thread::sleep_for(window);
        proxy->flap(victim, {}, {}, false);
        break;
    }
    ++report.net_bursts;
  };
  while (mode != NetMode::kSplit && SClock::now() < run_end) {
    const double base_ms = 1000.0 / (cli.crash_rate > 0 ? cli.crash_rate : 1);
    const auto wait = std::chrono::microseconds(static_cast<std::int64_t>(
        base_ms * (0.5 + rng.uniform01()) * 1e3));
    std::this_thread::sleep_for(std::min(
        std::chrono::duration_cast<std::chrono::microseconds>(wait),
        std::chrono::duration_cast<std::chrono::microseconds>(
            run_end - SClock::now() + std::chrono::microseconds(1))));
    if (SClock::now() >= run_end) break;
    if (cluster.unavailable() >= max_down) continue;  // majority guard
    const std::size_t victim = rng.below(n);
    const bool process_fault =
        mode == NetMode::kNone || (mode == NetMode::kNetKill && rng.chance(0.4));
    if (!process_fault && report.net_mode) {
      net_burst(victim);
      continue;
    }
    if (!cluster.running(victim)) continue;
    if (rng.chance(0.3)) {
      // Freeze, hold, thaw: the peers see silence, not EOF.
      if (cluster.stall(victim)) {
        std::this_thread::sleep_for(std::chrono::microseconds(
            static_cast<std::int64_t>(cli.stall_ms * 1e3)));
        cluster.resume(victim);
      }
    } else {
      cluster.kill9(victim);  // supervisor restarts it
    }
  }
  if (mode == NetMode::kSplit) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(seconds_us(cli.seconds).count()));
  }

  // Heal the wire (except the negative control, whose partition is the
  // point), then convergence: every replica back up (supervisor + WAL +
  // resync) and no link impaired...
  if (report.net_mode && mode != NetMode::kSplit) proxy->heal();
  // The negative control cannot converge by construction; shorter budgets
  // keep its (expected) failure fast.
  const auto check_budget =
      mode == NetMode::kSplit ? std::chrono::seconds(2) : std::chrono::seconds(10);
  const auto converge_by = SClock::now() + check_budget;
  while (cluster.unavailable() > 0 && SClock::now() < converge_by) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (cluster.unavailable() > 0) {
    report.violations.push_back(
        "liveness: " + std::to_string(cluster.unavailable()) +
        " replica(s) still down after the convergence timeout");
  }
  // ...then the liveness watchdog: with the network perfect again, EVERY
  // worker must complete an operation, so one stuck worker is not masked
  // by the others' progress. Waits up to its own deadline so a
  // slow-but-live cluster is not a false alarm.
  const std::uint64_t healed_ns = chaos::now_ns();
  const auto progressed = [&](const chaos::WorkerState& ws) {
    return ws.last_success_ns.load(std::memory_order_relaxed) >= healed_ns;
  };
  const auto watchdog_by =
      SClock::now() + (mode == NetMode::kSplit ? std::chrono::seconds(2)
                                               : std::chrono::seconds(5));
  while (SClock::now() < watchdog_by &&
         !std::all_of(workers.begin(), workers.end(), progressed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  for (std::size_t w = 0; w < writers; ++w) {
    if (progressed(workers[w])) continue;
    report.violations.push_back(
        "liveness: worker " + std::to_string(w) +
        " completed no operation after the network healed (watchdog)");
  }
  // ...then a healthy tail so pending same-tag retries resolve.
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : threads) t.join();

  // Durability audit: with the cluster healthy again, every acknowledged
  // write must be readable — the WAL + majority-resync acceptance check.
  // Worker w's updates_ok is the seq of its last acknowledged write.
  {
    abd::AbdConfig config;
    config.op_deadline = std::chrono::duration_cast<std::chrono::microseconds>(
        mode == NetMode::kSplit ? std::chrono::seconds(2)
                                : std::chrono::seconds(5));
    // The auditor dials through the proxy too: in net modes durability must
    // hold end-to-end over the (now healed) chaotic wire, and the negative
    // control must SEE its partition rather than audit around it.
    abd::RemoteRegisterClient auditor(client_eps, /*client_id=*/999, config);
    for (std::size_t w = 0; w < writers; ++w) {
      const std::uint64_t acked =
          workers[w].updates_ok.load(std::memory_order_relaxed);
      const auto got = auditor.try_read(w);
      if (!got.has_value()) {
        report.violations.push_back(
            "durability: reg " + std::to_string(w) +
            " unreadable after recovery (quorum timeout)");
        continue;
      }
      if (got->ts < acked) {
        report.violations.push_back(
            "durability: reg " + std::to_string(w) + " lost acked write (ts " +
            std::to_string(got->ts) + " < acked seq " + std::to_string(acked) +
            ")");
      }
    }
  }

  chaos::finish(recorder, workers, report);
  for (const auto& snap : snaps) {
    report.counters += snap->client().stats();
    report.reconnects += snap->client().reconnects();
  }
  report.proc = cluster.report();
  if (report.net_mode) {
    for (std::size_t i = 0; i < n; ++i) {
      const net::LinkStats s = proxy->stats(i);
      report.net.connections += s.connections;
      report.net.forwarded += s.forwarded;
      report.net.dropped += s.dropped;
      report.net.delayed += s.delayed;
      report.net.reordered += s.reordered;
      report.net.stalled += s.stalled;
      report.net.resets += s.resets;
      report.net.blackholed += s.blackholed;
      report.net.throttle_pauses += s.throttle_pauses;
    }
  }

  cluster.stop();
  if (cli.keep_state) {
    std::printf("  state kept  : %s\n", state_dir.path.c_str());
  }
  print_process_report(label, report);
  print_process_json(cli, label, report);
  return report.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  constexpr const char* kTool = "chaos_run";
  constexpr bool kProbability = true;
  Cli cli;
  cli.scenario = consume_flag(argc, argv, "--scenario", cli.scenario);
  cli.seconds = consume_number(argc, argv, "--seconds", cli.seconds, kTool);
  cli.nodes = consume_number(argc, argv, "--nodes", cli.nodes, kTool);
  cli.seed = consume_number(argc, argv, "--seed", cli.seed, kTool);
  cli.crash_rate =
      consume_number(argc, argv, "--crash-rate", cli.crash_rate, kTool);
  cli.partition_rate =
      consume_number(argc, argv, "--partition-rate", cli.partition_rate, kTool);
  cli.loss =
      consume_number(argc, argv, "--loss", cli.loss, kTool, kProbability);
  cli.breaker = consume_flag(argc, argv, "--breaker", "on") != "off";
  cli.fast = consume_flag(argc, argv, "--fast", "on") != "off";
  cli.trace_path = consume_flag(argc, argv, "--trace", "");
  cli.writers = consume_number(argc, argv, "--writers", cli.writers, kTool);
  cli.think_ms = consume_number(argc, argv, "--think-ms", cli.think_ms, kTool);
  cli.stall_ms = consume_number(argc, argv, "--stall-ms", cli.stall_ms, kTool);
  cli.replicad = consume_flag(argc, argv, "--replicad", cli.replicad);
  cli.delay_ms = consume_number(argc, argv, "--delay-ms", cli.delay_ms, kTool);
  cli.jitter_ms =
      consume_number(argc, argv, "--jitter-ms", cli.jitter_ms, kTool);
  cli.reorder =
      consume_number(argc, argv, "--reorder", cli.reorder, kTool, kProbability);
  cli.partition = consume_flag(argc, argv, "--partition", "on") != "off";
  cli.keep_state = consume_switch(argc, argv, "--keep-state");
  if (!no_unknown_args(argc, argv, kTool)) return 2;
  if (cli.seconds <= 0 || cli.nodes < 3) {
    std::fprintf(stderr, "chaos_run: need --seconds > 0 and --nodes >= 3\n");
    return 2;
  }
  const bool process_scenario =
      cli.scenario == "real" || cli.scenario == "net" ||
      cli.scenario == "net+kill" || cli.scenario == "net-split";
  if (process_scenario && cli.writers == 0) {
    std::fprintf(stderr, "chaos_run: need --writers >= 1\n");
    return 2;
  }

  trace::Session session(cli.trace_path);
  if (cli.scenario == "mixed") return run_mixed(cli);
  if (cli.scenario == "breaker-ab") return run_breaker_ab(cli);
  if (cli.scenario == "broken-breaker") return run_broken_breaker(cli);
  if (cli.scenario == "broken-fastread") return run_broken_fastread(cli);
  if (cli.scenario == "real") return run_real(cli, NetMode::kNone);
  if (cli.scenario == "net") return run_real(cli, NetMode::kNet);
  if (cli.scenario == "net+kill") return run_real(cli, NetMode::kNetKill);
  if (cli.scenario == "net-split") return run_real(cli, NetMode::kSplit);
  std::fprintf(stderr,
               "chaos_run: unknown --scenario '%s' (mixed, breaker-ab, "
               "broken-breaker, broken-fastread, real, net, net+kill, "
               "net-split)\n",
               cli.scenario.c_str());
  return 2;
}
