// perfbench — closed-loop benchmark of the snapshot stack (README.md).
//
//   perfbench --workload mem|abd-sim|cluster --seed N --seconds S
//             --trace 0|1 --state-dir DIR
//   perfbench --selftest
//
// Two client threads each lease one slot of svc::SnapshotService over the
// workload's backend and issue a seeded mix of scans and updates, each op
// after the previous one returned. The run sets the stack up several times
// (setup_s is the median), then measures S seconds cut into half-second
// slices. Between slices the clients park, which gives the history checker
// a quiescent cut (history.hpp); the check runs there, outside the timed
// window. With --trace 1 every other slice records spans and the per-layer
// numbers come from those slices. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "backends.hpp"
#include "common/rng.hpp"
#include "core/bounded_sw_snapshot.hpp"
#include "daemons.hpp"
#include "histogram.hpp"
#include "history.hpp"
#include "procstat.hpp"
#include "selftest.hpp"
#include "spans.hpp"
#include "svc/service.hpp"

namespace perfbench {
namespace {

using namespace std::chrono_literals;
namespace svc = asnap::svc;

constexpr std::size_t kClients = 2;
constexpr double kSliceSeconds = 0.5;
constexpr int kSetups = 5;  ///< set-ups per run; setup_s is their median

struct Workload {
  const char* name;
  std::size_t words;
  double scan_ratio;
  bool cache;
  std::size_t pipeline;   ///< submits before an explicit flush
  std::size_t max_batch;  ///< svc batch cap (1: each update flushed at once)
  std::size_t warmup;     ///< ops per client that end each set-up
  bool span_cpu;          ///< traced spans also read the thread CPU clock
};

// Why these three: README.md. mem exercises svc, mvcc, core and reg with no
// messages; abd-sim every op as ABD rounds over SimNetwork; cluster every
// op over TCP to real daemons with WAL fsync.
constexpr Workload kWorkloads[] = {
    {"mem", 8, 0.80, true, 4, 8, 50000, false},
    {"abd-sim", 3, 0.90, false, 1, 1, 3000, true},
    {"cluster", 8, 0.50, false, 1, 1, 300, true},
};

struct Env {
  std::string state_dir;
  std::uint64_t seed = 1;
};

svc::ServiceConfig service_config(const Workload& w) {
  svc::ServiceConfig cfg;
  cfg.max_batch = w.max_batch;
  cfg.cache_scans = w.cache;
  // No churn: a lease must not lapse while the clients park for a check.
  cfg.lease.ttl = std::chrono::hours(1);
  return cfg;
}

// Layer counters, read while the clients are parked.
enum Counter : std::size_t {
  kCacheHits,
  kCacheMisses,
  kSubmits,
  kCoalesced,
  kFlushes,
  kPublished,
  kCoreScans,
  kDoubleCollects,
  kAbdRounds,
  kAbdFast,
  kAbdFallbacks,
  kAbdMessages,
  kAbdRetransmits,
  kRemoteWaves,
  kNumCounters
};
using Counters = std::array<std::uint64_t, kNumCounters>;

template <typename Service, typename CoreStats>
void fill_common(Counters& c, const Service& s,
                 const std::vector<ProcessId>& slots, CoreStats&& core) {
  const svc::ServiceStats st = s.stats();
  c[kCacheHits] = st.cache_hits;
  c[kCacheMisses] = st.cache_misses;
  c[kSubmits] = st.submits;
  c[kCoalesced] = st.coalesced;
  c[kFlushes] = st.flushes;
  c[kPublished] = s.cache_gate_stats().published;
  for (ProcessId p : slots) {
    const asnap::core::ScanStats& cs = core(p);
    c[kCoreScans] += cs.scans;
    c[kDoubleCollects] += cs.double_collects;
  }
}

template <typename Inner>
using Service = svc::SnapshotService<TracedBackend<Inner>, Tag>;

/// What a stack without daemons answers to the runner's daemon questions.
struct InProcess {
  void attach(ProcessId) {}
  bool before_window() { return true; }
  bool alive() { return true; }
  std::vector<pid_t> daemon_pids() const { return {}; }
  double resync_ms() const { return 0; }
};

/// A2 (Figure 3) in shared memory.
class MemStack : public InProcess {
  using Inner = asnap::core::BoundedSwSnapshot<Tag>;

 public:
  MemStack(const Workload& w, const Env&, int)
      : core_(w.words, Tag{}), svc(backend_, service_config(w)) {}
  Counters counters(const std::vector<ProcessId>& slots) const {
    Counters c{};
    fill_common(c, svc, slots,
                [&](ProcessId p) -> const auto& { return core_.stats(p); });
    return c;
  }

 private:
  Inner core_;
  TracedBackend<Inner> backend_{core_};

 public:
  Service<Inner> svc;
};

/// Figure 2 over ABD registers on a 3-node SimNetwork, fast reads on.
class AbdSimStack : public InProcess {
 public:
  AbdSimStack(const Workload& w, const Env& env, int)
      : abd_(w.words, env.seed), svc(backend_, service_config(w)) {}
  Counters counters(const std::vector<ProcessId>& slots) const {
    Counters c{};
    const auto& snap = abd_.snapshot();
    fill_common(c, svc, slots,
                [&](ProcessId p) -> const auto& { return snap.stats(p); });
    c[kAbdRounds] = snap.protocol_rounds();
    c[kAbdFast] = snap.fast_reads();
    c[kAbdFallbacks] = snap.fast_fallbacks();
    c[kAbdMessages] = snap.messages_sent();
    c[kAbdRetransmits] = snap.retransmits_sent();
    return c;
  }

 private:
  AbdSimBackend abd_;
  TracedBackend<AbdSimBackend> backend_{abd_};

 public:
  Service<AbdSimBackend> svc;
};

/// Double collect over three abd_replicad daemons (WAL, fsync, resync on).
class ClusterStack {
 public:
  ClusterStack(const Workload& w, const Env& env, int setup)
      : daemons_(PERFBENCH_REPLICAD,
                 env.state_dir + "/setup-" + std::to_string(setup), 3,
                 w.words),
        remote_(w.words),
        seed_(env.seed),
        svc(backend_, service_config(w)) {
    std::string error;
    if (!daemons_.start(10s, &error)) throw std::runtime_error(error);
  }
  void attach(ProcessId slot) {
    remote_.attach(slot, daemons_.endpoints(), seed_ * 1000 + 10 + slot);
  }
  bool before_window() { return daemons_.wait_resync(20s); }
  bool alive() { return daemons_.all_alive(); }
  std::vector<pid_t> daemon_pids() const { return daemons_.pids(); }
  double resync_ms() const {
    const auto ms = daemons_.resync_ms();
    return ms.empty() ? 0.0 : *std::max_element(ms.begin(), ms.end());
  }
  Counters counters(const std::vector<ProcessId>& slots) const {
    Counters c{};
    fill_common(c, svc, slots,
                [&](ProcessId p) -> const auto& { return remote_.stats(p); });
    c[kRemoteWaves] = remote_.retransmit_waves();
    return c;
  }

 private:
  DaemonSet daemons_;  // first: torn down after the clients close
  ClusterBackend remote_;
  std::uint64_t seed_;
  TracedBackend<ClusterBackend> backend_{remote_};

 public:
  Service<ClusterBackend> svc;
};

/// Resource readings at a slice boundary.
struct Sample {
  std::uint64_t t = 0;
  MachineTicks machine;
  std::uint64_t cpu = 0;  ///< this process plus the daemons, ns
  std::vector<std::uint64_t> daemon_cpu;
  std::vector<ProcSample> daemons;
  Counters counters{};
};

/// Per-layer numbers folded from the traced slices.
struct LayerAcc {
  Histogram svc_self, core_scan, core_update, remote_read, remote_write;
  std::uint64_t backend_scans = 0, backend_updates = 0;
  std::uint64_t scan_steps = 0, update_steps = 0;
  std::uint64_t backend_wall = 0, backend_cpu = 0;
  std::uint64_t remote_wall = 0, remote_cpu = 0, read_rounds = 0;
  Counters counters{};
  std::uint64_t ops = 0, acked_updates = 0;
  std::uint64_t daemon_cpu = 0, daemon_ctxsw = 0, daemon_syscw = 0,
                daemon_wchar = 0;
  double daemon_threads = 0;
  int slices = 0;

  void fold_spans(const ChunkLog<Span>& spans) {
    std::uint64_t op = 0, child = 0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const std::uint64_t d = s.end - s.start;
      if (s.op != op) {
        op = s.op;
        child = 0;
      }
      switch (s.layer) {
        case Layer::kSvc:
          svc_self.record(d > child ? d - child : 0);
          child = 0;
          break;
        case Layer::kBackend:
          child += d;
          backend_wall += d;
          backend_cpu += s.cpu;
          if (s.kind == Kind::kScan) {
            core_scan.record(d);
            ++backend_scans;
            scan_steps += s.steps;
          } else {
            core_update.record(d);
            ++backend_updates;
            update_steps += s.steps;
          }
          break;
        case Layer::kRemote:
          remote_wall += d;
          remote_cpu += s.cpu;
          if (s.kind == Kind::kRead) {
            remote_read.record(d);
            read_rounds += s.rounds;
          } else {
            remote_write.record(d);
          }
          break;
      }
    }
  }
};

double ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

/// Median of v, the mean of the middle two when even; 0 when empty.
double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

// Slices are pooled by the share of the machine's CPU time the hypervisor
// stole from our vCPUs during them (`steal` in /proc/stat): a slice joins
// the first band whose limit its steal does not exceed. On this
// benchmark's 4-vCPU VM slice throughput fell by 3-5% at 1-2% steal, 7-12%
// at 2-5% and 30% beyond 10%, and steal periods lasting minutes made whole
// runs slow (README.md).
constexpr std::array<double, 4> kStealLimits = {0.01, 0.02, 0.05, 1.0};
constexpr std::size_t kBands = kStealLimits.size();

std::size_t band_of(double steal) {
  std::size_t b = 0;
  while (b + 1 < kBands && steal > kStealLimits[b]) ++b;
  return b;
}

/// Operations and time of pooled slices.
struct Rate {
  std::uint64_t ops = 0;
  double secs = 0;
  int slices = 0;

  void add(const Rate& o) {
    ops += o.ops;
    secs += o.secs;
    slices += o.slices;
  }
};

/// Untraced slices pooled: also their CPU time and latencies.
struct Pool : Rate {
  double cpu_us = 0;
  Histogram scans, updates;

  void add(const Pool& o) {
    Rate::add(o);
    cpu_us += o.cpu_us;
    scans.merge(o.scans);
    updates.merge(o.updates);
  }
};

/// The slices a run's end-to-end values come from, pooled from the least
/// steal up: the first band alone if it holds at least a quarter of the
/// run's slices, else as many bands as it takes to reach a quarter.
template <typename Band>
Band pooled(const std::array<Band, kBands>& bands) {
  int total = 0;
  for (const Band& b : bands) total += b.slices;
  Band out;
  for (const Band& b : bands) {
    if (out.slices > 0 && 4 * out.slices >= total) break;
    out.add(b);
  }
  return out;
}

/// Slices of a run, over all of its set-ups, by steal band.
struct Samples {
  std::array<Pool, kBands> untraced;
  std::array<Rate, kBands> traced;
  double peak_rss = 0;
  LayerAcc layers;
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::string why;  ///< first reason the run is not correct

  void fail(const std::string& reason) {
    if (correct) why = reason;
    correct = false;
  }
};

void print_json(const Result& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", m.name.c_str(), m.value, m.unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

enum class Phase { kWarmup, kTimed, kQuit };

/// One set-up of a workload: the stack plus its two client threads.
template <typename Stack>
class Instance {
  using Session = typename decltype(Stack::svc)::ClientSession;

  struct Pending {
    std::uint64_t seq;
    std::uint64_t t0;
  };

  struct Client {
    asnap::Rng rng;
    Session sess;
    std::vector<Pending> pending;
    ClientLog log;
    Tracer tracer;
    Histogram scan_lat, update_lat;
    std::uint64_t scans = 0, updates = 0, attempted = 0, failed = 0;
    std::uint64_t last_ns = 0;
    std::string error;
    std::thread thread;

    /// Strictly increasing per thread, so one client's ops never tie.
    std::uint64_t now() {
      std::uint64_t t = steady_ns();
      if (t <= last_ns) t = last_ns + 1;
      last_ns = t;
      return t;
    }
    void reset_counts() {
      scan_lat.clear();
      update_lat.clear();
      scans = updates = attempted = failed = 0;
    }
  };

 public:
  Instance(const Workload& w, const Env& env, int index)
      : w_(w), checker_(w.words) {
    // The warm-up's history is mapped before the clock starts, so set-up
    // time does not include it.
    for (std::size_t i = 0; i < kClients; ++i) {
      auto c = std::make_unique<Client>();
      c->rng = asnap::Rng(env.seed * 0x9E3779B97F4A7C15ull + i);
      c->log.words = w.words;
      c->log.reserve(1.5 * static_cast<double>(w.warmup), w.scan_ratio);
      c->tracer.cpu = w.span_cpu;
      clients_.push_back(std::move(c));
    }
    const std::uint64_t t0 = steady_ns();
    stack_ = std::make_unique<Stack>(w, env, index);
    for (std::size_t i = 0; i < kClients; ++i) {
      Client& c = *clients_[i];
      auto conn = stack_->svc.connect(i, 1s);
      if (conn.error != svc::SvcError::kOk) {
        throw std::runtime_error("connect failed");
      }
      c.sess = conn.session;
      c.log.slot = static_cast<ProcessId>(c.sess.slot());
      stack_->attach(c.log.slot);
      slots_.push_back(c.log.slot);
    }
    for (auto& c : clients_) {
      c->thread = std::thread([this, cl = c.get()] { client_main(*cl); });
    }
    const std::uint64_t t1 = steady_ns();
    start_phase(Phase::kWarmup, false);
    wait_parked();
    const std::uint64_t t2 = steady_ns();
    setup_s_ = static_cast<double>(t2 - t0) / 1e9;
    std::fprintf(stderr, "setup %d: %.4f s (stack %.4f s, warm-up %.4f s)\n",
                 index, setup_s_, static_cast<double>(t1 - t0) / 1e9,
                 static_cast<double>(t2 - t1) / 1e9);
    warm_rate_ = static_cast<double>(w.warmup) * 1e9 /
                 static_cast<double>(std::max<std::uint64_t>(t2 - t1, 1));
  }

  ~Instance() {
    start_phase(Phase::kQuit, false);
    for (auto& c : clients_) {
      if (c->thread.joinable()) c->thread.join();
    }
  }

  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  double setup_s() const { return setup_s_; }
  Stack& stack() { return *stack_; }

  /// Check the history since the last cut and drop it; record any failure.
  void check_segment(Result& r) {
    std::vector<const ClientLog*> logs;
    for (auto& c : clients_) {
      logs.push_back(&c->log);
      if (!c->error.empty()) r.fail("client error: " + c->error);
    }
    if (auto verdict = checker_.check(logs)) {
      r.fail("history not linearizable: " + *verdict);
    }
    for (auto& c : clients_) c->log.clear();
    malloc_trim(0);  // the checker's memory must not count in the next slice
  }

  void reset_counts() {
    for (auto& c : clients_) c->reset_counts();
  }

  std::uint64_t checked_ops() const { return checker_.ops_checked(); }

  /// Run `slices` timed slices of `slice_s` seconds; slice k of the run is
  /// traced when `trace` is set and k is odd.
  void measure(int first, int slices, double slice_s, bool trace,
               Samples& out, Result& r) {
    // Recording must not fault pages in the window: map room for 1.5x the
    // per-client ops the warm-up rate predicts for one slice.
    const double expected = 1.5 * warm_rate_ * slice_s;
    for (auto& c : clients_) {
      c->log.reserve(expected, w_.scan_ratio);
      if (trace) c->tracer.spans.reserve(static_cast<std::size_t>(2 * expected));
    }
    bool hwm_reset = reset_peak_rss();
    const auto slice = std::chrono::duration_cast<std::chrono::nanoseconds>(
        std::chrono::duration<double>(slice_s));
    for (int k = first; k < first + slices && r.correct; ++k) {
      const bool traced = trace && (k % 2 == 1);
      Sample a = sample(true);
      start_phase(Phase::kTimed, traced);
      std::this_thread::sleep_until(
          std::chrono::steady_clock::time_point(std::chrono::nanoseconds(a.t)) +
          slice);
      stop_.store(true, std::memory_order_relaxed);
      Sample b = sample(false);
      wait_parked();
      b.counters = stack_->counters(slots_);
      for (pid_t pid : stack_->daemon_pids()) {
        b.daemons.push_back(sample_process(pid));
      }
      if (!stack_->alive()) r.fail("a daemon exited during the timed window");

      Histogram scans, updates;
      std::uint64_t ops = 0, acked = 0, history_bytes = 0;
      for (auto& c : clients_) {
        scans.merge(c->scan_lat);
        updates.merge(c->update_lat);
        ops += c->scans + c->updates;
        acked += c->updates;
        r.attempted += c->attempted;
        r.failed += c->failed;
        history_bytes +=
            c->log.resident_bytes() + c->tracer.spans.resident_bytes();
      }
      const Rate slice{ops, static_cast<double>(b.t - a.t) / 1e9, 1};
      const double cpu_us = static_cast<double>(b.cpu - a.cpu) / 1e3;
      const double steal = ratio(b.machine.steal - a.machine.steal,
                                 b.machine.total - a.machine.total);
      std::fprintf(stderr,
                   "slice %2d %s %10.0f ops/s  scan p50 %9.3f p90 %9.3f us  "
                   "update p50 %9.3f p90 %9.3f us  %8.3f cpu us/op  "
                   "%5.1f%% steal\n",
                   k, traced ? "traced" : "      ", ratio(ops, slice.secs),
                   scans.percentile(0.50) / 1e3, scans.percentile(0.90) / 1e3,
                   updates.percentile(0.50) / 1e3,
                   updates.percentile(0.90) / 1e3, ratio(cpu_us, ops),
                   100 * steal);
      const std::size_t band = band_of(steal);
      if (traced) {
        out.traced[band].add(slice);
        LayerAcc& acc = out.layers;
        for (auto& c : clients_) acc.fold_spans(c->tracer.spans);
        for (std::size_t i = 0; i < kNumCounters; ++i) {
          acc.counters[i] += b.counters[i] - a.counters[i];
        }
        acc.ops += ops;
        acc.acked_updates += acked;
        for (std::size_t d = 0; d < b.daemons.size(); ++d) {
          acc.daemon_cpu += b.daemon_cpu[d] - a.daemon_cpu[d];
          acc.daemon_ctxsw += b.daemons[d].ctxsw - a.daemons[d].ctxsw;
          acc.daemon_syscw += b.daemons[d].syscw - a.daemons[d].syscw;
          acc.daemon_wchar += b.daemons[d].wchar - a.daemons[d].wchar;
          acc.daemon_threads += static_cast<double>(b.daemons[d].threads) /
                                static_cast<double>(b.daemons.size());
        }
        ++acc.slices;
      } else {
        Pool& pool = out.untraced[band];
        pool.Rate::add(slice);
        pool.cpu_us += cpu_us;
        pool.scans.merge(scans);
        pool.updates.merge(updates);
        const ProcSample self = sample_process(0);
        double rss = static_cast<double>(hwm_reset ? self.hwm_bytes
                                                   : self.rss_bytes) -
                     static_cast<double>(history_bytes);
        for (const ProcSample& d : b.daemons) {
          rss += static_cast<double>(d.hwm_bytes);
        }
        out.peak_rss = std::max(out.peak_rss, rss / (1024.0 * 1024.0));
      }

      for (auto& c : clients_) {
        c->reset_counts();
        c->tracer.spans.clear();
      }
      check_segment(r);
      hwm_reset = reset_peak_rss();
    }
  }

 private:
  /// Clock and CPU readings, taken together; at a slice's start also the
  /// slower counter and /proc readings, before the clock starts.
  Sample sample(bool slice_start) {
    Sample s;
    if (slice_start) {
      s.counters = stack_->counters(slots_);
      for (pid_t pid : stack_->daemon_pids()) {
        s.daemons.push_back(sample_process(pid));
      }
    }
    s.t = steady_ns();
    s.machine = machine_ticks();
    s.cpu = process_cpu_ns(0);
    for (pid_t pid : stack_->daemon_pids()) {
      const std::uint64_t d = process_cpu_ns(pid);
      s.daemon_cpu.push_back(d);
      s.cpu += d;
    }
    return s;
  }

  void start_phase(Phase p, bool traced) {
    {
      std::lock_guard lk(mu_);
      phase_ = p;
      traced_ = traced;
      parked_ = 0;
      stop_.store(false, std::memory_order_relaxed);
      ++gen_;
    }
    cv_.notify_all();
  }

  void wait_parked() {
    std::unique_lock lk(mu_);
    cv_.wait(lk, [&] { return parked_ == clients_.size(); });
  }

  void client_main(Client& c) {
    std::uint64_t seen = 0;
    for (;;) {
      Phase phase;
      bool traced;
      {
        std::unique_lock lk(mu_);
        cv_.wait(lk, [&] { return gen_ != seen; });
        seen = gen_;
        phase = phase_;
        traced = traced_;
      }
      if (phase == Phase::kQuit) return;
      t_tracer = traced ? &c.tracer : nullptr;
      try {
        if (c.error.empty()) {
          if (phase == Phase::kWarmup) {
            for (std::size_t i = 0; i < w_.warmup; ++i) step(c);
          } else {
            while (!stop_.load(std::memory_order_relaxed)) step(c);
          }
          // The cut: every submitted update is acknowledged before parking.
          // It is not an op of the workload, so it is neither traced nor
          // timed.
          t_tracer = nullptr;
          if (!c.pending.empty()) {
            auto f = stack_->svc.flush(c.sess);
            if (f.error != svc::SvcError::kOk) {
              throw std::runtime_error(svc::error_name(f.error));
            }
            ack(c, f.flushed_through, c.now(), false);
          }
        }
      } catch (const std::exception& e) {
        ++c.failed;
        c.error = e.what();
      }
      t_tracer = nullptr;
      {
        std::lock_guard lk(mu_);
        ++parked_;
      }
      cv_.notify_all();
    }
  }

  /// Acknowledge every pending submit covered by flushed_through.
  void ack(Client& c, std::uint64_t flushed_through, std::uint64_t t,
           bool measured) {
    std::size_t i = 0;
    for (; i < c.pending.size() && c.pending[i].seq <= flushed_through; ++i) {
      c.log.updates.push({c.pending[i].seq, c.pending[i].t0, t});
      if (measured) {
        c.update_lat.record(t - c.pending[i].t0);
        ++c.updates;
      }
    }
    c.pending.erase(c.pending.begin(), c.pending.begin() + i);
  }

  /// One closed-loop operation. Throws on a failed svc or backend call.
  void step(Client& c) {
    Tracer* tr = t_tracer;
    auto root = [&](Kind kind) {
      Span s;
      if (tr != nullptr) {
        tr->op += 1;
        s = begin_span(*tr, Layer::kSvc, kind);
      }
      return s;
    };
    ++c.attempted;
    if (c.rng.uniform01() < w_.scan_ratio) {
      const std::uint64_t t0 = c.now();
      Span s = root(Kind::kScan);
      auto r = stack_->svc.scan(c.sess);
      if (tr != nullptr) end_span(*tr, s);
      const std::uint64_t t1 = c.now();
      if (r.error != svc::SvcError::kOk) {
        throw std::runtime_error(svc::error_name(r.error));
      }
      ack(c, r.flushed_through, t1, true);
      c.log.add_scan(t0, t1, r.view);
      c.scan_lat.record(t1 - t0);
      ++c.scans;
      return;
    }
    const std::uint64_t t0 = c.now();
    Span s = root(Kind::kUpdate);
    auto r = stack_->svc.submit_update(
        c.sess, [](ProcessId p, std::uint64_t seq) { return Tag{p, seq}; });
    if (tr != nullptr) end_span(*tr, s);
    const std::uint64_t t1 = c.now();
    if (r.error != svc::SvcError::kOk) {
      throw std::runtime_error(svc::error_name(r.error));
    }
    c.pending.push_back({r.seq, t0});
    ack(c, r.flushed_through, t1, true);
    if (c.pending.size() >= w_.pipeline) {
      Span f = root(Kind::kFlush);
      auto fr = stack_->svc.flush(c.sess);
      if (tr != nullptr) end_span(*tr, f);
      const std::uint64_t t2 = c.now();
      if (fr.error != svc::SvcError::kOk) {
        throw std::runtime_error(svc::error_name(fr.error));
      }
      ack(c, fr.flushed_through, t2, true);
    }
  }

  const Workload& w_;
  std::unique_ptr<Stack> stack_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::vector<ProcessId> slots_;
  SegmentChecker checker_;
  double setup_s_ = 0;
  double warm_rate_ = 0;  ///< warm-up ops per second per client

  std::mutex mu_;
  std::condition_variable cv_;
  std::uint64_t gen_ = 0;         // guarded by mu_
  Phase phase_ = Phase::kWarmup;  // guarded by mu_
  bool traced_ = false;           // guarded by mu_
  std::size_t parked_ = 0;        // guarded by mu_
  std::atomic<bool> stop_{false};
};

/// The run's metrics: end-to-end ones from the untraced slices, or with
/// --trace 1 the per-layer ones from the traced slices.
std::vector<Metric> report(const Samples& s, bool trace,
                           const std::vector<double>& setups,
                           const std::vector<double>& resync_ms) {
  const Pool untraced = pooled(s.untraced);
  const double thr_untraced = ratio(untraced.ops, untraced.secs);
  if (!trace) {
    return {
        {"throughput_ops_s", thr_untraced, "ops/s"},
        {"scan_p50_us", untraced.scans.percentile(0.50) / 1e3, "us"},
        {"scan_p90_us", untraced.scans.percentile(0.90) / 1e3, "us"},
        {"update_p50_us", untraced.updates.percentile(0.50) / 1e3, "us"},
        {"update_p90_us", untraced.updates.percentile(0.90) / 1e3, "us"},
        {"cpu_us_per_op", ratio(untraced.cpu_us, untraced.ops), "us"},
        {"peak_rss_mb", s.peak_rss, "MiB"},
        {"setup_s", median(setups), "s"},
    };
  }
  const LayerAcc& acc = s.layers;
  const Counters& c = acc.counters;
  const double ops = static_cast<double>(acc.ops);
  const Rate traced = pooled(s.traced);
  const double thr_traced = ratio(traced.ops, traced.secs);
  return {
      {"svc.self_us_p50", acc.svc_self.percentile(0.5) / 1e3, "us"},
      {"svc.cache_hit_ratio",
       ratio(c[kCacheHits], c[kCacheHits] + c[kCacheMisses]), "ratio"},
      {"svc.coalesced_per_submit", ratio(c[kCoalesced], c[kSubmits]), "count"},
      {"mvcc.published_per_flush", ratio(c[kPublished], c[kFlushes]), "count"},
      {"core.scan_us_p50", acc.core_scan.percentile(0.5) / 1e3, "us"},
      {"core.update_us_p50", acc.core_update.percentile(0.5) / 1e3, "us"},
      {"core.double_collects_per_scan",
       ratio(c[kDoubleCollects], c[kCoreScans]), "count"},
      {"reg.steps_per_scan", ratio(acc.scan_steps, acc.backend_scans),
       "count"},
      {"reg.steps_per_update", ratio(acc.update_steps, acc.backend_updates),
       "count"},
      {"abd.rounds_per_op", ratio(c[kAbdRounds], ops), "count"},
      {"abd.fast_hit_ratio", ratio(c[kAbdFast], c[kAbdFast] + c[kAbdFallbacks]),
       "ratio"},
      {"abd.messages_per_op", ratio(c[kAbdMessages], ops), "count"},
      {"abd.retransmits_per_op", ratio(c[kAbdRetransmits], ops), "count"},
      {"abd.offcpu_share",
       c[kAbdRounds] ? 1.0 - ratio(acc.backend_cpu, acc.backend_wall) : 0.0,
       "ratio"},
      {"remote.read_us_p50", acc.remote_read.percentile(0.5) / 1e3, "us"},
      {"remote.write_us_p50", acc.remote_write.percentile(0.5) / 1e3, "us"},
      {"remote.rounds_per_scan", ratio(acc.read_rounds, acc.backend_scans),
       "count"},
      {"remote.retransmit_waves_per_op", ratio(c[kRemoteWaves], ops), "count"},
      {"remote.offcpu_share",
       acc.remote_wall ? 1.0 - ratio(acc.remote_cpu, acc.remote_wall) : 0.0,
       "ratio"},
      {"replicad.cpu_us_per_op", ratio(acc.daemon_cpu / 1e3, ops), "us"},
      {"replicad.ctxsw_per_op", ratio(acc.daemon_ctxsw, ops), "count"},
      {"replicad.threads", ratio(acc.daemon_threads, acc.slices), "count"},
      {"replicad.syscw_per_update", ratio(acc.daemon_syscw, acc.acked_updates),
       "count"},
      {"replicad.wal_bytes_per_update",
       ratio(acc.daemon_wchar, acc.acked_updates), "B"},
      {"replicad.resync_ms", median(resync_ms), "ms"},
      {"trace.overhead_pct",
       thr_untraced > 0 ? 100.0 * (thr_untraced - thr_traced) / thr_untraced
                        : 0.0,
       "%"},
  };
}

/// Set the stack up kSetups times. Each set-up is timed to the end of its
/// warm-up, then measures its share of the run's slices and is torn down,
/// so a run's values span several stacks (heap layouts, threads, daemon
/// sets) instead of resting on one.
template <typename Stack>
Result run(const Workload& w, const Env& env, double seconds, bool trace) {
  Result r;
  if (!run_selftest(false)) r.fail("self-test failed");

  const int slices = std::max(
      kSetups, static_cast<int>(seconds / kSliceSeconds + 0.5));
  const double slice_s = seconds / slices;
  std::vector<double> setups, resync_ms;
  Samples samples;
  std::uint64_t checked = 0;
  for (int k = 0, first = 0; k < kSetups && r.correct; ++k) {
    Instance<Stack> inst(w, env, k);
    setups.push_back(inst.setup_s());
    inst.check_segment(r);
    if (!inst.stack().before_window()) r.fail("daemons did not resync");
    resync_ms.push_back(inst.stack().resync_ms());
    inst.reset_counts();
    const int mine = slices * (k + 1) / kSetups - first;
    inst.measure(first, mine, slice_s, trace, samples, r);
    first += mine;
    checked += inst.checked_ops();
  }
  std::fprintf(stderr, "perfbench: %s checked %llu ops, %s\n", w.name,
               static_cast<unsigned long long>(checked),
               r.correct ? "linearizable" : r.why.c_str());
  if (r.attempted == 0) r.fail("no operation attempted");
  if (r.failed != 0) r.fail("failed operations");
  r.metrics = report(samples, trace, setups, resync_ms);
  return r;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload mem|abd-sim|cluster --seed N "
               "--seconds S --trace 0|1 --state-dir DIR\n"
               "       perfbench --selftest\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload, state_dir;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--selftest") return run_selftest(true) ? 0 : 1;
    if (i + 1 >= argc) return usage();
    const char* v = argv[++i];
    if (a == "--workload") {
      workload = v;
    } else if (a == "--seed") {
      seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      seconds = std::atof(v);
    } else if (a == "--trace") {
      trace = std::atoi(v);
    } else if (a == "--state-dir") {
      state_dir = v;
    } else {
      return usage();
    }
  }
  if (seconds <= 0 || (trace != 0 && trace != 1) || state_dir.empty()) {
    return usage();
  }
  install_reaper_signals();
  const Env env{state_dir, seed};
  // Every set-up's state directory is removed here, after the last window;
  // syncing lets the filesystem finish discarding the freed blocks before
  // anything else is measured.
  struct RemoveStateDir {
    const std::string& dir;
    ~RemoveStateDir() {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
      ::sync();
    }
  } remove_state_dir{state_dir};
  try {
    for (const Workload& w : kWorkloads) {
      if (workload != w.name) continue;
      Result r;
      if (workload == "mem") {
        r = run<MemStack>(w, env, seconds, trace == 1);
      } else if (workload == "abd-sim") {
        r = run<AbdSimStack>(w, env, seconds, trace == 1);
      } else {
        r = run<ClusterStack>(w, env, seconds, trace == 1);
      }
      print_json(r);
      return 0;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return usage();
}
