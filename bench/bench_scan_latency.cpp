// Experiment E10b — scan latency distribution under updater interference.
//
// The wait-free bound is about tails: a seqlock's or double-collect scan's
// MEAN is fine, but its tail is unbounded under sustained updates, while the
// paper algorithms' p99/max stay within the n^2 step budget. Reports
// p50/p99/max over 2000 scans per algorithm, with n-1 background updaters.
//
// Flags: --samples <n> overrides the 2000 scans per algorithm;
//        --trace <path> records a protocol trace of the whole run
//        (Chrome JSON, or JSONL if the path ends in .jsonl) for
//        tools/trace_analyze and Perfetto.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_util.hpp"
#include "common/flags.hpp"
#include "core/snapshot.hpp"
#include "trace/exporter.hpp"

namespace {

using namespace asnap;
using Clock = std::chrono::steady_clock;

struct LatencyStats {
  double p50_us;
  double p99_us;
  double max_us;
  double failures;  ///< budgeted scans that gave up (non-wait-free only)
};

template <typename ScanFn>
LatencyStats measure_latency(const ScanFn& scan_once, int samples) {
  std::vector<double> micros;
  micros.reserve(static_cast<std::size_t>(samples));
  double failures = 0;
  for (int i = 0; i < samples; ++i) {
    const auto start = Clock::now();
    if (!scan_once()) ++failures;
    const auto stop = Clock::now();
    micros.push_back(
        std::chrono::duration<double, std::micro>(stop - start).count());
  }
  std::sort(micros.begin(), micros.end());
  const auto at = [&](double q) {
    return micros[static_cast<std::size_t>(q * (micros.size() - 1))];
  };
  return LatencyStats{at(0.50), at(0.99), micros.back(), failures};
}

void report(const char* name, const LatencyStats& s) {
  std::printf("%-26s %10.2f %10.2f %10.2f %10.0f\n", name, s.p50_us, s.p99_us,
              s.max_us, s.failures);
  bench::JsonWriter("E10b-latency")
      .field("algorithm", name)
      .field("p50_us", s.p50_us)
      .field("p99_us", s.p99_us)
      .field("max_us", s.max_us)
      .field("give_ups", s.failures)
      .print();
}

}  // namespace

int main(int argc, char** argv) {
  constexpr std::size_t kN = 8;
  constexpr std::size_t kBudget = 3 * kN;  // generous budget for baselines

  const std::string trace_path = consume_flag(argc, argv, "--trace");
  const std::string samples_arg =
      consume_flag(argc, argv, "--samples", "2000");
  const int kSamples = std::atoi(samples_arg.c_str());
  if (kSamples <= 0) {
    std::fprintf(stderr, "bad --samples value: %s\n", samples_arg.c_str());
    return 2;
  }
  trace::Session trace_session(trace_path);

  std::printf("%-26s %10s %10s %10s %10s   (n=%zu, %d scans, %zu updaters)\n",
              "algorithm", "p50_us", "p99_us", "max_us", "give-ups", kN,
              kSamples, kN - 1);

  {
    core::UnboundedSwSnapshot<std::uint64_t> snap(kN, 0);
    bench::InterferencePool pool(
        1, kN - 1,
        [&snap](ProcessId pid, std::uint64_t i) { snap.update(pid, i); });
    report("Fig2 unbounded SW", measure_latency(
        [&] {
          (void)snap.scan(0);
          return true;
        },
        kSamples));
  }
  {
    core::BoundedSwSnapshot<std::uint64_t> snap(kN, 0);
    bench::InterferencePool pool(
        1, kN - 1,
        [&snap](ProcessId pid, std::uint64_t i) { snap.update(pid, i); });
    report("Fig3 bounded SW", measure_latency(
        [&] {
          (void)snap.scan(0);
          return true;
        },
        kSamples));
  }
  {
    core::BoundedMwSnapshot<std::uint64_t> snap(kN, kN, 0);
    bench::InterferencePool pool(1, kN - 1,
                                 [&snap](ProcessId pid, std::uint64_t i) {
                                   snap.update(pid, i % kN, i);
                                 });
    report("Fig4 bounded MW", measure_latency(
        [&] {
          (void)snap.scan(0);
          return true;
        },
        kSamples));
  }
  {
    core::MvccSnapshot<std::uint64_t> snap(kN, 0);
    bench::InterferencePool pool(
        1, kN - 1,
        [&snap](ProcessId pid, std::uint64_t i) { snap.update(pid, i); });
    report("A4 mvcc (copy)", measure_latency(
        [&] {
          (void)snap.scan(0);
          return true;
        },
        kSamples));
    report("A4 mvcc (leased)", measure_latency(
        [&] {
          auto view = snap.scan_view();
          return !view->empty();
        },
        kSamples));
  }
  {
    core::MutexSnapshot<std::uint64_t> snap(kN, 0);
    bench::InterferencePool pool(
        1, kN - 1,
        [&snap](ProcessId pid, std::uint64_t i) { snap.update(pid, i); });
    report("mutex baseline", measure_latency(
        [&] {
          (void)snap.scan(0);
          return true;
        },
        kSamples));
  }
  {
    core::SeqlockSnapshot<std::uint64_t> snap(kN, 0);
    bench::InterferencePool pool(
        1, kN - 1,
        [&snap](ProcessId pid, std::uint64_t i) { snap.update(pid, i); });
    std::vector<std::uint64_t> out;
    report("seqlock (budgeted)", measure_latency(
        [&] { return snap.try_scan(0, kBudget, out); }, kSamples));
  }
  {
    core::DoubleCollectSnapshot<std::uint64_t> snap(kN, 0);
    bench::InterferencePool pool(
        1, kN - 1,
        [&snap](ProcessId pid, std::uint64_t i) { snap.update(pid, i); });
    std::vector<std::uint64_t> out;
    report("double-collect (budgeted)", measure_latency(
        [&] { return snap.try_scan(0, kBudget, out); }, kSamples));
  }

  std::printf("\nGive-ups are scans that exhausted a %zu-double-collect "
              "budget — impossible for the wait-free algorithms, whose "
              "budget is n+1 (resp. 2n+1) by Lemma 3.4/4.4.\n", kBudget);
  return 0;
}
