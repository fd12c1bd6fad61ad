// Experiment E10a — throughput of the paper's wait-free algorithms against
// the practical baselines (mutex, seqlock, Observation-1-only double
// collect) on mixed update/scan workloads. The wait-free algorithms pay
// O(n)-O(n^2) per operation for their termination guarantee; the point of
// this series is to quantify that premium and to show the baselines' cheap
// numbers come with starvation (seqlock/double-collect) or blocking (mutex)
// caveats that E6 makes concrete.
// Flags: --trace <path> records a protocol trace of the whole run (consumed
// before google-benchmark sees argv); everything else is google-benchmark's.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>

#include "bench_util.hpp"
#include "common/flags.hpp"
#include "core/snapshot.hpp"
#include "trace/exporter.hpp"

namespace {

using namespace asnap;

constexpr std::size_t kN = 8;  // processes (words == kN everywhere)

template <typename Snap>
void run_mixed(benchmark::State& state, Snap& snap, unsigned scan_percent) {
  Rng rng(42);
  std::uint64_t it = 0;
  for (auto _ : state) {
    if (rng.below(100) < scan_percent) {
      benchmark::DoNotOptimize(snap.scan(0));
    } else {
      snap.update(0, ++it);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_Throughput_Unbounded(benchmark::State& state) {
  core::UnboundedSwSnapshot<std::uint64_t> snap(kN, 0);
  bench::InterferencePool pool(
      1, kN - 1,
      [&snap](ProcessId pid, std::uint64_t i) { snap.update(pid, i); });
  run_mixed(state, snap, static_cast<unsigned>(state.range(0)));
}
BENCHMARK(BM_Throughput_Unbounded)->Arg(10)->Arg(50)->Arg(90);

void BM_Throughput_Bounded(benchmark::State& state) {
  core::BoundedSwSnapshot<std::uint64_t> snap(kN, 0);
  bench::InterferencePool pool(
      1, kN - 1,
      [&snap](ProcessId pid, std::uint64_t i) { snap.update(pid, i); });
  run_mixed(state, snap, static_cast<unsigned>(state.range(0)));
}
BENCHMARK(BM_Throughput_Bounded)->Arg(10)->Arg(50)->Arg(90);

void BM_Throughput_Mvcc(benchmark::State& state) {
  core::MvccSnapshot<std::uint64_t> snap(kN, 0);
  bench::InterferencePool pool(
      1, kN - 1,
      [&snap](ProcessId pid, std::uint64_t i) { snap.update(pid, i); });
  run_mixed(state, snap, static_cast<unsigned>(state.range(0)));
}
BENCHMARK(BM_Throughput_Mvcc)->Arg(10)->Arg(50)->Arg(90);

void BM_Throughput_MultiWriter(benchmark::State& state) {
  core::BoundedMwSnapshot<std::uint64_t> snap(kN, kN, 0);
  bench::InterferencePool pool(1, kN - 1,
                               [&snap](ProcessId pid, std::uint64_t i) {
                                 snap.update(pid, i % kN, i);
                               });
  Rng rng(42);
  std::uint64_t it = 0;
  const auto scan_percent = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    if (rng.below(100) < scan_percent) {
      benchmark::DoNotOptimize(snap.scan(0));
    } else {
      ++it;
      snap.update(0, it % kN, it);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Throughput_MultiWriter)->Arg(10)->Arg(50)->Arg(90);

void BM_Throughput_Mutex(benchmark::State& state) {
  core::MutexSnapshot<std::uint64_t> snap(kN, 0);
  bench::InterferencePool pool(
      1, kN - 1,
      [&snap](ProcessId pid, std::uint64_t i) { snap.update(pid, i); });
  run_mixed(state, snap, static_cast<unsigned>(state.range(0)));
}
BENCHMARK(BM_Throughput_Mutex)->Arg(10)->Arg(50)->Arg(90);

void BM_Throughput_Seqlock(benchmark::State& state) {
  core::SeqlockSnapshot<std::uint64_t> snap(kN, 0);
  bench::InterferencePool pool(
      1, kN - 1,
      [&snap](ProcessId pid, std::uint64_t i) { snap.update(pid, i); });
  run_mixed(state, snap, static_cast<unsigned>(state.range(0)));
}
BENCHMARK(BM_Throughput_Seqlock)->Arg(10)->Arg(50)->Arg(90);

void BM_Throughput_DoubleCollect(benchmark::State& state) {
  core::DoubleCollectSnapshot<std::uint64_t> snap(kN, 0);
  bench::InterferencePool pool(
      1, kN - 1,
      [&snap](ProcessId pid, std::uint64_t i) { snap.update(pid, i); });
  run_mixed(state, snap, static_cast<unsigned>(state.range(0)));
}
BENCHMARK(BM_Throughput_DoubleCollect)->Arg(10)->Arg(50)->Arg(90);

}  // namespace

int main(int argc, char** argv) {
  const std::string trace_path =
      asnap::consume_flag(argc, argv, "--trace");
  asnap::trace::Session trace_session(trace_path);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
