#!/usr/bin/env bash
# Regenerates every experiment in EXPERIMENTS.md: builds, runs the full test
# suite, then every benchmark binary, teeing outputs under results/.
#
# Options:
#   --trace-dir <dir>   also capture protocol traces: the instrumented
#                       benches get --trace <dir>/<bench>.json, and each
#                       trace is fed through tools/trace_analyze (which
#                       fails the run if any scan exceeded its pigeonhole
#                       bound). The JSON files load directly in Perfetto.
set -euo pipefail
cd "$(dirname "$0")/.."

TRACE_DIR=""
while [ $# -gt 0 ]; do
  case "$1" in
    --trace-dir)
      TRACE_DIR="$2"
      shift 2
      ;;
    *)
      echo "unknown option: $1" >&2
      exit 2
      ;;
  esac
done
[ -n "$TRACE_DIR" ] && mkdir -p "$TRACE_DIR"

# Benches wired for --trace (see bench/*.cpp headers).
traced_bench() {
  case "$1" in
    bench_scan_latency|bench_throughput|bench_abd_messages) return 0 ;;
    *) return 1 ;;
  esac
}

# A MUST-FAIL control: run it, echo its report, and fail unless the report
# names the violation the control exists to produce. A nonzero exit alone
# proves nothing: a usage or setup error exits nonzero too.
must_catch() {
  local pattern=$1 out
  shift
  out=$("$@" 2>&1) || true
  printf '%s\n' "$out"
  grep -Eq -- "$pattern" <<<"$out"
}

cmake -B build -G Ninja
cmake --build build

mkdir -p results

echo "== tests =="
ctest --test-dir build 2>&1 | tee results/ctest.txt | tail -3

# The lossy-network fault matrix (label `fault`), the tracing rings
# (`trace`), the self-healing/chaos layer (`chaos`), the service layer
# (`svc`), the sharded fabric (`shard`), the multi-version scan engine
# (`mvcc`) and the ABD protocol suite (`abd`) re-run under ThreadSanitizer:
# retry/timeout/backoff paths in abd/, the held-message pump in net/, the
# SPSC trace rings, the detector/supervisor/breaker threads, the lease seal/epoch handover +
# versioned scan cache, the fabric's generation-vector double collect +
# all-slot seal, and the VersionGate's packed refcount/pointer handoff are
# exactly where data races would hide.
echo "== fault+trace+chaos+svc+shard+netchaos+mvcc+fastread+abd matrix under TSan =="
cmake -B build-tsan -G Ninja -DASNAP_SANITIZE=thread
cmake --build build-tsan
ctest --test-dir build-tsan -L "fault|trace|chaos|svc|shard|netchaos|mvcc|fastread|abd" --output-on-failure 2>&1 \
  | tee results/ctest_fault_tsan.txt | tail -3

for b in build/bench/bench_*; do
  [ -f "$b" ] && [ -x "$b" ] || continue
  name=$(basename "$b")
  # E17 runs bench_wal below, which rejects google-benchmark's flag.
  [ "$name" = bench_wal ] && continue
  echo "== $name =="
  trace_args=()
  if [ -n "$TRACE_DIR" ] && traced_bench "$name"; then
    trace_args=(--trace "$TRACE_DIR/$name.json")
  fi
  # google-benchmark binaries honor the flag; the table binaries ignore argv.
  # ${arr[@]+...} keeps `set -u` happy when the array is empty (bash < 4.4).
  "$b" --benchmark_min_time=0.05 ${trace_args[@]+"${trace_args[@]}"} 2>&1 \
    | tee "results/$name.txt"
done

# E10 — chaos resilience: self-healing cluster under sustained fault
# injection. The 10s mixed scenario is the PR's acceptance gate (chaos_run
# exits nonzero on any safety violation or liveness flag, and set -e stops
# the script); breaker-ab isolates what the circuit breaker buys; the
# crash-rate x loss-rate sweep maps availability and tail latency. JSON
# lines land in results/chaos_resilience.jsonl.
echo "== E10: chaos resilience =="
chaos_trace_args=()
if [ -n "$TRACE_DIR" ]; then
  chaos_trace_args=(--trace "$TRACE_DIR/chaos_run.json")
fi
{
  build/tools/chaos_run --scenario mixed --seconds 10 --seed 42 \
    ${chaos_trace_args[@]+"${chaos_trace_args[@]}"}
  build/tools/chaos_run --scenario breaker-ab --seconds 3 --seed 42
  for crash in 1 4; do
    for loss in 0 0.1 0.3; do
      build/tools/chaos_run --scenario mixed --seconds 3 --seed 42 \
        --crash-rate "$crash" --loss "$loss"
    done
  done
} 2>&1 | tee results/chaos_resilience.txt
grep '^JSON ' results/chaos_resilience.txt | sed 's/^JSON //' \
  > results/chaos_resilience.jsonl

# E11-svc — service layer under load: M clients (n, 4n, 16n for n = 4 slots)
# multiplexed over A2 across read ratios, every run --check'ed by the exact
# single-writer linearizability checker (nonzero exit on violation stops the
# script). The cache on/off A-B at read ratio 0.99 isolates what the
# generation-validated scan cache buys; the open-loop run shows latency from
# scheduled arrival at a fixed rate. JSON lines land in
# results/svc_loadgen.jsonl.
echo "== E11-svc: service layer load generator =="
svc_trace_args=()
if [ -n "$TRACE_DIR" ]; then
  svc_trace_args=(--trace "$TRACE_DIR/loadgen.json")
fi
{
  for clients in 4 16 64; do
    for ratio in 0.5 0.9 0.99; do
      build/tools/loadgen --backend a2 --slots 4 --clients "$clients" \
        --seconds 1 --read-ratio "$ratio" --churn 0.02 --seed 42 --check
    done
  done
  # A-B: the scan cache at a read-mostly mix, same seed and duration.
  build/tools/loadgen --backend a2 --slots 4 --clients 16 --seconds 1 \
    --read-ratio 0.99 --churn 0.02 --seed 43 --cache off --check
  build/tools/loadgen --backend a2 --slots 4 --clients 16 --seconds 1 \
    --read-ratio 0.99 --churn 0.02 --seed 43 --cache on --check
  # Open loop at a fixed arrival rate over A1 (latency incl. queueing),
  # traced when --trace-dir is given so trace_analyze's service section
  # has real loadgen data.
  build/tools/loadgen --backend a1 --mode open --rate 5000 --slots 4 \
    --clients 16 --seconds 1 --read-ratio 0.9 --churn 0.02 --seed 42 \
    --check ${svc_trace_args[@]+"${svc_trace_args[@]}"}
} 2>&1 | tee results/svc_loadgen.txt
grep '^JSON ' results/svc_loadgen.txt | sed 's/^JSON //' \
  > results/svc_loadgen.jsonl

# E13-shard — sharded fabric scaling: the same checked workload (A2, n = 4
# slots per shard, read ratio 0.5, 10% of reads cross-shard global scans)
# swept over S in {1,2,4,8} shards x M in {16, 64, 256} clients. Every run
# is --check'ed (including the global scans' full-width views), so a
# violation stops the script; the M=256 rows (16x the S=4 fabric's 16
# global words — the regime where E11 showed a single service collapsing)
# are where the S=4 vs S=1 update-throughput acceptance ratio is computed
# (measured 3.1x, bar is 2.5x; see EXPERIMENTS.md E13-shard). JSON lines
# land in results/shard_loadgen.jsonl.
echo "== E13-shard: sharded fabric scaling =="
shard_trace_args=()
if [ -n "$TRACE_DIR" ]; then
  shard_trace_args=(--trace "$TRACE_DIR/loadgen_shard.json")
fi
{
  for shards in 1 2 4 8; do
    for clients in 16 64 256; do
      build/tools/loadgen --backend a2 --slots 4 --shards "$shards" \
        --clients "$clients" --seconds 1 --read-ratio 0.5 \
        --global-ratio 0.1 --churn 0.02 --seed 42 \
        --experiment E13-shard --check
    done
  done
  # Long-run memory fix in action: the checked history streams to disk
  # (--check-file) instead of accumulating in RAM, then replays through the
  # same exact checker; the spill file doubles as a check_history artifact.
  build/tools/loadgen --backend a2 --slots 4 --shards 4 --clients 64 \
    --seconds 2 --read-ratio 0.5 --global-ratio 0.1 --churn 0.02 --seed 43 \
    --experiment E13-shard --check-file results/shard_history_spill.txt \
    ${shard_trace_args[@]+"${shard_trace_args[@]}"}
} 2>&1 | tee results/shard_loadgen.txt
grep '^JSON ' results/shard_loadgen.txt | sed 's/^JSON //' \
  > results/shard_loadgen.jsonl

# E14-netchaos — the real cluster behind the seeded TCP fault proxy: the
# ambient loss x delay sweep maps update throughput and round-trip tails as
# the wire degrades, with the partition dimension toggling blackhole/flap
# bursts on top. Every cell runs the full rails (exact linearizability,
# majority-safety, durability audit, liveness watchdog) and chaos_run exits
# nonzero on any violation, so set -e makes every cell an acceptance gate.
# The net+kill composition and the MUST-FAIL minority-split negative control
# (must_catch: its report must name a liveness or durability violation)
# close the loop: the checkers keep their teeth when the network is the
# adversary. JSON lines land in
# results/netchaos.jsonl.
echo "== E14-netchaos: cluster under the seeded TCP fault proxy =="
netchaos_trace_args=()
if [ -n "$TRACE_DIR" ]; then
  netchaos_trace_args=(--trace "$TRACE_DIR/chaos_net.json")
fi
{
  for loss in 0 0.01 0.05; do
    for delay in 0 5 25; do
      for part in on off; do
        build/tools/chaos_run --scenario net --seconds 2 --writers 2 \
          --seed 42 --loss "$loss" --delay-ms "$delay" --jitter-ms 2 \
          --reorder 0.01 --partition "$part"
      done
    done
  done
  # Wire faults composed with the kill -9 / SIGSTOP process adversary,
  # traced when --trace-dir is given so trace_analyze's network-chaos
  # section has real injected-fault -> retransmit-wave data.
  build/tools/chaos_run --scenario net+kill --seconds 3 --writers 2 \
    --seed 42 --crash-rate 1 --loss 0.05 --delay-ms 5 --jitter-ms 2 \
    --reorder 0.01 ${netchaos_trace_args[@]+"${netchaos_trace_args[@]}"}
  # Negative control: a minority-only cluster must be CAUGHT by the
  # liveness watchdog or the durability audit, proving the rails detect
  # real partition-safety violations.
  must_catch '^    - (liveness|durability): ' \
    build/tools/chaos_run --scenario net-split --seconds 2 --writers 2 \
    --seed 42
} 2>&1 | tee results/netchaos.txt
grep '^JSON ' results/netchaos.txt | sed 's/^JSON //' \
  > results/netchaos.jsonl

# E15-mvcc — the multi-version scan engine head-to-head: bench_mvcc sweeps
# engine x read ratio x thread count over the same 256-word snapshot
# (mvcc-leased vs mvcc-copy vs urcu vs the PR-4 copy-under-mutex cache);
# the leased scan's p50 and the throughput ratio vs mutex-cache at 16
# threads are the PR's acceptance numbers (see EXPERIMENTS.md E15-mvcc).
# The checked loadgen runs close the loop on correctness: A4 behind the
# full service stack (and behind the sharded fabric's cross-shard global
# scans) with every history replayed through the exact single-writer
# linearizability checker — a violation exits nonzero and set -e stops
# the script. JSON lines land in results/mvcc.jsonl.
echo "== E15-mvcc: multi-version scan engine =="
mvcc_trace_args=()
if [ -n "$TRACE_DIR" ]; then
  mvcc_trace_args=(--trace "$TRACE_DIR/bench_mvcc.json")
fi
{
  build/bench/bench_mvcc --seconds 0.3 --threads 1,4,16,64 \
    --ratios 0.5,0.9,0.99 ${mvcc_trace_args[@]+"${mvcc_trace_args[@]}"}
  for ratio in 0.5 0.9 0.99; do
    build/tools/loadgen --backend a4 --slots 4 --clients 16 --seconds 1 \
      --read-ratio "$ratio" --churn 0.02 --seed 42 \
      --experiment E15-mvcc --check
  done
  build/tools/loadgen --backend a4 --slots 4 --shards 4 --clients 64 \
    --seconds 1 --read-ratio 0.5 --global-ratio 0.1 --churn 0.02 \
    --seed 42 --experiment E15-mvcc --check
} 2>&1 | tee results/mvcc.txt
grep '^JSON ' results/mvcc.txt | sed 's/^JSON //' > results/mvcc.jsonl

# E16-fastread — the one-round fast read: the read-ratio x loss x delay
# sweep with per-cell exact linearizability checking lives in
# bench_abd_messages (its E16 JSON lines, incl. the A/B acceptance pair at
# read ratio 0.99, were captured by the bench loop above and are re-emitted
# into results/fastread.jsonl here). The chaos_run arms exercise the fast
# path through the full rails: the in-process mixed scenario and the real
# socket cluster behind the fault proxy, each as a fast on/off A-B (every
# run exits nonzero on any safety violation, so set -e gates on them), and
# the MUST-FAIL negative control — the unconditional write-back skip under
# a deterministic partition schedule — must be CAUGHT by the exact checker
# (must_catch: its report must name a linearizability violation).
echo "== E16-fastread: one-round fast reads =="
{
  build/tools/chaos_run --scenario mixed --seconds 3 --seed 42 --fast off
  build/tools/chaos_run --scenario mixed --seconds 3 --seed 42 --fast on
  build/tools/chaos_run --scenario net --seconds 2 --writers 2 --seed 42 \
    --loss 0.01 --delay-ms 5 --jitter-ms 2 --fast off
  build/tools/chaos_run --scenario net --seconds 2 --writers 2 --seed 42 \
    --loss 0.01 --delay-ms 5 --jitter-ms 2 --fast on
  build/tools/chaos_run --scenario net+kill --seconds 2 --writers 2 \
    --seed 42 --crash-rate 1 --loss 0.01 --delay-ms 5 --jitter-ms 2
  # Checked read-heavy service runs over the in-process ABD backend: the
  # fast-hit ratio lands in the JSON, the exact checker gates the history.
  for ratio in 0.9 0.99; do
    build/tools/loadgen --backend abd --slots 3 --clients 6 --seconds 1 \
      --read-ratio "$ratio" --seed 42 --experiment E16-fastread --check
  done
  must_catch '^    - linearizability: ' \
    build/tools/chaos_run --scenario broken-fastread --seed 42
} 2>&1 | tee results/fastread.txt
{
  grep '^JSON ' results/fastread.txt | sed 's/^JSON //'
  grep '^JSON ' results/bench_abd_messages.txt | sed 's/^JSON //' \
    | grep 'E16-fastread' || true
} > results/fastread.jsonl

# E17-wal — the replica WAL alone: 1 and 3 logs, one thread each, every
# log appending and fsyncing one 44-byte record per round, as three
# replicas receive one quorum write. bench_wal exits nonzero on a failed
# append or a log that does not replay its last write, so set -e gates on
# it. It writes under the system temp directory (TMPDIR), and that
# device's fsync is what it measures. JSON lines land in results/wal.jsonl.
echo "== E17-wal: replica WAL append and fsync =="
build/bench/bench_wal --rounds 3000 2>&1 | tee results/wal.txt
grep '^JSON ' results/wal.txt | sed 's/^JSON //' > results/wal.jsonl

if [ -n "$TRACE_DIR" ]; then
  echo "== trace analysis =="
  for t in "$TRACE_DIR"/*.json; do
    [ -f "$t" ] || continue
    echo "-- $(basename "$t") --"
    build/tools/trace_analyze "$t" 2>&1 \
      | tee "results/trace_analyze_$(basename "$t" .json).txt"
  done
fi

echo
echo "Outputs captured under results/. Update EXPERIMENTS.md from them."
