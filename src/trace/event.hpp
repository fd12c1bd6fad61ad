// Protocol-event vocabulary of the tracing subsystem.
//
// The paper's arguments are event-level: Observation 1 is about a pair of
// collects reading equal sequence numbers, Observation 2 about a process
// observed moving twice (thrice for Figure 4), Lemmas 3.4/4.4 about the
// pigeonhole bound on double collects per scan. A TraceEvent makes exactly
// these protocol events first-class: each is a fixed-size record (timestamp,
// kind, acting process, two payload words) cheap enough to emit from the
// hot path into a per-thread ring buffer (ring_buffer.hpp) and merge into a
// Perfetto/chrome://tracing timeline afterwards (exporter.hpp).
//
// Two gates keep the cost honest:
//   * compile time — every emission site goes through ASNAP_TRACE_EVENT,
//     which compiles to nothing when the ASNAP_TRACE CMake option is OFF;
//   * run time — with tracing compiled in but not enabled (the default),
//     the macro is one relaxed atomic load and a predictable branch.
#pragma once

#include <atomic>
#include <cstdint>

namespace asnap::trace {

/// Every protocol event the subsystem knows about, across the whole stack:
/// snapshot cores (core/), the ABD quorum client (abd/), and the lossy
/// network adversary (net/).
enum class EventKind : std::uint16_t {
  kNone = 0,

  // -- snapshot cores (pid = the paper's process index P_i) -----------------
  kScanBegin,              ///< a0 = algorithm id (kAlgo*), a1 = n
  kScanEnd,                ///< a0 = double collects used, a1 = borrowed (0/1)
  kCollectBegin,           ///< a0 = double-collect attempts completed so far
  kCollectEnd,             ///< a0 = as kCollectBegin
  kDoubleCollectMatch,     ///< Observation 1 fired; a0 = attempts used
  kDoubleCollectMismatch,  ///< some register changed between the collects
  kMovedDetected,          ///< a0 = the process observed moving
  kViewBorrowed,           ///< Observation 2 fired; a0 = view's owner
  kUpdateBegin,            ///< a0 = word index (multi-writer) or seq hint
  kUpdateEnd,              ///< a0 = as kUpdateBegin
  kHandshakeToggle,        ///< updater flipped its handshake/toggle bits

  // -- ABD quorum client (pid = client node id) -----------------------------
  kAbdRoundBegin,     ///< a0 = request id, a1 = distinct replies needed
  kAbdRetransmit,     ///< a0 = request id
  kAbdQuorumReached,  ///< a0 = request id, a1 = replies accepted
  kAbdRoundTimeout,   ///< a0 = request id
  kAbdFastRead,       ///< write-back skipped; a0 = reg, a1 = ts returned
  kAbdFastFallback,   ///< a0 = reg, a1 = reason (kFastFallback*)

  // -- fault injector (pid = sending node id) -------------------------------
  kFaultDrop,   ///< a0 = destination node
  kFaultDup,    ///< a0 = destination node
  kFaultDelay,  ///< a0 = destination node, a1 = delay in microseconds

  // -- self-healing layer (failure detector / breaker / recovery) -----------
  kSuspect,          ///< pid = observer, a0 = suspected node, a1 = timeout us
  kTrust,            ///< pid = observer, a0 = re-trusted node (false alarm)
  kRecoverBegin,     ///< pid = recovering node, a0 = new incarnation epoch
  kRecoverEnd,       ///< pid = recovering node, a0 = 1 success / 0 failure
  kBreakerSkip,      ///< pid = client, a0 = suspected replica not transmitted
  kBreakerFailFast,  ///< pid = client, a0 = rid, a1 = plausibly-live replicas
  kStaleEpochReply,  ///< pid = client, a0 = responder, a1 = stale epoch
  kChaosAction,      ///< pid = 0, a0 = chaos::ActionKind, a1 = parameter

  // -- service layer (src/svc/): slot leases, batching, scan cache ----------
  kLeaseGrant,           ///< pid = slot, a0 = client id, a1 = new epoch
  kLeaseExpire,          ///< pid = slot, a0 = old holder, a1 = expired epoch
  kLeaseSteal,           ///< pid = slot, a0 = new holder, a1 = new epoch
  kBatchFlush,           ///< pid = slot, a0 = submits coalesced, a1 = last seq
  kScanCacheHit,         ///< pid = slot, a0 = cache generation served
  kScanCacheMiss,        ///< pid = slot, a0 = generation at miss
  kScanCacheInvalidate,  ///< pid = flushing slot, a0 = stale generation
  kSvcShed,              ///< pid = slot, a0 = op kind (1 update, 2 scan, 3 flush)

  // -- network chaos (src/net/chaos_proxy + hardened TcpBus) ----------------
  // pid = proxied link (replica index); a0 = direction for per-direction
  // faults (0 = client->replica, 1 = replica->client).
  kNetDrop,       ///< frame dropped; a1 = frame bytes
  kNetDelay,      ///< frame delayed; a1 = delay in microseconds
  kNetReorder,    ///< frame held and emitted after its successor
  kNetStall,      ///< mid-frame stall injected; a1 = stall milliseconds
  kNetReset,      ///< connection reset injected on this link
  kNetBlackhole,  ///< direction blackholed (asymmetric partition); a1 = on/off
  kNetFlap,       ///< link flap transition; a0 = 1 up / 0 down
  kNetThrottle,   ///< bandwidth throttle pause; a1 = sleep microseconds
  kNetReconnectBackoff,  ///< pid = 0, a0 = replica, a1 = armed cooldown ms

  // -- sharded fabric (src/shard/): hash routing + two-level global scans ---
  kShardRoute,            ///< pid = shard, a0 = client id, a1 = global slot
  kShardLocalUpdate,      ///< pid = shard, a0 = global word index
  kShardLocalScan,        ///< pid = shard, a0 = cache hit (0/1)
  kShardGlobalScanBegin,  ///< pid = 0, a0 = shard count, a1 = attempt cap
  kShardGlobalScanEnd,    ///< pid = 0, a0 = attempts used, a1 = sealed (0/1)
  kShardConfirmFail,      ///< pid = shard, a0 = gen at collect, a1 = at confirm

  // -- mvcc versioned publication (src/mvcc/ VersionGate, A4 backend) -------
  // pid = gate trace id (0 = the svc scan cache's gate). Grace-period
  // latency for a version = ts(kMvccReclaim) - ts(kMvccRetire) matched on
  // (pid, a0) — trace_analyze's mvcc section reports its percentiles.
  kMvccPublish,  ///< a0 = new version epoch, a1 = displaced outer count
  kMvccAcquire,  ///< a0 = acquired version epoch, a1 = outer count after
  kMvccRetire,   ///< version unlinked; a0 = its epoch, a1 = readers still out
  kMvccReclaim,  ///< refcount drained; a0 = its epoch, a1 = unlinking epoch

  kKindCount,
};

/// Algorithm ids carried in kScanBegin.a0 so an analyzer can apply the right
/// pigeonhole bound: n+1 double collects for A1/A2, 2n+1 for A3.
inline constexpr std::uint64_t kAlgoUnboundedSw = 1;  ///< Figure 2 (A1)
inline constexpr std::uint64_t kAlgoBoundedSw = 2;    ///< Figure 3 (A2)
inline constexpr std::uint64_t kAlgoBoundedMw = 3;    ///< Figure 4 (A3)
inline constexpr std::uint64_t kAlgoMvccGate = 4;     ///< A4 (no bound: 0 collects)

/// Reason codes carried in kAbdFastFallback.a1: why a fast read had to run
/// the write-back round after all.
inline constexpr std::uint64_t kFastFallbackDisagree = 1;  ///< quorum split on ts
inline constexpr std::uint64_t kFastFallbackGap = 2;       ///< replica gap / partial quorum evidence

/// Stable lower_snake_case name of a kind ("scan_begin", ...). Returns
/// "unknown" for out-of-range values (a torn slot that escaped validation).
const char* kind_name(EventKind kind);

/// One traced protocol event. 40 bytes; tid is assigned by the collector
/// when the per-thread ring buffers are drained, not by the emitter.
struct TraceEvent {
  std::uint64_t ts_ns = 0;            ///< steady_clock nanoseconds
  std::uint64_t a0 = 0;               ///< payload word (see EventKind docs)
  std::uint64_t a1 = 0;               ///< payload word
  std::uint32_t pid = 0;              ///< acting process / node id
  std::uint32_t tid = 0;              ///< trace thread id (collector-filled)
  EventKind kind = EventKind::kNone;
};

/// Master runtime switch. Inline so the disabled fast path is a single
/// relaxed load of one global, with no function call.
inline std::atomic<bool> g_trace_enabled{false};

inline bool enabled() {
  return g_trace_enabled.load(std::memory_order_relaxed);
}

/// Append one event to the calling thread's ring buffer (registering the
/// buffer on first use). Only called with tracing enabled; implemented in
/// exporter.cpp next to the buffer registry. Marked cold so the call and
/// its argument setup are laid out off the hot path: with tracing disabled,
/// an instrumentation site costs the relaxed load and a not-taken branch,
/// not the register pressure of a live call.
#if defined(__GNUC__) || defined(__clang__)
__attribute__((cold))
#endif
void emit(EventKind kind, std::uint32_t pid, std::uint64_t a0 = 0,
          std::uint64_t a1 = 0);

}  // namespace asnap::trace

// Emission macro: all instrumentation sites in core/, abd/ and net/ go
// through this so a -DASNAP_TRACE=OFF build contains no tracing code at all.
// There the call sits in an unevaluated sizeof: no code, but its arguments
// are still checked and count as used, so a variable that only feeds a
// trace event draws no unused-variable warning.
#if defined(ASNAP_TRACE) && ASNAP_TRACE
#define ASNAP_TRACE_EVENT(kind, pid, ...)                        \
  do {                                                           \
    if (::asnap::trace::enabled()) [[unlikely]] {                \
      ::asnap::trace::emit((kind), (pid), ##__VA_ARGS__);        \
    }                                                            \
  } while (0)
#else
#define ASNAP_TRACE_EVENT(...) (void)sizeof(asnap::trace::emit(__VA_ARGS__), 0)
#endif
