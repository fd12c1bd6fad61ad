// Spans recorded by the benchmark around its calls into each layer.
//
// A traced client thread owns a Tracer; t_tracer points at it while the
// thread runs a traced slice and is null otherwise, so an untraced call
// pays one thread-local load. The root span is the svc call and carries
// the op id; the backend call the service makes on the same thread is its
// child, and a RemoteRegisterClient call inside the backend its grandchild.
// Spans stay in the thread's memory until the slice ends, when the runner
// folds them into per-layer numbers. Children end before their root, so
// they precede it in the log.
#pragma once

#include <chrono>
#include <cstdint>

#include "common/instrumentation.hpp"
#include "history.hpp"
#include "procstat.hpp"

namespace perfbench {

enum class Layer : std::uint8_t { kSvc, kBackend, kRemote };
enum class Kind : std::uint8_t { kScan, kUpdate, kFlush, kRead, kWrite };

struct Span {
  std::uint64_t op = 0;      ///< id of the root svc call
  std::uint64_t start = 0;   ///< steady-clock ns
  std::uint64_t end = 0;
  std::uint64_t cpu = 0;     ///< thread CPU ns inside (when Tracer::cpu)
  std::uint64_t steps = 0;   ///< register steps inside (backend spans)
  std::uint64_t rounds = 0;  ///< ABD protocol rounds inside (remote spans)
  Layer layer = Layer::kSvc;
  Kind kind = Kind::kScan;
};

struct Tracer {
  ChunkLog<Span> spans;
  std::uint64_t op = 0;  ///< current root op id
  bool cpu = false;      ///< also read the thread CPU clock per span
};

inline thread_local Tracer* t_tracer = nullptr;

inline std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Open a span of the current op. The CPU clock and step counter are read
/// outside the wall-clock interval so they do not inflate it.
inline Span begin_span(const Tracer& t, Layer layer, Kind kind) {
  Span s;
  s.op = t.op;
  s.layer = layer;
  s.kind = kind;
  if (t.cpu) s.cpu = thread_cpu_ns();
  s.steps = asnap::step_state().counters.total();
  s.start = steady_ns();
  return s;
}

inline void end_span(Tracer& t, Span& s, std::uint64_t rounds = 0) {
  s.end = steady_ns();
  s.rounds = rounds;
  s.steps = asnap::step_state().counters.total() - s.steps;
  if (t.cpu) s.cpu = thread_cpu_ns() - s.cpu;
  t.spans.push(s);
}

}  // namespace perfbench
