// Shared helpers for the benchmark binaries: background interference
// threads, step accounting, and a tiny least-squares exponent fit used by
// the shape experiments (E5/E7) to report measured complexity exponents.
#pragma once

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/config.hpp"
#include "common/instrumentation.hpp"
#include "common/rng.hpp"

namespace asnap::bench {

/// Background threads that hammer an operation until destroyed. Each thread
/// yields at register-step granularity with the given probability so that
/// interference is fine-grained even on few-core machines.
class InterferencePool {
 public:
  /// op(pid, iteration) is called in a loop on each thread.
  InterferencePool(std::size_t first_pid, std::size_t count,
                   std::function<void(ProcessId, std::uint64_t)> op,
                   double yield_prob = 0.3)
      : stop_(false) {
    threads_.reserve(count);
    for (std::size_t t = 0; t < count; ++t) {
      const auto pid = static_cast<ProcessId>(first_pid + t);
      threads_.emplace_back([this, pid, op, yield_prob] {
        struct Chaos {
          Rng rng;
          double prob;
          static void hook(void* ctx, StepKind) {
            auto* self = static_cast<Chaos*>(ctx);
            if (self->rng.chance(self->prob)) std::this_thread::yield();
          }
        } chaos{Rng(pid * 977 + 13), yield_prob};
        ScopedStepHook hook(&Chaos::hook, &chaos);
        std::uint64_t iteration = 0;
        while (!stop_.load(std::memory_order_acquire)) {
          op(pid, ++iteration);
        }
      });
    }
  }

  ~InterferencePool() {
    stop_.store(true, std::memory_order_release);
    threads_.clear();  // join
  }

 private:
  std::atomic<bool> stop_;
  std::vector<std::jthread> threads_;
};

/// Builds the machine-readable "JSON {...}" result lines the benches print
/// alongside their human tables (scripts/run_experiments.sh greps for the
/// prefix). Field order is insertion order; values are escaped-free by
/// construction (keys and string values used by the benches are plain
/// identifiers).
class JsonWriter {
 public:
  explicit JsonWriter(std::string_view experiment) {
    body_ = "{\"experiment\":\"";
    body_ += experiment;
    body_ += '"';
  }

  JsonWriter& field(std::string_view key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonWriter& field(std::string_view key, int v) {
    return raw(key, std::to_string(v));
  }
  JsonWriter& field(std::string_view key, double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return raw(key, buf);
  }
  JsonWriter& field(std::string_view key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  JsonWriter& field(std::string_view key, std::string_view v) {
    std::string quoted = "\"";
    quoted += v;
    quoted += '"';
    return raw(key, quoted);
  }
  JsonWriter& field(std::string_view key, const char* v) {
    return field(key, std::string_view(v));
  }

  /// The object, e.g. {"experiment":"E9-loss","drop":0.1}.
  std::string str() const { return body_ + "}"; }

  /// Prints the prefixed result line: JSON {...}\n.
  void print() const { std::printf("JSON %s\n", str().c_str()); }

 private:
  JsonWriter& raw(std::string_view key, std::string_view value) {
    body_ += ",\"";
    body_ += key;
    body_ += "\":";
    body_ += value;
    return *this;
  }

  std::string body_;
};

/// Least-squares slope of log(y) against log(x): the measured complexity
/// exponent of y(x) ~ x^slope.
inline double fitted_exponent(const std::vector<double>& xs,
                              const std::vector<double>& ys) {
  const std::size_t n = xs.size();
  double sx = 0;
  double sy = 0;
  double sxx = 0;
  double sxy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double lx = std::log2(xs[i]);
    const double ly = std::log2(ys[i]);
    sx += lx;
    sy += ly;
    sxx += lx * lx;
    sxy += lx * ly;
  }
  const double denom = static_cast<double>(n) * sxx - sx * sx;
  return (static_cast<double>(n) * sxy - sx * sy) / denom;
}

}  // namespace asnap::bench
