#include "selftest.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "histogram.hpp"
#include "history.hpp"

namespace perfbench {
namespace {

using asnap::lin::Tag;

/// Estimated percentiles must sit within one bucket of the exact
/// nearest-rank percentile of the sorted samples.
bool histogram_matches_sorted_reference(std::uint64_t seed, std::size_t n) {
  asnap::Rng rng(seed);
  Histogram h;
  std::vector<std::uint64_t> ref;
  for (std::size_t i = 0; i < n; ++i) {
    // Log-uniform over 10 ns .. 10 s, so every octave regime is exercised.
    const double v = std::exp(std::log(10.0) + rng.uniform01() * std::log(1e9));
    ref.push_back(static_cast<std::uint64_t>(v));
    h.record(ref.back());
  }
  std::sort(ref.begin(), ref.end());
  for (double q : {0.001, 0.01, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    const std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n)));
    const std::uint64_t exact = ref[std::max<std::size_t>(rank, 1) - 1];
    const double tolerance = static_cast<double>(
        Histogram::bucket_width(Histogram::bucket_of(exact)));
    if (std::abs(h.percentile(q) - static_cast<double>(exact)) > tolerance) {
      return false;
    }
  }
  return h.count() == n;
}

struct Op {
  bool scan;
  asnap::ProcessId proc;
  std::uint64_t seq;             // update
  std::vector<Tag> view;         // scan
  std::uint64_t inv, res;
};

/// Record `segments` of ops through the benchmark's per-client logs and
/// check them in order; true iff every segment is accepted.
bool accepted(std::size_t words,
              const std::vector<std::vector<Op>>& segments) {
  SegmentChecker checker(words);
  for (const auto& ops : segments) {
    ClientLog logs[2];
    for (asnap::ProcessId p = 0; p < 2; ++p) {
      logs[p].slot = p;
      logs[p].words = words;
    }
    for (const Op& op : ops) {
      ClientLog& log = logs[op.proc];
      if (op.scan) {
        log.add_scan(op.inv, op.res, op.view);
      } else {
        log.updates.push({op.seq, op.inv, op.res});
      }
    }
    if (checker.check({&logs[0], &logs[1]}).has_value()) return false;
  }
  return true;
}

Op update(asnap::ProcessId p, std::uint64_t seq, std::uint64_t inv,
          std::uint64_t res) {
  return {false, p, seq, {}, inv, res};
}
Op scan(asnap::ProcessId p, std::vector<Tag> view, std::uint64_t inv,
        std::uint64_t res) {
  return {true, p, 0, std::move(view), inv, res};
}

}  // namespace

bool run_selftest(bool verbose) {
  const Tag init{};
  const Tag a1{0, 1}, a2{0, 2}, a3{0, 3}, a5{0, 5}, b1{1, 1};
  // P0's updates 2..5 are pipelined: submitted at 30..33, all acknowledged
  // by one flush at 100.
  const auto pipelined = [](Op read1, Op read2) {
    return std::vector<Op>{update(0, 1, 10, 20), update(0, 2, 30, 100),
                           update(0, 3, 31, 100), update(0, 4, 32, 100),
                           update(0, 5, 33, 100), std::move(read1),
                           std::move(read2)};
  };
  struct Case {
    const char* name;
    bool expect;
    std::function<bool()> run;
  };
  const std::vector<Case> cases = {
      {"histogram percentiles match a sorted reference", true,
       [] {
         return histogram_matches_sorted_reference(1, 1000) &&
                histogram_matches_sorted_reference(7, 200000);
       }},
      {"linearizable history across a cut is accepted", true,
       [&] {
         return accepted(2, {{update(0, 1, 10, 20), scan(1, {a1, init}, 30, 40),
                              update(1, 1, 35, 45)},
                             {update(0, 2, 50, 60), scan(1, {a2, b1}, 70, 80)}});
       }},
      {"MUST-FAIL: acknowledged update missing from a later scan", false,
       [&] {
         return accepted(2, {{update(0, 1, 10, 20),
                              scan(1, {init, init}, 30, 40)}});
       }},
      {"MUST-FAIL: new-old inversion between two scans", false,
       [&] {
         return accepted(2, {{update(0, 1, 10, 20), update(0, 2, 30, 40),
                              scan(1, {a2, init}, 35, 50),
                              scan(1, {a1, init}, 60, 70)}});
       }},
      {"pipelined updates read in submission order are accepted", true,
       [&] {
         return accepted(2, {pipelined(scan(1, {a3, init}, 50, 60),
                                       scan(1, {a5, init}, 70, 80))});
       }},
      {"MUST-FAIL: new-old inversion across pipelined updates", false,
       [&] {
         return accepted(2, {pipelined(scan(1, {a5, init}, 50, 60),
                                       scan(1, {a1, init}, 70, 80))});
       }},
      {"MUST-FAIL: read of the initial value after a cut", false,
       [&] {
         return accepted(2, {{update(0, 1, 10, 20)},
                             {scan(1, {init, init}, 30, 40)}});
       }},
      {"MUST-FAIL: stale read across a cut", false,
       [&] {
         return accepted(2, {{update(0, 1, 10, 20), update(0, 2, 30, 40)},
                             {scan(1, {a1, init}, 50, 60)}});
       }},
      {"MUST-FAIL: scan view of the wrong width", false,
       [&] { return accepted(2, {{scan(1, {init}, 10, 20)}}); }},
  };
  bool ok = true;
  for (const Case& c : cases) {
    const bool pass = c.run() == c.expect;
    ok = ok && pass;
    if (verbose || !pass) {
      std::fprintf(stderr, "selftest %-4s %s\n", pass ? "ok" : "FAIL", c.name);
    }
  }
  return ok;
}

}  // namespace perfbench
