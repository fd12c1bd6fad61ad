// Command-line flags for the tools, benches and daemon: each flag is pulled
// out of (argc, argv) as it is read, so whatever remains at the end is an
// argument nobody asked for.
#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <type_traits>

namespace asnap {

/// Pulls `--flag <value>` out of (argc, argv), compacting argv in place so
/// downstream flag parsers (e.g. google-benchmark's) never see it. Returns
/// the value, or `fallback` if the flag is absent.
inline std::string consume_flag(int& argc, char** argv, std::string_view flag,
                                std::string_view fallback = "") {
  std::string value(fallback);
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (flag == argv[i] && i + 1 < argc) {
      value = argv[i + 1];
      ++i;
      continue;
    }
    argv[out++] = argv[i];
  }
  argc = out;
  return value;
}

/// The value `text` of `flag`, parsed whole as a T (an unsigned integer or a
/// floating-point type); with `probability`, a value outside [0, 1] is bad
/// too. A bad value ("x", "5%", "3s", "-1" for an unsigned) prints
/// "<tool>: bad value '<text>' for <flag>" and exits 2, as an unknown
/// argument does.
template <typename T>
T parse_flag(std::string_view text, std::string_view flag, const char* tool,
             bool probability = false) {
  T value{};
  const char* const end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  bool ok = error == std::errc{} && stop == end;
  if constexpr (std::is_floating_point_v<T>) {
    ok = ok && std::isfinite(value);
    if (probability) ok = ok && value >= 0 && value <= 1;
  }
  if (!ok) {
    std::fprintf(stderr, "%s: bad value '%.*s' for %.*s\n", tool,
                 static_cast<int>(text.size()), text.data(),
                 static_cast<int>(flag.size()), flag.data());
    std::exit(2);
  }
  return value;
}

/// Pulls `--flag <number>` out of (argc, argv) and parses it (parse_flag);
/// `fallback` if the flag is absent.
template <typename T>
T consume_number(int& argc, char** argv, std::string_view flag, T fallback,
                 const char* tool, bool probability = false) {
  const std::string text = consume_flag(argc, argv, flag);
  return text.empty() ? fallback
                      : parse_flag<T>(text, flag, tool, probability);
}

/// Pulls a bare `--switch` out of (argc, argv); true iff it was present.
inline bool consume_switch(int& argc, char** argv, std::string_view name) {
  char** const end = std::remove_if(
      argv + 1, argv + argc, [&](const char* arg) { return name == arg; });
  const bool present = end != argv + argc;
  argc = static_cast<int>(end - argv);
  return present;
}

/// Call once every known flag has been consumed. Prints
/// "<tool>: unknown argument '<arg>'" for the first leftover argument and
/// returns false; true when nothing is left.
inline bool no_unknown_args(int argc, char** argv, const char* tool) {
  if (argc <= 1) return true;
  std::fprintf(stderr, "%s: unknown argument '%s'\n", tool, argv[1]);
  return false;
}

}  // namespace asnap
