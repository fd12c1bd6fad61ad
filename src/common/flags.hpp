// Command-line flags for the tools, benches and daemon: each flag is pulled
// out of (argc, argv) as it is read, so whatever remains at the end is an
// argument nobody asked for.
#pragma once

#include <algorithm>
#include <cstdio>
#include <string>
#include <string_view>

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
