// Text rendering shared by the result sinks: printf into a std::string,
// and the JSON value renderers every JSONL sink uses.  Doubles print at
// %.17g (round-trippable, golden-pinnable); JSON has no inf or nan
// literal, so non-finite values print as null (an unstable queue predicts
// an infinite delay, a flow without a deadline has infinite slack).
#pragma once

#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <string>

#include "util/stats.hpp"

namespace tv::util {

/// printf into a std::string of any length.
[[gnu::format(printf, 1, 2)]] inline std::string fmt(const char* format,
                                                     ...) {
  char buf[256];
  va_list args;
  va_start(args, format);
  va_list again;
  va_copy(again, args);
  const int n = std::vsnprintf(buf, sizeof buf, format, args);
  va_end(args);
  std::string out;
  if (n >= static_cast<int>(sizeof buf)) {
    out.resize(static_cast<std::size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, format, again);
  } else if (n > 0) {
    out.assign(buf, static_cast<std::size_t>(n));
  }
  va_end(again);
  return out;
}

/// String contents with quotes and backslashes escaped.  Spec strings are
/// plain ASCII today ("I+20P", "pad256+jit2ms"); escaping anyway keeps a
/// future grammar from silently corrupting a JSONL stream.
inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

inline std::string json_double(double v) {
  if (!std::isfinite(v)) return "null";
  return fmt("%.17g", v);
}

/// Full-precision statistics object ("null" when no samples, so
/// quality-off runs stay parseable).
inline std::string json_stats(const RunningStats& s) {
  if (s.count() == 0) return "null";
  const double mean = s.mean();
  const double ci95 = s.ci95_halfwidth();
  if (std::isfinite(mean) && std::isfinite(ci95) && std::isfinite(s.min()) &&
      std::isfinite(s.max())) {
    // One formatting call: a large cell's per-flow JSONL renders tens of
    // thousands of these per run.
    return fmt(
        "{\"n\":%zu,\"mean\":%.17g,\"ci95\":%.17g,\"min\":%.17g,"
        "\"max\":%.17g}",
        s.count(), mean, ci95, s.min(), s.max());
  }
  return "{\"n\":" + std::to_string(s.count()) +
         ",\"mean\":" + json_double(mean) +
         ",\"ci95\":" + json_double(ci95) +
         ",\"min\":" + json_double(s.min()) +
         ",\"max\":" + json_double(s.max()) + "}";
}

}  // namespace tv::util
