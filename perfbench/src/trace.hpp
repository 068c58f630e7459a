// In-memory spans recorded by the benchmark around its calls into the
// program's layers, plus the small order statistics the metrics use.
//
// A span has a name, a start, an end, the span that caused it (-1 for a
// root) and a request id shared by the spans of one query. Spans are kept in
// memory while the benchmark runs and written out once it ends.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

/// The q-quantile (0 <= q <= 1) by nearest rank; 0 for an empty sample.
template <typename T>
double quantile(std::vector<T> v, double q) {
  if (v.empty()) return 0;
  const auto k = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return static_cast<double>(v[k]);
}

template <typename T>
double median(std::vector<T> v) {
  return quantile(std::move(v), 0.5);
}

class Tracer {
 public:
  /// 32 bytes, since the pipelined workload records millions of these.
  struct Span {
    const char* name = nullptr;  ///< a string literal
    std::int32_t parent = -1;
    std::uint32_t request = 0;
    Clock::time_point start;
    Clock::time_point end;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Records a finished span; returns its index, or -1 when disabled.
  std::int32_t record(const char* name, Clock::time_point start,
                      Clock::time_point end, std::int32_t parent = -1,
                      std::uint64_t request = 0) {
    if (!enabled_) return -1;
    spans_.push_back({name, parent, static_cast<std::uint32_t>(request), start, end});
    return static_cast<std::int32_t>(spans_.size()) - 1;
  }
  /// Opens a span that children can name as their parent; close() ends it.
  std::int32_t open(const char* name, std::int32_t parent = -1) {
    const auto now = Clock::now();
    return record(name, now, now, parent);
  }
  void close(std::int32_t span) {
    if (span >= 0) spans_[static_cast<std::size_t>(span)].end = Clock::now();
  }

  /// Durations in microseconds of every span called `name`.
  std::vector<double> durations_us(std::string_view name) const;

  /// Writes a per-name summary (count, total, p50, self time) followed by
  /// the first kRawSpans spans, one CSV line each. The pipelined workload
  /// records millions; the summary covers them all.
  void write(const std::string& path) const;
  static constexpr std::size_t kRawSpans = 20000;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
