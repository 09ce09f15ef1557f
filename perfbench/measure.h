// Measurement plumbing for perfbench: clocks, process counters,
// order statistics, SPARQL-JSON row counting and the span log of the
// traced run.
#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Process user + system CPU seconds (getrusage, all threads).
double ProcessCpuSeconds();
/// Peak resident set size in MiB (getrusage ru_maxrss, i.e. VmHWM).
double PeakRssMb();

/// Linear-interpolated percentile, p in [0, 1]; sorts `values`.
double Percentile(std::vector<double> values, double p);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}
double Mean(const std::vector<double>& values);

/// Rows of a SPARQL 1.1 JSON results document: the number of objects in
/// results.bindings. -1 when the document is not one.
long CountJsonRows(std::string_view body);

/// One timed call in the traced run. `parent` is the index of the span
/// whose work this call replays (-1 for a root); spans of one request
/// share `request`.
struct Span {
  std::string name;
  double start_ms = 0.0;
  double end_ms = 0.0;
  long parent = -1;
  std::uint64_t request = 0;

  double millis() const { return end_ms - start_ms; }
};

/// Spans of one thread, kept in memory and written out at the end.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  /// While disabled, Begin records nothing and returns -1, and End and
  /// SetParent ignore -1: the same code runs with and without spans.
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Opens a span and returns its index.
  long Begin(std::string name, long parent, std::uint64_t request);
  void End(long index);

  /// Re-links a span under `parent`: a replayed call is attributed to
  /// the layer whose work it repeats, whatever order the calls ran in.
  void SetParent(long index, long parent) {
    if (index >= 0) spans_[static_cast<std::size_t>(index)].parent = parent;
  }

  /// Durations of every span named `name`.
  std::vector<double> Millis(std::string_view name) const;
  /// Self times of every span named `name`: its duration minus the
  /// durations of its direct children.
  std::vector<double> SelfMillisOf(std::string_view name) const;

  /// One JSON object per line: name, start_ms, end_ms, parent, request.
  bool WriteJsonLines(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  bool enabled_ = true;
};

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
