#include "measure.h"

#include <sys/resource.h>

#include <algorithm>
#include <fstream>

namespace perfbench {

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

long CountJsonRows(std::string_view body) {
  constexpr std::string_view kKey = "\"bindings\":[";
  const std::size_t at = body.find(kKey);
  if (at == std::string_view::npos) return -1;
  long rows = 0;
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = at + kKey.size(); i < body.size(); ++i) {
    const char c = body[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_string = true;
        break;
      case '{':
        if (depth++ == 0) ++rows;
        break;
      case '}':
        --depth;
        break;
      case ']':
        if (depth == 0) return rows;
        break;
      default:
        break;
    }
  }
  return -1;  // unterminated array
}

long SpanLog::Begin(std::string name, long parent, std::uint64_t request) {
  if (!enabled_) return -1;
  Span span;
  span.name = std::move(name);
  span.parent = parent;
  span.request = request;
  span.start_ms = MillisBetween(origin_, Clock::now());
  spans_.push_back(std::move(span));
  return static_cast<long>(spans_.size()) - 1;
}

void SpanLog::End(long index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_ms =
      MillisBetween(origin_, Clock::now());
}

std::vector<double> SpanLog::Millis(std::string_view name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) out.push_back(span.millis());
  }
  return out;
}

std::vector<double> SpanLog::SelfMillisOf(std::string_view name) const {
  std::vector<double> child_millis(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_millis[static_cast<std::size_t>(span.parent)] += span.millis();
    }
  }
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) {
      out.push_back(spans_[i].millis() - child_millis[i]);
    }
  }
  return out;
}

bool SpanLog::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path);
  for (const Span& span : spans_) {
    out << "{\"name\":\"" << span.name << "\",\"start_ms\":" << span.start_ms
        << ",\"end_ms\":" << span.end_ms << ",\"parent\":" << span.parent
        << ",\"request\":" << span.request << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
