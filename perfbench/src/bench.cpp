#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <utility>

namespace perfbench {

double now_s() {
  static const auto t0 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

void Report::add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  correct_ = false;
  std::fprintf(stderr, "check failed: %s\n", what.c_str());
}

std::string Report::json() const {
  std::ostringstream os;
  os << std::setprecision(17);
  os << "{\"correct\": " << (correct_ ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    os << (i ? ", " : "") << '"' << m.name << "\": {\"value\": ";
    if (std::isfinite(m.value))
      os << m.value;
    else
      os << "null";
    os << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}}";
  return os.str();
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return NAN;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t i = static_cast<std::size_t>(pos);
  if (i + 1 >= v.size()) return v.back();
  return v[i] + (pos - static_cast<double>(i)) * (v[i + 1] - v[i]);
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int Tracer::open(const std::string& name) {
  Rec r;
  r.name = name;
  r.parent = stack_.empty() ? -1 : stack_.back();
  r.start = now_s();
  spans_.push_back(std::move(r));
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void Tracer::close(int id) {
  spans_[static_cast<std::size_t>(id)].end = now_s();
  // Spans close in LIFO order (RAII); pop through the closed one.
  while (!stack_.empty()) {
    const int top = stack_.back();
    stack_.pop_back();
    if (top == id) break;
  }
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Rec& r : spans_)
    if (r.name == name && r.end >= r.start) out.push_back(r.end - r.start);
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  os << std::setprecision(9);
  os << "{\"run\": " << run_id_ << ", \"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Rec& r = spans_[i];
    os << (i ? ",\n" : "\n") << "{\"id\": " << i << ", \"name\": \"" << r.name
       << "\", \"start_s\": " << r.start << ", \"end_s\": " << r.end
       << ", \"parent\": " << r.parent << "}";
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

}  // namespace perfbench
