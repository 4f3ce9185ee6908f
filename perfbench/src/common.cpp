#include "common.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <thread>

namespace perfbench {

namespace {

/// Regularized incomplete beta function I_x(a, b), by Lentz's continued
/// fraction.
double incompleteBeta(double a, double b, double x) {
  if (x <= 0) return 0;
  if (x >= 1) return 1;
  if (x > (a + 1) / (a + b + 2)) return 1 - incompleteBeta(b, a, 1 - x);
  const double front = std::exp(std::lgamma(a + b) - std::lgamma(a) - std::lgamma(b) +
                                a * std::log(x) + b * std::log1p(-x)) /
                       a;
  constexpr double kTiny = 1e-300;
  double f = 1, c = 1, d = 0;
  for (int i = 0; i <= 1000; ++i) {
    const double m = i / 2;
    double num = 1;
    if (i > 0 && i % 2 == 0) {
      num = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m));
    } else if (i > 0) {
      num = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1));
    }
    d = 1 + num * d;
    d = 1 / (std::fabs(d) < kTiny ? kTiny : d);
    c = 1 + num / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    f *= c * d;
    if (std::fabs(1 - c * d) < 1e-12) break;
  }
  return front * (f - 1);
}

}  // namespace

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  if (p <= 0) return samples.front();
  if (p >= 1) return samples.back();
  const double n = static_cast<double>(samples.size());
  const double a = p * (n + 1);
  const double b = (1 - p) * (n + 1);
  double estimate = 0;
  double below = 0;  // I_{(i-1)/n}(a, b)
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const double upTo = incompleteBeta(a, b, static_cast<double>(i + 1) / n);
    estimate += (upTo - below) * samples[i];
    below = upTo;
  }
  return estimate;
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0;
  double sum = 0;
  for (double x : samples) sum += x;
  return sum / static_cast<double>(samples.size());
}

double processCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int nproc() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

namespace {

thread_local std::vector<std::int64_t> openStack;

}  // namespace

std::int64_t Tracer::open(const char* name, std::uint64_t request) {
  if (!enabled_) return -1;
  const auto now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       Clock::now() - origin_)
                       .count();
  std::lock_guard<std::mutex> lock(mu_);
  SpanRecord rec;
  rec.name = name;
  rec.startNs = now;
  rec.endNs = -1;
  rec.parent = openStack.empty() ? -1 : openStack.back();
  rec.request = request;
  spans_.push_back(std::move(rec));
  const auto index = static_cast<std::int64_t>(spans_.size()) - 1;
  openStack.push_back(index);
  return index;
}

void Tracer::close(std::int64_t index) {
  if (index < 0) return;
  const auto now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       Clock::now() - origin_)
                       .count();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(index)].endNs = now;
  if (!openStack.empty() && openStack.back() == index) openStack.pop_back();
}

void Tracer::record(const char* name, Clock::time_point start,
                    Clock::time_point end, std::int64_t parent,
                    std::uint64_t request) {
  if (!enabled_) return;
  using std::chrono::duration_cast;
  using std::chrono::nanoseconds;
  SpanRecord rec;
  rec.name = name;
  rec.startNs = duration_cast<nanoseconds>(start - origin_).count();
  rec.endNs = duration_cast<nanoseconds>(end - origin_).count();
  rec.parent = parent;
  rec.request = request;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(rec));
}

std::vector<double> Tracer::durationsMs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const SpanRecord& s : spans_) {
    if (s.name == name && s.endNs >= 0) {
      out.push_back(static_cast<double>(s.endNs - s.startNs) / 1e6);
    }
  }
  return out;
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Tracer::writeJsonl(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.startNs << ",\"end_ns\":" << s.endNs
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request
        << "}\n";
  }
  return static_cast<bool>(out);
}

void RunResult::fail(std::string what) {
  correct = false;
  ++failed;
  errors.push_back(std::move(what));
}

}  // namespace perfbench
