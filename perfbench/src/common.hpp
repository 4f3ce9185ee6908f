#pragma once
// Shared plumbing of the lanecert benchmark: clocks, sample statistics, the
// in-memory span tracer, and the result record every workload fills.
//
// The benchmark sits outside the library: it links liblanecert and calls
// only public functions.  Spans are recorded here, around those calls, so a
// later change can move them inside the program without renaming metrics.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double msSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}
[[nodiscard]] inline double msBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// CPU time all threads of this process have used so far, in ms.  With
/// nothing else running in the process, the CPU time of a call is the work
/// of all its threads, without the time they waited for a CPU.  On a VM
/// whose kernel accounts steal time (CONFIG_PARAVIRT_TIME_ACCOUNTING) that
/// wait includes the CPU time the hypervisor gave to other guests, which
/// varies from run to run.  Counting the whole process rather than the
/// calling thread keeps work a later change moves to helper threads in the
/// figure.
[[nodiscard]] double processCpuMs();

/// Percentile (p in [0, 1]) of `samples` by the Harrell-Davis estimator, a
/// weighted mean of all order statistics centred on rank p(n+1); 0 when
/// empty.  certify-cold times two dozen proves per run, so the nearest-rank
/// p90 was the third largest and jumped by 20% with whether a run held two
/// or three slow proves (spread 0.26 over ten runs).
[[nodiscard]] double percentile(std::vector<double> samples, double p);
[[nodiscard]] inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 0.5);
}
[[nodiscard]] double mean(const std::vector<double>& samples);

/// Peak resident set of this process so far, in MiB.
[[nodiscard]] double peakRssMb();

/// Hardware threads (the library paths run at numThreads = nproc).
[[nodiscard]] int nproc();

/// One finished span.  `parent` is the index of the enclosing span in the
/// tracer's span list (-1 for a root); spans of one request share `request`.
struct SpanRecord {
  std::string name;
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;
  std::int64_t parent = -1;
  std::uint64_t request = 0;
};

/// In-memory span recorder.  Disabled tracers record nothing and cost one
/// branch per span.  Spans are kept until `writeJsonl` at the end of the run.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const { return enabled_; }
  void setEnabled(bool on) { enabled_ = on; }

  /// Opens a span and returns its index (-1 when disabled).  The parent is
  /// the innermost span still open on the calling thread.
  std::int64_t open(const char* name, std::uint64_t request);
  void close(std::int64_t index);
  /// Records an already finished span with explicit times (asynchronous
  /// requests, whose start and end are seen at different places).
  void record(const char* name, Clock::time_point start, Clock::time_point end,
              std::int64_t parent, std::uint64_t request);

  /// Durations in ms of every closed span named `name`.
  [[nodiscard]] std::vector<double> durationsMs(const std::string& name) const;
  [[nodiscard]] std::size_t size() const;
  /// Writes one JSON object per span; returns false on I/O failure.
  bool writeJsonl(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

/// RAII span around one public call.
class Span {
 public:
  Span(Tracer& t, const char* name, std::uint64_t request = 0)
      : tracer_(t), index_(t.open(name, request)) {}
  ~Span() { tracer_.close(index_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  std::int64_t index_;
};

/// What one workload run produced.  `endToEnd` and `perLayer` are keyed by
/// the names in metrics.hpp; `exact` holds the seed-determined counters the
/// self-check compares across runs; `notes` are printed as plain lines
/// before the result line.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> endToEnd;
  std::map<std::string, double> perLayer;
  std::map<std::string, double> exact;
  std::vector<std::string> notes;
  std::vector<std::string> errors;  ///< wrong outputs, printed to stderr

  /// Records a failed output check; a wrong verdict fails the whole run.
  void fail(std::string what);
};

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string traceDir;  ///< where spans are written when trace is on
  std::string workDir;   ///< scratch files (snapshot directories)
};

}  // namespace perfbench
