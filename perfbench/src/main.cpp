// lanecert_perfbench — runs one benchmark workload and prints its metrics.
//
//   lanecert_perfbench --workload certify-cold|edit-stream|wire-serve
//                      --seed N --seconds S --trace 0|1 [--trace-dir DIR]
//                      [--work-dir DIR]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics (the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1).  The line before it,
// prefixed "exact ", lists the seed-determined counters.  A wrong verdict
// or certificate mismatch makes the run exit 1 after printing its result.

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <string>
#include <utility>

#include "common.hpp"
#include "metrics.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

std::string number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

template <std::size_t N>
std::string metricsJson(const std::array<MetricSpec, N>& specs,
                        const std::map<std::string, double>& values,
                        bool requireAll, std::string* missing) {
  std::string out = "{";
  bool first = true;
  for (const MetricSpec& spec : specs) {
    const auto it = values.find(std::string(spec.name));
    if (it == values.end() && requireAll) {
      if (!missing->empty()) *missing += ", ";
      *missing += spec.name;
    }
    const double v = it == values.end() ? 0.0 : it->second;
    if (!first) out += ", ";
    first = false;
    out += "\"" + std::string(spec.name) + "\": {\"value\": " + number(v) +
           ", \"unit\": \"" + std::string(spec.unit) + "\"}";
  }
  return out + "}";
}

std::string exactJson(const std::map<std::string, double>& exact) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, v] : exact) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": " + number(v);
  }
  return out + "}";
}

/// (all, steal) jiffies summed over CPUs from /proc/stat; zeros elsewhere.
std::pair<double, double> cpuJiffies() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return {0, 0};
  double v[8] = {};
  const int got = std::fscanf(f, "cpu %lf %lf %lf %lf %lf %lf %lf %lf", &v[0],
                              &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  if (got != 8) return {0, 0};
  double all = 0;
  for (double x : v) all += x;
  return {all, v[7]};
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: lanecert_perfbench --workload certify-cold|edit-stream|"
               "wire-serve --seed N --seconds S --trace 0|1 "
               "[--trace-dir DIR] [--work-dir DIR]\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) usage();
    const std::string flag = argv[i];
    const char* value = argv[++i];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      cfg.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      cfg.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--trace-dir") {
      cfg.traceDir = value;
    } else if (flag == "--work-dir") {
      cfg.workDir = value;
    } else {
      usage();
    }
  }
  if (cfg.seconds <= 0) usage();

  RunResult result;
  const auto cpuBefore = cpuJiffies();
  try {
    if (workload == "certify-cold") {
      result = runCertifyCold(cfg);
    } else if (workload == "edit-stream") {
      result = runEditStream(cfg);
    } else if (workload == "wire-serve") {
      result = runWireServe(cfg);
    } else {
      usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lanecert_perfbench: %s failed: %s\n",
                 workload.c_str(), e.what());
    return 1;
  }

  // Time the hypervisor gave this machine's CPUs to others: the usual
  // cause of a run whose timings stand apart from its neighbours'.
  const auto cpuAfter = cpuJiffies();
  if (cpuAfter.first > cpuBefore.first) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "cpu-steal %.2f%%",
                  100.0 * (cpuAfter.second - cpuBefore.second) /
                      (cpuAfter.first - cpuBefore.first));
    result.notes.push_back(buf);
  }
  for (const std::string& note : result.notes) {
    std::printf("%s\n", note.c_str());
  }
  for (const std::string& err : result.errors) {
    std::fprintf(stderr, "WRONG OUTPUT: %s\n", err.c_str());
  }
  std::string missing;
  const std::string metrics =
      cfg.trace ? metricsJson(kPerLayer, result.perLayer, false, &missing)
                : metricsJson(kEndToEnd, result.endToEnd, true, &missing);
  if (!missing.empty()) {
    std::fprintf(stderr, "lanecert_perfbench: %s did not measure: %s\n",
                 workload.c_str(), missing.c_str());
    return 1;
  }
  if (result.attempted == 0) {
    std::fprintf(stderr, "lanecert_perfbench: no operation attempted\n");
    return 1;
  }
  std::printf("exact %s\n", exactJson(result.exact).c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      result.correct ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed), metrics.c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
