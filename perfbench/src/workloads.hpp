#pragma once
// The three workloads and the layer probes they share.

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/fuzz_mutator.hpp"
#include "core/prover.hpp"
#include "core/verify_session.hpp"
#include "runtime/executor.hpp"

namespace perfbench {

RunResult runCertifyCold(const RunConfig& cfg);
RunResult runEditStream(const RunConfig& cfg);
RunResult runWireServe(const RunConfig& cfg);

/// Independent 64-bit seed for generator stream `stream`, element `index`
/// (splitmix64 over the run seed), so each input is reproducible on its own.
[[nodiscard]] std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t stream,
                                    std::uint64_t index);

/// Total encoded bytes of a labeling.
[[nodiscard]] std::size_t labelBytes(const std::vector<std::string>& labels);

/// A mutant of `honest` that classifyMutation calls malformed, or nullopt
/// if `attempts` random mutations found none.
[[nodiscard]] std::optional<std::string> malformedMutant(
    lanecert::FuzzMutator& mutator, std::string_view honest,
    std::string_view donor, int attempts = 64);

/// Raw samples of per-layer values, reduced to metrics at the end of a run:
/// times by their median, counts and ratios by their mean.
class LayerSamples {
 public:
  void add(const std::string& metric, double value) {
    samples_[metric].push_back(value);
  }
  /// Writes every collected metric into `out` (median for units ms/us,
  /// mean otherwise).
  void reduceInto(std::map<std::string, double>& out) const;

 private:
  std::map<std::string, std::vector<double>> samples_;
};

/// Byte split of a labeling by record kind, decoded from outside the
/// library (EdgeLabel::decode on every label).
struct CertSplit {
  double own = 0;
  double through = 0;
  double pointer = 0;
  double throughRecords = 0;
  double edges = 0;
};
[[nodiscard]] CertSplit splitCertificates(const std::vector<std::string>& labels);
void addCertSplit(const CertSplit& split, LayerSamples& layers);

/// Runs the prover head stage by stage (interval at t=nproc and t=1, lane
/// plan, construction, hierarchy) and the prover body over the prebuilt
/// plan at t=nproc and t=1, each inside a span.  Fails `result` unless the
/// body's labels equal `expected` (the one-call proveCore output).
void probeProverLayers(Tracer& tracer, const lanecert::Graph& g,
                       const lanecert::IdAssignment& ids,
                       const lanecert::Property& prop,
                       const std::vector<std::string>& expected,
                       std::uint64_t request, LayerSamples& layers,
                       RunResult& result);

/// Cold verifier sweeps at t=nproc and t=1 (fresh sessions) with the
/// sweep-cache counters, plus per-vertex CoreVerifierEngine::check times on
/// a seeded sample of vertices.  Fails `result` on any rejection.
void probeVerifierLayers(Tracer& tracer, const lanecert::Graph& g,
                         const lanecert::IdAssignment& ids,
                         const std::vector<std::string>& labels,
                         const lanecert::PropertyPtr& prop, std::uint64_t seed,
                         std::uint64_t request, LayerSamples& layers,
                         RunResult& result);

/// One edit batch through a session: applyEdits, then reverify of the
/// dirty rows, each inside a span, with their layer samples.
struct Reverified {
  lanecert::SimulationResult verdict;
  std::size_t dirty = 0;
  double cpuMs = 0;  ///< applyEdits + reverify, process CPU time
};
Reverified timedReverify(lanecert::VerifySession& session,
                         std::span<const lanecert::EdgeLabelEdit> edits,
                         lanecert::ParallelExecutor& exec, Tracer& tracer,
                         std::uint64_t request, LayerSamples& layers);

/// One timed edit batch, for the re-verify metrics.
struct BatchSample {
  double edits = 0;
  bool accepted = false;
  double cpuMs = 0;
};

/// CPU times of `batches`, in order.
[[nodiscard]] std::vector<double> batchTimes(const std::vector<BatchSample>& batches);

/// Edits per second of re-verify time, with every batch costed at the
/// median time of its kind (edit count and verdict) rather than at its own
/// time: a few slow batches move their kind's median little, where they
/// would move a plain sum.  (A plain edits / time ratio spread 0.18 and
/// 0.26 over two sets of ten certify-cold runs.)
[[nodiscard]] double editsPerSecond(const std::vector<BatchSample>& batches);

/// True when `verdict` rejects with both endpoints of every edge in
/// `edges` among its rejecting vertices.
[[nodiscard]] bool rejectsBothEnds(const lanecert::SimulationResult& verdict,
                                   const lanecert::Graph& g,
                                   std::span<const lanecert::EdgeId> edges);

/// Notes the traced run's median of a metric next to the untraced one's.
void noteOverhead(RunResult& result, const char* metric,
                  const std::vector<double>& untraced,
                  const std::vector<double>& traced);

/// The metrics every workload reports the same way: setup_s (see
/// setupSeconds), peak_rss_mb and ok_ratio.
void reportCommon(RunResult& result, const std::vector<double>& setupMs);

/// Sweep-cache ratios and counters of a session into `layers`.
void addSweepCacheStats(const lanecert::SweepCacheStats& stats,
                        LayerSamples& layers);

/// Writes the tracer's spans to <traceDir>/<workload>-<seed>.jsonl and
/// notes where they went.
void writeSpans(const Tracer& tracer, const RunConfig& cfg,
                const std::string& workload, RunResult& result);

/// Set-ups per run: the first is a warm-up (first touch of the heap, and
/// the burst of CPU steal a shared VM shows when it goes from idle to busy)
/// and is not counted; setup_s reports the median of the others, on the
/// process CPU clock like every other end-to-end time.  Four counted
/// set-ups: with two, certify-cold's setup_s spread 0.28 over five runs;
/// on the wall clock, wire-serve's (plan builds, snapshot writes, server
/// start) spread 0.25 over five.
inline constexpr int kSetupRepeats = 5;

/// Median of the set-up durations after the first, as the setup_s metric.
[[nodiscard]] inline double setupSeconds(const std::vector<double>& ms) {
  return median(std::vector<double>(ms.begin() + 1, ms.end())) / 1000.0;
}

}  // namespace perfbench
