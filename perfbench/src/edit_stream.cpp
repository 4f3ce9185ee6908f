// edit-stream: one long-lived VerifySession over n=16384 (k=2,
// connectivity).  Set-up proves and runs the first sweep, and the first
// half of the measured time repeats that (the cold stretch); then a closed
// loop of edit batches of 1 to 64 edges (log-uniform) alternates a
// structure-aware corruption (FuzzMutator) with the honest restore, each
// followed by a re-verification of the dirty rows.
//
// Label-store writes run next to reads over a warm sweep cache.  The edit
// loop does no proving, so a prover change must predict no change on the
// re-verify metrics; reject-heavy batches also time the exception path.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "graph/generators.hpp"
#include "mso/properties.hpp"
#include "runtime/executor.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace lanecert;

namespace {

constexpr VertexId kVertices = 16384;
constexpr int kPathwidth = 2;
constexpr double kDensity = 0.4;
/// Batch sizes are log-uniform over 1..2^kLogMaxBatch edges (1 to 64).
/// With sizes cycling through 1, 8 and 64, half the batches were malformed
/// ones that re-verify in about a third of their restore's time, so the
/// batch times fell in six clusters and their median lay in the gap
/// between the 8-edge malformed batches and their restores (0.8 against
/// 2.4 ms): reverify_p50_ms spread 0.25 over five runs.  Log-uniform sizes
/// spread the times without gaps.
constexpr double kLogMaxBatch = 6;
/// Set-ups per run, fewer than the other workloads' (each proves and
/// sweeps n=16384 for about 5 s); the first is a warm-up.
constexpr int kSetups = 4;
/// Share of the measured time spent repeating the set-up's prove and first
/// sweep (the cold stretch) before the edit loop.  prove_* and verify_*
/// come from these cycles and the counted set-ups, five or six of each a
/// run.  The same graph's cold sweep took 1450 to 2120 ms of CPU within
/// one run, and with the three set-ups' sweeps alone verify_p50_ms spread
/// 0.14-0.19 over five runs.
constexpr double kColdShare = 0.5;
/// Exact counters cover this prefix of the batch stream (always completed).
constexpr std::uint64_t kExactBatches = 300;

struct Samples {
  std::vector<BatchSample> batches;
  std::vector<double> rounds;
  double cpuMs = 0;  ///< sum of the batches' times
};

class EditStream {
 public:
  EditStream(const RunConfig& cfg, RunResult& result)
      : cfg_(cfg), result_(result), tracer_(false),
        prop_(propertyByName("connectivity")), exec_(nproc()) {
    Rng rng(mixSeed(cfg.seed, 1, 0));
    graph_ = randomBoundedPathwidth(kVertices, kPathwidth, kDensity, rng).graph;
    ids_ = IdAssignment::identity(graph_.numVertices());
  }

  RunResult& run() {
    std::vector<double> setupMs;
    for (int k = 0; k < kSetups; ++k) {
      session_.reset();  // one graph's labels in memory at a time
      setupMs.push_back(setUp());
    }

    Samples main;
    if (!cfg_.trace) {
      const auto start = Clock::now();
      while (msSince(start) < cfg_.seconds * kColdShare * 1000.0) {
        session_.reset();
        (void)setUp();
      }
      loop(cfg_.seconds * (1 - kColdShare), main);
      report(main, setupMs);
      return result_;
    }
    loop(cfg_.seconds / 2, main);
    tracer_.setEnabled(true);
    Samples traced;
    loop(cfg_.seconds / 2, traced);
    noteOverhead(result_, "reverify_p50_ms", batchTimes(main.batches),
                 batchTimes(traced.batches));
    noteOverhead(result_, "req_p50_ms", main.rounds, traced.rounds);
    addSweepCacheStats(session_->cacheStats(), layers_);
    layers_.add("runtime.epoch_slots", static_cast<double>(session_->epochSlots()));

    // Stage-by-stage probes of the set-up's prove and sweep.
    std::vector<std::string> labels(static_cast<std::size_t>(graph_.numEdges()));
    session_.reset();
    {
      CoreProveResult proved = proveCore(graph_, ids_, *prop_, nullptr, nproc());
      labels = std::move(proved.labels);
    }
    probeProverLayers(tracer_, graph_, ids_, *prop_, labels, 1, layers_, result_);
    probeVerifierLayers(tracer_, graph_, ids_, labels, prop_, cfg_.seed, 1,
                        layers_, result_);
    const CertSplit split = splitCertificates(labels);
    addCertSplit(split, layers_);
    result_.exact["cert.own_bytes"] = split.own;
    result_.exact["cert.through_bytes"] = split.through;
    result_.exact["cert.pointer_bytes"] = split.pointer;
    result_.exact["cert.through_records"] = split.throughRecords;
    writeExact();
    layers_.reduceInto(result_.perLayer);
    writeSpans(tracer_, cfg_, "edit-stream", result_);
    return result_;
  }

 private:
  /// Prove + first sweep; returns their CPU time in ms.
  double setUp() {
    const double c0 = processCpuMs();
    CoreProveResult proved =
        proveCore(graph_, ids_, *prop_, nullptr, nproc());
    proveMs_.push_back(processCpuMs() - c0);
    ++result_.attempted;
    if (!proved.propertyHolds ||
        proved.labels.size() != static_cast<std::size_t>(graph_.numEdges())) {
      throw std::runtime_error("edit-stream: prover refused a connected graph");
    }
    labelBytes_ = static_cast<double>(labelBytes(proved.labels));
    maxBits_ = static_cast<double>(proved.stats.maxLabelBits);
    stats_ = proved.stats;
    const double c1 = processCpuMs();
    session_.emplace(graph_, ids_, std::move(proved.labels), prop_);
    const SimulationResult sweep = session_->verifyAll(exec_);
    verifyMs_.push_back(processCpuMs() - c1);
    ++result_.attempted;
    if (!sweep.allAccept) result_.fail("edit-stream: honest proof rejected");
    return processCpuMs() - c0;
  }

  void loop(double seconds, Samples& s) {
    const auto start = Clock::now();
    while (msSince(start) < seconds * 1000.0 || batches_ < kExactBatches) {
      round(s);
    }
  }

  /// One corruption batch and its honest restore.
  void round(Samples& s) {
    const std::uint64_t request = ++rounds_;
    Rng rng(mixSeed(cfg_.seed, 2, request));
    const auto size =
        static_cast<int>(std::lround(std::exp2(kLogMaxBatch * rng.uniformReal())));
    FuzzMutator mutator(mixSeed(cfg_.seed, 3, request));
    const int m = graph_.numEdges();

    std::vector<EdgeId> edges;
    while (static_cast<int>(edges.size()) < size) {
      const auto e = static_cast<EdgeId>(rng.uniformInt(0, m - 1));
      if (std::find(edges.begin(), edges.end(), e) == edges.end()) {
        edges.push_back(e);
      }
    }
    std::vector<EdgeLabelEdit> corrupt, restore;
    std::vector<EdgeId> malformed;
    bool allNoop = true;
    for (const EdgeId e : edges) {
      std::string honest(session_->label(e));
      const auto donorEdge = static_cast<EdgeId>(rng.uniformInt(0, m - 1));
      std::string mutant =
          mutator.mutateRandom(honest, session_->label(donorEdge));
      const FuzzVerdictClass kind = classifyMutation(honest, mutant);
      if (kind == FuzzVerdictClass::kMalformed) malformed.push_back(e);
      if (kind != FuzzVerdictClass::kNoop) allNoop = false;
      corrupt.push_back({e, std::move(mutant)});
      restore.push_back({e, std::move(honest)});
    }

    Span roundSpan(tracer_, "edit.round", request);
    const double roundStart = s.cpuMs;
    const SimulationResult bad = apply(corrupt, request, s);
    ++result_.attempted;
    if (!malformed.empty()) {
      if (!rejectsBothEnds(bad, graph_, malformed)) {
        result_.fail("edit-stream: malformed mutant accepted");
      }
    } else if (allNoop && !bad.allAccept) {
      result_.fail("edit-stream: no-op mutant changed the verdict");
    }
    const SimulationResult good = apply(restore, request, s);
    ++result_.attempted;
    if (!good.allAccept) result_.fail("edit-stream: honest restore rejected");
    s.rounds.push_back(s.cpuMs - roundStart);

    if (batches_ < kExactBatches) {
      ++corruptBatches_;
      if (!bad.allAccept) ++rejectedBatches_;
    }
    layers_.add("core.corrupt_reject_share", bad.allAccept ? 0.0 : 1.0);
  }

  SimulationResult apply(const std::vector<EdgeLabelEdit>& edits,
                         std::uint64_t request, Samples& s) {
    Reverified r = timedReverify(*session_, edits, exec_, tracer_, request, layers_);
    if (batches_ < kExactBatches) dirtyTotal_ += static_cast<double>(r.dirty);
    ++batches_;
    s.batches.push_back({static_cast<double>(edits.size()), r.verdict.allAccept, r.cpuMs});
    s.cpuMs += r.cpuMs;
    return std::move(r.verdict);
  }

  void writeExact() {
    result_.exact["label_bytes"] = labelBytes_;
    result_.exact["label_bits_max"] = maxBits_;
    result_.exact["edges"] = graph_.numEdges();
    result_.exact["core.width"] = stats_.width;
    result_.exact["core.lanes"] = stats_.numLanes;
    result_.exact["core.hierarchy_depth"] = stats_.hierarchyDepth;
    result_.exact["core.dirty_vertices_per_batch"] =
        dirtyTotal_ / static_cast<double>(kExactBatches);
    result_.exact["core.corrupt_reject_share"] =
        corruptBatches_ == 0 ? 0.0
                             : static_cast<double>(rejectedBatches_) /
                                   static_cast<double>(corruptBatches_);
  }

  void report(const Samples& s, const std::vector<double>& setupMs) {
    writeExact();
    const double reverifyMs = s.cpuMs;
    auto& m = result_.endToEnd;
    reportCommon(result_, setupMs);
    // Every prove and sweep after the warm-up set-up's.
    const std::vector<double> prove(proveMs_.begin() + 1, proveMs_.end());
    const std::vector<double> verify(verifyMs_.begin() + 1, verifyMs_.end());
    m["prove_p50_ms"] = percentile(prove, 0.5);
    m["prove_p90_ms"] = percentile(prove, 0.9);
    m["verify_p50_ms"] = percentile(verify, 0.5);
    m["verify_p90_ms"] = percentile(verify, 0.9);
    m["label_bytes_per_edge"] = labelBytes_ / graph_.numEdges();
    m["label_bits_max"] = maxBits_;
    const std::vector<double> batchMs = batchTimes(s.batches);
    m["reverify_p50_ms"] = percentile(batchMs, 0.5);
    m["reverify_p99_ms"] = percentile(batchMs, 0.99);
    m["edits_per_s"] = editsPerSecond(s.batches);
    m["req_p50_ms"] = percentile(s.rounds, 0.5);
    m["req_p99_ms"] = percentile(s.rounds, 0.99);
    m["max_rate_rps"] =
        reverifyMs > 0
            ? static_cast<double>(s.batches.size()) * 1000.0 / reverifyMs
            : 0;
    result_.notes.push_back("edit-stream: " + std::to_string(s.batches.size()) +
                            " batches, " + std::to_string(s.rounds.size()) +
                            " rounds");
  }

  const RunConfig& cfg_;
  RunResult& result_;
  Tracer tracer_;
  PropertyPtr prop_;
  ParallelExecutor exec_;
  Graph graph_;
  IdAssignment ids_;
  std::optional<VerifySession> session_;
  LayerSamples layers_;
  CoreProveStats stats_;
  std::vector<double> proveMs_, verifyMs_;
  double labelBytes_ = 0;
  double maxBits_ = 0;
  std::uint64_t rounds_ = 0;
  std::uint64_t batches_ = 0;
  std::uint64_t corruptBatches_ = 0;
  std::uint64_t rejectedBatches_ = 0;
  double dirtyTotal_ = 0;
};

}  // namespace

RunResult runEditStream(const RunConfig& cfg) {
  RunResult result;
  EditStream(cfg, result).run();
  return result;
}

}  // namespace perfbench
