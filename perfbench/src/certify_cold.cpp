// certify-cold: a closed loop, one request in flight, over a stream of
// distinct seeded graphs (k=2, n=4096, density 0.4, connectivity).  Per
// graph: proveCore with the interval representation computed, then a fresh
// VerifySession::verifyAll, then malformed edit batches of 1, 8 and 64
// edges (each must reject), their honest restores and four honest rewrites
// of 8 edges (each must accept) through the same session.
//
// Every graph is distinct, so no cache carries over between requests: the
// prover head and body, the records and the cold sweep do almost all the
// work, and serve and net do nothing.

#include <cstdio>
#include <string>

#include "graph/generators.hpp"
#include "mso/properties.hpp"
#include "runtime/executor.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace lanecert;

namespace {

constexpr VertexId kVertices = 4096;
constexpr int kPathwidth = 2;
constexpr double kDensity = 0.4;
/// The exact counters cover this prefix of the instance stream, which every
/// run completes whatever its length.
constexpr std::uint64_t kExactInstances = 16;
/// Instances the traced run also probes stage by stage.
constexpr std::uint64_t kLayerInstances = 2;
/// Sizes of the malformed edit batches (each followed by its restore)
/// checked per instance.  The 64-edge batches set reverify_p99_ms by their
/// work; with single-edge batches only, it read whichever calls a burst of
/// CPU steal happened to hit.
constexpr int kBatchSizes[] = {1, 8, 64};
/// Honest rewrites that follow the restores (labels sent again unchanged;
/// each must accept), kRewrites batches of kRewriteEdges edges.  A
/// malformed batch re-verifies in about a third of its restore's time
/// (0.8 against 2.4 ms at 8 edges), so the per-instance samples fall in
/// clusters with gaps between them.  With one rewrite, the median of an
/// instance's seven batches sat at the gap below the 8-edge honest cluster
/// and reverify_p50_ms spread 0.23-0.27 over ten runs; with four, five of
/// its ten batches cost what an 8-edge honest batch costs and the median
/// lies inside that cluster.
constexpr int kRewrites = 4;
constexpr int kRewriteEdges = 8;

struct Instance {
  Graph graph;
  IdAssignment ids;
};

Instance makeInstance(std::uint64_t seed, std::uint64_t stream,
                      std::uint64_t index) {
  Rng rng(mixSeed(seed, stream, index));
  Instance inst;
  inst.graph = randomBoundedPathwidth(kVertices, kPathwidth, kDensity, rng).graph;
  inst.ids = IdAssignment::identity(inst.graph.numVertices());
  return inst;
}

struct Samples {
  std::vector<double> prove, verify, req;
  std::vector<BatchSample> batches;
  std::uint64_t instances = 0;
};

struct Exact {
  double labelBytes = 0;
  double edges = 0;
  std::vector<double> maxBits;  ///< each graph's largest label
};

class CertifyCold {
 public:
  CertifyCold(const RunConfig& cfg, RunResult& result)
      : cfg_(cfg), result_(result), tracer_(false),
        prop_(propertyByName("connectivity")), exec_(nproc()) {}

  RunResult& run() {
    std::vector<double> setupMs;
    for (int k = 0; k < kSetupRepeats; ++k) {
      // The same graph on every seed, so setup_s times the same work.
      const Instance warm = makeInstance(0, 3, 0);
      Samples discard;
      const double c0 = processCpuMs();
      certify(warm, 0, discard, nullptr);
      setupMs.push_back(processCpuMs() - c0);
    }
    layers_ = LayerSamples{};

    Samples main;
    if (!cfg_.trace) {
      loop(cfg_.seconds, main);
      report(main, setupMs);
      return result_;
    }
    // Traced run: an untraced half, then a traced half over the continuing
    // stream (the overhead is their ratio), then the stage-by-stage probes.
    loop(cfg_.seconds / 2, main);
    tracer_.setEnabled(true);
    Samples traced;
    loop(cfg_.seconds / 2, traced);
    noteOverhead(result_, "prove_p50_ms", main.prove, traced.prove);
    noteOverhead(result_, "verify_p50_ms", main.verify, traced.verify);
    noteOverhead(result_, "reverify_p50_ms", batchTimes(main.batches),
                 batchTimes(traced.batches));
    noteOverhead(result_, "req_p50_ms", main.req, traced.req);
    for (std::uint64_t i = 0; i < kLayerInstances; ++i) {
      const Instance inst = makeInstance(cfg_.seed, 1, i);
      const std::vector<std::string>& labels = kept_[i];
      probeProverLayers(tracer_, inst.graph, inst.ids, *prop_, labels, i + 1,
                        layers_, result_);
      probeVerifierLayers(tracer_, inst.graph, inst.ids, labels, prop_,
                          cfg_.seed, i + 1, layers_, result_);
      const CertSplit split = splitCertificates(labels);
      addCertSplit(split, layers_);
      certSplit_.own += split.own;
      certSplit_.through += split.through;
      certSplit_.pointer += split.pointer;
      certSplit_.throughRecords += split.throughRecords;
      certSplit_.edges += split.edges;
    }
    layers_.reduceInto(result_.perLayer);
    result_.exact["cert.own_bytes"] = certSplit_.own;
    result_.exact["cert.through_bytes"] = certSplit_.through;
    result_.exact["cert.pointer_bytes"] = certSplit_.pointer;
    result_.exact["cert.through_records"] = certSplit_.throughRecords;
    writeExact();
    writeSpans(tracer_, cfg_, "certify-cold", result_);
    return result_;
  }

 private:
  void loop(double seconds, Samples& s) {
    const auto start = Clock::now();
    while (msSince(start) < seconds * 1000.0 || next_ < kExactInstances) {
      const Instance inst = makeInstance(cfg_.seed, 1, next_);
      certify(inst, next_ + 1, s, &exact_);
      ++next_;
    }
  }

  /// One certify request: prove, cold verify, then malformed batches and
  /// their restores, and honest rewrites, through the session.
  void certify(const Instance& inst, std::uint64_t request, Samples& s,
               Exact* exact) {
    const Graph& g = inst.graph;
    const std::uint64_t index = request == 0 ? 0 : request - 1;
    const bool counted = exact != nullptr && index < kExactInstances;
    Span reqSpan(tracer_, "certify.request", request);

    const double c0 = processCpuMs();
    CoreProveResult proved;
    {
      Span span(tracer_, "core.prove", request);
      proved = proveCore(g, inst.ids, *prop_, nullptr, nproc());
    }
    const double proveMs = processCpuMs() - c0;
    ++result_.attempted;
    if (!proved.propertyHolds ||
        proved.labels.size() != static_cast<std::size_t>(g.numEdges())) {
      result_.fail("certify-cold: prover refused a connected graph");
      return;
    }
    if (counted) {
      exact->labelBytes += static_cast<double>(labelBytes(proved.labels));
      exact->edges += g.numEdges();
      exact->maxBits.push_back(static_cast<double>(proved.stats.maxLabelBits));
      exact_.width.push_back(proved.stats.width);
      exact_.lanes.push_back(proved.stats.numLanes);
      exact_.depth.push_back(proved.stats.hierarchyDepth);
    }
    if (cfg_.trace && exact != nullptr && index < kLayerInstances &&
        kept_.size() == index) {
      kept_.push_back(proved.labels);
    }

    // Edit sites are drawn, and their honest bytes kept, before the labels
    // move into the session.
    Rng rng(mixSeed(cfg_.seed, 2, index));
    std::vector<std::string> donors;
    const auto honestBatch = [&](int size) {
      std::vector<EdgeLabelEdit> batch;
      while (static_cast<int>(batch.size()) < size) {
        const auto edge = static_cast<EdgeId>(rng.uniformInt(0, g.numEdges() - 1));
        bool dup = false;
        for (const EdgeLabelEdit& e : batch) dup = dup || e.edge == edge;
        if (dup) continue;
        batch.push_back({edge, proved.labels[static_cast<std::size_t>(edge)]});
        donors.push_back(proved.labels[static_cast<std::size_t>(
            rng.uniformInt(0, g.numEdges() - 1))]);
      }
      return batch;
    };
    std::vector<std::vector<EdgeLabelEdit>> restores;
    for (const int size : kBatchSizes) restores.push_back(honestBatch(size));
    std::vector<std::vector<EdgeLabelEdit>> rewrites;
    for (int r = 0; r < kRewrites; ++r) rewrites.push_back(honestBatch(kRewriteEdges));

    const double c1 = processCpuMs();
    std::optional<VerifySession> session;
    SimulationResult sweep;
    {
      Span span(tracer_, "core.verify", request);
      session.emplace(g, inst.ids, std::move(proved.labels), prop_);
      sweep = session->verifyAll(exec_);
    }
    const double verifyMs = processCpuMs() - c1;
    const double reqMs = proveMs + verifyMs;
    ++result_.attempted;
    if (!sweep.allAccept) result_.fail("certify-cold: honest proof rejected");

    FuzzMutator mutator(mixSeed(cfg_.seed, 4, index));
    std::size_t donor = 0;
    for (const std::vector<EdgeLabelEdit>& restore : restores) {
      std::vector<EdgeLabelEdit> corrupt;
      for (const EdgeLabelEdit& e : restore) {
        if (auto mutant = malformedMutant(mutator, e.bytes, donors[donor++])) {
          corrupt.push_back({e.edge, std::move(*mutant)});
        } else {
          ++noMutant_;
        }
      }
      if (corrupt.empty()) continue;
      const SimulationResult bad = reverify(*session, corrupt, request, s);
      ++result_.attempted;
      std::vector<EdgeId> malformed;
      for (const EdgeLabelEdit& e : corrupt) malformed.push_back(e.edge);
      if (!rejectsBothEnds(bad, g, malformed)) {
        result_.fail("certify-cold: malformed mutant accepted");
      }
      layers_.add("core.corrupt_reject_share", bad.allAccept ? 0.0 : 1.0);
      const SimulationResult good = reverify(*session, restore, request, s);
      ++result_.attempted;
      if (!good.allAccept) result_.fail("certify-cold: honest restore rejected");
    }
    for (const std::vector<EdgeLabelEdit>& rewrite : rewrites) {
      const SimulationResult same = reverify(*session, rewrite, request, s);
      ++result_.attempted;
      if (!same.allAccept) result_.fail("certify-cold: honest rewrite rejected");
    }
    layers_.add("runtime.epoch_slots", static_cast<double>(session->epochSlots()));

    s.prove.push_back(proveMs);
    s.verify.push_back(verifyMs);
    s.req.push_back(reqMs);
    ++s.instances;
  }

  SimulationResult reverify(VerifySession& session,
                            const std::vector<EdgeLabelEdit>& edits,
                            std::uint64_t request, Samples& s) {
    Reverified r = timedReverify(session, edits, exec_, tracer_, request, layers_);
    s.batches.push_back({static_cast<double>(edits.size()), r.verdict.allAccept, r.cpuMs});
    return std::move(r.verdict);
  }

  void writeExact() {
    result_.exact["label_bytes"] = exact_.labelBytes;
    result_.exact["label_bits_max"] = median(exact_.maxBits);
    result_.exact["edges"] = exact_.edges;
    result_.exact["core.width"] = mean(exact_.width);
    result_.exact["core.lanes"] = mean(exact_.lanes);
    result_.exact["core.hierarchy_depth"] = mean(exact_.depth);
    if (noMutant_ > 0) {
      result_.notes.push_back("edits without a malformed mutant: " +
                              std::to_string(noMutant_));
    }
  }

  void report(const Samples& s, const std::vector<double>& setupMs) {
    writeExact();
    auto& m = result_.endToEnd;
    const std::vector<double> reverifyMs = batchTimes(s.batches);
    double reqMs = 0;
    for (double x : s.req) reqMs += x;
    reportCommon(result_, setupMs);
    m["prove_p50_ms"] = percentile(s.prove, 0.5);
    m["prove_p90_ms"] = percentile(s.prove, 0.9);
    m["verify_p50_ms"] = percentile(s.verify, 0.5);
    m["verify_p90_ms"] = percentile(s.verify, 0.9);
    m["label_bytes_per_edge"] = exact_.labelBytes / exact_.edges;
    m["label_bits_max"] = median(exact_.maxBits);
    m["reverify_p50_ms"] = percentile(reverifyMs, 0.5);
    m["reverify_p99_ms"] = percentile(reverifyMs, 0.99);
    m["edits_per_s"] = editsPerSecond(s.batches);
    m["req_p50_ms"] = percentile(s.req, 0.5);
    m["req_p99_ms"] = percentile(s.req, 0.99);
    m["max_rate_rps"] =
        reqMs > 0 ? static_cast<double>(s.instances) * 1000.0 / reqMs : 0;
    result_.notes.push_back("certify-cold: " + std::to_string(s.instances) +
                            " instances, " + std::to_string(s.batches.size()) +
                            " reverify samples");
  }

  struct ExactTotals : Exact {
    std::vector<double> width, lanes, depth;
  };

  const RunConfig& cfg_;
  RunResult& result_;
  Tracer tracer_;
  PropertyPtr prop_;
  ParallelExecutor exec_;
  LayerSamples layers_;
  ExactTotals exact_;
  CertSplit certSplit_;
  std::vector<std::vector<std::string>> kept_;
  std::uint64_t next_ = 0;
  std::uint64_t noMutant_ = 0;
};

}  // namespace

RunResult runCertifyCold(const RunConfig& cfg) {
  RunResult result;
  CertifyCold(cfg, result).run();
  return result;
}

}  // namespace perfbench
