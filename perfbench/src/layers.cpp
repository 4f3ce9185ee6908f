// Layer probes shared by the workloads: staged prover runs, cold sweeps,
// per-vertex checks and the certificate byte split.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string_view>

#include "core/records.hpp"
#include "core/verifier.hpp"
#include "klane/hierarchy.hpp"
#include "lane/embedding.hpp"
#include "lanewidth/lanewidth.hpp"
#include "pathwidth/pathwidth.hpp"
#include "pls/codec.hpp"
#include "runtime/executor.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace lanecert;

std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t stream,
                      std::uint64_t index) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream * 0xBF58476D1CE4E5B9ull +
                    index + 0x94D049BB133111EBull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::size_t labelBytes(const std::vector<std::string>& labels) {
  std::size_t total = 0;
  for (const std::string& l : labels) total += l.size();
  return total;
}

std::optional<std::string> malformedMutant(FuzzMutator& mutator,
                                           std::string_view honest,
                                           std::string_view donor,
                                           int attempts) {
  for (int i = 0; i < attempts; ++i) {
    std::string mutant = mutator.mutateRandom(honest, donor);
    if (classifyMutation(honest, mutant) == FuzzVerdictClass::kMalformed) {
      return mutant;
    }
  }
  return std::nullopt;
}

void LayerSamples::reduceInto(std::map<std::string, double>& out) const {
  for (const auto& [name, values] : samples_) {
    const bool isTime = name.size() > 3 &&
                        (name.find("_ms") != std::string::npos ||
                         name.find("_us") != std::string::npos);
    out[name] = isTime ? median(values) : mean(values);
  }
}

CertSplit splitCertificates(const std::vector<std::string>& labels) {
  CertSplit split;
  for (const std::string& bytes : labels) {
    const EdgeLabel label = EdgeLabel::decode(bytes);
    const std::size_t own = label.own.encoded().size();
    Encoder enc;
    label.pointer.encodeTo(enc);
    const std::size_t pointer = enc.take().size();
    split.own += static_cast<double>(own);
    split.pointer += static_cast<double>(pointer);
    split.through += static_cast<double>(bytes.size() - own - pointer);
    split.throughRecords += static_cast<double>(label.through.size());
  }
  split.edges = static_cast<double>(labels.size());
  return split;
}

void addCertSplit(const CertSplit& split, LayerSamples& layers) {
  if (split.edges == 0) return;
  layers.add("cert.own_bytes_per_edge", split.own / split.edges);
  layers.add("cert.through_bytes_per_edge", split.through / split.edges);
  layers.add("cert.pointer_bytes_per_edge", split.pointer / split.edges);
  layers.add("cert.through_records_per_edge",
             split.throughRecords / split.edges);
}

namespace {

double timedMs(Tracer& tracer, const char* span, std::uint64_t request,
               const std::function<void()>& call) {
  const auto t0 = Clock::now();
  {
    Span s(tracer, span, request);
    call();
  }
  return msSince(t0);
}

}  // namespace

void probeProverLayers(Tracer& tracer, const Graph& g, const IdAssignment& ids,
                       const Property& prop,
                       const std::vector<std::string>& expected,
                       std::uint64_t request, LayerSamples& layers,
                       RunResult& result) {
  ParallelExecutor exec(nproc());
  ParallelExecutor serial(1);
  ProvePlan plan;
  layers.add("pathwidth.interval_ms",
             timedMs(tracer, "pathwidth.interval", request, [&] {
               plan.rep = bestIntervalRepresentation(g, 18, &exec);
             }));
  IntervalRepresentation serialRep;
  layers.add("pathwidth.interval_ms_t1",
             timedMs(tracer, "pathwidth.interval_t1", request, [&] {
               serialRep = bestIntervalRepresentation(g, 18, nullptr);
             }));
  layers.add("lane.plan_ms", timedMs(tracer, "lane.plan", request, [&] {
               plan.plan = buildLanePlan(g, plan.rep);
             }));
  layers.add("lanewidth.construction_ms",
             timedMs(tracer, "lanewidth.construction", request, [&] {
               plan.seq = buildConstruction(g, plan.rep, plan.plan.lanes);
             }));
  layers.add("klane.hierarchy_ms",
             timedMs(tracer, "klane.hierarchy", request,
                     [&] { plan.hier = buildHierarchy(plan.seq); }));
  CoreProveResult body;
  layers.add("core.prove_body_ms",
             timedMs(tracer, "core.prove_body", request,
                     [&] { body = proveCore(g, ids, prop, plan, exec); }));
  CoreProveResult serialBody;
  layers.add("core.prove_body_ms_t1",
             timedMs(tracer, "core.prove_body_t1", request, [&] {
               serialBody = proveCore(g, ids, prop, plan, serial);
             }));
  ++result.attempted;
  if (body.labels != expected || serialBody.labels != expected) {
    result.fail("staged prover body differs from one-call proveCore output");
  }
  layers.add("core.width", body.stats.width);
  layers.add("core.lanes", body.stats.numLanes);
  layers.add("core.hierarchy_depth", body.stats.hierarchyDepth);
}

void addSweepCacheStats(const SweepCacheStats& stats, LayerSamples& layers) {
  const double hits = static_cast<double>(stats.hits + stats.memoHits);
  const double probes = hits + static_cast<double>(stats.misses);
  if (probes > 0) layers.add("core.sweep_cache_hit_ratio", hits / probes);
  layers.add("core.sweep_cache_entries", static_cast<double>(stats.entries));
  layers.add("core.stripe_contention",
             static_cast<double>(stats.stripeContention));
}

void probeVerifierLayers(Tracer& tracer, const Graph& g, const IdAssignment& ids,
                         const std::vector<std::string>& labels,
                         const PropertyPtr& prop, std::uint64_t seed,
                         std::uint64_t request, LayerSamples& layers,
                         RunResult& result) {
  for (const int threads : {nproc(), 1}) {
    VerifySession session(g, ids, labels, prop);
    ParallelExecutor exec(threads);
    SimulationResult sweep;
    const double ms = timedMs(
        tracer, threads == 1 ? "core.verify_sweep_t1" : "core.verify_sweep",
        request, [&] { sweep = session.verifyAll(exec); });
    layers.add(threads == 1 ? "core.verify_sweep_ms_t1" : "core.verify_sweep_ms",
               ms);
    ++result.attempted;
    if (!sweep.allAccept) result.fail("cold sweep rejected an honest labeling");
    if (threads != 1) addSweepCacheStats(session.cacheStats(), layers);
  }

  // Per-vertex local checks on a seeded sample, through a fresh engine.
  CoreVerifierEngine engine(prop);
  CoreVerifierEngine::ThreadState state;
  Rng rng(mixSeed(seed, 90, request));
  const int samples = std::min<int>(512, g.numVertices());
  std::vector<std::string_view> incident;
  std::vector<double> us;
  us.reserve(static_cast<std::size_t>(samples));
  for (int i = 0; i < samples; ++i) {
    const auto v = static_cast<VertexId>(rng.uniformInt(0, g.numVertices() - 1));
    incident.clear();
    for (const Arc& a : g.arcs(v)) {
      incident.push_back(labels[static_cast<std::size_t>(a.edge)]);
    }
    const EdgeView view{ids.id(v), incident};
    bool ok = false;
    const auto t0 = Clock::now();
    {
      Span s(tracer, "core.check", request);
      ok = engine.check(view, state);
    }
    us.push_back(msSince(t0) * 1000.0);
    ++result.attempted;
    if (!ok) result.fail("CoreVerifierEngine::check rejected an honest vertex");
  }
  layers.add("core.check_us_p50", percentile(us, 0.5));
  layers.add("core.check_us_p99", percentile(us, 0.99));
}

Reverified timedReverify(VerifySession& session,
                         std::span<const EdgeLabelEdit> edits,
                         ParallelExecutor& exec, Tracer& tracer,
                         std::uint64_t request, LayerSamples& layers) {
  Reverified out;
  const double c0 = processCpuMs();
  std::vector<VertexId> dirty;
  {
    Span span(tracer, "runtime.apply_edits", request);
    dirty = session.applyEdits(edits);
  }
  const double c1 = processCpuMs();
  {
    Span span(tracer, "core.reverify", request);
    out.verdict = session.reverify(dirty, exec);
  }
  const double c2 = processCpuMs();
  layers.add("runtime.apply_edits_us", (c1 - c0) * 1000.0);
  layers.add("core.reverify_us", (c2 - c1) * 1000.0);
  layers.add("core.dirty_vertices_per_batch", static_cast<double>(dirty.size()));
  out.dirty = dirty.size();
  out.cpuMs = c2 - c0;
  return out;
}

std::vector<double> batchTimes(const std::vector<BatchSample>& batches) {
  std::vector<double> out;
  out.reserve(batches.size());
  for (const BatchSample& b : batches) out.push_back(b.cpuMs);
  return out;
}

double editsPerSecond(const std::vector<BatchSample>& batches) {
  std::map<std::pair<double, bool>, std::vector<double>> kinds;
  double edits = 0;
  for (const BatchSample& b : batches) {
    kinds[{b.edits, b.accepted}].push_back(b.cpuMs);
    edits += b.edits;
  }
  double ms = 0;
  for (const auto& [kind, times] : kinds) {
    ms += median(times) * static_cast<double>(times.size());
  }
  return ms > 0 ? edits * 1000.0 / ms : 0;
}

bool rejectsBothEnds(const SimulationResult& verdict, const Graph& g,
                     std::span<const EdgeId> edges) {
  const auto rejects = [&](VertexId v) {
    return std::binary_search(verdict.rejecting.begin(), verdict.rejecting.end(), v);
  };
  bool ok = !verdict.allAccept;
  for (const EdgeId e : edges) {
    const Edge& ends = g.edge(e);
    ok = ok && rejects(ends.u) && rejects(ends.v);
  }
  return ok;
}

void noteOverhead(RunResult& result, const char* metric,
                  const std::vector<double>& untraced,
                  const std::vector<double>& traced) {
  char buf[160];
  const double a = median(untraced);
  const double b = median(traced);
  std::snprintf(buf, sizeof(buf),
                "trace-overhead %s untraced=%.3f traced=%.3f ratio=%.3f", metric,
                a, b, a > 0 ? b / a : 0.0);
  result.notes.push_back(buf);
}

void reportCommon(RunResult& result, const std::vector<double>& setupMs) {
  auto& m = result.endToEnd;
  m["setup_s"] = setupSeconds(setupMs);
  m["peak_rss_mb"] = peakRssMb();
  m["ok_ratio"] = static_cast<double>(result.attempted - result.failed) /
                  static_cast<double>(result.attempted);
}

void writeSpans(const Tracer& tracer, const RunConfig& cfg,
                const std::string& workload, RunResult& result) {
  if (cfg.traceDir.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(cfg.traceDir, ec);
  const std::string path = cfg.traceDir + "/" + workload + "-" +
                           std::to_string(cfg.seed) + ".jsonl";
  if (tracer.writeJsonl(path)) {
    result.notes.push_back("spans: " + std::to_string(tracer.size()) +
                           " written to " + path);
  } else {
    result.notes.push_back("spans: could not write " + path);
  }
}

}  // namespace perfbench
