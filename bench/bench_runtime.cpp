// Experiment E4: prover and verifier running time vs n at fixed k.
// Both should scale near-linearly (the per-vertex verifier does constant
// work for fixed k; the prover is dominated by the Prop 4.6/5.6 pipeline).
//
// BM_VerifierThreads adds the parallel dimension: the verifier is strictly
// local, so the sweep shards vertices over a thread pool and should scale
// near-linearly in cores (see bench/README.md for the measurement recipe).

#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/algebra.hpp"
#include "core/prover.hpp"
#include "core/scheme.hpp"
#include "core/verify_session.hpp"
#include "graph/generators.hpp"
#include "mso/properties.hpp"
#include "pls/pointer.hpp"
#include "runtime/label_index.hpp"
#include "serve/service.hpp"

namespace {

using namespace lanecert;

struct Instance {
  Graph g;
  IntervalRepresentation rep;
  IdAssignment ids;
};

Instance instance(int k, int n) {
  Rng rng(41);
  auto bp = randomBoundedPathwidth(n, k, 0.4, rng);
  Instance out{std::move(bp.graph),
               IntervalRepresentation::fromPairs(bp.intervals),
               IdAssignment::random(n, 13)};
  return out;
}

void BM_Prover(benchmark::State& state) {
  const auto inst = instance(2, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    const auto r = proveCore(inst.g, inst.ids, *makeConnectivity(), &inst.rep);
    benchmark::DoNotOptimize(r.labels);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Prover)->RangeMultiplier(4)->Range(64, 4096)
    ->Unit(benchmark::kMillisecond)->Complexity();

void BM_ProverThreads(benchmark::State& state) {
  // Fixed n, sweeping the prover's numThreads knob: the hom-state waves,
  // record encoding, and label assembly all shard over the deterministic
  // executor, so wall time should drop near-linearly in cores (results are
  // bit-identical for every t; tests/test_prover_par.cpp asserts that).
  const auto inst = instance(2, 4096);
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const auto r =
        proveCore(inst.g, inst.ids, *makeConnectivity(), &inst.rep, threads);
    benchmark::DoNotOptimize(r.labels);
  }
  state.counters["threads"] = static_cast<double>(threads);
}
BENCHMARK(BM_ProverThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_ProverHead(benchmark::State& state) {
  // The prover's serial head in isolation: interval representation (given)
  // -> lane plan -> construction sequence -> hierarchy, plus the Prop 2.2
  // pointer BFS.  This was the Amdahl limit once the waves scaled;
  // BENCH_prover_head.json archives the single-thread head cost itself
  // (epoch-stamped plan-builder lookups, O(subtree) T-node wraps, deferred
  // terminal materialization).
  const auto inst = instance(2, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    const ProvePlan plan = buildProvePlan(inst.g, &inst.rep);
    const auto ptr = provePointer(inst.g, inst.ids, plan.seq.initialPath[0]);
    benchmark::DoNotOptimize(plan.hier);
    benchmark::DoNotOptimize(ptr);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ProverHead)->Arg(1024)->Arg(4096)->Unit(benchmark::kMillisecond);

void BM_ProverArena(benchmark::State& state) {
  // The single-thread allocation dimension at the BENCH_prover.json sizes:
  // flat CSR subtree storage + arena scratch + cached entry encodings vs
  // the PR 1 baseline's map-backed, re-encoding prover (see
  // bench/BENCH_prover.json for the recorded before/after wall times).
  const auto inst = instance(2, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    const auto r =
        proveCore(inst.g, inst.ids, *makeConnectivity(), &inst.rep, 1);
    benchmark::DoNotOptimize(r.labels);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ProverArena)->Arg(1024)->Arg(4096)
    ->Unit(benchmark::kMillisecond);

void BM_Verifier(benchmark::State& state) {
  const auto inst = instance(2, static_cast<int>(state.range(0)));
  const auto proved = proveCore(inst.g, inst.ids, *makeConnectivity(), &inst.rep);
  for (auto _ : state) {
    // Fresh verifier per iteration: a ONE-SHOT sweep with a cold sweep
    // cache, the simulateEdgeScheme caller's cost.  (The cache still pays
    // off within the single sweep — upper chain entries are shared by most
    // vertices; warm REPEAT sweeps are what BM_Reverify's session
    // measures.)
    const auto verifier = makeCoreVerifier(makeConnectivity());
    const auto res = simulateEdgeScheme(inst.g, inst.ids, proved.labels, verifier);
    benchmark::DoNotOptimize(res.allAccept);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Verifier)->RangeMultiplier(4)->Range(64, 4096)
    ->Unit(benchmark::kMillisecond)->Complexity();

void BM_VerifierThreads(benchmark::State& state) {
  // Fixed n, sweeping the numThreads knob: per-vertex checks are
  // independent, so throughput should scale near-linearly in cores.
  const auto inst = instance(2, 4096);
  const auto proved = proveCore(inst.g, inst.ids, *makeConnectivity(), &inst.rep);
  const SimulationOptions opts{static_cast<int>(state.range(0))};
  for (auto _ : state) {
    const auto verifier = makeCoreVerifier(makeConnectivity());  // cold cache
    const auto res =
        simulateEdgeScheme(inst.g, inst.ids, proved.labels, verifier, opts);
    benchmark::DoNotOptimize(res.allAccept);
  }
  state.counters["threads"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_VerifierThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_SessionCacheStats(benchmark::State& state) {
  // Sweep-cache behaviour at thread scale: a warm LaneCertService verify
  // session absorbing edit batches that dirty 1/16 of the edges per
  // iteration, with the pool sized by arg 0.  Wall time is secondary; what
  // the thread-scaling CI job archives is the counters — memo_hits should
  // dominate (reads take no stripe lock), and stripe_contention measures
  // how often concurrent probes actually collided on a stripe.  Flat
  // contention from t=8 to t=16 is the evidence that the striped cache,
  // not the locks, carries the scaling.
  const auto inst = instance(2, 1024);
  const auto proved =
      proveCore(inst.g, inst.ids, *makeConnectivity(), &inst.rep);

  serve::ServiceOptions opts;
  opts.numThreads = static_cast<int>(state.range(0));
  opts.enableResultCache = false;  // measure sweeps, not replay
  serve::LaneCertService service(opts);
  const std::uint64_t sid = service.openVerifySession(serve::VerifyJob{
      inst.g, inst.ids,
      std::make_shared<const std::vector<std::string>>(proved.labels),
      makeConnectivity(), {}});
  service.submitReverify(serve::ReverifyJob{sid, {}}).get();  // warm sweep

  const auto m = static_cast<std::size_t>(inst.g.numEdges());
  std::uint64_t round = 0;
  for (auto _ : state) {
    // Corrupt every 16th label on even rounds, restore on odd: each batch
    // re-verifies the dirty rows concurrently across the pool, probing the
    // shared sweep cache from every worker.
    const bool corrupt = (round % 2) == 0;
    std::vector<EdgeLabelEdit> batch;
    for (std::size_t e = (round / 2) % 16; e < m; e += 16) {
      const std::string& honest = proved.labels[e];
      batch.push_back({static_cast<EdgeId>(e),
                       corrupt ? honest + "x" : honest});
    }
    const auto res =
        service.submitReverify(serve::ReverifyJob{sid, std::move(batch)})
            .get();
    if (corrupt == res.allAccept) {
      state.SkipWithError(corrupt ? "corrupt batch accepted"
                                  : "restore batch rejected");
      break;
    }
    ++round;
  }
  service.drain();

  const SweepCacheStats cs = service.sessionCacheStats(sid);
  const double probes = static_cast<double>(cs.hits + cs.misses + cs.memoHits);
  state.counters["threads"] = static_cast<double>(state.range(0));
  state.counters["memo_hits"] = static_cast<double>(cs.memoHits);
  state.counters["stripe_contention"] = static_cast<double>(cs.stripeContention);
  state.counters["cache_hit_rate"] =
      probes > 0 ? static_cast<double>(cs.hits + cs.memoHits) / probes : 0.0;
  state.counters["cache_entries"] = static_cast<double>(cs.entries);
  service.closeVerifySession(sid);
}
BENCHMARK(BM_SessionCacheStats)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_Reverify(benchmark::State& state) {
  // Incremental re-verification: a warm VerifySession absorbing edit
  // batches that touch a fraction of the edges (arg 1, in permille), vs
  // BM_Verifier's full sweep at the same n (arg 0).  Each iteration flips
  // one byte of every touched label — size-preserving after the first
  // batch, so steady state exercises the in-place store path — and
  // re-checks only the dirty endpoints.  BENCH_reverify.json archives the
  // wall times; the 1%-dirty point at n = 4096 is the acceptance gate
  // (>= 5x over the full sweep).
  const auto inst = instance(2, static_cast<int>(state.range(0)));
  const auto proved =
      proveCore(inst.g, inst.ids, *makeConnectivity(), &inst.rep);
  VerifySession session(inst.g, inst.ids, proved.labels, makeConnectivity());
  (void)session.verifyAll(1);  // warm sweep, untimed

  const auto m = static_cast<std::size_t>(inst.g.numEdges());
  const auto permille = static_cast<std::size_t>(state.range(1));
  const std::size_t dirtyEdges =
      std::max<std::size_t>(1, m * permille / 1000);
  std::vector<EdgeLabelEdit> batch;
  const std::size_t stride = m / dirtyEdges;
  for (std::size_t i = 0; i < dirtyEdges; ++i) {
    const auto e = static_cast<EdgeId>(i * stride);
    batch.push_back(EdgeLabelEdit{
        e, proved.labels[static_cast<std::size_t>(e)]});
  }
  // Untimed warm batch: the first sweep and the first rewrite of each
  // touched label happen here, so the timed loop measures the steady
  // state — in-place rewrites + dirty-row re-verification.
  (void)session.reverifyEdits(batch, 1);
  for (auto _ : state) {
    for (EdgeLabelEdit& ed : batch) ed.bytes[0] ^= 0x01;  // corrupt / restore
    const auto res = session.reverifyEdits(batch, 1);
    benchmark::DoNotOptimize(res.allAccept);
  }
  state.counters["dirty_edges"] = static_cast<double>(dirtyEdges);
}
BENCHMARK(BM_Reverify)
    ->Args({1024, 1})
    ->Args({1024, 10})
    ->Args({1024, 100})
    ->Args({1024, 1000})
    ->Args({4096, 1})
    ->Args({4096, 10})
    ->Args({4096, 100})
    ->Args({4096, 1000})
    ->Unit(benchmark::kMillisecond);

void BM_AlgebraFold(benchmark::State& state) {
  // The lane-algebra microbench: the baseP replay and the parentMerge fold
  // in isolation, over a synthetic chain at the arg'd lane width.  These
  // two folds are exactly what a chain-entry validation replays, so this
  // isolates the fold scans (core/algebra.cpp) from decode and sweep
  // bookkeeping.
  const auto prop = makeConnectivity();
  const LaneAlgebra alg(*prop);
  const int width = static_cast<int>(state.range(0));
  std::vector<int> lanes;
  std::vector<std::uint64_t> pathIds;
  std::vector<std::uint8_t> realFlags;
  for (int l = 0; l < width; ++l) {
    lanes.push_back(l);
    pathIds.push_back(static_cast<std::uint64_t>(1000 + l));
    if (l + 1 < width) realFlags.push_back(l % 2 == 0 ? 1 : 0);
  }
  // Children to fold onto the path: one single-lane edge per lane, its
  // IN-terminal glued onto that lane's path terminal (parentMerge demotes
  // the glued vertex each round, exactly like a T-entry replay).
  for (auto _ : state) {
    NodeData cur = alg.baseP(lanes, pathIds, realFlags);
    for (int l = 0; l < width; ++l) {
      const NodeData child =
          alg.baseE(l, static_cast<std::uint64_t>(1000 + l),
                    static_cast<std::uint64_t>(2000 + l), /*real=*/true);
      cur = alg.parentMerge(child, cur);
    }
    benchmark::DoNotOptimize(cur.state);
  }
  state.counters["width"] = static_cast<double>(width);
}
BENCHMARK(BM_AlgebraFold)->Arg(4)->Arg(8)->Arg(16)
    ->Unit(benchmark::kMicrosecond);

void BM_SingleVertexVerification(benchmark::State& state) {
  // The cost of ONE vertex's local check (what a real processor pays).
  const auto inst = instance(2, 1024);
  const auto proved = proveCore(inst.g, inst.ids, *makeConnectivity(), &inst.rep);
  const auto verifier = makeCoreVerifier(makeConnectivity());
  std::vector<std::string_view> incident;
  for (const Arc& a : inst.g.arcs(0)) {
    incident.push_back(proved.labels[static_cast<std::size_t>(a.edge)]);
  }
  EdgeView view;
  view.selfId = inst.ids.id(0);
  view.incidentLabels = incident;
  for (auto _ : state) {
    benchmark::DoNotOptimize(verifier(view));
  }
}
BENCHMARK(BM_SingleVertexVerification)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
