// SweepEntryCache tests: eviction regressions, then whole sweeps over the
// cache (see the section comment further down).
//
// The cache is pure memoization — validation is a deterministic function
// of the entry bytes — so eviction must only ever cost a re-validation,
// never change a verdict.  These tests pin the capacity contract:
//
//  * a cache driven past its growth bound keeps serving hits (it recycles
//    via least-recently-probed batch eviction instead of freezing or
//    growing without bound);
//  * recently-probed entries survive the eviction that a cold insert
//    storm triggers;
//  * the stats stay coherent (entries == size(), evictions accounts for
//    exactly the encodings dropped, counters are monotonic).

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/prover.hpp"
#include "core/verifier.hpp"
#include "core/verify_session.hpp"
#include "graph/generators.hpp"
#include "mso/properties.hpp"
#include "pls/scheme.hpp"
#include "runtime/executor.hpp"
#include "runtime/label_store.hpp"

namespace lanecert {
namespace {

/// Distinct encoding for insert `i` (content is opaque to the cache).
std::string enc(std::uint64_t i) {
  std::string s = "entry-";
  for (int b = 0; b < 8; ++b) s.push_back(static_cast<char>(i >> (8 * b)));
  return s;
}

TEST(SweepCacheEviction, CappedCacheStillServesHits) {
  SweepEntryCache cache;
  // One nodeId pins every insert to one stripe, so the per-stripe cap is
  // the exact bound under test.  Push far past it.
  constexpr std::uint64_t kInserts = 20000;
  const std::int64_t node = 7;
  for (std::uint64_t i = 0; i < kInserts; ++i) {
    cache.markValidated(node, enc(i));
  }

  const SweepCacheStats s = cache.stats();
  EXPECT_GT(s.evictions, 0u) << "cap never engaged";
  EXPECT_LT(s.entries, static_cast<std::size_t>(kInserts));
  // Conservation: every insert is either still held or was evicted.
  EXPECT_EQ(s.entries + s.evictions, kInserts);
  EXPECT_EQ(s.entries, cache.size());

  // The cache did not freeze: the most recent inserts are present.
  EXPECT_TRUE(cache.containsValidated(node, enc(kInserts - 1)));
  EXPECT_TRUE(cache.containsValidated(node, enc(kInserts - 2)));
  // The very first insert is long gone (LRU, not stop-at-cap).
  EXPECT_FALSE(cache.containsValidated(node, enc(0)));
}

TEST(SweepCacheEviction, ProbedEntriesSurviveInsertStorms) {
  SweepEntryCache cache;
  const std::int64_t node = 7;
  const std::string hot = enc(1);
  cache.markValidated(node, hot);

  // Interleave cold insert bursts with probes of the hot entry.  Each
  // probe refreshes its recency, so every batch eviction drops cold
  // entries around it.
  std::uint64_t next = 1000;
  for (int round = 0; round < 40; ++round) {
    for (int i = 0; i < 1000; ++i) cache.markValidated(node, enc(next++));
    EXPECT_TRUE(cache.containsValidated(node, hot))
        << "hot entry evicted in round " << round;
  }
  EXPECT_GT(cache.stats().evictions, 0u);
}

TEST(SweepCacheEviction, StatsStayCoherentAcrossEvictionAndClear) {
  SweepEntryCache cache;
  // Spread across nodeIds (and hence stripes) like a real sweep.
  for (std::uint64_t i = 0; i < 70000; ++i) {
    cache.markValidated(static_cast<std::int64_t>(i % 257), enc(i));
  }
  const SweepCacheStats s1 = cache.stats();
  EXPECT_EQ(s1.entries, cache.size());
  EXPECT_EQ(s1.entries + s1.evictions, 70000u);

  // Re-marking a held encoding refreshes it; nothing is double-counted.
  cache.markValidated(1, enc(69999 - (69999 % 257) + 1));
  EXPECT_EQ(cache.stats().entries, s1.entries);

  const std::uint64_t epochBefore = cache.epoch();
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.epoch(), epochBefore + 1);
  // Eviction, unlike clear(), never bumps the epoch (read memos may keep
  // remembering evicted entries — validation is content-based, so those
  // hits stay correct).
  cache.markValidated(1, enc(1));
  EXPECT_EQ(cache.epoch(), epochBefore + 1);
  EXPECT_TRUE(cache.containsValidated(1, enc(1)));
}

// --- Sweep-level identity across threads / memo toggle -----------------
//
// Whole verification sweeps are byte-identical across thread counts
// {1, 2, 4, 8} and across the read-memo toggle, on honest AND corrupted
// labelings over a spread of graph families; the cache's hit/miss/memo
// counters stay coherent, and the per-thread read memo never answers for
// another engine.

struct SweepFamily {
  std::string name;
  Graph g;
};

std::vector<SweepFamily> sweepFamilies() {
  std::vector<SweepFamily> fams;
  {
    Rng rng(41);
    fams.push_back({"pw2rand", randomBoundedPathwidth(40, 2, 0.5, rng).graph});
  }
  fams.push_back({"clique6", completeGraph(6)});
  {
    Rng rng(77);
    fams.push_back({"tree24", randomTree(24, rng)});
  }
  fams.push_back({"path2", pathGraph(2)});   // degenerate: one edge
  fams.push_back({"star12", starGraph(12)});
  return fams;
}

void expectSameResult(const SimulationResult& got, const SimulationResult& want,
                      const std::string& what) {
  EXPECT_EQ(got.allAccept, want.allAccept) << what;
  EXPECT_EQ(got.rejecting, want.rejecting) << what;
  EXPECT_EQ(got.maxLabelBits, want.maxLabelBits) << what;
  EXPECT_EQ(got.totalLabelBits, want.totalLabelBits) << what;
}

TEST(SimdSweeps, VerdictsIdenticalAcrossThreadsAndReadMemo) {
  for (SweepFamily& fam : sweepFamilies()) {
    const IdAssignment ids = IdAssignment::random(fam.g.numVertices(), 1234);
    const auto proved = proveCore(fam.g, ids, *makeConnectivity(), nullptr);

    // Honest labels plus one corrupted variant (flip a byte mid-label):
    // identity must hold for rejecting sweeps too, where cache hit rates
    // differ the most between configurations.
    std::vector<std::vector<std::string>> labelings = {proved.labels};
    if (!proved.labels.empty() && proved.labels[0].size() > 4) {
      auto corrupted = proved.labels;
      corrupted[0][corrupted[0].size() / 2] ^= 0x20;
      labelings.push_back(std::move(corrupted));
    }

    for (const auto& labels : labelings) {
      SimulationResult baseline;
      bool first = true;
      for (const bool readMemo : {true, false}) {
        CoreVerifierParams params;
        params.readMemo = readMemo;
        for (const int threads : {1, 2, 4, 8}) {
          const auto verifier = makeCoreVerifier(makeConnectivity(), params);
          const auto res = simulateEdgeScheme(fam.g, ids, labels, verifier,
                                              SimulationOptions{threads});
          if (first) {
            baseline = res;
            first = false;
          } else {
            expectSameResult(res, baseline,
                             fam.name + " threads=" + std::to_string(threads) +
                                 " memo=" + std::to_string(readMemo));
          }
        }
      }
    }
  }
}

TEST(SimdSweeps, CacheStatsCountHitsMissesAndMemoHits) {
  Rng rng(41);
  auto bp = randomBoundedPathwidth(48, 2, 0.5, rng);
  const IdAssignment ids = IdAssignment::random(bp.graph.numVertices(), 99);
  const auto proved = proveCore(bp.graph, ids, *makeConnectivity(), nullptr);

  VerifySession session(bp.graph, ids, proved.labels, makeConnectivity());
  EXPECT_TRUE(session.verifyAll(2).allAccept);

  const SweepCacheStats s1 = session.cacheStats();
  // Every distinct entry missed once before its first insert; shared upper
  // entries then hit (memo or striped cache).
  EXPECT_GT(s1.misses, 0u);
  EXPECT_GT(s1.hits + s1.memoHits, 0u);
  EXPECT_GT(s1.entries, 0u);
  EXPECT_EQ(s1.entries, session.sweepCacheSize());

  // A warm repeat sweep revalidates nothing: every probe lands in the
  // per-thread memo or the shared cache, and the entry count is unchanged.
  EXPECT_TRUE(session.verifyAll(2).allAccept);
  const SweepCacheStats s2 = session.cacheStats();
  EXPECT_EQ(s2.entries, s1.entries);
  EXPECT_GT(s2.hits + s2.memoHits, s1.hits + s1.memoHits);

  // The memo toggle gates memo hits entirely.
  CoreVerifierParams noMemo;
  noMemo.readMemo = false;
  VerifySession blind(bp.graph, ids, proved.labels, makeConnectivity(),
                      noMemo);
  EXPECT_TRUE(blind.verifyAll(2).allAccept);
  EXPECT_EQ(blind.cacheStats().memoHits, 0u);
}

TEST(SimdSweeps, ReadMemoNeverLeaksAcrossEngines) {
  // The per-thread read memo lives in scratch shared by EVERY engine that
  // checks on a thread (makeCoreVerifier's thread_local state; per-job
  // closures multiplexed over one worker pool).  A memo filled against
  // engine A must never answer probes for engine B — B's entries have to be
  // validated under B's own algebra/params.  Regression: the memo used to
  // sync on epoch NUMBER alone, so two engines both at epoch 0 shared
  // entries; B's cold sweep "hit" the stale memo for every shared entry,
  // skipped validateEntryPure, and left B's own cache empty.
  Rng rng(41);
  auto bp = randomBoundedPathwidth(32, 2, 0.5, rng);
  const Graph& g = bp.graph;
  const IdAssignment ids = IdAssignment::random(g.numVertices(), 7);
  const auto proved = proveCore(g, ids, *makeConnectivity(), nullptr);

  const LabelStore store(proved.labels);
  ParallelExecutor exec(1);
  const VertexLabelIndex index = buildIncidentEdgeIndex(g, store, exec);

  CoreVerifierEngine a(makeConnectivity());
  CoreVerifierEngine b(makeConnectivity());
  CoreVerifierEngine::ThreadState shared;  // plays the thread_local's role

  const auto sweep = [&](const CoreVerifierEngine& engine) {
    for (VertexId v = 0; v < g.numVertices(); ++v) {
      EdgeView view;
      view.selfId = ids.id(v);
      view.incidentLabels = index.row(v);
      EXPECT_TRUE(engine.check(view, shared)) << "vertex " << v;
    }
  };

  sweep(a);
  ASSERT_GT(a.sweepCacheSize(), 0u);

  // B reuses A's scratch (and thus its memo) but is a distinct engine with
  // a cold cache: its first sweep must validate every entry itself, so its
  // cache ends up exactly as full as A's and its probes actually reached it
  // (with the leak, every probe "hit" A's leftover memo instead — B's cache
  // stayed empty and its miss counter stayed zero).  Memo hits B earns
  // against entries it validated itself during this sweep are fine.
  sweep(b);
  EXPECT_EQ(b.sweepCacheSize(), a.sweepCacheSize());
  EXPECT_GT(b.cacheStats().misses, 0u);

  // Back on the same engine the memo is legitimate again: a warm repeat
  // sweep serves shared upper entries without re-validating them.
  const SweepCacheStats before = a.cacheStats();
  sweep(a);
  const SweepCacheStats after = a.cacheStats();
  EXPECT_GT(after.hits + after.memoHits, before.hits + before.memoHits);
  EXPECT_EQ(a.sweepCacheSize(), before.entries);
}

}  // namespace
}  // namespace lanecert
