// Parameterized end-to-end sweep of the core scheme: every bundled property
// is proven and verified on every compatible graph family, in both the
// edge- and vertex-label models, with prover/verifier agreement checked
// against the ground truth of the sequential evaluator (Courcelle DP).
//
// This is the broad completeness net; targeted adversarial soundness lives
// in test_core.cpp.

#include <gtest/gtest.h>

#include <functional>

#include "core/scheme.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "mso/properties.hpp"
#include "pls/transform.hpp"

namespace lanecert {
namespace {

struct SweepCase {
  std::string name;
  std::function<Graph()> makeGraph;
  std::function<PropertyPtr()> makeProp;
};

std::vector<SweepCase> sweepCases() {
  std::vector<SweepCase> cases;
  const std::vector<std::pair<std::string, std::function<Graph()>>> families = {
      {"path17", [] { return pathGraph(17); }},
      {"cycle14", [] { return cycleGraph(14); }},
      {"star9", [] { return starGraph(9); }},
      {"caterpillar", [] { return caterpillar(6, 2); }},
      {"grid2x7", [] { return gridGraph(2, 7); }},
      {"tree", [] {
         Rng rng(77);
         return randomTree(16, rng);
       }},
      {"pw2rand", [] {
         Rng rng(41);
         return randomBoundedPathwidth(24, 2, 0.5, rng).graph;
       }},
  };
  const std::vector<std::pair<std::string, std::function<PropertyPtr()>>> props = {
      {"2col", [] { return makeColorability(2); }},
      {"forest", [] { return makeForest(); }},
      {"conn", [] { return makeConnectivity(); }},
      {"is-path", [] { return makePathProperty(); }},
      {"is-cycle", [] { return makeCycleProperty(); }},
      {"pm", [] { return makePerfectMatching(); }},
      {"vc4", [] { return makeVertexCover(4); }},
      {"ham-path", [] { return makeHamiltonianPath(); }},
      {"tri-free", [] { return makeTriangleFree(); }},
      {"maxdeg3", [] { return makeMaxDegree(3); }},
      {"par2", [] { return makeEdgeParity(2, 0); }},
      {"dom5", [] { return makeDominatingSet(5); }},
      {"ind4", [] { return makeIndependentSet(4); }},
      {"girth5", [] { return makeGirthAtLeast(5); }},
  };
  for (const auto& [gname, gf] : families) {
    for (const auto& [pname, pf] : props) {
      cases.push_back(SweepCase{gname + "/" + pname, gf, pf});
    }
  }
  return cases;
}

class CoreSweep : public ::testing::TestWithParam<int> {};

TEST_P(CoreSweep, EdgeModeMatchesGroundTruth) {
  const SweepCase c = sweepCases()[static_cast<std::size_t>(GetParam())];
  const Graph g = c.makeGraph();
  const PropertyPtr prop = c.makeProp();
  const IdAssignment ids = IdAssignment::random(g.numVertices(), 1234);
  const bool truth = evaluateOnGraph(*prop, g);
  const CoreRunResult r = proveAndVerifyEdges(g, ids, prop);
  EXPECT_EQ(r.propertyHolds, truth) << c.name << ": prover verdict wrong";
  if (truth) {
    EXPECT_TRUE(r.sim.allAccept)
        << c.name << ": honest labels rejected at vertex "
        << (r.sim.rejecting.empty() ? -1 : r.sim.rejecting[0]);
  }
}

TEST_P(CoreSweep, VertexModeMatchesGroundTruth) {
  const SweepCase c = sweepCases()[static_cast<std::size_t>(GetParam())];
  const Graph g = c.makeGraph();
  const PropertyPtr prop = c.makeProp();
  const IdAssignment ids = IdAssignment::random(g.numVertices(), 99);
  const bool truth = evaluateOnGraph(*prop, g);
  const CoreRunResult r = proveAndVerifyVertices(g, ids, prop);
  EXPECT_EQ(r.propertyHolds, truth) << c.name;
  if (truth) EXPECT_TRUE(r.sim.allAccept) << c.name;
}

INSTANTIATE_TEST_SUITE_P(AllFamiliesAllProperties, CoreSweep,
                         ::testing::Range(0, 98));

TEST(CoreSweepExtra, Theorem1ParamsAcceptHonestLabels) {
  // Verifiers configured with the exact Theorem 1 constants for k = 1, 2
  // accept honest labelings of graphs with that pathwidth.
  for (const auto& [g, k] : std::vector<std::pair<Graph, int>>{
           {caterpillar(8, 2), 1}, {cycleGraph(12), 2}}) {
    const auto ids = IdAssignment::random(g.numVertices(), 4);
    const auto honest = proveCore(g, ids, *makeConnectivity());
    ASSERT_TRUE(honest.propertyHolds);
    const auto res = simulateEdgeScheme(
        g, ids, honest.labels,
        makeCoreVerifier(makeConnectivity(), theorem1Params(k)));
    EXPECT_TRUE(res.allAccept) << "k=" << k;
  }
}

TEST(CoreSweepExtra, DistinctIdSpacesGiveSameVerdict) {
  // The scheme must not depend on the identifier values.
  const Graph g = cycleGraph(10);
  for (std::uint64_t seed : {1ull, 999ull, 31337ull}) {
    const auto ids = IdAssignment::random(10, seed);
    const auto r = proveAndVerifyEdges(g, ids, makeCycleProperty());
    EXPECT_TRUE(r.propertyHolds && r.sim.allAccept) << "seed " << seed;
  }
  const auto idsIdentity = IdAssignment::identity(10);
  const auto r = proveAndVerifyEdges(g, idsIdentity, makeCycleProperty());
  EXPECT_TRUE(r.propertyHolds && r.sim.allAccept);
}

}  // namespace
}  // namespace lanecert
