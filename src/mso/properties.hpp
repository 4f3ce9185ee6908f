#pragma once
// Factory functions for the bundled MSO2 properties.  Each returns a
// Property whose states are constant-size summaries (see property.hpp) and
// each is cross-validated against brute force in tests/test_mso.cpp.
//
// All bundled properties evaluate φ on the subgraph of edges labeled
// kRealEdge; virtual (completion-only) edges affect nothing.

#include <string>

#include "mso/property.hpp"

namespace lanecert {

/// Resolves a bundled property by its REGISTRY NAME — the stable textual
/// grammar shared by the wire protocol (net), the snapshot tool, and the
/// command-line tools:
///
///   "forest" | "connectivity" | "bipartite" | "2col" | "3col" |
///   "is-path" | "is-cycle" | "matching" | "ham-cycle" | "ham-path" |
///   "triangle-free" | "vc:<c>" | "dom:<c>" | "ind:<c>" | "maxdeg:<d>"
///
/// Integer suffixes must be whole non-negative decimals ("vc:", "vc:3x",
/// "vc:-1" are unknown names).  Returns nullptr for unknown names; equal
/// names construct behaviourally identical properties, which is what makes
/// name-based dedup keys and cross-process property transport sound.
[[nodiscard]] PropertyPtr propertyByName(const std::string& name);

/// χ(G) <= q: proper q-colorability (q = 2 is bipartiteness).
/// State: the set of boundary colorings extendable to the whole subgraph.
[[nodiscard]] PropertyPtr makeColorability(int q);

/// G is a forest (equivalently, K3-minor-free).
/// State: boundary connectivity partition + cycle flag (deterministic).
[[nodiscard]] PropertyPtr makeForest();

/// G is connected.
/// State: partition + count of "lost" (fully forgotten) components.
[[nodiscard]] PropertyPtr makeConnectivity();

/// G is a simple path on all vertices (accepts n = 1).
[[nodiscard]] PropertyPtr makePathProperty();

/// G is a single simple cycle on all vertices.
/// Together with makePathProperty this realizes the Ω(log n) lower-bound
/// pair of [KKP10] discussed in Section 1.2.
[[nodiscard]] PropertyPtr makeCycleProperty();

/// G admits a perfect matching.
/// State: the set of boundary subsets that can be left exposed while all
/// internal vertices are matched.
[[nodiscard]] PropertyPtr makePerfectMatching();

/// G has a vertex cover of size <= c.
/// State: map from boundary subsets (in the cover) to the minimum number of
/// internal cover vertices, capped at c + 1.
[[nodiscard]] PropertyPtr makeVertexCover(int c);

/// G has a Hamiltonian cycle.
/// State: set of interface configurations (slot degrees + open-segment
/// pairing + closed-cycle flag).
[[nodiscard]] PropertyPtr makeHamiltonianCycle();

/// G has a Hamiltonian path.
[[nodiscard]] PropertyPtr makeHamiltonianPath();

/// G contains no triangle (K3 subgraph).
/// State: boundary adjacency + pairs with a common forgotten neighbor.
[[nodiscard]] PropertyPtr makeTriangleFree();

/// |E(G)| ≡ r (mod m): a counting property useful for exercising the
/// algebra (plain MSO cannot count, but the framework supports it and the
/// paper's Prop 2.4 extends to such regular predicates).
[[nodiscard]] PropertyPtr makeEdgeParity(int m, int r);

/// Max degree of G <= d.
[[nodiscard]] PropertyPtr makeMaxDegree(int d);

/// G has a dominating set of size <= c ("X is a dominating set" is the
/// paper's own example of an input-labeled MSO2 predicate, Section 2.2).
[[nodiscard]] PropertyPtr makeDominatingSet(int c);

/// G has an independent set of size >= c.
[[nodiscard]] PropertyPtr makeIndependentSet(int c);

/// Girth of G is >= g (no cycle shorter than g); g = 4 is triangle-freeness
/// for simple graphs.  Requires 3 <= g <= 100.
[[nodiscard]] PropertyPtr makeGirthAtLeast(int g);

}  // namespace lanecert
