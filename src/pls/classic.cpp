#include "pls/classic.hpp"

#include <algorithm>
#include <map>

#include "graph/algorithms.hpp"
#include "pls/codec.hpp"

namespace lanecert {

std::vector<std::string> proveBipartite(const Graph& g) {
  const auto coloring = bipartition(g);
  if (!coloring) {
    throw std::invalid_argument("proveBipartite: graph is not bipartite");
  }
  std::vector<std::string> labels(static_cast<std::size_t>(g.numVertices()));
  for (VertexId v = 0; v < g.numVertices(); ++v) {
    labels[static_cast<std::size_t>(v)] = std::string(
        1, (*coloring)[static_cast<std::size_t>(v)] == 0 ? '\0' : '\1');
  }
  return labels;
}

VertexVerifier bipartiteVerifier() {
  return [](const VertexView& view) {
    if (view.selfLabel.size() != 1) return false;
    for (std::string_view nl : view.neighborLabels) {
      if (nl.size() != 1 || nl[0] == view.selfLabel[0]) return false;
    }
    return true;
  };
}

std::vector<std::string> proveTrivial(const Graph& g, const IdAssignment& ids) {
  Encoder enc;
  enc.u64(static_cast<std::uint64_t>(g.numVertices()));
  enc.u64(static_cast<std::uint64_t>(g.numEdges()));
  for (VertexId v = 0; v < g.numVertices(); ++v) enc.u64(ids.id(v));
  for (const Edge& e : g.edges()) {
    enc.u64(ids.id(e.u));
    enc.u64(ids.id(e.v));
  }
  return std::vector<std::string>(static_cast<std::size_t>(g.numVertices()),
                                  enc.str());
}

VertexVerifier trivialVerifier(std::function<bool(const Graph&)> decide) {
  return [decide = std::move(decide)](const VertexView& view) -> bool {
    for (std::string_view nl : view.neighborLabels) {
      if (nl != view.selfLabel) return false;  // everyone must hold one map
    }
    Decoder dec(view.selfLabel);
    const auto n = static_cast<VertexId>(dec.u64());
    const auto m = static_cast<EdgeId>(dec.u64());
    std::map<std::uint64_t, VertexId> index;
    for (VertexId v = 0; v < n; ++v) {
      const std::uint64_t id = dec.u64();
      if (!index.emplace(id, v).second) return false;  // duplicate id
    }
    const auto self = index.find(view.selfId);
    if (self == index.end()) return false;  // I must be on the map
    Graph g(n);
    int myDegree = 0;
    for (EdgeId e = 0; e < m; ++e) {
      const auto a = index.find(dec.u64());
      const auto b = index.find(dec.u64());
      if (a == index.end() || b == index.end()) return false;
      g.addEdge(a->second, b->second);
      myDegree += a->second == self->second || b->second == self->second;
    }
    // My local degree must match the claimed map.
    if (myDegree != static_cast<int>(view.neighborLabels.size())) return false;
    return decide(g);
  };
}

}  // namespace lanecert
