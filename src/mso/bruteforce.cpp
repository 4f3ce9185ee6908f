#include "mso/bruteforce.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

namespace lanecert {

namespace {

std::vector<std::uint32_t> neighborMasks(const Graph& g) {
  std::vector<std::uint32_t> nbr(static_cast<std::size_t>(g.numVertices()), 0);
  for (const Edge& e : g.edges()) {
    nbr[static_cast<std::size_t>(e.u)] |= std::uint32_t{1} << e.v;
    nbr[static_cast<std::size_t>(e.v)] |= std::uint32_t{1} << e.u;
  }
  return nbr;
}

bool colorBacktrack(const Graph& g, int q, std::vector<int>& color, VertexId v) {
  if (v == g.numVertices()) return true;
  for (int c = 0; c < q; ++c) {
    bool ok = true;
    for (const Arc& a : g.arcs(v)) {
      const auto to = static_cast<std::size_t>(a.to);
      if (to < static_cast<std::size_t>(v) && color[to] == c) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    color[static_cast<std::size_t>(v)] = c;
    if (colorBacktrack(g, q, color, v + 1)) return true;
  }
  return false;
}

int coverBranch(const Graph& g, std::vector<char>& inCover, EdgeId next, int used,
                int best) {
  if (used >= best) return best;
  // Find the next uncovered edge.
  while (next < g.numEdges()) {
    const Edge& e = g.edge(next);
    if (!inCover[static_cast<std::size_t>(e.u)] &&
        !inCover[static_cast<std::size_t>(e.v)]) {
      break;
    }
    ++next;
  }
  if (next == g.numEdges()) return used;
  const Edge& e = g.edge(next);
  for (VertexId pick : {e.u, e.v}) {
    inCover[static_cast<std::size_t>(pick)] = 1;
    best = std::min(best, coverBranch(g, inCover, next + 1, used + 1, best));
    inCover[static_cast<std::size_t>(pick)] = 0;
  }
  return best;
}

}  // namespace

bool isQColorableBrute(const Graph& g, int q) {
  if (q < 1) return g.numVertices() == 0;
  std::vector<int> color(static_cast<std::size_t>(g.numVertices()), -1);
  return colorBacktrack(g, q, color, 0);
}

bool hasPerfectMatchingBrute(const Graph& g) {
  const int n = g.numVertices();
  if (n > 24) throw std::invalid_argument("hasPerfectMatchingBrute: n too large");
  if (n % 2 != 0) return false;
  if (n == 0) return true;
  const auto nbr = neighborMasks(g);
  const std::size_t full = std::size_t{1} << n;
  std::vector<char> matchable(full, 0);
  matchable[0] = 1;
  for (std::uint32_t s = 1; s < full; ++s) {
    if (std::popcount(s) % 2 != 0) continue;
    const int v = std::countr_zero(s);  // match the lowest set vertex
    const std::uint32_t cands = nbr[static_cast<std::size_t>(v)] & s;
    std::uint32_t rest = cands & ~(std::uint32_t{1} << v);
    while (rest != 0) {
      const int u = std::countr_zero(rest);
      rest &= rest - 1;
      if (matchable[s & ~(std::uint32_t{1} << v) & ~(std::uint32_t{1} << u)]) {
        matchable[s] = 1;
        break;
      }
    }
  }
  return matchable[full - 1] == 1;
}

int minVertexCoverBrute(const Graph& g) {
  std::vector<char> inCover(static_cast<std::size_t>(g.numVertices()), 0);
  return coverBranch(g, inCover, 0, 0, g.numVertices());
}

bool hasHamiltonianCycleBrute(const Graph& g) {
  const int n = g.numVertices();
  if (n > 20) throw std::invalid_argument("hasHamiltonianCycleBrute: n too large");
  if (n == 0) return false;
  if (n == 1) return false;  // no self-loops
  if (n == 2) return false;  // no parallel edges
  const auto nbr = neighborMasks(g);
  const std::size_t full = std::size_t{1} << n;
  // dp[mask][v]: path from vertex 0 visiting exactly `mask`, ending at v.
  std::vector<std::uint32_t> dp(full, 0);  // bitset over end vertices
  dp[1] = 1;                               // start at vertex 0
  for (std::uint32_t mask = 1; mask < full; ++mask) {
    if ((mask & 1) == 0 || dp[mask] == 0) continue;
    std::uint32_t ends = dp[mask];
    while (ends != 0) {
      const int v = std::countr_zero(ends);
      ends &= ends - 1;
      std::uint32_t nxt = nbr[static_cast<std::size_t>(v)] & ~mask;
      while (nxt != 0) {
        const int u = std::countr_zero(nxt);
        nxt &= nxt - 1;
        dp[mask | (std::uint32_t{1} << u)] |= std::uint32_t{1} << u;
      }
    }
  }
  const std::uint32_t endsAtFull = dp[full - 1];
  return (endsAtFull & nbr[0]) != 0;  // close the cycle back to vertex 0
}

bool hasHamiltonianPathBrute(const Graph& g) {
  const int n = g.numVertices();
  if (n > 20) throw std::invalid_argument("hasHamiltonianPathBrute: n too large");
  if (n == 0) return false;
  if (n == 1) return true;
  const auto nbr = neighborMasks(g);
  const std::size_t full = std::size_t{1} << n;
  // dp[mask]: bitset of possible path endpoints over vertex set `mask`.
  std::vector<std::uint32_t> dp(full, 0);
  for (int v = 0; v < n; ++v) dp[std::size_t{1} << v] = std::uint32_t{1} << v;
  for (std::uint32_t mask = 1; mask < full; ++mask) {
    std::uint32_t ends = dp[mask];
    while (ends != 0) {
      const int v = std::countr_zero(ends);
      ends &= ends - 1;
      std::uint32_t nxt = nbr[static_cast<std::size_t>(v)] & ~mask;
      while (nxt != 0) {
        const int u = std::countr_zero(nxt);
        nxt &= nxt - 1;
        dp[mask | (std::uint32_t{1} << u)] |= std::uint32_t{1} << u;
      }
    }
  }
  return dp[full - 1] != 0;
}

int minDominatingSetBrute(const Graph& g) {
  const int n = g.numVertices();
  if (n > 20) throw std::invalid_argument("minDominatingSetBrute: n too large");
  if (n == 0) return 0;
  const auto nbr = neighborMasks(g);
  const std::uint32_t full = (std::uint32_t{1} << n) - 1;
  int best = n;
  for (std::uint32_t s = 0; s <= full; ++s) {
    std::uint32_t covered = s;
    std::uint32_t rest = s;
    while (rest != 0) {
      const int v = std::countr_zero(rest);
      rest &= rest - 1;
      covered |= nbr[static_cast<std::size_t>(v)];
    }
    if (covered == full) best = std::min(best, std::popcount(s));
  }
  return best;
}

int maxIndependentSetBrute(const Graph& g) {
  const int n = g.numVertices();
  if (n > 20) throw std::invalid_argument("maxIndependentSetBrute: n too large");
  const auto nbr = neighborMasks(g);
  int best = 0;
  for (std::uint32_t s = 0; s < (std::uint32_t{1} << n); ++s) {
    bool ok = true;
    std::uint32_t rest = s;
    while (rest != 0 && ok) {
      const int v = std::countr_zero(rest);
      rest &= rest - 1;
      ok = (nbr[static_cast<std::size_t>(v)] & s) == 0;
    }
    if (ok) best = std::max(best, std::popcount(s));
  }
  return best;
}

int girthBrute(const Graph& g) {
  // BFS from every vertex; a non-tree edge between level-d and level-d' of
  // the same BFS tree closes a cycle of length d + d' + 1 through the root
  // region.  The standard scan over all roots yields the exact girth.
  int best = std::numeric_limits<int>::max();  // acyclic: infinite girth
  for (VertexId s = 0; s < g.numVertices(); ++s) {
    std::vector<int> dist(static_cast<std::size_t>(g.numVertices()), -1);
    std::vector<VertexId> par(static_cast<std::size_t>(g.numVertices()), kNoVertex);
    std::vector<VertexId> queue{s};
    dist[static_cast<std::size_t>(s)] = 0;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const VertexId u = queue[head];
      for (const Arc& a : g.arcs(u)) {
        if (dist[static_cast<std::size_t>(a.to)] == -1) {
          dist[static_cast<std::size_t>(a.to)] = dist[static_cast<std::size_t>(u)] + 1;
          par[static_cast<std::size_t>(a.to)] = u;
          queue.push_back(a.to);
        } else if (par[static_cast<std::size_t>(u)] != a.to) {
          best = std::min(best, dist[static_cast<std::size_t>(u)] +
                                    dist[static_cast<std::size_t>(a.to)] + 1);
        }
      }
    }
  }
  return best;
}

}  // namespace lanecert
