// The property-name registry (see properties.hpp for the grammar).  Moved
// here from net/protocol.cpp so name resolution has no dependency above the
// mso layer: the wire server and the snapshot tool both resolve through
// this one function, which is what makes a property name a valid
// cross-process identity.

#include <charconv>

#include "mso/properties.hpp"

namespace lanecert {

PropertyPtr propertyByName(const std::string& name) {
  // The whole suffix must be a non-negative decimal integer — "vc:",
  // "vc:garbage", and "vc:3x" are unknown names, not vertex cover of 0.
  auto intSuffix = [&name](const char* prefix) -> int {
    const std::size_t len = std::string(prefix).size();
    if (name.rfind(prefix, 0) != 0) return -1;
    const char* first = name.data() + len;
    const char* last = name.data() + name.size();
    int value = 0;
    const auto [ptr, ec] = std::from_chars(first, last, value);
    if (ec != std::errc{} || ptr != last || value < 0) return -1;
    return value;
  };
  if (name == "forest") return makeForest();
  if (name == "connectivity") return makeConnectivity();
  if (name == "bipartite" || name == "2col") return makeColorability(2);
  if (name == "3col") return makeColorability(3);
  if (name == "is-path") return makePathProperty();
  if (name == "is-cycle") return makeCycleProperty();
  if (name == "matching") return makePerfectMatching();
  if (name == "ham-cycle") return makeHamiltonianCycle();
  if (name == "ham-path") return makeHamiltonianPath();
  if (name == "triangle-free") return makeTriangleFree();
  if (int c = intSuffix("vc:"); c >= 0) return makeVertexCover(c);
  if (int c = intSuffix("dom:"); c >= 0) return makeDominatingSet(c);
  if (int c = intSuffix("ind:"); c >= 0) return makeIndependentSet(c);
  if (int d = intSuffix("maxdeg:"); d >= 0) return makeMaxDegree(d);
  return nullptr;
}

}  // namespace lanecert
