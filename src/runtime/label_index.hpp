#pragma once
// Zero-copy per-vertex label index for the simulators and VerifySession.
//
// The seed simulator deep-copied every edge label into each endpoint's view
// (two heap copies per label) and sorted the copies per vertex.  The index
// instead holds std::string_view slices ALIASING the caller's label vector —
// building a vertex's multiset view costs no label-byte copies at all; per
// vertex we only sort a small array of (pointer, length) slices.  Label
// bytes live in exactly one place: the vector the caller passes to a
// simulator, or the one a VerifySession owns.
//
// VertexLabelIndex is the CSR-style per-vertex index over that vector:
// row v holds the sorted label views a vertex sees (incident-edge labels for
// edge schemes, neighbor labels for vertex schemes).  Rows are immutable
// during a sweep, so any number of verifier threads can read them
// concurrently.  The labels must stay alive while the index is in use.
// Rewriting label e may move its bytes (a string that outgrows its capacity
// reallocates), and e's view appears only in the rows of e's endpoints — so
// after an edit batch, refreshIncidentEdgeRows re-fills and re-sorts exactly
// those rows (row lengths never change — the topology is fixed — so the
// refresh is in place in the flattened array).  Every other row stays valid
// as long as the label vector itself is never resized.

#include <cstddef>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.hpp"

namespace lanecert {

class ParallelExecutor;

/// One label rewrite: edge `edge`'s label becomes `bytes`.
struct EdgeLabelEdit {
  EdgeId edge = kNoEdge;
  std::string bytes;
};

/// CSR index: row v = sorted multiset of label views seen by vertex v.
struct VertexLabelIndex {
  std::vector<std::size_t> rowPtr;     ///< numVertices + 1 entries
  std::vector<std::string_view> rows;  ///< flattened, each row sorted

  /// Sorted label views of vertex `v` (empty span for isolated vertices).
  [[nodiscard]] std::span<const std::string_view> row(VertexId v) const {
    const auto i = static_cast<std::size_t>(v);
    return {rows.data() + rowPtr[i], rowPtr[i + 1] - rowPtr[i]};
  }
};

/// Row v = labels of v's incident edges (edge schemes: labels[a.edge]).
/// Row filling and sorting are sharded over `exec`.
[[nodiscard]] VertexLabelIndex buildIncidentEdgeIndex(
    const Graph& g, std::span<const std::string> labels,
    ParallelExecutor& exec);

/// Row v = labels of v's neighbors (vertex schemes: labels[a.to]).
[[nodiscard]] VertexLabelIndex buildNeighborIndex(
    const Graph& g, std::span<const std::string> labels,
    ParallelExecutor& exec);

/// Re-fills and re-sorts the incident-edge rows of `dirty` vertices from
/// the current `labels`; every other row is untouched.  Dirty sets are
/// small (that is the point of incremental re-verification), so this is
/// sequential.
void refreshIncidentEdgeRows(VertexLabelIndex& idx, const Graph& g,
                             std::span<const std::string> labels,
                             std::span<const VertexId> dirty);

}  // namespace lanecert
