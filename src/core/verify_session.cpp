#include "core/verify_session.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "runtime/executor.hpp"

namespace lanecert {

VerifySession::VerifySession(Graph g, IdAssignment ids,
                             std::vector<std::string> labels, PropertyPtr prop,
                             CoreVerifierParams params)
    : g_(std::move(g)),
      ids_(std::move(ids)),
      labels_(std::move(labels)),
      engine_(std::move(prop), params) {
  if (labels_.size() != static_cast<std::size_t>(g_.numEdges())) {
    throw std::invalid_argument("VerifySession: one label per edge required");
  }
}

void VerifySession::ensureIndex(ParallelExecutor& exec) {
  if (indexBuilt_) return;
  index_ = buildIncidentEdgeIndex(g_, labels_, exec);
  indexBuilt_ = true;
}

void VerifySession::sweep(std::optional<std::span<const VertexId>> rows,
                          ParallelExecutor& exec) {
  const auto shards = static_cast<std::size_t>(exec.numThreads());
  if (threadStates_.size() < shards) threadStates_.resize(shards);
  sweepVerdicts(exec, rows, verdicts_, [&](std::size_t shard, VertexId v) {
    EdgeView view;
    view.selfId = ids_.id(v);
    view.incidentLabels = index_.row(v);
    return engine_.check(view, threadStates_[shard]);
  });
}

SimulationResult VerifySession::verifyAll(ParallelExecutor& exec) {
  ensureIndex(exec);
  verdicts_.assign(static_cast<std::size_t>(g_.numVertices()), 0);
  sweep(std::nullopt, exec);
  swept_ = true;
  return resultFromVerdicts(verdicts_, labels_);
}

SimulationResult VerifySession::verifyAll(int numThreads) {
  ParallelExecutor exec(numThreads);
  return verifyAll(exec);
}

std::vector<VertexId> VerifySession::applyEdits(
    std::span<const EdgeLabelEdit> edits) {
  // Validate BEFORE mutating: the only failure mode is an out-of-range
  // edge id, so checking up front makes the whole batch all-or-nothing (a
  // throw never leaves labels half-edited with stale index rows).
  for (const EdgeLabelEdit& edit : edits) {
    if (edit.edge < 0 ||
        static_cast<std::size_t>(edit.edge) >= labels_.size()) {
      throw std::out_of_range(
          "VerifySession::applyEdits: edge id out of range");
    }
  }
  // assign() writes in place whenever the capacity fits.  When it does not,
  // only label e's bytes move, and e's view sits only in the rows of e's
  // endpoints — exactly the dirty rows refreshed below.
  std::vector<VertexId> dirty;
  dirty.reserve(edits.size() * 2);
  for (const EdgeLabelEdit& edit : edits) {
    labels_[static_cast<std::size_t>(edit.edge)].assign(edit.bytes);
    const Edge& e = g_.edge(edit.edge);
    dirty.push_back(e.u);
    dirty.push_back(e.v);
  }
  std::sort(dirty.begin(), dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
  // An empty batch edits nothing — same labels, same version (the serving
  // layer uses empty batches as "run the initial sweep" requests).
  if (!edits.empty()) ++version_;
  // Rows must track the labels for every FUTURE sweep; before the first
  // sweep there is no index yet — it is built from the current labels then.
  if (indexBuilt_) refreshIncidentEdgeRows(index_, g_, labels_, dirty);
  // Bound the sweep cache: edits retire entry variants (superseded label
  // bytes) that identity-keyed memoization would otherwise retain for the
  // session's whole lifetime.  The cap is generous — several times the
  // distinct entries of one labeling — so steady-state sweeps stay warm;
  // clearing is purely a perf event, never a correctness one.
  const auto cap = 8 * (static_cast<std::size_t>(g_.numVertices()) +
                        static_cast<std::size_t>(g_.numEdges())) +
                   1024;
  if (engine_.sweepCacheSize() > cap) engine_.clearSweepCache();
  return dirty;
}

SimulationResult VerifySession::reverify(
    std::span<const VertexId> dirtyVertices, ParallelExecutor& exec) {
  if (!swept_) {
    throw std::logic_error("VerifySession::reverify before a full sweep");
  }
  // Range-check every id, and detect callers that pass duplicates or
  // unsorted lists: a duplicate split across two shards would have two
  // threads store the same verdict slot concurrently — same value, still a
  // data race — so such input is deduplicated into a local copy first
  // (applyEdits output is already sorted and unique, the zero-copy path).
  bool sortedUnique = true;
  VertexId prev = kNoVertex;
  for (const VertexId v : dirtyVertices) {
    if (v < 0 || v >= g_.numVertices()) {
      throw std::out_of_range("VerifySession::reverify: vertex out of range");
    }
    if (v <= prev) sortedUnique = false;
    prev = v;
  }
  std::vector<VertexId> deduped;
  std::span<const VertexId> rows = dirtyVertices;
  if (!sortedUnique) {
    deduped.assign(dirtyVertices.begin(), dirtyVertices.end());
    std::sort(deduped.begin(), deduped.end());
    deduped.erase(std::unique(deduped.begin(), deduped.end()), deduped.end());
    rows = deduped;
  }
  // Dirty rows shard over the executor exactly like a full sweep shards all
  // rows; verdicts of clean vertices carry over untouched (their views are
  // byte-identical, so a fresh check would reproduce them — locality).
  sweep(rows, exec);
  return resultFromVerdicts(verdicts_, labels_);
}

SimulationResult VerifySession::reverifyEdits(
    std::span<const EdgeLabelEdit> edits, ParallelExecutor& exec) {
  if (!swept_) {
    applyEdits(edits);
    return verifyAll(exec);
  }
  const std::vector<VertexId> dirty = applyEdits(edits);
  return reverify(dirty, exec);
}

SimulationResult VerifySession::reverifyEdits(
    std::span<const EdgeLabelEdit> edits, int numThreads) {
  ParallelExecutor exec(numThreads);
  return reverifyEdits(edits, exec);
}

}  // namespace lanecert
