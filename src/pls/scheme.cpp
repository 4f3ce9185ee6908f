#include "pls/scheme.hpp"

#include <algorithm>
#include <stdexcept>

#include "runtime/executor.hpp"
#include "runtime/label_index.hpp"

namespace lanecert {

void sweepVerdicts(ParallelExecutor& exec,
                   std::optional<std::span<const VertexId>> rows,
                   std::span<std::uint8_t> verdicts,
                   const ShardedVertexCheck& check) {
  const std::size_t count = rows ? rows->size() : verdicts.size();
  exec.forShards(count, [&](std::size_t shard, std::size_t begin,
                            std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const VertexId v = rows ? (*rows)[i] : static_cast<VertexId>(i);
      bool ok = false;
      try {
        ok = check(shard, v);
      } catch (...) {
        ok = false;  // malformed certificates are rejections, never crashes
      }
      verdicts[static_cast<std::size_t>(v)] = ok ? 1 : 0;
    }
  });
}

SimulationResult resultFromVerdicts(std::span<const std::uint8_t> verdicts,
                                    std::span<const std::string> labels) {
  SimulationResult r;
  for (const std::string& l : labels) {
    r.maxLabelBits = std::max(r.maxLabelBits, l.size() * 8);
    r.totalLabelBits += l.size() * 8;
  }
  for (std::size_t vi = 0; vi < verdicts.size(); ++vi) {
    if (verdicts[vi] == 0) r.rejecting.push_back(static_cast<VertexId>(vi));
  }
  r.allAccept = r.rejecting.empty();
  return r;
}

SimulationResult simulateEdgeScheme(const Graph& g, const IdAssignment& ids,
                                    const std::vector<std::string>& labels,
                                    const EdgeVerifier& verify,
                                    ParallelExecutor& exec) {
  if (labels.size() != static_cast<std::size_t>(g.numEdges())) {
    throw std::invalid_argument("simulateEdgeScheme: one label per edge required");
  }
  const VertexLabelIndex index = buildIncidentEdgeIndex(g, labels, exec);
  std::vector<std::uint8_t> verdicts(static_cast<std::size_t>(g.numVertices()));
  sweepVerdicts(exec, std::nullopt, verdicts, [&](std::size_t, VertexId v) {
    EdgeView view;
    view.selfId = ids.id(v);
    view.incidentLabels = index.row(v);
    return verify(view);
  });
  return resultFromVerdicts(verdicts, labels);
}

SimulationResult simulateEdgeScheme(const Graph& g, const IdAssignment& ids,
                                    const std::vector<std::string>& labels,
                                    const EdgeVerifier& verify,
                                    const SimulationOptions& options) {
  ParallelExecutor exec(options.numThreads);
  return simulateEdgeScheme(g, ids, labels, verify, exec);
}

SimulationResult simulateVertexScheme(const Graph& g, const IdAssignment& ids,
                                      const std::vector<std::string>& labels,
                                      const VertexVerifier& verify,
                                      ParallelExecutor& exec) {
  if (labels.size() != static_cast<std::size_t>(g.numVertices())) {
    throw std::invalid_argument("simulateVertexScheme: one label per vertex required");
  }
  const VertexLabelIndex index = buildNeighborIndex(g, labels, exec);
  std::vector<std::uint8_t> verdicts(static_cast<std::size_t>(g.numVertices()));
  sweepVerdicts(exec, std::nullopt, verdicts, [&](std::size_t, VertexId v) {
    VertexView view;
    view.selfId = ids.id(v);
    view.selfLabel = labels[static_cast<std::size_t>(v)];
    view.neighborLabels = index.row(v);
    return verify(view);
  });
  return resultFromVerdicts(verdicts, labels);
}

SimulationResult simulateVertexScheme(const Graph& g, const IdAssignment& ids,
                                      const std::vector<std::string>& labels,
                                      const VertexVerifier& verify,
                                      const SimulationOptions& options) {
  ParallelExecutor exec(options.numThreads);
  return simulateVertexScheme(g, ids, labels, verify, exec);
}

bool mutateLabels(std::vector<std::string>& labels, Mutation m, Rng& rng) {
  if (labels.empty()) return false;
  const auto pick = [&rng, &labels] {
    return static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<int>(labels.size()) - 1));
  };
  switch (m) {
    case Mutation::kFlipBit: {
      const std::size_t i = pick();
      if (labels[i].empty()) return false;
      const int byte = rng.uniformInt(0, static_cast<int>(labels[i].size()) - 1);
      const int bit = rng.uniformInt(0, 7);
      labels[i][static_cast<std::size_t>(byte)] =
          static_cast<char>(labels[i][static_cast<std::size_t>(byte)] ^ (1 << bit));
      return true;
    }
    case Mutation::kSwapPair: {
      const std::size_t i = pick();
      const std::size_t j = pick();
      if (i == j || labels[i] == labels[j]) return false;
      std::swap(labels[i], labels[j]);
      return true;
    }
    case Mutation::kTruncate: {
      const std::size_t i = pick();
      if (labels[i].empty()) return false;
      const int keep = rng.uniformInt(0, static_cast<int>(labels[i].size()) - 1);
      labels[i].resize(static_cast<std::size_t>(keep));
      return true;
    }
    case Mutation::kDuplicate: {
      const std::size_t i = pick();
      const std::size_t j = pick();
      if (i == j || labels[i] == labels[j]) return false;
      labels[i] = labels[j];
      return true;
    }
    case Mutation::kScramble: {
      const std::size_t i = pick();
      if (labels[i].empty()) return false;
      std::string s = labels[i];
      for (char& c : s) c = static_cast<char>(rng.uniformInt(0, 255));
      if (s == labels[i]) return false;
      labels[i] = std::move(s);
      return true;
    }
  }
  return false;
}

}  // namespace lanecert
