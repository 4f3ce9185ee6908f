#pragma once
// The proof-labeling-scheme framework (Section 1.1).
//
// A PLS is a pair (prover, verifier).  The prover is centralized and sees
// everything; the verifier is a pure function of a vertex's LOCAL VIEW:
// its identifier plus the multiset of labels on incident edges (edge
// schemes, Section 2.1) or its own label plus the multiset of neighbor
// labels (vertex schemes).  The simulator materializes the views — the only
// channel between the global configuration and a verifier — so locality is
// enforced by construction.
//
// `mutateLabels` implements the adversarial label corruptions used by the
// soundness tests and benchmark E6.

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "graph/generators.hpp"
#include "graph/graph.hpp"

namespace lanecert {

class ParallelExecutor;

/// What a vertex sees in an EDGE-labeling scheme: its own identifier and
/// the labels on its incident edges (in unspecified order = multiset; the
/// simulator presents them sorted to forbid order-based information).
///
/// Views are ZERO-COPY: the label views borrow the caller's label vector
/// (or a session-owned one) and are only valid during the verifier call.
/// A verifier that needs label bytes beyond its own invocation must copy
/// them explicitly.
struct EdgeView {
  std::uint64_t selfId = 0;
  std::span<const std::string_view> incidentLabels;
};

/// What a vertex sees in a VERTEX-labeling scheme.  Same borrowing rules.
struct VertexView {
  std::uint64_t selfId = 0;
  std::string_view selfLabel;
  std::span<const std::string_view> neighborLabels;
};

/// A local verifier for edge schemes; must not throw (treat malformed
/// labels as reject).
using EdgeVerifier = std::function<bool(const EdgeView&)>;
/// A local verifier for vertex schemes.
using VertexVerifier = std::function<bool(const VertexView&)>;

/// Outcome of running a verifier at every vertex.
struct SimulationResult {
  bool allAccept = false;
  std::vector<VertexId> rejecting;   ///< vertices that rejected, ascending
  std::size_t maxLabelBits = 0;      ///< max encoded label size
  std::size_t totalLabelBits = 0;    ///< sum over all labels
};

/// Knobs for the simulation sweep.  The verifier is strictly local, so the
/// sweep shards vertices over threads (sweepVerdicts below); results are
/// bit-identical to the sequential path for every numThreads.  Verifiers
/// must therefore be safe to call concurrently from several threads — all
/// bundled verifiers are pure functions of the view (plus per-thread
/// scratch).
struct SimulationOptions {
  int numThreads = 1;  ///< <= 0 means std::thread::hardware_concurrency()
};

/// Runs an edge-scheme verifier at every vertex.  `labels[e]` is the label
/// of EdgeId e.
[[nodiscard]] SimulationResult simulateEdgeScheme(
    const Graph& g, const IdAssignment& ids,
    const std::vector<std::string>& labels, const EdgeVerifier& verify,
    const SimulationOptions& options = {});

/// Runs a vertex-scheme verifier at every vertex.  `labels[v]` is the label
/// of vertex v.
[[nodiscard]] SimulationResult simulateVertexScheme(
    const Graph& g, const IdAssignment& ids,
    const std::vector<std::string>& labels, const VertexVerifier& verify,
    const SimulationOptions& options = {});

/// External-executor variants: identical results, but the sweep shards over
/// `exec` instead of constructing a private executor — the serving layer
/// multiplexes many verification jobs over one shared WorkerPool this way.
[[nodiscard]] SimulationResult simulateEdgeScheme(
    const Graph& g, const IdAssignment& ids,
    const std::vector<std::string>& labels, const EdgeVerifier& verify,
    ParallelExecutor& exec);
[[nodiscard]] SimulationResult simulateVertexScheme(
    const Graph& g, const IdAssignment& ids,
    const std::vector<std::string>& labels, const VertexVerifier& verify,
    ParallelExecutor& exec);

/// One vertex check inside a sweep: `shard` is the executor shard running
/// it (callers index per-shard scratch by it), `v` the vertex to check.
using ShardedVertexCheck = std::function<bool(std::size_t shard, VertexId v)>;

/// THE sweep driver: every vertex-check loop (the simulators and
/// VerifySession's full and incremental sweeps) runs through it.  Shards
/// `rows` — every index of `verdicts` when std::nullopt, else an ascending
/// unique list of in-range vertices — contiguously over `exec`, runs
/// check(shard, v) on each and writes verdicts[v] = 1 (accept) or 0.  A
/// check that throws is a reject: malformed certificates are rejections,
/// never crashes.  Bytes of vertices outside `rows` are left untouched, and
/// since each row is written by exactly one shard the verdicts are the same
/// for every thread count.
void sweepVerdicts(ParallelExecutor& exec,
                   std::optional<std::span<const VertexId>> rows,
                   std::span<std::uint8_t> verdicts,
                   const ShardedVertexCheck& check);

/// The SimulationResult of a verdict vector (1 = accept, indexed by
/// vertex) over `labels`: rejecting vertices ascending, bit stats from one
/// size scan of the labels.
[[nodiscard]] SimulationResult resultFromVerdicts(
    std::span<const std::uint8_t> verdicts,
    std::span<const std::string> labels);

/// Kinds of adversarial label corruption used by soundness tests.
enum class Mutation {
  kFlipBit,    ///< flip one random bit of one label
  kSwapPair,   ///< exchange the labels of two random positions
  kTruncate,   ///< cut a random suffix off one label
  kDuplicate,  ///< overwrite one label with another's content
  kScramble,   ///< replace one label with random bytes of the same length
};

/// Applies one mutation; returns false when the mutation is a no-op on this
/// input (e.g. swapping identical labels), so callers can retry.
bool mutateLabels(std::vector<std::string>& labels, Mutation m, Rng& rng);

}  // namespace lanecert
