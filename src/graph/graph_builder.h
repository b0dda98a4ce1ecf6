// Mutable accumulator that produces immutable Graph objects.
#ifndef KVCC_GRAPH_GRAPH_BUILDER_H_
#define KVCC_GRAPH_GRAPH_BUILDER_H_

#include <span>
#include <utility>
#include <vector>

#include "graph/graph.h"

namespace kvcc {

/// Collects edges (duplicates and self-loops tolerated) and builds a
/// normalized CSR Graph. Vertex count grows automatically to cover the
/// largest endpoint seen; it can also be fixed up-front to include isolated
/// vertices.
class GraphBuilder {
 public:
  GraphBuilder() = default;
  explicit GraphBuilder(VertexId num_vertices) : num_vertices_(num_vertices) {}

  /// Adds an undirected edge. Self-loops are silently dropped.
  void AddEdge(VertexId u, VertexId v);

  /// Ensures the built graph has at least `v + 1` vertices.
  void EnsureVertex(VertexId v);

  /// Attaches root-graph labels (size must equal the final vertex count).
  void SetLabels(std::vector<VertexId> labels);

  /// Copies `g`'s labels as this builder's labels, reusing the builder's
  /// label buffer (no allocation in steady state).
  void SetLabelsFrom(const Graph& g);

  /// Labels the built graph so vertex i names subset[i]: with as_root the
  /// label is subset[i] itself (seeding a chain that bottoms out at g),
  /// otherwise g's label of subset[i] (composing through g's chain). Reuses
  /// the builder's label buffer. Exactly the label rule of
  /// Graph::InducedSubgraph[AsRoot] — the fused prune pass uses this to
  /// build component subgraphs without the intermediate whole-core Graph.
  void SetLabelsFromSubset(const Graph& g, std::span<const VertexId> subset,
                           bool as_root);

  VertexId NumVertices() const { return num_vertices_; }
  std::size_t NumEdgeEntries() const { return edges_.size(); }

  /// Normalizes (sort, dedup) and produces the Graph. The builder is left
  /// empty afterwards.
  Graph Build();

  /// Like Build(), but writes into `out`, reusing its CSR storage (and the
  /// builder's own buffers keep their capacity too). A builder + Graph pair
  /// cycled through AddEdge.../BuildInto reaches a steady state with no
  /// allocations once capacities have grown to the largest graph seen —
  /// this is what keeps the fused prune pass's per-component subgraph
  /// build off the allocator.
  void BuildInto(Graph& out);

  /// Writes into `out` the spanning subgraph of `g` holding the edges
  /// {u, w} with keep(u, w), with g's vertex ids and labels. `keep` must be
  /// symmetric. g's neighbor rows are sorted, so filtering them row by row
  /// yields normalized CSR without an edge list or a sort. Reuses `out`'s
  /// storage (its adjacency capacity grows to g's), so once capacities
  /// have grown a rebuild performs no heap allocation — the sparse
  /// certificate is written this way on the GLOBAL-CUT hot path. `out`
  /// must not be `g`.
  template <typename Keep>
  static void FilterInto(const Graph& g, Keep keep, Graph& out);

 private:
  VertexId num_vertices_ = 0;
  std::vector<std::pair<VertexId, VertexId>> edges_;
  std::vector<VertexId> labels_;
  std::vector<std::uint64_t> cursor_;  // BuildInto fill positions
};

// Steady-state zero-allocation is asserted dynamically by
// memory_tracker_test.WarmGlobalCutAllocatesNothing; the grow-only calls
// below allocate only when `out` outgrows its capacity.
// kvcc-lint: no-alloc
template <typename Keep>
void GraphBuilder::FilterInto(const Graph& g, Keep keep, Graph& out) {
  const VertexId n = g.num_vertices_;
  out.num_vertices_ = n;
  out.offsets_.resize(static_cast<std::size_t>(n) + 1);  // kvcc-lint: reserved
  // Every entry is stored and the cursor advances only past kept ones: the
  // keep test is data-dependent, and a branch on it mispredicts. The cursor
  // never passes the entries read so far, so g's size bounds every store.
  out.adjacency_.resize(g.adjacency_.size());  // kvcc-lint: reserved
  VertexId* const adjacency = out.adjacency_.data();
  std::uint64_t kept = 0;
  out.offsets_[0] = 0;
  for (VertexId u = 0; u < n; ++u) {
    for (const VertexId w : g.Neighbors(u)) {
      adjacency[kept] = w;
      kept += keep(u, w) ? 1 : 0;
    }
    out.offsets_[u + 1] = kept;
  }
  out.adjacency_.resize(kept);  // kvcc-lint: reserved (shrinks)
  out.num_edges_ = kept / 2;
  out.labels_.assign(g.labels_.begin(), g.labels_.end());  // kvcc-lint: reserved
}

}  // namespace kvcc

#endif  // KVCC_GRAPH_GRAPH_BUILDER_H_
