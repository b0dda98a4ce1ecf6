// The directed flow graph (vertex splitting) and the LOC-CUT primitive.
//
// Construction (paper Section 4.1, Fig. 3): every vertex v of the undirected
// graph becomes an arc v_in -> v_out of capacity 1; every undirected edge
// (u, v) becomes two arcs u_out -> v_in and v_out -> u_in of capacity 1.
// The max flow from u_out to v_in equals the local vertex connectivity
// kappa(u, v) for non-adjacent u, v (Menger), and every node of the network
// has in-degree 1 or out-degree 1, so Dinic runs in O(sqrt(n) m).
//
// The network is never materialized. With unit vertex capacities a flow is
// a set of vertex-disjoint paths, so two per-vertex links determine it:
// prv[y] is the tail of the flow edge entering y_in, nxt[x] the head of the
// flow edge leaving x_out (the source's out-flow lives only in prv of its
// heads, the sink's in-flow only in nxt of its tails). The residual arcs
// are read straight off the bound graph's CSR rows:
//   * x_out -> y_in for each neighbour y whose edge x -> y carries no flow,
//     plus x_out -> x_in when x carries flow (prv[x] set);
//   * y_in -> y_out when y is free, else y_in -> prv[y]_out — exactly one.
// Binding is therefore O(1) (a pointer plus grow-only sizing), and a probe
// restores its state in time proportional to the vertices it touched.
//
// Two probe styles share that residual:
//   * LocCut — Dinic from scratch (level BFS, then a blocking DFS with
//     per-node cursors): O(min(sqrt(n), k) * m). Each probe stamps the
//     sink's neighbourhood once, so "x_out -> sink_in is residual" is one
//     lookup (FeedsSink): the BFS fixes the sink's level as soon as it
//     labels the first out-node feeding it and never scans the rows of that
//     last out-node level, and the DFS decides each last-level node with
//     the same single check instead of a row scan.
//   * LocCutLocal — budget-capped greedy DFS flow growth (local search in
//     the style of Nanongkai–Saranurak–Yingchareonthawornchai 2019): when a
//     < k cut sits near u, the probe touches only the volume on u's side
//     of it. Budgets double a fixed number of times; if they run out the
//     probe falls back to Dinic *on the accumulated partial flow*, so no
//     augmentation work is ever discarded.
// Both styles are exact and return the identical cut: whenever
// kappa(u, v) < k, the extracted cut is derived from the residual-reachable
// set of a true max flow, which (for the minimal source-side min cut) is
// independent of which max flow was computed.
#ifndef KVCC_KVCC_FLOW_GRAPH_H_
#define KVCC_KVCC_FLOW_GRAPH_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace kvcc {

/// Reusable vertex-connectivity oracle over a bound undirected graph.
/// Queries reset the flow state internally, so a single instance serves all
/// LOC-CUT calls on one graph, and Bind() moves it to another graph in O(1)
/// with every buffer recycled: one long-lived instance (per enumeration
/// worker, per wavefront executor slot) runs a whole recursion without
/// reallocating per subgraph. Instances are not thread-safe; distinct
/// instances bound to one graph may probe it concurrently (they only read
/// the graph).
class DirectedFlowGraph {
 public:
  /// Result of a budget-capped local LOC-CUT probe (LocCutLocal).
  struct LocalProbeResult {
    /// Same contract as LocCut's return value: empty when u == v, the
    /// endpoints are adjacent, or kappa(u, v) >= k; otherwise a u-v vertex
    /// cut with fewer than k vertices — byte-identical to LocCut's.
    std::vector<VertexId> cut;
    /// True when every local budget ran out and Dinic completed the probe
    /// from the partial flow.
    bool fell_back = false;
  };

  /// Unbound oracle; call Bind() before querying.
  DirectedFlowGraph() = default;
  explicit DirectedFlowGraph(const Graph& g) { Bind(g); }

  DirectedFlowGraph(const DirectedFlowGraph&) = delete;
  DirectedFlowGraph& operator=(const DirectedFlowGraph&) = delete;

  /// Binds the oracle to `g`, which must outlive all subsequent queries.
  /// O(1) once the buffers have grown to g's size; reads neither `g` nor
  /// the previously bound graph, so the previous graph may already have
  /// been rebuilt or destroyed.
  void Bind(const Graph& g);

  /// min(kappa(u, v), limit) for non-adjacent u != v. Passing adjacent
  /// vertices (kappa is infinite there; Lemma 5) is an asserted error.
  std::int32_t LocalConnectivity(VertexId u, VertexId v, std::int32_t limit);

  /// LOC-CUT (paper Alg. 2 lines 12-17): empty result when u == v, u and v
  /// are adjacent, or kappa(u, v) >= k; otherwise a u-v vertex cut with
  /// fewer than k vertices (excluding u and v themselves), sorted.
  std::vector<VertexId> LocCut(VertexId u, VertexId v, std::uint32_t k);

  /// LOC-CUT by local search: grows the flow with greedy DFS passes capped
  /// at `slot_budget` inspected residual slots, doubling the budget
  /// `doublings` times before falling back to Dinic on the partial flow.
  /// The cut (or its absence) is byte-identical to LocCut's; only the work
  /// profile differs. Track the work via work_arcs() deltas.
  LocalProbeResult LocCutLocal(VertexId u, VertexId v, std::uint32_t k,
                               std::uint64_t slot_budget, int doublings);

  /// Monotone count of residual slots inspected by all flow work on this
  /// oracle (KvccStats::probe_edges_touched is accumulated from deltas).
  std::uint64_t work_arcs() const { return work_arcs_; }

  /// The bound graph (nullptr before the first Bind).
  const Graph* graph() const { return graph_; }

  static std::uint32_t InNode(VertexId v) { return 2 * v; }
  static std::uint32_t OutNode(VertexId v) { return 2 * v + 1; }

 private:
  /// Per-node search state, seeded lazily against phase_epoch_.
  struct NodeState {
    std::uint32_t epoch = 0;
    std::uint32_t level = 0;
    std::uint32_t cursor = 0;  // next residual slot to inspect
  };

  /// Outcome of one budget-capped MaxFlowLocal call.
  struct LocalFlowResult {
    std::int32_t flow = 0;  // units pushed by this call
    /// True when the search ran to completion (flow hit the limit, or the
    /// sink is unreachable); false when the budget ran out first.
    bool exact = false;
  };

  /// Clears the flow links of every vertex the last probe touched, binds
  /// the probe's endpoints and stamps the sink's neighbours.
  void StartProbe(VertexId u, VertexId v);
  void ResetFlow();

  /// True iff the residual arc x_out -> sink_in exists: x neighbours the
  /// sink (stamped by StartProbe) and the edge x -> sink carries no flow.
  /// The source never qualifies, as it is not adjacent to the sink.
  bool FeedsSink(VertexId x) const {
    return sink_nbr_epoch_[x] == reset_epoch_ && nxt_[x] != sink_;
  }
  /// True iff the edge x -> y carries flow.
  bool Carries(VertexId x, VertexId y) const {
    return x == source_ ? prv_[y] == x : nxt_[x] == y;
  }
  // Residual slots of a node: an out-node x has deg(x) + 1 (one per
  // neighbour, then x_in), an in-node exactly one.
  std::uint32_t NumSlots(std::uint32_t node) const {
    return (node & 1) != 0 ? graph_->Degree(node >> 1) + 1 : 1;
  }
  /// Head of `node`'s residual arc in `slot`, or kNone if that slot has no
  /// residual capacity.
  std::uint32_t SlotTarget(std::uint32_t node, std::uint32_t slot) const;

  /// Bumps the per-phase epoch, invalidating every node's state.
  void NextPhase();
  void Visit(std::uint32_t node, std::uint32_t level) {
    node_[node] = NodeState{phase_epoch_, level, 0};
  }
  bool Seen(std::uint32_t node) const {
    return node_[node].epoch == phase_epoch_;
  }
  std::uint32_t LevelOf(std::uint32_t node) const {
    return Seen(node) ? node_[node].level : kNone;
  }

  // Dinic: level BFS (stops below the sink's level, which the first
  // sink-feeding out-node fixes), then blocking DFS whose last level is one
  // FeedsSink check per node.
  bool BuildLevels();
  bool FindAugmentingPath();
  std::int32_t MaxFlow(std::int32_t limit);
  // Greedy DFS passes capped by a slot budget (LocalVC).
  LocalFlowResult MaxFlowLocal(std::int32_t limit, std::uint64_t budget);
  /// Pushes one unit along path_ followed by the sink.
  void Augment();
  void Touch(VertexId v);

  /// Extracts the vertex cut after a true max flow of value < limit.
  std::vector<VertexId> ExtractVertexCut();

  const Graph* graph_ = nullptr;
  VertexId source_ = 0;  // the probe's u; flow leaves OutNode(source_)
  VertexId sink_ = 0;    // the probe's v; flow enters InNode(sink_)

  // Flow links (kNone when absent), grow-only, all kNone between probes
  // except for the vertices listed in touched_.
  std::vector<VertexId> prv_;
  std::vector<VertexId> nxt_;
  std::vector<VertexId> touched_;
  std::vector<std::uint32_t> touched_epoch_;
  // sink_nbr_epoch_[x] == reset_epoch_ iff x neighbours the probe's sink.
  std::vector<std::uint32_t> sink_nbr_epoch_;
  std::uint32_t reset_epoch_ = 1;

  std::vector<NodeState> node_;
  std::uint32_t phase_epoch_ = 0;
  std::uint32_t sink_level_ = 0;  // the sink's level in the current phase
  std::vector<std::uint32_t> queue_;
  std::vector<std::uint32_t> path_;  // nodes from the source, sink excluded

  std::uint64_t work_arcs_ = 0;

  static constexpr std::uint32_t kNone = static_cast<std::uint32_t>(-1);
};

}  // namespace kvcc

#endif  // KVCC_KVCC_FLOW_GRAPH_H_
