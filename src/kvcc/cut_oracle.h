// Pluggable LOC-CUT probe engines (the "CutOracle seam").
//
// GLOBAL-CUT's inner loop is a long sequence of LOC-CUT probes: "is there a
// vertex cut of size < k between u and v, and if so, which one?". This
// header abstracts that probe behind an interface so the connectivity core
// can be swapped — Dinic baseline, NSY-2019-style local search, or a
// degree-routed hybrid — without touching the search logic. Every engine is
// exact: probe results (and therefore components, cuts, and hierarchies)
// are byte-identical across engines, because a found cut is always derived
// from the residual-reachable set of a true max flow, which is the same
// minimal source-side min cut no matter how the flow was computed.
//
// Selection: KvccOptions::cut_oracle, surfaced on the CLI as --cut-oracle.
// Documentation: docs/ARCHITECTURE.md, "The CutOracle seam".
#ifndef KVCC_KVCC_CUT_ORACLE_H_
#define KVCC_KVCC_CUT_ORACLE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/graph.h"
#include "kvcc/flow_graph.h"
#include "kvcc/options.h"

/// \file
/// \brief CutOracle: pluggable LOC-CUT probe engines (Dinic / LocalVC /
/// Hybrid) behind one exact, byte-identical interface.

namespace kvcc {

/// \brief Per-probe work accounting emitted by CutOracle::Probe.
///
/// Accumulated into the matching KvccStats fields by the GLOBAL-CUT
/// commit loops. Like the wavefront waste counters, the totals are not
/// replay-identical across thread counts (speculative wavefront probes do
/// real oracle work), but they are deterministic for a fixed
/// (input, options, thread count).
struct ProbeCounters {
  /// \brief Probes answered by the local-search engine (including those
  /// that fell back mid-probe).
  std::uint64_t probes_localvc = 0;
  /// \brief Local-search probes whose budgets ran out, completed by Dinic
  /// on the accumulated partial flow.
  std::uint64_t probes_localvc_fallback = 0;
  /// \brief Residual slots (arcs of the implicit vertex-split network)
  /// inspected by the probe's flow work; all engines report this.
  std::uint64_t probe_edges_touched = 0;

  /// \brief Adds another probe's counters field-by-field.
  /// \param other The counters to accumulate.
  void Add(const ProbeCounters& other) {
    probes_localvc += other.probes_localvc;
    probes_localvc_fallback += other.probes_localvc_fallback;
    probe_edges_touched += other.probe_edges_touched;
  }
};

/// \brief Tuning for the local-search probe path (LocalVC and Hybrid).
///
/// The defaults are what the presets run; tests pin tiny budgets to force
/// the fallback path deterministically.
struct LocalProbeTuning {
  /// \brief First-round slot-inspection budget; 0 (default) derives the
  /// budget from k (poly(k), independent of the graph size — that
  /// independence is what makes the probe sublinear).
  std::uint64_t budget_base = 0;
  /// \brief How many times the budget doubles before the probe falls back
  /// to Dinic on the partial flow.
  int doublings = 4;
};

/// \brief Interface of one LOC-CUT probe engine.
///
/// Binding is O(1): BindGraph only points the oracle at a graph and grows
/// its per-vertex flow state when the graph is larger than any seen
/// before. A bound oracle answers any number of probes; instances are
/// affine (not thread-safe), but any number of oracles may bind to and
/// probe one graph concurrently.
class CutOracle {
 public:
  virtual ~CutOracle() = default;

  /// \brief Binds the oracle to `g` (buffers recycled across binds). `g`
  /// must outlive all probes; the previously bound graph is never read
  /// again, so it may already have been rebuilt or destroyed.
  /// \param g The (certificate or working) graph to probe.
  void BindGraph(const Graph& g) { flow_.Bind(g); }

  /// \brief LOC-CUT probe: empty result when u == v, the endpoints are
  /// adjacent, or kappa(u, v) >= k; otherwise a u-v vertex cut with fewer
  /// than k vertices. The result is byte-identical across all engines.
  /// \param u Probe source (flow runs from u's out-node).
  /// \param v Probe sink.
  /// \param k The connectivity threshold.
  /// \param counters Incremented with this probe's work accounting.
  /// \return The cut, or empty.
  virtual std::vector<VertexId> Probe(VertexId u, VertexId v,
                                      std::uint32_t k,
                                      ProbeCounters& counters) = 0;

  /// \brief Which engine this oracle implements (mirrors the
  /// KvccOptions::cut_oracle it was created from).
  /// \return The engine kind.
  virtual CutOracleKind kind() const = 0;

  /// \brief The graph bound by the last BindGraph.
  /// \return The bound graph, or nullptr before the first bind.
  const Graph* graph() const { return flow_.graph(); }

  /// \brief The shared flow substrate, for its monotone work counters
  /// (inspected slots, Dinic phases, augmenting paths).
  /// \return The oracle's flow graph.
  const DirectedFlowGraph& flow() const { return flow_; }

 protected:
  /// \brief Shared flow substrate: the implicit vertex-split residual plus
  /// LOC-CUT extraction, reused by every engine.
  DirectedFlowGraph flow_;
};

/// \brief Creates the probe engine for `kind`.
/// \param kind Which engine to instantiate.
/// \param tuning Local-search budgets (ignored by kDinic).
/// \return A fresh unbound oracle; call BindGraph before probing.
std::unique_ptr<CutOracle> MakeCutOracle(CutOracleKind kind,
                                         const LocalProbeTuning& tuning = {});

}  // namespace kvcc

#endif  // KVCC_KVCC_CUT_ORACLE_H_
