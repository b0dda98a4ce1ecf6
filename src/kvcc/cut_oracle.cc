#include "kvcc/cut_oracle.h"

#include <cassert>

namespace kvcc {
namespace {

// Auto budget for the first local round: poly(k), independent of the graph
// size. Sized so that k DFS passes over a side of O(k) vertices with O(k)
// certificate degree each (the shape of a shallow cut) fit without a
// doubling, while a certify-bound probe on a big graph wastes at most
// budget * (2^(doublings+1) - 1) slots before Dinic takes over.
std::uint64_t AutoBudget(std::uint32_t k) {
  const std::uint64_t kk = static_cast<std::uint64_t>(k) * k;
  return 64 + 8 * kk * k;  // 64 + 8k^3
}

std::uint64_t BudgetFor(const LocalProbeTuning& tuning, std::uint32_t k) {
  return tuning.budget_base != 0 ? tuning.budget_base : AutoBudget(k);
}

class DinicOracle final : public CutOracle {
 public:
  std::vector<VertexId> Probe(VertexId u, VertexId v, std::uint32_t k,
                              ProbeCounters& counters) override {
    const std::uint64_t before = flow_.work_arcs();
    std::vector<VertexId> cut = flow_.LocCut(u, v, k);
    counters.probe_edges_touched += flow_.work_arcs() - before;
    return cut;
  }

  CutOracleKind kind() const override { return CutOracleKind::kDinic; }
};

class LocalVCOracle final : public CutOracle {
 public:
  explicit LocalVCOracle(const LocalProbeTuning& tuning) : tuning_(tuning) {}

  std::vector<VertexId> Probe(VertexId u, VertexId v, std::uint32_t k,
                              ProbeCounters& counters) override {
    return LocalProbe(flow_, tuning_, u, v, k, counters);
  }

  CutOracleKind kind() const override { return CutOracleKind::kLocalVC; }

  /// Shared implementation of the local-search probe path (also used by
  /// HybridOracle when it routes a probe locally).
  static std::vector<VertexId> LocalProbe(DirectedFlowGraph& flow,
                                          const LocalProbeTuning& tuning,
                                          VertexId u, VertexId v,
                                          std::uint32_t k,
                                          ProbeCounters& counters) {
    const std::uint64_t before = flow.work_arcs();
    DirectedFlowGraph::LocalProbeResult result = flow.LocCutLocal(
        u, v, k, BudgetFor(tuning, k), tuning.doublings);
    counters.probe_edges_touched += flow.work_arcs() - before;
    ++counters.probes_localvc;
    if (result.fell_back) ++counters.probes_localvc_fallback;
    return std::move(result.cut);
  }

 private:
  LocalProbeTuning tuning_;
};

class HybridOracle final : public CutOracle {
 public:
  explicit HybridOracle(const LocalProbeTuning& tuning) : tuning_(tuning) {}

  std::vector<VertexId> Probe(VertexId u, VertexId v, std::uint32_t k,
                              ProbeCounters& counters) override {
    const Graph& g = *flow_.graph();
    // Route to local search only where it can win. A Dinic phase pays one
    // level BFS, which stops below the sink's level and never scans the
    // rows of the last out-node level, so total_arcs bounds a phase rather
    // than pricing it; the certify-heavy probes of a k-connected region run
    // two or three phases. The greedy local pass usually certifies within
    // the first budget round (~budget_base arcs). So local search is worth
    // the fallback risk once the network is large enough that a first
    // budget round is cheap next to a single Dinic phase, provided the
    // source is not a hub (the DFS frontier grows with deg(u), defeating
    // locality). With the shallower Dinic phases this bet mostly loses
    // (bench_cut_oracle hub-heavy runs about 2x slower than Dinic); see
    // ROADMAP's "Retire LocalVC and Hybrid". Both tests are pure functions
    // of (graph, u, k), keeping probe routing — and with it every stats
    // counter — deterministic.
    const std::uint64_t base = BudgetFor(tuning_, k);
    const std::uint64_t total_arcs =
        2 * (static_cast<std::uint64_t>(g.NumVertices()) + 2 * g.NumEdges());
    const bool route_local =
        total_arcs > 2 * base &&
        g.Degree(u) <= 8 * static_cast<std::uint64_t>(k);
    if (route_local) {
      return LocalVCOracle::LocalProbe(flow_, tuning_, u, v, k, counters);
    }
    const std::uint64_t before = flow_.work_arcs();
    std::vector<VertexId> cut = flow_.LocCut(u, v, k);
    counters.probe_edges_touched += flow_.work_arcs() - before;
    return cut;
  }

  CutOracleKind kind() const override { return CutOracleKind::kHybrid; }

 private:
  LocalProbeTuning tuning_;
};

}  // namespace

std::unique_ptr<CutOracle> MakeCutOracle(CutOracleKind kind,
                                         const LocalProbeTuning& tuning) {
  switch (kind) {
    case CutOracleKind::kDinic:
      return std::make_unique<DinicOracle>();
    case CutOracleKind::kLocalVC:
      return std::make_unique<LocalVCOracle>(tuning);
    case CutOracleKind::kHybrid:
      return std::make_unique<HybridOracle>(tuning);
  }
  assert(false && "invalid CutOracleKind");
  return std::make_unique<DinicOracle>();
}

}  // namespace kvcc
