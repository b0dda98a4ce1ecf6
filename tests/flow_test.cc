#include <gtest/gtest.h>

#include <algorithm>

#include "flow/stoer_wagner.h"
#include "gen/fixtures.h"
#include "graph/graph.h"
#include "kvcc/flow_graph.h"
#include "support/brute_force.h"

namespace kvcc {
namespace {

TEST(DirectedFlowGraphTest, BindReusesOracleAcrossGraphs) {
  DirectedFlowGraph oracle;  // unbound
  const Graph k5 = CompleteGraph(5);
  oracle.Bind(k5);
  // kappa(u, v) in K5 \ {u,v} paths: adjacent -> LocCut returns empty.
  EXPECT_TRUE(oracle.LocCut(0, 1, 4).empty());

  const Graph cycle = CycleGraph(8);
  oracle.Bind(cycle);
  // In C8, kappa(0, 4) = 2 < 3: a 2-vertex cut must come back.
  const auto cut = oracle.LocCut(0, 4, 3);
  EXPECT_EQ(cut.size(), 2u);

  const Graph bip = CompleteBipartite(3, 3);
  oracle.Bind(bip);
  // kappa between two left-side vertices of K_{3,3} is 3: no cut below 3.
  EXPECT_TRUE(oracle.LocCut(0, 1, 3).empty());
}

// Many probes on one bound oracle, alternating capped and uncapped flows,
// must each match brute-force connectivity: the O(touched) reset between
// probes leaves no flow behind, including after a probe stopped early at
// its limit or rerouted earlier paths.
TEST(DirectedFlowGraphTest, RepeatedProbesMatchBruteForce) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const Graph g = kvcc::testing::RandomConnectedGraph(12, 30, seed);
    DirectedFlowGraph oracle(g);
    const auto n = static_cast<std::int32_t>(g.NumVertices());
    for (VertexId u = 0; u < g.NumVertices(); ++u) {
      for (VertexId v = 0; v < g.NumVertices(); ++v) {
        if (u == v || g.HasEdge(u, v)) continue;
        const auto kappa = static_cast<std::int32_t>(
            kvcc::testing::BruteLocalVertexConnectivity(g, u, v));
        EXPECT_EQ(oracle.LocalConnectivity(u, v, 2), std::min(kappa, 2))
            << "seed=" << seed << " u=" << u << " v=" << v;
        EXPECT_EQ(oracle.LocalConnectivity(u, v, n), kappa)
            << "seed=" << seed << " u=" << u << " v=" << v;
      }
    }
  }
}

// One oracle cycled over graphs that shrink and then grow must answer every
// probe exactly as a freshly constructed oracle does: the value, the cut and
// the inspected-slot count. Nothing stamped per probe (flow links, the
// sink's neighbourhood) may outlive its probe or the graph it was bound to.
TEST(DirectedFlowGraphTest, WarmOracleMatchesFreshAcrossRebinds) {
  DirectedFlowGraph warm;
  std::uint64_t seed = 3;
  for (const VertexId n : {40u, 12u, 90u}) {
    const Graph g = kvcc::testing::RandomConnectedGraph(n, 3 * n, seed++);
    warm.Bind(g);
    for (VertexId u = 0; u < n; ++u) {
      for (VertexId v = 0; v < n; ++v) {
        if (u == v || g.HasEdge(u, v)) continue;
        const std::int32_t kappa = DirectedFlowGraph(g).LocalConnectivity(
            u, v, static_cast<std::int32_t>(n));
        for (const std::int32_t limit : {kappa, kappa + 1}) {
          DirectedFlowGraph fresh(g);
          std::uint64_t before = warm.work_arcs();
          ASSERT_EQ(warm.LocalConnectivity(u, v, limit),
                    fresh.LocalConnectivity(u, v, limit))
              << "n=" << n << " u=" << u << " v=" << v << " limit=" << limit;
          ASSERT_EQ(warm.work_arcs() - before, fresh.work_arcs())
              << "n=" << n << " u=" << u << " v=" << v << " limit=" << limit;

          DirectedFlowGraph fresh_cut(g);
          const auto k = static_cast<std::uint32_t>(limit);
          before = warm.work_arcs();
          ASSERT_EQ(warm.LocCut(u, v, k), fresh_cut.LocCut(u, v, k))
              << "n=" << n << " u=" << u << " v=" << v << " k=" << k;
          ASSERT_EQ(warm.work_arcs() - before, fresh_cut.work_arcs())
              << "n=" << n << " u=" << u << " v=" << v << " k=" << k;
        }
      }
    }
  }
}

TEST(StoerWagnerTest, TrivialGraphs) {
  EXPECT_EQ(StoerWagnerMinCut(Graph()).weight, GlobalMinCut::kInfiniteCut);
  EXPECT_EQ(StoerWagnerMinCut(CompleteGraph(1)).weight,
            GlobalMinCut::kInfiniteCut);
}

TEST(StoerWagnerTest, DisconnectedGraphHasZeroCut) {
  const Graph g = Graph::FromEdges(
      4, std::vector<std::pair<VertexId, VertexId>>{{0, 1}, {2, 3}});
  const auto cut = StoerWagnerMinCut(g);
  EXPECT_EQ(cut.weight, 0u);
}

TEST(StoerWagnerTest, BridgeGraph) {
  // Two triangles joined by one edge: min cut 1.
  const Graph g = Graph::FromEdges(
      6, std::vector<std::pair<VertexId, VertexId>>{
             {0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}, {2, 3}});
  const auto cut = StoerWagnerMinCut(g);
  EXPECT_EQ(cut.weight, 1u);
  EXPECT_TRUE(cut.side.size() == 3 || cut.side.size() == 3u);
}

TEST(StoerWagnerTest, CompleteGraphCut) {
  // K_5: min cut isolates one vertex, weight 4.
  EXPECT_EQ(StoerWagnerMinCut(CompleteGraph(5)).weight, 4u);
}

TEST(StoerWagnerTest, CycleCutIsTwo) {
  EXPECT_EQ(StoerWagnerMinCut(CycleGraph(9)).weight, 2u);
}

TEST(StoerWagnerTest, EarlyStopReturnsValidSubThresholdCut) {
  const Graph g = MakeFigure1Graph().graph;
  const auto cut = StoerWagnerMinCut(g, /*early_stop_below=*/4);
  ASSERT_LT(cut.weight, 4u);
  ASSERT_FALSE(cut.side.empty());
  ASSERT_LT(cut.side.size(), g.NumVertices());
  // Verify the reported weight matches the actual crossing-edge count.
  std::vector<bool> in_side(g.NumVertices(), false);
  for (VertexId v : cut.side) in_side[v] = true;
  std::uint64_t crossing = 0;
  for (VertexId u = 0; u < g.NumVertices(); ++u) {
    for (VertexId v : g.Neighbors(u)) {
      if (u < v && in_side[u] != in_side[v]) ++crossing;
    }
  }
  EXPECT_EQ(crossing, cut.weight);
}

// Property: Stoer–Wagner matches the brute-force min cut on random graphs.
TEST(StoerWagnerTest, MatchesBruteForceOnRandomGraphs) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const Graph g = kvcc::testing::RandomConnectedGraph(10, seed % 14, seed);
    const auto cut = StoerWagnerMinCut(g);
    EXPECT_EQ(cut.weight, kvcc::testing::BruteMinEdgeCutWeight(g))
        << "seed=" << seed;
  }
}

}  // namespace
}  // namespace kvcc
