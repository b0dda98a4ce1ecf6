#include <gtest/gtest.h>

#include <algorithm>

#include "flow/stoer_wagner.h"
#include "gen/fixtures.h"
#include "gen/planted_vcc.h"
#include "graph/graph.h"
#include "graph/graph_builder.h"
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
// the inspected-slot count. Nothing a probe leaves behind (flow links,
// either side's level labels, the backward queue) may outlive its probe or
// the graph it was bound to.
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

// Dinic's phases and augmenting paths over a fixed probe set, pinned to
// totals recorded before the level build grew from both ends: the level
// graph may label fewer nodes, but the blocking DFS must still find the
// same paths in the same phases. Probes run at limits kappa and kappa + 1
// on every non-adjacent ordered pair of small random graphs, and from
// every fifth vertex of a planted chain whose blocks are cut apart.
TEST(DirectedFlowGraphTest, PhasesAndPathsMatchPinnedTotals) {
  struct Totals {
    std::uint64_t phases = 0;
    std::uint64_t paths = 0;
  };
  auto probe_all = [](const Graph& g, VertexId source_stride,
                      Totals& totals) {
    DirectedFlowGraph pinned(g);
    DirectedFlowGraph uncapped(g);
    const auto n = static_cast<std::int32_t>(g.NumVertices());
    for (VertexId u = 0; u < g.NumVertices(); u += source_stride) {
      for (VertexId v = 0; v < g.NumVertices(); ++v) {
        if (u == v || g.HasEdge(u, v)) continue;
        const std::int32_t kappa = uncapped.LocalConnectivity(u, v, n);
        for (const std::int32_t limit : {kappa, kappa + 1}) {
          ASSERT_EQ(pinned.LocalConnectivity(u, v, limit), kappa);
        }
      }
    }
    totals.phases += pinned.phases();
    totals.paths += pinned.augmenting_paths();
  };
  Totals random;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    probe_all(kvcc::testing::RandomConnectedGraph(30, 40 + 10 * seed, seed),
              1, random);
  }
  EXPECT_EQ(random.phases, 39364u);
  EXPECT_EQ(random.paths, 89236u);

  PlantedVccConfig config;
  config.num_blocks = 4;
  config.block_size_min = 20;
  config.block_size_max = 28;
  config.connectivity = 7;
  config.seed = 5;
  Totals planted;
  probe_all(GeneratePlantedVcc(config).graph, 5, planted);
  EXPECT_EQ(planted.phases, 7648u);
  EXPECT_EQ(planted.paths, 12668u);
}

// K_m on vertices [first, first + m).
void AddClique(GraphBuilder& builder, VertexId first, VertexId m) {
  for (VertexId a = first; a < first + m; ++a) {
    for (VertexId b = a + 1; b < first + m; ++b) builder.AddEdge(a, b);
  }
}

// K_10 on 0..9 and the pocket K_4 on 10..13, joined by the edges 10-1 and
// 11-2.
Graph PocketGraph() {
  GraphBuilder builder(14);
  AddClique(builder, 0, 10);
  AddClique(builder, 10, 4);
  builder.AddEdge(10, 1);
  builder.AddEdge(11, 2);
  return builder.Build();
}

// K_m on 0..m-1 and, cut off from it, the triangle m..m+2.
Graph CliqueAndTriangle(VertexId m) {
  GraphBuilder builder(m + 3);
  AddClique(builder, 0, m);
  AddClique(builder, m, 3);
  return builder.Build();
}

// A probe at limits kappa and kappa + 1 must return the brute-force kappa,
// and LocCut at kappa + 1 the minimum separator closest to the source.
void ExpectMatchesBruteForce(const Graph& g, VertexId s, VertexId t) {
  const std::vector<VertexId> closest =
      kvcc::testing::BruteClosestMinimumSeparator(g, s, t);
  const auto kappa = static_cast<std::int32_t>(closest.size());
  ASSERT_EQ(static_cast<std::uint32_t>(kappa),
            kvcc::testing::BruteLocalVertexConnectivity(g, s, t));
  DirectedFlowGraph oracle(g);
  EXPECT_EQ(oracle.LocalConnectivity(s, t, kappa), kappa);
  EXPECT_EQ(oracle.LocalConnectivity(s, t, kappa + 1), kappa);
  EXPECT_TRUE(oracle.LocCut(s, t, static_cast<std::uint32_t>(kappa)).empty());
  EXPECT_EQ(oracle.LocCut(s, t, static_cast<std::uint32_t>(kappa) + 1),
            closest);
}

// The sink sits in a small pocket {10, 11, 12, t} hung off K_10 by the
// edges 10-1 and 11-2. Once both paths are pushed, the backward search
// from the sink closes inside the pocket while the source's side is still
// open, and the closest separator is {1, 2}, not the pocket's {10, 11}.
// With the pocket cut off entirely, the backward side empties before the
// forward side scans even the source's row, so a probe costs the same
// however large the source's clique is.
TEST(DirectedFlowGraphTest, SinkInASmallPocket) {
  const Graph g = PocketGraph();
  ExpectMatchesBruteForce(g, 0, 13);
  EXPECT_EQ(kvcc::testing::BruteClosestMinimumSeparator(g, 0, 13),
            (std::vector<VertexId>{1, 2}));

  std::vector<std::uint64_t> work;
  for (const VertexId m : {8u, 30u}) {
    const Graph h = CliqueAndTriangle(m);
    DirectedFlowGraph oracle(h);
    EXPECT_EQ(oracle.LocalConnectivity(0, m + 2, 1), 0);
    work.push_back(oracle.work_arcs());
  }
  EXPECT_EQ(work[0], work[1]);
}

// The mirror image: the source in the pocket, the sink in K_10. The
// forward side closes first; the closest separator is the pocket's own
// {10, 11}. Cut off, the probe reads the sink's row once and nothing else
// of the sink's clique.
TEST(DirectedFlowGraphTest, SourceInASmallPocket) {
  const Graph g = PocketGraph();
  ExpectMatchesBruteForce(g, 13, 0);
  EXPECT_EQ(kvcc::testing::BruteClosestMinimumSeparator(g, 13, 0),
            (std::vector<VertexId>{10, 11}));

  std::vector<std::uint64_t> work;
  for (const VertexId m : {8u, 30u}) {
    const Graph h = CliqueAndTriangle(m);
    DirectedFlowGraph oracle(h);
    EXPECT_EQ(oracle.LocalConnectivity(m + 2, 0, 1), 0);
    work.push_back(oracle.work_arcs() - h.Degree(0));
  }
  EXPECT_EQ(work[0], work[1]);
}

// Every source-sink path runs through a common neighbour 2..6 of s = 0 and
// t = 1 (the extra vertices 7 and 8 only reach the sink through them), so
// the shortest paths have three arcs and the two sides meet after one
// round each: all five paths come from one phase.
TEST(DirectedFlowGraphTest, CommonNeighboursMeetAfterOneRoundEach) {
  GraphBuilder builder(9);
  for (VertexId c = 2; c <= 6; ++c) {
    builder.AddEdge(0, c);
    builder.AddEdge(1, c);
    builder.AddEdge(c, c == 6 ? 2 : c + 1);
  }
  builder.AddEdge(0, 7);
  builder.AddEdge(7, 2);
  builder.AddEdge(7, 8);
  builder.AddEdge(8, 3);
  const Graph g = builder.Build();
  ExpectMatchesBruteForce(g, 0, 1);
  EXPECT_EQ(kvcc::testing::BruteClosestMinimumSeparator(g, 0, 1),
            (std::vector<VertexId>{2, 3, 4, 5, 6}));

  DirectedFlowGraph oracle(g);
  EXPECT_EQ(oracle.LocalConnectivity(0, 1, 6), 5);
  EXPECT_EQ(oracle.phases(), 1u);
  EXPECT_EQ(oracle.augmenting_paths(), 5u);
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
