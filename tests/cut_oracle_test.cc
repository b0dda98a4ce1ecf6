// The CutOracle contract: every probe engine (Dinic, LocalVC, Hybrid) is
// exact, so probe results are byte-identical engine-to-engine, match the
// brute-force local-connectivity oracle, and are the closest-to-source
// minimum separator; a rebound oracle answers exactly like a freshly bound
// one; and the accounting counters behave as documented (fallbacks are a
// subset of local probes, Dinic never reports local work).

#include "kvcc/cut_oracle.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "gen/fixtures.h"
#include "gen/harary.h"
#include "graph/bfs.h"
#include "graph/graph.h"
#include "support/brute_force.h"

namespace kvcc {
namespace {

std::vector<CutOracleKind> AllKinds() {
  return {CutOracleKind::kDinic, CutOracleKind::kLocalVC,
          CutOracleKind::kHybrid};
}

/// True iff removing `cut` (which must avoid u and v) leaves u and v in
/// different components of g.
bool CutSeparates(const Graph& g, const std::vector<VertexId>& cut,
                  VertexId u, VertexId v) {
  if (std::find(cut.begin(), cut.end(), u) != cut.end()) return false;
  if (std::find(cut.begin(), cut.end(), v) != cut.end()) return false;
  std::vector<VertexId> keep;
  std::vector<VertexId> relabel(g.NumVertices(), 0);
  for (VertexId w = 0; w < g.NumVertices(); ++w) {
    if (std::find(cut.begin(), cut.end(), w) == cut.end()) {
      relabel[w] = static_cast<VertexId>(keep.size());
      keep.push_back(w);
    }
  }
  const Graph remainder = g.InducedSubgraph(keep);
  std::vector<std::uint32_t> dist;
  BfsDistances(remainder, relabel[u], dist);
  return dist[relabel[v]] == kUnreachable;
}

// Probe-by-probe agreement: on random graphs, every non-adjacent pair at
// every k must produce the *same bytes* from all three engines, and the
// verdict must match the brute-force kappa(u, v): empty iff kappa >= k,
// otherwise a separating cut of exactly kappa vertices (minimum cuts have
// max-flow size, and the minimal source-side min cut is unique).
TEST(CutOracleTest, EnginesAgreeProbeByProbeAndMatchBruteForce) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Graph g = kvcc::testing::RandomConnectedGraph(11, 28, seed);
    std::vector<std::unique_ptr<CutOracle>> oracles;
    for (CutOracleKind kind : AllKinds()) {
      oracles.push_back(MakeCutOracle(kind));
      oracles.back()->BindGraph(g);
    }
    for (VertexId u = 0; u < g.NumVertices(); ++u) {
      for (VertexId v = u + 1; v < g.NumVertices(); ++v) {
        if (g.HasEdge(u, v)) continue;
        const std::uint32_t kappa =
            kvcc::testing::BruteLocalVertexConnectivity(g, u, v);
        for (std::uint32_t k = 2; k <= 5; ++k) {
          ProbeCounters trace;
          const std::vector<VertexId> reference =
              oracles[0]->Probe(u, v, k, trace);
          if (kappa >= k) {
            EXPECT_TRUE(reference.empty())
                << "seed=" << seed << " u=" << u << " v=" << v << " k=" << k;
          } else {
            EXPECT_EQ(reference.size(), kappa)
                << "seed=" << seed << " u=" << u << " v=" << v << " k=" << k;
            EXPECT_TRUE(CutSeparates(g, reference, u, v))
                << "seed=" << seed << " u=" << u << " v=" << v << " k=" << k;
          }
          for (std::size_t i = 1; i < oracles.size(); ++i) {
            ProbeCounters other_trace;
            EXPECT_EQ(oracles[i]->Probe(u, v, k, other_trace), reference)
                << "engine=" << static_cast<int>(oracles[i]->kind())
                << " seed=" << seed << " u=" << u << " v=" << v
                << " k=" << k;
          }
        }
      }
    }
  }
}

// Vertices reachable from u in g - removed, as a bitmask (n <= 32).
std::uint32_t ReachableMask(const std::vector<std::uint32_t>& adj,
                            VertexId u, std::uint32_t removed) {
  std::uint32_t seen = 1u << u;
  std::uint32_t frontier = seen;
  while (frontier != 0) {
    std::uint32_t next = 0;
    for (std::uint32_t f = frontier; f != 0; f &= f - 1) {
      next |= adj[static_cast<std::size_t>(__builtin_ctz(f))];
    }
    frontier = next & ~removed & ~seen;
    seen |= frontier;
  }
  return seen;
}

// An engine-independent pin on *which* cut a probe returns, not only its
// size: with k = kappa(u, v) + 1, every engine must return the minimum u-v
// separator closest to u — the size-kappa separator S whose u-side
// component in g - S is contained in every other minimum separator's. It
// is found here by enumerating vertex subsets, so the check holds however
// the flow engines underneath are implemented.
TEST(CutOracleTest, ProbeReturnsTheClosestToSourceMinimumSeparator) {
  std::uint64_t probes = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const Graph g =
        kvcc::testing::RandomConnectedGraph(11, 10 + seed % 25, seed);
    const VertexId n = g.NumVertices();
    std::vector<std::uint32_t> adj(n, 0);
    for (VertexId w = 0; w < n; ++w) {
      for (VertexId x : g.Neighbors(w)) adj[w] |= 1u << x;
    }
    std::vector<std::unique_ptr<CutOracle>> oracles;
    for (CutOracleKind kind : AllKinds()) {
      oracles.push_back(MakeCutOracle(kind));
      oracles.back()->BindGraph(g);
    }
    for (VertexId u = 0; u < n; ++u) {
      for (VertexId v = 0; v < n; ++v) {
        if (u == v || g.HasEdge(u, v)) continue;
        const std::uint32_t kappa =
            kvcc::testing::BruteLocalVertexConnectivity(g, u, v);
        // Among all size-kappa separators, the one with the smallest
        // u-side component; it must be contained in all the others.
        std::uint32_t closest = 0;
        std::uint32_t closest_side = ~0u;
        std::vector<std::uint32_t> sides;
        const std::uint32_t endpoints = (1u << u) | (1u << v);
        for (std::uint32_t s = 0; s < (1u << n); ++s) {
          if ((s & endpoints) != 0 ||
              static_cast<std::uint32_t>(__builtin_popcount(s)) != kappa) {
            continue;
          }
          const std::uint32_t side = ReachableMask(adj, u, s);
          if ((side & (1u << v)) != 0) continue;
          sides.push_back(side);
          if (__builtin_popcount(side) < __builtin_popcount(closest_side)) {
            closest = s;
            closest_side = side;
          }
        }
        ASSERT_FALSE(sides.empty());
        for (std::uint32_t side : sides) {
          ASSERT_EQ(closest_side & ~side, 0u)
              << "seed=" << seed << " u=" << u << " v=" << v;
        }
        std::vector<VertexId> expected;
        for (VertexId w = 0; w < n; ++w) {
          if ((closest >> w) & 1u) expected.push_back(w);
        }
        for (const auto& oracle : oracles) {
          ProbeCounters trace;
          std::vector<VertexId> cut = oracle->Probe(u, v, kappa + 1, trace);
          std::sort(cut.begin(), cut.end());
          EXPECT_EQ(cut, expected)
              << "engine=" << static_cast<int>(oracle->kind())
              << " seed=" << seed << " u=" << u << " v=" << v
              << " kappa=" << kappa;
          ++probes;
        }
      }
    }
  }
  EXPECT_GT(probes, 7000u);
}

// Adjacent pairs and self-probes are locally k-connected for free (Lemma
// 5): every engine must answer empty without running any flow.
TEST(CutOracleTest, AdjacentAndSelfProbesAreTrivial) {
  const Graph g = PetersenGraph();
  for (CutOracleKind kind : AllKinds()) {
    auto oracle = MakeCutOracle(kind);
    oracle->BindGraph(g);
    ProbeCounters trace;
    EXPECT_TRUE(oracle->Probe(0, 0, 3, trace).empty());
    // Petersen vertex 0 is adjacent to 1.
    EXPECT_TRUE(oracle->Probe(0, 1, 3, trace).empty());
    EXPECT_EQ(trace.probe_edges_touched, 0u);
  }
}

// Starving the local search (one arc of budget, no doublings) forces the
// Dinic fallback on essentially every real probe — and the answers must
// still be byte-identical to the baseline, because the fallback completes
// the max flow from the partial state instead of restarting.
TEST(CutOracleTest, ExhaustedBudgetsFallBackAndStayExact) {
  LocalProbeTuning starved;
  starved.budget_base = 1;
  starved.doublings = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Graph g = kvcc::testing::RandomConnectedGraph(11, 28, seed);
    auto baseline = MakeCutOracle(CutOracleKind::kDinic);
    auto starving = MakeCutOracle(CutOracleKind::kLocalVC, starved);
    baseline->BindGraph(g);
    starving->BindGraph(g);
    ProbeCounters trace;
    for (VertexId u = 0; u < g.NumVertices(); ++u) {
      for (VertexId v = u + 1; v < g.NumVertices(); ++v) {
        if (g.HasEdge(u, v)) continue;
        ProbeCounters ignored;
        EXPECT_EQ(starving->Probe(u, v, 4, trace),
                  baseline->Probe(u, v, 4, ignored))
            << "seed=" << seed << " u=" << u << " v=" << v;
      }
    }
    EXPECT_GT(trace.probes_localvc, 0u);
    EXPECT_GT(trace.probes_localvc_fallback, 0u);
    EXPECT_LE(trace.probes_localvc_fallback, trace.probes_localvc);
  }
}

// Counter semantics per engine: Dinic never reports local-search probes;
// LocalVC reports one per non-trivial probe; every engine reports arc
// inspections for a probe that ran flow.
TEST(CutOracleTest, CountersFollowTheEngine) {
  const Graph g = kvcc::testing::RandomConnectedGraph(11, 28, 3);

  auto dinic = MakeCutOracle(CutOracleKind::kDinic);
  dinic->BindGraph(g);
  ProbeCounters dinic_trace;
  bool probed = false;
  for (VertexId v = 2; v < g.NumVertices() && !probed; ++v) {
    if (!g.HasEdge(0, v)) {
      dinic->Probe(0, v, 4, dinic_trace);
      probed = true;
    }
  }
  ASSERT_TRUE(probed);
  EXPECT_EQ(dinic_trace.probes_localvc, 0u);
  EXPECT_EQ(dinic_trace.probes_localvc_fallback, 0u);
  EXPECT_GT(dinic_trace.probe_edges_touched, 0u);

  auto local = MakeCutOracle(CutOracleKind::kLocalVC);
  local->BindGraph(g);
  ProbeCounters local_trace;
  std::uint64_t flow_probes = 0;
  for (VertexId u = 0; u < g.NumVertices(); ++u) {
    for (VertexId v = u + 1; v < g.NumVertices(); ++v) {
      if (g.HasEdge(u, v)) continue;
      local->Probe(u, v, 4, local_trace);
      ++flow_probes;
    }
  }
  EXPECT_EQ(local_trace.probes_localvc, flow_probes);
  EXPECT_LE(local_trace.probes_localvc_fallback, local_trace.probes_localvc);
  EXPECT_GT(local_trace.probe_edges_touched, 0u);
}

// The O(1) rebind: an oracle moved between graphs of different sizes —
// as a wavefront pool oracle is, once per probe — must answer exactly like
// a freshly created and bound one (its per-vertex flow state is reset,
// never trusted stale).
TEST(CutOracleTest, RebindMatchesFreshBindAcrossGraphs) {
  const Graph big = kvcc::testing::RandomConnectedGraph(14, 40, 9);
  const Graph small = kvcc::testing::RandomConnectedGraph(8, 14, 10);
  const Graph grown = kvcc::testing::RandomConnectedGraph(16, 50, 11);

  auto reused = MakeCutOracle(CutOracleKind::kLocalVC);
  for (const Graph* g : {&big, &small, &grown, &small, &big}) {
    reused->BindGraph(*g);
    EXPECT_EQ(reused->graph(), g);
    for (VertexId u = 0; u < g->NumVertices(); ++u) {
      for (VertexId v = u + 1; v < g->NumVertices(); ++v) {
        if (g->HasEdge(u, v)) continue;
        auto fresh = MakeCutOracle(CutOracleKind::kLocalVC);
        fresh->BindGraph(*g);
        ProbeCounters a, b;
        EXPECT_EQ(reused->Probe(u, v, 3, a), fresh->Probe(u, v, 3, b))
            << "n=" << g->NumVertices() << " u=" << u << " v=" << v;
      }
    }
  }
}

// An oracle keeps answering correctly over many probes on one bind (the
// O(touched) reset must leave no flow behind).
TEST(CutOracleTest, RepeatedProbesOnOneBindStayConsistent) {
  const Graph g = TwoCliquesSharing(6, 2);  // kappa = 2 via the shared pair.
  auto oracle = MakeCutOracle(CutOracleKind::kHybrid);
  oracle->BindGraph(g);
  ProbeCounters trace;
  const std::vector<VertexId> first = oracle->Probe(0, 9, 4, trace);
  ASSERT_EQ(first.size(), 2u);
  for (int round = 0; round < 10; ++round) {
    EXPECT_EQ(oracle->Probe(0, 9, 4, trace), first) << "round=" << round;
    EXPECT_TRUE(oracle->Probe(0, 9, 2, trace).empty());
  }
}

// MakeCutOracle reports the kind it was asked for, and the names round-trip
// through the CLI-facing helpers.
TEST(CutOracleTest, KindsAndNamesRoundTrip) {
  for (CutOracleKind kind : AllKinds()) {
    EXPECT_EQ(MakeCutOracle(kind)->kind(), kind);
    EXPECT_EQ(CutOracleKindFromName(CutOracleKindName(kind)), kind);
  }
  EXPECT_THROW(CutOracleKindFromName("bogus"), std::invalid_argument);
}

}  // namespace
}  // namespace kvcc
