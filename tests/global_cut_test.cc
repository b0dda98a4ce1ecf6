#include "kvcc/global_cut.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "gen/fixtures.h"
#include "gen/harary.h"
#include "gen/planted_vcc.h"
#include "graph/bfs.h"
#include "graph/graph.h"
#include "graph/graph_builder.h"
#include "kvcc/kvcc_enum.h"
#include "support/brute_force.h"

namespace kvcc {
namespace {

std::vector<KvccOptions> AllVariants() {
  return {KvccOptions::Vcce(), KvccOptions::VcceN(), KvccOptions::VcceG(),
          KvccOptions::VcceStar()};
}

bool CutIsValid(const Graph& g, const std::vector<VertexId>& cut,
                std::uint32_t k) {
  if (cut.empty() || cut.size() >= k) return false;
  std::vector<VertexId> keep;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    if (std::find(cut.begin(), cut.end(), v) == cut.end()) keep.push_back(v);
  }
  const Graph remainder = g.InducedSubgraph(keep);
  if (remainder.NumVertices() == 0) return false;
  std::vector<std::uint32_t> dist;
  const std::uint32_t reached = BfsDistances(remainder, 0, dist);
  return reached < remainder.NumVertices();
}

TEST(GlobalCutTest, KConnectedGraphsHaveNoCut) {
  KvccStats stats;
  for (const auto& options : AllVariants()) {
    EXPECT_TRUE(GlobalCut(CompleteGraph(6), 4, {}, options, &stats)
                    .cut.empty());
    EXPECT_TRUE(
        GlobalCut(PetersenGraph(), 3, {}, options, &stats).cut.empty());
    EXPECT_TRUE(
        GlobalCut(HararyGraph(5, 12), 5, {}, options, &stats).cut.empty());
    EXPECT_TRUE(
        GlobalCut(CompleteBipartite(4, 5), 4, {}, options, &stats)
            .cut.empty());
  }
}

TEST(GlobalCutTest, FindsCutInTwoCliquesSharingVertices) {
  // Two K6 sharing 2 vertices: a 3-cut-free graph has kappa = 2.
  const Graph g = TwoCliquesSharing(6, 2);
  KvccStats stats;
  for (const auto& options : AllVariants()) {
    const auto result = GlobalCut(g, 4, {}, options, &stats);
    ASSERT_FALSE(result.cut.empty());
    EXPECT_TRUE(CutIsValid(g, result.cut, 4));
    EXPECT_EQ(result.cut.size(), 2u);  // The two shared vertices.
  }
}

TEST(GlobalCutTest, PetersenAtKEqualsFourYieldsCut) {
  // kappa(Petersen) = 3 < 4, so a cut of size 3 must surface.
  KvccStats stats;
  for (const auto& options : AllVariants()) {
    const auto result = GlobalCut(PetersenGraph(), 4, {}, options, &stats);
    ASSERT_FALSE(result.cut.empty());
    EXPECT_TRUE(CutIsValid(PetersenGraph(), result.cut, 4));
  }
}

TEST(GlobalCutTest, HararyJustBelowThreshold) {
  // H_{5,12} is exactly 5-connected: no cut at k=5, a cut at k=6.
  const Graph g = HararyGraph(5, 12);
  KvccStats stats;
  for (const auto& options : AllVariants()) {
    EXPECT_TRUE(GlobalCut(g, 5, {}, options, &stats).cut.empty());
    const auto result = GlobalCut(g, 6, {}, options, &stats);
    ASSERT_FALSE(result.cut.empty());
    EXPECT_TRUE(CutIsValid(g, result.cut, 6));
  }
}

// All variants must agree with the brute-force k-connectivity verdict and
// produce valid cuts on random inputs with minimum degree >= k.
TEST(GlobalCutTest, RandomGraphsMatchBruteForce) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    // Dense-ish random graphs so the min-degree precondition usually holds.
    const Graph g = kvcc::testing::RandomConnectedGraph(11, 28, seed);
    for (std::uint32_t k = 2; k <= 4; ++k) {
      // GlobalCut requires min degree >= k (KVCC-ENUM peels first);
      // emulate by skipping graphs violating it.
      bool degree_ok = true;
      for (VertexId v = 0; v < g.NumVertices(); ++v) {
        if (g.Degree(v) < k) degree_ok = false;
      }
      if (!degree_ok) continue;
      const bool expected = kvcc::testing::BruteIsKVertexConnected(g, k);
      for (const auto& options : AllVariants()) {
        KvccStats stats;
        const auto result = GlobalCut(g, k, {}, options, &stats);
        EXPECT_EQ(result.cut.empty(), expected)
            << "seed=" << seed << " k=" << k;
        if (!result.cut.empty()) {
          EXPECT_TRUE(CutIsValid(g, result.cut, k))
              << "seed=" << seed << " k=" << k;
        }
        EXPECT_EQ(stats.certificate_cut_fallbacks, 0u);
      }
    }
  }
}

TEST(GlobalCutTest, StatsAccountForEveryPhase1Vertex) {
  const Graph g = HararyGraph(4, 30);
  KvccStats stats;
  const auto result =
      GlobalCut(g, 4, {}, KvccOptions::VcceStar(), &stats);
  EXPECT_TRUE(result.cut.empty());
  // Phase 1 considers exactly n-1 vertices when no cut is found.
  EXPECT_EQ(stats.Phase1Total(), g.NumVertices() - 1);
  const double share_sum = stats.Ns1Share() + stats.Ns2Share() +
                           stats.GsShare() + stats.NonPrunedShare();
  EXPECT_NEAR(share_sum, 1.0, 1e-9);
}

TEST(GlobalCutTest, SweepsReduceFlowTests) {
  // On a k-connected graph (so phase 1 cannot exit early) where every
  // vertex is a strong side-vertex, VCCE* must run far fewer flow tests
  // than plain VCCE. In K_{10,12} same-side vertices share >= 10 common
  // neighbors, so Theorem 8 holds everywhere.
  const Graph g = CompleteBipartite(10, 12);
  KvccStats basic_stats, star_stats;
  EXPECT_TRUE(
      GlobalCut(g, 6, {}, KvccOptions::Vcce(), &basic_stats).cut.empty());
  EXPECT_TRUE(
      GlobalCut(g, 6, {}, KvccOptions::VcceStar(), &star_stats).cut.empty());
  EXPECT_LT(star_stats.loc_cut_flow_calls, basic_stats.loc_cut_flow_calls);
  EXPECT_GT(star_stats.strong_side_vertices_found, 0u);
}

TEST(GlobalCutTest, DisconnectedInputThrowsInsteadOfReadingOutOfBounds) {
  // Regression: the connectivity precondition used to be an assert, so a
  // Release build would index buckets[kUnreachable] when some vertex was
  // unreachable from the source. Now every build mode throws.
  GraphBuilder builder;
  // Two disjoint K4s: min degree 3, disconnected.
  for (VertexId base : {0u, 4u}) {
    for (VertexId i = 0; i < 4; ++i) {
      for (VertexId j = i + 1; j < 4; ++j) {
        builder.AddEdge(base + i, base + j);
      }
    }
  }
  const Graph g = builder.Build();
  // Every variant checks, including basic VCCE (distance_order = false),
  // whose phase 1 would otherwise misread a 0-flow to an unreachable
  // vertex as local k-connectivity.
  for (const auto& options : AllVariants()) {
    KvccStats stats;
    EXPECT_THROW(GlobalCut(g, 3, {}, options, &stats),
                 std::invalid_argument);
  }
  // The public entry point is unaffected: EnumerateKVccs splits into
  // connected components before any cut search.
  const auto result = EnumerateKVccs(g, 3);
  EXPECT_EQ(result.components.size(), 2u);
}

// The certificate substitution is subtle: phase 1 orders by distance in g
// but runs flow on the certificate, and phase 2 enumerates the source's
// *certificate* neighbors while testing adjacency and common neighbors in
// g. Pin the soundness of that mixing with a property test: for every
// sweep preset, with and without the certificate, the verdict must match
// the brute-force k-connectivity oracle and any returned cut must be a
// real cut of g.
TEST(GlobalCutTest, CertificateAndFullGraphAgreeAcrossOptionsMatrix) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const Graph g = kvcc::testing::RandomConnectedGraph(12, 30, seed);
    for (std::uint32_t k = 2; k <= 4; ++k) {
      bool degree_ok = true;
      for (VertexId v = 0; v < g.NumVertices(); ++v) {
        if (g.Degree(v) < k) degree_ok = false;
      }
      if (!degree_ok) continue;
      const bool expected = kvcc::testing::BruteIsKVertexConnected(g, k);
      for (const auto& preset : AllVariants()) {
        for (const bool certificate : {true, false}) {
          KvccOptions options = preset;
          options.sparse_certificate = certificate;
          KvccStats stats;
          GlobalCutScratch scratch;  // Reused across ks: warm-path check.
          const auto result = GlobalCut(g, k, {}, options, &stats, &scratch);
          EXPECT_EQ(result.cut.empty(), expected)
              << "seed=" << seed << " k=" << k
              << " certificate=" << certificate;
          if (!result.cut.empty()) {
            EXPECT_TRUE(CutIsValid(g, result.cut, k))
                << "seed=" << seed << " k=" << k
                << " certificate=" << certificate;
          }
          EXPECT_EQ(stats.certificate_cut_fallbacks, 0u);
        }
      }
    }
  }
}

// The pluggable probe engine is a pure substitution: for every sweep
// preset, GLOBAL-CUT under Dinic, LocalVC, and Hybrid must return the
// byte-identical cut and identical replay-identical stats on random
// inputs — only the three oracle work counters may differ.
TEST(GlobalCutTest, CutOracleKindsAreByteIdentical) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const Graph g = kvcc::testing::RandomConnectedGraph(12, 30, seed);
    for (std::uint32_t k = 2; k <= 4; ++k) {
      bool degree_ok = true;
      for (VertexId v = 0; v < g.NumVertices(); ++v) {
        if (g.Degree(v) < k) degree_ok = false;
      }
      if (!degree_ok) continue;
      for (const auto& preset : AllVariants()) {
        KvccOptions reference_options = preset;
        reference_options.cut_oracle = CutOracleKind::kDinic;
        KvccStats reference_stats;
        GlobalCutScratch scratch;
        const auto reference = GlobalCut(g, k, {}, reference_options,
                                         &reference_stats, &scratch);
        for (CutOracleKind kind :
             {CutOracleKind::kLocalVC, CutOracleKind::kHybrid}) {
          KvccOptions options = preset;
          options.cut_oracle = kind;
          KvccStats stats;
          // Scratch reuse across oracle kinds exercises the
          // option-change recreation path too.
          const auto result = GlobalCut(g, k, {}, options, &stats, &scratch);
          EXPECT_EQ(result.cut, reference.cut)
              << "seed=" << seed << " k=" << k
              << " oracle=" << CutOracleKindName(kind);
          EXPECT_EQ(stats.loc_cut_flow_calls,
                    reference_stats.loc_cut_flow_calls)
              << "seed=" << seed << " k=" << k
              << " oracle=" << CutOracleKindName(kind);
          EXPECT_EQ(stats.Phase1Total(), reference_stats.Phase1Total());
          EXPECT_EQ(stats.phase2_pairs_tested,
                    reference_stats.phase2_pairs_tested);
        }
      }
    }
  }
}

TEST(GlobalCutTest, ScratchReuseAcrossShrinkingAndGrowingGraphsIsSound) {
  // One scratch driven through graphs of very different sizes in both
  // directions; epoch-reset sweep state and rebuilt-in-place certificates
  // must never leak across calls.
  GlobalCutScratch scratch;
  KvccStats stats;
  const KvccOptions options = KvccOptions::VcceStar();
  const Graph big = HararyGraph(5, 40);
  const Graph small = CompleteGraph(6);
  const Graph cuttable = TwoCliquesSharing(6, 2);
  for (int round = 0; round < 3; ++round) {
    EXPECT_TRUE(GlobalCut(big, 5, {}, options, &stats, &scratch).cut.empty());
    EXPECT_TRUE(
        GlobalCut(small, 4, {}, options, &stats, &scratch).cut.empty());
    const auto result = GlobalCut(cuttable, 4, {}, options, &stats, &scratch);
    ASSERT_EQ(result.cut.size(), 2u) << "round=" << round;
    EXPECT_TRUE(CutIsValid(cuttable, result.cut, 4));
  }
}

/// Every KvccStats field, values only, in ToJson order.
std::string FieldValues(const KvccStats& stats) {
  const std::string json = stats.ToJson();
  std::string values;
  for (std::size_t at = json.find(": "); at != std::string::npos;
       at = json.find(": ", at + 1)) {
    const std::size_t end = json.find_first_of(",}", at);
    if (!values.empty()) values += ' ';
    values += json.substr(at + 2, end - at - 2);
  }
  return values;
}

// Golden counters of the serial search: every KvccStats field of one
// GlobalCut call and of one serial EnumerateKVccs run, per input and
// preset. The wavefront tests compare multi-worker runs against the
// serial run; these pinned values keep the serial run itself honest.
TEST(GlobalCutTest, SerialCountersMatchGoldenValues) {
  PlantedVccConfig config;
  config.num_blocks = 5;
  config.block_size_min = 16;
  config.block_size_max = 24;
  config.connectivity = 8;
  config.overlap = 2;
  config.bridge_edges = 1;
  config.seed = 77;
  const PlantedVccGraph planted = GeneratePlantedVcc(config);
  struct Input {
    const char* name;
    Graph graph;
    std::uint32_t k;
  };
  const std::vector<Input> inputs = {
      {"harary_5_24", HararyGraph(5, 24), 5},
      {"two_cliques", TwoCliquesSharing(6, 2), 4},
      {"petersen", PetersenGraph(), 4},
      {"planted_77", planted.graph, planted.max_connected_k}};
  const char* const preset_names[] = {"VCCE", "VCCE-N", "VCCE-G", "VCCE*"};
  const std::vector<KvccOptions> presets = AllVariants();

  // Columns: the KvccStats fields in declaration order.
  const std::vector<std::string> golden = {
      "harary_5_24 VCCE cut: "
      "0 0 0 18 5 7 0 3 0 1 25 0 0 0 0 0 0 0 60 60 1 0 0 0 0 0 0 0 0 0 0 6752 "
      "0 0 0 0 0 0 0",
      "harary_5_24 VCCE enum: "
      "0 0 0 18 5 7 0 3 0 1 25 0 1 1 0 0 23 0 60 60 1 0 0 0 0 0 0 0 0 0 0 "
      "6752 0 0 0 0 0 0 0",
      "harary_5_24 VCCE-N cut: "
      "0 3 0 18 2 7 0 3 0 1 25 0 0 0 0 0 0 0 60 60 1 0 24 0 0 0 0 0 0 0 0 "
      "6752 0 0 0 0 0 0 0",
      "harary_5_24 VCCE-N enum: "
      "0 3 0 18 2 7 0 3 0 1 25 0 1 1 0 0 23 0 60 60 1 0 24 0 0 0 0 0 0 0 0 "
      "6752 0 0 0 0 0 0 0",
      "harary_5_24 VCCE-G cut: "
      "0 0 0 18 5 7 1 2 0 1 25 0 0 0 0 0 0 0 60 60 1 0 0 0 0 0 0 0 0 0 0 6752 "
      "0 0 0 0 0 0 0",
      "harary_5_24 VCCE-G enum: "
      "0 0 0 18 5 7 1 2 0 1 25 0 1 1 0 0 23 0 60 60 1 0 0 0 0 0 0 0 0 0 0 "
      "6752 0 0 0 0 0 0 0",
      "harary_5_24 VCCE* cut: "
      "0 3 0 18 2 7 1 2 0 1 25 0 0 0 0 0 0 0 60 60 1 0 24 0 0 0 0 0 0 0 0 "
      "6752 0 0 0 0 0 0 0",
      "harary_5_24 VCCE* enum: "
      "0 3 0 18 2 7 1 2 0 1 25 0 1 1 0 0 23 0 60 60 1 0 24 0 0 0 0 0 0 0 0 "
      "6752 0 0 0 0 0 0 0",
      "two_cliques VCCE cut: "
      "0 0 0 1 5 0 0 0 0 1 1 0 0 0 0 0 0 0 29 27 2 0 0 0 0 0 0 0 0 0 0 58 0 0 "
      "0 0 0 0 0",
      "two_cliques VCCE enum: "
      "0 0 0 1 15 0 0 12 0 3 1 1 2 3 0 0 19 0 59 55 4 0 0 0 0 0 0 0 0 0 0 58 0 "
      "0 0 0 0 0 0",
      "two_cliques VCCE-N cut: "
      "0 0 0 1 0 0 0 0 0 1 1 0 0 0 0 0 0 0 29 27 2 8 10 0 0 0 0 0 0 0 0 61 0 "
      "0 0 0 0 0 0",
      "two_cliques VCCE-N enum: "
      "10 0 0 1 0 0 0 0 0 3 1 1 2 3 0 0 19 0 59 55 4 16 18 4 0 0 0 0 0 0 0 61 "
      "0 0 0 0 0 0 0",
      "two_cliques VCCE-G cut: "
      "0 0 0 1 0 0 0 0 0 1 1 0 0 0 0 0 0 0 29 27 2 0 0 0 0 0 0 0 0 0 0 58 0 0 "
      "0 0 0 0 0",
      "two_cliques VCCE-G enum: "
      "0 0 0 1 10 0 0 12 0 3 1 1 2 3 0 0 19 0 59 55 4 0 0 0 0 0 0 0 0 0 0 58 0 "
      "0 0 0 0 0 0",
      "two_cliques VCCE* cut: "
      "0 0 0 1 0 0 0 0 0 1 1 0 0 0 0 0 0 0 29 27 2 8 10 0 0 0 0 0 0 0 0 61 0 "
      "0 0 0 0 0 0",
      "two_cliques VCCE* enum: "
      "10 0 0 1 0 0 0 0 0 3 1 1 2 3 0 0 19 0 59 55 4 16 18 4 0 0 0 0 0 0 0 61 "
      "0 0 0 0 0 0 0",
      "petersen VCCE cut: "
      "0 0 0 1 1 0 0 0 0 1 1 0 0 0 0 0 0 0 15 15 0 0 0 0 0 0 0 0 0 0 0 51 0 0 "
      "0 0 0 0 0",
      "petersen VCCE enum: "
      "0 0 0 0 0 0 0 0 0 0 0 0 0 1 10 1 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 "
      "0 0 0 0",
      "petersen VCCE-N cut: "
      "0 0 0 1 0 0 0 0 0 1 1 0 0 0 0 0 0 0 15 15 0 0 10 0 0 0 0 0 0 0 0 51 0 0 "
      "0 0 0 0 0",
      "petersen VCCE-N enum: "
      "0 0 0 0 0 0 0 0 0 0 0 0 0 1 10 1 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 "
      "0 0 0 0",
      "petersen VCCE-G cut: "
      "0 0 0 1 0 0 0 0 0 1 1 0 0 0 0 0 0 0 15 15 0 0 0 0 0 0 0 0 0 0 0 51 0 0 "
      "0 0 0 0 0",
      "petersen VCCE-G enum: "
      "0 0 0 0 0 0 0 0 0 0 0 0 0 1 10 1 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 "
      "0 0 0 0",
      "petersen VCCE* cut: "
      "0 0 0 1 0 0 0 0 0 1 1 0 0 0 0 0 0 0 15 15 0 0 10 0 0 0 0 0 0 0 0 51 0 0 "
      "0 0 0 0 0",
      "petersen VCCE* enum: "
      "0 0 0 0 0 0 0 0 0 0 0 0 0 1 10 1 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 "
      "0 0 0 0",
      "planted_77 VCCE cut: "
      "0 0 0 9 10 0 0 0 0 1 9 0 0 0 0 0 0 0 560 547 5 0 0 0 0 0 0 0 0 0 0 2157 "
      "0 0 0 0 0 0 0",
      "planted_77 VCCE enum: "
      "0 0 0 92 87 47 0 93 0 9 139 4 5 9 4 4 367 0 2182 2135 19 0 0 0 0 0 0 0 "
      "0 0 0 25887 0 0 0 0 0 0 0",
      "planted_77 VCCE-N cut: "
      "0 0 0 1 0 0 0 0 0 1 1 0 0 0 0 0 0 0 560 547 5 0 94 0 0 0 0 0 0 0 0 2604 "
      "0 0 0 0 0 0 0",
      "planted_77 VCCE-N enum: "
      "0 47 0 51 3 47 0 93 0 9 98 4 5 9 4 4 367 0 2182 2135 19 0 94 282 0 0 0 "
      "0 0 0 0 23739 0 0 0 0 0 0 0",
      "planted_77 VCCE-G cut: "
      "0 0 0 1 0 0 0 0 0 1 1 0 0 0 0 0 0 0 560 547 5 0 0 0 0 0 0 0 0 0 0 2604 "
      "0 0 0 0 0 0 0",
      "planted_77 VCCE-G enum: "
      "0 0 0 53 48 47 8 85 0 9 100 4 5 9 4 4 367 0 2182 2135 19 0 0 0 0 0 0 0 "
      "0 0 0 24056 0 0 0 0 0 0 0",
      "planted_77 VCCE* cut: "
      "0 0 0 1 0 0 0 0 0 1 1 0 0 0 0 0 0 0 560 547 5 0 94 0 0 0 0 0 0 0 0 2604 "
      "0 0 0 0 0 0 0",
      "planted_77 VCCE* enum: "
      "0 47 0 51 3 33 8 85 14 9 84 4 5 9 4 4 367 0 2182 2135 19 0 94 282 0 0 0 "
      "0 0 0 0 22692 0 0 0 0 0 0 0",
  };

  std::vector<std::string> observed;
  for (const Input& input : inputs) {
    for (std::size_t p = 0; p < presets.size(); ++p) {
      const std::string label =
          std::string(input.name) + " " + preset_names[p];
      KvccStats cut_stats;
      GlobalCut(input.graph, input.k, {}, presets[p], &cut_stats);
      observed.push_back(label + " cut: " + FieldValues(cut_stats));
      const KvccResult run = EnumerateKVccs(input.graph, input.k, presets[p]);
      observed.push_back(label + " enum: " + FieldValues(run.stats));
    }
  }
  ASSERT_EQ(observed.size(), golden.size());
  for (std::size_t i = 0; i < golden.size(); ++i) {
    EXPECT_EQ(observed[i], golden[i]);
  }
}

TEST(GlobalCutTest, DisablingCertificateStillCorrect) {
  KvccOptions options = KvccOptions::VcceStar();
  options.sparse_certificate = false;
  KvccStats stats;
  EXPECT_TRUE(GlobalCut(CompleteGraph(7), 4, {}, options, &stats)
                  .cut.empty());
  const Graph g = TwoCliquesSharing(6, 2);
  const auto result = GlobalCut(g, 4, {}, options, &stats);
  EXPECT_TRUE(CutIsValid(g, result.cut, 4));
  EXPECT_EQ(stats.certificate_edges_kept, 0u);  // Never built one.
}

}  // namespace
}  // namespace kvcc
