#include "kvcc/sparse_certificate.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "gen/fixtures.h"
#include "gen/harary.h"
#include "gen/planted_vcc.h"
#include "graph/connected_components.h"
#include "graph/graph.h"
#include "graph/graph_builder.h"
#include "kvcc/connectivity.h"
#include "support/brute_force.h"
#include "util/random.h"

namespace kvcc {
namespace {

// Disjoint union of random connected graphs of the given sizes, followed
// by `isolated` vertices of degree 0. Deterministic in seed.
Graph DisjointRandomGraphs(const std::vector<VertexId>& sizes,
                           VertexId isolated, std::uint64_t seed) {
  GraphBuilder builder;
  VertexId base = 0;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const Graph part = kvcc::testing::RandomConnectedGraph(
        sizes[i], 2 * sizes[i], seed * 31 + i);
    for (const auto& [u, v] : part.Edges()) {
      builder.AddEdge(base + u, base + v);
    }
    base += sizes[i];
  }
  if (base + isolated > 0) builder.EnsureVertex(base + isolated - 1);
  return builder.Build();
}

// Small inputs for the brute-force properties: connected random graphs,
// plus graphs with several components and isolated vertices.
std::vector<Graph> SmallInputs() {
  std::vector<Graph> inputs;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    inputs.push_back(kvcc::testing::RandomConnectedGraph(14, 40, seed));
  }
  inputs.push_back(DisjointRandomGraphs({6, 5}, 3, 1));
  inputs.push_back(DisjointRandomGraphs({7, 4, 2}, 1, 2));
  inputs.push_back(DisjointRandomGraphs({9}, 4, 3));
  return inputs;
}

TEST(SparseCertificateTest, EdgeBoundKTimesNMinusComponents) {
  std::vector<Graph> inputs;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    inputs.push_back(kvcc::testing::RandomConnectedGraph(40, 200, seed));
  }
  inputs.push_back(DisjointRandomGraphs({20, 12, 8}, 5, 4));
  inputs.push_back(CompleteGraph(9));
  inputs.push_back(HararyGraph(6, 30));
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const Graph& g = inputs[i];
    const auto components =
        static_cast<std::uint64_t>(ConnectedComponents(g).size());
    for (std::uint32_t k = 1; k <= 6; ++k) {
      const auto sc = BuildSparseCertificate(g, k);
      EXPECT_LE(sc.certificate.NumEdges(),
                static_cast<std::uint64_t>(k) * (g.NumVertices() - components))
          << "input=" << i << " k=" << k;
      EXPECT_EQ(sc.certificate.NumVertices(), g.NumVertices());
    }
  }
}

TEST(SparseCertificateTest, CertificateIsSubgraph) {
  const Graph g = kvcc::testing::RandomConnectedGraph(30, 120, 3);
  const auto sc = BuildSparseCertificate(g, 3);
  for (const auto& [u, v] : sc.certificate.Edges()) {
    EXPECT_TRUE(g.HasEdge(u, v));
  }
}

// The certificate is written straight into CSR: it must be exactly the
// normalized graph of its own edge list, and carry g's labels.
TEST(SparseCertificateTest, CertificateIsValidCsrWithInputLabels) {
  const Graph root = kvcc::testing::RandomConnectedGraph(60, 400, 8);
  std::vector<VertexId> subset;
  for (VertexId v = 0; v < root.NumVertices(); v += 2) subset.push_back(v);
  for (VertexId v = 1; v < 30; v += 2) subset.push_back(v);
  const Graph labeled = root.InducedSubgraph(subset);
  ASSERT_TRUE(labeled.HasLabels());
  for (const Graph* g : {&root, &labeled}) {
    for (std::uint32_t k = 1; k <= 5; ++k) {
      const auto sc = BuildSparseCertificate(*g, k);
      const Graph& cert = sc.certificate;
      EXPECT_TRUE(cert.SameStructure(
          Graph::FromEdges(g->NumVertices(), cert.Edges())))
          << "k=" << k;
      EXPECT_EQ(cert.HasLabels(), g->HasLabels());
      for (VertexId v = 0; v < g->NumVertices(); ++v) {
        ASSERT_EQ(cert.LabelOf(v), g->LabelOf(v)) << "k=" << k;
      }
    }
  }
}

TEST(SparseCertificateTest, SparseGraphIsItsOwnCertificate) {
  // A tree has n-1 edges; the k=3 certificate must keep all of them.
  const Graph g = kvcc::testing::RandomConnectedGraph(20, 0, 5);
  const auto sc = BuildSparseCertificate(g, 3);
  EXPECT_EQ(sc.certificate.NumEdges(), g.NumEdges());
}

TEST(SparseCertificateTest, ZeroKKeepsNothing) {
  const Graph g = kvcc::testing::RandomConnectedGraph(12, 20, 2);
  const auto sc = BuildSparseCertificate(g, 0);
  EXPECT_EQ(sc.certificate.NumVertices(), g.NumVertices());
  EXPECT_EQ(sc.certificate.NumEdges(), 0u);
  EXPECT_TRUE(sc.groups.empty());
}

// The defining property (paper Thm 5): SC is k-connected iff G is.
TEST(SparseCertificateTest, PreservesKConnectivity) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Graph g = kvcc::testing::RandomConnectedGraph(12, 30, seed);
    for (std::uint32_t k = 1; k <= 4; ++k) {
      const auto sc = BuildSparseCertificate(g, k);
      EXPECT_EQ(IsKVertexConnected(sc.certificate, k),
                IsKVertexConnected(g, k))
          << "seed=" << seed << " k=" << k;
    }
  }
}

// The stronger property the algorithm relies on: for every vertex set S
// with |S| < k, G - S and SC - S have identical connected components.
TEST(SparseCertificateTest, SameComponentsUnderSmallRemovals) {
  Rng rng(99);
  const std::vector<Graph> inputs = SmallInputs();
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const Graph& g = inputs[i];
    for (std::uint32_t k = 1; k <= 5; ++k) {
      const auto sc = BuildSparseCertificate(g, k);
      for (int trial = 0; trial < 30; ++trial) {
        // Random removal set of size < k.
        std::vector<VertexId> removal;
        const auto size = static_cast<std::uint32_t>(rng.NextBounded(k));
        while (removal.size() < size) {
          const auto v =
              static_cast<VertexId>(rng.NextBounded(g.NumVertices()));
          if (std::find(removal.begin(), removal.end(), v) == removal.end()) {
            removal.push_back(v);
          }
        }
        std::vector<VertexId> keep;
        for (VertexId v = 0; v < g.NumVertices(); ++v) {
          if (std::find(removal.begin(), removal.end(), v) == removal.end()) {
            keep.push_back(v);
          }
        }
        const auto comps_g = ConnectedComponents(g.InducedSubgraph(keep));
        const auto comps_sc =
            ConnectedComponents(sc.certificate.InducedSubgraph(keep));
        EXPECT_EQ(comps_g, comps_sc) << "input=" << i << " k=" << k;
      }
    }
  }
}

TEST(SparseCertificateTest, SideGroupsAreLocallyKConnected) {
  // Paper Thm 10: every pair inside a side-group is locally k-connected
  // *in the original graph*.
  const std::vector<Graph> inputs = SmallInputs();
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const Graph& g = inputs[i];
    for (std::uint32_t k = 1; k <= 5; ++k) {
      const auto sc = BuildSparseCertificate(g, k);
      for (const auto& group : sc.groups) {
        for (std::size_t a = 0; a < group.size(); ++a) {
          for (std::size_t b = a + 1; b < group.size(); ++b) {
            const std::uint32_t kappa =
                kvcc::testing::BruteLocalVertexConnectivity(g, group[a],
                                                            group[b]);
            EXPECT_GE(kappa, k) << "input=" << i << " k=" << k;
          }
        }
      }
    }
  }
}

// F_k is non-empty on structured dense inputs, so Thm 10 is exercised on
// real groups (checked by max-flow; the graphs are too large for brute
// force).
TEST(SparseCertificateTest, SideGroupsOnStructuredGraphs) {
  PlantedVccConfig config;
  config.num_blocks = 3;
  config.block_size_min = 16;
  config.block_size_max = 22;
  config.connectivity = 8;
  config.seed = 5;
  const PlantedVccGraph planted = GeneratePlantedVcc(config);
  struct Case {
    const Graph* graph;
    std::uint32_t k;
  };
  const Graph harary = HararyGraph(5, 24);
  const Graph complete = CompleteGraph(10);
  for (const Case& c : {Case{&planted.graph, 4}, Case{&planted.graph, 8},
                        Case{&harary, 3}, Case{&harary, 5},
                        Case{&complete, 6}}) {
    const Graph& g = *c.graph;
    const auto sc = BuildSparseCertificate(g, c.k);
    ASSERT_FALSE(sc.groups.empty()) << "k=" << c.k;
    for (const auto& group : sc.groups) {
      EXPECT_GE(group.size(), 2u);
      EXPECT_TRUE(std::is_sorted(group.begin(), group.end()));
      for (std::size_t a = 0; a < group.size(); ++a) {
        for (std::size_t b = a + 1; b < group.size(); ++b) {
          EXPECT_GE(LocalVertexConnectivity(g, group[a], group[b], c.k), c.k)
              << "k=" << c.k;
        }
      }
    }
  }
}

TEST(SparseCertificateTest, GroupOfIsConsistent) {
  const Graph g = kvcc::testing::RandomConnectedGraph(20, 80, 7);
  const auto sc = BuildSparseCertificate(g, 3);
  for (std::uint32_t gi = 0; gi < sc.groups.size(); ++gi) {
    for (VertexId v : sc.groups[gi]) {
      EXPECT_EQ(sc.group_of[v], gi);
    }
    // Groups are ordered by smallest member.
    if (gi > 0) EXPECT_LT(sc.groups[gi - 1].front(), sc.groups[gi].front());
  }
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    if (sc.group_of[v] != kNoGroup) {
      const auto& group = sc.groups[sc.group_of[v]];
      EXPECT_TRUE(std::binary_search(group.begin(), group.end(), v));
    }
  }
}

// A scratch and output warmed on other graphs (larger and smaller, with
// and without labels, other k) must rebuild exactly what a fresh build
// produces.
TEST(SparseCertificateTest, WarmRebuildMatchesFreshBuild) {
  const Graph big = kvcc::testing::RandomConnectedGraph(80, 500, 11);
  std::vector<VertexId> half;
  for (VertexId v = 0; v < big.NumVertices(); v += 2) half.push_back(v);
  const std::vector<Graph> inputs = {
      big, big.InducedSubgraph(half), HararyGraph(4, 30),
      DisjointRandomGraphs({10, 7}, 2, 9), Graph()};
  SparseCertificate warm;
  CertificateScratch scratch;
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      for (std::uint32_t k : {5u, 2u, 4u}) {
        BuildSparseCertificate(inputs[i], k, warm, scratch);
        const SparseCertificate fresh = BuildSparseCertificate(inputs[i], k);
        EXPECT_TRUE(warm.certificate.SameStructure(fresh.certificate))
            << "input=" << i << " k=" << k;
        EXPECT_EQ(warm.certificate.HasLabels(), fresh.certificate.HasLabels());
        for (VertexId v = 0; v < inputs[i].NumVertices(); ++v) {
          ASSERT_EQ(warm.certificate.LabelOf(v), fresh.certificate.LabelOf(v));
        }
        EXPECT_EQ(warm.groups, fresh.groups) << "input=" << i << " k=" << k;
        EXPECT_EQ(warm.group_of, fresh.group_of)
            << "input=" << i << " k=" << k;
      }
    }
  }
}

TEST(SparseCertificateTest, CompleteGraphCertificateStaysKConnected) {
  const Graph g = CompleteGraph(8);
  const auto sc = BuildSparseCertificate(g, 4);
  EXPECT_TRUE(IsKVertexConnected(sc.certificate, 4));
  EXPECT_LE(sc.certificate.NumEdges(), 4u * 7u);
}

}  // namespace
}  // namespace kvcc
