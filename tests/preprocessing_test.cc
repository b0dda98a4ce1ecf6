// The flat-parallel preprocessing kernels against their serial references:
// Afforest labeling vs BFS labeling, the bucket peel vs a naive
// queue-based peel, the fused prune vs the staged pipeline, and full
// enumeration vs the brute-force partition oracle — all demanding *exact*
// equality at every thread count. The edge-list loader's thread-count
// invariance is pinned in graph_io_test.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "exec/task_scheduler.h"
#include "gen/barabasi_albert.h"
#include "gen/fixtures.h"
#include "gen/rmat.h"
#include "graph/connected_components.h"
#include "graph/graph.h"
#include "graph/k_core.h"
#include "graph/preprocess.h"
#include "kvcc/kvcc_enum.h"
#include "kvcc/stream.h"
#include "support/brute_force.h"

namespace kvcc {
namespace {

using kvcc::testing::RandomConnectedGraph;

/// Thread counts every determinism test sweeps. 1 runs the serial kernel;
/// the others run the flat-parallel one (when the graph clears the size
/// cutoff) with different wavefront widths.
const std::vector<unsigned> kThreadCounts = {1, 2, 8};

/// Runs `fn(scheduler)` with a started scheduler of `threads` workers, or
/// nullptr for the serial path.
template <typename Fn>
void WithScheduler(unsigned threads, Fn&& fn) {
  if (threads <= 1) {
    fn(nullptr);
    return;
  }
  exec::TaskScheduler pool(threads);
  pool.Start();
  fn(&pool);
  pool.Stop();
}

/// A disconnected graph with isolated vertices, two cliques, and a path —
/// exercises component numbering with gaps.
Graph DisconnectedFixture() {
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId i = 0; i < 5; ++i) {     // clique on {2..6}
    for (VertexId j = i + 1; j < 5; ++j) edges.emplace_back(2 + i, 2 + j);
  }
  for (VertexId i = 0; i < 4; ++i) {     // clique on {10..13}
    for (VertexId j = i + 1; j < 4; ++j) edges.emplace_back(10 + i, 10 + j);
  }
  edges.emplace_back(15, 16);            // an edge; 0,1,7,8,9,14 isolated
  return Graph::FromEdges(17, edges);
}

/// Correctness corpus: small fixed shapes plus graphs large enough to
/// cross the parallel cutoff (2048) and the sampling threshold (4096).
std::vector<Graph> Corpus() {
  std::vector<Graph> corpus;
  corpus.push_back(Graph());
  corpus.push_back(Graph::FromEdges(1, {}));
  corpus.push_back(CompleteGraph(6));
  corpus.push_back(CycleGraph(10));
  corpus.push_back(GridGraph(6, 7));
  corpus.push_back(TwoCliquesSharing(8, 2));
  corpus.push_back(DisconnectedFixture());
  corpus.push_back(RandomConnectedGraph(60, 90, 3));
  corpus.push_back(RandomConnectedGraph(400, 900, 4));
  corpus.push_back(BarabasiAlbert(6000, 3, 9));
  RmatConfig rmat;
  rmat.scale = 13;
  rmat.edges = 1 << 15;
  rmat.seed = 2;
  corpus.push_back(Rmat(rmat));
  return corpus;
}

/// Naive reference peel: vector<bool> removed + FIFO queue, the shape the
/// bucket kernel replaced. Returns sorted survivors.
std::vector<VertexId> NaiveKCore(const Graph& g, std::uint32_t k) {
  const VertexId n = g.NumVertices();
  std::vector<bool> removed(n, false);
  std::vector<std::uint32_t> degree(n);
  std::queue<VertexId> queue;
  for (VertexId v = 0; v < n; ++v) {
    degree[v] = static_cast<std::uint32_t>(g.Neighbors(v).size());
    if (degree[v] < k) {
      removed[v] = true;
      queue.push(v);
    }
  }
  while (!queue.empty()) {
    const VertexId v = queue.front();
    queue.pop();
    for (const VertexId w : g.Neighbors(v)) {
      if (removed[w]) continue;
      if (--degree[w] < k) {
        removed[w] = true;
        queue.push(w);
      }
    }
  }
  std::vector<VertexId> survivors;
  for (VertexId v = 0; v < n; ++v) {
    if (!removed[v]) survivors.push_back(v);
  }
  return survivors;
}

TEST(AfforestTest, MatchesBfsLabelingExactly) {
  for (const Graph& g : Corpus()) {
    const ComponentLabeling reference = LabelComponents(g);
    for (const unsigned threads : kThreadCounts) {
      WithScheduler(threads, [&](exec::TaskScheduler* scheduler) {
        AfforestScratch scratch;
        ComponentLabeling labeling;
        const std::uint64_t hooks = AfforestComponentsInto(
            g, nullptr, scheduler, exec::TaskPriority::kNormal, scratch,
            labeling);
        EXPECT_EQ(labeling.count, reference.count)
            << "n=" << g.NumVertices() << " threads=" << threads;
        EXPECT_EQ(labeling.component_of, reference.component_of)
            << "n=" << g.NumVertices() << " threads=" << threads;
        // Each successful hook retires exactly one union root.
        EXPECT_EQ(hooks, g.NumVertices() - labeling.count);
      });
    }
  }
}

TEST(AfforestTest, ScratchReuseAcrossDifferentGraphs) {
  // One scratch serving the whole corpus, largest graph first and last:
  // stale state from a bigger graph must not leak into a smaller one.
  AfforestScratch scratch;
  ComponentLabeling labeling;
  std::vector<Graph> corpus = Corpus();
  std::sort(corpus.begin(), corpus.end(), [](const Graph& a, const Graph& b) {
    return a.NumVertices() > b.NumVertices();
  });
  corpus.push_back(DisconnectedFixture());
  for (const Graph& g : corpus) {
    const ComponentLabeling reference = LabelComponents(g);
    AfforestComponentsInto(g, nullptr, nullptr,
                           exec::TaskPriority::kNormal, scratch, labeling);
    EXPECT_EQ(labeling.component_of, reference.component_of);
  }
}

TEST(AfforestTest, MaskedLabelingMatchesCoreComponents) {
  for (const Graph& g : Corpus()) {
    if (g.NumVertices() == 0) continue;
    for (const std::uint32_t k : {2u, 3u, 5u}) {
      // Reference: components of the peeled core via the staged path.
      const std::vector<VertexId> survivors = KCoreVertices(g, k);
      const Graph core = g.InducedSubgraphAsRoot(survivors);
      const std::vector<std::vector<VertexId>> core_comps =
          ConnectedComponents(core);
      std::vector<std::vector<VertexId>> expected;
      for (const auto& comp : core_comps) {
        std::vector<VertexId> ids;
        ids.reserve(comp.size());
        for (const VertexId v : comp) ids.push_back(core.LabelOf(v));
        expected.push_back(std::move(ids));
      }
      for (const unsigned threads : kThreadCounts) {
        WithScheduler(threads, [&](exec::TaskScheduler* scheduler) {
          KCoreScratch kcore;
          std::vector<VertexId> peeled;
          KCoreVerticesInto(g, k, scheduler, exec::TaskPriority::kNormal,
                            kcore, peeled);
          ASSERT_EQ(peeled, survivors);
          const PeelMask mask = kcore.Mask();
          AfforestScratch scratch;
          ComponentLabeling labeling;
          const std::uint64_t hooks = AfforestComponentsInto(
              g, &mask, scheduler, exec::TaskPriority::kNormal, scratch,
              labeling);
          EXPECT_EQ(hooks, survivors.size() - labeling.count);
          std::vector<std::vector<VertexId>> grouped(labeling.count);
          for (const VertexId v : survivors) {
            ASSERT_LT(labeling.component_of[v], labeling.count);
            grouped[labeling.component_of[v]].push_back(v);
          }
          EXPECT_EQ(grouped, expected) << "k=" << k << " threads=" << threads;
          // Peeled vertices carry the invalid label.
          for (VertexId v = 0; v < g.NumVertices(); ++v) {
            if (mask.Removed(v)) {
              EXPECT_EQ(labeling.component_of[v], kInvalidVertex);
            }
          }
        });
      }
    }
  }
}

TEST(BucketPeelTest, MatchesNaiveReferenceAtEveryThreadCount) {
  for (const Graph& g : Corpus()) {
    for (const std::uint32_t k : {2u, 3u, 5u, 8u}) {
      const std::vector<VertexId> expected = NaiveKCore(g, k);
      std::uint64_t reference_rounds = 0;
      bool have_reference = false;
      for (const unsigned threads : kThreadCounts) {
        WithScheduler(threads, [&](exec::TaskScheduler* scheduler) {
          KCoreScratch scratch;
          std::vector<VertexId> survivors;
          const std::uint64_t rounds = KCoreVerticesInto(
              g, k, scheduler, exec::TaskPriority::kNormal, scratch,
              survivors);
          EXPECT_EQ(survivors, expected)
              << "n=" << g.NumVertices() << " k=" << k
              << " threads=" << threads;
          if (!have_reference) {
            reference_rounds = rounds;
            have_reference = true;
          } else {
            EXPECT_EQ(rounds, reference_rounds) << "k=" << k;
          }
        });
      }
      // The shared wrapper agrees with the pooled variant.
      EXPECT_EQ(KCoreVertices(g, k), expected);
    }
  }
}

TEST(FusedPruneTest, MatchesStagedPipeline) {
  for (const Graph& g : Corpus()) {
    for (const std::uint32_t k : {2u, 3u, 5u}) {
      const std::vector<VertexId> survivors = KCoreVertices(g, k);
      const Graph core = g.InducedSubgraphAsRoot(survivors);
      std::vector<std::vector<VertexId>> expected;
      for (const auto& comp : ConnectedComponents(core)) {
        std::vector<VertexId> ids;
        for (const VertexId v : comp) ids.push_back(core.LabelOf(v));
        expected.push_back(std::move(ids));
      }
      for (const unsigned threads : kThreadCounts) {
        WithScheduler(threads, [&](exec::TaskScheduler* scheduler) {
          FusedPruneScratch scratch;
          const PruneCounters counters = FusedPrune(
              g, k, scheduler, exec::TaskPriority::kNormal, scratch);
          EXPECT_EQ(scratch.survivors, survivors);
          EXPECT_EQ(counters.cc_hooks,
                    survivors.size() - scratch.labeling.count);
          ASSERT_EQ(scratch.labeling.count, expected.size());
          std::vector<std::vector<VertexId>> grouped;
          for (std::uint32_t c = 0; c < scratch.labeling.count; ++c) {
            grouped.emplace_back(
                scratch.comp_vertices.begin() +
                    static_cast<std::ptrdiff_t>(scratch.comp_offsets[c]),
                scratch.comp_vertices.begin() +
                    static_cast<std::ptrdiff_t>(scratch.comp_offsets[c + 1]));
          }
          EXPECT_EQ(grouped, expected) << "k=" << k << " threads=" << threads;
        });
      }
    }
  }
}

/// Keeps the stats a streaming run reports on completion.
class StatsSink : public ComponentSink {
 public:
  void OnComponent(StreamedComponent) override {}
  void OnComplete(const KvccStats& stats) override { json = stats.ToJson(); }
  std::string json;
};

TEST(FusedPruneTest, EnumerationMatchesBruteForceAtEveryThreadCount) {
  for (const Graph& g :
       {TwoCliquesSharing(8, 2), RandomConnectedGraph(60, 120, 5),
        DisconnectedFixture(), BarabasiAlbert(300, 4, 7)}) {
    for (const std::uint32_t k : {2u, 3u, 4u}) {
      const std::vector<std::vector<VertexId>> expected =
          testing::BruteKVccsByPartition(g, k);
      if (g.NumVertices() <= 17) {
        // The partition oracle itself agrees with subset enumeration.
        EXPECT_EQ(expected, testing::BruteKVccs(g, k)) << "k=" << k;
      }
      KvccOptions options = KvccOptions::VcceStar();
      for (const unsigned threads : kThreadCounts) {
        options.num_threads = threads;
        const KvccResult result = EnumerateKVccs(g, k, options);
        EXPECT_EQ(result.components, expected)
            << "k=" << k << " threads=" << threads;
        if (threads == 1) {
          // Both serial entry points share one driver: same counters.
          StatsSink sink;
          EnumerateKVccsStreaming(g, k, sink, options);
          EXPECT_EQ(result.stats.ToJson(), sink.json) << "k=" << k;
        }
      }
    }
  }
}

}  // namespace
}  // namespace kvcc
