// Exponential reference implementations used as oracles in property tests.
// They rely on nothing but BFS connectivity, so they are independent of the
// max-flow / certificate / sweep machinery under test.
#ifndef KVCC_TESTS_SUPPORT_BRUTE_FORCE_H_
#define KVCC_TESTS_SUPPORT_BRUTE_FORCE_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace kvcc::testing {

/// kappa(u, v) by enumerating removal sets of increasing size;
/// kvcc::kInfiniteConnectivity (== UINT32_MAX) when (u,v) in E.
/// Feasible for n <= ~16.
std::uint32_t BruteLocalVertexConnectivity(const Graph& g, VertexId u,
                                           VertexId v);

/// The minimum u-v vertex separator closest to u, for non-adjacent u != v
/// (n <= ~20): among all separators of kappa(u, v) vertices, the one whose
/// u-side component in g - S is smallest; that component is contained in
/// every other minimum separator's, which is checked (std::logic_error
/// otherwise). Sorted.
std::vector<VertexId> BruteClosestMinimumSeparator(const Graph& g,
                                                   VertexId u, VertexId v);

/// Definition-2 check by enumerating all removal sets of size < k.
bool BruteIsKVertexConnected(const Graph& g, std::uint32_t k);

/// kappa(g) by the definition (smallest disconnecting set; n-1 for K_n).
std::uint32_t BruteVertexConnectivity(const Graph& g);

/// All k-VCCs by enumerating every vertex subset (n <= ~14): keep subsets
/// W with |W| > k whose induced subgraph is k-vertex-connected, drop
/// non-maximal ones. Output format matches KvccResult::components.
std::vector<std::vector<VertexId>> BruteKVccs(const Graph& g,
                                              std::uint32_t k);

/// All k-VCCs by the overlapped-partition framework of Algorithm 1 (peel
/// to the k-core, split into components, cut, recurse on the pieces) with
/// every cut found by exhaustive search instead of max-flow: each removal
/// set R with |R| <= k - 2, plus an articulation point of g - R. Exact and
/// free of the flow / certificate / sweep / fused-prune machinery; the
/// search is C(n, k - 2) DFS passes per subgraph, so it reaches a few
/// hundred vertices for k <= 4, where BruteKVccs cannot. Output format
/// matches KvccResult::components.
std::vector<std::vector<VertexId>> BruteKVccsByPartition(const Graph& g,
                                                         std::uint32_t k);

/// Global minimum edge cut weight by enumerating bipartitions (n <= ~14).
/// Returns UINT64_MAX for graphs with < 2 vertices.
std::uint64_t BruteMinEdgeCutWeight(const Graph& g);

/// Uniform random connected graph: random spanning tree plus `extra_edges`
/// uniform random extra edges. Deterministic in seed.
Graph RandomConnectedGraph(VertexId n, std::uint64_t extra_edges,
                           std::uint64_t seed);

}  // namespace kvcc::testing

#endif  // KVCC_TESTS_SUPPORT_BRUTE_FORCE_H_
