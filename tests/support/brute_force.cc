#include "support/brute_force.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "graph/connected_components.h"
#include "graph/graph_builder.h"
#include "kvcc/connectivity.h"  // for kInfiniteConnectivity
#include "util/random.h"

namespace kvcc::testing {
namespace {

/// Is g - removed connected on its surviving vertices (and is at least one
/// vertex surviving)? `removed` is a bitmask over vertex ids.
bool ConnectedWithout(const Graph& g, std::uint32_t removed_mask) {
  const VertexId n = g.NumVertices();
  VertexId start = kInvalidVertex, alive = 0;
  for (VertexId v = 0; v < n; ++v) {
    if (!(removed_mask >> v & 1)) {
      if (start == kInvalidVertex) start = v;
      ++alive;
    }
  }
  if (alive == 0) return false;
  std::uint32_t seen = 1u << start;
  std::vector<VertexId> queue{start};
  VertexId reached = 1;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    for (VertexId w : g.Neighbors(queue[head])) {
      if ((removed_mask >> w & 1) || (seen >> w & 1)) continue;
      seen |= 1u << w;
      ++reached;
      queue.push_back(w);
    }
  }
  return reached == alive;
}

/// Iterates all masks with `bits` bits set over `n` positions, calling f;
/// stops early if f returns true. Returns whether any f returned true.
template <typename F>
bool ForEachSubsetOfSize(VertexId n, std::uint32_t bits, F&& f) {
  if (bits > n) return false;
  // Gosper's hack over n-bit masks.
  std::uint32_t mask = bits == 0 ? 0 : (1u << bits) - 1;
  const std::uint32_t limit = 1u << n;
  if (bits == 0) return f(0u);
  while (mask < limit) {
    if (f(mask)) return true;
    const std::uint32_t c = mask & -mask;
    const std::uint32_t r = mask + c;
    mask = (((r ^ mask) >> 2) / c) | r;
  }
  return false;
}

/// Lowlink DFS over g - removed from `root`: returns an articulation
/// point of the reached part (kInvalidVertex if there is none) and counts
/// the reached vertices into `reached`.
VertexId FindArticulationPoint(const Graph& g,
                               const std::vector<char>& removed,
                               VertexId root, VertexId& reached) {
  std::vector<std::uint32_t> order(g.NumVertices(), 0), low(order);
  std::uint32_t clock = 0;
  VertexId found = kInvalidVertex;
  const auto visit = [&](const auto& self, VertexId v,
                         VertexId parent) -> void {
    order[v] = low[v] = ++clock;
    std::uint32_t children = 0;
    for (VertexId w : g.Neighbors(v)) {
      if (removed[w] || w == parent) continue;
      if (order[w] != 0) {
        low[v] = std::min(low[v], order[w]);
        continue;
      }
      self(self, w, v);
      ++children;
      low[v] = std::min(low[v], low[w]);
      if (parent != kInvalidVertex && low[w] >= order[v]) found = v;
    }
    if (parent == kInvalidVertex && children >= 2) found = v;
  };
  visit(visit, root, kInvalidVertex);
  reached = clock;
  return found;
}

/// A vertex cut of the connected graph g with fewer than k vertices, or
/// empty when g (n > k) is k-vertex-connected. Removal sets R are tried
/// in ascending size up to k - 2; a minimum cut C is found as
/// R = C - {x} plus the articulation point x of g - R.
std::vector<VertexId> ExhaustiveSmallCut(const Graph& g, std::uint32_t k) {
  const VertexId n = g.NumVertices();
  std::vector<char> removed(n, 0);
  std::vector<VertexId> set;
  std::vector<VertexId> cut;
  // Tries every removal set extending `set` by `left` ids >= `from`.
  const auto search = [&](const auto& self, VertexId from,
                          std::uint32_t left) -> bool {
    if (left == 0) {
      VertexId root = 0;
      while (removed[root]) ++root;
      VertexId reached = 0;
      const VertexId x = FindArticulationPoint(g, removed, root, reached);
      if (reached < n - set.size()) {
        cut = set;  // g - R itself is disconnected.
      } else if (x != kInvalidVertex) {
        cut = set;
        cut.push_back(x);
      }
      return !cut.empty();
    }
    for (VertexId v = from; v < n; ++v) {
      removed[v] = 1;
      set.push_back(v);
      const bool hit = self(self, v + 1, left - 1);
      set.pop_back();
      removed[v] = 0;
      if (hit) return true;
    }
    return false;
  };
  for (std::uint32_t size = 0; size + 2 <= k; ++size) {
    if (search(search, 0, size)) break;
  }
  return cut;
}

}  // namespace

std::uint32_t BruteLocalVertexConnectivity(const Graph& g, VertexId u,
                                           VertexId v) {
  if (g.HasEdge(u, v)) return kInfiniteConnectivity;
  const VertexId n = g.NumVertices();
  const std::uint32_t forbidden = (1u << u) | (1u << v);
  for (std::uint32_t size = 0; size + 2 <= n; ++size) {
    bool found = ForEachSubsetOfSize(n, size, [&](std::uint32_t mask) {
      if (mask & forbidden) return false;
      if (ConnectedWithout(g, mask)) return false;
      // Check u and v specifically ended up in different components.
      std::uint32_t seen = 1u << u;
      std::vector<VertexId> queue{u};
      for (std::size_t head = 0; head < queue.size(); ++head) {
        for (VertexId w : g.Neighbors(queue[head])) {
          if ((mask >> w & 1) || (seen >> w & 1)) continue;
          seen |= 1u << w;
          queue.push_back(w);
        }
      }
      return !(seen >> v & 1);
    });
    if (found) return size;
  }
  return kInfiniteConnectivity;
}

std::vector<VertexId> BruteClosestMinimumSeparator(const Graph& g,
                                                   VertexId u, VertexId v) {
  const VertexId n = g.NumVertices();
  std::vector<std::uint32_t> adj(n, 0);
  for (VertexId w = 0; w < n; ++w) {
    for (VertexId x : g.Neighbors(w)) adj[w] |= 1u << x;
  }
  // Vertices reachable from u in g - removed, as a bitmask.
  auto reachable = [&](std::uint32_t removed) {
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
  };
  const std::uint32_t kappa = BruteLocalVertexConnectivity(g, u, v);
  const std::uint32_t endpoints = (1u << u) | (1u << v);
  std::uint32_t closest = 0;
  std::uint32_t closest_side = ~0u;
  std::vector<std::uint32_t> sides;
  ForEachSubsetOfSize(n, kappa, [&](std::uint32_t mask) {
    if ((mask & endpoints) != 0) return false;
    const std::uint32_t side = reachable(mask);
    if ((side >> v & 1) != 0) return false;
    sides.push_back(side);
    if (__builtin_popcount(side) < __builtin_popcount(closest_side)) {
      closest = mask;
      closest_side = side;
    }
    return false;
  });
  for (const std::uint32_t side : sides) {
    if ((closest_side & ~side) != 0) {
      throw std::logic_error("minimum separators have no closest to u");
    }
  }
  std::vector<VertexId> separator;
  for (VertexId w = 0; w < n; ++w) {
    if ((closest >> w & 1) != 0) separator.push_back(w);
  }
  return separator;
}

bool BruteIsKVertexConnected(const Graph& g, std::uint32_t k) {
  const VertexId n = g.NumVertices();
  if (k == 0) return true;
  if (n <= k) return false;
  for (std::uint32_t size = 0; size < k; ++size) {
    const bool disconnecting =
        ForEachSubsetOfSize(n, size, [&](std::uint32_t mask) {
          return !ConnectedWithout(g, mask);
        });
    if (disconnecting) return false;
  }
  return true;
}

std::uint32_t BruteVertexConnectivity(const Graph& g) {
  const VertexId n = g.NumVertices();
  if (n <= 1) return 0;
  for (std::uint32_t size = 0; size + 2 <= n; ++size) {
    const bool disconnecting =
        ForEachSubsetOfSize(n, size, [&](std::uint32_t mask) {
          return !ConnectedWithout(g, mask);
        });
    if (disconnecting) return size;
  }
  return n - 1;  // Complete graph.
}

std::vector<std::vector<VertexId>> BruteKVccs(const Graph& g,
                                              std::uint32_t k) {
  const VertexId n = g.NumVertices();
  std::vector<std::uint32_t> candidates;
  for (std::uint32_t mask = 1; mask < (1u << n); ++mask) {
    if (static_cast<std::uint32_t>(__builtin_popcount(mask)) <= k) continue;
    std::vector<VertexId> members;
    for (VertexId v = 0; v < n; ++v) {
      if (mask >> v & 1) members.push_back(v);
    }
    const Graph sub = g.InducedSubgraph(members);
    if (BruteIsKVertexConnected(sub, k)) candidates.push_back(mask);
  }
  std::vector<std::vector<VertexId>> result;
  for (std::uint32_t mask : candidates) {
    bool maximal = true;
    for (std::uint32_t other : candidates) {
      if (other != mask && (mask & other) == mask) {
        maximal = false;
        break;
      }
    }
    if (!maximal) continue;
    std::vector<VertexId> members;
    for (VertexId v = 0; v < n; ++v) {
      if (mask >> v & 1) members.push_back(v);
    }
    result.push_back(std::move(members));
  }
  std::sort(result.begin(), result.end());
  return result;
}

std::vector<std::vector<VertexId>> BruteKVccsByPartition(const Graph& g,
                                                         std::uint32_t k) {
  std::vector<std::vector<VertexId>> result;
  std::vector<Graph> work;
  work.push_back(g.WithIdentityLabels());
  while (!work.empty()) {
    const Graph cur = std::move(work.back());
    work.pop_back();
    // k-core peel: every vertex of a k-VCC has degree >= k inside it.
    const VertexId n = cur.NumVertices();
    std::vector<VertexId> degree(n);
    std::vector<VertexId> queue;
    std::vector<char> peeled(n, 0);
    for (VertexId v = 0; v < n; ++v) {
      degree[v] = static_cast<VertexId>(cur.Neighbors(v).size());
      if (degree[v] < k) {
        peeled[v] = 1;
        queue.push_back(v);
      }
    }
    for (std::size_t head = 0; head < queue.size(); ++head) {
      for (VertexId w : cur.Neighbors(queue[head])) {
        if (!peeled[w] && --degree[w] < k) {
          peeled[w] = 1;
          queue.push_back(w);
        }
      }
    }
    std::vector<VertexId> survivors;
    for (VertexId v = 0; v < n; ++v) {
      if (!peeled[v]) survivors.push_back(v);
    }
    const Graph core = cur.InducedSubgraph(survivors);
    for (const std::vector<VertexId>& comp : ConnectedComponents(core)) {
      if (comp.size() <= k) continue;
      const Graph sub = core.InducedSubgraph(comp);
      const std::vector<VertexId> cut = ExhaustiveSmallCut(sub, k);
      if (cut.empty()) {
        std::vector<VertexId> ids;
        for (VertexId v = 0; v < sub.NumVertices(); ++v) {
          ids.push_back(sub.LabelOf(v));
        }
        std::sort(ids.begin(), ids.end());
        result.push_back(std::move(ids));
        continue;
      }
      // Overlapped partition: each component of sub - cut, plus the cut.
      std::vector<char> in_cut(sub.NumVertices(), 0);
      for (VertexId c : cut) in_cut[c] = 1;
      std::vector<VertexId> rest;
      for (VertexId v = 0; v < sub.NumVertices(); ++v) {
        if (!in_cut[v]) rest.push_back(v);
      }
      const Graph split = sub.InducedSubgraph(rest);
      for (const std::vector<VertexId>& side : ConnectedComponents(split)) {
        std::vector<VertexId> piece = cut;
        for (VertexId v : side) piece.push_back(rest[v]);
        work.push_back(sub.InducedSubgraph(piece));
      }
    }
  }
  std::sort(result.begin(), result.end());
  return result;
}

std::uint64_t BruteMinEdgeCutWeight(const Graph& g) {
  const VertexId n = g.NumVertices();
  if (n < 2) return std::numeric_limits<std::uint64_t>::max();
  std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
  // Enumerate bipartitions with vertex 0 always on side A.
  for (std::uint32_t mask = 1; mask < (1u << (n - 1)); ++mask) {
    const std::uint32_t side = mask << 1 | 0;  // Vertex 0 stays on side A.
    std::uint64_t crossing = 0;
    for (VertexId u = 0; u < n; ++u) {
      for (VertexId v : g.Neighbors(u)) {
        if (u < v && ((side >> u & 1) != (side >> v & 1))) ++crossing;
      }
    }
    best = std::min(best, crossing);
  }
  return best;
}

Graph RandomConnectedGraph(VertexId n, std::uint64_t extra_edges,
                           std::uint64_t seed) {
  GraphBuilder builder(n);
  Rng rng(seed);
  // Random spanning tree: attach each vertex to a uniform earlier vertex.
  for (VertexId v = 1; v < n; ++v) {
    builder.AddEdge(v, static_cast<VertexId>(rng.NextBounded(v)));
  }
  for (std::uint64_t e = 0; e < extra_edges; ++e) {
    const auto u = static_cast<VertexId>(rng.NextBounded(n));
    const auto v = static_cast<VertexId>(rng.NextBounded(n));
    builder.AddEdge(u, v);  // Self-loops / duplicates dropped by builder.
  }
  return builder.Build();
}

}  // namespace kvcc::testing
