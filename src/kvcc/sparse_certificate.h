// Sparse certificate for k-vertex connectivity (Cheriyan–Kao–Thurimella)
// and the side-groups used by the group-sweep optimization.
//
// For i = 1..k, F_i is a scan-first-search forest of G_{i-1} where
// G_0 = G and G_i = G_{i-1} - E(F_i). SC = F_1 ∪ ... ∪ F_k has at most
// k(n-1) edges, and for every vertex set S with |S| < k, G - S and SC - S
// have the same connected components (paper Thm 5). Consequently:
//   * any vertex cut of SC with fewer than k vertices is a cut of G, and
//   * min(kappa(u,v), k) is identical in SC and G,
// which lets GLOBAL-CUT run all flow tests on the much sparser SC.
//
// Side-groups (paper Thm 10): the connected components of the last forest
// F_k are sets in which every vertex pair is locally k-connected in G.
//
// All k forests come from one k-capped maximum-adjacency (MA) scan
// (Nagamochi–Ibaraki). Every vertex y keeps r(y), the number of its
// already-scanned neighbours capped at k, and the scan always takes an
// unscanned vertex of largest r. When x is scanned, each edge to an
// unscanned y with r(y) < k joins forest F_{r(y)+1} and raises r(y); an
// edge to a y with r(y) = k joins no kept forest. Why each F_i is a
// scan-first-search forest of G_{i-1}, for every i <= k:
//   * "marked in F_i" means r >= i; a vertex scanned while unmarked is a
//     new root of F_i;
//   * scanning x in G_{i-1} adds an F_i edge to exactly its unscanned
//     neighbours y with r(y) = i - 1 (edges to r(y) < i - 1 lie in an
//     earlier forest, to r(y) >= i in a later one), which is "mark every
//     unmarked neighbour";
//   * the scan takes the largest r, so whenever a vertex marked in F_i is
//     still unscanned, the next vertex scanned is also marked in F_i;
//   * capping r at k keeps that true for every i <= k.
// That is exactly the scan-first-search hypothesis of Thm 5 and Thm 10.
// An arbitrary scan order would not have it: the queue must pop from the
// highest bucket.
//
// The certificate needs no forest labels. Let u be the endpoint of edge
// {u, w} scanned first: the edge lands in F_{1 + (neighbours of w scanned
// before u)}, so it is kept iff u is scanned no later than the scan that
// brought r(w) to k (always, if that never happens). Filtering g's sorted
// neighbour rows with that symmetric predicate writes the certificate as
// normalized CSR in one pass, with g's ids and labels.
#ifndef KVCC_KVCC_SPARSE_CERTIFICATE_H_
#define KVCC_KVCC_SPARSE_CERTIFICATE_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace kvcc {

/// Group id meaning "vertex belongs to no side-group".
inline constexpr std::uint32_t kNoGroup = static_cast<std::uint32_t>(-1);

struct SparseCertificate {
  /// The certificate subgraph. Same vertex ids (and labels) as the input.
  Graph certificate;

  /// Side-groups: connected components of F_k with at least 2 vertices,
  /// ordered by smallest member. groups[i] is sorted ascending.
  std::vector<std::vector<VertexId>> groups;

  /// Per-vertex group id, or kNoGroup.
  std::vector<std::uint32_t> group_of;
};

/// Reusable working buffers for BuildSparseCertificate: the arrays of the
/// MA scan, all of size n except the min(k, n) + 1 bucket heads. One instance per
/// enumeration worker amortizes them across the O(n) certificate
/// constructions of a run: once capacities have grown to the largest
/// subgraph seen, a rebuild performs no heap allocation (beyond side-group
/// list growth on pathological inputs). A default-constructed scratch is
/// always valid.
struct CertificateScratch {
  std::vector<std::uint32_t> r;       // capped scanned-neighbour count
  std::vector<VertexId> bucket_head;  // first vertex of each bucket r
  std::vector<VertexId> next;         // bucket lists (after the scan:
  std::vector<VertexId> prev;         //   next holds per-tree group ids)
  std::vector<std::uint32_t> ord;     // scan position
  std::vector<std::uint32_t> limit;   // 1 + scan position that made r = k
  std::vector<VertexId> tree;         // root of the vertex's F_k tree
};

/// Builds the certificate and its side-groups by one k-capped MA scan,
/// O(n + m), writing into `out` and reusing both `out`'s storage and
/// `scratch`'s buffers.
void BuildSparseCertificate(const Graph& g, std::uint32_t k,
                            SparseCertificate& out,
                            CertificateScratch& scratch);

/// Convenience overload allocating transient storage.
SparseCertificate BuildSparseCertificate(const Graph& g, std::uint32_t k);

}  // namespace kvcc

#endif  // KVCC_KVCC_SPARSE_CERTIFICATE_H_
