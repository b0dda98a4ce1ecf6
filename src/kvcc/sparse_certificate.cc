#include "kvcc/sparse_certificate.h"

#include <algorithm>

#include "graph/graph_builder.h"

namespace kvcc {
namespace {

constexpr VertexId kNone = kInvalidVertex;
// limit[] of a vertex that never reaches r = k: every edge to it is kept.
constexpr std::uint32_t kNoLimit = static_cast<std::uint32_t>(-1);
// Group id of an F_k tree root with at least one child, until the
// ascending pass numbers its tree.
constexpr std::uint32_t kUnnumbered = kNoGroup - 1;

}  // namespace

SparseCertificate BuildSparseCertificate(const Graph& g, std::uint32_t k) {
  SparseCertificate out;
  CertificateScratch scratch;
  BuildSparseCertificate(g, k, out, scratch);
  return out;
}

// Steady-state zero-allocation is asserted dynamically by
// memory_tracker_test.WarmGlobalCutAllocatesNothing; the grow-only
// assigns/resizes below allocate only when the graph outgrows the scratch
// watermark (a cold-path event).
// kvcc-lint: no-alloc
void BuildSparseCertificate(const Graph& g, std::uint32_t k,
                            SparseCertificate& out,
                            CertificateScratch& scratch) {
  const VertexId n = g.NumVertices();
  // r(y) <= deg(y) < n, so buckets above n are never used.
  const std::uint32_t top_bucket = std::min<std::uint32_t>(k, n);
  auto& r = scratch.r;
  auto& head = scratch.bucket_head;
  auto& next = scratch.next;
  auto& prev = scratch.prev;
  auto& ord = scratch.ord;
  auto& limit = scratch.limit;
  auto& tree = scratch.tree;
  r.assign(n, 0);                      // kvcc-lint: reserved
  head.assign(top_bucket + 1, kNone);  // kvcc-lint: reserved
  // With k = 0 nothing is kept: ord[u] < limit[w] never holds.
  limit.assign(n, k == 0 ? 0 : kNoLimit);  // kvcc-lint: reserved
  tree.assign(n, kNone);                   // kvcc-lint: reserved
  // Fully overwritten below.
  next.resize(n);  // kvcc-lint: reserved
  prev.resize(n);  // kvcc-lint: reserved
  ord.resize(n);   // kvcc-lint: reserved

  // Bucket 0 starts as 0, 1, ..., n-1: vertex 0 is scanned first, and
  // every later tie breaks the same way on every run.
  for (VertexId v = 0; v < n; ++v) {
    next[v] = v + 1 < n ? v + 1 : kNone;
    prev[v] = v > 0 ? v - 1 : kNone;
  }
  if (n > 0) head[0] = 0;
  auto unlink = [&](VertexId v, std::uint32_t bucket) {
    if (prev[v] == kNone) {
      head[bucket] = next[v];
    } else {
      next[prev[v]] = next[v];
    }
    if (next[v] != kNone) prev[next[v]] = prev[v];
  };

  // The MA scan.
  std::uint32_t top = 0;
  for (std::uint32_t t = 0; t < n; ++t) {
    while (head[top] == kNone) --top;
    const VertexId x = head[top];
    unlink(x, top);
    ord[x] = t;
    r[x] = k;  // Parks x at the cap, so the loop below skips it from now on.
    if (tree[x] == kNone) tree[x] = x;  // No F_k parent: x roots a tree.
    for (const VertexId y : g.Neighbors(x)) {
      if (r[y] >= k) continue;  // Scanned, or no forest <= k left for {x, y}.
      unlink(y, r[y]);
      const std::uint32_t ry = ++r[y];
      next[y] = head[ry];
      prev[y] = kNone;
      if (head[ry] != kNone) prev[head[ry]] = y;
      head[ry] = y;
      top = std::max(top, ry);
      if (ry == k) {  // {x, y} is in F_k: x is y's parent there.
        limit[y] = t + 1;
        tree[y] = tree[x];
      }
    }
  }

  GraphBuilder::FilterInto(
      g,
      [&](VertexId u, VertexId w) {
        return ord[u] < ord[w] ? ord[u] < limit[w] : ord[w] < limit[u];
      },
      out.certificate);

  // Side-groups: the F_k trees with at least one edge, numbered in order of
  // smallest member by one ascending pass (which also sorts each group).
  // The bucket links are dead now; `next` holds each tree root's group id.
  auto& group_at = next;
  std::fill(group_at.begin(), group_at.end(), kNoGroup);
  for (VertexId v = 0; v < n; ++v) {
    if (tree[v] != v) group_at[tree[v]] = kUnnumbered;
  }
  auto& groups = out.groups;
  out.group_of.resize(n);  // kvcc-lint: reserved
  std::uint32_t num_groups = 0;
  for (VertexId v = 0; v < n; ++v) {
    std::uint32_t& id = group_at[tree[v]];
    if (id == kUnnumbered) {
      id = num_groups++;
      // Recycle the inner vectors of previous builds instead of
      // reallocating one per group.
      if (id == groups.size()) groups.emplace_back();  // kvcc-lint: reserved
      groups[id].clear();
    }
    out.group_of[v] = id;
    if (id != kNoGroup) groups[id].push_back(v);  // kvcc-lint: reserved
  }
  groups.resize(num_groups);  // kvcc-lint: reserved
}

}  // namespace kvcc
