// Internal core of the k-VCC enumeration engine (paper Algorithm 1),
// shared by the serial driver in kvcc_enum.cc and the batch KvccEngine in
// engine.cc. Not part of the public API surface; include kvcc/kvcc_enum.h
// or kvcc/engine.h instead.
//
// The unit of work is a WorkItem (one subgraph of the recursion tree plus
// carried side-vertex verdicts). ProcessItem runs one recursion step on one
// item using only a per-worker EnumScratch, emitting found k-VCCs and
// spawning partition pieces through caller-supplied sinks. The step is a
// pure function of (item/root, k, options): the emitted components and the
// spawned children do not depend on which worker runs it or when, which is
// what makes any parallel interleaving's merged-and-sorted output identical
// to the serial run's.
//
// Preprocessing inside the step (peel + component split) runs the flat
// kernels of graph/k_core.h and graph/preprocess.h as one fused pass that
// never materializes the whole k-core as an intermediate Graph: the peel's
// removal marks mask the Afforest component kernel, and each component's
// induced subgraph is built directly from the working graph through the
// pooled GraphBuilder — emitting upper-triangle edges in lexicographic
// order so BuildInto takes its sorted fast path. preprocessing_test pins
// the kernel against the staged peel / induce / BFS-label pipeline and the
// enumeration against the brute-force oracle.
//
// The emit callback is also the streaming-delivery tap (kvcc/stream.h):
// the drivers either buffer emitted components for a sorted KvccResult
// (EnumerateKVccs, KvccEngine::Wait) or forward them to a ComponentSink
// the moment they fire (EnumerateKVccsStreaming,
// KvccEngine::SubmitStreaming). Within one ProcessItem call the emission
// order is deterministic, and the serial driver's LIFO stack visits
// children last-spawned-first — together that fixes the "serial emission
// order" that KvccOptions::stable_order reproduces under parallelism (the
// engine keys each emit/spawn with a hierarchical path; see
// KvccEngine::EmitKey in kvcc/engine.h). docs/ARCHITECTURE.md has the
// full map.
#ifndef KVCC_KVCC_ENUM_INTERNAL_H_
#define KVCC_KVCC_ENUM_INTERNAL_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/connected_components.h"
#include "graph/graph.h"
#include "graph/graph_builder.h"
#include "graph/k_core.h"
#include "graph/preprocess.h"
#include "kvcc/global_cut.h"
#include "kvcc/job_control.h"
#include "kvcc/kvcc_enum.h"
#include "kvcc/options.h"
#include "kvcc/side_vertex.h"
#include "kvcc/stats.h"

namespace kvcc::internal {

struct WorkItem {
  Graph graph;
  /// Strong side-vertex carry-over verdicts (Lemmas 15/16); empty = none.
  std::vector<SideVertexHint> hints;
};

/// Per-worker mutable scratch. Workers never share an EnumScratch, so the
/// hot path runs without atomics or locks, and a long-lived engine keeps
/// the probe oracle (CutOracle, including its per-vertex flow state),
/// certificate, sweep buffers, and the prune-pipeline scratch warm across
/// every job it serves. A default-constructed scratch is always valid.
struct EnumScratch {
  GlobalCutScratch cut_scratch;
  // NeighborsOfSet output.
  std::vector<bool> nbr_touched;
  // Fused prune pipeline: peel marks + Afforest labels + component
  // grouping, the direct component-subgraph builder, and its output pool
  // (cycled through BuildInto, so the warm path stays off the allocator).
  FusedPruneScratch prune;
  GraphBuilder sub_builder;
  Graph sub_pool;
  std::vector<VertexId> local_id;  // cur vertex -> component-local id
  std::vector<VertexId> removed;   // peel casualties (hint invalidation)
};

/// Vertices of g with at least one neighbor in `sources` (the 1-hop
/// dilation, excluding the sources themselves unless they qualify). Used
/// for the partition-time maintenance rule: a strong side-vertex verdict
/// survives a partition by cut S iff N(v) ∩ S = ∅ (Lemma 16). Returns a
/// reference into `scratch`, valid until the next call. The graph is
/// undirected, so marking N(s) for every source s finds the same set in
/// O(n + sum of deg(s)) instead of a full O(m) scan.
inline const std::vector<bool>& NeighborsOfSet(
    const Graph& g, const std::vector<VertexId>& sources,
    EnumScratch& scratch) {
  std::vector<bool>& touched = scratch.nbr_touched;
  touched.assign(g.NumVertices(), false);
  for (VertexId s : sources) {
    for (VertexId w : g.Neighbors(s)) touched[w] = true;
  }
  return touched;
}

/// Runs one step of the Algorithm-1 recursion (k-core peel -> components ->
/// GLOBAL-CUT -> overlapped partition) on one work item. Found k-VCCs are
/// passed to `emit` as sorted id lists; partition pieces are handed to
/// `spawn` as child items; counters accumulate into `stats`. `root` is
/// non-null only for the initial item: the step then reads the caller's
/// graph in place (no identity-label copy) and derived subgraphs seed their
/// label chain at the root via subset labeling. `scheduler` (may be null:
/// fully serial) is handed down into the preprocessing kernels and into
/// GLOBAL-CUT so a single hard subproblem can fan out to idle workers —
/// the missing parallelism level when the recursion tree is too shallow to
/// feed the pool on its own. `cancel` (may be null: uncancellable) is
/// handed down too; GLOBAL-CUT polls it at its probe and wavefront
/// boundaries and unwinds this step by throwing JobCancelled — the driver
/// is responsible for the whole-item boundary check *before* calling in,
/// and for catching JobCancelled and reporting the outcome with the job's
/// partial stats attached.
template <typename Emit, typename Spawn>
void ProcessItem(WorkItem&& item, const Graph* root, std::uint32_t k,
                 const KvccOptions& options, bool maintain,
                 EnumScratch& scratch, KvccStats& stats,
                 exec::TaskScheduler* scheduler, const CancelToken* cancel,
                 Emit&& emit, Spawn&& spawn) {
  const bool as_root = root != nullptr;
  const Graph* cur = as_root ? root : &item.graph;
  const exec::TaskPriority task_priority = ToTaskPriority(options.priority);
  FusedPruneScratch& prune = scratch.prune;

  // --- k-core peel (Alg. 1 line 2), bucket kernel ---
  stats.kcore_bucket_rounds += KCoreVerticesInto(
      *cur, k, scheduler, task_priority, prune.kcore, prune.survivors);
  const std::vector<VertexId>& survivors = prune.survivors;
  ++stats.kcore_rounds;
  stats.kcore_removed_vertices += cur->NumVertices() - survivors.size();
  if (survivors.size() <= k) return;  // A k-VCC needs > k vertices.
  const bool full_core = survivors.size() == cur->NumVertices();

  // Peeling invalidates side-vertex verdicts within 2 hops of a removed
  // vertex (common-neighbor counts may have dropped).
  std::vector<bool> peel_touched;
  const bool have_hints = maintain && !item.hints.empty();
  if (have_hints && !full_core) {
    const PeelMask mask = prune.kcore.Mask();
    std::vector<VertexId>& removed = scratch.removed;
    if (removed.capacity() < cur->NumVertices()) {
      removed.reserve(cur->NumVertices());
    }
    removed.clear();
    for (VertexId v = 0; v < cur->NumVertices(); ++v) {
      if (mask.Removed(v)) removed.push_back(v);
    }
    peel_touched = TwoHopBall(*cur, removed);
  }

  // Maps a component subgraph's vertex i (= cur vertex comp[i]) to its
  // carried hint, degrading peel-touched strong verdicts to recheck.
  const auto build_hints = [&](std::span<const VertexId> comp,
                               std::vector<SideVertexHint>& out_hints) {
    if (!have_hints) return;
    out_hints.resize(comp.size());
    for (std::size_t i = 0; i < comp.size(); ++i) {
      SideVertexHint h = item.hints[comp[i]];
      if (h == SideVertexHint::kStrong && !peel_touched.empty() &&
          peel_touched[comp[i]]) {
        h = SideVertexHint::kRecheck;
      }
      out_hints[i] = h;
    }
  };

  // Shared recursion tail (Alg. 1 lines 5-9): GLOBAL-CUT on one component
  // subgraph, then emit it as a k-VCC or partition along the cut.
  const auto run_cut = [&](const Graph& sub, bool sub_is_root,
                           const std::vector<SideVertexHint>& sub_hints) {
    GlobalCutResult found = GlobalCut(sub, k, sub_hints, options, &stats,
                                      &scratch.cut_scratch, scheduler,
                                      cancel);
    if (found.cut.empty()) {
      // sub is k-vertex-connected and maximal within this branch: k-VCC.
      std::vector<VertexId> ids;
      ids.reserve(sub.NumVertices());
      for (VertexId v = 0; v < sub.NumVertices(); ++v) {
        ids.push_back(sub_is_root ? v : sub.LabelOf(v));
      }
      std::sort(ids.begin(), ids.end());
      emit(std::move(ids));
      ++stats.kvccs_found;
      return;
    }

    // --- overlapped partition (Alg. 1 line 9) ---
    ++stats.overlap_partitions;
    // The strong-side verdicts live in the cut scratch (GlobalCutResult
    // documents this); they stay valid until the next GlobalCut call, and
    // every use below happens before this call returns.
    const std::vector<bool>& strong_side = scratch.cut_scratch.side.strong;
    const std::vector<bool>* cut_touched = nullptr;
    if (maintain && found.strong_side_valid) {
      cut_touched = &NeighborsOfSet(sub, found.cut, scratch);
    }
    for (PartitionPiece& piece :
         OverlapPartition(sub, found.cut, sub_is_root)) {
      std::vector<SideVertexHint> child_hints;
      if (maintain && found.strong_side_valid) {
        child_hints.resize(piece.graph.NumVertices());
        for (VertexId i = 0; i < piece.graph.NumVertices(); ++i) {
          const VertexId sub_v = piece.vertices[i];
          if (!strong_side[sub_v]) {
            child_hints[i] = SideVertexHint::kNotStrong;  // Lemma 15.
          } else if ((*cut_touched)[sub_v]) {
            child_hints[i] = SideVertexHint::kRecheck;
          } else {
            child_hints[i] = SideVertexHint::kStrong;  // Lemma 16.
          }
        }
      }
      spawn(WorkItem{std::move(piece.graph), std::move(child_hints)});
    }
  };

  // --- fused component split (Alg. 1 line 3) ---
  // The peel marks mask the Afforest kernel, and each component's
  // subgraph is built straight from `cur` — no whole-core intermediate.
  const PeelMask mask = prune.kcore.Mask();
  stats.cc_hooks += AfforestComponentsInto(
      *cur, &mask, scheduler, task_priority, prune.cc, prune.labeling);
  GroupSurvivorsByComponent(prune);
  const std::uint32_t ncomp = prune.labeling.count;
  const bool single_component = ncomp == 1;
  if (!full_core && ncomp > 1) {
    // A partial core split into several components: the one shape where
    // fusion skips a whole-core Graph that no component would reuse.
    ++stats.prune_fused_passes;
  }
  for (std::uint32_t c = 0; c < ncomp; ++c) {
    const std::span<const VertexId> comp{
        prune.comp_vertices.data() + prune.comp_offsets[c],
        static_cast<std::size_t>(prune.comp_offsets[c + 1] -
                                 prune.comp_offsets[c])};
    if (comp.size() <= k) continue;  // Cannot contain a k-VCC (Def. 2).
    std::vector<SideVertexHint> sub_hints;
    build_hints(comp, sub_hints);
    if (full_core && single_component) {
      // The working graph already is the single component: reuse it
      // (read the root in place / adopt the owned graph) with no copy.
      if (as_root) {
        run_cut(*root, /*sub_is_root=*/true, sub_hints);
      } else {
        const Graph sub_owned = std::move(item.graph);  // `cur` dies.
        run_cut(sub_owned, /*sub_is_root=*/false, sub_hints);
      }
      continue;
    }
    // Direct induced-subgraph build: component members get local ids in
    // ascending cur order, and only upper-triangle (lw > i) alive
    // neighbors are emitted — lexicographically sorted, so BuildInto
    // skips its edge sort. An alive neighbor of a component member is in
    // the same component by definition, so local_id[w] is always bound.
    std::vector<VertexId>& local = scratch.local_id;
    if (local.size() < cur->NumVertices()) local.resize(cur->NumVertices());
    for (std::size_t i = 0; i < comp.size(); ++i) {
      local[comp[i]] = static_cast<VertexId>(i);
    }
    GraphBuilder& builder = scratch.sub_builder;
    builder.EnsureVertex(static_cast<VertexId>(comp.size()) - 1);
    for (std::size_t i = 0; i < comp.size(); ++i) {
      const VertexId li = static_cast<VertexId>(i);
      for (const VertexId w : cur->Neighbors(comp[i])) {
        if (mask.Removed(w)) continue;
        const VertexId lw = local[w];
        if (lw > li) builder.AddEdge(li, lw);
      }
    }
    builder.SetLabelsFromSubset(*cur, comp, as_root);
    builder.BuildInto(scratch.sub_pool);
    run_cut(scratch.sub_pool, /*sub_is_root=*/false, sub_hints);
  }
}

}  // namespace kvcc::internal

#endif  // KVCC_KVCC_ENUM_INTERNAL_H_
