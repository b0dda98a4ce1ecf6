#include "kvcc/global_cut.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>
#include <utility>

#include "kvcc/cut_oracle.h"
#include "kvcc/sparse_certificate.h"
#include "kvcc/sweep_context.h"

namespace kvcc {
namespace {

/// Rolls one probe's work trace into the run-wide stats counters.
void AccumulateProbe(const ProbeCounters& trace, KvccStats* stats) {
  stats->probes_localvc += trace.probes_localvc;
  stats->probes_localvc_fallback += trace.probes_localvc_fallback;
  stats->probe_edges_touched += trace.probe_edges_touched;
}

/// Grow-only sizing of the epoch-stamped visit marks. New entries carry
/// stamp 0, which never equals a live epoch. Warm calls (marks already at
/// high-water) touch no allocator.
// kvcc-lint: no-alloc
void EnsureMarks(GlobalCutScratch& scratch, VertexId n) {
  if (scratch.removed_mark.size() < n) {
    scratch.removed_mark.resize(n, 0);  // kvcc-lint: reserved
    scratch.seen_mark.resize(n, 0);     // kvcc-lint: reserved
  }
}

/// BFS from the source into scratch.order_dist and returns the largest
/// distance. Visited state is epoch-stamped (no O(n) re-assignment per
/// call). Throws std::invalid_argument if some vertex is unreachable —
/// a hard check in every build mode, because the old assert compiled out
/// of Release builds and let kUnreachable either index out of bounds
/// (distance ordering) or silently misread a 0-flow as local
/// k-connectivity (phase 1 on a disconnected input).
// kvcc-lint: no-alloc — warm path; the unreachable-vertex throw below is
// the (allocating) error exit of a dead input, never the steady state.
std::uint32_t CheckConnectedFromSource(const Graph& g, VertexId source,
                                       GlobalCutScratch& scratch) {
  const VertexId n = g.NumVertices();
  EnsureMarks(scratch, n);
  // Grow-only scratch buffers: warm calls stay at high-water capacity.
  if (scratch.order_dist.size() < n) {
    scratch.order_dist.resize(n);  // kvcc-lint: reserved
  }
  const std::uint64_t epoch = ++scratch.mark_epoch;
  std::vector<std::uint32_t>& dist = scratch.order_dist;
  std::vector<std::uint64_t>& seen = scratch.seen_mark;
  std::vector<VertexId>& queue = scratch.mark_queue;
  queue.clear();
  queue.push_back(source);  // kvcc-lint: reserved
  seen[source] = epoch;
  dist[source] = 0;
  VertexId reached = 1;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const VertexId u = queue[head];
    const std::uint32_t next_dist = dist[u] + 1;
    for (VertexId w : g.Neighbors(u)) {
      if (seen[w] != epoch) {
        seen[w] = epoch;
        dist[w] = next_dist;
        ++reached;
        queue.push_back(w);  // kvcc-lint: reserved
      }
    }
  }
  if (reached < n) {
    VertexId unreachable = kInvalidVertex;
    for (VertexId v = 0; v < n; ++v) {
      if (seen[v] != epoch) {
        unreachable = v;
        break;
      }
    }
    throw std::invalid_argument(
        "GlobalCut: input graph is not connected (vertex " +
        std::to_string(unreachable) + " is unreachable from source " +
        std::to_string(source) + ")");
  }
  return dist[queue.back()];  // BFS order: the last vertex is farthest.
}

/// Fills scratch.order with the phase-1 processing order: non-ascending
/// BFS distance from the source (in scratch.order_dist), ties by ascending
/// id (deterministic). Counting sort over distances into reused buffers.
void DistanceDescendingOrder(const Graph& g, VertexId source,
                             std::uint32_t max_dist,
                             GlobalCutScratch& scratch) {
  const VertexId n = g.NumVertices();
  const std::vector<std::uint32_t>& dist = scratch.order_dist;

  // Bucket counts, then start offsets laid out from the farthest distance
  // down to 0; a stable ascending-id fill lands every vertex in place.
  std::vector<std::uint32_t>& start = scratch.order_bucket_start;
  start.assign(max_dist + 1, 0);
  for (VertexId v = 0; v < n; ++v) {
    if (v != source) ++start[dist[v]];
  }
  std::uint32_t base = 0;
  for (std::uint32_t d = max_dist;; --d) {
    const std::uint32_t count = start[d];
    start[d] = base;
    base += count;
    if (d == 0) break;
  }
  std::vector<VertexId>& order = scratch.order;
  order.resize(n - 1);
  for (VertexId v = 0; v < n; ++v) {
    if (v != source) order[start[dist[v]]++] = v;
  }
}

void CountPrunedVertex(SweepCause cause, KvccStats* stats) {
  switch (cause) {
    case SweepCause::kNeighborSweepSide:
      ++stats->phase1_pruned_ns1;
      break;
    case SweepCause::kNeighborSweepDeposit:
      ++stats->phase1_pruned_ns2;
      break;
    case SweepCause::kGroupSweep:
      ++stats->phase1_pruned_gs;
      break;
    case SweepCause::kTested:
      // Only the source carries kTested before the loop reaches a vertex,
      // and the source is excluded from the order; nothing to count.
      break;
  }
}

// Adaptive wavefront batch bounds: start small (distance ordering tends to
// surface cuts within the first few probes, and every probe past a
// found cut is waste), grow while the observed prune rate keeps
// speculative waste low, shrink when sweeps are pruning aggressively.
// Driven purely by the loop's (deterministic) outcomes, so the batch-size
// trajectory — and with it every probe-waste counter — is a pure function
// of (input, options), independent of thread count or timing.
constexpr std::uint32_t kBatchInit = 4;
constexpr std::uint32_t kBatchMin = 4;
constexpr std::uint32_t kBatchMax = 256;

}  // namespace

namespace detail {

// Precondition: `cut` entries are distinct vertices of g (LocCut extracts
// them from a deduplicated residual scan). Warm zero-allocation asserted by
// memory_tracker_test.WarmCutDisconnectsAllocatesNothing.
// kvcc-lint: no-alloc
bool CutDisconnects(const Graph& g, const std::vector<VertexId>& cut,
                    GlobalCutScratch& scratch) {
  const VertexId n = g.NumVertices();
  EnsureMarks(scratch, n);
  const std::uint64_t epoch = ++scratch.mark_epoch;
  std::vector<std::uint64_t>& removed = scratch.removed_mark;
  std::vector<std::uint64_t>& seen = scratch.seen_mark;
  std::vector<VertexId>& queue = scratch.mark_queue;
  for (VertexId v : cut) removed[v] = epoch;
  const VertexId alive = n - static_cast<VertexId>(cut.size());
  if (alive == 0) return false;  // Removing everything is not a cut.
  VertexId start = 0;
  while (removed[start] == epoch) ++start;
  queue.clear();
  queue.push_back(start);  // kvcc-lint: reserved
  seen[start] = epoch;
  VertexId reached = 1;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    for (VertexId w : g.Neighbors(queue[head])) {
      if (removed[w] != epoch && seen[w] != epoch) {
        seen[w] = epoch;
        ++reached;
        queue.push_back(w);  // kvcc-lint: reserved
      }
    }
  }
  return reached < alive;
}

}  // namespace detail

GlobalCutResult GlobalCut(const Graph& g, std::uint32_t k,
                          const std::vector<SideVertexHint>& hints,
                          const KvccOptions& options, KvccStats* stats,
                          GlobalCutScratch* scratch,
                          exec::TaskScheduler* scheduler,
                          const CancelToken* cancel) {
  GlobalCutScratch transient;
  if (scratch == nullptr) scratch = &transient;
  const VertexId n = g.NumVertices();
  assert(n > k);
  assert(hints.empty() || hints.size() == n);

  // Cooperative cancellation: polled at entry, before every inline flow
  // probe, and at every wavefront formation — the boundaries that
  // bound time-to-unwind by one probe / one batch. The thrown JobCancelled
  // carries no stats; the enumeration driver attaches the job's partial
  // counters when it surfaces the outcome.
  auto check_cancelled = [cancel, stats]() {
    if (cancel != nullptr && cancel->Cancelled()) {
      ++stats->cuts_cancelled;
      throw JobCancelled("GLOBAL-CUT cancelled mid-search");
    }
  };
  // Count the invocation before the entry check: a cancelled-at-entry
  // search is still a (cancelled) call, keeping cuts_cancelled <=
  // global_cut_calls coherent in partial stats.
  ++stats->global_cut_calls;
  check_cancelled();

  GlobalCutResult result;

  // --- sparse certificate (Alg. 2/3 line 1) ---
  // Rebuilt into the scratch's reused storage: on the steady-state path
  // the certificate construction touches no allocator.
  SparseCertificate& sc = scratch->cert;
  const bool use_certificate = options.sparse_certificate;
  if (use_certificate) {
    BuildSparseCertificate(g, k, sc, scratch->cert_scratch);
    stats->certificate_edges_input += g.NumEdges();
    stats->certificate_edges_kept += sc.certificate.NumEdges();
    stats->side_groups_found += sc.groups.size();
  }
  const Graph& test_graph = use_certificate ? sc.certificate : g;
  const bool group_sweep = options.group_sweep && use_certificate;
  static const std::vector<std::vector<VertexId>> kNoGroups;
  static const std::vector<std::uint32_t> kNoGroupOf;
  const auto& groups = group_sweep ? sc.groups : kNoGroups;
  const auto& group_of = group_sweep ? sc.group_of : kNoGroupOf;

  // --- strong side-vertices (Alg. 3 line 3) ---
  // Verdicts land in the scratch's reused buffer (no per-call O(n) copy);
  // they stay readable there until the scratch's next GlobalCut call.
  if (options.neighbor_sweep) {
    static const std::vector<SideVertexHint> kNoHints;
    const auto& effective_hints =
        options.maintain_side_vertices ? hints : kNoHints;
    const SideVertexCounts side_counts = ComputeStrongSideVerticesInto(
        g, k, effective_hints, options.side_vertex_degree_cap, scratch->side);
    stats->strong_side_vertices_found += side_counts.strong_count;
    stats->strong_side_checks_run += side_counts.checks_run;
    stats->strong_side_verdicts_reused += side_counts.reused;
    result.strong_side_valid = true;
  } else {
    scratch->side.strong.assign(n, false);
  }
  const std::vector<bool>& strong = scratch->side.strong;

  // --- source selection (Alg. 3 lines 4-7) ---
  VertexId source = kInvalidVertex;
  if (options.neighbor_sweep) {
    for (VertexId v = 0; v < n; ++v) {
      if (strong[v]) {
        source = v;
        break;
      }
    }
  }
  if (source == kInvalidVertex) source = test_graph.MinDegreeVertex();
  const bool source_is_strong = options.neighbor_sweep && strong[source];

  // Wavefront engagement, decided up front (see the lookahead comment
  // below). The vertex floor keeps small subproblems — which the
  // subproblem level already parallelizes — probing inline, where
  // speculation cannot pay for itself.
  const bool wavefronts = scheduler != nullptr &&
                          scheduler->num_workers() > 1 &&
                          (options.intra_cut_min_vertices == 0 ||
                           n >= options.intra_cut_min_vertices);
  // Probe engine (KvccOptions::cut_oracle): created lazily, replaced only
  // when the option changes between jobs sharing this scratch. Inline
  // probes run on it directly.
  if (!scratch->oracle || scratch->oracle->kind() != options.cut_oracle) {
    scratch->oracle = MakeCutOracle(options.cut_oracle);
  }
  CutOracle& oracle = *scratch->oracle;
  oracle.BindGraph(test_graph);
  // Epoch rebind: O(1) reset of the sweep arrays, no reallocation.
  SweepContext& sweep = scratch->sweep;
  sweep.Bind(g, k, strong, groups, group_of, options.neighbor_sweep,
             group_sweep);
  sweep.Sweep(source, SweepCause::kTested);

  auto finish_with_cut = [&](std::vector<VertexId> cut) {
    if (use_certificate && options.verify_cuts &&
        !detail::CutDisconnects(g, cut, *scratch)) {
      // By the certificate theorem this cannot happen; if it ever does,
      // fall back to an exact search on the full graph. The recursive call
      // rebinds the scratch's oracle/sweep/order/wavefront state; none of
      // it is used here afterwards.
      ++stats->certificate_cut_fallbacks;
      KvccOptions fallback = options;
      fallback.sparse_certificate = false;
      return GlobalCut(g, k, hints, fallback, stats, scratch, scheduler,
                       cancel);
    }
    std::sort(cut.begin(), cut.end());
    result.cut = std::move(cut);
    return result;
  };

  // --- phase-1 processing order ---
  // The connectivity precondition is enforced for every variant (one BFS,
  // dwarfed by the flow tests), not just when its distances are needed.
  const std::uint32_t max_dist = CheckConnectedFromSource(g, source, *scratch);
  if (options.distance_order) {
    DistanceDescendingOrder(g, source, max_dist, *scratch);
  } else {
    scratch->order.clear();
    scratch->order.reserve(n - 1);
    for (VertexId v = 0; v < n; ++v) {
      if (v != source) scratch->order.push_back(v);
    }
  }

  // --- probe lookahead ---
  // Each phase below is one serial loop; the lookahead only decides where
  // the loop's flow-probe results come from. Without wavefronts the loop
  // probes inline on the scratch oracle. With them, a probe the current
  // wave did not launch forms the next wave: starting at that probe, the
  // loop's own skip rules, read against the live sweep state, list the
  // next `batch` probes the loop can still reach; they run concurrently on
  // the pool and the loop consumes their results in order. Sweeps only
  // grow, so every probe the loop still needs inside a wave was launched
  // by it. A launched probe the loop finds swept, or never reaches because
  // a cut ended the search, is waste (KvccStats::probes_wasted_*).
  // Engagement depends only on (options, scheduler shape, n) and the batch
  // trajectory only on consumed outcomes, so the wave structure — and with
  // it every counter — is a pure function of the input for a given thread
  // count, whatever the pool's actual load.
  std::uint32_t batch =
      options.probe_batch_size != 0 ? options.probe_batch_size : kBatchInit;
  const bool adaptive_batch = options.probe_batch_size == 0;
  auto adapt = [&](std::size_t launched, std::uint32_t wasted) {
    if (!adaptive_batch || launched == 0) return;
    if (wasted * 4 >= launched) {
      batch = std::max(kBatchMin, batch / 2);  // > 25% waste: back off.
    } else if (wasted * 8 <= launched) {
      batch = std::min(kBatchMax, batch * 2);  // <= 12.5% waste: open up.
    }
  };

  // Runs the current wave concurrently, each pair first through the
  // Lemma-13 test when `common_test` is set. Each executor slot owns one
  // pool oracle, bound (O(1)) to the probe graph before each probe — only
  // the graph is shared, and probes only read it; a probe writes
  // only its own wave_cuts / wave_common_skip / wave_traces entries, and
  // the loop reads them only after ParallelFor returned, so probes race
  // with nothing. The sweep state is immutable during the wave: formation
  // read it serially, and the loop mutates it serially afterwards.
  auto run_probes = [&](bool common_test) {
    const auto& args = scratch->wave_probe_args;
    const std::uint32_t launched = static_cast<std::uint32_t>(args.size());
    const unsigned slots = scheduler->num_workers() + 1;
    if (scratch->probe_pool.size() < slots) scratch->probe_pool.resize(slots);
    if (scratch->wave_cuts.size() < launched) {
      scratch->wave_cuts.resize(launched);
    }
    if (scratch->wave_common_skip.size() < launched) {
      scratch->wave_common_skip.resize(launched);
    }
    if (scratch->wave_traces.size() < launched) {
      scratch->wave_traces.resize(launched);
    }
    ++stats->probe_wavefronts;
    auto& pool = scratch->probe_pool;
    auto& cuts = scratch->wave_cuts;
    auto& common_skip = scratch->wave_common_skip;
    auto& traces = scratch->wave_traces;
    const CutOracleKind oracle_kind = options.cut_oracle;
    const Graph& host = g;
    // Helper stubs carry the owning job's latency class, so an
    // interactive job's wavefront competes for idle workers at its own
    // priority instead of degrading to kNormal on its hardest subproblem.
    scheduler->ParallelFor(
        launched,
        [&pool, &cuts, &common_skip, &traces, &args, &host, &test_graph,
         oracle_kind, common_test, k](std::size_t i, unsigned slot) {
          std::unique_ptr<CutOracle>& po = pool[slot];
          if (!po || po->kind() != oracle_kind) po = MakeCutOracle(oracle_kind);
          traces[i] = ProbeCounters{};
          // Lemma-13 pre-test, evaluated in the wave rather than by the
          // loop: a pure function of the working graph, so the verdict is
          // the loop's own, while the Theta(d) merges that dominate pair
          // tests on hub-heavy sources run in parallel.
          if (common_test &&
              CommonNeighborsAtLeast(host, args[i].first, args[i].second,
                                     k)) {
            common_skip[i] = 1;
            cuts[i].clear();
          } else {
            common_skip[i] = 0;
            po->BindGraph(test_graph);
            cuts[i] = po->Probe(args[i].first, args[i].second, k, traces[i]);
          }
        },
        ToTaskPriority(options.priority));
    // Serial roll-up over every launched probe — speculative ones
    // included, their flow work is real — keeps the oracle counters
    // deterministic for a fixed (input, options, thread count).
    for (std::uint32_t i = 0; i < launched; ++i) {
      if (common_skip[i] == 0) ++stats->probes_launched;
      AccumulateProbe(traces[i], stats);
    }
  };

  auto& wave_args = scratch->wave_probe_args;
  wave_args.clear();
  std::size_t next = 0;            // First wave entry the loop has not used.
  std::uint32_t wasted_swept = 0;  // Wave entries the loop found swept.
  // True iff (a, b) is the current wave's next launched probe.
  auto launched = [&](VertexId a, VertexId b) {
    return next < wave_args.size() && wave_args[next] == std::pair(a, b);
  };
  // Retires the current wave: flow probes the loop never reached (a cut
  // ended the search) and those it found swept are its waste; the batch
  // adapts to the swept share.
  auto retire_wave = [&]() {
    for (; next < wave_args.size(); ++next) {
      if (scratch->wave_common_skip[next] == 0) {
        ++stats->probes_wasted_after_cut;
      }
    }
    stats->probes_wasted_swept += wasted_swept;
    adapt(wave_args.size(), wasted_swept);
    wave_args.clear();
    next = 0;
    wasted_swept = 0;
  };
  // The loop's flow probe of (a, b): the cut found (empty when a and b are
  // locally k-connected), or nullptr when the Lemma-13 test settled the
  // pair first (`common_test`). `form` lists the next wave from (a, b) on.
  std::vector<VertexId> inline_cut;
  auto probe = [&](VertexId a, VertexId b, bool common_test,
                   const auto& form) -> std::vector<VertexId>* {
    if (!wavefronts) {
      if (common_test && CommonNeighborsAtLeast(g, a, b, k)) return nullptr;
      check_cancelled();
      ProbeCounters trace;
      inline_cut = oracle.Probe(a, b, k, trace);
      AccumulateProbe(trace, stats);
      return &inline_cut;
    }
    if (!launched(a, b)) {
      // A new wave forms only once the last one is used up (see above).
      assert(next == wave_args.size());
      retire_wave();
      check_cancelled();
      form();
      run_probes(common_test);
    }
    const std::size_t i = next++;
    if (scratch->wave_common_skip[i] != 0) return nullptr;
    return &scratch->wave_cuts[i];
  };

  // --- phase 1 (Alg. 3 lines 8-15): covers every cut avoiding the source ---
  const std::vector<VertexId>& order = scratch->order;
  for (std::size_t p = 0; p < order.size(); ++p) {
    const VertexId v = order[p];
    if (sweep.IsSwept(v)) {
      CountPrunedVertex(sweep.CauseOf(v), stats);
      if (launched(source, v)) {  // Swept after its wave launched it.
        ++next;
        ++wasted_swept;
      }
      continue;
    }
    if (g.HasEdge(source, v)) {
      // Lemma 5: adjacent vertices are locally k-connected for free.
      ++stats->phase1_tested_trivial;
      sweep.Sweep(v, SweepCause::kTested);
      continue;
    }
    std::vector<VertexId>* cut = probe(source, v, false, [&] {
      for (std::size_t q = p; q < order.size() && wave_args.size() < batch;
           ++q) {
        const VertexId u = order[q];
        if (!sweep.IsSwept(u) && !g.HasEdge(source, u)) {
          wave_args.emplace_back(source, u);
        }
      }
    });
    ++stats->phase1_tested_flow;
    ++stats->loc_cut_flow_calls;
    if (!cut->empty()) {
      retire_wave();
      return finish_with_cut(std::move(*cut));
    }
    sweep.Sweep(v, SweepCause::kTested);
  }
  retire_wave();

  // --- phase 2 (Alg. 3 lines 16-21): covers cuts containing the source ---
  // A strong side-vertex source is in no minimum cut; skip entirely.
  if (!source_is_strong) {
    const auto nbrs = test_graph.Neighbors(source);
    const std::size_t deg = nbrs.size();
    // Restart the adaptive ramp: a batch grown across a cut-free phase 1
    // would otherwise turn an early phase-2 cut into a full-batch write-off.
    if (adaptive_batch) batch = kBatchInit;
    const bool common_test = options.phase2_common_neighbor_skip;
    // Group sweep rule 3 and Lemma 5 settle a pair without a probe; returns
    // the counter of the rule that did, or nullptr.
    auto pair_skip = [&](VertexId va, VertexId vb) -> std::uint64_t* {
      if (group_sweep && group_of[va] != kNoGroup &&
          group_of[va] == group_of[vb]) {
        return &stats->phase2_pairs_skipped_group;
      }
      if (g.HasEdge(va, vb)) return &stats->phase2_pairs_skipped_adjacent;
      return nullptr;
    };
    for (std::size_t i = 0; i < deg; ++i) {
      for (std::size_t j = i + 1; j < deg; ++j) {
        if (std::uint64_t* skipped = pair_skip(nbrs[i], nbrs[j])) {
          ++*skipped;
          continue;
        }
        std::vector<VertexId>* cut = probe(nbrs[i], nbrs[j], common_test, [&] {
          for (std::size_t a = i, b = j;
               a + 1 < deg && wave_args.size() < batch;) {
            if (pair_skip(nbrs[a], nbrs[b]) == nullptr) {
              wave_args.emplace_back(nbrs[a], nbrs[b]);
            }
            if (++b == deg) {
              ++a;
              b = a + 1;
            }
          }
        });
        if (cut == nullptr) {
          ++stats->phase2_pairs_skipped_common;  // Lemma 13.
          continue;
        }
        ++stats->phase2_pairs_tested;
        ++stats->loc_cut_flow_calls;
        if (!cut->empty()) {
          retire_wave();
          return finish_with_cut(std::move(*cut));
        }
      }
    }
  }

  return result;  // Empty cut: g is k-vertex-connected.
}

}  // namespace kvcc
