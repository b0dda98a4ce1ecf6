// GLOBAL-CUT (paper Alg. 2) and GLOBAL-CUT* (paper Alg. 3).
//
// Given a connected graph g with minimum degree >= k and more than k
// vertices, finds a vertex cut with fewer than k vertices, or reports that
// none exists (g is then k-vertex-connected). The search follows
// Esfahanian–Hakimi: phase 1 tests the local connectivity between a source
// u and every other vertex (covers every cut avoiding u); phase 2 tests all
// pairs of u's neighbors (covers cuts containing u, Lemma 4). All flow
// tests run on a sparse certificate; sweeps (KvccOptions) skip most tests.
//
// Probes run on a pluggable CutOracle (KvccOptions::cut_oracle): Dinic
// baseline, NSY-style local search, or a degree-routed hybrid. Every
// engine is exact, so the cut (and all replay-identical stats) are
// byte-identical across engines; see cut_oracle.h.
//
// Intra-cut parallelism: each phase is one serial loop. When a
// multi-worker TaskScheduler is passed in, a lookahead on that loop runs
// its flow probes as *deterministic probe wavefronts*: the next batch of
// probes the loop can still reach executes concurrently on the pool (each
// participant on its own oracle, bound in O(1) to the invocation's probe
// graph), and the loop consumes the results in order. The
// phase-2 common-neighbor test (Lemma 13, a pure function) runs inside the
// wavefront too, so hub-heavy pair tests do not serialize on it. Sweeps,
// all replay-identical stats, and the returned cut are byte-identical to
// a run without a scheduler for every thread count and batch size;
// speculative probes the loop then skips are bounded by an adaptive batch
// size and surfaced in KvccStats::probes_wasted_*.
#ifndef KVCC_KVCC_GLOBAL_CUT_H_
#define KVCC_KVCC_GLOBAL_CUT_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "exec/task_scheduler.h"
#include "graph/graph.h"
#include "kvcc/cut_oracle.h"
#include "kvcc/job_control.h"
#include "kvcc/options.h"
#include "kvcc/side_vertex.h"
#include "kvcc/sparse_certificate.h"
#include "kvcc/stats.h"
#include "kvcc/sweep_context.h"

namespace kvcc {

/// Reusable per-caller state for GlobalCut. The enumeration engine keeps one
/// instance per worker thread so that the flow state, the sparse
/// certificate (storage and working buffers), the side-vertex detection
/// working set, the sweep context, and the hot-path BFS/mark buffers are all
/// recycled across the O(n) GLOBAL-CUT invocations of a run instead of being
/// reallocated in each — the steady-state cut search performs no per-call
/// heap allocation for any of them. A default-constructed scratch is always
/// valid; GlobalCut rebinds it to the working graph on entry, and its
/// contents are meaningless (but safely reusable) between calls — with one
/// documented exception: `side.strong` holds the last call's strong
/// side-vertex verdicts until the next call (see GlobalCutResult).
struct GlobalCutScratch {
  /// Probe engine (KvccOptions::cut_oracle); created lazily, recreated
  /// only when the option changes, rebound (O(1), buffers recycled) per
  /// invocation. Inline probes run here.
  std::unique_ptr<CutOracle> oracle;

  /// Sparse-certificate output storage plus the maximum-adjacency scan
  /// arrays; rebuilt in place per invocation when the certificate is
  /// enabled.
  SparseCertificate cert;
  CertificateScratch cert_scratch;

  /// Strong side-vertex detection working set (verdict vector + memoized
  /// pair-check table); epoch-invalidated per invocation.
  SideVertexScratch side;

  /// Sweep bookkeeping; epoch-rebound per invocation (O(1) reset).
  SweepContext sweep;

  // Epoch-stamped visit marks shared by CutDisconnects (verify-cuts mode)
  // and the phase-1 source BFS: a counter bump replaces the O(n) per-call
  // re-assignment of bool/dist arrays (same pattern as SweepContext::Bind).
  std::uint64_t mark_epoch = 0;
  std::vector<std::uint64_t> removed_mark;
  std::vector<std::uint64_t> seen_mark;
  std::vector<VertexId> mark_queue;

  // Phase-1 processing-order working set. order_dist[v] is valid only where
  // seen_mark[v] carries the epoch of the last source BFS — which is all of
  // [0, n) whenever that BFS succeeded (a disconnected input throws).
  std::vector<std::uint32_t> order_dist;
  std::vector<std::uint32_t> order_bucket_start;
  std::vector<VertexId> order;

  // --- intra-cut wavefront state ---
  /// One oracle per executor slot (scheduler workers + 1 external slot),
  /// bound to the invocation's probe graph before each wavefront probe.
  /// Grown once per scratch lifetime; entries are created on first use and
  /// recreated only when KvccOptions::cut_oracle changes.
  std::vector<std::unique_ptr<CutOracle>> probe_pool;
  /// Current wavefront, one entry per launched probe in the loop's order:
  /// the probe's vertex pair (input), and its cut slot, common-skip
  /// verdict and work trace (outputs; disjoint writes across the
  /// wavefront).
  std::vector<std::pair<VertexId, VertexId>> wave_probe_args;
  std::vector<std::vector<VertexId>> wave_cuts;
  std::vector<std::uint8_t> wave_common_skip;
  std::vector<ProbeCounters> wave_traces;
};

struct GlobalCutResult {
  /// A vertex cut of g with fewer than k vertices; empty iff g is
  /// k-vertex-connected.
  std::vector<VertexId> cut;

  /// True when the call computed strong side-vertex verdicts (neighbor
  /// sweep enabled). The verdicts themselves live in the scratch —
  /// `scratch->side.strong`, one flag per vertex of g, valid until the
  /// scratch's next GlobalCut call — so the steady-state search does not
  /// copy an O(n) vector per invocation. Callers that want the verdicts
  /// (Lemma 15/16 maintenance) must pass their own scratch.
  bool strong_side_valid = false;
};

/// Preconditions: |V(g)| > k and (for the intended use) min degree >= k.
/// g must be connected: a disconnected input throws std::invalid_argument
/// (checked in every build mode, not assert-only). `hints` is either empty
/// or one entry per vertex of g. `scratch` may be nullptr (a transient
/// scratch is used); pass a live one to amortize allocations across
/// repeated calls. `scheduler` may be nullptr (every probe runs inline);
/// with a multi-worker scheduler and at least
/// options.intra_cut_min_vertices vertices, flow probes run as parallel
/// wavefronts (see file comment) with identical output.
/// `cancel` may be nullptr (uncancellable); with a token, the search polls
/// it at entry, before every inline flow probe, and at every wavefront
/// formation, and unwinds by throwing JobCancelled (with empty stats — the
/// driver attaches the job's partials) the first time it observes
/// cancellation, after bumping KvccStats::cuts_cancelled. Time to unwind
/// is therefore bounded by one probe (inline) or one batch (wavefronts),
/// never by the remaining search space.
GlobalCutResult GlobalCut(const Graph& g, std::uint32_t k,
                          const std::vector<SideVertexHint>& hints,
                          const KvccOptions& options, KvccStats* stats,
                          GlobalCutScratch* scratch = nullptr,
                          exec::TaskScheduler* scheduler = nullptr,
                          const CancelToken* cancel = nullptr);

namespace detail {

/// True iff removing `cut` disconnects g (or empties it). Exposed for the
/// allocation-regression test of verify-cuts mode; uses the epoch-stamped
/// marks in `scratch`, so steady-state calls allocate nothing and touch
/// O(component reached) state, not O(n).
bool CutDisconnects(const Graph& g, const std::vector<VertexId>& cut,
                    GlobalCutScratch& scratch);

}  // namespace detail

}  // namespace kvcc

#endif  // KVCC_KVCC_GLOBAL_CUT_H_
