// Batch decomposition: file bytes -> ReadEdgeListFile -> VCCE* -> components
// checked against the workload's reference, at 4 engine threads and at 1;
// plus the traced serial re-walk of Algorithm 1 through the library's
// public entry points.
#ifndef KVCC_PERFBENCH_BATCH_H_
#define KVCC_PERFBENCH_BATCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "kvcc/engine.h"
#include "kvcc/stats.h"

namespace perfbench {

/// One graph file decomposed at each k of `ks` in a pass; each k reloads
/// the file, as a command-line user would.
struct BatchJob {
  WrittenGraph file;
  std::vector<std::uint32_t> ks;
  /// Reference per k: a digest of the component set in generator ids.
  std::map<std::uint32_t, std::uint64_t> digests;
};

/// Result of one pass over a job list.
struct PassResult {
  double seconds = 0.0;  // whole pass, bytes to checked components
  std::map<std::uint32_t, kvcc::KvccStats> stats;  // per k, summed
  std::vector<ComponentSet> outputs;  // per (job, k), generator ids
};

/// Runs every (job, k) once. `engine` non-null runs on it (its worker
/// count is the thread count); null runs the serial path. Every output is
/// checked against the job's digest and booked in `tally`.
PassResult RunPass(const std::vector<BatchJob>& jobs, kvcc::KvccEngine* engine,
                   Tally& tally);

/// Per-layer times and counts of the traced serial walk.
struct WalkTrace {
  double wall_s = 0.0;  // whole walk, including the standalone replays
  double load_s = 0.0;
  double prune_s = 0.0;
  double build_s = 0.0;
  double global_cut_s = 0.0;
  double partition_s = 0.0;
  double hints_s = 0.0;  // side-vertex verdict carry-over (Lemmas 15/16)
  double cert_replay_s = 0.0;
  double side_replay_s = 0.0;
  double bind_replay_s = 0.0;
  std::uint64_t prune_in_vertices = 0;
  std::uint64_t prune_removed = 0;
  std::uint64_t built_edges = 0;
  std::uint64_t pieces = 0;
  std::uint64_t cert_calls = 0;
  std::uint64_t chain_depth = 0;
  double critical_path_s = 0.0;
  double work_s = 0.0;  // summed item self times (the critical path's base)
  kvcc::KvccStats stats;               // booked by the walk's GlobalCut calls
  std::vector<ComponentSet> outputs;   // per (job, k), generator ids
};

WalkTrace TracedWalk(const std::vector<BatchJob>& jobs);

/// The two batch workloads' inputs, written under `dir`.
std::vector<BatchJob> PlantedChainJobs(std::uint64_t seed,
                                       const std::string& dir);
std::vector<BatchJob> SuiteSweepJobs(std::uint64_t seed, const std::string& dir,
                                     const std::string& digest_file);

/// Prints the suite-sweep reference digests (the contents of the digest
/// file) computed from the generator's own ids.
void PrintSuiteDigests();

}  // namespace perfbench

#endif  // KVCC_PERFBENCH_BATCH_H_
