// Shared helpers of the repository benchmark: clocks, sample statistics,
// the metric sheet printed as the run's last line, seeded input files, and
// the operation tally every workload reports.
#ifndef KVCC_PERFBENCH_COMMON_H_
#define KVCC_PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "kvcc/stats.h"

namespace perfbench {

using kvcc::Graph;
using kvcc::VertexId;
using Clock = std::chrono::steady_clock;
using ComponentSet = std::vector<std::vector<VertexId>>;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Median of `values` (mean of the middle pair for even counts); 0 if empty.
double Median(std::vector<double> values);

/// Nearest-rank percentile, p in [0, 100]; 0 if empty.
double Percentile(std::vector<double> values, double p);

/// What every workload reports besides its metrics: operations attempted,
/// operations whose output check failed, and named warnings (flags that do
/// not make an output wrong, e.g. a counter that did not repeat).
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void Check(bool ok, const std::string& what);
  void Warn(const std::string& what);
};

/// The metric sheet of one run, printed as the last stdout line.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    values_[name] = {value, unit};
  }
  double Get(const std::string& name) const {
    const auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second.first;
  }
  std::string ToJson(const Tally& tally) const;

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// A graph written to disk the way the program sees it: vertex ids
/// relabelled by a seeded permutation, edge lines shuffled, endpoints in
/// random order. `to_file[v]` is the id written for generator vertex v.
struct WrittenGraph {
  std::string path;
  std::vector<VertexId> to_file;
  std::vector<VertexId> from_file;  // inverse of to_file
  std::uint64_t edges = 0;
};
WrittenGraph WriteShuffledEdgeFile(const Graph& g, std::uint64_t seed,
                                   const std::string& path);

/// Components of a graph loaded from `file` (result ids are the loaded
/// graph's vertex ids) mapped back to generator ids and put in canonical
/// order: each component sorted, the list sorted.
ComponentSet ToGeneratorIds(const ComponentSet& components,
                            const Graph& loaded, const WrittenGraph& file);

/// 64-bit FNV-1a digest of a canonical component set.
std::uint64_t Digest(const ComponentSet& components);

/// Streaming FNV-1a over response lines (each line and a separator).
struct LineHash {
  std::uint64_t value = 1469598103934665603ULL;
  void Add(const std::string& line);
};

/// The count-type KvccStats fields, named, for determinism comparisons.
std::vector<std::pair<const char*, std::uint64_t>> CountFields(
    const kvcc::KvccStats& stats);

/// Names of the fields that differ between two stats (empty when equal).
/// `replay_identical_only` skips the fields documented to depend on the
/// thread count (wavefront waste and oracle work of speculative probes).
std::vector<std::string> DifferingCounts(const kvcc::KvccStats& a,
                                         const kvcc::KvccStats& b,
                                         bool replay_identical_only);

double PeakRssMb();

}  // namespace perfbench

#endif  // KVCC_PERFBENCH_COMMON_H_
