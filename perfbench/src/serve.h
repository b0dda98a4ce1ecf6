// The serving side of a workload: an in-process KvccdServer (4 engine
// workers) over loopback connections, a Zipf-popular pool of on-disk graphs
// under a cache budget smaller than the pool, and small edge batches on the
// server's dynamic graph. Traffic comes in segments the caller interleaves
// with other work: open-loop seeded Poisson schedules at one fixed rate, and
// closed-loop capacity segments with 4 clients. Every response is checked at
// the end against references built untimed.
#ifndef KVCC_PERFBENCH_SERVE_H_
#define KVCC_PERFBENCH_SERVE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common.h"

namespace perfbench {

class ServeWorkload {
 public:
  /// Generates the pool and the dynamic seed graph under `dir` and builds
  /// every reference (untimed).
  ServeWorkload(std::uint64_t seed, const std::string& dir);
  ~ServeWorkload();
  ServeWorkload(const ServeWorkload&) = delete;
  ServeWorkload& operator=(const ServeWorkload&) = delete;

  /// Starts a fresh server and seeds and compacts its dynamic graph;
  /// returns the seconds that took. The server is kept for the phases.
  double Setup(Tally& tally);

  /// One open-loop segment: a seeded schedule at `rate` requests/s for
  /// `warmup` + `seconds`. Requests due in the warm-up are sent and checked
  /// but left out of the latency metrics; the rest fall into `windows`
  /// equal latency windows. Segments accumulate. Traced, also replays the
  /// protocol parser and the graph loader on the requests sent and sets
  /// their metrics.
  void RunOpenLoop(double warmup, double seconds, int windows, double rate,
                   bool trace, Tally& tally, Metrics& metrics);

  /// One closed-loop capacity segment with 4 clients for `warmup` +
  /// `seconds`; completions are counted per quarter second after the
  /// warm-up. Segments accumulate.
  void RunClosedLoop(double warmup, double seconds);

  /// Checks every response recorded so far plus the final dynamic state
  /// against a cold rebuild.
  void Verify(Tally& tally);

  /// Reports the serving figures from the checked responses to stderr and,
  /// traced, as metrics: read and write p50 (lower quartile of the windows'
  /// p50s) and p99 (median of the windows' p99s), latency running from a
  /// request's due time to its last response line; capacity (upper
  /// quartile of the closed-loop windows); the server and generator spans.
  void Report(bool trace, Metrics& metrics) const;

  /// Replays the open-loop request sequence serially on two fresh servers
  /// and sets the cache / admission / incremental counters from the first;
  /// returns how many counters differed between the two.
  std::uint64_t ReplayCounters(Tally& tally, Metrics& metrics);

  struct Impl;

 private:
  std::unique_ptr<Impl> impl_;
};

}  // namespace perfbench

#endif  // KVCC_PERFBENCH_SERVE_H_
