// KvccEngine: a batch of (graph, k) jobs on one shared scheduler must give
// every job a result byte-identical to a serial per-call EnumerateKVccs —
// for every worker count, submission order, and interleaving — because
// subproblem tasks are pure functions of their input and each job's merged
// output is canonically sorted.

#include "kvcc/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <ctime>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "gen/fixtures.h"
#include "gen/planted_vcc.h"
#include "graph/graph_builder.h"
#include "kvcc/hierarchy.h"
#include "kvcc/job_control.h"
#include "kvcc/kvcc_enum.h"
#include "kvcc/stream.h"
#include "support/brute_force.h"
#include "util/timer.h"

namespace kvcc {
namespace {

const std::vector<unsigned> kWorkerCounts = {1, 2, 8};

struct TestJob {
  Graph graph;
  std::uint32_t k = 0;
  KvccOptions options;
};

/// A mixed bag of jobs: different graphs, ks, and option presets, several
/// sharing a graph shape so concurrent jobs exercise overlapping scratch
/// reuse patterns.
std::vector<TestJob> MakeJobMix() {
  std::vector<TestJob> jobs;

  const Figure1Fixture fig1 = MakeFigure1Graph();
  jobs.push_back({fig1.graph, 4, KvccOptions::VcceStar()});
  jobs.push_back({fig1.graph, 3, KvccOptions::VcceN()});

  PlantedVccConfig config;
  config.num_blocks = 5;
  config.block_size_min = 16;
  config.block_size_max = 24;
  config.connectivity = 7;
  config.overlap = 2;
  config.bridge_edges = 1;
  config.seed = 41;
  jobs.push_back({GeneratePlantedVcc(config).graph, 7,
                  KvccOptions::VcceStar()});
  config.seed = 42;
  config.ring = true;
  jobs.push_back({GeneratePlantedVcc(config).graph, 7,
                  KvccOptions::VcceG()});

  jobs.push_back({TwoCliquesSharing(6, 2), 4, KvccOptions::Vcce()});
  jobs.push_back({PetersenGraph(), 3, KvccOptions::VcceStar()});
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    jobs.push_back({kvcc::testing::RandomConnectedGraph(14, 30, seed), 3,
                    KvccOptions::VcceStar()});
  }
  return jobs;
}

std::vector<KvccResult> SerialReference(const std::vector<TestJob>& jobs) {
  std::vector<KvccResult> reference;
  reference.reserve(jobs.size());
  for (const TestJob& job : jobs) {
    KvccOptions options = job.options;
    options.num_threads = 1;
    reference.push_back(EnumerateKVccs(job.graph, job.k, options));
  }
  return reference;
}

void ExpectSameStats(const KvccStats& a, const KvccStats& b,
                     const std::string& context) {
  EXPECT_EQ(a.kvccs_found, b.kvccs_found) << context;
  EXPECT_EQ(a.global_cut_calls, b.global_cut_calls) << context;
  EXPECT_EQ(a.overlap_partitions, b.overlap_partitions) << context;
  EXPECT_EQ(a.loc_cut_flow_calls, b.loc_cut_flow_calls) << context;
  EXPECT_EQ(a.Phase1Total(), b.Phase1Total()) << context;
  EXPECT_EQ(a.phase2_pairs_tested, b.phase2_pairs_tested) << context;
  EXPECT_EQ(a.certificate_cut_fallbacks, b.certificate_cut_fallbacks)
      << context;
}

TEST(KvccEngineTest, BatchMatchesSerialPerCallForEveryWorkerCount) {
  const std::vector<TestJob> jobs = MakeJobMix();
  const std::vector<KvccResult> reference = SerialReference(jobs);

  for (unsigned workers : kWorkerCounts) {
    KvccEngine engine(workers);
    std::vector<KvccEngine::JobId> ids;
    for (const TestJob& job : jobs) {
      ids.push_back(engine.Submit(job.graph, job.k, job.options));
    }
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const KvccResult result = engine.Wait(ids[i]);
      const std::string context =
          "workers=" + std::to_string(workers) + " job=" + std::to_string(i);
      EXPECT_EQ(result.components, reference[i].components) << context;
      ExpectSameStats(result.stats, reference[i].stats, context);
    }
  }
}

TEST(KvccEngineTest, SubmissionOrderDoesNotChangePerJobResults) {
  const std::vector<TestJob> jobs = MakeJobMix();
  const std::vector<KvccResult> reference = SerialReference(jobs);

  // Three submission orders: forward, reverse, interleaved from the middle.
  std::vector<std::vector<std::size_t>> orders;
  std::vector<std::size_t> forward(jobs.size());
  std::iota(forward.begin(), forward.end(), 0);
  orders.push_back(forward);
  std::vector<std::size_t> reverse = forward;
  std::reverse(reverse.begin(), reverse.end());
  orders.push_back(reverse);
  std::vector<std::size_t> mixed;
  for (std::size_t lo = 0, hi = jobs.size(); lo < hi;) {
    mixed.push_back(lo++);
    if (lo < hi) mixed.push_back(--hi);
  }
  orders.push_back(mixed);

  for (unsigned workers : kWorkerCounts) {
    for (std::size_t o = 0; o < orders.size(); ++o) {
      KvccEngine engine(workers);
      std::vector<KvccEngine::JobId> ids(jobs.size());
      for (std::size_t j : orders[o]) {
        ids[j] = engine.Submit(jobs[j].graph, jobs[j].k, jobs[j].options);
      }
      // Also wait out of submission order.
      for (std::size_t i = jobs.size(); i-- > 0;) {
        const KvccResult result = engine.Wait(ids[i]);
        EXPECT_EQ(result.components, reference[i].components)
            << "workers=" << workers << " order=" << o << " job=" << i;
      }
    }
  }
}

TEST(KvccEngineTest, RunBatchReturnsResultsInSpecOrder) {
  const std::vector<TestJob> jobs = MakeJobMix();
  const std::vector<KvccResult> reference = SerialReference(jobs);
  std::vector<EngineJobSpec> specs;
  for (const TestJob& job : jobs) {
    specs.push_back({&job.graph, job.k, job.options});
  }
  KvccEngine engine(4);
  const std::vector<KvccResult> results = engine.RunBatch(specs);
  ASSERT_EQ(results.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(results[i].components, reference[i].components) << "job=" << i;
  }
}

TEST(KvccEngineTest, WarmScratchGivesIdenticalResultsAcrossRepeats) {
  // The steady-state path (worker scratch already grown) must produce the
  // same bytes as the cold first run.
  const Figure1Fixture fig1 = MakeFigure1Graph();
  KvccEngine engine(2);
  const KvccResult first = engine.Wait(engine.Submit(fig1.graph, 4));
  EXPECT_EQ(first.components, fig1.expected_vccs);
  for (int repeat = 0; repeat < 5; ++repeat) {
    const KvccResult warm = engine.Wait(engine.Submit(fig1.graph, 4));
    EXPECT_EQ(warm.components, first.components) << "repeat=" << repeat;
    ExpectSameStats(warm.stats, first.stats,
                    "repeat=" + std::to_string(repeat));
  }
}

TEST(KvccEngineTest, MixedSizeJobsInterleaveWithoutCrosstalk) {
  // Jobs of very different sizes in flight at once: scratch rebinding from
  // a large subgraph down to a tiny one (and back) must not leak state
  // between jobs. Runs several rounds on one engine to hit warm buffers.
  PlantedVccConfig big;
  big.num_blocks = 7;
  big.block_size_min = 20;
  big.block_size_max = 32;
  big.connectivity = 9;
  big.overlap = 2;
  big.bridge_edges = 2;
  big.seed = 7;
  const PlantedVccGraph planted = GeneratePlantedVcc(big);
  const Graph small = TwoCliquesSharing(5, 1);

  KvccOptions serial;
  serial.num_threads = 1;
  const KvccResult big_ref =
      EnumerateKVccs(planted.graph, planted.max_connected_k, serial);
  const KvccResult small_ref = EnumerateKVccs(small, 3, serial);

  KvccEngine engine(4);
  for (int round = 0; round < 3; ++round) {
    const KvccEngine::JobId big_id =
        engine.Submit(planted.graph, planted.max_connected_k);
    const KvccEngine::JobId small_id = engine.Submit(small, 3);
    const KvccEngine::JobId big_id2 =
        engine.Submit(planted.graph, planted.max_connected_k);
    EXPECT_EQ(engine.Wait(small_id).components, small_ref.components);
    EXPECT_EQ(engine.Wait(big_id).components, big_ref.components);
    EXPECT_EQ(engine.Wait(big_id2).components, big_ref.components);
  }
}

TEST(KvccEngineTest, SubmitRejectsKZero) {
  const Graph g = CompleteGraph(4);
  KvccEngine engine(1);
  EXPECT_THROW(engine.Submit(g, 0), std::invalid_argument);
}

TEST(KvccEngineTest, WaitRejectsUnknownJobId) {
  KvccEngine engine(1);
  EXPECT_THROW(engine.Wait(123), std::out_of_range);
}

TEST(KvccEngineTest, WaitConsumesTheTicket) {
  // Wait reclaims the job's bookkeeping (a long-lived engine must not
  // accumulate state per served job), so a second Wait on the same id
  // throws instead of returning stale data.
  const Figure1Fixture fig1 = MakeFigure1Graph();
  KvccEngine engine(2);
  const KvccEngine::JobId id = engine.Submit(fig1.graph, 4);
  EXPECT_EQ(engine.Wait(id).components, fig1.expected_vccs);
  EXPECT_THROW(engine.Wait(id), std::out_of_range);
}

TEST(KvccEngineTest, DestructorDrainsUnwaitedJobs) {
  // Submitting without waiting must not hang or crash the destructor.
  const Figure1Fixture fig1 = MakeFigure1Graph();
  KvccEngine engine(2);
  for (int i = 0; i < 4; ++i) engine.Submit(fig1.graph, 4);
  // Engine goes out of scope with jobs potentially still running.
}

// ---------------------------------------------------------------------------
// Streaming delivery.
// ---------------------------------------------------------------------------

/// Accumulates every delivery for later inspection. Sink calls are
/// serialized by the engine and happen-before Wait() returns, so the
/// post-Wait reads below need no synchronization of their own.
class CollectingSink : public ComponentSink {
 public:
  void OnComponent(StreamedComponent component) override {
    components.push_back(std::move(component));
  }
  void OnComplete(const KvccStats& final_stats) override {
    stats = final_stats;
    complete = true;
  }
  void OnError(std::exception_ptr e) override { error = e; }

  std::vector<StreamedComponent> components;
  KvccStats stats;
  bool complete = false;
  std::exception_ptr error;
};

/// The streamed components' vertex lists, sorted canonically — the bytes
/// that must equal the buffered KvccResult::components.
std::vector<std::vector<VertexId>> SortedMultiset(
    const std::vector<StreamedComponent>& streamed) {
  std::vector<std::vector<VertexId>> multiset;
  multiset.reserve(streamed.size());
  for (const StreamedComponent& c : streamed) multiset.push_back(c.vertices);
  std::sort(multiset.begin(), multiset.end());
  return multiset;
}

TEST(KvccEngineStreamingTest, MultisetMatchesWaitForEveryWorkerCount) {
  const std::vector<TestJob> jobs = MakeJobMix();
  const std::vector<KvccResult> reference = SerialReference(jobs);

  for (unsigned workers : kWorkerCounts) {
    KvccEngine engine(workers);
    std::vector<std::shared_ptr<CollectingSink>> sinks;
    std::vector<KvccEngine::JobId> ids;
    for (const TestJob& job : jobs) {
      sinks.push_back(std::make_shared<CollectingSink>());
      ids.push_back(
          engine.SubmitStreaming(job.graph, job.k, sinks.back(), job.options));
    }
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const KvccResult waited = engine.Wait(ids[i]);
      const std::string context =
          "workers=" + std::to_string(workers) + " job=" + std::to_string(i);
      // Components were streamed, not buffered; stats still flow through
      // Wait and through OnComplete identically.
      EXPECT_TRUE(waited.components.empty()) << context;
      EXPECT_TRUE(sinks[i]->complete) << context;
      ExpectSameStats(waited.stats, reference[i].stats, context);
      ExpectSameStats(sinks[i]->stats, reference[i].stats, context);
      EXPECT_EQ(SortedMultiset(sinks[i]->components),
                reference[i].components)
          << context;
      // Sequence numbers are a gap-free per-job 0..n-1 in delivery order.
      for (std::size_t s = 0; s < sinks[i]->components.size(); ++s) {
        EXPECT_EQ(sinks[i]->components[s].sequence, s) << context;
      }
    }
  }
}

TEST(KvccEngineStreamingTest, StableOrderReproducesSerialEmissionOrder) {
  // The serial streaming path *defines* the serial emission order; with
  // stable_order every worker count must reproduce it exactly — order,
  // bytes, and sequence numbers — via the reorder buffer.
  std::vector<TestJob> jobs = MakeJobMix();
  for (const TestJob& job : jobs) {
    CollectingSink serial;
    KvccOptions serial_options = job.options;
    serial_options.num_threads = 1;
    EnumerateKVccsStreaming(job.graph, job.k, serial, serial_options);
    ASSERT_TRUE(serial.complete);

    for (unsigned workers : kWorkerCounts) {
      KvccEngine engine(workers);
      auto sink = std::make_shared<CollectingSink>();
      KvccOptions options = job.options;
      options.stable_order = true;
      const KvccResult waited =
          engine.Wait(engine.SubmitStreaming(job.graph, job.k, sink, options));
      const std::string context = "workers=" + std::to_string(workers);
      ASSERT_EQ(sink->components.size(), serial.components.size()) << context;
      for (std::size_t s = 0; s < sink->components.size(); ++s) {
        EXPECT_EQ(sink->components[s].sequence, serial.components[s].sequence)
            << context << " position=" << s;
        EXPECT_EQ(sink->components[s].vertices, serial.components[s].vertices)
            << context << " position=" << s;
      }
      ExpectSameStats(waited.stats, serial.stats, context);
    }
  }
}

TEST(KvccEngineStreamingTest, ResultStreamDeliversEverythingThenStats) {
  const Figure1Fixture fig1 = MakeFigure1Graph();
  const KvccResult reference = EnumerateKVccs(fig1.graph, 4);

  KvccEngine engine(2);
  ResultStream stream = engine.SubmitStream(fig1.graph, 4);
  std::vector<StreamedComponent> streamed;
  while (std::optional<StreamedComponent> c = stream.Next()) {
    streamed.push_back(std::move(*c));
  }
  EXPECT_EQ(SortedMultiset(streamed), reference.components);
  ExpectSameStats(stream.Stats(), reference.stats, "pull stream");
  // Exhausted stream keeps reporting end-of-stream.
  EXPECT_FALSE(stream.Next().has_value());
}

TEST(KvccEngineStreamingTest, ResultStreamStatsBeforeCompletionThrows) {
  // Deterministic incompleteness: a 1-worker engine whose only worker is
  // parked inside a gating sink call, so the stream job submitted behind
  // it provably cannot have completed when Stats() is queried.
  class GateSink : public ComponentSink {
   public:
    void OnComponent(StreamedComponent) override {
      std::unique_lock<std::mutex> lock(mutex_);
      reached_ = true;
      cv_.notify_all();
      cv_.wait(lock, [&] { return released_; });
    }
    void OnComplete(const KvccStats&) override {}
    void WaitUntilBlocking() {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [&] { return reached_; });
    }
    void Release() {
      std::lock_guard<std::mutex> lock(mutex_);
      released_ = true;
      cv_.notify_all();
    }

   private:
    std::mutex mutex_;
    std::condition_variable cv_;
    bool reached_ = false;
    bool released_ = false;
  };

  const Figure1Fixture fig1 = MakeFigure1Graph();
  KvccEngine engine(1);
  auto gate = std::make_shared<GateSink>();
  const KvccEngine::JobId gated_id =
      engine.SubmitStreaming(fig1.graph, 4, gate);
  gate->WaitUntilBlocking();

  ResultStream stream = engine.SubmitStream(fig1.graph, 4);
  EXPECT_THROW(stream.Stats(), std::logic_error);

  gate->Release();
  engine.Wait(gated_id);
  while (stream.Next().has_value()) {
  }
  EXPECT_NO_THROW(stream.Stats());
}

TEST(KvccEngineStreamingTest, SinkThrowPropagatesToWaitAndJobDrains) {
  class ThrowingSink : public ComponentSink {
   public:
    void OnComponent(StreamedComponent) override {
      throw std::runtime_error("sink rejected component");
    }
    void OnComplete(const KvccStats&) override { completed = true; }
    void OnError(std::exception_ptr e) override { error = e; }
    bool completed = false;
    std::exception_ptr error;
  };

  const Figure1Fixture fig1 = MakeFigure1Graph();
  for (unsigned workers : kWorkerCounts) {
    KvccEngine engine(workers);
    auto sink = std::make_shared<ThrowingSink>();
    const KvccEngine::JobId id = engine.SubmitStreaming(fig1.graph, 4, sink);
    EXPECT_THROW(engine.Wait(id), std::runtime_error)
        << "workers=" << workers;
    EXPECT_FALSE(sink->completed) << "workers=" << workers;
    EXPECT_TRUE(sink->error != nullptr) << "workers=" << workers;
    // A poisoned streaming job must not poison the engine.
    EXPECT_EQ(engine.Wait(engine.Submit(fig1.graph, 4)).components,
              fig1.expected_vccs)
        << "workers=" << workers;
  }
}

TEST(KvccEngineStreamingTest, SerialStreamingSinkThrowPropagatesImmediately) {
  class ThrowOnSecondSink : public ComponentSink {
   public:
    void OnComponent(StreamedComponent) override {
      if (++delivered == 2) throw std::runtime_error("stop after one");
    }
    void OnComplete(const KvccStats&) override { completed = true; }
    void OnError(std::exception_ptr e) override { error = e; }
    int delivered = 0;
    bool completed = false;
    std::exception_ptr error;
  };

  const Figure1Fixture fig1 = MakeFigure1Graph();
  ThrowOnSecondSink sink;
  KvccOptions serial;
  serial.num_threads = 1;
  EXPECT_THROW(EnumerateKVccsStreaming(fig1.graph, 4, sink, serial),
               std::runtime_error);
  EXPECT_EQ(sink.delivered, 2);
  EXPECT_FALSE(sink.completed);
  EXPECT_TRUE(sink.error != nullptr);
}

TEST(KvccEngineStreamingTest, SerialStreamingMatchesBufferedEnumeration) {
  const std::vector<TestJob> jobs = MakeJobMix();
  for (const TestJob& job : jobs) {
    KvccOptions serial = job.options;
    serial.num_threads = 1;
    CollectingSink sink;
    EnumerateKVccsStreaming(job.graph, job.k, sink, serial);
    ASSERT_TRUE(sink.complete);
    const KvccResult reference = EnumerateKVccs(job.graph, job.k, serial);
    EXPECT_EQ(SortedMultiset(sink.components), reference.components);
    ExpectSameStats(sink.stats, reference.stats, "serial streaming");
  }
}

// ---------------------------------------------------------------------------
// Job control: cooperative cancellation, bounded backpressure streams, and
// latency classes (docs/JOB_CONTROL.md).
// ---------------------------------------------------------------------------

/// A saturating multi-block workload: big enough that its recursion spans
/// many tasks and many components, so there is always work left to cancel.
PlantedVccGraph MakeCancellationWorkload(std::uint64_t seed = 23) {
  PlantedVccConfig config;
  config.num_blocks = 8;
  config.block_size_min = 22;
  config.block_size_max = 34;
  config.connectivity = 9;
  config.overlap = 2;
  config.bridge_edges = 1;
  config.seed = seed;
  return GeneratePlantedVcc(config);
}

/// A workload for the 1 ms deadline tests: a 48-block chain that takes
/// about 100 ms at one and at two threads (Release build, 4-core x86 VM),
/// so the deadline elapses long before the decomposition can. The
/// cancellation workload above finishes in about 1.5 ms, too close to the
/// deadline to lose the race every time.
PlantedVccGraph MakeDeadlineWorkload(std::uint64_t seed) {
  PlantedVccConfig config;
  config.num_blocks = 48;
  config.block_size_min = 60;
  config.block_size_max = 80;
  config.connectivity = 14;
  config.overlap = 2;
  config.bridge_edges = 1;
  config.seed = seed;
  return GeneratePlantedVcc(config);
}

/// Collects like CollectingSink but parks the delivering worker inside the
/// first OnComponent call until released — a deterministic window in which
/// the job is provably mid-flight.
class GatedCollectingSink : public ComponentSink {
 public:
  void OnComponent(StreamedComponent component) override {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      components.push_back(std::move(component));
      if (components.size() == 1) {
        reached_ = true;
        cv_.notify_all();
        cv_.wait(lock, [&] { return released_; });
      }
    }
  }
  void OnComplete(const KvccStats& final_stats) override {
    stats = final_stats;
    complete = true;
  }
  void OnError(std::exception_ptr e) override { error = e; }

  void WaitUntilBlocking() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return reached_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mutex_);
    released_ = true;
    cv_.notify_all();
  }

  std::vector<StreamedComponent> components;
  KvccStats stats;
  bool complete = false;
  std::exception_ptr error;

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool reached_ = false;
  bool released_ = false;
};

TEST(KvccEngineJobControlTest, CancelReportsJobCancelledWithPartialStats) {
  // Deterministic mid-flight cancel: the only worker is parked inside the
  // gated sink when Cancel fires, so the remaining recursion provably
  // exists and must be short-circuited, not drained.
  const PlantedVccGraph planted = MakeCancellationWorkload();
  const KvccResult reference = EnumerateKVccs(planted.graph, 9);
  ASSERT_GT(reference.components.size(), 1u);

  KvccEngine engine(1);
  auto sink = std::make_shared<GatedCollectingSink>();
  const KvccEngine::JobId id =
      engine.SubmitStreaming(planted.graph, 9, sink);
  sink->WaitUntilBlocking();
  EXPECT_TRUE(engine.Cancel(id));
  sink->Release();

  try {
    engine.Wait(id);
    FAIL() << "Wait on a cancelled job must throw JobCancelled";
  } catch (const JobCancelled& cancelled) {
    const KvccStats& partial = cancelled.partial_stats();
    // Work that ran is reported; work that did not run is not.
    EXPECT_GE(partial.kvccs_found, 1u);
    EXPECT_LT(partial.kcore_rounds, reference.stats.kcore_rounds);
    // Something was actually short-circuited, at a task or cut boundary.
    EXPECT_GT(partial.tasks_cancelled + partial.cuts_cancelled, 0u);
  }
  // OnError received the same distinct outcome; OnComplete never fired.
  EXPECT_FALSE(sink->complete);
  ASSERT_TRUE(sink->error != nullptr);
  EXPECT_THROW(std::rethrow_exception(sink->error), JobCancelled);
  // Components delivered before the cancel stay delivered.
  EXPECT_GE(sink->components.size(), 1u);

  // A cancelled job must not poison the engine.
  EXPECT_EQ(engine.Wait(engine.Submit(planted.graph, 9)).components,
            reference.components);
}

TEST(KvccEngineJobControlTest, CancelUnsticksABlockedWait) {
  // The watchdog pattern: thread A blocks in Wait(id), thread B calls
  // Cancel(id) to unstick it. The ticket stays reachable until that Wait
  // *returns*, so the Cancel lands and the waiter comes back with
  // JobCancelled instead of sleeping out the whole job.
  const PlantedVccGraph planted = MakeCancellationWorkload(59);
  KvccEngine engine(1);
  auto sink = std::make_shared<GatedCollectingSink>();
  const KvccEngine::JobId id =
      engine.SubmitStreaming(planted.graph, 9, sink);
  sink->WaitUntilBlocking();  // Job provably mid-flight.

  std::exception_ptr wait_error;
  std::thread waiter([&] {
    try {
      engine.Wait(id);
    } catch (...) {
      wait_error = std::current_exception();
    }
  });
  // Let the waiter claim the ticket and block (correctness does not
  // depend on winning this race — the entry is reachable either way).
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_TRUE(engine.Cancel(id));
  sink->Release();
  waiter.join();
  ASSERT_TRUE(wait_error != nullptr);
  EXPECT_THROW(std::rethrow_exception(wait_error), JobCancelled);
  // The returned Wait consumed the ticket.
  EXPECT_FALSE(engine.Cancel(id));
}

TEST(KvccEngineJobControlTest, CancelUnknownOrConsumedTicketReturnsFalse) {
  const Figure1Fixture fig1 = MakeFigure1Graph();
  KvccEngine engine(1);
  EXPECT_FALSE(engine.Cancel(321));
  const KvccEngine::JobId id = engine.Submit(fig1.graph, 4);
  EXPECT_EQ(engine.Wait(id).components, fig1.expected_vccs);
  EXPECT_FALSE(engine.Cancel(id));  // Ticket consumed by Wait.
}

TEST(KvccEngineJobControlTest, DeadlineCancelsEngineJob) {
  const PlantedVccGraph planted = MakeDeadlineWorkload(29);
  KvccEngine engine(2);
  KvccOptions options;
  options.deadline_ms = 1;  // Elapses long before the decomposition can.
  const KvccEngine::JobId id = engine.Submit(planted.graph, 9, options);
  EXPECT_THROW(engine.Wait(id), JobCancelled);

  // A generous deadline changes nothing.
  KvccOptions relaxed;
  relaxed.deadline_ms = 5 * 60 * 1000;
  const KvccResult full =
      engine.Wait(engine.Submit(planted.graph, 9, relaxed));
  EXPECT_EQ(full.components, EnumerateKVccs(planted.graph, 9).components);
}

TEST(KvccEngineJobControlTest, DeadlineCancelsSerialEnumeration) {
  const PlantedVccGraph planted = MakeDeadlineWorkload(31);
  KvccOptions options;
  options.num_threads = 1;
  options.deadline_ms = 1;
  try {
    EnumerateKVccs(planted.graph, 9, options);
    FAIL() << "serial run must observe the elapsed deadline";
  } catch (const JobCancelled& cancelled) {
    EXPECT_GT(cancelled.partial_stats().tasks_cancelled +
                  cancelled.partial_stats().cuts_cancelled,
              0u);
  }

  // Serial streaming: OnError gets the JobCancelled, OnComplete never
  // fires, and the call rethrows it.
  CollectingSink sink;
  EXPECT_THROW(EnumerateKVccsStreaming(planted.graph, 9, sink, options),
               JobCancelled);
  EXPECT_FALSE(sink.complete);
  ASSERT_TRUE(sink.error != nullptr);
  EXPECT_THROW(std::rethrow_exception(sink.error), JobCancelled);
}

/// CPU time consumed by every thread of this process so far, in ms. Time
/// a thread spends descheduled does not count, so differences measure
/// work done rather than wall-clock.
double ProcessCpuMillis() {
  return 1e3 * static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
}

TEST(KvccEngineJobControlTest, AbandonedStreamReclaimsWorkersPromptly) {
  // Abandoning a ResultStream fires the job's cancel token, so the
  // workers return at the next task / probe boundary instead of draining
  // the recursion. The job is parked before the abandon: a one-worker
  // engine with a one-component channel blocks its only worker on the
  // second delivery. The two K10s (quick 9-VCCs) fill those deliveries,
  // so the whole planted chain is still outstanding. The verdict is on
  // work done — process CPU time, which scheduler noise does not inflate
  // — rather than on two short wall-clock runs.
  const PlantedVccGraph chain = MakeCancellationWorkload(37);
  GraphBuilder builder;
  for (const auto& [u, v] : chain.graph.Edges()) builder.AddEdge(u, v);
  const VertexId base = chain.graph.NumVertices();
  for (VertexId clique = 0; clique < 2; ++clique) {
    for (VertexId i = 0; i < 10; ++i) {
      for (VertexId j = i + 1; j < 10; ++j) {
        builder.AddEdge(base + 10 * clique + i, base + 10 * clique + j);
      }
    }
  }
  const Graph g = builder.Build();

  double full_cpu_ms = ProcessCpuMillis();
  {
    KvccEngine engine(1);
    ResultStream stream = engine.SubmitStream(g, 9);
    std::size_t count = 0;
    while (stream.Next().has_value()) ++count;
    ASSERT_EQ(count, chain.blocks.size() + 2);
  }
  full_cpu_ms = ProcessCpuMillis() - full_cpu_ms;

  double abandoned_cpu_ms = 0;
  {
    KvccEngine engine(1);
    KvccOptions options;
    options.stream_buffer_limit = 1;
    std::optional<ResultStream> stream = engine.SubmitStream(g, 9, options);
    // The live counter turns nonzero once the worker is parked.
    while (stream->BackpressureBlocks() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    abandoned_cpu_ms = ProcessCpuMillis();
    stream.reset();  // Abandon: fires the job's cancel token, then joins.
  }  // The engine destructor joins the (now idle) worker.
  abandoned_cpu_ms = ProcessCpuMillis() - abandoned_cpu_ms;
  // Cancelled, the remaining work is one probe plus the drain of
  // short-circuited tasks (a few percent of the full run); drained, it is
  // nearly the whole chain (over 80% of the full run).
  EXPECT_LT(abandoned_cpu_ms, full_cpu_ms * 0.5)
      << "abandonment drained the recursion instead of cancelling it "
      << "(full run " << full_cpu_ms << " ms CPU)";
}

TEST(KvccEngineJobControlTest, BoundedStreamHoldsAtMostLimit) {
  const PlantedVccGraph planted = MakeCancellationWorkload(41);
  const KvccResult reference = EnumerateKVccs(planted.graph, 9);
  ASSERT_GT(reference.components.size(), 3u);
  constexpr std::uint32_t kLimit = 2;

  for (unsigned workers : kWorkerCounts) {
    for (const bool stable : {false, true}) {
      KvccEngine engine(workers);
      KvccOptions options;
      options.stream_buffer_limit = kLimit;
      options.stable_order = stable;
      ResultStream stream = engine.SubmitStream(planted.graph, 9, options);
      const std::string context = "workers=" + std::to_string(workers) +
                                  (stable ? " stable" : " immediate");

      // Let the producer run as far ahead as the bound allows: it must
      // fill the channel to the limit (the job has more components than
      // kLimit) and then block instead of overfilling. Synchronize on
      // the block actually happening via the live counter — the producer
      // is guaranteed to attempt the limit+1-th delivery eventually
      // (more components exist), and nothing is popped until it did, so
      // this poll terminates deterministically with no wall-clock guess.
      while (stream.BackpressureBlocks() == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      EXPECT_EQ(stream.BufferedComponents(), kLimit) << context;
      std::vector<std::vector<VertexId>> streamed;
      while (true) {
        EXPECT_LE(stream.BufferedComponents(), kLimit) << context;
        std::optional<StreamedComponent> c = stream.Next();
        if (!c.has_value()) break;
        streamed.push_back(std::move(c->vertices));
      }
      std::sort(streamed.begin(), streamed.end());
      EXPECT_EQ(streamed, reference.components) << context;
      const KvccStats& stats = stream.Stats();
      EXPECT_LE(stats.stream_peak_buffered, kLimit) << context;
      EXPECT_GT(stats.stream_backpressure_blocks, 0u) << context;
      ExpectSameStats(stats, reference.stats, context);
    }
  }
}

TEST(KvccEngineJobControlTest, DeadlineDuringBackpressureReportsCancelled) {
  // Cancellation observed while the producer is parked on a full bounded
  // channel must surface as JobCancelled through the stream — never as a
  // clean completion silently missing the undeliverable component. The
  // delivered prefix stays valid.
  const PlantedVccGraph planted = MakeCancellationWorkload(61);
  KvccEngine engine(2);
  KvccOptions options;
  options.stream_buffer_limit = 1;
  options.deadline_ms = 300;
  ResultStream stream = engine.SubmitStream(planted.graph, 9, options);
  // Hold off consuming until the producer has (almost certainly) filled
  // the channel and parked; if the deadline instead fires at an earlier
  // task/probe boundary, the outcome below is the same JobCancelled.
  Timer timer;
  while (stream.BackpressureBlocks() == 0 && timer.ElapsedSeconds() < 10) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  // Keep the channel full until the deadline has provably fired (plus
  // the producer's 10ms cancellation poll): the parked producer must
  // observe the cancel, not get rescued by an early drain.
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  std::size_t delivered = 0;
  try {
    while (stream.Next().has_value()) ++delivered;
    FAIL() << "bounded job outlived a 300ms deadline without reporting "
              "JobCancelled (delivered " << delivered << ")";
  } catch (const JobCancelled&) {
    // Expected: the prefix (possibly empty) was delivered, then the
    // cancelled outcome.
  }
  // The engine stays healthy for the next job.
  const Figure1Fixture fig1 = MakeFigure1Graph();
  EXPECT_EQ(engine.Wait(engine.Submit(fig1.graph, 4)).components,
            fig1.expected_vccs);
}

TEST(KvccEngineJobControlTest, AbandoningBlockedBoundedStreamUnblocks) {
  // A producer parked on a full bounded channel must wake and retire when
  // the consumer walks away — abandonment both drops the queue and
  // cancels the job, so the engine drains promptly.
  const PlantedVccGraph planted = MakeCancellationWorkload(43);
  KvccEngine engine(2);
  {
    KvccOptions options;
    options.stream_buffer_limit = 1;
    ResultStream stream = engine.SubmitStream(planted.graph, 9, options);
    while (stream.BufferedComponents() < 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    // Producer is now (or soon will be) blocked; abandon without draining.
  }
  // The engine stays healthy and the workers come back.
  const Figure1Fixture fig1 = MakeFigure1Graph();
  EXPECT_EQ(engine.Wait(engine.Submit(fig1.graph, 4)).components,
            fig1.expected_vccs);
}

/// Counts completed jobs. OnComplete runs on the worker that retires the
/// job's last task, so the count moves the moment the job's work ends,
/// whatever the test thread is doing.
class CompletionCounter : public ComponentSink {
 public:
  explicit CompletionCounter(std::atomic<std::size_t>& completed)
      : completed_(completed) {}
  void OnComponent(StreamedComponent) override {}
  void OnComplete(const KvccStats&) override { completed_.fetch_add(1); }

 private:
  std::atomic<std::size_t>& completed_;
};

/// Collects like CollectingSink and records, at its own completion, how
/// many jobs `counter` had seen complete.
class CompletionSnapshotSink : public CollectingSink {
 public:
  explicit CompletionSnapshotSink(const std::atomic<std::size_t>& counter)
      : counter_(counter) {}
  void OnComplete(const KvccStats& final_stats) override {
    completed_at_finish = counter_.load();
    CollectingSink::OnComplete(final_stats);
  }

  std::size_t completed_at_finish = 0;

 private:
  const std::atomic<std::size_t>& counter_;
};

TEST(KvccEngineTest, SmallJobCompletesWhileLargeJobInFlight) {
  // Fairness: root tasks seed round-robin across the worker deques
  // (SubmitShared), so a small latency-sensitive job never queues behind a
  // huge job's whole recursion subtree: it must complete while the big
  // one is still in flight. The big job (40 planted blocks, tens of
  // milliseconds on two workers) must outlast an OS preemption of the
  // worker that holds the small job; as in
  // InteractiveJobOvertakesSaturatingBulkBatch a run is judged only when
  // the big job was unfinished after the small Submit returned, and the
  // verdict is read at the small job's own completion.
  PlantedVccConfig big;
  big.num_blocks = 40;
  big.block_size_min = 26;
  big.block_size_max = 40;
  big.connectivity = 12;
  big.overlap = 2;
  big.bridge_edges = 2;
  big.seed = 5;
  const PlantedVccGraph planted = GeneratePlantedVcc(big);
  const Graph small = TwoCliquesSharing(5, 1);

  KvccOptions serial;
  serial.num_threads = 1;
  const KvccResult small_ref = EnumerateKVccs(small, 3, serial);

  constexpr int kAttempts = 5;
  int judged = 0;
  for (int attempt = 0; attempt < kAttempts && judged == 0; ++attempt) {
    KvccEngine engine(2);
    std::atomic<std::size_t> big_completed{0};
    const KvccEngine::JobId big_id = engine.SubmitStreaming(
        planted.graph, planted.max_connected_k,
        std::make_shared<CompletionCounter>(big_completed));
    const auto small_sink =
        std::make_shared<CompletionSnapshotSink>(big_completed);
    const KvccEngine::JobId small_id =
        engine.SubmitStreaming(small, 3, small_sink);
    const bool big_outstanding_at_submit = big_completed.load() == 0;
    engine.Wait(small_id);
    engine.Wait(big_id);
    EXPECT_EQ(SortedMultiset(small_sink->components), small_ref.components);
    if (!big_outstanding_at_submit) continue;  // inconclusive run
    ++judged;
    EXPECT_EQ(small_sink->completed_at_finish, 0u)
        << "small job waited for the large job's subtree";
  }
  if (judged == 0) {
    GTEST_SKIP() << "inconclusive: in all " << kAttempts
                 << " attempts the large job finished before the small "
                    "job was submitted";
  }
}

TEST(KvccEngineJobControlTest, InteractiveJobOvertakesSaturatingBulkBatch) {
  // Latency classes: with the pool saturated by bulk jobs, an interactive
  // job submitted *after* them must still complete while bulk work is in
  // flight, because every pop prefers the higher class (weighted).
  //
  // The bulk batch takes milliseconds, so a descheduled test thread can
  // submit the interactive job after all bulk work is done; such a run
  // says nothing about priorities. A run is judged only when some bulk
  // job was still unfinished after the interactive Submit returned (hence
  // at submission), and the verdict is read at the interactive job's own
  // completion, on the worker, not after the test thread wakes up.
  const Graph small = TwoCliquesSharing(5, 1);
  const KvccResult small_ref = EnumerateKVccs(small, 3);

  std::vector<PlantedVccGraph> bulk_graphs;
  for (std::uint64_t seed = 51; seed < 55; ++seed) {
    bulk_graphs.push_back(MakeCancellationWorkload(seed));
  }
  KvccOptions bulk;
  bulk.priority = JobPriority::kBulk;
  KvccOptions interactive;
  interactive.priority = JobPriority::kInteractive;

  constexpr int kAttempts = 5;
  int judged = 0;
  for (int attempt = 0; attempt < kAttempts && judged == 0; ++attempt) {
    KvccEngine engine(2);
    std::atomic<std::size_t> bulk_completed{0};
    std::vector<KvccEngine::JobId> bulk_ids;
    for (const PlantedVccGraph& g : bulk_graphs) {
      bulk_ids.push_back(engine.SubmitStreaming(
          g.graph, 9, std::make_shared<CompletionCounter>(bulk_completed),
          bulk));
    }
    const auto fast =
        std::make_shared<CompletionSnapshotSink>(bulk_completed);
    const KvccEngine::JobId fast_id =
        engine.SubmitStreaming(small, 3, fast, interactive);
    const bool bulk_outstanding_at_submit =
        bulk_completed.load() < bulk_ids.size();
    engine.Wait(fast_id);
    for (const KvccEngine::JobId id : bulk_ids) engine.Wait(id);
    EXPECT_EQ(SortedMultiset(fast->components), small_ref.components);
    if (!bulk_outstanding_at_submit) continue;  // inconclusive run
    ++judged;
    EXPECT_LT(fast->completed_at_finish, bulk_ids.size())
        << "interactive job waited out the whole bulk batch";
  }
  if (judged == 0) {
    GTEST_SKIP() << "inconclusive: in all " << kAttempts
                 << " attempts the bulk batch finished before the "
                    "interactive job was submitted";
  }

  // Priorities shape scheduling only: the bulk results are still
  // byte-identical to serial runs (checked via one representative).
  KvccEngine engine(2);
  const KvccResult bulk_ref = EnumerateKVccs(bulk_graphs[0].graph, 9);
  EXPECT_EQ(engine.Wait(engine.Submit(bulk_graphs[0].graph, 9, bulk))
                .components,
            bulk_ref.components);
}

TEST(KvccEngineStreamingTest, AbandoningStreamMidFlightLeavesEngineHealthy) {
  // Dropping a ResultStream while its job is still running must neither
  // block nor corrupt the engine: the job drains on the shared pool and
  // later jobs reuse the same per-worker scratch with identical results.
  PlantedVccConfig config;
  config.num_blocks = 6;
  config.block_size_min = 20;
  config.block_size_max = 30;
  config.connectivity = 8;
  config.overlap = 2;
  config.bridge_edges = 1;
  config.seed = 23;
  const PlantedVccGraph planted = GeneratePlantedVcc(config);
  const KvccResult reference = EnumerateKVccs(planted.graph, 8);

  KvccEngine engine(2);
  {
    ResultStream abandoned_immediately =
        engine.SubmitStream(planted.graph, 8);
  }
  {
    ResultStream abandoned_after_one = engine.SubmitStream(planted.graph, 8);
    abandoned_after_one.Next();
  }
  for (int round = 0; round < 2; ++round) {
    ResultStream stream = engine.SubmitStream(planted.graph, 8);
    std::vector<StreamedComponent> streamed;
    while (std::optional<StreamedComponent> c = stream.Next()) {
      streamed.push_back(std::move(*c));
    }
    EXPECT_EQ(SortedMultiset(streamed), reference.components)
        << "round=" << round;
  }
  EXPECT_EQ(engine.Wait(engine.Submit(planted.graph, 8)).components,
            reference.components);
}

}  // namespace
}  // namespace kvcc
