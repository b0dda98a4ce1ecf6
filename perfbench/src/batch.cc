#include "batch.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "gen/dataset_suite.h"
#include "gen/planted_vcc.h"
#include "graph/graph_io.h"
#include "graph/preprocess.h"
#include "kvcc/cut_oracle.h"
#include "kvcc/global_cut.h"
#include "kvcc/kvcc_enum.h"
#include "kvcc/side_vertex.h"
#include "kvcc/sparse_certificate.h"
#include "kvcc/validation.h"
#include "util/random.h"

namespace perfbench {

using namespace kvcc;

namespace {

constexpr const char* kSuiteDataset = "cit";
constexpr double kSuiteScale = 2.0;
const std::vector<std::uint32_t> kSuiteKs = {20, 30, 40};

}  // namespace

PassResult RunPass(const std::vector<BatchJob>& jobs, KvccEngine* engine,
                   Tally& tally) {
  KvccOptions options = KvccOptions::VcceStar();
  options.num_threads = engine != nullptr ? engine->num_workers() : 1;
  PassResult out;
  const Clock::time_point start = Clock::now();
  for (const BatchJob& job : jobs) {
    for (const std::uint32_t k : job.ks) {
      const Graph g = ReadEdgeListFile(job.file.path);
      KvccResult result = engine != nullptr
                              ? engine->Wait(engine->Submit(g, k, options))
                              : EnumerateKVccs(g, k, options);
      ComponentSet components =
          ToGeneratorIds(result.components, g, job.file);
      tally.Check(Digest(components) == job.digests.at(k),
                  job.file.path + " k=" + std::to_string(k) +
                      " components differ from the reference");
      out.stats[k].Add(result.stats);
      out.outputs.push_back(std::move(components));
    }
  }
  out.seconds = SecondsSince(start);
  return out;
}

namespace {

struct WalkItem {
  Graph graph;
  std::vector<SideVertexHint> hints;
  std::size_t parent = 0;  // record index of the spawning item
  bool has_parent = false;
};

struct ItemRecord {
  double self_s = 0.0;
  double path_s = 0.0;
  std::uint64_t depth = 0;
};

// Times `fn` and adds the elapsed seconds to every accumulator given.
template <typename Fn>
auto Timed(Fn&& fn, double& a, double& b) {
  const Clock::time_point start = Clock::now();
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    const double d = SecondsSince(start);
    a += d;
    b += d;
  } else {
    auto result = fn();
    const double d = SecondsSince(start);
    a += d;
    b += d;
    return result;
  }
}

// One serial pass of Algorithm 1 over `root` at k, mirroring the engine's
// recursion step (kvcc/enum_internal.h) with public entry points only.
ComponentSet WalkOne(Graph root, std::uint32_t k, WalkTrace& t) {
  const KvccOptions options = KvccOptions::VcceStar();
  FusedPruneScratch prune;
  GlobalCutScratch cut_scratch;
  SparseCertificate cert;
  CertificateScratch cert_scratch;
  SideVertexScratch side_scratch;
  std::unique_ptr<CutOracle> oracle = MakeCutOracle(options.cut_oracle);
  double unused = 0.0;

  ComponentSet found;
  std::vector<ItemRecord> records;
  std::vector<WalkItem> stack;
  stack.push_back(WalkItem{std::move(root), {}, 0, false});
  while (!stack.empty()) {
    WalkItem item = std::move(stack.back());
    stack.pop_back();
    const std::size_t self_index = records.size();
    records.push_back({});
    double self = 0.0;
    const Graph& cur = item.graph;
    const VertexId n = cur.NumVertices();

    Timed([&] { FusedPrune(cur, k, nullptr, exec::TaskPriority::kNormal,
                           prune); },
          t.prune_s, self);
    t.prune_in_vertices += n;
    t.prune_removed += n - prune.survivors.size();

    if (prune.survivors.size() > k) {
      const bool full_core = prune.survivors.size() == n;
      const bool have_hints = !item.hints.empty();
      std::vector<bool> peel_touched;
      Timed([&] {
        if (have_hints && !full_core) {
          const PeelMask mask = prune.kcore.Mask();
          std::vector<VertexId> removed;
          for (VertexId v = 0; v < n; ++v) {
            if (mask.Removed(v)) removed.push_back(v);
          }
          peel_touched = TwoHopBall(cur, removed);
        }
      }, t.hints_s, self);

      const std::uint32_t ncomp = prune.labeling.count;
      for (std::uint32_t c = 0; c < ncomp; ++c) {
        const std::vector<VertexId> comp(
            prune.comp_vertices.begin() +
                static_cast<std::ptrdiff_t>(prune.comp_offsets[c]),
            prune.comp_vertices.begin() +
                static_cast<std::ptrdiff_t>(prune.comp_offsets[c + 1]));
        if (comp.size() <= k) continue;
        std::vector<SideVertexHint> sub_hints;
        if (have_hints) {
          sub_hints.resize(comp.size());
          for (std::size_t i = 0; i < comp.size(); ++i) {
            SideVertexHint h = item.hints[comp[i]];
            if (h == SideVertexHint::kStrong && !peel_touched.empty() &&
                peel_touched[comp[i]]) {
              h = SideVertexHint::kRecheck;
            }
            sub_hints[i] = h;
          }
        }
        Graph owned;
        const Graph* sub = &cur;
        if (!(full_core && ncomp == 1)) {
          owned = Timed([&] { return MaterializeComponent(cur, comp); },
                        t.build_s, self);
          t.built_edges += owned.NumEdges();
          sub = &owned;
        }

        const GlobalCutResult result = Timed(
            [&] {
              return GlobalCut(*sub, k, sub_hints, options, &t.stats,
                               &cut_scratch);
            },
            t.global_cut_s, self);

        // Standalone replays of the GLOBAL-CUT sub-steps on the same input,
        // outside the span: their times split the span by layer.
        Timed([&] { BuildSparseCertificate(*sub, k, cert, cert_scratch); },
              t.cert_replay_s, unused);
        Timed([&] {
          ComputeStrongSideVerticesInto(*sub, k, sub_hints,
                                        options.side_vertex_degree_cap,
                                        side_scratch);
        }, t.side_replay_s, unused);
        Timed([&] { oracle->BindGraph(cert.certificate); }, t.bind_replay_s,
              unused);
        ++t.cert_calls;

        if (result.cut.empty()) {
          std::vector<VertexId> ids(sub->NumVertices());
          for (VertexId v = 0; v < sub->NumVertices(); ++v) {
            ids[v] = sub->LabelOf(v);
          }
          std::sort(ids.begin(), ids.end());
          found.push_back(std::move(ids));
          continue;
        }

        std::vector<PartitionPiece> pieces = Timed(
            [&] { return OverlapPartition(*sub, result.cut); },
            t.partition_s, self);
        t.pieces += pieces.size();
        Timed([&] {
          const std::vector<bool>& strong = cut_scratch.side.strong;
          std::vector<bool> in_cut(sub->NumVertices(), false);
          for (const VertexId s : result.cut) in_cut[s] = true;
          for (PartitionPiece& piece : pieces) {
            std::vector<SideVertexHint> child_hints;
            if (result.strong_side_valid) {
              child_hints.resize(piece.graph.NumVertices());
              for (VertexId i = 0; i < piece.graph.NumVertices(); ++i) {
                const VertexId v = piece.vertices[i];
                bool touches_cut = false;
                for (const VertexId w : sub->Neighbors(v)) {
                  if (in_cut[w]) {
                    touches_cut = true;
                    break;
                  }
                }
                child_hints[i] = !strong[v]   ? SideVertexHint::kNotStrong
                                 : touches_cut ? SideVertexHint::kRecheck
                                               : SideVertexHint::kStrong;
              }
            }
            stack.push_back(WalkItem{std::move(piece.graph),
                                     std::move(child_hints), self_index,
                                     true});
          }
        }, t.hints_s, self);
      }
    }

    ItemRecord& record = records[self_index];
    record.self_s = self;
    record.path_s = self;
    record.depth = 1;
    if (item.has_parent) {
      record.path_s += records[item.parent].path_s;
      record.depth += records[item.parent].depth;
    }
  }

  double critical = 0.0;
  for (const ItemRecord& record : records) {
    t.work_s += record.self_s;
    critical = std::max(critical, record.path_s);
    t.chain_depth = std::max(t.chain_depth, record.depth);
  }
  t.critical_path_s += critical;
  std::sort(found.begin(), found.end());
  return found;
}

}  // namespace

WalkTrace TracedWalk(const std::vector<BatchJob>& jobs) {
  WalkTrace t;
  const Clock::time_point start = Clock::now();
  for (const BatchJob& job : jobs) {
    for (const std::uint32_t k : job.ks) {
      const Clock::time_point load_start = Clock::now();
      Graph root = ReadEdgeListFile(job.file.path);
      t.load_s += SecondsSince(load_start);
      // Walk outputs are in file ids (the loaded graph's labels); map them
      // to generator ids like the untraced run's.
      ComponentSet found = WalkOne(std::move(root), k, t);
      for (std::vector<VertexId>& component : found) {
        for (VertexId& v : component) v = job.file.from_file[v];
        std::sort(component.begin(), component.end());
      }
      std::sort(found.begin(), found.end());
      t.outputs.push_back(std::move(found));
    }
  }
  t.wall_s = SecondsSince(start);
  return t;
}

std::vector<BatchJob> PlantedChainJobs(std::uint64_t seed,
                                       const std::string& dir) {
  // bench_scalability_threads' planted workload at scale 4: 48 blocks of
  // 160-256 vertices whose connectivities cycle 14/18/22/26, chained with
  // overlap 3 and 2 bridge edges. k = 14 lies in [min_separating_k,
  // max_connected_k], so the planted blocks are the exact answer.
  PlantedVccConfig config;
  config.num_blocks = 48;
  config.block_size_min = 160;
  config.block_size_max = 256;
  config.connectivities = {14, 18, 22, 26};
  config.overlap = 3;
  config.bridge_edges = 2;
  SplitMix64 mix(seed ^ 0x706c616e74656400ULL);
  config.seed = mix.Next();
  const PlantedVccGraph planted = GeneratePlantedVcc(config);
  const std::uint32_t k = 14;
  if (k < planted.min_separating_k || k > planted.max_connected_k) {
    throw std::logic_error("planted-chain: k outside the exact window");
  }
  // The id permutation sets the recursion's shape, and with it how much
  // of the run the 4 engine threads can share; a pass covers three
  // permutations so one unlucky shape does not set the run's time.
  constexpr int kPermutations = 3;
  std::vector<BatchJob> jobs;
  for (int i = 0; i < kPermutations; ++i) {
    BatchJob job;
    job.file = WriteShuffledEdgeFile(
        planted.graph, mix.Next(),
        dir + "/planted_chain_" + std::to_string(i) + ".txt");
    job.ks = {k};
    job.digests[k] = Digest(planted.blocks);
    jobs.push_back(std::move(job));
  }
  return jobs;
}

std::vector<BatchJob> SuiteSweepJobs(std::uint64_t seed, const std::string& dir,
                                     const std::string& digest_file) {
  std::ifstream in(digest_file);
  if (!in) throw std::runtime_error("cannot read " + digest_file);
  BatchJob job;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name;
    double scale = 0.0;
    std::uint32_t k = 0;
    std::string digest;
    fields >> name >> scale >> k >> digest;
    if (name == kSuiteDataset && scale == kSuiteScale) {
      job.digests[k] = std::stoull(digest, nullptr, 16);
    }
  }
  for (const std::uint32_t k : kSuiteKs) {
    if (job.digests.count(k) == 0) {
      throw std::runtime_error(digest_file + " has no digest for k=" +
                               std::to_string(k));
    }
  }
  const Graph g = GenerateDataset(kSuiteDataset, kSuiteScale);
  SplitMix64 mix(seed ^ 0x7375697465000000ULL);
  job.file = WriteShuffledEdgeFile(g, mix.Next(), dir + "/suite_cit.txt");
  job.ks = kSuiteKs;
  return {std::move(job)};
}

void PrintSuiteDigests() {
  const Graph g = GenerateDataset(kSuiteDataset, kSuiteScale);
  std::cout << "# dataset scale k fnv1a64(components in generator ids)\n";
  for (const std::uint32_t k : kSuiteKs) {
    const KvccResult result = EnumerateKVccs(g, k);
    ComponentSet components;
    for (const std::vector<VertexId>& component : result.components) {
      std::vector<VertexId> ids = g.LabelsOf(component);
      std::sort(ids.begin(), ids.end());
      components.push_back(std::move(ids));
    }
    std::sort(components.begin(), components.end());
    const ValidationReport report = ValidateKvccResult(g, k, result.components);
    if (!report.ok) {
      throw std::runtime_error("reference components failed validation at k=" +
                               std::to_string(k));
    }
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(Digest(components)));
    std::cout << kSuiteDataset << " " << kSuiteScale << " " << k << " " << hex
              << "\n";
  }
}

}  // namespace perfbench
