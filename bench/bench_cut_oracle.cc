// Per-oracle probe cost and end-to-end enumeration time for the pluggable
// CutOracle engines (Dinic baseline, NSY-style LocalVC local search, and
// the degree-routed Hybrid), two scenarios:
//
//   1. hub-heavy — a Barabasi-Albert preferential-attachment graph. The
//      degree distribution is heavy-tailed, so nearly every phase-1 probe
//      runs source -> low-degree vertex; a local search certifies
//      kappa >= k inside a poly(k) arc budget while the baseline rebuilds
//      BFS levels per phase. This is where the sublinear probe should pay;
//      since Dinic stops its BFS below the sink's level it does not.
//   2. planted — a shallow planted-VCC decomposition (real cuts found and
//      committed), exercising the exhaustive side of the local search and
//      its Dinic fallback.
//
// Every oracle must enumerate byte-identical components (the engines are
// exact); the binary hard-fails on any divergence. Each engine's work is
// reported both as wall-clock and as KvccStats::probe_edges_touched (the
// residual slots its probes inspected).
//
// Flags:
//   --scale=<double>   workload size multiplier (default 1.0)
//   --quick            shrink the workload for smoke runs
//   --json=<path>      append a machine-readable perf snapshot to <path>
//   --build-type=<s>   stamp the snapshot with the CMake build type
//   --commit=<s>       stamp the snapshot with the git commit

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "gen/barabasi_albert.h"
#include "gen/harary.h"
#include "gen/planted_vcc.h"
#include "graph/graph_builder.h"
#include "kvcc/kvcc_enum.h"
#include "kvcc/options.h"
#include "util/timer.h"

namespace {

using namespace kvcc;
using namespace kvcc::bench;

struct OracleBenchArgs {
  double scale = 1.0;
  bool quick = false;
  std::string json_path;
  std::string build_type = "unknown";
  std::string commit = "unknown";
};

OracleBenchArgs ParseOracleBenchArgs(int argc, char** argv) {
  OracleBenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--scale=", 0) == 0) {
      args.scale = std::atof(arg.substr(8).c_str());
    } else if (arg.rfind("--json=", 0) == 0) {
      args.json_path = arg.substr(7);
    } else if (arg.rfind("--build-type=", 0) == 0) {
      args.build_type = arg.substr(13);
    } else if (arg.rfind("--commit=", 0) == 0) {
      args.commit = arg.substr(9);
    } else if (arg == "--quick") {
      args.quick = true;
    } else {
      std::cerr << "unknown flag: " << arg << "\n"
                << "usage: bench_cut_oracle [--scale=S] [--quick]"
                   " [--json=path] [--build-type=s] [--commit=s]\n";
      std::exit(2);
    }
  }
  return args;
}

/// Hub-heavy but k-connected: a Harary H_{k,n} backbone (exactly
/// k-connected) overlaid with preferential-attachment shortcut edges whose
/// heavy-tailed degrees create hubs. No cut exists, so phase 1 has to
/// certify local connectivity vertex by vertex — the probe-dominated
/// regime the sublinear local search targets. A plain BA graph would not
/// do: its abundant small cuts end each GLOBAL-CUT after a handful of
/// probes, leaving nothing to measure.
Graph HubHeavyConnected(VertexId n, std::uint32_t k, std::uint64_t seed) {
  const Graph backbone = HararyGraph(k, n);
  const Graph overlay = BarabasiAlbert(n, 3, seed);
  GraphBuilder builder(n);
  for (VertexId v = 0; v < n; ++v) {
    for (VertexId w : backbone.Neighbors(v)) {
      if (v < w) builder.AddEdge(v, w);
    }
    for (VertexId w : overlay.Neighbors(v)) {
      if (v < w) builder.AddEdge(v, w);
    }
  }
  return builder.Build();
}

/// One serial enumeration per oracle kind; returns false if any oracle's
/// components diverge from the Dinic reference. Appends one JSON result
/// object per oracle to `json_out`.
bool RunScenario(const std::string& name, const Graph& g, std::uint32_t k,
                 std::ostream& json_out) {
  std::cout << "\n" << name << ": |V|=" << g.NumVertices()
            << " |E|=" << g.NumEdges() << " k=" << k << "\n\n";
  const std::vector<int> widths = {8, 10, 10, 16, 12, 10, 8};
  PrintRow({"oracle", "time", "speedup", "edges_touched", "localvc",
            "fallback", "match"},
           widths);

  std::vector<std::vector<VertexId>> reference;
  double reference_seconds = 0.0;
  std::uint64_t reference_edges = 0;
  bool all_match = true;
  bool first = true;
  for (CutOracleKind kind : {CutOracleKind::kDinic, CutOracleKind::kLocalVC,
                             CutOracleKind::kHybrid}) {
    KvccOptions options = KvccOptions::VcceStar();
    options.cut_oracle = kind;
    options.num_threads = 1;
    Timer timer;
    const KvccResult result = EnumerateKVccs(g, k, options);
    const double seconds = timer.ElapsedSeconds();

    bool match = true;
    if (kind == CutOracleKind::kDinic) {
      reference = result.components;
      reference_seconds = seconds;
      reference_edges = result.stats.probe_edges_touched;
    } else {
      match = result.components == reference;
    }
    all_match = all_match && match;

    PrintRow({CutOracleKindName(kind), FormatSeconds(seconds),
              FormatDouble(reference_seconds / seconds, 2) + "x",
              std::to_string(result.stats.probe_edges_touched),
              std::to_string(result.stats.probes_localvc),
              std::to_string(result.stats.probes_localvc_fallback),
              match ? "yes" : "NO"},
             widths);

    if (!first) json_out << ", ";
    first = false;
    json_out << "{\"oracle\": \"" << CutOracleKindName(kind)
             << "\", \"seconds\": " << seconds
             << ", \"speedup_vs_dinic\": "
             << (seconds > 0 ? reference_seconds / seconds : 0.0)
             << ", \"probe_edges_touched\": "
             << result.stats.probe_edges_touched
             << ", \"edges_touched_ratio_vs_dinic\": "
             << (reference_edges > 0
                     ? static_cast<double>(result.stats.probe_edges_touched) /
                           static_cast<double>(reference_edges)
                     : 0.0)
             << ", \"probes_localvc\": " << result.stats.probes_localvc
             << ", \"probes_localvc_fallback\": "
             << result.stats.probes_localvc_fallback
             << ", \"flow_calls\": " << result.stats.loc_cut_flow_calls
             << ", \"kvccs\": " << result.components.size()
             << ", \"identical_output\": " << (match ? "true" : "false")
             << "}";
  }
  return all_match;
}

}  // namespace

int main(int argc, char** argv) {
  const OracleBenchArgs args = ParseOracleBenchArgs(argc, argv);
  const double s = args.quick ? args.scale * 0.25 : args.scale;

  PrintBanner("CutOracle engines",
              "sublinear LocalVC probes vs the Dinic baseline (serial)");

  // Hub-heavy scenario: k-connected circulant backbone + preferential-
  // attachment hubs, enumerated at exactly k.
  const std::uint32_t hub_k = 8;
  const VertexId hub_n =
      std::max<VertexId>(400, static_cast<VertexId>(2000 * s));
  const Graph hub = HubHeavyConnected(hub_n, hub_k, 42);

  // Planted scenario: blocks of modest connectivity, enumerated at a k
  // that separates them — the recursion finds and commits real cuts.
  PlantedVccConfig config;
  config.num_blocks = std::max(4, static_cast<int>(8 * s));
  config.block_size_min = std::max<VertexId>(24,
                                             static_cast<VertexId>(40 * s));
  config.block_size_max = std::max<VertexId>(32,
                                             static_cast<VertexId>(60 * s));
  config.connectivities = {10, 12, 14};
  config.overlap = 3;
  config.bridge_edges = 1;
  config.seed = 7;
  const PlantedVccGraph planted = GeneratePlantedVcc(config);
  const std::uint32_t planted_k = 10;

  std::ostringstream hub_json, planted_json;
  const std::string stamp = "\"build_type\": \"" + args.build_type +
                            "\", \"git_commit\": \"" + args.commit + "\", ";
  hub_json << "{\"bench\": \"cut_oracle\", " << stamp
           << "\"scenario\": \"hub_heavy\", \"workload\": {\"n\": "
           << hub.NumVertices() << ", \"m\": " << hub.NumEdges()
           << ", \"k\": " << hub_k << "}, \"results\": [";
  bool ok = RunScenario("hub-heavy (Harary + BA hubs)", hub, hub_k, hub_json);
  hub_json << "]}";

  planted_json << "{\"bench\": \"cut_oracle\", " << stamp
               << "\"scenario\": \"planted\", \"workload\": {\"n\": "
               << planted.graph.NumVertices()
               << ", \"m\": " << planted.graph.NumEdges()
               << ", \"k\": " << planted_k << "}, \"results\": [";
  ok = RunScenario("planted VCC blocks", planted.graph, planted_k,
                   planted_json) &&
       ok;
  planted_json << "]}";

  if (!args.json_path.empty()) {
    std::ofstream out(args.json_path, std::ios::app);
    out << hub_json.str() << "\n" << planted_json.str() << "\n";
    std::cout << "\nwrote perf snapshot to " << args.json_path << "\n";
  }
  std::cout << "\nExpected shape: every row reports match=yes (the engines "
               "are exact, so the decomposition is byte-identical), and "
               "fallbacks stay a small fraction of local probes. time and "
               "probe_edges_touched compare the engines' work; since Dinic "
               "decides its last level with one sink-neighbourhood check, "
               "dinic runs about 2x faster than localvc and hybrid on "
               "hub-heavy and inspects under half their slots.\n";
  if (!ok) {
    std::cerr << "ERROR: some oracle produced a different decomposition\n";
    return 1;
  }
  return 0;
}
