#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <numeric>
#include <stdexcept>
#include <string_view>

#include "util/process_memory.h"
#include "util/random.h"

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : std::min(values.size(), static_cast<std::size_t>(rank)) - 1;
  return values[index];
}

void Tally::Check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    if (failed <= 20) std::cerr << "check failed: " << what << "\n";
  }
}

void Tally::Warn(const std::string& what) {
  std::cerr << "warning: " << what << "\n";
}

std::string Metrics::ToJson(const Tally& tally) const {
  std::string out = "{\"correct\": ";
  out += tally.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(tally.attempted);
  out += ", \"failed\": " + std::to_string(tally.failed);
  out += ", \"metrics\": {";
  bool first = true;
  char buffer[64];
  for (const auto& [name, entry] : values_) {
    // A non-finite value (no sample at all) must still print as a number.
    const double value = std::isfinite(entry.first) ? entry.first : 1e9;
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + buffer + ", \"unit\": \"" +
           entry.second + "\"}";
  }
  out += "}}";
  return out;
}

WrittenGraph WriteShuffledEdgeFile(const Graph& g, std::uint64_t seed,
                                   const std::string& path) {
  kvcc::Rng rng(seed);
  WrittenGraph out;
  out.path = path;
  const VertexId n = g.NumVertices();
  out.to_file.resize(n);
  std::iota(out.to_file.begin(), out.to_file.end(), VertexId{0});
  std::shuffle(out.to_file.begin(), out.to_file.end(), rng);
  out.from_file.resize(n);
  for (VertexId v = 0; v < n; ++v) out.from_file[out.to_file[v]] = v;

  std::vector<std::pair<VertexId, VertexId>> edges = g.Edges();
  std::shuffle(edges.begin(), edges.end(), rng);
  out.edges = edges.size();
  std::string text;
  text.reserve(edges.size() * 14);
  for (auto [u, v] : edges) {
    u = out.to_file[g.LabelOf(u)];
    v = out.to_file[g.LabelOf(v)];
    if (rng.NextBernoulli(0.5)) std::swap(u, v);
    text += std::to_string(u);
    text += ' ';
    text += std::to_string(v);
    text += '\n';
  }
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file << text;
  if (!file) throw std::runtime_error("cannot write " + path);
  return out;
}

ComponentSet ToGeneratorIds(const ComponentSet& components,
                            const Graph& loaded, const WrittenGraph& file) {
  ComponentSet out;
  out.reserve(components.size());
  for (const std::vector<VertexId>& component : components) {
    std::vector<VertexId> ids;
    ids.reserve(component.size());
    for (const VertexId v : component) {
      ids.push_back(file.from_file[loaded.LabelOf(v)]);
    }
    std::sort(ids.begin(), ids.end());
    out.push_back(std::move(ids));
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::uint64_t Digest(const ComponentSet& components) {
  std::uint64_t hash = 1469598103934665603ULL;
  const auto mix = [&hash](std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (word >> (8 * i)) & 0xffu;
      hash *= 1099511628211ULL;
    }
  };
  mix(components.size());
  for (const std::vector<VertexId>& component : components) {
    mix(component.size());
    for (const VertexId v : component) mix(v);
  }
  return hash;
}

void LineHash::Add(const std::string& line) {
  for (const char c : line) {
    value ^= static_cast<unsigned char>(c);
    value *= 1099511628211ULL;
  }
  value ^= '\n';
  value *= 1099511628211ULL;
}

std::vector<std::pair<const char*, std::uint64_t>> CountFields(
    const kvcc::KvccStats& s) {
  return {
      {"phase1_pruned_ns1", s.phase1_pruned_ns1},
      {"phase1_pruned_ns2", s.phase1_pruned_ns2},
      {"phase1_pruned_gs", s.phase1_pruned_gs},
      {"phase1_tested_flow", s.phase1_tested_flow},
      {"phase1_tested_trivial", s.phase1_tested_trivial},
      {"phase2_pairs_tested", s.phase2_pairs_tested},
      {"phase2_pairs_skipped_group", s.phase2_pairs_skipped_group},
      {"phase2_pairs_skipped_adjacent", s.phase2_pairs_skipped_adjacent},
      {"phase2_pairs_skipped_common", s.phase2_pairs_skipped_common},
      {"global_cut_calls", s.global_cut_calls},
      {"loc_cut_flow_calls", s.loc_cut_flow_calls},
      {"overlap_partitions", s.overlap_partitions},
      {"kvccs_found", s.kvccs_found},
      {"kcore_rounds", s.kcore_rounds},
      {"kcore_removed_vertices", s.kcore_removed_vertices},
      {"kcore_bucket_rounds", s.kcore_bucket_rounds},
      {"cc_hooks", s.cc_hooks},
      {"certificate_edges_input", s.certificate_edges_input},
      {"certificate_edges_kept", s.certificate_edges_kept},
      {"side_groups_found", s.side_groups_found},
      {"strong_side_vertices_found", s.strong_side_vertices_found},
      {"strong_side_checks_run", s.strong_side_checks_run},
      {"strong_side_verdicts_reused", s.strong_side_verdicts_reused},
      {"certificate_cut_fallbacks", s.certificate_cut_fallbacks},
      // Thread-count dependent from here on (see kvcc/stats.h).
      {"probe_wavefronts", s.probe_wavefronts},
      {"probes_launched", s.probes_launched},
      {"probes_wasted_swept", s.probes_wasted_swept},
      {"probes_wasted_after_cut", s.probes_wasted_after_cut},
      {"probes_localvc", s.probes_localvc},
      {"probes_localvc_fallback", s.probes_localvc_fallback},
      {"probe_edges_touched", s.probe_edges_touched},
  };
}

std::vector<std::string> DifferingCounts(const kvcc::KvccStats& a,
                                         const kvcc::KvccStats& b,
                                         bool replay_identical_only) {
  const auto fa = CountFields(a);
  const auto fb = CountFields(b);
  std::vector<std::string> out;
  for (std::size_t i = 0; i < fa.size(); ++i) {
    if (replay_identical_only &&
        std::string_view(fa[i].first) == "probe_wavefronts") {
      break;
    }
    if (fa[i].second != fb[i].second) out.emplace_back(fa[i].first);
  }
  return out;
}

double PeakRssMb() {
  return static_cast<double>(kvcc::PeakRssBytes()) / (1024.0 * 1024.0);
}

}  // namespace perfbench
