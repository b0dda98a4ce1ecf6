#include "serve.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>
#include <limits>
#include <iostream>
#include <map>
#include <mutex>
#include <thread>

#include "gen/planted_vcc.h"
#include "graph/graph_io.h"
#include "kvcc/engine.h"
#include "kvcc/hierarchy.h"
#include "kvcc/kvcc_enum.h"
#include "server/kvccd.h"
#include "server/protocol.h"
#include "server/result_cache.h"
#include "server/transport.h"
#include "util/random.h"

namespace perfbench {

using namespace kvcc;
using server::KvccdServer;

namespace {

// The serving mix. Only the write share (about 10%), Zipf popularity and a
// cache smaller than the pool are specified; every other value below is an
// assumption that no measured trace backs (README.md, "Assumptions").
constexpr unsigned kEngineThreads = 4;
constexpr std::uint32_t kPoolK = 8;
constexpr std::uint32_t kDynamicK = 4;
constexpr double kWriteShare = 0.10;
// Edges per insert_edges / delete_edges batch: 1 to kMaxBatchEdges.
constexpr std::uint64_t kMaxBatchEdges = 3;
// Share of the pool's fully populated cache footprint the cache may hold.
constexpr double kCacheShare = 0.75;
// Zipf's law in its plain form: the r-th most popular graph is asked for
// in proportion to 1/r.
constexpr double kZipfExponent = 1.0;
constexpr int kPoolGraphs = 8;

enum class Kind : std::uint8_t {
  kDecompose,
  kHierarchy,
  kMembership,
  kDynamicRead,       // decompose at kDynamicK on the dynamic graph
  kDynamicHierarchy,  // the final dynamic-state check
  kWrite,
};

bool IsRead(Kind kind) { return kind != Kind::kWrite; }

struct DynamicOp {
  bool write = false;
  bool insert = false;
  bool hierarchy = false;  // reads: hierarchy instead of decompose
  std::vector<std::pair<VertexId, VertexId>> edges;
};

struct Record {
  Kind kind = Kind::kDecompose;
  std::uint32_t graph = 0;   // pool index (static reads)
  VertexId vertex = 0;       // membership
  std::size_t dynamic = 0;   // index into the dynamic op log
  double due = 0.0;          // seconds from segment start
  int window = -1;           // open loop: latency window, -1 in a warm-up
  double sent = 0.0;
  double first = 0.0;
  double last = 0.0;
  std::uint64_t hash = 0;
  std::uint32_t lines = 0;
  std::string terminal;      // kept for writes
  bool done = false;
  bool ok = false;
};

struct PoolEntry {
  WrittenGraph file;
  Graph loaded;
  std::shared_ptr<const KvccHierarchy> hierarchy;
  std::uint64_t decompose_hash = 0;
  std::uint64_t hierarchy_hash = 0;
};

std::string TypeOf(const std::string& line) {
  static const std::string kPrefix = "{\"type\":\"";
  if (line.compare(0, kPrefix.size(), kPrefix) != 0) return "";
  const std::size_t end = line.find('"', kPrefix.size());
  return end == std::string::npos
             ? ""
             : line.substr(kPrefix.size(), end - kPrefix.size());
}

bool IsTerminal(const std::string& line) {
  const std::string type = TypeOf(line);
  return type != "component" && type != "progress" && type != "level";
}

std::uint64_t FieldOf(const std::string& line, const std::string& name) {
  const std::string key = "\"" + name + "\":";
  const std::size_t at = line.find(key);
  if (at == std::string::npos) return 0;
  return std::stoull(line.substr(at + key.size()));
}

std::string EdgesJson(const std::vector<std::pair<VertexId, VertexId>>& edges) {
  std::string out = "[";
  for (std::size_t i = 0; i < edges.size(); ++i) {
    out += i > 0 ? ",[" : "[";
    out += std::to_string(edges[i].first);
    out += ',';
    out += std::to_string(edges[i].second);
    out += ']';
  }
  out += ']';
  return out;
}

std::uint64_t DecomposeHash(const ComponentSet& components, std::uint32_t k) {
  LineHash hash;
  for (std::size_t i = 0; i < components.size(); ++i) {
    hash.Add(server::ComponentLine(i, components[i]));
  }
  hash.Add(server::DecomposeCompleteLine(k, components.size()));
  return hash.value;
}

std::uint64_t HierarchyHash(const KvccHierarchy& hierarchy) {
  LineHash hash;
  const std::uint32_t levels = hierarchy.MaxLevel();
  for (std::uint32_t k = 1; k <= levels; ++k) {
    std::uint64_t largest = 0;
    for (const std::size_t index : hierarchy.NodesAtLevel(k)) {
      largest = std::max<std::uint64_t>(largest,
                                        hierarchy.nodes[index].vertices.size());
    }
    hash.Add(server::LevelLine(k, hierarchy.NodesAtLevel(k).size(), largest));
  }
  hash.Add(server::HierarchyCompleteLine(levels));
  return hash.value;
}

// A chain of six blocks of 16 vertices (connectivities 8/10), one shared
// vertex and one bridge edge between neighbours. Small on purpose: a
// serving request should cost parsing, loading, the cache and rendering
// more than engine work. The seed varies only the random edges, so every
// pool graph costs about the same to load and to decompose.
Graph PoolGraph(std::uint64_t seed) {
  PlantedVccConfig config;
  config.num_blocks = 6;
  config.block_size_min = 16;
  config.block_size_max = 16;
  config.connectivities = {8, 10};
  config.overlap = 1;
  config.bridge_edges = 1;
  config.seed = seed;
  return GeneratePlantedVcc(config).graph;
}

/// One server connection whose request loop runs on its own thread.
/// Destroying it closes the client side and joins the loop.
class Connection {
 public:
  explicit Connection(KvccdServer& daemon)
      : pair_(server::MakeLoopbackPair()),
        thread_([this, &daemon] { daemon.ServeConnection(*pair_.server); }) {}
  ~Connection() {
    pair_.client->Close();
    thread_.join();
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  server::LoopbackEndpoint& client() { return *pair_.client; }

 private:
  server::LoopbackPair pair_;
  std::thread thread_;
};

// Reads one whole response; false if the connection ended first.
bool ReadResponse(server::Transport& transport, Record& record,
                  Clock::time_point start) {
  LineHash hash;
  std::string line;
  while (transport.ReadLine(line)) {
    if (record.lines == 0) record.first = SecondsSince(start);
    hash.Add(line);
    ++record.lines;
    if (IsTerminal(line)) {
      record.last = SecondsSince(start);
      record.hash = hash.value;
      record.terminal = line;
      record.done = true;
      return true;
    }
  }
  return false;
}

}  // namespace

struct ServeWorkload::Impl {
  std::uint64_t seed = 0;
  std::vector<PoolEntry> pool;
  std::vector<double> zipf_cdf;        // over popularity ranks
  std::vector<std::uint32_t> by_rank;  // rank -> pool index
  std::uint64_t cache_budget = 0;

  // Dynamic graph: seed edges (file ids) and the op log every dynamic
  // request indexes into, in the order the server applies them.
  VertexId dynamic_n = 0;
  std::vector<std::pair<VertexId, VertexId>> seed_edges;
  std::vector<bool> present;
  std::deque<std::size_t> deleted;
  std::vector<DynamicOp> dynamic_log;

  std::unique_ptr<KvccdServer> server;
  // Every open-loop segment's records and request lines, in send order.
  std::vector<Record> open_records;
  std::vector<std::string> open_lines;
  int open_segments = 0;
  int open_windows = 0;
  std::vector<Record> closed_records;
  int closed_segments = 0;
  std::vector<double> closed_windows;  // completions per second, per window
  std::uint64_t max_outstanding = 0;

  std::unique_ptr<KvccdServer> StartServer(Tally& tally) const;
  std::size_t NextDynamic(Rng& rng, bool write);
  Record NextRequest(Rng& rng, bool allow_dynamic);
  std::string RequestLine(const Record& record) const;
};

std::unique_ptr<KvccdServer> ServeWorkload::Impl::StartServer(
    Tally& tally) const {
  server::KvccdConfig config;
  config.engine_threads = kEngineThreads;
  config.cache_bytes = cache_budget;
  auto daemon = std::make_unique<KvccdServer>(config);
  Connection connection(*daemon);
  const Clock::time_point start = Clock::now();
  Record seeded;
  connection.client().WriteLine("{\"op\":\"insert_edges\",\"edges\":" +
                                EdgesJson(seed_edges) + "}");
  const bool seeded_ok = ReadResponse(connection.client(), seeded, start) &&
                         TypeOf(seeded.terminal) == "updated" &&
                         FieldOf(seeded.terminal, "applied") ==
                             seed_edges.size();
  Record compacted;
  connection.client().WriteLine("{\"op\":\"compact\"}");
  const bool compacted_ok =
      ReadResponse(connection.client(), compacted, start) &&
      TypeOf(compacted.terminal) == "compacted";
  tally.Check(seeded_ok && compacted_ok, "dynamic graph seeding");
  return daemon;
}

std::size_t ServeWorkload::Impl::NextDynamic(Rng& rng, bool write) {
  DynamicOp op;
  op.write = write;
  if (write) {
    const std::size_t batch = 1 + rng.NextBounded(kMaxBatchEdges);
    op.insert = !deleted.empty() &&
                (deleted.size() >= 12 || rng.NextBernoulli(0.5));
    if (op.insert) {
      while (!deleted.empty() && op.edges.size() < batch) {
        const std::size_t e = deleted.front();
        deleted.pop_front();
        present[e] = true;
        op.edges.push_back(seed_edges[e]);
      }
    } else {
      while (op.edges.size() < batch) {
        const std::size_t e = rng.NextBounded(seed_edges.size());
        if (!present[e]) continue;
        present[e] = false;
        deleted.push_back(e);
        op.edges.push_back(seed_edges[e]);
      }
    }
  }
  dynamic_log.push_back(std::move(op));
  return dynamic_log.size() - 1;
}

// The traffic mix: kWriteShare writes; the rest split equally among the
// read operations (a dynamic decompose, and a static decompose, membership
// or hierarchy of a Zipf-popular pool graph). Without `allow_dynamic` only
// the three static reads are drawn.
Record ServeWorkload::Impl::NextRequest(Rng& rng, bool allow_dynamic) {
  Record record;
  if (allow_dynamic && rng.NextBernoulli(kWriteShare)) {
    record.kind = Kind::kWrite;
    record.dynamic = NextDynamic(rng, true);
    return record;
  }
  const std::uint64_t read = rng.NextBounded(allow_dynamic ? 4 : 3);
  if (read == 3) {
    record.kind = Kind::kDynamicRead;
    record.dynamic = NextDynamic(rng, false);
    return record;
  }
  const double pick = rng.NextDouble();
  const std::size_t rank = static_cast<std::size_t>(
      std::lower_bound(zipf_cdf.begin(), zipf_cdf.end(), pick) -
      zipf_cdf.begin());
  record.graph = by_rank[std::min(rank, by_rank.size() - 1)];
  if (read == 0) {
    record.kind = Kind::kDecompose;
  } else if (read == 1) {
    record.kind = Kind::kMembership;
    record.vertex = static_cast<VertexId>(
        rng.NextBounded(pool[record.graph].loaded.NumVertices()));
  } else {
    record.kind = Kind::kHierarchy;
  }
  return record;
}

std::string ServeWorkload::Impl::RequestLine(const Record& record) const {
  switch (record.kind) {
    case Kind::kDecompose:
      return "{\"op\":\"decompose\",\"k\":" + std::to_string(kPoolK) +
             ",\"graph\":\"" +
             pool[record.graph].file.path + "\"}";
    case Kind::kHierarchy:
      return "{\"op\":\"hierarchy\",\"graph\":\"" +
             pool[record.graph].file.path + "\"}";
    case Kind::kMembership:
      // The protocol's `vertex` is an id of the graph as the server loads
      // it (kvccd answers CohesionOf(vertex) and prints LabelOf(vertex)),
      // not a file label; the reference loads the file with the same
      // ReadEdgeListFile, so both name one vertex whatever the labels are.
      return "{\"op\":\"membership\",\"vertex\":" +
             std::to_string(record.vertex) + ",\"graph\":\"" +
             pool[record.graph].file.path + "\"}";
    case Kind::kDynamicRead:
      return "{\"op\":\"decompose\",\"k\":" + std::to_string(kDynamicK) +
             ",\"dynamic\":true}";
    case Kind::kDynamicHierarchy:
      return "{\"op\":\"hierarchy\",\"dynamic\":true}";
    case Kind::kWrite: {
      const DynamicOp& op = dynamic_log[record.dynamic];
      return std::string("{\"op\":\"") +
             (op.insert ? "insert_edges" : "delete_edges") +
             "\",\"edges\":" + EdgesJson(op.edges) + "}";
    }
  }
  return "";
}

ServeWorkload::ServeWorkload(std::uint64_t seed, const std::string& dir)
    : impl_(std::make_unique<Impl>()) {
  Impl& w = *impl_;
  w.seed = seed;
  SplitMix64 mix(seed ^ 0x7365727665000000ULL);

  // Pool: planted chains of one size (91 vertices, ~540 edges), so which
  // graph the seed makes popular does not change the cost of a request: a
  // hit costs well under a millisecond, mostly loading the file; a miss a
  // hierarchy build of about three.
  KvccEngine engine(kEngineThreads);
  server::ResultCache footprint(~std::uint64_t{0});
  for (int i = 0; i < kPoolGraphs; ++i) {
    PoolEntry entry;
    const Graph generated = PoolGraph(mix.Next());
    entry.file = WriteShuffledEdgeFile(
        generated, mix.Next(), dir + "/pool_" + std::to_string(i) + ".txt");
    entry.loaded = ReadEdgeListFile(entry.file.path);
    const KvccResult result = EnumerateKVccs(entry.loaded, kPoolK);
    entry.decompose_hash = DecomposeHash(result.components, kPoolK);
    auto hierarchy = std::make_shared<const KvccHierarchy>(
        BuildKvccHierarchy(engine, entry.loaded));
    entry.hierarchy_hash = HierarchyHash(*hierarchy);
    entry.hierarchy = hierarchy;
    footprint.InsertComponents(
        entry.loaded, kPoolK,
        std::make_shared<const server::ComponentList>(result.components));
    footprint.InsertHierarchy(entry.loaded, hierarchy, 0, true);
    w.pool.push_back(std::move(entry));
  }
  w.cache_budget = static_cast<std::uint64_t>(
      kCacheShare * static_cast<double>(footprint.BytesUsed()));

  double total = 0.0;
  for (std::size_t r = 0; r < w.pool.size(); ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
    w.zipf_cdf.push_back(total);
  }
  for (double& c : w.zipf_cdf) c /= total;
  w.by_rank.resize(w.pool.size());
  for (std::uint32_t i = 0; i < w.by_rank.size(); ++i) w.by_rank[i] = i;
  Rng rank_rng(mix.Next());
  std::shuffle(w.by_rank.begin(), w.by_rank.end(), rank_rng);

  // The dynamic graph: a chain of six 5-connected blocks of 10 vertices (an
  // edit costs about two milliseconds of incremental maintenance), ids
  // permuted like a file.
  PlantedVccConfig dynamic_config;
  dynamic_config.num_blocks = 6;
  dynamic_config.block_size_min = 10;
  dynamic_config.block_size_max = 10;
  dynamic_config.connectivity = 5;
  dynamic_config.extra_edge_factor = 0.3;
  dynamic_config.overlap = 1;
  dynamic_config.bridge_edges = 1;
  dynamic_config.seed = mix.Next();
  const PlantedVccGraph dynamic = GeneratePlantedVcc(dynamic_config);
  Rng id_rng(mix.Next());
  std::vector<VertexId> ids(dynamic.graph.NumVertices());
  for (VertexId v = 0; v < ids.size(); ++v) ids[v] = v;
  std::shuffle(ids.begin(), ids.end(), id_rng);
  w.dynamic_n = dynamic.graph.NumVertices();
  for (const auto& [u, v] : dynamic.graph.Edges()) {
    w.seed_edges.emplace_back(ids[u], ids[v]);
  }
  std::shuffle(w.seed_edges.begin(), w.seed_edges.end(), id_rng);
  w.present.assign(w.seed_edges.size(), true);
}

ServeWorkload::~ServeWorkload() = default;

double ServeWorkload::Setup(Tally& tally) {
  impl_->server.reset();
  const Clock::time_point start = Clock::now();
  impl_->server = impl_->StartServer(tally);
  return SecondsSince(start);
}

void ServeWorkload::RunOpenLoop(double warmup, double seconds, int windows,
                                double rate, bool trace, Tally& tally,
                                Metrics& metrics) {
  Impl& w = *impl_;
  Rng rng(w.seed ^ (0x6f70656e00000000ULL +
                    static_cast<std::uint64_t>(w.open_segments++)));
  // Poisson arrivals at `rate`: exponential gaps, drawn up front.
  std::vector<Record> records;
  for (double due = 0.0;;) {
    due += -std::log(1.0 - rng.NextDouble()) / rate;
    if (due >= warmup + seconds) break;
    Record record = w.NextRequest(rng, true);
    record.due = due;
    if (due >= warmup) {
      record.window = w.open_windows +
                      std::min(windows - 1, static_cast<int>((due - warmup) /
                                                             seconds * windows));
    }
    records.push_back(std::move(record));
  }
  w.open_windows += windows;
  std::vector<std::string> lines;
  for (const Record& record : records) lines.push_back(w.RequestLine(record));

  // Connection 0 carries every dynamic-graph request, so they apply in
  // schedule order; a static read goes to whichever of connections 1 and 2
  // has fewer requests in flight, as a client's connection pool would
  // pick.
  constexpr int kConnections = 3;
  std::vector<std::unique_ptr<Connection>> connections;
  std::vector<std::deque<std::size_t>> in_flight(kConnections);
  std::vector<std::mutex> in_flight_mutex(kConnections);
  for (int c = 0; c < kConnections; ++c) {
    connections.push_back(std::make_unique<Connection>(*w.server));
  }
  std::atomic<std::uint64_t> outstanding{0};
  std::atomic<std::size_t> completed{0};
  const auto route = [&](std::size_t i) {
    const Record& r = records[i];
    if (r.kind == Kind::kWrite || r.kind == Kind::kDynamicRead) return 0;
    std::size_t load[kConnections];
    for (int c = 1; c < kConnections; ++c) {
      std::lock_guard<std::mutex> lock(in_flight_mutex[c]);
      load[c] = in_flight[c].size();
    }
    return load[2] < load[1] ? 2 : 1;
  };

  const Clock::time_point start = Clock::now();
  std::vector<std::thread> readers;
  for (int c = 0; c < kConnections; ++c) {
    readers.emplace_back([&, c] {
      server::LoopbackEndpoint& client = connections[c]->client();
      std::string line;
      Record* current = nullptr;
      LineHash hash;
      while (client.ReadLine(line)) {
        const double now = SecondsSince(start);
        if (current == nullptr) {
          std::lock_guard<std::mutex> lock(in_flight_mutex[c]);
          if (in_flight[c].empty()) continue;  // unexpected line; request fails
          current = &records[in_flight[c].front()];
          in_flight[c].pop_front();
          current->first = now;
          hash = LineHash();
        }
        hash.Add(line);
        ++current->lines;
        if (IsTerminal(line)) {
          current->last = now;
          current->hash = hash.value;
          if (current->kind == Kind::kWrite) current->terminal = line;
          current->done = true;
          current = nullptr;
          outstanding.fetch_sub(1);
          completed.fetch_add(1);
        }
      }
    });
  }

  std::uint64_t max_outstanding = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(records[i].due)));
    const int c = route(i);
    {
      std::lock_guard<std::mutex> lock(in_flight_mutex[c]);
      in_flight[c].push_back(i);
    }
    records[i].sent = SecondsSince(start);
    max_outstanding = std::max(max_outstanding, outstanding.fetch_add(1) + 1);
    connections[c]->client().WriteLine(lines[i]);
  }
  const Clock::time_point give_up = Clock::now() + std::chrono::seconds(60);
  while (completed.load() < records.size() && Clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Closing the clients ends the readers' loops; join them before the
  // endpoints they read from are destroyed.
  for (const auto& connection : connections) connection->client().Close();
  for (std::thread& reader : readers) reader.join();
  connections.clear();
  w.max_outstanding = std::max(w.max_outstanding, max_outstanding);

  if (trace) {
    std::vector<double> parse_us;
    for (const std::string& line : lines) {
      const Clock::time_point t0 = Clock::now();
      server::JsonValue json;
      server::Request request;
      std::string error;
      const bool ok = server::ParseJson(line, json, error) &&
                      server::ParseRequest(json, request, error);
      parse_us.push_back(SecondsSince(t0) * 1e6);
      tally.Check(ok, "request line does not parse: " + line);
    }
    metrics.Set("protocol.parse_us", Median(parse_us), "us");
    std::vector<double> load_ms;
    for (const Record& record : records) {
      if (load_ms.size() >= 200) break;
      if (record.kind != Kind::kDecompose && record.kind != Kind::kHierarchy &&
          record.kind != Kind::kMembership) {
        continue;
      }
      const Clock::time_point t0 = Clock::now();
      const Graph g = ReadEdgeListFile(w.pool[record.graph].file.path);
      load_ms.push_back(SecondsSince(t0) * 1e3);
    }
    metrics.Set("graph_io.request_load_ms", Median(load_ms), "ms");
  }
  for (std::size_t i = 0; i < records.size(); ++i) {
    w.open_records.push_back(std::move(records[i]));
    w.open_lines.push_back(std::move(lines[i]));
  }
}

void ServeWorkload::RunClosedLoop(double warmup, double seconds) {
  Impl& w = *impl_;
  constexpr int kClients = 4;
  std::vector<std::vector<Record>> per_client(kClients);
  std::vector<std::unique_ptr<Connection>> connections;
  for (int c = 0; c < kClients; ++c) {
    connections.push_back(std::make_unique<Connection>(*w.server));
  }
  // Only client 0 touches the dynamic graph (and the op log), so dynamic
  // requests keep one order; the others send static reads.
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(w.seed ^ (0x636c6f7365000000ULL +
                        (static_cast<std::uint64_t>(w.closed_segments) << 8) +
                        static_cast<std::uint64_t>(c)));
      server::LoopbackEndpoint& client = connections[c]->client();
      while (SecondsSince(start) < warmup + seconds) {
        Record record = w.NextRequest(rng, c == 0);
        record.due = record.sent = SecondsSince(start);
        client.WriteLine(w.RequestLine(record));
        if (!ReadResponse(client, record, start)) break;
        if (record.kind != Kind::kWrite) record.terminal.clear();
        per_client[c].push_back(std::move(record));
      }
    });
  }
  for (std::thread& client : clients) client.join();
  connections.clear();
  ++w.closed_segments;
  // Completions per quarter second, over the windows after the warm-up in
  // which the clients kept sending.
  constexpr double kWindow = 0.25;
  std::vector<double> per_window(
      std::max<std::size_t>(1, static_cast<std::size_t>(seconds / kWindow)),
      0.0);
  for (std::vector<Record>& records : per_client) {
    for (Record& record : records) {
      const double measured = record.last - warmup;
      const auto window = static_cast<std::size_t>(measured / kWindow);
      if (measured >= 0.0 && window < per_window.size()) {
        per_window[window] += 1.0;
      }
      w.closed_records.push_back(std::move(record));
    }
  }
  for (const double completed : per_window) {
    w.closed_windows.push_back(completed / kWindow);
  }
}

void ServeWorkload::Verify(Tally& tally) {
  Impl& w = *impl_;
  // The final dynamic state: one more decompose and a full hierarchy on it.
  if (w.server != nullptr) {
    Connection connection(*w.server);
    Rng unused(0);
    for (const Kind kind : {Kind::kDynamicRead, Kind::kDynamicHierarchy}) {
      Record record;
      record.kind = kind;
      record.dynamic = w.NextDynamic(unused, false);
      w.dynamic_log[record.dynamic].hierarchy =
          kind == Kind::kDynamicHierarchy;
      connection.client().WriteLine(w.RequestLine(record));
      ReadResponse(connection.client(), record, Clock::now());
      w.closed_records.push_back(std::move(record));
    }
  }

  // Replay the dynamic op log on a plain edge set; every dynamic read is
  // checked against a cold decomposition of the graph at that point.
  std::vector<std::uint64_t> expected(w.dynamic_log.size(), 0);
  {
    std::vector<bool> present(w.seed_edges.size(), true);
    std::map<std::pair<VertexId, VertexId>, std::size_t> index;
    for (std::size_t e = 0; e < w.seed_edges.size(); ++e) {
      index[w.seed_edges[e]] = e;
    }
    bool stale = true;
    Graph current;
    for (std::size_t i = 0; i < w.dynamic_log.size(); ++i) {
      const DynamicOp& op = w.dynamic_log[i];
      if (op.write) {
        for (const auto& edge : op.edges) present[index.at(edge)] = op.insert;
        expected[i] = op.edges.size();
        stale = true;
        continue;
      }
      if (stale) {
        std::vector<std::pair<VertexId, VertexId>> edges;
        for (std::size_t e = 0; e < w.seed_edges.size(); ++e) {
          if (present[e]) edges.push_back(w.seed_edges[e]);
        }
        current = Graph::FromEdges(w.dynamic_n, edges);
        stale = false;
      }
      expected[i] = op.hierarchy
                        ? HierarchyHash(BuildKvccHierarchy(current))
                        : DecomposeHash(EnumerateKVccs(current, kDynamicK)
                                            .components,
                                        kDynamicK);
    }
  }

  std::map<std::pair<std::uint32_t, VertexId>, std::uint64_t> membership;
  const auto check = [&](Record& record) {
    std::uint64_t want = 0;
    switch (record.kind) {
      case Kind::kDecompose:
        want = w.pool[record.graph].decompose_hash;
        break;
      case Kind::kHierarchy:
        want = w.pool[record.graph].hierarchy_hash;
        break;
      case Kind::kMembership: {
        const auto key = std::make_pair(record.graph, record.vertex);
        auto it = membership.find(key);
        if (it == membership.end()) {
          const PoolEntry& entry = w.pool[record.graph];
          LineHash hash;
          hash.Add(server::MembershipLine(
              entry.loaded.LabelOf(record.vertex),
              entry.hierarchy->CohesionOf(record.vertex),
              entry.hierarchy->PathOf(record.vertex)));
          it = membership.emplace(key, hash.value).first;
        }
        want = it->second;
        break;
      }
      case Kind::kDynamicRead:
      case Kind::kDynamicHierarchy:
        want = expected[record.dynamic];
        break;
      case Kind::kWrite:
        record.ok = record.done && TypeOf(record.terminal) == "updated" &&
                    FieldOf(record.terminal, "applied") ==
                        expected[record.dynamic];
        tally.Check(record.ok, "write response " + record.terminal);
        return;
    }
    record.ok = record.done && record.hash == want;
    tally.Check(record.ok, "read response differs from its reference (" +
                               w.RequestLine(record) + ")");
  };
  for (Record& record : w.open_records) check(record);
  for (Record& record : w.closed_records) check(record);
}

void ServeWorkload::Report(bool trace, Metrics& metrics) const {
  const Impl& w = *impl_;
  // A failed request counts as missing any latency limit.
  constexpr double kMissed = std::numeric_limits<double>::infinity();
  std::vector<double> reads, writes, first_line, render, late;
  std::vector<std::vector<double>> window_reads(w.open_windows);
  std::vector<std::vector<double>> window_writes(w.open_windows);
  for (const Record& record : w.open_records) {
    if (record.window < 0) continue;
    const double latency_ms = record.ok ? (record.last - record.due) * 1e3
                                        : kMissed;
    (IsRead(record.kind) ? reads : writes).push_back(latency_ms);
    (IsRead(record.kind) ? window_reads : window_writes)[record.window]
        .push_back(latency_ms);
    late.push_back((record.sent - record.due) * 1e3);
    if (IsRead(record.kind) && record.ok) {
      first_line.push_back((record.first - record.due) * 1e3);
      render.push_back((record.last - record.first) * 1e3);
    }
  }
  // The percentile `p` of each window that holds samples.
  const auto per_window = [](const std::vector<std::vector<double>>& by,
                             double p) {
    std::vector<double> out;
    for (const std::vector<double>& window : by) {
      if (!window.empty()) out.push_back(Percentile(window, p));
    }
    return out;
  };
  // Typical latency: the lower quartile of the windows' p50s, i.e. of the
  // windows the host disturbed least; capacity likewise, the upper
  // quartile of the closed-loop windows. Tails: the median of the windows'
  // p99s. None of them is an end-to-end metric: on a shared VM, CPU steal
  // inflates whole runs (p50 up to 4x, p99 2-4x), past any bound of 0.25
  // (README.md).
  const double read_p50 = Percentile(per_window(window_reads, 50), 25);
  const double write_p50 = Percentile(per_window(window_writes, 50), 25);
  const double read_p99 = Median(per_window(window_reads, 99));
  const double write_p99 = Median(per_window(window_writes, 99));
  const double capacity = Percentile(w.closed_windows, 75);
  std::cerr << "open loop: " << reads.size() << " reads, " << writes.size()
            << " writes, in " << w.open_windows << " windows; p50 read "
            << read_p50 << " ms, write " << write_p50 << " ms; p99 read "
            << read_p99 << " ms, write " << write_p99
            << " ms; closed loop: " << capacity << " requests/s\n";
  if (!trace) return;
  metrics.Set("server.read_p50_ms", read_p50, "ms");
  metrics.Set("server.write_p50_ms", write_p50, "ms");
  metrics.Set("server.read_p99_ms", read_p99, "ms");
  metrics.Set("server.write_p99_ms", write_p99, "ms");
  metrics.Set("server.capacity_rps", capacity, "1/s");
  metrics.Set("server.first_line_ms", Median(first_line), "ms");
  metrics.Set("server.render_ms", Median(render), "ms");
  metrics.Set("generator.late_p99_ms", Percentile(late, 99), "ms");
  metrics.Set("generator.max_outstanding",
              static_cast<double>(w.max_outstanding), "count");
}

std::uint64_t ServeWorkload::ReplayCounters(Tally& tally, Metrics& metrics) {
  Impl& w = *impl_;
  std::vector<std::vector<double>> runs;
  for (int run = 0; run < 2; ++run) {
    std::unique_ptr<KvccdServer> daemon = w.StartServer(tally);
    double applied = 0, dirty = 0, reruns = 0;
    {
      Connection connection(*daemon);
      for (std::size_t i = 0; i < w.open_lines.size(); ++i) {
        Record record;
        connection.client().WriteLine(w.open_lines[i]);
        ReadResponse(connection.client(), record, Clock::now());
        if (w.open_records[i].kind == Kind::kWrite) {
          applied += static_cast<double>(FieldOf(record.terminal, "applied"));
          dirty += static_cast<double>(
              FieldOf(record.terminal, "dirty_components"));
          reruns += static_cast<double>(FieldOf(record.terminal, "reruns"));
        }
      }
    }
    const server::ResultCache& cache = daemon->Cache();
    const double lookups = static_cast<double>(cache.Hits() + cache.Misses());
    runs.push_back({static_cast<double>(cache.Hits()) / std::max(1.0, lookups),
                    static_cast<double>(cache.Evictions()),
                    static_cast<double>(cache.BytesUsed()),
                    static_cast<double>(daemon->Admission().JobsShed()),
                    dirty, reruns, applied});
  }
  const std::vector<std::pair<const char*, const char*>> names = {
      {"result_cache.hit_ratio", "ratio"},
      {"result_cache.evictions", "count"},
      {"result_cache.bytes_used", "bytes"},
      {"admission.jobs_shed", "count"},
      {"incremental.dirty_components", "count"},
      {"incremental.reruns", "count"},
      {"delta_store.edges_applied", "count"}};
  std::uint64_t mismatches = 0;
  for (std::size_t i = 0; i < names.size(); ++i) {
    metrics.Set(names[i].first, runs[0][i], names[i].second);
    if (runs[0][i] != runs[1][i]) {
      ++mismatches;
      tally.Warn(std::string(names[i].first) +
                 " did not repeat across identical request sequences");
    }
  }
  return mismatches;
}

}  // namespace perfbench
