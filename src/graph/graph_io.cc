#include "graph/graph_io.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "exec/task_scheduler.h"
#include "graph/parallel_blocks.h"

namespace kvcc {

namespace {

// One newline-aligned slice of the input, parsed independently.
struct ChunkParse {
  std::vector<std::pair<VertexId, VertexId>> edges;  // raw ids, loops kept
  std::size_t lines = 0;       // lines scanned (including a bad one)
  std::size_t error_line = 0;  // chunk-relative 1-based; 0 = clean
  std::string error_text;
  VertexId max_id = 0;
};

const char* SkipSpace(const char* p, const char* end) {
  while (p < end && (*p == ' ' || *p == '\t' || *p == '\r')) ++p;
  return p;
}

// Parses [begin, end) of `text` (which starts at a line boundary) into
// `out`, stopping at the first malformed line.
void ParseChunk(std::string_view text, std::size_t begin, std::size_t end,
                ChunkParse& out) {
  const char* p = text.data() + begin;
  const char* const stop = text.data() + end;
  // Every pair takes a line, so the newline count (+1 for an unterminated
  // last line) bounds the pairs: one allocation, no growth copies.
  out.edges.reserve(static_cast<std::size_t>(std::count(p, stop, '\n')) + 1);
  while (p < stop) {
    const char* nl = static_cast<const char*>(
        std::memchr(p, '\n', static_cast<std::size_t>(stop - p)));
    const char* const line_end = nl != nullptr ? nl : stop;
    ++out.lines;
    const char* const line_begin = p;
    p = SkipSpace(p, line_end);
    if (p == line_end || *p == '#' || *p == '%') {
      p = line_end + 1;
      continue;
    }
    VertexId u = 0, v = 0;
    auto [pu, eu] = std::from_chars(p, line_end, u);
    const char* q = SkipSpace(pu, line_end);
    auto [pv, ev] = std::from_chars(q, line_end, v);
    if (eu != std::errc() || ev != std::errc() || q == pu) {
      out.error_line = out.lines;
      out.error_text.assign(line_begin,
                            static_cast<std::size_t>(line_end - line_begin));
      return;
    }
    out.max_id = std::max(out.max_id, std::max(u, v));
    out.edges.emplace_back(u, v);
    p = line_end + 1;
  }
}

// The loader's worker pool: index loops run on it when the loader was
// given more than one thread, inline otherwise.
class LoaderPool {
 public:
  /// num_threads 0 = one per hardware thread.
  explicit LoaderPool(unsigned num_threads)
      : pool_(num_threads != 0
                  ? num_threads
                  : std::max(1u, std::thread::hardware_concurrency())) {
    if (parallel()) pool_.Start();
  }

  unsigned workers() const { return pool_.num_workers(); }
  bool parallel() const { return workers() > 1; }

  // body(i) for every i in [0, count).
  template <typename Body>
  void ForEach(std::size_t count, const Body& body) {
    if (parallel() && count > 1) {
      pool_.ParallelFor(count, [&](std::size_t i, unsigned) { body(i); });
    } else {
      for (std::size_t i = 0; i < count; ++i) body(i);
    }
  }

  // body(begin, end) over contiguous blocks of [0, count).
  template <typename Body>
  void ForBlocks(std::size_t count, const Body& body) {
    if (parallel()) {
      detail::ForBlocks(pool_, count, exec::TaskPriority::kNormal,
                        [&](std::size_t begin, std::size_t end, unsigned) {
                          body(begin, end);
                        });
    } else {
      body(0, count);
    }
  }

 private:
  exec::TaskScheduler pool_;
};

// Splits `text` at newline boundaries into ~4 chunks per worker (so the
// dynamic claim evens out skewed line lengths) and parses them. Chunks
// stay in file order. Throws naming the first malformed line in *file*
// order: a clean chunk's line count is exact, so prefix-summing locates it
// whichever chunk failed first.
std::vector<ChunkParse> ParseChunks(std::string_view text, LoaderPool& pool,
                                    const std::string& source) {
  const std::size_t target_chunks =
      pool.parallel() ? static_cast<std::size_t>(pool.workers()) * 4 : 1;
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  std::size_t pos = 0;
  for (std::size_t i = 1; i <= target_chunks && pos < text.size(); ++i) {
    std::size_t end =
        i == target_chunks
            ? text.size()
            : std::max(pos + 1, i * text.size() / target_chunks);
    if (end < text.size()) {
      const void* nl =
          std::memchr(text.data() + end, '\n', text.size() - end);
      end = nl != nullptr ? static_cast<std::size_t>(
                                static_cast<const char*>(nl) - text.data()) +
                                1
                          : text.size();
    }
    ranges.emplace_back(pos, end);
    pos = end;
  }

  std::vector<ChunkParse> chunks(ranges.size());
  pool.ForEach(ranges.size(), [&](std::size_t i) {
    ParseChunk(text, ranges[i].first, ranges[i].second, chunks[i]);
  });

  std::size_t line_prefix = 0;
  for (const ChunkParse& chunk : chunks) {
    if (chunk.error_line != 0) {
      throw std::runtime_error(
          source + ": malformed line " +
          std::to_string(line_prefix + chunk.error_line) + ": '" +
          chunk.error_text + "'");
    }
    line_prefix += chunk.lines;
  }
  return chunks;
}

// Numbers the raw ids of `chunks` by first appearance (file order, u
// before v on each line, self-loop endpoints included), rewriting every
// pair to compact ids, and returns the labels (compact id -> raw id).
std::vector<VertexId> NumberByFirstAppearance(
    std::vector<ChunkParse>& chunks) {
  std::size_t total_pairs = 0;
  VertexId max_id = 0;
  for (const ChunkParse& chunk : chunks) {
    total_pairs += chunk.edges.size();
    max_id = std::max(max_id, chunk.max_id);
  }
  constexpr VertexId kUnseen = std::numeric_limits<VertexId>::max();
  std::vector<VertexId> labels;
  // The one serial pass: ids are handed out in file order, so the result
  // does not depend on how the text was chunked.
  const auto assign = [&](auto&& slot_of) {
    const auto number = [&](VertexId& raw) {
      VertexId& id = slot_of(raw);
      if (id == kUnseen) {
        id = static_cast<VertexId>(labels.size());
        labels.push_back(raw);
      }
      raw = id;
    };
    for (ChunkParse& chunk : chunks) {
      for (auto& [u, v] : chunk.edges) {
        number(u);
        number(v);
      }
    }
  };
  // Dense id spaces index a raw -> id table; sparse ones (raw ids far
  // beyond the pair count) look ids up in their sorted distinct set, so
  // memory follows the input, not its largest id.
  const std::uint64_t id_space = static_cast<std::uint64_t>(max_id) + 1;
  if (id_space <= 16 * static_cast<std::uint64_t>(total_pairs)) {
    std::vector<VertexId> id_of(id_space, kUnseen);
    assign([&](VertexId raw) -> VertexId& { return id_of[raw]; });
  } else {
    std::vector<VertexId> distinct;
    distinct.reserve(2 * total_pairs);
    for (const ChunkParse& chunk : chunks) {
      for (const auto& [u, v] : chunk.edges) {
        distinct.push_back(u);
        distinct.push_back(v);
      }
    }
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    std::vector<VertexId> id_of(distinct.size(), kUnseen);
    assign([&](VertexId raw) -> VertexId& {
      return id_of[static_cast<std::size_t>(
          std::lower_bound(distinct.begin(), distinct.end(), raw) -
          distinct.begin())];
    });
  }
  return labels;
}

// Counting-sort CSR build over compact-id pairs: atomic degree count
// (duplicates included), prefix sum, atomic-cursor scatter of both
// directions, per-row sort + dedup, then one compaction pass down to the
// final offsets. Consumes `chunks`.
Graph BuildCsr(std::vector<ChunkParse> chunks, std::vector<VertexId> labels,
               LoaderPool& pool) {
  const VertexId n = static_cast<VertexId>(labels.size());
  std::vector<std::uint64_t> offsets(static_cast<std::size_t>(n) + 1, 0);
  pool.ForEach(chunks.size(), [&](std::size_t i) {
    for (const auto& [u, v] : chunks[i].edges) {
      if (u == v) continue;
      std::atomic_ref<std::uint64_t>(offsets[u + 1])
          .fetch_add(1, std::memory_order_relaxed);
      std::atomic_ref<std::uint64_t>(offsets[v + 1])
          .fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (VertexId v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
  std::vector<std::uint64_t> cursor(offsets.begin(), offsets.end() - 1);
  std::vector<VertexId> adjacency(offsets[n]);
  pool.ForEach(chunks.size(), [&](std::size_t i) {
    for (const auto& [u, v] : chunks[i].edges) {
      if (u == v) continue;
      adjacency[std::atomic_ref<std::uint64_t>(cursor[u]).fetch_add(
          1, std::memory_order_relaxed)] = v;
      adjacency[std::atomic_ref<std::uint64_t>(cursor[v]).fetch_add(
          1, std::memory_order_relaxed)] = u;
    }
  });
  chunks = {};  // the pairs are in the rows now
  // Normalize each row; record deduped lengths in `cursor` (reused).
  pool.ForBlocks(n, [&](std::size_t begin, std::size_t end) {
    for (std::size_t v = begin; v < end; ++v) {
      const auto row_begin =
          adjacency.begin() + static_cast<std::ptrdiff_t>(offsets[v]);
      const auto row_end =
          adjacency.begin() + static_cast<std::ptrdiff_t>(offsets[v + 1]);
      std::sort(row_begin, row_end);
      cursor[v] = static_cast<std::uint64_t>(
          std::unique(row_begin, row_end) - row_begin);
    }
  });
  // Compact duplicate slack out of the rows (serial: rows move down in
  // order, so this cannot run ahead of itself).
  std::uint64_t write = 0;
  for (VertexId v = 0; v < n; ++v) {
    const std::uint64_t row_start = offsets[v];
    const std::uint64_t row_len = cursor[v];
    if (write != row_start) {
      std::memmove(adjacency.data() + write, adjacency.data() + row_start,
                   row_len * sizeof(VertexId));
    }
    offsets[v] = write;
    write += row_len;
  }
  offsets[n] = write;
  adjacency.resize(write);

  // Identity labels stay implicit when the raw ids were already compact.
  bool identity = true;
  for (VertexId v = 0; v < n && identity; ++v) identity = labels[v] == v;
  if (identity) labels.clear();
  return Graph::FromCsr(n, std::move(offsets), std::move(adjacency),
                        std::move(labels));
}

// The whole file, read into a buffer sized from the file itself. Throws
// unless `path` names a regular file: a directory, FIFO or device has no
// edge list to read (and a FIFO or device may never end).
std::string ReadRegularFile(const std::string& path) {
  namespace fs = std::filesystem;
  std::error_code error;
  const fs::file_status status = fs::status(path, error);
  if (error || !fs::exists(status)) {
    throw std::runtime_error("ReadEdgeListFile: cannot open " + path);
  }
  if (!fs::is_regular_file(status)) {
    throw std::runtime_error("ReadEdgeListFile: not a regular file: " + path);
  }
  const std::uintmax_t size = fs::file_size(path, error);
  std::ifstream in(path, std::ios::binary);
  if (error || !in) {
    throw std::runtime_error("ReadEdgeListFile: cannot open " + path);
  }
  std::string text(static_cast<std::size_t>(size), '\0');
  in.read(text.data(), static_cast<std::streamsize>(text.size()));
  text.resize(static_cast<std::size_t>(in.gcount()));
  return text;
}

}  // namespace

Graph ReadEdgeList(std::string_view text, unsigned num_threads) {
  LoaderPool pool(num_threads);
  std::vector<ChunkParse> chunks = ParseChunks(text, pool, "ReadEdgeList");
  std::vector<VertexId> labels = NumberByFirstAppearance(chunks);
  return BuildCsr(std::move(chunks), std::move(labels), pool);
}

Graph ReadEdgeListFile(const std::string& path, unsigned num_threads) {
  std::string text = ReadRegularFile(path);
  LoaderPool pool(num_threads);
  std::vector<ChunkParse> chunks =
      ParseChunks(text, pool, "ReadEdgeListFile: " + path);
  std::string().swap(text);  // parsed; free the bytes before the CSR build
  std::vector<VertexId> labels = NumberByFirstAppearance(chunks);
  return BuildCsr(std::move(chunks), std::move(labels), pool);
}

void WriteEdgeList(const Graph& g, std::ostream& out) {
  out << "# nodes " << g.NumVertices() << " edges " << g.NumEdges() << "\n";
  for (VertexId u = 0; u < g.NumVertices(); ++u) {
    for (VertexId v : g.Neighbors(u)) {
      if (u < v) out << g.LabelOf(u) << ' ' << g.LabelOf(v) << "\n";
    }
  }
}

void WriteEdgeListFile(const Graph& g, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("WriteEdgeListFile: cannot create " + path);
  }
  WriteEdgeList(g, out);
}

}  // namespace kvcc
