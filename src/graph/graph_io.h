// Plain-text edge-list IO in the SNAP dataset format.
//
// Input lines: `u v` (whitespace separated); lines whose first non-blank
// character is '#' or '%' are comments, blank lines are skipped, and tokens
// after the second id are ignored. Vertex ids are non-negative integers that
// fit in 32 bits; they are compacted to [0, n) in order of first appearance
// and the original id is kept as the vertex label.
#ifndef KVCC_GRAPH_GRAPH_IO_H_
#define KVCC_GRAPH_GRAPH_IO_H_

#include <iosfwd>
#include <string>
#include <string_view>

#include "graph/graph.h"

namespace kvcc {

/// Parses an edge list held in memory.
///
/// The text is split at newline boundaries into ~4 chunks per thread, each
/// parsed with std::from_chars into its own pair buffer; the CSR is then
/// assembled by counting sort (atomic degree count, prefix sum, cursor
/// scatter, per-row sort + dedup) instead of a global edge sort. The Graph
/// is identical for every `num_threads` (0 = one per hardware thread):
///   - vertex ids are numbered by first appearance in the text (`u` before
///     `v` on each line; a self-loop's endpoint counts), so labels follow
///     file order. One serial pass over the parsed pairs assigns them;
///   - duplicate edges collapse and self-loops contribute only their
///     endpoint's existence;
///   - a malformed line (a missing or non-numeric id, a negative id, or an
///     id of 2^32 or more) throws std::runtime_error naming the first bad
///     line in text order, regardless of which chunk hit it first;
///   - text without a single edge line yields the empty graph.
Graph ReadEdgeList(std::string_view text, unsigned num_threads = 1);

/// ReadEdgeList over a file's bytes, which are released once parsed, before
/// the CSR build. Throws std::runtime_error naming the path if it does not
/// name a readable regular file (a directory, FIFO or device is rejected)
/// or if the file is malformed.
Graph ReadEdgeListFile(const std::string& path, unsigned num_threads = 1);

/// Writes `g` as an edge list (one `u v` pair per line, labels used as ids),
/// preceded by a `# nodes edges` comment header.
void WriteEdgeList(const Graph& g, std::ostream& out);

/// Writes `g` to a file. Throws std::runtime_error if the file cannot be
/// created.
void WriteEdgeListFile(const Graph& g, const std::string& path);

}  // namespace kvcc

#endif  // KVCC_GRAPH_GRAPH_IO_H_
