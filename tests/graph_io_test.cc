#include "graph/graph_io.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "gen/barabasi_albert.h"
#include "gen/fixtures.h"
#include "graph/graph.h"
#include "graph/graph_builder.h"
#include "support/brute_force.h"

namespace kvcc {
namespace {

using kvcc::testing::RandomConnectedGraph;

/// Thread counts the loader must be invariant across: 1 parses inline in
/// one chunk, the others split the text into ~4 chunks per thread.
const std::vector<unsigned> kThreadCounts = {1, 2, 3, 8, 16};

/// Full structural fingerprint: vertex numbering, labels, and adjacency
/// order all included. Equal fingerprints mean byte-identical graphs.
std::string GraphFingerprint(const Graph& g) {
  std::ostringstream out;
  out << g.NumVertices() << "/" << g.NumEdges() << ";";
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    out << g.LabelOf(v) << ":";
    for (const VertexId w : g.Neighbors(v)) out << g.LabelOf(w) << ",";
    out << ";";
  }
  return out.str();
}

/// Numbering-independent fingerprint: rows keyed and sorted by label,
/// neighbor labels sorted — what a graph written with WriteEdgeList and
/// read back must preserve whatever its vertex numbering.
std::string CanonicalFingerprint(const Graph& g) {
  std::vector<std::pair<VertexId, std::vector<VertexId>>> rows;
  rows.reserve(g.NumVertices());
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    std::vector<VertexId> nbrs;
    nbrs.reserve(g.Neighbors(v).size());
    for (const VertexId w : g.Neighbors(v)) nbrs.push_back(g.LabelOf(w));
    std::sort(nbrs.begin(), nbrs.end());
    rows.emplace_back(g.LabelOf(v), std::move(nbrs));
  }
  std::sort(rows.begin(), rows.end());
  std::ostringstream out;
  out << g.NumVertices() << "/" << g.NumEdges() << ";";
  for (const auto& [label, nbrs] : rows) {
    out << label << ":";
    for (const VertexId w : nbrs) out << w << ",";
    out << ";";
  }
  return out.str();
}

/// Reference numbering for well-formed `u v` lines: ids are interned in
/// file order, u before v, through a map, and the edges go through
/// GraphBuilder.
Graph FirstAppearanceReference(
    const std::vector<std::pair<VertexId, VertexId>>& pairs) {
  std::map<VertexId, VertexId> compact;
  std::vector<VertexId> labels;
  GraphBuilder builder;
  for (const auto& [u, v] : pairs) {
    for (const VertexId raw : {u, v}) {
      if (compact.emplace(raw, static_cast<VertexId>(labels.size())).second) {
        labels.push_back(raw);
      }
    }
    builder.AddEdge(compact[u], compact[v]);
  }
  if (!labels.empty()) {
    builder.EnsureVertex(static_cast<VertexId>(labels.size() - 1));
  }
  builder.SetLabels(std::move(labels));
  return builder.Build();
}

/// Writes `text` to a per-test temp file and returns its path.
std::string WriteTempFile(const std::string& name, const std::string& text) {
  const std::string path = ::testing::TempDir() + "/kvcc_graph_io_" + name;
  std::ofstream(path, std::ios::binary) << text;
  return path;
}

/// Expects `load` to throw std::runtime_error whose message contains
/// `needle`.
template <typename Load>
void ExpectThrowMentioning(const Load& load, const std::string& needle) {
  try {
    load();
    ADD_FAILURE() << "expected a throw mentioning '" << needle << "'";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find(needle), std::string::npos)
        << "what=" << error.what();
  }
}

TEST(GraphIoTest, ParsesEdgeListWithComments) {
  const Graph g = ReadEdgeList(
      "# a SNAP-style header\n"
      "% another comment style\n"
      "0 1\n"
      "1 2\n"
      "\n"
      "2 0\n");
  EXPECT_EQ(g.NumVertices(), 3u);
  EXPECT_EQ(g.NumEdges(), 3u);
}

TEST(GraphIoTest, CommentsBlanksAndTrailingTokens) {
  const Graph g = ReadEdgeList(
      "# header comment\n"
      "% percent comment\n"
      "\n"
      "   \t \n"
      "1 2 weight=7 extra tokens\n"
      "\t2  3\n"
      "3 1\r\n",
      2);
  EXPECT_EQ(g.NumVertices(), 3u);
  EXPECT_EQ(g.NumEdges(), 3u);
}

TEST(GraphIoTest, CompactsSparseIdsAndKeepsLabels) {
  const Graph g = ReadEdgeList("100 205\n205 4000000\n");
  EXPECT_EQ(g.NumVertices(), 3u);
  EXPECT_EQ(g.NumEdges(), 2u);
  // Labels preserve the original ids in first-seen order.
  EXPECT_EQ(g.LabelOf(0), 100u);
  EXPECT_EQ(g.LabelOf(1), 205u);
  EXPECT_EQ(g.LabelOf(2), 4000000u);
}

TEST(GraphIoTest, LabelsFollowFirstAppearance) {
  // Offsetting every id by 4e9 puts the id space far beyond 16x the pair
  // count, which takes the sorted-distinct-set lookup instead of the dense
  // table; both must number by first appearance.
  for (const VertexId offset : {0u, 4000000000u}) {
    std::string text;
    for (const auto& [u, v] : std::vector<std::pair<VertexId, VertexId>>{
             {9, 3}, {3, 7}, {7, 9}, {1, 9}}) {
      text += std::to_string(offset + u) + " " + std::to_string(offset + v) +
              "\n";
    }
    for (const unsigned threads : kThreadCounts) {
      SCOPED_TRACE("offset=" + std::to_string(offset) +
                   " threads=" + std::to_string(threads));
      const Graph g = ReadEdgeList(text, threads);
      ASSERT_EQ(g.NumVertices(), 4u);
      EXPECT_EQ(g.LabelsOf(std::vector<VertexId>{0, 1, 2, 3}),
                (std::vector<VertexId>{offset + 9, offset + 3, offset + 7,
                                       offset + 1}));
      // Vertex 0 (raw 9) neighbors raw 3, 7 and 1 = ids 1, 2, 3.
      EXPECT_EQ(std::vector<VertexId>(g.Neighbors(0).begin(),
                                      g.Neighbors(0).end()),
                (std::vector<VertexId>{1, 2, 3}));
    }
  }
}

TEST(GraphIoTest, MatchesFirstAppearanceReferenceAtEveryThreadCount) {
  // Enough lines that every thread count splits the text into many
  // chunks, with repeated, reversed and self-loop pairs throughout.
  for (const VertexId offset : {0u, 4000000000u}) {
    std::vector<std::pair<VertexId, VertexId>> pairs;
    std::uint64_t state = 12345;
    const auto next = [&state] {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      return static_cast<VertexId>(state >> 41) % 3000;
    };
    for (int i = 0; i < 20000; ++i) pairs.emplace_back(next(), next());
    std::string text;
    for (auto& [u, v] : pairs) {
      u += offset;
      v += offset;
      text += std::to_string(u) + " " + std::to_string(v) + "\n";
    }
    const std::string reference =
        GraphFingerprint(FirstAppearanceReference(pairs));
    for (const unsigned threads : kThreadCounts) {
      EXPECT_EQ(GraphFingerprint(ReadEdgeList(text, threads)), reference)
          << "offset=" << offset << " threads=" << threads;
    }
  }
}

TEST(GraphIoTest, RoundTripMatchesWrittenGraph) {
  for (const Graph& g :
       {RandomConnectedGraph(50, 80, 1), BarabasiAlbert(3000, 3, 4),
        GridGraph(20, 20)}) {
    std::ostringstream text;
    WriteEdgeList(g, text);
    for (const unsigned threads : kThreadCounts) {
      EXPECT_EQ(CanonicalFingerprint(ReadEdgeList(text.str(), threads)),
                CanonicalFingerprint(g))
          << "threads=" << threads;
    }
  }
}

TEST(GraphIoTest, ThreadCountInvariant) {
  std::ostringstream text;
  WriteEdgeList(BarabasiAlbert(5000, 4, 13), text);
  const std::string reference = GraphFingerprint(ReadEdgeList(text.str()));
  for (const unsigned threads : kThreadCounts) {
    EXPECT_EQ(GraphFingerprint(ReadEdgeList(text.str(), threads)), reference)
        << "threads=" << threads;
  }
}

TEST(GraphIoTest, DuplicatesAndSelfLoops) {
  // Duplicate edges collapse (in either direction); a self-loop keeps the
  // vertex but contributes no edge.
  const Graph g = ReadEdgeList("1 2\n2 1\n1 2\n5 5\n", 2);
  ASSERT_EQ(g.NumVertices(), 3u);
  EXPECT_EQ(g.NumEdges(), 1u);
  EXPECT_EQ(g.LabelOf(2), 5u);
  EXPECT_TRUE(g.Neighbors(2).empty());
}

TEST(GraphIoTest, MalformedInputNamesFirstBadLineInFileOrder) {
  const auto expect_throws_line = [](const std::string& text,
                                     const std::string& needle) {
    for (const unsigned threads : kThreadCounts) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      ExpectThrowMentioning([&] { ReadEdgeList(text, threads); }, needle);
    }
  };
  expect_throws_line("0 1\nbogus line\n", "line 2");
  expect_throws_line("1 2\n3\n", "line 2");            // missing endpoint
  expect_throws_line("1 -2\n", "line 1");              // negative id
  expect_throws_line("99999999999 1\n", "line 1");     // > 32-bit id
  // Two bad lines in different chunks: the *first in file order* wins
  // regardless of which chunk parses first.
  std::string text;
  text += "nope\n";
  for (int i = 0; i < 5000; ++i) text += "1 2\n";
  text += "also bad\n";
  expect_throws_line(text, "line 1");
}

TEST(GraphIoTest, EmptyInputYieldsEmptyGraph) {
  for (const unsigned threads : kThreadCounts) {
    EXPECT_EQ(ReadEdgeList("", threads).NumVertices(), 0u);
    EXPECT_EQ(ReadEdgeList("# nothing\n\n", threads).NumVertices(), 0u);
  }
}

// ---- files --------------------------------------------------------------

TEST(GraphIoTest, FileIdAbove32BitsThrowsNamingTheLine) {
  // Not truncated into label space: 4294967296 would otherwise become a
  // second vertex labeled 0.
  const std::string path =
      WriteTempFile("above_32_bits.txt", "0 4294967296\n1 0\n");
  ExpectThrowMentioning([&] { ReadEdgeListFile(path); }, "line 1");
}

TEST(GraphIoTest, FileNegativeIdThrows) {
  const std::string path = WriteTempFile("negative.txt", "1 -2\n");
  ExpectThrowMentioning([&] { ReadEdgeListFile(path); }, "line 1");
}

TEST(GraphIoTest, FileThatIsADirectoryThrows) {
  const std::string dir = ::testing::TempDir();
  ExpectThrowMentioning([&] { ReadEdgeListFile(dir); }, dir);
}

TEST(GraphIoTest, EmptyAndCommentsOnlyFilesHaveNoVertices) {
  for (const auto& [name, text] :
       std::vector<std::pair<std::string, std::string>>{
           {"empty.txt", ""}, {"comments_only.txt", "# nodes 0\n% none\n"}}) {
    const Graph g = ReadEdgeListFile(WriteTempFile(name, text));
    EXPECT_EQ(g.NumVertices(), 0u) << name;
    EXPECT_EQ(g.NumEdges(), 0u) << name;
  }
}

TEST(GraphIoTest, ThrowsOnMissingFile) {
  ExpectThrowMentioning(
      [] { ReadEdgeListFile("/nonexistent/path/graph.txt"); },
      "/nonexistent/path/graph.txt");
}

TEST(GraphIoTest, FileRoundTrip) {
  const Graph g = ReadEdgeList("5 7\n7 9\n9 5\n9 11\n");
  const std::string path = ::testing::TempDir() + "/kvcc_io_test.txt";
  WriteEdgeListFile(g, path);
  for (const unsigned threads : kThreadCounts) {
    EXPECT_EQ(GraphFingerprint(ReadEdgeListFile(path, threads)),
              GraphFingerprint(g))
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace kvcc
