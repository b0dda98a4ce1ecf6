#include "kvcc/flow_graph.h"

#include <algorithm>
#include <cassert>

namespace kvcc {

// Warm-path: a pointer plus grow-only sizing; reads no graph.
// kvcc-lint: no-alloc
void DirectedFlowGraph::Bind(const Graph& g) {
  ResetFlow();
  graph_ = &g;
  const std::size_t n = g.NumVertices();
  if (prv_.size() < n) {
    prv_.resize(n, kNone);           // kvcc-lint: reserved
    nxt_.resize(n, kNone);           // kvcc-lint: reserved
    touched_epoch_.resize(n, 0);     // kvcc-lint: reserved
    sink_nbr_epoch_.resize(n, 0);    // kvcc-lint: reserved
    // New nodes carry epoch 0, which never equals a live phase epoch.
    node_.resize(2 * n);             // kvcc-lint: reserved
  }
}

// Warm-path: O(touched) undo of the last probe's flow.
// kvcc-lint: no-alloc
void DirectedFlowGraph::ResetFlow() {
  for (const VertexId v : touched_) {
    prv_[v] = kNone;
    nxt_[v] = kNone;
  }
  touched_.clear();
  if (++reset_epoch_ == 0) {  // Epoch wrapped: invalidate all stamps.
    std::fill(touched_epoch_.begin(), touched_epoch_.end(), 0);
    std::fill(sink_nbr_epoch_.begin(), sink_nbr_epoch_.end(), 0);
    reset_epoch_ = 1;
  }
}

void DirectedFlowGraph::StartProbe(VertexId u, VertexId v) {
  assert(graph_ != nullptr);
  assert(u != v);
  // Lemma 5; the sink rule below never scans a direct s -> t edge.
  assert(!graph_->HasEdge(u, v));
  ResetFlow();
  source_ = u;
  sink_ = v;
  const auto nbrs = graph_->Neighbors(v);
  for (const VertexId x : nbrs) sink_nbr_epoch_[x] = reset_epoch_;
  work_arcs_ += nbrs.size();
}

void DirectedFlowGraph::NextPhase() {
  if (++phase_epoch_ == 0) {  // Epoch wrapped: invalidate all stamps.
    for (NodeState& state : node_) state.epoch = 0;
    phase_epoch_ = 1;
  }
}

// kvcc-lint: no-alloc
void DirectedFlowGraph::Touch(VertexId v) {
  if (touched_epoch_[v] != reset_epoch_) {
    touched_epoch_[v] = reset_epoch_;
    touched_.push_back(v);  // kvcc-lint: reserved
  }
}

std::uint32_t DirectedFlowGraph::SlotTarget(std::uint32_t node,
                                            std::uint32_t slot) const {
  const VertexId x = node >> 1;
  if ((node & 1) == 0) return OutNode(prv_[x] == kNone ? x : prv_[x]);
  const auto nbrs = graph_->Neighbors(x);
  if (slot == nbrs.size()) return prv_[x] != kNone ? InNode(x) : kNone;
  return Carries(x, nbrs[slot]) ? kNone : InNode(nbrs[slot]);
}

// Warm-path: one level BFS per Dinic phase on pooled buffers.
// kvcc-lint: no-alloc
bool DirectedFlowGraph::BuildLevels() {
  NextPhase();
  const std::uint32_t s = OutNode(source_);
  queue_.clear();
  Visit(s, 0);
  queue_.push_back(s);  // kvcc-lint: reserved
  std::uint64_t work = 0;
  // The sink's level is one past the first out-node labeled that feeds it:
  // t_in is entered only over edge arcs x_out -> t_in, and the source does
  // not feed it (non-adjacent endpoints). Once it is known the BFS only
  // finishes the level in progress (in-nodes, one slot each), so every
  // out-node one level below the sink is labeled and none of their rows
  // is scanned.
  sink_level_ = kNone;
  std::uint32_t level = 0;
  // Levels w at `level`; true when w was not labeled yet.
  auto reach = [&](std::uint32_t w) {
    if (Seen(w)) return false;
    Visit(w, level);
    queue_.push_back(w);  // kvcc-lint: reserved
    return true;
  };
  for (std::size_t head = 0; head < queue_.size(); ++head) {
    const std::uint32_t node = queue_[head];
    const VertexId x = node >> 1;
    level = node_[node].level + 1;
    if (level >= sink_level_) break;
    if ((node & 1) == 0) {
      ++work;
      const VertexId y = prv_[x] == kNone ? x : prv_[x];
      if (reach(OutNode(y)) && sink_level_ == kNone) {
        ++work;
        if (FeedsSink(y)) sink_level_ = level + 1;
      }
      continue;
    }
    // Carries(x, y), split by source so that each loop compares against
    // values loaded once: reach() writes through pointers the compiler
    // cannot tell apart from the flow links.
    const auto nbrs = graph_->Neighbors(x);
    work += nbrs.size() + 1;
    if (x == source_) {
      for (const VertexId y : nbrs) {
        if (prv_[y] != x) reach(InNode(y));
      }
    } else {
      const VertexId flow_head = nxt_[x];
      for (const VertexId y : nbrs) {
        if (y != flow_head) reach(InNode(y));
      }
    }
    if (prv_[x] != kNone) reach(InNode(x));
  }
  work_arcs_ += work;
  if (sink_level_ == kNone) return false;
  Visit(InNode(sink_), sink_level_);
  return true;
}

// Warm-path: augmenting-path DFS over pooled cursors and path stack.
// kvcc-lint: no-alloc
bool DirectedFlowGraph::FindAugmentingPath() {
  const std::uint32_t t = InNode(sink_);
  path_.clear();
  std::uint32_t u = OutNode(source_);
  std::uint64_t work = 0;
  while (true) {
    if (u == t) {
      work_arcs_ += work;
      Augment();
      return true;
    }
    // u is on a path from the source, so the level BFS seeded its state.
    NodeState& state = node_[u];
    const std::uint32_t want = state.level + 1;
    // One level further. The BFS labels nothing at the sink's level but t,
    // which only the want == sink_level_ branch below may return.
    auto admissible = [&](std::uint32_t w) { return LevelOf(w) == want; };
    std::uint32_t next = kNone;
    if ((u & 1) == 0) {
      if (state.cursor == 0) {
        ++work;
        const std::uint32_t w = SlotTarget(u, 0);
        if (admissible(w)) {
          next = w;
        } else {
          state.cursor = 1;
        }
      }
    } else if (want == sink_level_) {
      // One level below the sink the only admissible head is t, which x_in
      // never is: one check decides the node. After x -> t is augmented
      // nxt[x] == t, so x is a dead end for the rest of the phase.
      ++work;
      if (FeedsSink(u >> 1)) next = t;
    } else {
      // SlotTarget's out-node case, unrolled over the CSR row: this scan
      // and the level BFS are where a probe spends its time.
      const VertexId x = u >> 1;
      const auto nbrs = graph_->Neighbors(x);
      const auto deg = static_cast<std::uint32_t>(nbrs.size());
      for (; state.cursor < deg; ++state.cursor) {
        ++work;
        const VertexId y = nbrs[state.cursor];
        if (!Carries(x, y) && admissible(InNode(y))) {
          next = InNode(y);
          break;
        }
      }
      if (state.cursor == deg) {
        ++work;
        if (prv_[x] != kNone && admissible(InNode(x))) {
          next = InNode(x);
        } else {
          ++state.cursor;
        }
      }
    }
    if (next == kNone) {
      state.level = kNone;  // Dead end within this phase.
      if (path_.empty()) {
        work_arcs_ += work;
        return false;
      }
      u = path_.back();  // Retreat; u's cursor re-checks the dead arc.
      path_.pop_back();
    } else {
      path_.push_back(u);  // kvcc-lint: reserved
      u = next;
    }
  }
}

// kvcc-lint: no-alloc
void DirectedFlowGraph::Augment() {
  const std::size_t len = path_.size();
  for (std::size_t i = 0; i < len; ++i) {
    const std::uint32_t a = path_[i];
    const std::uint32_t b = i + 1 < len ? path_[i + 1] : InNode(sink_);
    const VertexId x = a >> 1;
    const VertexId y = b >> 1;
    if (x == y) continue;  // A vertex arc: implied by the edge links.
    if ((a & 1) != 0) {    // Push x -> y.
      if (y != sink_) {
        prv_[y] = x;
        Touch(y);
      }
      if (x != source_) {
        nxt_[x] = y;
        Touch(x);
      }
    } else {  // Cancel y -> x, unless an earlier step already rewired it.
      if (prv_[x] == y) prv_[x] = kNone;
      if (nxt_[y] == x) nxt_[y] = kNone;
    }
  }
}

// kvcc-lint: no-alloc
std::int32_t DirectedFlowGraph::MaxFlow(std::int32_t limit) {
  std::int32_t flow = 0;
  while (flow < limit && BuildLevels()) {
    while (flow < limit && FindAugmentingPath()) ++flow;
  }
  return flow;
}

// Warm-path: the LocalVC greedy probe engine; stamps, cursors, and the
// path stack are all pooled members.
// kvcc-lint: no-alloc
DirectedFlowGraph::LocalFlowResult DirectedFlowGraph::MaxFlowLocal(
    std::int32_t limit, std::uint64_t budget) {
  const std::uint32_t s = OutNode(source_);
  const std::uint32_t t = InNode(sink_);
  LocalFlowResult result;
  while (result.flow < limit) {
    // One greedy DFS pass over the residual graph. Visit stamps and the
    // per-node cursors persist across every augmentation found within the
    // pass, so growing several short disjoint paths costs one exploration
    // instead of one restart per path. The price: a stamp left by an
    // earlier augmentation of the same pass can hide a residual path that
    // only opened up behind it — so a pass that found flow proves nothing,
    // and only a pass that augments NOTHING is a complete residual
    // reachability search from s proving the flow maximum, having
    // inspected only slots of the residual-reachable set.
    NextPhase();
    path_.clear();
    Visit(s, 0);
    std::uint32_t u = s;
    std::int32_t pass_flow = 0;
    while (true) {
      if (u == t) {
        Augment();
        ++result.flow;
        ++pass_flow;
        if (result.flow >= limit) {
          result.exact = true;  // Hit the limit: kappa certified.
          return result;
        }
        // Same pass, next path: restart from s keeping stamps and cursors.
        // The just-used slots are no longer residual, and the used
        // intermediate nodes stay stamped — rerouting *through* them is
        // the next pass's job.
        path_.clear();
        u = s;
        continue;
      }
      NodeState& state = node_[u];
      const std::uint32_t slots = NumSlots(u);
      std::uint32_t next = kNone;
      for (; state.cursor < slots; ++state.cursor) {
        if (budget == 0) return result;  // Budget spent: inexact.
        --budget;
        ++work_arcs_;
        const std::uint32_t w = SlotTarget(u, state.cursor);
        if (w != kNone && !Seen(w)) {
          next = w;
          break;
        }
      }
      if (next == kNone) {
        if (path_.empty()) break;  // s exhausted: pass over.
        u = path_.back();          // Retreat.
        path_.pop_back();
      } else {
        path_.push_back(u);  // kvcc-lint: reserved
        u = next;
        // Never stamp t, so later paths of this pass may reach it again.
        if (u != t) Visit(u, 0);  // Level is unused in this mode.
      }
    }
    if (pass_flow == 0) {
      result.exact = true;  // t unreachable: flow is a true max flow.
      return result;
    }
  }
  result.exact = true;  // Hit the limit.
  return result;
}

// Warm-path: one exact Dinic probe on the pooled state.
// kvcc-lint: no-alloc
std::int32_t DirectedFlowGraph::LocalConnectivity(VertexId u, VertexId v,
                                                  std::int32_t limit) {
  StartProbe(u, v);
  return MaxFlow(limit);
}

std::vector<VertexId> DirectedFlowGraph::LocCut(VertexId u, VertexId v,
                                                std::uint32_t k) {
  if (u == v || graph_->HasEdge(u, v)) return {};  // Lemma 5.
  const std::int32_t flow =
      LocalConnectivity(u, v, static_cast<std::int32_t>(k));
  if (flow >= static_cast<std::int32_t>(k)) return {};
  return ExtractVertexCut();
}

DirectedFlowGraph::LocalProbeResult DirectedFlowGraph::LocCutLocal(
    VertexId u, VertexId v, std::uint32_t k, std::uint64_t slot_budget,
    int doublings) {
  LocalProbeResult result;
  if (u == v || graph_->HasEdge(u, v)) return result;  // Lemma 5.
  StartProbe(u, v);
  const auto limit = static_cast<std::int32_t>(k);
  std::int32_t flow = 0;
  for (int round = 0; round <= doublings; ++round, slot_budget *= 2) {
    const LocalFlowResult local = MaxFlowLocal(limit - flow, slot_budget);
    flow += local.flow;
    if (!local.exact) continue;  // Budget spent; retry doubled.
    if (flow < limit) result.cut = ExtractVertexCut();
    return result;
  }
  // Every local budget ran out: let Dinic finish from the partial flow —
  // max flow (and the minimal source-side cut) is independent of how the
  // flow so far was grown, so nothing local is wasted or re-derived.
  result.fell_back = true;
  flow += MaxFlow(limit - flow);
  if (flow < limit) result.cut = ExtractVertexCut();
  return result;
}

std::vector<VertexId> DirectedFlowGraph::ExtractVertexCut() {
  // Residual reachability from the source, as visit stamps of one phase.
  NextPhase();
  queue_.clear();
  Visit(OutNode(source_), 0);
  queue_.push_back(OutNode(source_));
  for (std::size_t head = 0; head < queue_.size(); ++head) {
    const std::uint32_t node = queue_[head];
    const std::uint32_t slots = NumSlots(node);
    for (std::uint32_t slot = 0; slot < slots; ++slot) {
      const std::uint32_t w = SlotTarget(node, slot);
      if (w != kNone && !Seen(w)) {
        Visit(w, 0);
        queue_.push_back(w);
      }
    }
  }

  // Every arc leaving the reachable set is saturated, and they carry the
  // whole flow (< k), so the cut has fewer than k candidates.
  std::vector<VertexId> cut;
  auto add = [&](VertexId w) {
    assert(w != source_ && w != sink_);
    if (std::find(cut.begin(), cut.end(), w) == cut.end()) cut.push_back(w);
  };
  for (const std::uint32_t node : queue_) {
    const VertexId a = node >> 1;
    if ((node & 1) == 0) {
      // Vertex arc a_in -> a_out crossing the cut: a itself is cut.
      if (!Seen(OutNode(a))) add(a);
      continue;
    }
    // Edge arcs a_out -> b_in crossing the cut. Any source-to-sink path
    // using such an arc must next traverse b's vertex arc, so removing b
    // also severs it — unless b is the sink, in which case the path came
    // through a's vertex arc and removing a works (a cannot be the source
    // because the endpoints are non-adjacent). Arcs into the source's
    // in-node never carry flow, so b is never the source.
    for (const VertexId b : graph_->Neighbors(a)) {
      if (!Seen(InNode(b))) add(b != sink_ ? b : a);
    }
  }
  assert(!cut.empty());
  std::sort(cut.begin(), cut.end());
  return cut;
}

}  // namespace kvcc
