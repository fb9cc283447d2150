#include "graph/flow_graph.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace pnp::graph {

int FlowGraph::add_node(NodeKind kind, std::string text) {
  nodes_.push_back(Node{kind, std::move(text)});
  return static_cast<int>(nodes_.size()) - 1;
}

void FlowGraph::add_edge(int src, int dst, EdgeRelation rel, int position) {
  PNP_CHECK_MSG(src >= 0 && src < num_nodes() && dst >= 0 && dst < num_nodes(),
                "edge endpoint out of range: " << src << " -> " << dst);
  edges_.push_back(Edge{src, dst, rel, position});
}

int FlowGraph::count_kind(NodeKind k) const {
  int c = 0;
  for (const auto& n : nodes_)
    if (n.kind == k) ++c;
  return c;
}

int FlowGraph::count_relation(EdgeRelation r) const {
  int c = 0;
  for (const auto& e : edges_)
    if (e.rel == r) ++c;
  return c;
}

std::vector<int> GraphTensors::in_degree(int relation) const {
  PNP_CHECK(relation >= 0 && relation < kNumModelRelations);
  std::vector<int> deg(static_cast<std::size_t>(num_nodes), 0);
  for (const auto& [src, dst] : rel_edges[static_cast<std::size_t>(relation)])
    ++deg[static_cast<std::size_t>(dst)];
  return deg;
}

void GraphTensors::finalize() const { row_plan(); }

void GraphTensors::finalize_backward() const {
  finalize();
  source_index();
}

const RelationCsr& GraphTensors::csr(int relation) const {
  PNP_CHECK(relation >= 0 && relation < kNumModelRelations);
  const auto ri = static_cast<std::size_t>(relation);
  const auto& edges = rel_edges[ri];
  RelationCsr& c = csr_[ri];
  if (csr_built_[ri] && csr_edges_[ri] == edges.size() &&
      csr_nodes_[ri] == num_nodes)
    return c;

  const auto n = static_cast<std::size_t>(num_nodes);
  c.row_offset.assign(n + 1, 0);
  // Counting sort by target; the fill below is stable, so each target's
  // sources keep the order the edges were added in.
  for (const auto& [src, dst] : edges) {
    PNP_CHECK_MSG(src >= 0 && src < num_nodes && dst >= 0 && dst < num_nodes,
                  "edge endpoint out of range: " << src << " -> " << dst);
    ++c.row_offset[static_cast<std::size_t>(dst) + 1];
  }
  for (std::size_t i = 0; i < n; ++i) c.row_offset[i + 1] += c.row_offset[i];

  c.src.resize(edges.size());
  std::vector<int> cursor(c.row_offset.begin(), c.row_offset.end() - 1);
  for (const auto& [src, dst] : edges)
    c.src[static_cast<std::size_t>(cursor[static_cast<std::size_t>(dst)]++)] =
        src;

  std::size_t active = 0;
  for (std::size_t i = 0; i < n; ++i)
    active += c.row_offset[i + 1] > c.row_offset[i] ? 1 : 0;
  c.active_dst.clear();
  c.inv_deg.clear();
  c.active_dst.reserve(active);
  c.inv_deg.reserve(active);
  for (std::size_t i = 0; i < n; ++i) {
    const int deg = c.row_offset[i + 1] - c.row_offset[i];
    if (deg == 0) continue;
    c.active_dst.push_back(static_cast<int>(i));
    c.inv_deg.push_back(1.0 / static_cast<double>(deg));
  }

  csr_edges_[ri] = edges.size();
  csr_nodes_[ri] = num_nodes;
  csr_built_[ri] = true;
  return c;
}

const RowPlan& GraphTensors::row_plan() const {
  static_assert(kNumModelRelations <= 8, "signatures are 8-bit masks");
  for (int r = 0; r < kNumModelRelations; ++r) csr(r);
  if (plan_nodes_ == num_nodes && plan_edges_ == csr_edges_) return plan_;

  const auto n = static_cast<std::size_t>(num_nodes);
  constexpr std::size_t kRel = kNumModelRelations;
  constexpr std::size_t kSigs = std::size_t{1} << kRel;
  // Signatures and, per (node, relation), the node's compressed M row.
  std::vector<std::uint8_t> sig(n, 0);
  std::vector<int> rank(n * kRel, -1);
  std::size_t pairs = 0;
  for (std::size_t r = 0; r < kRel; ++r) {
    const auto& active = csr_[r].active_dst;
    pairs += active.size();
    for (std::size_t idx = 0; idx < active.size(); ++idx) {
      const auto t = static_cast<std::size_t>(active[idx]);
      sig[t] = static_cast<std::uint8_t>(sig[t] | (1u << r));
      rank[t * kRel + r] = static_cast<int>(idx);
    }
  }

  // Counting sort by signature; stable, so node ids ascend within one.
  std::array<int, kSigs + 1> start{};
  for (std::uint8_t s : sig) ++start[s + std::size_t{1}];
  std::size_t tiles = 0;
  for (std::size_t s = 0; s < kSigs; ++s) {
    tiles += static_cast<std::size_t>(
        (start[s + 1] + RowPlan::kTileRows - 1) / RowPlan::kTileRows);
    start[s + 1] += start[s];
  }
  RowPlan& p = plan_;
  p.order.resize(n);
  std::array<int, kSigs> cursor{};
  std::copy(start.begin(), start.end() - 1, cursor.begin());
  for (std::size_t i = 0; i < n; ++i)
    p.order[static_cast<std::size_t>(cursor[sig[i]]++)] = static_cast<int>(i);

  // Cut each signature's run into tiles and lay out their M-row maps.
  // Exact reserves: the plan lives as long as the tensors.
  p.tile_start.clear();
  p.tile_sig.clear();
  p.tile_mrow.clear();
  p.mrow.clear();
  p.tile_start.reserve(tiles + 1);
  p.tile_sig.reserve(tiles);
  p.tile_mrow.reserve(tiles);
  p.mrow.reserve(pairs);
  for (std::size_t s = 0; s < kSigs; ++s) {
    for (int t0 = start[s]; t0 < start[s + 1]; t0 += RowPlan::kTileRows) {
      const int t1 = std::min(t0 + RowPlan::kTileRows, start[s + 1]);
      p.tile_start.push_back(t0);
      p.tile_sig.push_back(static_cast<std::uint8_t>(s));
      p.tile_mrow.push_back(static_cast<int>(p.mrow.size()));
      for (std::size_t r = 0; r < kRel; ++r) {
        if (!((s >> r) & 1u)) continue;
        for (int i = t0; i < t1; ++i)
          p.mrow.push_back(
              rank[static_cast<std::size_t>(p.order[static_cast<std::size_t>(i)]) *
                       kRel +
                   r]);
      }
    }
  }
  p.tile_start.push_back(num_nodes);

  plan_edges_ = csr_edges_;
  plan_nodes_ = num_nodes;
  return p;
}

const SourceIndex& GraphTensors::source_index() const {
  for (int r = 0; r < kNumModelRelations; ++r) csr(r);
  if (sources_nodes_ == num_nodes && sources_edges_ == csr_edges_)
    return sources_;

  SourceIndex& si = sources_;
  const auto n = static_cast<std::size_t>(num_nodes);
  si.rel_base.assign(kNumModelRelations + 1, 0);
  std::size_t edges = 0;
  for (std::size_t r = 0; r < kNumModelRelations; ++r) {
    si.rel_base[r + 1] = si.rel_base[r] + csr_[r].num_active();
    edges += csr_[r].src.size();
  }

  // Counting sort of the (source, stacked row) pairs by source. Walking
  // relations, then active targets, then their CSR rows in order, and
  // filling stably, leaves each source's rows in that same order.
  si.offset.assign(n + 1, 0);
  for (const RelationCsr& c : csr_)
    for (int s : c.src) ++si.offset[static_cast<std::size_t>(s) + 1];
  for (std::size_t i = 0; i < n; ++i) si.offset[i + 1] += si.offset[i];
  si.row.resize(edges);
  std::vector<int> cursor(si.offset.begin(), si.offset.end() - 1);
  for (std::size_t r = 0; r < kNumModelRelations; ++r) {
    const RelationCsr& c = csr_[r];
    for (int idx = 0; idx < c.num_active(); ++idx) {
      const auto t =
          static_cast<std::size_t>(c.active_dst[static_cast<std::size_t>(idx)]);
      for (int e = c.row_offset[t]; e < c.row_offset[t + 1]; ++e) {
        const auto s =
            static_cast<std::size_t>(c.src[static_cast<std::size_t>(e)]);
        si.row[static_cast<std::size_t>(cursor[s]++)] = si.rel_base[r] + idx;
      }
    }
  }

  sources_edges_ = csr_edges_;
  sources_nodes_ = num_nodes;
  return si;
}

}  // namespace pnp::graph
