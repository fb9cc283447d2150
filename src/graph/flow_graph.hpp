#pragma once

/// \file flow_graph.hpp
/// The flow-aware program multigraph of PROGRAML (Cummins et al., ICML'21),
/// as used by the paper (§II-A, §III-A): one vertex per instruction,
/// separate vertices for variables and constants, and typed edges for
/// control, data, and call flow.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace pnp::graph {

enum class NodeKind : std::uint8_t {
  Instruction = 0,
  Variable = 1,
  Constant = 2,
};
inline constexpr int kNumNodeKinds = 3;

enum class EdgeRelation : std::uint8_t {
  Control = 0,  ///< instruction → instruction program order / branches
  Data = 1,     ///< def: instruction → variable; use: variable/const → instr
  Call = 2,     ///< call site ↔ callee entry/exit
};
inline constexpr int kNumEdgeRelations = 3;

/// Number of relations the GNN sees: each edge type contributes a forward
/// and a backward relation (RGCN with inverse relations).
inline constexpr int kNumModelRelations = 2 * kNumEdgeRelations;

struct Node {
  NodeKind kind = NodeKind::Instruction;
  /// The node's text token, e.g. "fmul f64", "var i64", "const f64".
  /// This is what the vocabulary embeds (the paper's "IR code block" node
  /// feature).
  std::string text;
};

struct Edge {
  int src = -1;
  int dst = -1;
  EdgeRelation rel = EdgeRelation::Control;
  /// Operand position (data) or successor ordinal (control); keeps the
  /// construction deterministic and testable.
  int position = 0;
};

/// A flow-aware multigraph for one OpenMP region.
class FlowGraph {
 public:
  std::string name;

  int add_node(NodeKind kind, std::string text);
  void add_edge(int src, int dst, EdgeRelation rel, int position = 0);

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  int num_edges() const { return static_cast<int>(edges_.size()); }

  const Node& node(int i) const { return nodes_[static_cast<std::size_t>(i)]; }
  const std::vector<Node>& nodes() const { return nodes_; }
  const std::vector<Edge>& edges() const { return edges_; }

  /// Count of nodes of a given kind.
  int count_kind(NodeKind k) const;

  /// Count of edges of a given relation.
  int count_relation(EdgeRelation r) const;

 private:
  std::vector<Node> nodes_;
  std::vector<Edge> edges_;
};

/// Compressed-sparse-row view of one model relation, grouped by target
/// node: the sources aggregated by target `t` are
/// `src[row_offset[t] .. row_offset[t+1])`, in the order the edges were
/// added. `active_dst` lists, in ascending order, exactly the targets with
/// at least one in-edge — the only rows a message-passing kernel needs to
/// visit — and `inv_deg[i]` is the RGCN normalization constant 1/c_{t,r}
/// of its i-th entry t.
struct RelationCsr {
  std::vector<int> row_offset;  ///< size num_nodes + 1
  std::vector<int> src;         ///< edge sources grouped by target
  std::vector<int> active_dst;  ///< targets with deg > 0, ascending
  std::vector<double> inv_deg;  ///< size num_active(); 1/deg of active_dst[i]

  int num_edges() const { return static_cast<int>(src.size()); }
  int num_active() const { return static_cast<int>(active_dst.size()); }
};

/// The target rows of one graph grouped for the fused RGCN layer kernel
/// (nn::rgcn_layer). A node's signature is the bitmask of the relations in
/// which it has at least one in-edge. `order` lists the nodes sorted by
/// signature (ascending node ids within one signature), and is cut into
/// tiles of at most kTileRows nodes that share one signature, so every row
/// of a tile accumulates the same relations. For tile t:
///  - its nodes are `order[tile_start[t] .. tile_start[t+1])`;
///  - `tile_sig[t]` is their common signature;
///  - `mrow[tile_mrow[t] ..]` holds, for each relation of the signature in
///    ascending order, one row index per tile node into that relation's
///    compressed aggregate — the node's position in RelationCsr::active_dst.
struct RowPlan {
  static constexpr int kTileRows = 8;

  std::vector<int> order;
  std::vector<int> tile_start;  ///< size num_tiles() + 1
  std::vector<std::uint8_t> tile_sig;
  std::vector<int> tile_mrow;  ///< size num_tiles()
  std::vector<int> mrow;

  int num_tiles() const { return static_cast<int>(tile_sig.size()); }
};

/// The reverse index of the RGCN backward's gather pass (nn::rgcn_gather).
/// The compressed rows of all relations are stacked in ascending relation
/// order: relation r's i-th active target (RelationCsr::active_dst[i]) is
/// stacked row rel_base[r] + i. Node s receives, in this order, the stacked
/// rows `row[offset[s] .. offset[s+1])`: relations ascending, then target
/// positions ascending, one entry per edge (a duplicate edge repeats its
/// row) — the order in which a scatter over each relation's CSR rows would
/// reach s. So each node's rows are non-decreasing.
struct SourceIndex {
  std::vector<int> rel_base;  ///< size kNumModelRelations + 1
  std::vector<int> offset;    ///< size num_nodes + 1
  std::vector<int> row;       ///< one entry per edge

  int num_rows() const { return rel_base.empty() ? 0 : rel_base.back(); }
};

/// Edge lists regrouped per model relation (3 edge types × 2 directions) —
/// the compact form consumed by the RGCN. Relation index = 2*rel + dir,
/// dir 0 = forward (src→dst as stored), dir 1 = reversed.
struct GraphTensors {
  std::string name;
  int num_nodes = 0;
  std::vector<int> token;  ///< vocabulary id per node
  std::vector<int> kind;   ///< NodeKind per node as int
  /// For each model relation: list of (source, target) pairs meaning
  /// "target aggregates source".
  std::array<std::vector<std::pair<int, int>>, kNumModelRelations> rel_edges;

  /// In-degree of each node under one model relation (normalization
  /// constants c_{i,r} of the RGCN).
  std::vector<int> in_degree(int relation) const;

  /// Build the per-relation CSR forms and the row plan now. `to_tensors`
  /// calls this once at construction; calling it again after `rel_edges`
  /// grew rebuilds only the changed relations (and the plan). Safe to
  /// skip: csr() and row_plan() build lazily.
  void finalize() const;

  /// finalize() plus the backward pass's source index. A trainer calls
  /// this before its workers share the graph; encoding alone never needs
  /// the index, so the serving path does not build it.
  void finalize_backward() const;

  /// CSR view of one model relation. Lazily (re)built when the relation's
  /// edge-list size or the node count changed since the last build, so
  /// hand-assembled tensors (tests) work without an explicit finalize().
  /// Caveat: rewriting an existing edge in place (same list size) is not
  /// detected — call finalize() on a fresh relation list instead. Not
  /// thread-safe on first access — finalize() before sharing across
  /// threads.
  const RelationCsr& csr(int relation) const;

  /// Row plan over the current CSR forms: lazily (re)built, with the same
  /// staleness rule and thread-safety caveat as csr().
  const RowPlan& row_plan() const;

  /// Source index over the current CSR forms: lazily (re)built, with the
  /// same staleness rule and thread-safety caveat as csr().
  const SourceIndex& source_index() const;

 private:
  mutable std::array<RelationCsr, kNumModelRelations> csr_;
  mutable std::array<std::size_t, kNumModelRelations> csr_edges_{};
  mutable std::array<int, kNumModelRelations> csr_nodes_{};
  mutable std::array<bool, kNumModelRelations> csr_built_{};
  mutable RowPlan plan_;
  /// The CSR shapes (csr_edges_, csr_nodes_) plan_ was built from.
  mutable std::array<std::size_t, kNumModelRelations> plan_edges_{};
  mutable int plan_nodes_ = -1;
  mutable SourceIndex sources_;
  /// The CSR shapes sources_ was built from.
  mutable std::array<std::size_t, kNumModelRelations> sources_edges_{};
  mutable int sources_nodes_ = -1;
};

}  // namespace pnp::graph
