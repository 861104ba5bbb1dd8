#pragma once

/// \file subgraph.h
/// \brief Induced-subgraph extraction (query graph assembly, §2.3).
///
/// A query graph G(q) is the subgraph of Wikipedia induced by X(q), the
/// main articles of redirects, and their categories.  The extraction keeps
/// a mapping back to the parent graph so analysis results can be reported
/// in terms of the original ids.

#include <span>
#include <vector>

#include "graph/csr.h"
#include "graph/graph.h"

namespace wqe::graph {

/// \brief Label-free CSR-native induced subgraph: local directed rows
/// sliced straight off a frozen snapshot's sorted out-rows by two-pointer
/// intersection with the sorted member list — no hash maps, no per-edge
/// schema re-checks.  Local ids ascend with parent ids (the same
/// convention as `UndirectedView` subsets), so structural results
/// transfer between the two without translation.
struct CsrSubgraph {
  const CsrGraph* parent = nullptr;
  /// Local node id → parent node id; sorted ascending (the member list).
  std::vector<NodeId> to_parent;
  /// Local directed CSR, rows sorted by (target, kind) like the parent's.
  std::vector<uint64_t> out_offsets;  ///< size num_nodes() + 1
  std::vector<NodeId> out_targets;    ///< local ids
  std::vector<EdgeKind> out_kinds;

  uint32_t num_nodes() const {
    return static_cast<uint32_t>(to_parent.size());
  }
  size_t num_edges() const { return out_targets.size(); }

  /// \brief Maps a parent id to a local id, or kInvalidNode when not
  /// included.  Binary search over `to_parent`.
  NodeId Local(NodeId parent_id) const;

  std::span<const NodeId> OutTargets(NodeId local) const {
    return std::span<const NodeId>(out_targets.data() + out_offsets[local],
                                   out_targets.data() + out_offsets[local + 1]);
  }
  std::span<const EdgeKind> OutKinds(NodeId local) const {
    return std::span<const EdgeKind>(out_kinds.data() + out_offsets[local],
                                     out_kinds.data() + out_offsets[local + 1]);
  }
  /// \brief Node kind, read through the parent snapshot.
  NodeKind kind(NodeId local) const { return parent->kind(to_parent[local]); }
};

/// \brief Builds the label-free subgraph of `csr` induced by `nodes`
/// (duplicates ignored).  All edges of all kinds between included nodes
/// are kept.
CsrSubgraph InduceCsr(const CsrGraph& csr, const std::vector<NodeId>& nodes);

}  // namespace wqe::graph
