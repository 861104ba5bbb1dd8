#include "graph/graph.h"

#include <algorithm>

#include "common/macros.h"

namespace wqe::graph {

const char* NodeKindToString(NodeKind kind) {
  switch (kind) {
    case NodeKind::kArticle:
      return "article";
    case NodeKind::kCategory:
      return "category";
  }
  return "?";
}

const char* EdgeKindToString(EdgeKind kind) {
  switch (kind) {
    case EdgeKind::kLink:
      return "link";
    case EdgeKind::kBelongs:
      return "belongs";
    case EdgeKind::kInside:
      return "inside";
    case EdgeKind::kRedirect:
      return "redirect";
  }
  return "?";
}

NodeId PropertyGraph::AddNode(NodeKind kind) {
  NodeId id = static_cast<NodeId>(kinds_.size());
  kinds_.push_back(kind);
  out_.emplace_back();
  in_.emplace_back();
  return id;
}

Status PropertyGraph::CheckNode(NodeId n) const {
  if (n >= kinds_.size()) {
    return Status::OutOfRange("node id ", n, " out of range (", kinds_.size(),
                              " nodes)");
  }
  return Status::OK();
}

Status PropertyGraph::AddEdge(NodeId src, NodeId dst, EdgeKind kind) {
  WQE_RETURN_NOT_OK(CheckNode(src));
  WQE_RETURN_NOT_OK(CheckNode(dst));
  if (src == dst) {
    return Status::InvalidArgument("self-loop on node ", src);
  }
  // Schema validation per Figure 1.
  auto bad_schema = [&]() {
    return Status::InvalidArgument(
        "edge kind ", EdgeKindToString(kind), " cannot connect ",
        NodeKindToString(kinds_[src]), " -> ", NodeKindToString(kinds_[dst]));
  };
  switch (kind) {
    case EdgeKind::kLink:
    case EdgeKind::kRedirect:
      if (kinds_[src] != NodeKind::kArticle ||
          kinds_[dst] != NodeKind::kArticle) {
        return bad_schema();
      }
      break;
    case EdgeKind::kBelongs:
      if (kinds_[src] != NodeKind::kArticle ||
          kinds_[dst] != NodeKind::kCategory) {
        return bad_schema();
      }
      break;
    case EdgeKind::kInside:
      if (kinds_[src] != NodeKind::kCategory ||
          kinds_[dst] != NodeKind::kCategory) {
        return bad_schema();
      }
      break;
  }
  if (HasEdge(src, dst, kind)) {
    return Status::AlreadyExists("edge ", src, " -> ", dst, " (",
                                 EdgeKindToString(kind), ") already present");
  }
  out_[src].push_back(Edge{dst, kind});
  in_[dst].push_back(Edge{src, kind});
  ++num_edges_;
  ++edge_kind_counts_[static_cast<size_t>(kind)];
  return Status::OK();
}

bool PropertyGraph::HasEdge(NodeId src, NodeId dst, EdgeKind kind) const {
  if (src >= out_.size()) return false;
  const auto& edges = out_[src];
  return std::find(edges.begin(), edges.end(), Edge{dst, kind}) !=
         edges.end();
}

size_t PropertyGraph::CountNodes(NodeKind kind) const {
  size_t n = 0;
  for (NodeKind k : kinds_) {
    if (k == kind) ++n;
  }
  return n;
}

size_t PropertyGraph::CountEdges(EdgeKind kind) const {
  return edge_kind_counts_[static_cast<size_t>(kind)];
}

}  // namespace wqe::graph
