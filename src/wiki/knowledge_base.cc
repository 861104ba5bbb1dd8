#include "wiki/knowledge_base.h"

#include <unordered_set>

#include "common/macros.h"
#include "common/string_util.h"

namespace wqe::wiki {

namespace {
constexpr std::string_view kCategoryPrefix = "category:";
}  // namespace

Status KnowledgeBase::CheckMutable() const {
  if (frozen_) {
    return Status::InvalidArgument(
        "knowledge base is frozen (Freeze() is one-way); finish building "
        "before freezing");
  }
  return Status::OK();
}

const graph::CsrGraph& KnowledgeBase::Freeze() {
  if (!frozen_) {
    csr_ = graph::CsrGraph::Freeze(graph_);
    graph_ = graph::PropertyGraph();  // one graph after Freeze: the CSR
    frozen_ = true;
  }
  return csr_;
}

const graph::PropertyGraph& KnowledgeBase::graph() const {
  WQE_CHECK(!frozen_);  // Freeze() released the builder; read csr()
  return graph_;
}

const graph::CsrGraph& KnowledgeBase::csr() const {
  WQE_CHECK(frozen_);  // Freeze() is the builder→serving bridge
  return csr_;
}

Result<KnowledgeBase> KnowledgeBase::FromSnapshot(
    graph::CsrGraph csr, std::vector<std::string> labels,
    std::vector<std::string> display_titles, size_t num_articles,
    size_t num_redirects, size_t num_categories) {
  const size_t n = csr.num_nodes();
  if (labels.size() != n || display_titles.size() != n) {
    return Status::InvalidArgument(
        "snapshot carries ", labels.size(), " labels and ",
        display_titles.size(), " display titles for ", n, " nodes");
  }
  const graph::CsrSections sections = csr.Sections();
  // Count the split from the node arrays themselves: the meta counts (the
  // graph's cached node-kind counts included) are untrusted and could wrap
  // if summed, so they are only ever compared.
  size_t graph_articles = 0, graph_redirects = 0, graph_categories = 0;
  for (NodeId u = 0; u < n; ++u) {
    if (sections.kinds[u] == graph::NodeKind::kCategory) {
      ++graph_categories;
    } else if (sections.redirect_target[u] != graph::kInvalidNode) {
      ++graph_redirects;
    } else {
      ++graph_articles;
    }
  }
  if (num_articles != graph_articles || num_redirects != graph_redirects ||
      num_categories != graph_categories ||
      sections.node_kind_counts[0] != graph_articles + graph_redirects ||
      sections.node_kind_counts[1] != graph_categories) {
    return Status::InvalidArgument(
        "snapshot entity counts (", num_articles, " articles, ",
        num_redirects, " redirects, ", num_categories,
        " categories) disagree with the graph (", graph_articles,
        " articles, ", graph_redirects, " redirects, ", graph_categories,
        " categories)");
  }
  KnowledgeBase kb;
  kb.csr_ = std::move(csr);
  kb.frozen_ = true;
  kb.num_articles_ = num_articles;
  kb.num_redirects_ = num_redirects;
  kb.num_categories_ = num_categories;
  kb.labels_ = std::move(labels);
  kb.display_titles_ = std::move(display_titles);
  // Rebuild the title index exactly as the builder populated it: the raw
  // label for articles, "category:"-prefixed for categories.
  kb.title_index_.reserve(n);
  for (NodeId u = 0; u < n; ++u) {
    std::string key = kb.csr_.IsCategory(u)
                          ? std::string(kCategoryPrefix) + kb.labels_[u]
                          : kb.labels_[u];
    auto [it, inserted] = kb.title_index_.emplace(std::move(key), u);
    if (!inserted) {
      return Status::InvalidArgument("snapshot title '", it->first,
                                     "' appears on nodes ", it->second,
                                     " and ", u);
    }
  }
  return kb;
}

Result<NodeId> KnowledgeBase::AddEntry(graph::NodeKind kind,
                                       std::string_view title,
                                       std::string_view index_key) {
  WQE_RETURN_NOT_OK(CheckMutable());
  std::string key(index_key);
  if (key.empty() ||
      (kind == graph::NodeKind::kCategory &&
       key.size() == kCategoryPrefix.size())) {
    return Status::InvalidArgument("empty title");
  }
  auto it = title_index_.find(key);
  if (it != title_index_.end()) {
    return Status::AlreadyExists("title '", key, "' already exists as node ",
                                 it->second);
  }
  NodeId id = graph_.AddNode(kind);
  labels_.emplace_back(kind == graph::NodeKind::kCategory
                           ? index_key.substr(kCategoryPrefix.size())
                           : index_key);
  display_titles_.emplace_back(title);
  title_index_.emplace(std::move(key), id);
  return id;
}

Result<NodeId> KnowledgeBase::AddArticle(std::string_view title) {
  std::string norm = NormalizeTitle(title);
  WQE_ASSIGN_OR_RETURN(NodeId id,
                       AddEntry(graph::NodeKind::kArticle, title, norm));
  ++num_articles_;
  return id;
}

Result<NodeId> KnowledgeBase::AddCategory(std::string_view name) {
  std::string norm = std::string(kCategoryPrefix) + NormalizeTitle(name);
  WQE_ASSIGN_OR_RETURN(NodeId id,
                       AddEntry(graph::NodeKind::kCategory, name, norm));
  ++num_categories_;
  return id;
}

Result<NodeId> KnowledgeBase::AddRedirect(std::string_view alias_title,
                                          NodeId main) {
  WQE_RETURN_NOT_OK(CheckMutable());
  WQE_RETURN_NOT_OK(graph_.CheckNode(main));
  if (!graph_.IsArticle(main)) {
    return Status::InvalidArgument("redirect target must be an article");
  }
  if (IsRedirect(main)) {
    return Status::InvalidArgument(
        "redirect target '", title(main),
        "' is itself a redirect; chains are not allowed");
  }
  std::string norm = NormalizeTitle(alias_title);
  WQE_ASSIGN_OR_RETURN(NodeId id,
                       AddEntry(graph::NodeKind::kArticle, alias_title, norm));
  WQE_RETURN_NOT_OK(graph_.AddEdge(id, main, graph::EdgeKind::kRedirect));
  ++num_redirects_;
  return id;
}

Status KnowledgeBase::AddLink(NodeId from, NodeId to) {
  WQE_RETURN_NOT_OK(CheckMutable());
  if (IsRedirect(from) || IsRedirect(to)) {
    return Status::InvalidArgument(
        "links must connect main articles, not redirects");
  }
  return graph_.AddEdge(from, to, graph::EdgeKind::kLink);
}

Status KnowledgeBase::AddBelongs(NodeId article, NodeId category) {
  WQE_RETURN_NOT_OK(CheckMutable());
  if (IsRedirect(article)) {
    return Status::InvalidArgument("redirects do not belong to categories");
  }
  return graph_.AddEdge(article, category, graph::EdgeKind::kBelongs);
}

Status KnowledgeBase::AddInside(NodeId category, NodeId parent) {
  WQE_RETURN_NOT_OK(CheckMutable());
  return graph_.AddEdge(category, parent, graph::EdgeKind::kInside);
}

std::optional<NodeId> KnowledgeBase::FindByTitle(
    std::string_view normalized_title) const {
  auto it = title_index_.find(std::string(normalized_title));
  if (it != title_index_.end()) return it->second;
  it = title_index_.find(std::string(kCategoryPrefix) +
                         std::string(normalized_title));
  if (it != title_index_.end()) return it->second;
  return std::nullopt;
}

std::optional<NodeId> KnowledgeBase::FindArticle(
    std::string_view normalized_title) const {
  auto it = title_index_.find(std::string(normalized_title));
  if (it == title_index_.end()) return std::nullopt;
  if (!IsArticleNode(it->second)) return std::nullopt;
  return it->second;
}

bool KnowledgeBase::IsRedirect(NodeId node) const {
  if (frozen_) {
    return csr_.IsArticle(node) &&
           csr_.RedirectTarget(node) != graph::kInvalidNode;
  }
  if (!graph_.IsArticle(node)) return false;
  for (const graph::Edge& e : graph_.OutEdges(node)) {
    if (e.kind == graph::EdgeKind::kRedirect) return true;
  }
  return false;
}

NodeId KnowledgeBase::ResolveRedirect(NodeId node) const {
  if (frozen_) {
    NodeId target = csr_.RedirectTarget(node);
    return target == graph::kInvalidNode ? node : target;
  }
  for (const graph::Edge& e : graph_.OutEdges(node)) {
    if (e.kind == graph::EdgeKind::kRedirect) return e.dst;
  }
  return node;
}

std::vector<NodeId> KnowledgeBase::RedirectsOf(NodeId main) const {
  std::vector<NodeId> out;
  if (frozen_) {
    std::span<const NodeId> sources = csr_.InSources(main);
    std::span<const graph::EdgeKind> kinds = csr_.InKinds(main);
    for (size_t i = 0; i < sources.size(); ++i) {
      if (kinds[i] == graph::EdgeKind::kRedirect) out.push_back(sources[i]);
    }
    return out;
  }
  for (const graph::Edge& e : graph_.InEdges(main)) {
    if (e.kind == graph::EdgeKind::kRedirect) out.push_back(e.dst);
  }
  return out;
}

std::vector<NodeId> KnowledgeBase::CategoriesOf(NodeId article) const {
  std::vector<NodeId> out;
  if (frozen_) {
    std::span<const NodeId> targets = csr_.OutTargets(article);
    std::span<const graph::EdgeKind> kinds = csr_.OutKinds(article);
    for (size_t i = 0; i < targets.size(); ++i) {
      if (kinds[i] == graph::EdgeKind::kBelongs) out.push_back(targets[i]);
    }
    return out;
  }
  for (const graph::Edge& e : graph_.OutEdges(article)) {
    if (e.kind == graph::EdgeKind::kBelongs) out.push_back(e.dst);
  }
  return out;
}

std::vector<NodeId> KnowledgeBase::LinkedFrom(NodeId article) const {
  std::vector<NodeId> out;
  if (frozen_) {
    std::span<const NodeId> targets = csr_.OutTargets(article);
    std::span<const graph::EdgeKind> kinds = csr_.OutKinds(article);
    for (size_t i = 0; i < targets.size(); ++i) {
      if (kinds[i] == graph::EdgeKind::kLink) out.push_back(targets[i]);
    }
    return out;
  }
  for (const graph::Edge& e : graph_.OutEdges(article)) {
    if (e.kind == graph::EdgeKind::kLink) out.push_back(e.dst);
  }
  return out;
}

std::vector<NodeId> KnowledgeBase::LinkingTo(NodeId article) const {
  std::vector<NodeId> out;
  if (frozen_) {
    std::span<const NodeId> sources = csr_.InSources(article);
    std::span<const graph::EdgeKind> kinds = csr_.InKinds(article);
    for (size_t i = 0; i < sources.size(); ++i) {
      if (kinds[i] == graph::EdgeKind::kLink) out.push_back(sources[i]);
    }
    return out;
  }
  for (const graph::Edge& e : graph_.InEdges(article)) {
    if (e.kind == graph::EdgeKind::kLink) out.push_back(e.dst);
  }
  return out;
}

namespace {

/// BFS ball shared by the frozen/unfrozen Neighborhood paths; memory is
/// proportional to the ball, never to the whole graph (this runs on the
/// serving cache-miss hot path).  `for_each_neighbor(u, visit)` must call
/// `visit(v)` for every non-redirect neighbor of `u`, both directions.
template <typename ForEachNeighbor>
std::vector<NodeId> BfsBall(const std::vector<NodeId>& sources,
                            uint32_t radius, size_t max_nodes,
                            size_t num_nodes,
                            ForEachNeighbor&& for_each_neighbor) {
  std::unordered_set<NodeId> seen;
  std::vector<NodeId> out;  // doubles as the BFS queue (visit order)
  std::vector<uint32_t> depth;
  for (NodeId s : sources) {
    if (s < num_nodes && seen.insert(s).second) {
      out.push_back(s);
      depth.push_back(0);
    }
  }
  for (size_t head = 0; head < out.size(); ++head) {
    NodeId u = out[head];
    uint32_t d = depth[head];
    if (d >= radius) continue;
    if (max_nodes != 0 && out.size() >= max_nodes) break;
    for_each_neighbor(u, [&](NodeId next) {
      if (max_nodes != 0 && out.size() >= max_nodes) return;
      if (seen.insert(next).second) {
        out.push_back(next);
        depth.push_back(d + 1);
      }
    });
  }
  return out;
}

}  // namespace

std::vector<NodeId> KnowledgeBase::Neighborhood(
    const std::vector<NodeId>& sources, uint32_t radius,
    size_t max_nodes) const {
  if (frozen_) {
    // Frozen fast path: flat CSR row scans.
    return BfsBall(
        sources, radius, max_nodes, csr_.num_nodes(),
        [&](NodeId u, auto&& visit) {
          std::span<const NodeId> targets = csr_.OutTargets(u);
          std::span<const graph::EdgeKind> out_kinds = csr_.OutKinds(u);
          for (size_t i = 0; i < targets.size(); ++i) {
            if (out_kinds[i] != graph::EdgeKind::kRedirect) visit(targets[i]);
          }
          std::span<const NodeId> in = csr_.InSources(u);
          std::span<const graph::EdgeKind> in_kinds = csr_.InKinds(u);
          for (size_t i = 0; i < in.size(); ++i) {
            if (in_kinds[i] != graph::EdgeKind::kRedirect) visit(in[i]);
          }
        });
  }
  return BfsBall(sources, radius, max_nodes, graph_.num_nodes(),
                 [&](NodeId u, auto&& visit) {
                   for (const graph::Edge& e : graph_.OutEdges(u)) {
                     if (e.kind != graph::EdgeKind::kRedirect) visit(e.dst);
                   }
                   for (const graph::Edge& e : graph_.InEdges(u)) {
                     if (e.kind != graph::EdgeKind::kRedirect) visit(e.dst);
                   }
                 });
}

Status KnowledgeBase::Validate() const {
  for (NodeId n = 0; n < labels_.size(); ++n) {
    if (!IsArticleNode(n)) continue;
    if (IsRedirect(n)) {
      if ((frozen_ ? csr_.OutDegree(n) : graph_.OutDegree(n)) != 1) {
        return Status::Internal("redirect '", title(n),
                                "' has extra out-edges");
      }
    } else if (CategoriesOf(n).empty()) {
      return Status::Internal("article '", title(n),
                              "' belongs to no category");
    }
  }
  return Status::OK();
}

}  // namespace wqe::wiki
