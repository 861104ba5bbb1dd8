#pragma once

/// \file knowledge_base.h
/// \brief The Wikipedia knowledge base: typed graph + title index.
///
/// Holds the Wikipedia graph with the services the paper's pipeline
/// needs: title lookup for entity linking (§2.1), redirect resolution and
/// redirect-derived synonyms, and category/link neighborhoods for
/// query-graph assembly (§2.3).
///
/// Titles are stored normalized (lowercase, collapsed whitespace — see
/// `NormalizeTitle`); the display title is kept separately for output.
/// Both live in the KB itself, one per node id, in every state.
///
/// Lifecycle: the KB is a *builder* until `Freeze()` is called.  While
/// building, edges go into a mutable `graph::PropertyGraph`, readable via
/// the builder-only `graph()`.  `Freeze()` compiles it into an immutable
/// `graph::CsrGraph` (see graph/csr.h) and releases the builder, so a
/// frozen KB holds exactly one graph: the CSR.  Freezing is one-way — any
/// mutation afterwards fails, and `graph()` is refused — so the CSR can be
/// shared read-only across every serving thread.
///
/// `FromSnapshot` reconstitutes a frozen KB from an on-disk snapshot (see
/// snapshot/reader.h) without running the builder.  The result is the
/// same object a built-and-frozen KB is: same CSR, titles and index, and
/// every reader behaves identically on both.

#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "graph/csr.h"
#include "graph/graph.h"

namespace wqe::wiki {

using graph::NodeId;
using graph::kInvalidNode;

/// \brief Mutable Wikipedia knowledge base.
class KnowledgeBase {
 public:
  KnowledgeBase() = default;

  /// \name Construction
  /// @{

  /// \brief Adds a (main) article. Fails with AlreadyExists when the
  /// normalized title is taken.
  Result<NodeId> AddArticle(std::string_view title);

  /// \brief Adds a category. Category names share the title namespace with
  /// a "category:" prefix, mirroring MediaWiki.
  Result<NodeId> AddCategory(std::string_view name);

  /// \brief Adds a redirect article `alias_title` pointing at `main`.
  /// Redirect articles carry only their redirect edge (they never close
  /// cycles, per the paper's §4 observation).
  Result<NodeId> AddRedirect(std::string_view alias_title, NodeId main);

  /// \brief Adds an article→article hyperlink.
  Status AddLink(NodeId from, NodeId to);

  /// \brief Adds article→category membership.
  Status AddBelongs(NodeId article, NodeId category);

  /// \brief Adds category→parent-category nesting.
  Status AddInside(NodeId category, NodeId parent);

  /// \brief Reconstitutes a frozen KB from snapshot sections (the
  /// `snapshot::Reader` path).  `labels`/`display_titles` are per-node,
  /// parallel to `csr`'s node ids; the counts are the KB-level entity
  /// tallies from the snapshot's meta section.  Rebuilds the title index
  /// (O(V)) and cross-checks the counts, and the graph's cached node-kind
  /// counts, against a walk of its node kinds and redirect table:
  /// category nodes, article nodes with a redirect target, and the
  /// article nodes left over.  Inconsistencies
  /// (duplicate titles, count drift) come back as a `Status`, since they
  /// indicate a corrupt or hand-rolled file.
  static Result<KnowledgeBase> FromSnapshot(
      graph::CsrGraph csr, std::vector<std::string> labels,
      std::vector<std::string> display_titles, size_t num_articles,
      size_t num_redirects, size_t num_categories);
  /// @}

  /// \name Lookup
  ///
  /// Order contract for the list-valued accessors (`RedirectsOf`,
  /// `CategoriesOf`, `LinkedFrom`, `LinkingTo`): the *set* of results is
  /// representation-independent, but the order is not — before `Freeze()`
  /// they follow edge-insertion order, after it the snapshot's sorted
  /// rows (ascending node id).  Serving code always runs frozen, so
  /// anything order-sensitive (e.g. candidate tie-breaks) sees the
  /// deterministic ascending order.
  /// @{

  /// \brief Finds any entry (article, redirect or category) by normalized
  /// title; `std::nullopt` when absent.
  std::optional<NodeId> FindByTitle(std::string_view normalized_title) const;

  /// \brief Finds an article (main or redirect) by normalized title.
  std::optional<NodeId> FindArticle(std::string_view normalized_title) const;

  /// \brief True when `node` is a redirect article.
  bool IsRedirect(NodeId node) const;

  /// \brief Follows the redirect edge if `node` is a redirect; identity
  /// otherwise.
  NodeId ResolveRedirect(NodeId node) const;

  /// \brief All redirect articles pointing at `main` (the paper's synonym
  /// source: "the synonyms of t are the titles of the redirects of a").
  std::vector<NodeId> RedirectsOf(NodeId main) const;

  /// \brief Normalized title of a node.
  const std::string& title(NodeId node) const { return labels_[node]; }

  /// \brief Display title (original casing/punctuation).
  const std::string& display_title(NodeId node) const {
    return display_titles_[node];
  }

  /// \brief Categories an article belongs to.
  std::vector<NodeId> CategoriesOf(NodeId article) const;

  /// \brief Articles directly linked *from* `article`.
  std::vector<NodeId> LinkedFrom(NodeId article) const;

  /// \brief Articles directly linking *to* `article`.
  std::vector<NodeId> LinkingTo(NodeId article) const;
  /// @}

  /// \name Graph access
  /// @{

  /// \brief The builder graph; `Freeze()` must *not* have been called
  /// (it releases the builder — read `csr()` afterwards).
  const graph::PropertyGraph& graph() const;
  size_t num_articles() const { return num_articles_; }
  size_t num_redirects() const { return num_redirects_; }
  size_t num_categories() const { return num_categories_; }

  /// \brief One-way bridge from builder to serving: compiles the frozen
  /// `CsrGraph` snapshot and releases the builder graph.  Idempotent;
  /// after the first call every `Add*` mutator fails with InvalidArgument.
  /// Called by `api::Engine::Build` (and `groundtruth::Pipeline::Build`);
  /// call it yourself before using structural components (expanders,
  /// views) on a hand-built KB.
  const graph::CsrGraph& Freeze();

  /// \brief The frozen snapshot; `Freeze()` must have been called.
  /// Safe to read from any number of threads concurrently.
  const graph::CsrGraph& csr() const;

  bool frozen() const { return frozen_; }
  /// @}

  /// \brief Undirected BFS ball of radius `radius` around `sources`,
  /// traversing link/belongs/inside edges both ways (never redirects).
  /// `max_nodes` truncates the frontier expansion (0 = unlimited).
  std::vector<NodeId> Neighborhood(const std::vector<NodeId>& sources,
                                   uint32_t radius, size_t max_nodes) const;

  /// \brief Schema integrity check: every non-redirect article belongs to
  /// at least one category; every redirect has exactly one out-edge (its
  /// redirect) and no other edges.
  Status Validate() const;

 private:
  Result<NodeId> AddEntry(graph::NodeKind kind, std::string_view title,
                          std::string_view index_key);

  /// Fails when the KB is frozen (mutators call this first).
  Status CheckMutable() const;

  /// Kind probe that works before and after `Freeze()`.
  bool IsArticleNode(NodeId node) const {
    return frozen_ ? csr_.IsArticle(node) : graph_.IsArticle(node);
  }

  /// Builder graph; empty once frozen (`Freeze()` releases it).
  graph::PropertyGraph graph_;
  /// The frozen graph; empty until `Freeze()`.
  graph::CsrGraph csr_;
  bool frozen_ = false;
  /// Per-node normalized (`labels_`) and display titles, in every state.
  std::vector<std::string> labels_;
  std::vector<std::string> display_titles_;
  std::unordered_map<std::string, NodeId> title_index_;
  size_t num_articles_ = 0;
  size_t num_redirects_ = 0;
  size_t num_categories_ = 0;
};

}  // namespace wqe::wiki
