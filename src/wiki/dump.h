#pragma once

/// \file dump.h
/// \brief MediaWiki XML dump import/export.
///
/// The paper works on a real English Wikipedia dump; this module provides
/// that ingestion path.  `ParseDump` reads the standard
/// `<mediawiki><page>…` export format (title, namespace, optional
/// `<redirect>`, revision wikitext), extracts `[[links]]` and
/// `[[Category:…]]` memberships from the wikitext, and materializes a
/// `KnowledgeBase`.  `WriteDump` serializes a knowledge base back to the
/// same format, which round-trips through the parser (tested) and lets the
/// synthetic KB be stored and exchanged like a genuine dump.

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "wiki/knowledge_base.h"

namespace wqe::wiki {

/// \brief One `<page>` element of a dump.
struct DumpPage {
  std::string title;
  int ns = 0;                  ///< 0 = article, 14 = category
  std::string redirect_title;  ///< non-empty for redirect pages
  std::string text;            ///< revision wikitext
};

/// \brief One wikitext link occurrence.
struct WikiLink {
  std::string target;   ///< normalized target title (no fragment)
  bool is_category = false;  ///< [[Category:…]] membership
};

/// \brief Extracts `[[target|anchor]]` links from wikitext.  Fragments
/// (`#section`) are stripped; nested/unbalanced brackets are skipped
/// gracefully.
std::vector<WikiLink> ExtractWikiLinks(std::string_view wikitext);

/// \brief Parses dump XML into page records (no graph work).
Result<std::vector<DumpPage>> ParseDumpPages(std::string_view xml);

/// \brief Statistics of a dump import.
struct DumpImportStats {
  size_t pages = 0;
  size_t articles = 0;
  size_t categories = 0;
  size_t redirects = 0;
  size_t links = 0;
  size_t belongs = 0;
  size_t inside = 0;
  size_t dangling_links = 0;   ///< links to titles not in the dump
  size_t skipped_pages = 0;    ///< unsupported namespaces
};

/// \brief Parses a dump and builds the knowledge base.
///
/// Two passes: pages become nodes first (so forward references resolve),
/// then wikitext links become edges. Links to missing titles are counted
/// in `stats.dangling_links` and dropped, as are duplicate edges.
Result<KnowledgeBase> ParseDump(std::string_view xml,
                                DumpImportStats* stats = nullptr);

/// \brief Serializes a frozen `kb` (built or snapshot-loaded) as MediaWiki
/// dump XML.  Article wikitext is synthesized from the CSR out-rows
/// (`[[link]]`, `[[Category:…]]`, `#REDIRECT [[…]]`), so
/// ParseDump(WriteDump(kb)) reconstructs the graph.
std::string WriteDump(const KnowledgeBase& kb);

}  // namespace wqe::wiki
