#include "wiki/dump.h"

#include <span>
#include <unordered_map>

#include "common/logging.h"
#include "common/macros.h"
#include "common/string_util.h"
#include "xml/xml_parser.h"
#include "xml/xml_writer.h"

namespace wqe::wiki {

namespace {
constexpr int kArticleNamespace = 0;
constexpr int kCategoryNamespace = 14;
constexpr std::string_view kCategoryColon = "category:";

/// Strips an optional "Category:" prefix (case-insensitive) and a
/// "#fragment" suffix, then normalizes.
std::string CleanTarget(std::string_view raw, bool* is_category) {
  std::string_view t = Trim(raw);
  *is_category = false;
  if (t.size() > kCategoryColon.size()) {
    std::string_view head = t.substr(0, kCategoryColon.size());
    if (EqualsIgnoreCase(head, kCategoryColon)) {
      *is_category = true;
      t = t.substr(kCategoryColon.size());
    }
  }
  size_t hash = t.find('#');
  if (hash != std::string_view::npos) t = t.substr(0, hash);
  return NormalizeTitle(t);
}
}  // namespace

std::vector<WikiLink> ExtractWikiLinks(std::string_view wikitext) {
  std::vector<WikiLink> out;
  size_t pos = 0;
  while (pos + 1 < wikitext.size()) {
    size_t open = wikitext.find("[[", pos);
    if (open == std::string_view::npos) break;
    size_t close = wikitext.find("]]", open + 2);
    if (close == std::string_view::npos) break;
    // Nested "[[a [[b]]" — restart from the inner open bracket.
    size_t inner = wikitext.find("[[", open + 2);
    if (inner != std::string_view::npos && inner < close) {
      pos = inner;
      continue;
    }
    std::string_view body = wikitext.substr(open + 2, close - open - 2);
    // Keep only the target part before '|'.
    size_t pipe = body.find('|');
    if (pipe != std::string_view::npos) body = body.substr(0, pipe);
    WikiLink link;
    link.target = CleanTarget(body, &link.is_category);
    if (!link.target.empty()) out.push_back(std::move(link));
    pos = close + 2;
  }
  return out;
}

Result<std::vector<DumpPage>> ParseDumpPages(std::string_view xml_text) {
  xml::PullParser parser(xml_text);
  std::vector<DumpPage> pages;
  bool in_mediawiki = false;

  for (;;) {
    WQE_ASSIGN_OR_RETURN(xml::Event ev, parser.Next());
    if (ev.type == xml::EventType::kEndDocument) break;
    if (ev.type == xml::EventType::kStartElement) {
      if (ev.name == "mediawiki") {
        in_mediawiki = true;
        continue;
      }
      if (!in_mediawiki) {
        return Status::ParseError("root element must be <mediawiki>, got <",
                                  ev.name, ">");
      }
      if (ev.name != "page") {
        WQE_RETURN_NOT_OK(parser.SkipElement());
        continue;
      }
      // Inside <page>.
      DumpPage page;
      for (;;) {
        WQE_ASSIGN_OR_RETURN(xml::Event pev, parser.Next());
        if (pev.type == xml::EventType::kEndElement && pev.name == "page") {
          break;
        }
        if (pev.type == xml::EventType::kEndDocument) {
          return Status::ParseError("dump ended inside <page>");
        }
        if (pev.type != xml::EventType::kStartElement) continue;
        if (pev.name == "title") {
          WQE_ASSIGN_OR_RETURN(page.title, parser.ReadElementText());
        } else if (pev.name == "ns") {
          WQE_ASSIGN_OR_RETURN(std::string ns_text, parser.ReadElementText());
          std::string trimmed(Trim(ns_text));
          if (trimmed.empty()) {
            return Status::ParseError("empty <ns> for page '", page.title,
                                      "'");
          }
          page.ns = std::atoi(trimmed.c_str());
        } else if (pev.name == "redirect") {
          page.redirect_title = std::string(pev.Attr("title"));
          if (!pev.self_closing) {
            WQE_RETURN_NOT_OK(parser.SkipElement());
          } else {
            WQE_ASSIGN_OR_RETURN(xml::Event end_ev, parser.Next());
            (void)end_ev;  // synthesized end element
          }
        } else if (pev.name == "revision") {
          // Find <text> inside the revision.
          for (;;) {
            WQE_ASSIGN_OR_RETURN(xml::Event rev, parser.Next());
            if (rev.type == xml::EventType::kEndElement &&
                rev.name == "revision") {
              break;
            }
            if (rev.type == xml::EventType::kEndDocument) {
              return Status::ParseError("dump ended inside <revision>");
            }
            if (rev.type == xml::EventType::kStartElement) {
              if (rev.name == "text") {
                WQE_ASSIGN_OR_RETURN(page.text, parser.ReadElementText());
              } else {
                WQE_RETURN_NOT_OK(parser.SkipElement());
              }
            }
          }
        } else {
          WQE_RETURN_NOT_OK(parser.SkipElement());
        }
      }
      pages.push_back(std::move(page));
    }
  }
  if (!in_mediawiki) {
    return Status::ParseError("no <mediawiki> root element found");
  }
  return pages;
}

Result<KnowledgeBase> ParseDump(std::string_view xml_text,
                                DumpImportStats* stats_out) {
  WQE_ASSIGN_OR_RETURN(std::vector<DumpPage> pages, ParseDumpPages(xml_text));

  DumpImportStats stats;
  stats.pages = pages.size();
  KnowledgeBase kb;

  // Pass 1a: create article and category nodes (redirects need their
  // targets to exist, so they go in pass 1b).
  for (const DumpPage& page : pages) {
    if (page.ns == kArticleNamespace) {
      if (!page.redirect_title.empty()) continue;  // pass 1b
      auto added = kb.AddArticle(page.title);
      if (added.ok()) {
        ++stats.articles;
      } else if (!added.status().IsAlreadyExists()) {
        return added.status().WithContext("adding article '" + page.title +
                                          "'");
      }
    } else if (page.ns == kCategoryNamespace) {
      // Dump category titles carry the "Category:" prefix; strip it.
      bool is_cat = false;
      std::string name = CleanTarget(page.title, &is_cat);
      auto added = kb.AddCategory(name);
      if (added.ok()) {
        ++stats.categories;
      } else if (!added.status().IsAlreadyExists()) {
        return added.status().WithContext("adding category '" + page.title +
                                          "'");
      }
    } else {
      ++stats.skipped_pages;
    }
  }

  // Pass 1b: redirects.
  for (const DumpPage& page : pages) {
    if (page.ns != kArticleNamespace || page.redirect_title.empty()) continue;
    std::string target = NormalizeTitle(page.redirect_title);
    auto main = kb.FindArticle(target);
    if (!main.has_value()) {
      ++stats.dangling_links;
      continue;
    }
    auto added = kb.AddRedirect(page.title, *main);
    if (added.ok()) {
      ++stats.redirects;
    }  // duplicate alias or redirect-to-redirect: drop silently
  }

  // Pass 2: edges from wikitext.
  for (const DumpPage& page : pages) {
    if (!page.redirect_title.empty()) continue;
    bool page_is_category = page.ns == kCategoryNamespace;
    if (page.ns != kArticleNamespace && !page_is_category) continue;

    bool dummy = false;
    std::string src_title = page_is_category
                                ? CleanTarget(page.title, &dummy)
                                : NormalizeTitle(page.title);
    std::optional<NodeId> src =
        page_is_category ? kb.FindByTitle("category:" + src_title)
                         : kb.FindArticle(src_title);
    if (!src.has_value()) continue;

    for (const WikiLink& link : ExtractWikiLinks(page.text)) {
      if (link.is_category) {
        auto cat = kb.FindByTitle(std::string(kCategoryColon) + link.target);
        if (!cat.has_value()) {
          ++stats.dangling_links;
          continue;
        }
        Status st = page_is_category ? kb.AddInside(*src, *cat)
                                     : kb.AddBelongs(*src, *cat);
        if (st.ok()) {
          page_is_category ? ++stats.inside : ++stats.belongs;
        } else if (!st.IsAlreadyExists() && !st.IsInvalidArgument()) {
          return st;
        }
      } else if (!page_is_category) {
        auto dst = kb.FindArticle(link.target);
        if (!dst.has_value()) {
          ++stats.dangling_links;
          continue;
        }
        NodeId resolved = kb.ResolveRedirect(*dst);
        if (resolved == *src) continue;  // self-link via redirect
        Status st = kb.AddLink(*src, resolved);
        if (st.ok()) {
          ++stats.links;
        } else if (!st.IsAlreadyExists()) {
          return st;
        }
      }
    }
  }

  if (stats_out != nullptr) *stats_out = stats;
  WQE_LOG(Debug) << "dump import: " << stats.articles << " articles, "
                 << stats.categories << " categories, " << stats.redirects
                 << " redirects, " << stats.links << " links";
  return kb;
}

std::string WriteDump(const KnowledgeBase& kb) {
  xml::XmlWriter w(2);
  w.WriteDeclaration();
  w.StartElement("mediawiki");
  w.WriteAttribute("version", "0.10");

  const graph::CsrGraph& g = kb.csr();
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    bool is_category = g.IsCategory(n);
    bool is_redirect = kb.IsRedirect(n);

    w.StartElement("page");
    w.WriteElement("title", is_category
                                ? "Category:" + kb.display_title(n)
                                : kb.display_title(n));
    w.WriteElement("ns", is_category ? "14" : "0");
    w.WriteElement("id", std::to_string(n + 1));
    if (is_redirect) {
      NodeId main = kb.ResolveRedirect(n);
      w.StartElement("redirect");
      w.WriteAttribute("title", kb.display_title(main));
      w.EndElement();
    }
    // Synthesize wikitext from out-edges.
    std::string text;
    if (is_redirect) {
      text = "#REDIRECT [[" +
             kb.display_title(kb.ResolveRedirect(n)) + "]]";
    } else {
      std::span<const NodeId> targets = g.OutTargets(n);
      std::span<const graph::EdgeKind> kinds = g.OutKinds(n);
      for (size_t i = 0; i < targets.size(); ++i) {
        switch (kinds[i]) {
          case graph::EdgeKind::kLink:
            text += "[[" + kb.display_title(targets[i]) + "]] ";
            break;
          case graph::EdgeKind::kBelongs:
          case graph::EdgeKind::kInside:
            text += "[[Category:" + kb.display_title(targets[i]) + "]] ";
            break;
          case graph::EdgeKind::kRedirect:
            break;
        }
      }
    }
    w.StartElement("revision");
    w.WriteElement("text", text);
    w.EndElement();
    w.EndElement();  // page
  }
  w.EndElement();  // mediawiki
  return w.TakeString();
}

}  // namespace wqe::wiki
