/// \file wiki_test.cc
/// \brief Tests for the knowledge base, synthetic generator and dump I/O.

#include <gtest/gtest.h>

#include <set>

#include "graph/cycle_metrics.h"
#include "wiki/dump.h"
#include "wiki/knowledge_base.h"
#include "wiki/synthetic.h"
#include "wiki/wordlist.h"

namespace wqe::wiki {
namespace {

// ---------------------------------------------------------- KnowledgeBase

TEST(KnowledgeBaseTest, AddAndFindArticle) {
  KnowledgeBase kb;
  auto venice = kb.AddArticle("Venice");
  ASSERT_TRUE(venice.ok());
  EXPECT_EQ(kb.title(*venice), "venice");
  EXPECT_EQ(kb.display_title(*venice), "Venice");
  EXPECT_EQ(kb.FindArticle("venice"), *venice);
  EXPECT_EQ(kb.FindArticle("missing"), std::nullopt);
  EXPECT_TRUE(kb.AddArticle("VENICE").status().IsAlreadyExists());
  EXPECT_TRUE(kb.AddArticle("").status().IsInvalidArgument());
}

TEST(KnowledgeBaseTest, CategoriesShareNamespaceWithPrefix) {
  KnowledgeBase kb;
  auto article = kb.AddArticle("venice");
  auto category = kb.AddCategory("venice");  // same word, different entity
  ASSERT_TRUE(article.ok());
  ASSERT_TRUE(category.ok());
  EXPECT_NE(*article, *category);
  // FindArticle only returns articles.
  EXPECT_EQ(kb.FindArticle("venice"), *article);
  EXPECT_EQ(kb.FindByTitle("category:venice"), *category);
}

TEST(KnowledgeBaseTest, RedirectResolution) {
  KnowledgeBase kb;
  auto main = kb.AddArticle("regatta");
  auto alias = kb.AddRedirect("regata", *main);
  ASSERT_TRUE(alias.ok());
  EXPECT_TRUE(kb.IsRedirect(*alias));
  EXPECT_FALSE(kb.IsRedirect(*main));
  EXPECT_EQ(kb.ResolveRedirect(*alias), *main);
  EXPECT_EQ(kb.ResolveRedirect(*main), *main);
  auto redirects = kb.RedirectsOf(*main);
  ASSERT_EQ(redirects.size(), 1u);
  EXPECT_EQ(redirects[0], *alias);
}

TEST(KnowledgeBaseTest, RedirectChainsRejected) {
  KnowledgeBase kb;
  auto main = kb.AddArticle("a");
  auto r1 = kb.AddRedirect("b", *main);
  ASSERT_TRUE(r1.ok());
  EXPECT_TRUE(kb.AddRedirect("c", *r1).status().IsInvalidArgument());
}

TEST(KnowledgeBaseTest, RedirectsCannotLinkOrBelong) {
  KnowledgeBase kb;
  auto main = kb.AddArticle("a");
  auto other = kb.AddArticle("b");
  auto cat = kb.AddCategory("c");
  auto r = kb.AddRedirect("alias", *main);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(kb.AddLink(*r, *other).IsInvalidArgument());
  EXPECT_TRUE(kb.AddLink(*other, *r).IsInvalidArgument());
  EXPECT_TRUE(kb.AddBelongs(*r, *cat).IsInvalidArgument());
}

TEST(KnowledgeBaseTest, NeighborhoodBfs) {
  KnowledgeBase kb;
  auto a = kb.AddArticle("a");
  auto b = kb.AddArticle("b");
  auto c = kb.AddArticle("c");
  auto cat = kb.AddCategory("cat");
  ASSERT_TRUE(kb.AddLink(*a, *b).ok());
  ASSERT_TRUE(kb.AddLink(*b, *c).ok());
  ASSERT_TRUE(kb.AddBelongs(*a, *cat).ok());

  auto r0 = kb.Neighborhood({*a}, 0, 0);
  EXPECT_EQ(r0.size(), 1u);
  auto r1 = kb.Neighborhood({*a}, 1, 0);
  std::set<NodeId> s1(r1.begin(), r1.end());
  EXPECT_EQ(s1.size(), 3u);  // a, b, cat
  EXPECT_TRUE(s1.count(*cat));
  auto r2 = kb.Neighborhood({*a}, 2, 0);
  EXPECT_EQ(r2.size(), 4u);  // + c (via b, in-direction traversal too)
  // Cap respected.
  EXPECT_LE(kb.Neighborhood({*a}, 2, 2).size(), 2u);
}

TEST(KnowledgeBaseTest, ValidateCatchesUncategorizedArticle) {
  KnowledgeBase kb;
  auto a = kb.AddArticle("a");
  (void)a;
  EXPECT_TRUE(kb.Validate().IsInternal());
  auto cat = kb.AddCategory("c");
  ASSERT_TRUE(kb.AddBelongs(*a, *cat).ok());
  EXPECT_TRUE(kb.Validate().ok());
}

// -------------------------------------------------------------- Wordlist

TEST(WordlistTest, BaseWordsThenPseudoWords) {
  EXPECT_GT(BaseWordCount(), 300u);
  EXPECT_EQ(VocabularyWord(0), "venice");
  // Pseudo-words are deterministic and distinct over a wide range.
  std::set<std::string> seen;
  for (size_t i = BaseWordCount(); i < BaseWordCount() + 2000; ++i) {
    std::string w = VocabularyWord(i);
    EXPECT_FALSE(w.empty());
    EXPECT_TRUE(seen.insert(w).second) << "duplicate pseudo-word " << w;
    EXPECT_EQ(w, VocabularyWord(i));
  }
}

TEST(WordlistTest, SliceMatchesIndividualWords) {
  auto slice = VocabularySlice(5, 4);
  ASSERT_EQ(slice.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(slice[i], VocabularyWord(5 + i));
  }
}

// ------------------------------------------------------ SyntheticWikipedia

class SyntheticWikipediaTest : public ::testing::Test {
 protected:
  static const SyntheticWikipedia& Wiki() {
    static const SyntheticWikipedia* kWiki = [] {
      SyntheticWikipediaOptions options;
      options.num_domains = 24;
      auto result = GenerateSyntheticWikipedia(options);
      EXPECT_TRUE(result.ok()) << result.status();
      auto* wiki = new SyntheticWikipedia(std::move(result).ValueOrDie());
      wiki->kb.Freeze();  // structural reads below take the snapshot path
      return wiki;
    }();
    return *kWiki;
  }
};

TEST_F(SyntheticWikipediaTest, ValidatesAndHasExpectedShape) {
  const auto& wiki = Wiki();
  EXPECT_TRUE(wiki.kb.Validate().ok());
  EXPECT_EQ(wiki.domain_articles.size(), 24u);
  EXPECT_GT(wiki.kb.num_articles(), 24u * 28u);
  EXPECT_GT(wiki.kb.num_categories(), 24u * 4u);
  EXPECT_GT(wiki.kb.num_redirects(), 0u);
  for (const auto& domain : wiki.domain_articles) {
    EXPECT_GE(domain.size(), 3u);
  }
}

TEST_F(SyntheticWikipediaTest, ReciprocalRateNearPaperValue) {
  // The paper measures 11.47% on real Wikipedia; the generator is
  // calibrated to land in the same regime.
  double rate = graph::ReciprocalLinkRate(Wiki().kb.csr());
  EXPECT_GT(rate, 0.06);
  EXPECT_LT(rate, 0.20);
}

TEST_F(SyntheticWikipediaTest, HubsHaveMutualPartners) {
  const auto& wiki = Wiki();
  size_t hubs_with_mutual = 0, hubs = 0;
  for (const auto& domain : wiki.domain_articles) {
    for (size_t h = 0; h < std::min<size_t>(8, domain.size()); ++h) {
      ++hubs;
      for (NodeId out : wiki.kb.LinkedFrom(domain[h])) {
        if (wiki.kb.csr().HasEdge(out, domain[h], graph::EdgeKind::kLink)) {
          ++hubs_with_mutual;
          break;
        }
      }
    }
  }
  EXPECT_GT(static_cast<double>(hubs_with_mutual),
            0.8 * static_cast<double>(hubs));
}

TEST_F(SyntheticWikipediaTest, CategoryGraphIsTriangleFreeForest) {
  // Every category has exactly one outgoing `inside` edge (tree-like, as
  // Wikipedia edition rules prescribe), so the pure category graph has no
  // cycles at all.
  const auto& g = Wiki().kb.csr();
  for (graph::NodeId n = 0; n < g.num_nodes(); ++n) {
    if (!g.IsCategory(n)) continue;
    size_t inside = 0;
    for (graph::EdgeKind kind : g.OutKinds(n)) {
      if (kind == graph::EdgeKind::kInside) ++inside;
    }
    EXPECT_LE(inside, 1u);
  }
}

TEST_F(SyntheticWikipediaTest, DeterministicForSeed) {
  SyntheticWikipediaOptions options;
  options.num_domains = 6;
  auto a = GenerateSyntheticWikipedia(options);
  auto b = GenerateSyntheticWikipedia(options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->kb.num_articles(), b->kb.num_articles());
  EXPECT_EQ(a->kb.graph().num_edges(), b->kb.graph().num_edges());
  for (graph::NodeId n = 0; n < a->kb.graph().num_nodes(); ++n) {
    ASSERT_EQ(a->kb.title(n), b->kb.title(n));
  }
}

TEST_F(SyntheticWikipediaTest, SeedChangesOutput) {
  SyntheticWikipediaOptions options;
  options.num_domains = 6;
  auto a = GenerateSyntheticWikipedia(options);
  options.seed = 999;
  auto b = GenerateSyntheticWikipedia(options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a->kb.graph().num_edges(), b->kb.graph().num_edges());
}

TEST(SyntheticWikipediaOptionsTest, RejectsBadOptions) {
  SyntheticWikipediaOptions options;
  options.num_domains = 0;
  EXPECT_TRUE(GenerateSyntheticWikipedia(options).status()
                  .IsInvalidArgument());
  options = {};
  options.min_articles_per_domain = 50;
  options.max_articles_per_domain = 10;
  EXPECT_TRUE(GenerateSyntheticWikipedia(options).status()
                  .IsInvalidArgument());
  options = {};
  options.min_categories_per_domain = 0;
  EXPECT_TRUE(GenerateSyntheticWikipedia(options).status()
                  .IsInvalidArgument());
}

// ------------------------------------------------------------------ Dump

TEST(WikitextTest, ExtractsLinksAndCategories) {
  auto links = ExtractWikiLinks(
      "The [[Grand Canal (Venice)|canal]] is in [[Venice]]. "
      "[[Category:Canals in Italy]] [[Category:Venice#History]]");
  ASSERT_EQ(links.size(), 4u);
  EXPECT_EQ(links[0].target, "grand canal venice");
  EXPECT_FALSE(links[0].is_category);
  EXPECT_EQ(links[1].target, "venice");
  EXPECT_TRUE(links[2].is_category);
  EXPECT_EQ(links[2].target, "canals in italy");
  EXPECT_EQ(links[3].target, "venice");  // fragment stripped
}

TEST(WikitextTest, HandlesMalformedBrackets) {
  EXPECT_TRUE(ExtractWikiLinks("no links here").empty());
  EXPECT_TRUE(ExtractWikiLinks("[[unclosed").empty());
  auto nested = ExtractWikiLinks("[[a [[b]] c]]");
  ASSERT_EQ(nested.size(), 1u);
  EXPECT_EQ(nested[0].target, "b");
  EXPECT_TRUE(ExtractWikiLinks("[[]]").empty());
}

const char* kTinyDump = R"(<mediawiki>
  <page><title>Venice</title><ns>0</ns><id>1</id>
    <revision><text>[[Gondola]] [[Category:Cities]]</text></revision>
  </page>
  <page><title>Gondola</title><ns>0</ns><id>2</id>
    <revision><text>[[Venice]] [[Missing Article]] [[Category:Boats]]</text></revision>
  </page>
  <page><title>Regata</title><ns>0</ns><id>3</id>
    <redirect title="Gondola" />
    <revision><text>#REDIRECT [[Gondola]]</text></revision>
  </page>
  <page><title>Category:Boats</title><ns>14</ns><id>4</id>
    <revision><text>[[Category:Cities]]</text></revision>
  </page>
  <page><title>Category:Cities</title><ns>14</ns><id>5</id>
    <revision><text></text></revision>
  </page>
  <page><title>Talk:Venice</title><ns>1</ns><id>6</id>
    <revision><text>ignored</text></revision>
  </page>
</mediawiki>)";

TEST(DumpParserTest, BuildsKnowledgeBase) {
  DumpImportStats stats;
  auto kb = ParseDump(kTinyDump, &stats);
  ASSERT_TRUE(kb.ok()) << kb.status();
  EXPECT_EQ(stats.pages, 6u);
  EXPECT_EQ(stats.articles, 2u);
  EXPECT_EQ(stats.categories, 2u);
  EXPECT_EQ(stats.redirects, 1u);
  EXPECT_EQ(stats.links, 2u);     // venice<->gondola
  EXPECT_EQ(stats.belongs, 2u);
  EXPECT_EQ(stats.inside, 1u);    // boats inside cities
  EXPECT_EQ(stats.dangling_links, 1u);  // [[Missing Article]]
  EXPECT_EQ(stats.skipped_pages, 1u);   // Talk namespace

  auto venice = kb->FindArticle("venice");
  auto gondola = kb->FindArticle("gondola");
  ASSERT_TRUE(venice.has_value());
  ASSERT_TRUE(gondola.has_value());
  EXPECT_TRUE(kb->graph().HasEdge(*venice, *gondola, graph::EdgeKind::kLink));
  EXPECT_TRUE(kb->graph().HasEdge(*gondola, *venice, graph::EdgeKind::kLink));
  auto regata = kb->FindArticle("regata");
  ASSERT_TRUE(regata.has_value());
  EXPECT_EQ(kb->ResolveRedirect(*regata), *gondola);
}

TEST(DumpParserTest, RejectsNonMediawikiRoot) {
  EXPECT_TRUE(ParseDump("<notwiki></notwiki>").status().IsParseError());
  EXPECT_TRUE(ParseDump("").status().IsParseError());
}

TEST(DumpRoundTripTest, SyntheticKbSurvivesWriteParse) {
  SyntheticWikipediaOptions options;
  options.num_domains = 4;
  auto wiki = GenerateSyntheticWikipedia(options);
  ASSERT_TRUE(wiki.ok());
  const graph::CsrGraph& csr = wiki->kb.Freeze();  // WriteDump reads the CSR
  std::string dump = WriteDump(wiki->kb);

  DumpImportStats stats;
  auto kb2 = ParseDump(dump, &stats);
  ASSERT_TRUE(kb2.ok()) << kb2.status();
  EXPECT_EQ(kb2->num_articles(), wiki->kb.num_articles());
  EXPECT_EQ(kb2->num_categories(), wiki->kb.num_categories());
  EXPECT_EQ(kb2->num_redirects(), wiki->kb.num_redirects());
  EXPECT_EQ(kb2->graph().CountEdges(graph::EdgeKind::kLink),
            csr.CountEdges(graph::EdgeKind::kLink));
  EXPECT_EQ(kb2->graph().CountEdges(graph::EdgeKind::kBelongs),
            csr.CountEdges(graph::EdgeKind::kBelongs));
  EXPECT_EQ(kb2->graph().CountEdges(graph::EdgeKind::kInside),
            csr.CountEdges(graph::EdgeKind::kInside));
  EXPECT_EQ(stats.dangling_links, 0u);
}

}  // namespace
}  // namespace wqe::wiki
