/// \file groundtruth_test.cc
/// \brief Tests for §2: the pipeline context, the X(q) hill climb, and
/// query-graph assembly.

#include <gtest/gtest.h>

#include <algorithm>

#include "groundtruth/ground_truth.h"
#include "groundtruth/pipeline.h"
#include "groundtruth/query_graph.h"
#include "groundtruth/xq_optimizer.h"

namespace wqe::groundtruth {
namespace {

/// Small shared pipeline (built once; ~1.5k docs).
const Pipeline& SmallPipeline() {
  static const Pipeline* kPipeline = [] {
    PipelineOptions options;
    options.wiki.num_domains = 12;
    options.track.num_topics = 6;
    options.track.background_docs = 150;
    auto result = Pipeline::Build(options);
    EXPECT_TRUE(result.ok()) << result.status();
    return result->release();
  }();
  return *kPipeline;
}

TEST(PipelineTest, WiresEverything) {
  const Pipeline& p = SmallPipeline();
  EXPECT_GT(p.kb().num_articles(), 100u);
  EXPECT_EQ(p.num_topics(), 6u);
  EXPECT_TRUE(p.engine().finalized());
  EXPECT_EQ(p.engine().store().size(), p.track().documents.size());
  for (size_t t = 0; t < p.num_topics(); ++t) {
    EXPECT_EQ(p.relevant(t).size(), p.topic(t).relevant.size());
  }
}

TEST(PipelineTest, DocTextIsExtractedNotRawXml) {
  const Pipeline& p = SmallPipeline();
  const std::string& text = p.doc_text(0);
  EXPECT_EQ(text.find("<image"), std::string::npos);
  EXPECT_EQ(text.find("xml:lang"), std::string::npos);
  EXPECT_FALSE(text.empty());
}

TEST(PipelineTest, KeywordsLinkToQueryArticles) {
  const Pipeline& p = SmallPipeline();
  for (size_t t = 0; t < p.num_topics(); ++t) {
    auto linked = p.linker().LinkToArticles(p.topic(t).keywords);
    // The generated keywords are hub titles; the linker must find them.
    EXPECT_EQ(linked.size(), p.topic(t).query_articles.size())
        << "topic " << t << ": " << p.topic(t).keywords;
    for (graph::NodeId q : p.topic(t).query_articles) {
      EXPECT_NE(std::find(linked.begin(), linked.end(), q), linked.end());
    }
  }
}

// ------------------------------------------------------------- XqOptimizer

class XqOptimizerTest : public ::testing::Test {
 protected:
  const Pipeline& p_ = SmallPipeline();
};

TEST_F(XqOptimizerTest, ImprovesOverBaseline) {
  GroundTruthBuilder builder(&p_);
  auto entry = builder.BuildEntry(0);
  ASSERT_TRUE(entry.ok()) << entry.status();
  EXPECT_GE(entry->xq.quality, entry->xq.baseline_quality);
  EXPECT_GT(entry->xq.quality, 0.5);  // planting makes high O reachable
  EXPECT_FALSE(entry->xq.selected.empty());
}

TEST_F(XqOptimizerTest, SelectedSubsetOfCandidates) {
  GroundTruthBuilder builder(&p_);
  auto entry = builder.BuildEntry(1);
  ASSERT_TRUE(entry.ok());
  for (graph::NodeId a : entry->xq.selected) {
    EXPECT_NE(std::find(entry->doc_articles.begin(),
                        entry->doc_articles.end(), a),
              entry->doc_articles.end())
        << "selected article not in L(q.D)";
  }
}

TEST_F(XqOptimizerTest, EmptyCandidatesReturnsBaseline) {
  XqOptimizer optimizer(&p_.engine(), &p_.kb());
  auto linked = p_.linker().LinkToArticles(p_.topic(0).keywords);
  auto result = optimizer.Optimize(linked, {}, p_.relevant(0));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->selected.empty());
  EXPECT_DOUBLE_EQ(result->quality, result->baseline_quality);
}

TEST_F(XqOptimizerTest, DeterministicForSeed) {
  XqOptimizerOptions options;
  options.restarts = 1;
  GroundTruthBuilder b1(&p_, options), b2(&p_, options);
  auto e1 = b1.BuildEntry(2);
  auto e2 = b2.BuildEntry(2);
  ASSERT_TRUE(e1.ok());
  ASSERT_TRUE(e2.ok());
  EXPECT_EQ(e1->xq.selected, e2->xq.selected);
  EXPECT_DOUBLE_EQ(e1->xq.quality, e2->xq.quality);
}

TEST_F(XqOptimizerTest, EvaluateArticlesMatchesEquation1Range) {
  XqOptimizer optimizer(&p_.engine(), &p_.kb());
  auto linked = p_.linker().LinkToArticles(p_.topic(0).keywords);
  auto o = optimizer.EvaluateArticles(linked, p_.relevant(0));
  ASSERT_TRUE(o.ok());
  EXPECT_GE(*o, 0.0);
  EXPECT_LE(*o, 1.0);
  // Empty article set evaluates to 0, not an error.
  auto empty = optimizer.EvaluateArticles({}, p_.relevant(0));
  ASSERT_TRUE(empty.ok());
  EXPECT_DOUBLE_EQ(*empty, 0.0);
}

// -------------------------------------------------------------- QueryGraph

TEST(QueryGraphTest, ContainsArticlesMainsAndCategories) {
  const Pipeline& p = SmallPipeline();
  auto query = p.linker().LinkToArticles(p.topic(0).keywords);
  ASSERT_FALSE(query.empty());
  std::vector<graph::NodeId> expansion = {p.topic(0).planted_good.front()};
  QueryGraph qg = BuildQueryGraph(p.kb(), query, expansion);

  // Every query/expansion article and each of its categories is present.
  for (graph::NodeId a : query) {
    ASSERT_NE(qg.sub.Local(a), graph::kInvalidNode);
    for (graph::NodeId c : p.kb().CategoriesOf(a)) {
      EXPECT_NE(qg.sub.Local(c), graph::kInvalidNode);
    }
  }
  EXPECT_NE(qg.sub.Local(expansion[0]), graph::kInvalidNode);
  EXPECT_EQ(qg.query_articles, query);
  EXPECT_EQ(qg.expansion_articles, expansion);
  EXPECT_EQ(qg.LocalQueryArticles().size(), query.size());
}

TEST(QueryGraphTest, RedirectInputIncludesMainArticle) {
  wiki::KnowledgeBase kb;
  auto main = *kb.AddArticle("main");
  auto cat = *kb.AddCategory("cat");
  ASSERT_TRUE(kb.AddBelongs(main, cat).ok());
  auto alias = *kb.AddRedirect("alias", main);
  kb.Freeze();  // BuildQueryGraph slices the frozen snapshot
  QueryGraph qg = BuildQueryGraph(kb, {alias}, {});
  // alias, main, and main's category are all present.
  EXPECT_EQ(qg.num_nodes(), 3u);
  EXPECT_NE(qg.sub.Local(alias), graph::kInvalidNode);
  EXPECT_NE(qg.sub.Local(main), graph::kInvalidNode);
  EXPECT_NE(qg.sub.Local(cat), graph::kInvalidNode);
}

TEST(QueryGraphTest, InducedEdgesOnlyAmongMembers) {
  const Pipeline& p = SmallPipeline();
  auto query = p.linker().LinkToArticles(p.topic(1).keywords);
  QueryGraph qg = BuildQueryGraph(p.kb(), query, p.topic(1).planted_good);
  // Spot-check both directions of the slice invariant: every subgraph
  // edge exists in the KB between the mapped endpoints, and every KB edge
  // between two members made it into the subgraph.
  const graph::CsrSubgraph& sub = qg.sub;
  size_t sub_edges = 0;
  for (graph::NodeId n = 0; n < sub.num_nodes(); ++n) {
    auto targets = sub.OutTargets(n);
    auto kinds = sub.OutKinds(n);
    for (size_t i = 0; i < targets.size(); ++i, ++sub_edges) {
      EXPECT_TRUE(p.kb().csr().HasEdge(sub.to_parent[n],
                                       sub.to_parent[targets[i]], kinds[i]));
    }
  }
  size_t kb_member_edges = 0;
  for (graph::NodeId parent : sub.to_parent) {
    for (graph::NodeId dst : p.kb().csr().OutTargets(parent)) {
      if (sub.Local(dst) != graph::kInvalidNode) ++kb_member_edges;
    }
  }
  EXPECT_EQ(sub_edges, kb_member_edges);
  EXPECT_EQ(sub_edges, sub.num_edges());
}

// ------------------------------------------------------------- GroundTruth

TEST(GroundTruthTest, BuildAllTopicsAndSerialize) {
  const Pipeline& p = SmallPipeline();
  XqOptimizerOptions fast;
  fast.restarts = 1;
  fast.enable_swap = false;  // keep the full-track build quick
  GroundTruthBuilder builder(&p, fast);
  auto gt = builder.Build();
  ASSERT_TRUE(gt.ok()) << gt.status();
  ASSERT_EQ(gt->entries.size(), p.num_topics());
  for (const GroundTruthEntry& e : gt->entries) {
    EXPECT_EQ(e.precision_at.size(), 4u);
    EXPECT_GT(e.graph.num_nodes(), 0u);
    EXPECT_GE(e.xq.quality, e.xq.baseline_quality);
  }
  std::string serialized = WriteGroundTruth(*gt, p.kb());
  EXPECT_EQ(static_cast<size_t>(
                std::count(serialized.begin(), serialized.end(), '\n')),
            gt->entries.size());
}

TEST(GroundTruthTest, OutOfRangeTopic) {
  GroundTruthBuilder builder(&SmallPipeline());
  EXPECT_TRUE(builder.BuildEntry(999).status().IsOutOfRange());
}

}  // namespace
}  // namespace wqe::groundtruth
