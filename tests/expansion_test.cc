/// \file expansion_test.cc
/// \brief Tests for the expansion systems: cycle expander and baselines.
///
/// Concrete expander classes are constructed directly only here (these
/// are their unit tests); everything else goes through the api::Engine
/// registry.

#include <gtest/gtest.h>

#include <algorithm>

#include "api/evaluation.h"
#include "api/testbed.h"
#include "expansion/baselines.h"
#include "expansion/cycle_expander.h"

namespace wqe::expansion {
namespace {

const api::Testbed& SmallBed() {
  static const api::Testbed* kBed = [] {
    api::TestbedOptions options;
    options.wiki.num_domains = 12;
    options.track.num_topics = 6;
    options.track.background_docs = 150;
    auto result = api::Testbed::Build(options);
    EXPECT_TRUE(result.ok()) << result.status();
    return result->release();
  }();
  return *kBed;
}

TEST(NoExpansionTest, EmitsKeywordsOnly) {
  const auto& bed = SmallBed();
  NoExpansion system(bed.kb(), bed.linker());
  auto expanded = system.Expand(bed.topic(0).keywords);
  ASSERT_TRUE(expanded.ok());
  EXPECT_TRUE(expanded->feature_articles.empty());
  EXPECT_EQ(expanded->titles.size(), expanded->query_articles.size());
  EXPECT_FALSE(expanded->query.children.empty());
}

TEST(ExpanderTest, UnlinkableKeywordsFallBackToRawQuery) {
  const auto& bed = SmallBed();
  NoExpansion system(bed.kb(), bed.linker());
  auto expanded = system.Expand("zzz qqq www");
  ASSERT_TRUE(expanded.ok());
  EXPECT_TRUE(expanded->query_articles.empty());
  EXPECT_FALSE(expanded->query.children.empty());
  EXPECT_TRUE(system.Expand("").status().IsInvalidArgument());
}

TEST(DirectLinkTest, FeaturesAreLinkedNeighbors) {
  const auto& bed = SmallBed();
  DirectLinkExpansion system(bed.kb(), bed.linker());
  auto expanded = system.Expand(bed.topic(0).keywords);
  ASSERT_TRUE(expanded.ok());
  EXPECT_FALSE(expanded->feature_articles.empty());
  EXPECT_LE(expanded->feature_articles.size(), 10u);
  for (graph::NodeId f : expanded->feature_articles) {
    bool linked = false;
    for (graph::NodeId q : expanded->query_articles) {
      if (bed.kb().csr().HasEdge(q, f, graph::EdgeKind::kLink)) {
        linked = true;
        break;
      }
    }
    EXPECT_TRUE(linked) << bed.kb().display_title(f);
  }
}

TEST(CommunityTest, FeaturesCloseTrianglesWithQuery) {
  const auto& bed = SmallBed();
  CommunityExpansion system(bed.kb(), bed.linker());
  auto expanded = system.Expand(bed.topic(0).keywords);
  ASSERT_TRUE(expanded.ok());
  EXPECT_LE(expanded->feature_articles.size(), 10u);
}

TEST(CycleExpanderTest, AcceptsCycleFilters) {
  const auto& bed = SmallBed();
  CycleExpander system(bed.kb(), bed.linker());

  graph::CycleMetrics two_cycle;
  two_cycle.length = 2;
  EXPECT_TRUE(system.AcceptsCycle(two_cycle));

  graph::CycleMetrics cat_free_triangle;  // the sheep–anthrax case (Fig 8)
  cat_free_triangle.length = 3;
  cat_free_triangle.category_ratio = 0.0;
  cat_free_triangle.extra_edge_density = 1.0;
  EXPECT_FALSE(system.AcceptsCycle(cat_free_triangle));

  graph::CycleMetrics good_triangle;
  good_triangle.length = 3;
  good_triangle.category_ratio = 1.0 / 3.0;
  good_triangle.extra_edge_density = 0.0;
  EXPECT_TRUE(system.AcceptsCycle(good_triangle));  // density from len 4

  graph::CycleMetrics sparse_long;
  sparse_long.length = 5;
  sparse_long.category_ratio = 0.4;
  sparse_long.extra_edge_density = 0.1;
  EXPECT_FALSE(system.AcceptsCycle(sparse_long));

  graph::CycleMetrics dense_long = sparse_long;
  dense_long.extra_edge_density = 0.8;
  EXPECT_TRUE(system.AcceptsCycle(dense_long));

  graph::CycleMetrics all_categories;
  all_categories.length = 4;
  all_categories.category_ratio = 1.0;
  all_categories.extra_edge_density = 1.0;
  EXPECT_FALSE(system.AcceptsCycle(all_categories));  // ratio > max

  graph::CycleMetrics too_long;
  too_long.length = 6;
  too_long.category_ratio = 0.3;
  too_long.extra_edge_density = 1.0;
  EXPECT_FALSE(system.AcceptsCycle(too_long));
}

TEST(CycleExpanderTest, FindsPlantedCoreArticles) {
  const auto& bed = SmallBed();
  CycleExpander system(bed.kb(), bed.linker());
  size_t topics_with_core_hit = 0;
  for (size_t t = 0; t < bed.num_topics(); ++t) {
    auto expanded = system.Expand(bed.topic(t).keywords);
    ASSERT_TRUE(expanded.ok());
    const auto& planted = bed.topic(t).planted_good;
    size_t hits = 0;
    for (graph::NodeId f : expanded->feature_articles) {
      if (std::find(planted.begin(), planted.end(), f) != planted.end()) {
        ++hits;
      }
    }
    if (hits >= 2) ++topics_with_core_hit;
  }
  // Structure must recover planted features for most topics.
  EXPECT_GE(topics_with_core_hit, bed.num_topics() - 1);
}

TEST(CycleExpanderTest, RespectsMaxFeatures) {
  const auto& bed = SmallBed();
  CycleExpanderOptions options;
  options.max_features = 3;
  CycleExpander system(bed.kb(), bed.linker(), options);
  auto expanded = system.Expand(bed.topic(0).keywords);
  ASSERT_TRUE(expanded.ok());
  EXPECT_LE(expanded->feature_articles.size(), 3u);
}

TEST(CycleExpanderTest, DeterministicOutput) {
  const auto& bed = SmallBed();
  CycleExpander system(bed.kb(), bed.linker());
  auto a = system.Expand(bed.topic(2).keywords);
  auto b = system.Expand(bed.topic(2).keywords);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->feature_articles, b->feature_articles);
}

TEST(EvaluationTest, CycleExpansionBeatsNoExpansion) {
  const auto& bed = SmallBed();
  const auto topics = bed.EvalTopics();
  auto base_eval = api::EvaluateSystem(bed.engine(), "no-expansion", topics);
  auto cycle_eval = api::EvaluateSystem(bed.engine(), "cycle", topics);
  ASSERT_TRUE(base_eval.ok());
  ASSERT_TRUE(cycle_eval.ok());
  EXPECT_EQ(base_eval->topics, bed.num_topics());
  // The headline result: structure-guided expansion improves Equation 1.
  EXPECT_GT(cycle_eval->mean_o, base_eval->mean_o + 0.05);
  EXPECT_GT(cycle_eval->mean_precision[2], base_eval->mean_precision[2]);
  EXPECT_GT(cycle_eval->mean_features, 0.0);
  EXPECT_DOUBLE_EQ(base_eval->mean_features, 0.0);
}

TEST(EvaluationTest, CycleExpansionCompetitiveWithDirectLink) {
  const auto& bed = SmallBed();
  const auto topics = bed.EvalTopics();
  auto direct_eval = api::EvaluateSystem(bed.engine(), "direct-link", topics);
  auto cycle_eval = api::EvaluateSystem(bed.engine(), "cycle", topics);
  ASSERT_TRUE(direct_eval.ok());
  ASSERT_TRUE(cycle_eval.ok());
  // Both systems should land in the same quality regime; the ablation
  // bench (E10) reports the exact ordering for the full-size track.
  EXPECT_GE(cycle_eval->mean_o, direct_eval->mean_o - 0.1);
}

}  // namespace
}  // namespace wqe::expansion
