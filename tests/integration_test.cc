/// \file integration_test.cc
/// \brief Cross-module end-to-end checks: the whole §2→§3→§4 pipeline on a
/// mid-size instance, asserting the paper's headline shapes.

#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/paper_report.h"
#include "analysis/query_graph_analysis.h"
#include "api/evaluation.h"
#include "api/testbed.h"
#include "groundtruth/ground_truth.h"
#include "groundtruth/pipeline.h"
#include "wiki/dump.h"

namespace wqe {
namespace {

struct EndToEnd {
  const groundtruth::Pipeline* pipeline;
  const api::Testbed* bed;  ///< facade view of the same experiment
  groundtruth::GroundTruth gt;
  std::vector<analysis::TopicAnalysis> analyses;
};

const EndToEnd& Context() {
  static const EndToEnd* kContext = [] {
    auto* ctx = new EndToEnd();
    groundtruth::PipelineOptions options;
    options.wiki.num_domains = 20;
    options.track.num_topics = 12;
    options.track.background_docs = 300;
    auto pipeline = groundtruth::Pipeline::Build(options);
    EXPECT_TRUE(pipeline.ok()) << pipeline.status();
    ctx->pipeline = pipeline->release();

    // The serving-facade view: same generator options, so the engine is
    // built over an identical KB, corpus and track.
    auto bed = api::Testbed::Build(
        api::TestbedOptions::FromPipelineOptions(options));
    EXPECT_TRUE(bed.ok()) << bed.status();
    ctx->bed = bed->release();

    groundtruth::XqOptimizerOptions xq;
    xq.restarts = 1;
    xq.enable_swap = false;
    groundtruth::GroundTruthBuilder builder(ctx->pipeline, xq);
    auto gt = builder.Build();
    EXPECT_TRUE(gt.ok()) << gt.status();
    ctx->gt = std::move(gt).ValueOrDie();

    analysis::QueryGraphAnalyzer analyzer(ctx->pipeline, &ctx->gt);
    auto analyses = analyzer.AnalyzeAll();
    EXPECT_TRUE(analyses.ok()) << analyses.status();
    ctx->analyses = std::move(analyses).ValueOrDie();
    return ctx;
  }();
  return *kContext;
}

TEST(EndToEndTest, GroundTruthImprovesEveryTopic) {
  for (const auto& e : Context().gt.entries) {
    EXPECT_GE(e.xq.quality, e.xq.baseline_quality - 1e-9)
        << "topic " << e.topic_id;
    EXPECT_GT(e.xq.quality, 0.5) << "topic " << e.topic_id;
  }
}

TEST(EndToEndTest, SystemOrderingMatchesPaperNarrative) {
  const auto& ctx = Context();
  const api::Engine& engine = ctx.bed->engine();
  const auto topics = ctx.bed->EvalTopics();

  auto none_eval = api::EvaluateSystem(engine, "no-expansion", topics);
  auto direct_eval = api::EvaluateSystem(engine, "direct-link", topics);
  auto cycle_eval = api::EvaluateSystem(engine, "cycle", topics);
  ASSERT_TRUE(none_eval.ok());
  ASSERT_TRUE(direct_eval.ok());
  ASSERT_TRUE(cycle_eval.ok());

  // Structure-aware expansion beats both the unexpanded query and naive
  // link expansion.
  EXPECT_GT(cycle_eval->mean_o, none_eval->mean_o);
  EXPECT_GT(cycle_eval->mean_o, direct_eval->mean_o);
  // And does so with fewer features than naive link expansion.
  EXPECT_LT(cycle_eval->mean_features, direct_eval->mean_features);
}

TEST(EndToEndTest, RedirectAliasExtensionDoesNotHurt) {
  const auto& ctx = Context();
  const api::Engine& engine = ctx.bed->engine();
  const auto topics = ctx.bed->EvalTopics();
  api::ExpanderOverrides with_aliases;
  with_aliases.include_redirect_aliases = true;
  auto base_eval = api::EvaluateSystem(engine, "cycle", topics);
  auto alias_eval =
      api::EvaluateSystem(engine, "cycle", topics, with_aliases);
  ASSERT_TRUE(base_eval.ok());
  ASSERT_TRUE(alias_eval.ok());
  EXPECT_GE(alias_eval->mean_o, base_eval->mean_o - 0.05);
}

TEST(EndToEndTest, AliasFeaturesAreRedirectsOfBaseFeatures) {
  const auto& ctx = Context();
  const api::Testbed& bed = *ctx.bed;
  const wiki::KnowledgeBase& kb = bed.kb();
  std::vector<api::ExpandRequest> requests;
  for (size_t t = 0; t < bed.num_topics(); ++t) {
    api::ExpandRequest request;
    request.keywords = bed.topic(t).keywords;
    request.expander = "cycle";
    request.overrides.include_redirect_aliases = true;
    requests.push_back(std::move(request));
  }
  auto batch = bed.engine().ExpandBatch(requests);
  ASSERT_TRUE(batch.ok()) << batch.status();
  size_t alias_count = 0;
  for (const api::ExpandResponse& expanded : *batch) {
    for (graph::NodeId f : expanded.feature_articles) {
      if (!kb.IsRedirect(f)) continue;
      ++alias_count;
      // The alias' main article must itself be a selected feature.
      graph::NodeId main = kb.ResolveRedirect(f);
      EXPECT_NE(std::find(expanded.feature_articles.begin(),
                          expanded.feature_articles.end(), main),
                expanded.feature_articles.end());
    }
  }
  EXPECT_GT(alias_count, 0u);  // the KB has plenty of redirects
}

TEST(EndToEndTest, Figure9TrendIsPositive) {
  analysis::Fig9Report report = analysis::ComputeFig9(Context().analyses);
  EXPECT_GT(report.num_cycles, 100u);
  EXPECT_GT(report.trend.slope, 0.0);
}

TEST(EndToEndTest, Figure5TwoCyclesBeatThreeCycles) {
  analysis::LengthSeries fig5 = analysis::ComputeFig5(Context().analyses);
  ASSERT_EQ(fig5.values.size(), 4u);
  // The robust part of the paper's Fig 5 shape: length 2 above length 3.
  EXPECT_GT(fig5.values[0], fig5.values[1]);
}

TEST(EndToEndTest, QueryGraphsContainSatelliteComponents) {
  // The foreign-mention planting must produce at least some disconnected
  // query graphs, as the paper observes (Table 3 %size < 1).
  size_t with_satellites = 0;
  for (const auto& a : Context().analyses) {
    if (a.component.num_components > 1) ++with_satellites;
  }
  EXPECT_GT(with_satellites, 0u);
}

TEST(EndToEndTest, GroundTruthEntriesCarryTrackIndex) {
  const auto& ctx = Context();
  for (size_t t = 0; t < ctx.gt.entries.size(); ++t) {
    EXPECT_EQ(ctx.gt.entries[t].topic_index, t);
    EXPECT_EQ(ctx.gt.entries[t].topic_id, ctx.pipeline->topic(t).id);
  }
}

TEST(EndToEndTest, PartialGroundTruthAnalyzesAgainstRightQrels) {
  // Regression test: analyzing a ground truth holding only topic 3 must
  // evaluate contributions against topic 3's qrels, not topic 0's.
  const auto& ctx = Context();
  groundtruth::GroundTruthBuilder builder(ctx.pipeline);
  auto entry = builder.BuildEntry(3);
  ASSERT_TRUE(entry.ok());
  double baseline = entry->xq.baseline_quality;
  groundtruth::GroundTruth partial;
  partial.entries.push_back(std::move(*entry));
  analysis::QueryGraphAnalyzer analyzer(ctx.pipeline, &partial);
  auto a = analyzer.Analyze(0);
  ASSERT_TRUE(a.ok());
  EXPECT_NEAR(a->baseline_quality, baseline, 1e-9);
}

TEST(EndToEndTest, KbSurvivesDumpRoundTripWithinPipeline) {
  const auto& ctx = Context();
  std::string dump = wiki::WriteDump(ctx.pipeline->kb());
  auto kb2 = wiki::ParseDump(dump);
  ASSERT_TRUE(kb2.ok()) << kb2.status();
  EXPECT_EQ(kb2->num_articles(), ctx.pipeline->kb().num_articles());
  EXPECT_EQ(kb2->graph().num_edges(), ctx.pipeline->kb().csr().num_edges());
}

TEST(EndToEndTest, DeterministicAcrossPipelineBuilds) {
  groundtruth::PipelineOptions options;
  options.wiki.num_domains = 8;
  options.track.num_topics = 3;
  options.track.background_docs = 50;
  auto p1 = groundtruth::Pipeline::Build(options);
  auto p2 = groundtruth::Pipeline::Build(options);
  ASSERT_TRUE(p1.ok());
  ASSERT_TRUE(p2.ok());
  ASSERT_EQ((*p1)->track().documents.size(),
            (*p2)->track().documents.size());
  for (size_t i = 0; i < (*p1)->track().documents.size(); ++i) {
    ASSERT_EQ((*p1)->track().documents[i].xml,
              (*p2)->track().documents[i].xml);
  }
  groundtruth::GroundTruthBuilder b1(p1->get()), b2(p2->get());
  auto e1 = b1.BuildEntry(0);
  auto e2 = b2.BuildEntry(0);
  ASSERT_TRUE(e1.ok());
  ASSERT_TRUE(e2.ok());
  EXPECT_EQ(e1->xq.selected, e2->xq.selected);
}

}  // namespace
}  // namespace wqe
