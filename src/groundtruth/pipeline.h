#pragma once

/// \file pipeline.h
/// \brief Internal experiment fixture for the §2/§3 machinery.
///
/// Wires together everything the ground-truth construction and the
/// query-graph analysis need: the (synthetic) Wikipedia, the (synthetic)
/// ImageCLEF-style track, the retrieval engine indexed over the extracted
/// document text, the entity linker, and the per-topic relevance
/// judgments.
///
/// This is NOT the public entry point.  Serving-style callers — examples,
/// benches, expansion tests — build an `api::Engine` (via `api::Testbed`
/// for synthetic experiments) and select expansion strategies through its
/// registry; the Pipeline remains as the fixture that
/// `groundtruth::GroundTruthBuilder` and `analysis::QueryGraphAnalyzer`
/// consume.

#include <memory>
#include <vector>

#include "clef/track.h"
#include "clef/track_generator.h"
#include "common/result.h"
#include "ir/eval.h"
#include "ir/search_engine.h"
#include "linking/entity_linker.h"
#include "wiki/synthetic.h"

namespace wqe::groundtruth {

/// \brief Aggregated configuration.
struct PipelineOptions {
  wiki::SyntheticWikipediaOptions wiki;
  clef::TrackGeneratorOptions track;
  ir::SearchEngineOptions engine;
  linking::EntityLinkerOptions linker;
};

/// \brief Built experiment context (immutable after Build).
class Pipeline {
 public:
  /// \brief Generates the knowledge base and track, extracts and indexes
  /// the document text, and resolves the relevance judgments.
  static Result<std::unique_ptr<Pipeline>> Build(
      const PipelineOptions& options);

  const wiki::SyntheticWikipedia& wiki() const { return wiki_; }
  const wiki::KnowledgeBase& kb() const { return wiki_.kb; }
  const clef::Track& track() const { return track_; }
  const ir::SearchEngine& engine() const { return *engine_; }
  const linking::EntityLinker& linker() const { return *linker_; }

  size_t num_topics() const { return track_.topics.size(); }
  const clef::Topic& topic(size_t i) const { return track_.topics[i]; }

  /// \brief The judged set D of topic `i` (document ids).
  const ir::RelevantSet& relevant(size_t i) const { return relevant_[i]; }

  /// \brief Extracted (indexable/linkable) text of a document.
  const std::string& doc_text(ir::DocId doc) const {
    return engine_->store().Get(doc).text;
  }

 private:
  Pipeline() = default;

  wiki::SyntheticWikipedia wiki_;
  clef::Track track_;
  std::unique_ptr<ir::SearchEngine> engine_;
  std::unique_ptr<linking::EntityLinker> linker_;
  std::vector<ir::RelevantSet> relevant_;
};

}  // namespace wqe::groundtruth
