#pragma once

/// \file cycle_metrics.h
/// \brief Per-cycle structural measurements used in §3 of the paper.
///
/// For a cycle C the paper defines:
///  - A(C), C(C): number of articles / categories among the cycle's nodes;
///  - E(C): number of edges among the cycle's nodes (induced, direction
///    counted for article links, redirects excluded);
///  - M(C) = A·(A−1) + A·C + C·(C−1)/2: the maximum possible edge count
///    given the Figure 1 schema (ordered article pairs can carry two links,
///    belongs is one per article–category pair, inside one per unordered
///    category pair);
///  - category ratio = C(C) / |C| (Figure 7a);
///  - density of extra edges = (E(C) − |C|) / (M(C) − |C|) (Figure 7b/9).
///
/// All measurements read the frozen `CsrGraph` snapshot: membership tests
/// are binary searches over the cycle's (tiny, sorted) node set and edge
/// probes are sorted-row lookups — no per-cycle hash sets.

#include <cstdint>
#include <vector>

#include "graph/csr.h"
#include "graph/cycles.h"
#include "graph/graph.h"

namespace wqe::graph {

/// \brief Structural measurements of one cycle.
struct CycleMetrics {
  uint32_t length = 0;
  uint32_t num_articles = 0;
  uint32_t num_categories = 0;
  uint32_t num_edges = 0;        ///< E(C)
  uint32_t max_edges = 0;        ///< M(C)
  double category_ratio = 0.0;   ///< C(C) / |C|
  double extra_edge_density = 0.0;
};

/// \brief Computes all metrics of `cycle` against its parent snapshot.
CycleMetrics ComputeCycleMetrics(const CsrGraph& graph, const Cycle& cycle);

/// \brief Metrics for every cycle, in input order (element i belongs to
/// `cycles[i]` — deterministic regardless of parallelism).  Cycles are
/// independent, so the batch shards across `pool` (or a transient pool)
/// when `num_threads != 1`; same thread-count semantics as
/// `CycleEnumerationOptions` (0 = auto), and calls from a pool worker
/// degrade to a sequential loop.  The analysis layer uses this to keep
/// per-topic metric computation off the critical path of large balls.
std::vector<CycleMetrics> ComputeCycleMetricsBatch(
    const CsrGraph& graph, const std::vector<Cycle>& cycles,
    uint32_t num_threads = 1, common::ThreadPool* pool = nullptr);

/// \brief E(C): edges of `graph` with both endpoints in `nodes`, redirects
/// excluded.  Each directed edge counts once (mutual links count twice).
uint32_t CountInducedEdges(const CsrGraph& graph,
                           const std::vector<NodeId>& nodes);

/// \brief M(C) for the given composition.
uint32_t MaxCycleEdges(uint32_t num_articles, uint32_t num_categories);

/// \brief Fraction of linked (unordered) article pairs with links in both
/// directions — the paper's "11.47% of connected article pairs form a cycle
/// of length 2" statistic.
double ReciprocalLinkRate(const CsrGraph& graph);

}  // namespace wqe::graph
