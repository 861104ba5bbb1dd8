/// \file cycles_test.cc
/// \brief Tests for cycle enumeration and cycle metrics — the paper's core
/// structural machinery.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <set>
#include <future>
#include <thread>
#include <vector>

#include "common/deadline.h"
#include "common/fault_injection.h"
#include "common/rng.h"
#include "graph/ball_prune.h"
#include "graph/cycle_metrics.h"
#include "graph/csr.h"
#include "graph/cycles.h"
#include "graph/graph.h"
#include "graph/undirected_view.h"
#include "serve/thread_pool.h"
#include "wiki/knowledge_base.h"

namespace wqe::graph {
namespace {

/// Articles 0..n-1 with a single directed link per unordered pair
/// (i -> j for i < j): the undirected view is the complete graph K_n.
PropertyGraph CompleteArticleGraph(uint32_t n) {
  PropertyGraph g;
  for (uint32_t i = 0; i < n; ++i) {
    g.AddNode(NodeKind::kArticle);
  }
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = i + 1; j < n; ++j) {
      EXPECT_TRUE(g.AddEdge(i, j, EdgeKind::kLink).ok());
    }
  }
  return g;
}

size_t CountCyclesOfLength(const std::vector<Cycle>& cycles, uint32_t len) {
  size_t n = 0;
  for (const Cycle& c : cycles) {
    if (c.length() == len) ++n;
  }
  return n;
}

TEST(CycleEnumeratorTest, TriangleFoundOnce) {
  PropertyGraph g = CompleteArticleGraph(3);
  CsrGraph csr = CsrGraph::Freeze(g);
  UndirectedView view(csr);
  CycleEnumerator e(view);
  CycleEnumerationOptions options;
  std::vector<Cycle> cycles = e.Enumerate(options);
  ASSERT_EQ(cycles.size(), 1u);
  EXPECT_EQ(cycles[0].length(), 3u);
  // Canonical form starts at the smallest node.
  EXPECT_EQ(cycles[0].nodes[0], 0u);
  EXPECT_LT(cycles[0].nodes[1], cycles[0].nodes[2]);
}

TEST(CycleEnumeratorTest, TwoCycleNeedsParallelEdges) {
  PropertyGraph g;
  NodeId a = g.AddNode(NodeKind::kArticle);
  NodeId b = g.AddNode(NodeKind::kArticle);
  ASSERT_TRUE(g.AddEdge(a, b, EdgeKind::kLink).ok());
  {
    CsrGraph csr = CsrGraph::Freeze(g);
    UndirectedView view(csr);
    CycleEnumerator e(view);
    EXPECT_TRUE(e.Enumerate({}).empty());  // single link: no 2-cycle
  }
  ASSERT_TRUE(g.AddEdge(b, a, EdgeKind::kLink).ok());
  {
    CsrGraph csr = CsrGraph::Freeze(g);
    UndirectedView view(csr);
    CycleEnumerator e(view);
    std::vector<Cycle> cycles = e.Enumerate({});
    ASSERT_EQ(cycles.size(), 1u);
    EXPECT_EQ(cycles[0].length(), 2u);
  }
}

TEST(CycleEnumeratorTest, RedirectNeverClosesCycle) {
  // Redirect r -> a plus link a -> r would be a parallel pair, but the
  // redirect edge is excluded from the cycle view (paper §4).
  PropertyGraph g;
  NodeId a = g.AddNode(NodeKind::kArticle);
  NodeId r = g.AddNode(NodeKind::kArticle);
  ASSERT_TRUE(g.AddEdge(r, a, EdgeKind::kRedirect).ok());
  ASSERT_TRUE(g.AddEdge(a, r, EdgeKind::kLink).ok());
  CsrGraph csr = CsrGraph::Freeze(g);
  UndirectedView view(csr);
  CycleEnumerator e(view);
  EXPECT_TRUE(e.Enumerate({}).empty());
}

/// Number of distinct cycles of length k in K_n: C(n,k) * (k-1)! / 2.
size_t ExpectedCyclesInComplete(uint32_t n, uint32_t k) {
  auto choose = [](uint32_t a, uint32_t b) -> size_t {
    size_t r = 1;
    for (uint32_t i = 0; i < b; ++i) r = r * (a - i) / (i + 1);
    return r;
  };
  size_t fact = 1;
  for (uint32_t i = 2; i < k; ++i) fact *= i;
  return choose(n, k) * fact / 2;
}

class CompleteGraphCycleTest
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint32_t>> {};

TEST_P(CompleteGraphCycleTest, CountMatchesClosedForm) {
  auto [n, k] = GetParam();
  PropertyGraph g = CompleteArticleGraph(n);
  CsrGraph csr = CsrGraph::Freeze(g);
  UndirectedView view(csr);
  CycleEnumerator e(view);
  CycleEnumerationOptions options;
  options.min_length = k;
  options.max_length = k;
  std::vector<Cycle> cycles = e.Enumerate(options);
  EXPECT_EQ(cycles.size(), ExpectedCyclesInComplete(n, k))
      << "K_" << n << ", length " << k;
  // Each enumerated cycle must be a set of k distinct nodes.
  for (const Cycle& c : cycles) {
    std::set<NodeId> unique(c.nodes.begin(), c.nodes.end());
    EXPECT_EQ(unique.size(), k);
  }
}

INSTANTIATE_TEST_SUITE_P(
    KnCounts, CompleteGraphCycleTest,
    ::testing::Values(std::make_tuple(4u, 3u), std::make_tuple(4u, 4u),
                      std::make_tuple(5u, 3u), std::make_tuple(5u, 4u),
                      std::make_tuple(5u, 5u), std::make_tuple(6u, 3u),
                      std::make_tuple(6u, 4u), std::make_tuple(6u, 5u),
                      std::make_tuple(7u, 5u)));

TEST(CycleEnumeratorTest, SeedFilterKeepsOnlyTouchingCycles) {
  // Two disjoint triangles; seed in the first.
  PropertyGraph g;
  for (int i = 0; i < 6; ++i) {
    g.AddNode(NodeKind::kArticle);
  }
  for (auto [u, v] : {std::pair{0, 1}, {1, 2}, {0, 2},
                      {3, 4}, {4, 5}, {3, 5}}) {
    ASSERT_TRUE(g.AddEdge(u, v, EdgeKind::kLink).ok());
  }
  CsrGraph csr = CsrGraph::Freeze(g);
  UndirectedView view(csr);
  CycleEnumerator e(view);
  CycleEnumerationOptions options;
  options.seeds = {0};
  std::vector<Cycle> cycles = e.Enumerate(options);
  ASSERT_EQ(cycles.size(), 1u);
  EXPECT_EQ(cycles[0].nodes[0], 0u);
}

TEST(CycleEnumeratorTest, MaxCyclesCapsEnumeration) {
  PropertyGraph g = CompleteArticleGraph(7);
  CsrGraph csr = CsrGraph::Freeze(g);
  UndirectedView view(csr);
  CycleEnumerator e(view);
  CycleEnumerationOptions options;
  options.max_cycles = 5;
  EXPECT_EQ(e.Enumerate(options).size(), 5u);
}

TEST(CycleEnumeratorTest, VisitorCanAbort) {
  PropertyGraph g = CompleteArticleGraph(6);
  CsrGraph csr = CsrGraph::Freeze(g);
  UndirectedView view(csr);
  CycleEnumerator e(view);
  size_t seen = 0;
  e.Visit({}, [&](const std::vector<uint32_t>&) {
    ++seen;
    return seen < 3;
  });
  EXPECT_EQ(seen, 3u);
}

TEST(CycleEnumeratorTest, LengthBoundsRespected) {
  PropertyGraph g = CompleteArticleGraph(6);
  CsrGraph csr = CsrGraph::Freeze(g);
  UndirectedView view(csr);
  CycleEnumerator e(view);
  CycleEnumerationOptions options;
  options.min_length = 4;
  options.max_length = 5;
  std::vector<Cycle> cycles = e.Enumerate(options);
  EXPECT_EQ(CountCyclesOfLength(cycles, 3), 0u);
  EXPECT_EQ(CountCyclesOfLength(cycles, 4),
            ExpectedCyclesInComplete(6, 4));
  EXPECT_EQ(CountCyclesOfLength(cycles, 5),
            ExpectedCyclesInComplete(6, 5));
}

TEST(CycleEnumeratorTest, MixedArticleCategoryCycle) {
  // The paper's Figure 4(b) shape: venice - grand canal - palazzo bembo
  // via links and a shared category forms length-3 cycles.
  PropertyGraph g;
  NodeId q = g.AddNode(NodeKind::kArticle);
  NodeId x = g.AddNode(NodeKind::kArticle);
  NodeId c = g.AddNode(NodeKind::kCategory);
  ASSERT_TRUE(g.AddEdge(q, x, EdgeKind::kLink).ok());
  ASSERT_TRUE(g.AddEdge(q, c, EdgeKind::kBelongs).ok());
  ASSERT_TRUE(g.AddEdge(x, c, EdgeKind::kBelongs).ok());
  CsrGraph csr = CsrGraph::Freeze(g);
  UndirectedView view(csr);
  CycleEnumerator e(view);
  std::vector<Cycle> cycles = e.Enumerate({});
  ASSERT_EQ(cycles.size(), 1u);
  EXPECT_EQ(cycles[0].length(), 3u);
}

// ------------------------------------------------------------ CycleMetrics

TEST(CycleMetricsTest, MaxEdgesFormula) {
  EXPECT_EQ(MaxCycleEdges(2, 0), 2u);
  EXPECT_EQ(MaxCycleEdges(2, 1), 4u);
  EXPECT_EQ(MaxCycleEdges(2, 2), 7u);
  EXPECT_EQ(MaxCycleEdges(3, 0), 6u);
  EXPECT_EQ(MaxCycleEdges(3, 2), 13u);
  EXPECT_EQ(MaxCycleEdges(0, 0), 0u);
  EXPECT_EQ(MaxCycleEdges(0, 3), 3u);
}

TEST(CycleMetricsTest, DenseTriangleWithCategory) {
  // a <-> b mutual links; both belong to c: E=4, M=4, density 1.
  PropertyGraph g;
  NodeId a = g.AddNode(NodeKind::kArticle);
  NodeId b = g.AddNode(NodeKind::kArticle);
  NodeId c = g.AddNode(NodeKind::kCategory);
  ASSERT_TRUE(g.AddEdge(a, b, EdgeKind::kLink).ok());
  ASSERT_TRUE(g.AddEdge(b, a, EdgeKind::kLink).ok());
  ASSERT_TRUE(g.AddEdge(a, c, EdgeKind::kBelongs).ok());
  ASSERT_TRUE(g.AddEdge(b, c, EdgeKind::kBelongs).ok());
  Cycle cycle;
  cycle.nodes = {a, b, c};
  CycleMetrics m = ComputeCycleMetrics(CsrGraph::Freeze(g), cycle);
  EXPECT_EQ(m.length, 3u);
  EXPECT_EQ(m.num_articles, 2u);
  EXPECT_EQ(m.num_categories, 1u);
  EXPECT_EQ(m.num_edges, 4u);
  EXPECT_EQ(m.max_edges, 4u);
  EXPECT_NEAR(m.category_ratio, 1.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(m.extra_edge_density, 1.0);
}

TEST(CycleMetricsTest, PlainCategoryBridgedFourCycleHasZeroDensity) {
  // q - c1 - x - c2 - q with no chords: E = |C| = 4 → density 0.
  PropertyGraph g;
  NodeId q = g.AddNode(NodeKind::kArticle);
  NodeId x = g.AddNode(NodeKind::kArticle);
  NodeId c1 = g.AddNode(NodeKind::kCategory);
  NodeId c2 = g.AddNode(NodeKind::kCategory);
  ASSERT_TRUE(g.AddEdge(q, c1, EdgeKind::kBelongs).ok());
  ASSERT_TRUE(g.AddEdge(x, c1, EdgeKind::kBelongs).ok());
  ASSERT_TRUE(g.AddEdge(q, c2, EdgeKind::kBelongs).ok());
  ASSERT_TRUE(g.AddEdge(x, c2, EdgeKind::kBelongs).ok());
  Cycle cycle;
  cycle.nodes = {q, c1, x, c2};
  CycleMetrics m = ComputeCycleMetrics(CsrGraph::Freeze(g), cycle);
  EXPECT_EQ(m.num_edges, 4u);
  EXPECT_EQ(m.max_edges, 7u);
  EXPECT_DOUBLE_EQ(m.extra_edge_density, 0.0);
  EXPECT_DOUBLE_EQ(m.category_ratio, 0.5);
}

TEST(CycleMetricsTest, ChordRaisesDensity) {
  // Same 4-cycle plus c1 inside c2: one extra edge → density 1/3.
  PropertyGraph g;
  NodeId q = g.AddNode(NodeKind::kArticle);
  NodeId x = g.AddNode(NodeKind::kArticle);
  NodeId c1 = g.AddNode(NodeKind::kCategory);
  NodeId c2 = g.AddNode(NodeKind::kCategory);
  ASSERT_TRUE(g.AddEdge(q, c1, EdgeKind::kBelongs).ok());
  ASSERT_TRUE(g.AddEdge(x, c1, EdgeKind::kBelongs).ok());
  ASSERT_TRUE(g.AddEdge(q, c2, EdgeKind::kBelongs).ok());
  ASSERT_TRUE(g.AddEdge(x, c2, EdgeKind::kBelongs).ok());
  ASSERT_TRUE(g.AddEdge(c1, c2, EdgeKind::kInside).ok());
  Cycle cycle;
  cycle.nodes = {q, c1, x, c2};
  CycleMetrics m = ComputeCycleMetrics(CsrGraph::Freeze(g), cycle);
  EXPECT_EQ(m.num_edges, 5u);
  EXPECT_NEAR(m.extra_edge_density, 1.0 / 3.0, 1e-12);
}

TEST(CycleMetricsTest, TwoCycleDensityGuard) {
  PropertyGraph g;
  NodeId a = g.AddNode(NodeKind::kArticle);
  NodeId b = g.AddNode(NodeKind::kArticle);
  ASSERT_TRUE(g.AddEdge(a, b, EdgeKind::kLink).ok());
  ASSERT_TRUE(g.AddEdge(b, a, EdgeKind::kLink).ok());
  Cycle cycle;
  cycle.nodes = {a, b};
  CycleMetrics m = ComputeCycleMetrics(CsrGraph::Freeze(g), cycle);
  EXPECT_EQ(m.num_edges, 2u);
  EXPECT_EQ(m.max_edges, 2u);  // M == |C|: density undefined → 0
  EXPECT_DOUBLE_EQ(m.extra_edge_density, 0.0);
}

TEST(CycleMetricsTest, RedirectEdgesExcludedFromInducedCount) {
  PropertyGraph g;
  NodeId a = g.AddNode(NodeKind::kArticle);
  NodeId b = g.AddNode(NodeKind::kArticle);
  ASSERT_TRUE(g.AddEdge(a, b, EdgeKind::kLink).ok());
  ASSERT_TRUE(g.AddEdge(b, a, EdgeKind::kRedirect).ok());
  EXPECT_EQ(CountInducedEdges(CsrGraph::Freeze(g), {a, b}), 1u);
}

TEST(ReciprocalLinkRateTest, CountsMutualFraction) {
  PropertyGraph g;
  for (int i = 0; i < 4; ++i) {
    g.AddNode(NodeKind::kArticle);
  }
  // Pairs: (0,1) mutual, (0,2) single, (1,3) single → rate 1/3.
  ASSERT_TRUE(g.AddEdge(0, 1, EdgeKind::kLink).ok());
  ASSERT_TRUE(g.AddEdge(1, 0, EdgeKind::kLink).ok());
  ASSERT_TRUE(g.AddEdge(0, 2, EdgeKind::kLink).ok());
  ASSERT_TRUE(g.AddEdge(1, 3, EdgeKind::kLink).ok());
  EXPECT_NEAR(ReciprocalLinkRate(CsrGraph::Freeze(g)), 1.0 / 3.0, 1e-12);
}

TEST(ReciprocalLinkRateTest, EmptyGraphIsZero) {
  PropertyGraph g;
  EXPECT_DOUBLE_EQ(ReciprocalLinkRate(CsrGraph::Freeze(g)), 0.0);
}

// ------------------------------------------- parallel determinism suite
//
// The contract under test: the parallel enumerator's output — cycle set,
// cycle *order*, max_cycles truncation point, visitor-abort prefix — is
// bit-identical to the sequential enumerator at every worker count, even
// with adversarial chunk sizes of 1 (maximum interleaving of the merge).

/// Hub-skewed random article/category graph: quadratically biased
/// endpoints give the few hub nodes most of the degree mass, the
/// worst case for naive uniform chunking.
PropertyGraph SkewedSchemaGraph(uint64_t seed, uint32_t num_articles,
                                uint32_t num_categories, uint32_t num_edges) {
  Rng rng(seed);
  PropertyGraph g;
  for (uint32_t i = 0; i < num_articles; ++i) {
    g.AddNode(NodeKind::kArticle);
  }
  for (uint32_t i = 0; i < num_categories; ++i) {
    g.AddNode(NodeKind::kCategory);
  }
  const uint32_t n = num_articles + num_categories;
  auto skewed = [&] {
    uint64_t x = rng.Uniform(n);
    return static_cast<uint32_t>(x * x / n);  // quadratic bias toward hubs
  };
  for (uint32_t e = 0; e < num_edges; ++e) {
    uint32_t u = skewed();
    uint32_t v = rng.Uniform(n);
    if (u == v) continue;
    if (g.IsArticle(u) && g.IsArticle(v)) {
      (void)g.AddEdge(u, v, EdgeKind::kLink);
    } else if (g.IsArticle(u) && g.IsCategory(v)) {
      (void)g.AddEdge(u, v, EdgeKind::kBelongs);
    } else if (g.IsCategory(u) && g.IsCategory(v)) {
      (void)g.AddEdge(u, v, EdgeKind::kInside);
    }
  }
  return g;
}

std::vector<std::vector<NodeId>> CycleNodes(const std::vector<Cycle>& cycles) {
  std::vector<std::vector<NodeId>> out;
  out.reserve(cycles.size());
  for (const Cycle& c : cycles) out.push_back(c.nodes);
  return out;
}

class ParallelDeterminismProperty : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(ParallelDeterminismProperty, BitIdenticalAcrossWorkersAndChunks) {
  PropertyGraph g = SkewedSchemaGraph(GetParam(), 26, 9, 260);
  CsrGraph csr = CsrGraph::Freeze(g);
  UndirectedView view(csr);
  CycleEnumerator e(view);

  std::vector<CycleEnumerationOptions> configs;
  {
    CycleEnumerationOptions base;  // lengths 2..5, no filters
    configs.push_back(base);
    CycleEnumerationOptions window = base;
    window.min_length = 3;
    window.max_length = 4;
    configs.push_back(window);
    CycleEnumerationOptions chordless = base;
    chordless.min_length = 4;
    chordless.chordless_only = true;
    configs.push_back(chordless);
    CycleEnumerationOptions seeded = base;
    seeded.seeds = {0, 5, 11};
    configs.push_back(seeded);
    for (size_t cap : {size_t{1}, size_t{5}, size_t{17}}) {
      CycleEnumerationOptions truncated = base;
      truncated.max_cycles = cap;
      configs.push_back(truncated);
      CycleEnumerationOptions seeded_truncated = seeded;
      seeded_truncated.max_cycles = cap;
      configs.push_back(seeded_truncated);
      // DFS-only stream (no length-2 phase): the prefix budget counts
      // the DFS stream here — the other early-stop code path.
      CycleEnumerationOptions dfs_truncated = window;
      dfs_truncated.max_cycles = cap;
      configs.push_back(dfs_truncated);
    }
  }

  for (const CycleEnumerationOptions& sequential : configs) {
    std::vector<std::vector<NodeId>> want =
        CycleNodes(e.Enumerate(sequential));
    for (uint32_t workers : {2u, 4u, 8u}) {
      for (uint32_t chunk : {0u, 1u}) {  // auto and adversarial size-1
        CycleEnumerationOptions parallel = sequential;
        parallel.num_threads = workers;
        parallel.parallel_chunk_starts = chunk;
        EXPECT_EQ(want, CycleNodes(e.Enumerate(parallel)))
            << "workers=" << workers << " chunk=" << chunk
            << " max_cycles=" << sequential.max_cycles
            << " chordless=" << sequential.chordless_only;
      }
    }
  }
}

TEST_P(ParallelDeterminismProperty, InducedSubsetViewsMatchToo) {
  PropertyGraph g = SkewedSchemaGraph(GetParam(), 30, 10, 300);
  CsrGraph csr = CsrGraph::Freeze(g);
  std::vector<NodeId> members;
  for (NodeId n = 0; n < g.num_nodes(); n += 2) members.push_back(n);
  UndirectedView view(csr, members);
  CycleEnumerator e(view);

  CycleEnumerationOptions sequential;
  std::vector<std::vector<NodeId>> want = CycleNodes(e.Enumerate(sequential));
  CycleEnumerationOptions parallel = sequential;
  parallel.num_threads = 4;
  parallel.parallel_chunk_starts = 1;
  EXPECT_EQ(want, CycleNodes(e.Enumerate(parallel)));

  // The induced-enumeration convenience wrapper takes the same knobs.
  EXPECT_EQ(CycleNodes(EnumerateCycles(csr, members, sequential)),
            CycleNodes(EnumerateCycles(csr, members, parallel)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelDeterminismProperty,
                         ::testing::Values(7, 19, 42, 1234, 90210));

// ---- Ball pruning: pruned enumeration must be bit-identical to unpruned
// (cycle set, order, truncation, visitor-abort prefix) — see
// graph/ball_prune.h for why the surviving subgraph is a cycle superset.

/// SkewedSchemaGraph decorated with peelable pendant chains off every
/// fourth node: structure the pruning pass genuinely removes, so these
/// properties don't vacuously pass on an all-alive graph.
PropertyGraph SkewedGraphWithPendants(uint64_t seed, uint32_t num_articles,
                                      uint32_t num_categories,
                                      uint32_t num_edges) {
  PropertyGraph g = SkewedSchemaGraph(seed, num_articles, num_categories,
                                      num_edges);
  const uint32_t core = g.num_nodes();
  for (uint32_t anchor = 0; anchor < core; anchor += 4) {
    NodeId prev = anchor;
    for (int hop = 0; hop < 3; ++hop) {
      NodeId leaf = g.AddNode(NodeKind::kArticle);
      if (g.IsArticle(prev)) {
        EXPECT_TRUE(g.AddEdge(prev, leaf, EdgeKind::kLink).ok());
      } else {
        EXPECT_TRUE(g.AddEdge(leaf, prev, EdgeKind::kBelongs).ok());
      }
      prev = leaf;
    }
  }
  return g;
}

class PrunedIdentityProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PrunedIdentityProperty, PrunedMatchesUnprunedEverywhere) {
  PropertyGraph g = SkewedGraphWithPendants(GetParam(), 26, 9, 260);
  CsrGraph csr = CsrGraph::Freeze(g);
  UndirectedView view(csr);
  CycleEnumerator e(view);

  // The decoration must actually be prunable — otherwise the identity
  // below proves nothing.
  std::vector<uint64_t> alive;
  ASSERT_TRUE(PruneBall(view, {}, 5, &alive).pruned_any());

  std::vector<CycleEnumerationOptions> configs;
  for (uint32_t min_len : {2u, 3u, 4u}) {
    for (uint32_t max_len : {2u, 3u, 5u}) {
      if (max_len < min_len) continue;
      for (bool chordless : {false, true}) {
        for (size_t cap : {size_t{0}, size_t{1}, size_t{5}, size_t{17}}) {
          CycleEnumerationOptions c;
          c.min_length = min_len;
          c.max_length = max_len;
          c.chordless_only = chordless;
          c.max_cycles = cap;
          configs.push_back(c);
          CycleEnumerationOptions seeded = c;
          seeded.seeds = {0, 5, 11};
          configs.push_back(seeded);
        }
      }
    }
  }

  for (const CycleEnumerationOptions& config : configs) {
    CycleEnumerationOptions unpruned = config;
    unpruned.prune_ball = false;
    std::vector<std::vector<NodeId>> want = CycleNodes(e.Enumerate(unpruned));

    CycleEnumerationOptions pruned = config;
    pruned.prune_ball = true;
    EXPECT_EQ(want, CycleNodes(e.Enumerate(pruned)))
        << "sequential lengths=" << config.min_length << ".."
        << config.max_length << " chordless=" << config.chordless_only
        << " cap=" << config.max_cycles << " seeds=" << config.seeds.size();

    // 4-thread parallel with adversarial size-1 chunks, pruned, against
    // the unpruned sequential reference: covers the alive-bitset fast
    // path through the worker loops and the deterministic merge at once.
    CycleEnumerationOptions parallel = pruned;
    parallel.num_threads = 4;
    parallel.parallel_chunk_starts = 1;
    EXPECT_EQ(want, CycleNodes(e.Enumerate(parallel)))
        << "parallel lengths=" << config.min_length << ".."
        << config.max_length << " chordless=" << config.chordless_only
        << " cap=" << config.max_cycles << " seeds=" << config.seeds.size();
  }
}

TEST_P(PrunedIdentityProperty, AbortPrefixMatchesUnpruned) {
  PropertyGraph g = SkewedGraphWithPendants(GetParam(), 24, 8, 240);
  CsrGraph csr = CsrGraph::Freeze(g);
  UndirectedView view(csr);
  CycleEnumerator e(view);

  // An aborting visitor must see the exact same prefix with pruning on,
  // sequential and parallel.
  auto prefix_of = [&](bool prune, uint32_t threads, size_t abort_after) {
    CycleEnumerationOptions options;
    options.prune_ball = prune;
    options.num_threads = threads;
    options.parallel_chunk_starts = threads > 1 ? 1 : 0;
    std::vector<std::vector<uint32_t>> seen;
    e.Visit(options, [&](const std::vector<uint32_t>& cycle) {
      seen.push_back(cycle);
      return seen.size() < abort_after;
    });
    return seen;
  };
  for (size_t abort_after : {size_t{1}, size_t{4}, size_t{9}}) {
    std::vector<std::vector<uint32_t>> want =
        prefix_of(false, 1, abort_after);
    EXPECT_EQ(want, prefix_of(true, 1, abort_after));
    EXPECT_EQ(want, prefix_of(true, 4, abort_after));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrunedIdentityProperty,
                         ::testing::Values(7, 19, 42, 1234, 90210));

TEST(ParallelCycleTest, VisitorAbortPrefixMatchesSequential) {
  PropertyGraph g = CompleteArticleGraph(7);
  CsrGraph csr = CsrGraph::Freeze(g);
  UndirectedView view(csr);
  CycleEnumerator e(view);

  // Sequential: record the prefix seen before the visitor aborts.
  auto run = [&](CycleEnumerationOptions options, size_t abort_after) {
    std::vector<std::vector<uint32_t>> seen;
    size_t visited = e.Visit(options, [&](const std::vector<uint32_t>& c) {
      seen.push_back(c);
      return seen.size() < abort_after;
    });
    return std::pair(visited, seen);
  };
  for (size_t abort_after : {size_t{1}, size_t{4}, size_t{23}}) {
    CycleEnumerationOptions sequential;
    auto [want_count, want_seen] = run(sequential, abort_after);
    CycleEnumerationOptions parallel;
    parallel.num_threads = 4;
    parallel.parallel_chunk_starts = 1;
    auto [got_count, got_seen] = run(parallel, abort_after);
    EXPECT_EQ(want_count, got_count) << "abort_after=" << abort_after;
    EXPECT_EQ(want_seen, got_seen) << "abort_after=" << abort_after;
  }
}

// -------------------------------- deadlines / cooperative cancellation
//
// The contract: an enumeration interrupted by an expired deadline or a
// cancel request emits a *prefix* of the sequential emission order —
// never a reordered or gap-ridden subset — at every thread count (the
// same abort-prefix identity the visitor-abort path guarantees).

bool IsPrefixOf(const std::vector<std::vector<NodeId>>& prefix,
                const std::vector<std::vector<NodeId>>& full) {
  return prefix.size() <= full.size() &&
         std::equal(prefix.begin(), prefix.end(), full.begin());
}

TEST(DeadlineCycleTest, ExpiredDeadlineEmitsNothingAtEveryThreadCount) {
  PropertyGraph g = SkewedSchemaGraph(7, 26, 9, 260);
  CsrGraph csr = CsrGraph::Freeze(g);
  UndirectedView view(csr);
  CycleEnumerator e(view);
  ASSERT_FALSE(e.Enumerate({}).empty());  // the graph does have cycles

  common::ExecContext ctx;
  ctx.deadline = common::Deadline::AfterMillis(0.0);
  common::ScopedExecContext scope(ctx);
  for (uint32_t workers : {1u, 2u, 4u}) {
    CycleEnumerationOptions options;
    options.num_threads = workers;
    options.parallel_chunk_starts = 1;
    size_t visited = e.Visit(options, [](const std::vector<uint32_t>&) {
      ADD_FAILURE() << "emitted a cycle under an already-expired deadline";
      return true;
    });
    EXPECT_EQ(visited, 0u) << "workers=" << workers;
  }
  EXPECT_TRUE(common::ExecStatus().IsDeadlineExceeded());
}

TEST(DeadlineCycleTest, DeadlineBetweenChunksKeepsCompletedPrefix) {
  // Deterministic between-chunk firing: the injector delays every chunk
  // claim by more than the whole budget, so the cooperative check right
  // after the *first* claim (per worker) already sees the deadline
  // expired — every chunk is marked incomplete and the merge replays the
  // empty prefix.  Parallel-only: the chunk-claim fault site does not
  // exist on the sequential path.
  PropertyGraph g = SkewedSchemaGraph(19, 26, 9, 260);
  CsrGraph csr = CsrGraph::Freeze(g);
  UndirectedView view(csr);
  CycleEnumerator e(view);
  ASSERT_FALSE(e.Enumerate({}).empty());

  common::FaultSpec delay;
  delay.delay_probability = 1.0;
  delay.delay_ms = 8.0;
  common::FaultInjector::Global().Configure(
      /*seed=*/5, {{"graph.enumeration_chunk", delay}});
  for (uint32_t workers : {2u, 4u}) {
    common::ExecContext ctx;
    ctx.deadline = common::Deadline::AfterMillis(2.0);
    common::ScopedExecContext scope(ctx);
    CycleEnumerationOptions options;
    options.num_threads = workers;
    options.parallel_chunk_starts = 1;
    std::vector<std::vector<uint32_t>> seen;
    size_t visited = e.Visit(options, [&](const std::vector<uint32_t>& c) {
      seen.push_back(c);
      return true;
    });
    // The budget can only expire *before* any chunk's work begins (the
    // injected delay eats the whole budget), so nothing is emitted; what
    // matters is that the run terminates promptly and reports the
    // interruption.
    EXPECT_EQ(visited, seen.size());
    EXPECT_EQ(visited, 0u) << "workers=" << workers;
    EXPECT_TRUE(common::ExecStatus().IsDeadlineExceeded())
        << "workers=" << workers;
  }
  common::FaultInjector::Global().Disable();
}

TEST(DeadlineCycleTest, CancelMidRunPreservesPrefixIdentity) {
  // A helper thread requests cancellation at staggered offsets while the
  // enumeration runs; wherever the cooperative check lands, the emitted
  // sequence must be a prefix of the full sequential order — at 1, 2 and
  // 4 threads.  (The cut point is timing-dependent; the prefix property
  // is not.)
  PropertyGraph g = SkewedSchemaGraph(42, 34, 11, 420);
  CsrGraph csr = CsrGraph::Freeze(g);
  UndirectedView view(csr);
  CycleEnumerator e(view);
  const std::vector<std::vector<NodeId>> full = CycleNodes(e.Enumerate({}));
  ASSERT_GT(full.size(), 4u);

  for (uint32_t workers : {1u, 2u, 4u}) {
    for (int delay_us : {0, 50, 200, 1000}) {
      common::CancelSource source;
      common::ExecContext ctx;
      ctx.cancel = source.token();
      common::ScopedExecContext scope(ctx);
      std::thread canceller([&source, delay_us] {
        std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
        source.RequestCancel();
      });
      CycleEnumerationOptions options;
      options.num_threads = workers;
      options.parallel_chunk_starts = 1;
      std::vector<std::vector<NodeId>> seen;
      e.Visit(options, [&](const std::vector<uint32_t>& c) {
        std::vector<NodeId> nodes;
        nodes.reserve(c.size());
        for (uint32_t l : c) nodes.push_back(view.ToGlobal(l));
        seen.push_back(std::move(nodes));
        return true;
      });
      canceller.join();
      EXPECT_TRUE(IsPrefixOf(seen, full))
          << "workers=" << workers << " delay_us=" << delay_us
          << " seen=" << seen.size() << "/" << full.size();
      EXPECT_TRUE(common::ExecStatus().IsCancelled());
    }
  }
}

TEST(DeadlineCycleTest, NoDeadlineNoTokenIsBitIdenticalToBefore) {
  // The inactive-context fast path must not perturb emission at all:
  // with no deadline and no token installed, parallel output stays
  // bit-identical to sequential (the pre-existing contract).
  PropertyGraph g = SkewedSchemaGraph(1234, 26, 9, 260);
  CsrGraph csr = CsrGraph::Freeze(g);
  UndirectedView view(csr);
  CycleEnumerator e(view);
  ASSERT_FALSE(common::CurrentExecContext().active());
  const std::vector<std::vector<NodeId>> want = CycleNodes(e.Enumerate({}));
  for (uint32_t workers : {2u, 4u}) {
    CycleEnumerationOptions parallel;
    parallel.num_threads = workers;
    parallel.parallel_chunk_starts = 1;
    EXPECT_EQ(want, CycleNodes(e.Enumerate(parallel)));
  }
}

TEST(ParallelCycleTest, ExternalPoolAndAutoThreadsWork) {
  PropertyGraph g = SkewedSchemaGraph(3, 24, 8, 240);
  CsrGraph csr = CsrGraph::Freeze(g);
  UndirectedView view(csr);
  CycleEnumerator e(view);
  std::vector<std::vector<NodeId>> want = CycleNodes(e.Enumerate({}));

  serve::ThreadPool pool(3);
  CycleEnumerationOptions on_pool;
  on_pool.num_threads = 0;  // auto: pool workers + caller
  on_pool.pool = &pool;
  EXPECT_EQ(want, CycleNodes(e.Enumerate(on_pool)));
  // The pool survives for reuse (enumeration must not shut it down).
  EXPECT_EQ(want, CycleNodes(e.Enumerate(on_pool)));
}

TEST(ParallelCycleTest, NestedEnumerationFromPoolWorkerDegrades) {
  // A pool task that fans out onto its own pool would deadlock a bounded
  // pool; the enumerator must detect the worker context and run the
  // sequential path instead — completing (with identical output) IS the
  // assertion here.
  PropertyGraph g = SkewedSchemaGraph(11, 24, 8, 240);
  CsrGraph csr = CsrGraph::Freeze(g);
  UndirectedView view(csr);
  CycleEnumerator e(view);
  std::vector<std::vector<NodeId>> want = CycleNodes(e.Enumerate({}));

  serve::ThreadPool pool(1);  // capacity 1: any nested blocking deadlocks
  auto future = pool.Submit([&] {
    EXPECT_NE(serve::ThreadPool::CurrentWorkerPool(), nullptr);
    CycleEnumerationOptions nested;
    nested.num_threads = 4;
    nested.pool = &pool;  // same pool: the deadlock shape
    return CycleNodes(e.Enumerate(nested));
  });
  EXPECT_EQ(want, future.get());
  EXPECT_EQ(serve::ThreadPool::CurrentWorkerPool(), nullptr);
}

TEST(ParallelCycleTest, TsanStressSkewedKnowledgeBase) {
  // Hot loop for the -fsanitize=thread CI lane: a skewed synthetic KB,
  // concurrent top-level enumerations sharing one pool, each internally
  // parallel or degraded — every synchronization edge of the parallel
  // path (chunk cursor, prefix budget, buffer handoff) gets exercised.
  wiki::KnowledgeBase kb;
  Rng rng(99);
  constexpr uint32_t kArticles = 120;
  constexpr uint32_t kCategories = 24;
  std::vector<NodeId> articles, categories;
  for (uint32_t i = 0; i < kArticles; ++i) {
    articles.push_back(*kb.AddArticle("a" + std::to_string(i)));
  }
  for (uint32_t i = 0; i < kCategories; ++i) {
    categories.push_back(*kb.AddCategory("c" + std::to_string(i)));
  }
  for (uint32_t e2 = 0; e2 < 1400; ++e2) {
    uint64_t x = rng.Uniform(kArticles);
    uint32_t u = static_cast<uint32_t>(x * x / kArticles);  // hub skew
    uint32_t v = rng.Uniform(kArticles);
    if (u != v) (void)kb.AddLink(articles[u], articles[v]);
  }
  for (uint32_t i = 0; i < kArticles; ++i) {
    (void)kb.AddBelongs(articles[i], categories[i % kCategories]);
  }
  const CsrGraph& csr = kb.Freeze();
  UndirectedView view(csr);
  CycleEnumerator e(view);

  CycleEnumerationOptions sequential;
  sequential.max_length = 4;  // keep the TSan (≈10×) runtime in check
  std::vector<std::vector<NodeId>> want = CycleNodes(e.Enumerate(sequential));

  serve::ThreadPool pool(4);
  std::vector<std::future<std::vector<std::vector<NodeId>>>> degraded;
  for (int i = 0; i < 4; ++i) {
    degraded.push_back(pool.Submit([&] {
      CycleEnumerationOptions nested = sequential;
      nested.num_threads = 4;
      nested.pool = &pool;
      return CycleNodes(e.Enumerate(nested));  // degrades on the worker
    }));
  }
  for (int i = 0; i < 4; ++i) {
    CycleEnumerationOptions parallel = sequential;
    parallel.num_threads = 4;
    parallel.pool = &pool;  // top-level: fans out across the same pool
    EXPECT_EQ(want, CycleNodes(e.Enumerate(parallel))) << "iteration " << i;
  }
  for (auto& f : degraded) EXPECT_EQ(want, f.get());
}

TEST(EnumerateCyclesHelperTest, InducedConvenienceWrapper) {
  PropertyGraph g = CompleteArticleGraph(5);
  CycleEnumerationOptions options;
  options.min_length = 3;
  options.max_length = 3;
  // Restrict to 4 of the 5 nodes: C(4,3) = 4 triangles.
  std::vector<Cycle> cycles =
      EnumerateCycles(CsrGraph::Freeze(g), {0, 1, 2, 3}, options);
  EXPECT_EQ(cycles.size(), 4u);
  for (const Cycle& c : cycles) {
    for (NodeId n : c.nodes) EXPECT_LT(n, 4u);
  }
}

}  // namespace
}  // namespace wqe::graph
