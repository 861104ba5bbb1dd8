/// \file perf_ball_pruning.cc
/// \brief E14 — semijoin-guided ball pruning vs raw enumeration.
///
/// Measures `CycleEnumerationOptions::prune_ball` on three hub-heavy ball
/// shapes where most nodes cannot sit on a qualifying cycle:
///
///   1. `hub_pendants` — a dense core behind a hub that also carries
///      hundreds of peelable pendant chains (every DFS step through the
///      hub re-scans them all without pruning);
///   2. `two_hop_shell` — a seed ringed by spokes at distance 1 and a
///      dense cycle-rich shell at distance 2: at L = 3 the distance
///      filter (radius ⌊L/2⌋ = 1) removes the entire shell, whose
///      triangles the unpruned DFS enumerates only to discard at the
///      seed check;
///   3. `zipf_pendants` — a hub-skewed random schema graph decorated
///      with pendant chains, pruned by peeling alone (no seeds).
///
/// Hard correctness gates (aborts, not just reporting):
///   - pruned and unpruned enumeration produce identical cycle vectors
///     (set AND order) on every config before anything is timed;
///   - at least one config reaches the >= 1.3x `speedup_vs_unpruned`
///     acceptance bar (the win is from skipped work, not parallelism, so
///     it holds on any machine).
///
/// The survivor slice is materialized with `graph::InduceCsr` to report
/// how many *edges* pruning removed, alongside the node-level
/// `survivor_fraction` the obs registry exports.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/macros.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "graph/ball_prune.h"
#include "graph/csr.h"
#include "graph/cycles.h"
#include "graph/subgraph.h"
#include "graph/undirected_view.h"

using namespace wqe;
using graph::EdgeKind;
using graph::NodeId;
using graph::NodeKind;
using graph::PropertyGraph;

namespace {

struct BallConfig {
  std::string name;
  PropertyGraph g;
  std::vector<NodeId> seeds;
  uint32_t max_length = 5;
};

/// Dense K_core behind a hub that also carries `chains` pendant chains of
/// three articles each: pure peeling overhead for every DFS through the
/// hub's row.
BallConfig HubPendants(uint32_t core, uint32_t chains) {
  BallConfig cfg;
  cfg.name = "hub_pendants";
  cfg.max_length = 4;
  for (uint32_t i = 0; i < core; ++i) {
    cfg.g.AddNode(NodeKind::kArticle);
  }
  for (uint32_t i = 0; i < core; ++i) {
    for (uint32_t j = i + 1; j < core; ++j) {
      WQE_CHECK_OK(cfg.g.AddEdge(i, j, EdgeKind::kLink));
    }
  }
  const NodeId hub = cfg.g.AddNode(NodeKind::kArticle);
  for (uint32_t i = 0; i < core; ++i) {
    WQE_CHECK_OK(cfg.g.AddEdge(i, hub, EdgeKind::kLink));
  }
  for (uint32_t c = 0; c < chains; ++c) {
    NodeId prev = hub;
    for (int hop = 0; hop < 3; ++hop) {
      NodeId leaf = cfg.g.AddNode(NodeKind::kArticle);
      WQE_CHECK_OK(cfg.g.AddEdge(prev, leaf, EdgeKind::kLink));
      prev = leaf;
    }
  }
  cfg.seeds = {0, 1};
  return cfg;
}

/// Seed + spoke ring at distance 1, dense K_shell at distance 2.  With
/// L = 3 the BFS radius is 1: the whole shell — where almost all of the
/// graph's triangles live — is pruned.
BallConfig TwoHopShell(uint32_t spokes, uint32_t shell) {
  BallConfig cfg;
  cfg.name = "two_hop_shell";
  cfg.max_length = 3;
  const NodeId s = cfg.g.AddNode(NodeKind::kArticle);
  for (uint32_t i = 0; i < spokes; ++i) {
    NodeId a = cfg.g.AddNode(NodeKind::kArticle);
    WQE_CHECK_OK(cfg.g.AddEdge(s, a, EdgeKind::kLink));
    if (i > 0) WQE_CHECK_OK(cfg.g.AddEdge(a - 1, a, EdgeKind::kLink));
  }
  const NodeId shell_base = cfg.g.AddNode(NodeKind::kArticle);
  for (uint32_t i = 1; i < shell; ++i) {
    cfg.g.AddNode(NodeKind::kArticle);
  }
  for (uint32_t i = 0; i < shell; ++i) {
    for (uint32_t j = i + 1; j < shell; ++j) {
      WQE_CHECK_OK(
          cfg.g.AddEdge(shell_base + i, shell_base + j, EdgeKind::kLink));
    }
  }
  // Every spoke reaches into the shell, so the shell really is part of
  // the radius-2 ball around the seed.
  for (uint32_t i = 1; i <= spokes; ++i) {
    WQE_CHECK_OK(
        cfg.g.AddEdge(s + i, shell_base + (i % shell), EdgeKind::kLink));
  }
  cfg.seeds = {s};
  return cfg;
}

/// Hub-skewed random article/category graph (quadratic endpoint bias, as
/// in the cycle tests) decorated with pendant chains off every other
/// node; no seeds, so peeling alone carries the pruning.
BallConfig ZipfPendants(uint64_t seed, uint32_t articles, uint32_t categories,
                        uint32_t edges) {
  BallConfig cfg;
  cfg.name = "zipf_pendants";
  cfg.max_length = 5;
  Rng rng(seed);
  for (uint32_t i = 0; i < articles; ++i) {
    cfg.g.AddNode(NodeKind::kArticle);
  }
  for (uint32_t i = 0; i < categories; ++i) {
    cfg.g.AddNode(NodeKind::kCategory);
  }
  const uint32_t n = articles + categories;
  for (uint32_t e = 0; e < edges; ++e) {
    uint64_t x = rng.Uniform(n);
    uint32_t u = static_cast<uint32_t>(x * x / n);
    uint32_t v = static_cast<uint32_t>(rng.Uniform(n));
    if (u == v) continue;
    if (cfg.g.IsArticle(u) && cfg.g.IsArticle(v)) {
      (void)cfg.g.AddEdge(u, v, EdgeKind::kLink);
    } else if (cfg.g.IsArticle(u) && cfg.g.IsCategory(v)) {
      (void)cfg.g.AddEdge(u, v, EdgeKind::kBelongs);
    } else if (cfg.g.IsCategory(u) && cfg.g.IsCategory(v)) {
      (void)cfg.g.AddEdge(u, v, EdgeKind::kInside);
    }
  }
  for (uint32_t anchor = 0; anchor < n; anchor += 2) {
    NodeId prev = anchor;
    for (int hop = 0; hop < 3; ++hop) {
      NodeId leaf = cfg.g.AddNode(NodeKind::kArticle);
      if (cfg.g.IsArticle(prev)) {
        WQE_CHECK_OK(cfg.g.AddEdge(prev, leaf, EdgeKind::kLink));
      } else {
        WQE_CHECK_OK(cfg.g.AddEdge(leaf, prev, EdgeKind::kBelongs));
      }
      prev = leaf;
    }
  }
  return cfg;
}

std::vector<std::vector<NodeId>> CycleNodes(
    const std::vector<graph::Cycle>& cycles) {
  std::vector<std::vector<NodeId>> out;
  out.reserve(cycles.size());
  for (const graph::Cycle& c : cycles) out.push_back(c.nodes);
  return out;
}

}  // namespace

int main() {
  std::vector<BallConfig> configs;
  configs.push_back(HubPendants(/*core=*/10, /*chains=*/400));
  configs.push_back(TwoHopShell(/*spokes=*/24, /*shell=*/48));
  configs.push_back(ZipfPendants(/*seed=*/42, /*articles=*/40,
                                 /*categories=*/12, /*edges=*/420));

  TablePrinter table("E14 — ball pruning vs raw enumeration");
  table.SetHeader({"config", "nodes", "alive", "edges", "alive edges",
                   "cycles", "unpruned ms", "pruned ms", "speedup"});
  bench::BenchJsonWriter json("perf_ball_pruning");

  double best_speedup = 0.0;
  for (BallConfig& cfg : configs) {
    graph::CsrGraph csr = graph::CsrGraph::Freeze(cfg.g);
    graph::UndirectedView view(csr);
    graph::CycleEnumerator enumerator(view);

    graph::CycleEnumerationOptions unpruned;
    unpruned.max_length = cfg.max_length;
    unpruned.seeds = cfg.seeds;
    unpruned.prune_ball = false;
    graph::CycleEnumerationOptions pruned = unpruned;
    pruned.prune_ball = true;

    // Hard identity gate before any timing: same cycles, same order.
    std::vector<std::vector<NodeId>> want =
        CycleNodes(enumerator.Enumerate(unpruned));
    std::vector<std::vector<NodeId>> got =
        CycleNodes(enumerator.Enumerate(pruned));
    WQE_CHECK(want == got);

    // Survivor slice (the CSR-native subgraph): how many edges the
    // bitset actually removed from the DFS's reach.
    std::vector<uint64_t> alive_bits;
    graph::BallPruneStats stats =
        PruneBall(view, cfg.seeds, cfg.max_length, &alive_bits);
    std::vector<NodeId> survivors;
    for (uint32_t i = 0; i < view.num_nodes(); ++i) {
      if (graph::BallPruneAlive(alive_bits.data(), i)) {
        survivors.push_back(view.ToGlobal(i));
      }
    }
    graph::CsrSubgraph slice = graph::InduceCsr(csr, survivors);

    // Min-of-reps timing, arms alternated so drift hits both equally.
    constexpr int kReps = 7;
    double unpruned_ms = 1e300;
    double pruned_ms = 1e300;
    Stopwatch watch;
    for (int rep = 0; rep < kReps; ++rep) {
      watch.Reset();
      size_t u = enumerator.Visit(unpruned, [](const auto&) { return true; });
      unpruned_ms = std::min(unpruned_ms, watch.ElapsedMillis());
      watch.Reset();
      size_t p = enumerator.Visit(pruned, [](const auto&) { return true; });
      pruned_ms = std::min(pruned_ms, watch.ElapsedMillis());
      WQE_CHECK(u == p && u == want.size());
    }
    const double speedup = unpruned_ms / pruned_ms;
    best_speedup = std::max(best_speedup, speedup);

    table.AddRow({cfg.name, std::to_string(view.num_nodes()),
                  std::to_string(stats.num_alive),
                  std::to_string(csr.num_edges()),
                  std::to_string(slice.num_edges()),
                  std::to_string(want.size()), FormatDouble(unpruned_ms, 2),
                  FormatDouble(pruned_ms, 2), FormatDouble(speedup, 2)});

    const std::string config =
        "nodes=" + std::to_string(view.num_nodes()) +
        ";L=" + std::to_string(cfg.max_length) +
        ";seeds=" + std::to_string(cfg.seeds.size());
    json.Add(cfg.name + "_unpruned", "total_ms", unpruned_ms, config);
    json.Add(cfg.name + "_pruned", "total_ms", pruned_ms, config);
    json.Add(cfg.name, "speedup_vs_unpruned", speedup, config);
    json.Add(cfg.name, "survivor_fraction", stats.survivor_fraction(), config);
    json.Add(cfg.name, "cycles", static_cast<double>(want.size()), config);
  }
  table.Print();

  std::printf("\ncycle sets identical pruned-vs-unpruned on all %zu configs "
              "(checked before timing)\nbest speedup_vs_unpruned: %.2fx\n",
              configs.size(), best_speedup);
  // The ISSUE-8 acceptance bar.  The win comes from skipped DFS work in a
  // sequential enumeration, so it is machine-independent.
  WQE_CHECK(best_speedup >= 1.3);

  json.Write();
  return 0;
}
