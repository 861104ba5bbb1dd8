/// \file perf_cycle_enumeration.cc
/// \brief E9 (part 2) — cycle-enumeration cost (google-benchmark).
///
/// The paper reports that enumerating undirected cycles of length ≤ 5 on
/// query graphs of ~208 nodes took ~6 minutes per query on a graph
/// database, and argues this is the open performance challenge.  These
/// benchmarks measure the enumerator over the frozen `graph::CsrGraph`
/// snapshot on growing knowledge-base balls, sweeping the maximum cycle
/// length to expose the exponential growth — and run the *same* workload
/// on a faithful replica of the seed representation (per-node
/// `std::vector` adjacency built through hash maps, linear neighbor
/// scans, hash-map multiplicity lookups) so the CSR speedup is measured
/// in-binary on identical input.
///
/// The parallel variants sweep the enumeration across 1/2/4/8 threads on
/// a shared `serve::ThreadPool` (the E9 lever: canonical start ranges are
/// independent), hard-asserting before timing that every thread count
/// produces the bit-identical canonical cycle sequence the sequential
/// enumerator does.
///
/// Alongside the console table the binary writes
/// `BENCH_perf_cycle_enumeration.json` (see bench_common.h) with one
/// record per run plus derived `speedup_vs_legacy` and
/// `speedup_vs_sequential` records.  On a host with >= 4 hardware
/// threads, the 4-thread sweep must reach a 1.5x best-config speedup
/// (hard WQE_CHECK; single-core CI containers skip the gate —
/// enumeration still runs and the identity asserts still bite).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench/bench_common.h"
#include "common/macros.h"
#include "graph/csr.h"
#include "graph/cycles.h"
#include "graph/undirected_view.h"
#include "serve/thread_pool.h"
#include "wiki/synthetic.h"

namespace {

using namespace wqe;

struct SharedKb {
  wiki::SyntheticWikipedia wiki;
  /// Builder adjacency copied before `Freeze()` releases it; read only by
  /// the seed-era replica and the freeze-cost benchmark.
  graph::PropertyGraph builder;
};

const SharedKb& Shared() {
  static const SharedKb* kShared = [] {
    wiki::SyntheticWikipediaOptions options;
    options.num_domains = 50;
    auto result = wiki::GenerateSyntheticWikipedia(options);
    WQE_CHECK_OK(result.status());
    auto* shared = new SharedKb{std::move(result).ValueOrDie(), {}};
    shared->builder = shared->wiki.kb.graph();
    shared->wiki.kb.Freeze();  // one snapshot shared by every benchmark
    return shared;
  }();
  return *kShared;
}

const wiki::SyntheticWikipedia& SharedWiki() { return Shared().wiki; }

/// One workload definition shared by the CSR and legacy variants — the
/// speedup_vs_legacy records are only meaningful on identical input.
struct BallWorkload {
  std::vector<graph::NodeId> seeds;
  std::vector<graph::NodeId> ball;
};

BallWorkload SharedBall(size_t ball_cap) {
  const auto& wiki = SharedWiki();
  BallWorkload w;
  w.seeds = {wiki.domain_articles[0][0], wiki.domain_articles[0][1]};
  w.ball = wiki.kb.Neighborhood(w.seeds, 2, ball_cap);
  return w;
}

// ---------------------------------------------------------------- legacy
// Faithful replica of the seed-era structures: `UndirectedView` built by
// hashing every directed edge into a pair-multiplicity map, and the DFS
// that scans the full neighbor list at every depth.  Kept here purely as
// the measurement baseline for the CSR refactor.

struct LegacyView {
  const graph::PropertyGraph* graph;
  std::vector<graph::NodeId> global;
  std::unordered_map<graph::NodeId, uint32_t> local;
  std::vector<std::vector<uint32_t>> adj;
  std::unordered_map<uint64_t, uint32_t> multiplicity;

  static uint64_t PairKey(uint32_t u, uint32_t v) {
    uint32_t lo = std::min(u, v);
    uint32_t hi = std::max(u, v);
    return (static_cast<uint64_t>(lo) << 32) | hi;
  }

  LegacyView(const graph::PropertyGraph& g,
             const std::vector<graph::NodeId>& nodes)
      : graph(&g) {
    global.reserve(nodes.size());
    for (graph::NodeId n : nodes) {
      if (local.emplace(n, static_cast<uint32_t>(global.size())).second) {
        global.push_back(n);
      }
    }
    adj.assign(global.size(), {});
    for (uint32_t lu = 0; lu < global.size(); ++lu) {
      for (const graph::Edge& e : g.OutEdges(global[lu])) {
        if (e.kind == graph::EdgeKind::kRedirect) continue;
        auto it = local.find(e.dst);
        if (it == local.end() || it->second == lu) continue;
        ++multiplicity[PairKey(lu, it->second)];
      }
    }
    for (const auto& [key, count] : multiplicity) {
      (void)count;
      uint32_t lo = static_cast<uint32_t>(key >> 32);
      uint32_t hi = static_cast<uint32_t>(key & 0xFFFFFFFFu);
      adj[lo].push_back(hi);
      adj[hi].push_back(lo);
    }
    for (auto& neigh : adj) std::sort(neigh.begin(), neigh.end());
  }

  uint32_t Multiplicity(uint32_t u, uint32_t v) const {
    auto it = multiplicity.find(PairKey(u, v));
    return it == multiplicity.end() ? 0 : it->second;
  }
};

struct LegacyDfs {
  const LegacyView* view;
  uint32_t max_length;
  std::vector<bool> is_seed;
  std::vector<bool> on_path;
  std::vector<uint32_t> path;
  size_t emitted = 0;

  void Emit() {
    for (uint32_t v : path) {
      if (is_seed[v]) {
        ++emitted;
        return;
      }
    }
  }

  void Extend(uint32_t start, uint32_t u) {
    for (uint32_t v : view->adj[u]) {  // full-row scan, as in the seed
      if (v <= start) {
        if (v == start && path.size() >= 3 && path[1] < path.back()) Emit();
        continue;
      }
      if (on_path[v]) continue;
      if (path.size() >= max_length) continue;
      path.push_back(v);
      on_path[v] = true;
      Extend(start, v);
      on_path[v] = false;
      path.pop_back();
    }
  }

  size_t Run(const std::vector<graph::NodeId>& seeds) {
    const uint32_t n = static_cast<uint32_t>(view->global.size());
    is_seed.assign(n, false);
    for (graph::NodeId g : seeds) {
      auto it = view->local.find(g);
      if (it != view->local.end()) is_seed[it->second] = true;
    }
    on_path.assign(n, false);
    emitted = 0;
    for (uint32_t u = 0; u < n; ++u) {  // length-2: parallel pairs
      for (uint32_t v : view->adj[u]) {
        if (v <= u) continue;
        if (view->Multiplicity(u, v) >= 2) {
          path = {u, v};
          Emit();
        }
      }
    }
    path.clear();
    for (uint32_t s = 0; s < n; ++s) {
      path.assign(1, s);
      on_path[s] = true;
      Extend(s, s);
      on_path[s] = false;
    }
    return emitted;
  }
};

// ------------------------------------------------------------ benchmarks

/// Enumerate cycles (≤ max_length) in a radius-2 ball around a domain hub,
/// over the frozen CSR snapshot.
void BM_CycleEnumerationBall(benchmark::State& state) {
  const auto& wiki = SharedWiki();
  uint32_t max_length = static_cast<uint32_t>(state.range(0));
  BallWorkload workload = SharedBall(static_cast<size_t>(state.range(1)));
  graph::UndirectedView view(wiki.kb.csr(), workload.ball);
  graph::CycleEnumerator enumerator(view);
  graph::CycleEnumerationOptions options;
  options.max_length = max_length;
  options.seeds = workload.seeds;

  size_t cycles = 0;
  for (auto _ : state) {
    cycles = enumerator.Visit(
        options, [](const std::vector<uint32_t>&) { return true; });
    benchmark::DoNotOptimize(cycles);
  }
  state.counters["nodes"] = static_cast<double>(view.num_nodes());
  state.counters["cycles"] = static_cast<double>(cycles);
}

BENCHMARK(BM_CycleEnumerationBall)
    ->ArgsProduct({{3, 4, 5}, {100, 200, 400}})
    ->Unit(benchmark::kMillisecond);

/// The identical workload on the seed-era representation.
void BM_CycleEnumerationBallLegacy(benchmark::State& state) {
  uint32_t max_length = static_cast<uint32_t>(state.range(0));
  BallWorkload workload = SharedBall(static_cast<size_t>(state.range(1)));
  LegacyView view(Shared().builder, workload.ball);
  LegacyDfs dfs;
  dfs.view = &view;
  dfs.max_length = max_length;

  size_t cycles = 0;
  for (auto _ : state) {
    cycles = dfs.Run(workload.seeds);
    benchmark::DoNotOptimize(cycles);
  }
  state.counters["nodes"] = static_cast<double>(view.global.size());
  state.counters["cycles"] = static_cast<double>(cycles);
}

BENCHMARK(BM_CycleEnumerationBallLegacy)
    ->ArgsProduct({{3, 4, 5}, {100, 200, 400}})
    ->Unit(benchmark::kMillisecond);

/// Thread-scaling sweep: the same ball workload with the enumeration
/// sharded across a shared pool.  Before timing, the parallel output is
/// hard-asserted bit-identical (cycles AND order) to the sequential
/// enumerator at this thread count — the bench refuses to measure a
/// wrong kernel.
void BM_CycleEnumerationBallParallel(benchmark::State& state) {
  const auto& wiki = SharedWiki();
  uint32_t threads = static_cast<uint32_t>(state.range(0));
  uint32_t max_length = static_cast<uint32_t>(state.range(1));
  BallWorkload workload = SharedBall(static_cast<size_t>(state.range(2)));
  graph::UndirectedView view(wiki.kb.csr(), workload.ball);
  graph::CycleEnumerator enumerator(view);
  graph::CycleEnumerationOptions options;
  options.max_length = max_length;
  options.seeds = workload.seeds;
  options.num_threads = threads;
  // One long-lived pool, as a serving deployment would run: caller +
  // (threads - 1) workers enumerate.
  std::unique_ptr<serve::ThreadPool> pool;
  if (threads > 1) {
    pool = std::make_unique<serve::ThreadPool>(threads - 1);
    options.pool = pool.get();
  }

  {
    graph::CycleEnumerationOptions sequential = options;
    sequential.num_threads = 1;
    sequential.pool = nullptr;
    std::vector<graph::Cycle> want = enumerator.Enumerate(sequential);
    std::vector<graph::Cycle> got = enumerator.Enumerate(options);
    WQE_CHECK(want.size() == got.size());
    for (size_t i = 0; i < want.size(); ++i) {
      WQE_CHECK(want[i].nodes == got[i].nodes);
    }
  }

  size_t cycles = 0;
  for (auto _ : state) {
    cycles = enumerator.Visit(
        options, [](const std::vector<uint32_t>&) { return true; });
    benchmark::DoNotOptimize(cycles);
  }
  state.counters["nodes"] = static_cast<double>(view.num_nodes());
  state.counters["cycles"] = static_cast<double>(cycles);
  state.counters["threads"] = static_cast<double>(threads);
}

BENCHMARK(BM_CycleEnumerationBallParallel)
    ->ArgsProduct({{1, 2, 4, 8}, {3, 5}, {100, 400}})
    ->Unit(benchmark::kMillisecond);

/// Triangle counting on the same balls, for comparison.
void BM_TriangleBaseline(benchmark::State& state) {
  const auto& wiki = SharedWiki();
  BallWorkload workload = SharedBall(static_cast<size_t>(state.range(0)));
  graph::UndirectedView view(wiki.kb.csr(), workload.ball);
  graph::CycleEnumerator enumerator(view);
  graph::CycleEnumerationOptions options;
  options.min_length = 3;
  options.max_length = 3;

  for (auto _ : state) {
    size_t n = enumerator.Visit(
        options, [](const std::vector<uint32_t>&) { return true; });
    benchmark::DoNotOptimize(n);
  }
}

BENCHMARK(BM_TriangleBaseline)->Arg(200)->Arg(400)
    ->Unit(benchmark::kMillisecond);

/// View construction cost (the per-query preprocessing): CSR slicing vs
/// the seed's hash-map rebuild.
void BM_UndirectedViewBuild(benchmark::State& state) {
  const auto& wiki = SharedWiki();
  BallWorkload workload = SharedBall(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    graph::UndirectedView view(wiki.kb.csr(), workload.ball);
    benchmark::DoNotOptimize(view.num_nodes());
  }
}

BENCHMARK(BM_UndirectedViewBuild)->Arg(100)->Arg(400)
    ->Unit(benchmark::kMicrosecond);

void BM_UndirectedViewBuildLegacy(benchmark::State& state) {
  BallWorkload workload = SharedBall(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    LegacyView view(Shared().builder, workload.ball);
    benchmark::DoNotOptimize(view.global.size());
  }
}

BENCHMARK(BM_UndirectedViewBuildLegacy)->Arg(100)->Arg(400)
    ->Unit(benchmark::kMicrosecond);

/// One-off snapshot compilation cost (paid once per KB build).
void BM_CsrFreeze(benchmark::State& state) {
  const graph::PropertyGraph& builder = Shared().builder;
  for (auto _ : state) {
    graph::CsrGraph csr = graph::CsrGraph::Freeze(builder);
    benchmark::DoNotOptimize(csr.num_edges());
  }
  state.counters["nodes"] = static_cast<double>(builder.num_nodes());
  state.counters["edges"] = static_cast<double>(builder.num_edges());
}

BENCHMARK(BM_CsrFreeze)->Unit(benchmark::kMillisecond);

// --------------------------------------------------------------- reporter

/// Console output plus record collection for BENCH_<name>.json.
class JsonCollectingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.error_occurred) continue;
      std::string full = run.benchmark_name();
      std::string name = full;
      std::string config;
      if (size_t slash = full.find('/'); slash != std::string::npos) {
        name = full.substr(0, slash);
        config = full.substr(slash + 1);
      }
      std::string unit = benchmark::GetTimeUnitString(run.time_unit);
      records_.emplace_back(name, "real_time_" + unit,
                            run.GetAdjustedRealTime(), config);
      for (const auto& [counter, value] : run.counters) {
        records_.emplace_back(name, counter, value.value, config);
      }
    }
    ConsoleReporter::ReportRuns(reports);
  }

  /// Writes BENCH_perf_cycle_enumeration.json, deriving CSR-vs-legacy
  /// speedups for every config both variants ran and parallel-vs-
  /// sequential speedups for every thread-sweep config whose sequential
  /// twin ran.  On a >= 4-core host the 4-thread sweep is gated: its
  /// best-config speedup must reach 1.5x or the bench aborts.
  void WriteJson() const {
    bench::BenchJsonWriter json("perf_cycle_enumeration");
    std::map<std::string, double> csr_ms;
    std::map<std::string, double> legacy_ms;
    std::map<std::string, double> parallel_ms;  // "threads/len/ball"
    for (const auto& [name, metric, value, config] : records_) {
      json.Add(name, metric, value, config);
      if (metric.rfind("real_time_", 0) == 0) {
        if (name == "BM_CycleEnumerationBall") csr_ms[config] = value;
        if (name == "BM_CycleEnumerationBallLegacy") legacy_ms[config] = value;
        if (name == "BM_CycleEnumerationBallParallel") {
          parallel_ms[config] = value;
        }
      }
    }
    for (const auto& [config, legacy] : legacy_ms) {
      auto it = csr_ms.find(config);
      if (it == csr_ms.end() || it->second <= 0.0) continue;
      json.Add("BM_CycleEnumerationBall", "speedup_vs_legacy",
               legacy / it->second, config);
    }
    double best_at_4 = 0.0;
    for (const auto& [config, par] : parallel_ms) {
      // "threads/len/ball" -> the sequential twin is "len/ball".
      size_t slash = config.find('/');
      if (slash == std::string::npos || par <= 0.0) continue;
      auto it = csr_ms.find(config.substr(slash + 1));
      if (it == csr_ms.end()) continue;
      double speedup = it->second / par;
      json.Add("BM_CycleEnumerationBallParallel", "speedup_vs_sequential",
               speedup, config);
      if (config.substr(0, slash) == "4") {
        best_at_4 = std::max(best_at_4, speedup);
      }
    }
    json.Write();
    // The E9 acceptance gate.  Gated on real cores: a 1-vCPU CI container
    // time-slices the "threads", which measures scheduling, not scaling.
    if (std::thread::hardware_concurrency() >= 4 && best_at_4 > 0.0) {
      std::cerr << "parallel enumeration speedup at 4 threads (best config): "
                << best_at_4 << "x" << std::endl;
      WQE_CHECK(best_at_4 >= 1.5);
    }
  }

 private:
  struct Record {
    std::string name;
    std::string metric;
    double value;
    std::string config;

    Record(std::string n, std::string m, double v, std::string c)
        : name(std::move(n)), metric(std::move(m)), value(v),
          config(std::move(c)) {}
  };
  std::vector<Record> records_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonCollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  reporter.WriteJson();
  benchmark::Shutdown();
  return 0;
}
