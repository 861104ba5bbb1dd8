/// \file layers.cc
/// \brief Per-layer attribution of the traced run.
///
/// The serving path is opaque from outside: `Server::Submit` runs linking,
/// ball extraction, pruning, enumeration, scoring and retrieval inside
/// one pool task.  So the traced run times each request end to end as
/// the client sees it (a `request` span) and afterwards *replays* every
/// keyword of the stream through the layers' public functions, each call
/// under its own span:
///
///   replay
///   ├─ api.expand         Engine::Expand (the whole expansion)
///   │  ├─ linking.link    EntityLinker::LinkToArticles
///   │  ├─ wiki.ball       KnowledgeBase::Neighborhood + UndirectedView
///   │  ├─ graph.enum      CycleEnumerator::Visit, counting visitor
///   │  │  └─ graph.prune  graph::PruneBall (Visit prunes internally)
///   │  └─ expansion.score ComputeCycleMetrics + AcceptsCycle per cycle
///   └─ ir.search          SearchEngine::Search on the expanded query
///
/// A child re-executes one step of its parent, so it does not lie inside
/// its parent's interval; a span's self time is its duration minus its
/// children's durations.  The self time of `api.expand` is the work no
/// child names (the per-cycle tally and the ranking): it is reported as
/// `expansion.unattributed_ms`.  Replays run one at a time on the idle
/// engine: layer times are unloaded costs, and the slowdown concurrent
/// requests inflict on each other lands in the serve share.
///
/// Each traced request is then split into layers: a cache miss paid for
/// its keyword's expansion, every request paid for its search, and the
/// rest of its time is the serve layer's (queueing, cache lookup, the
/// future hand-off and contention).  That split is checked against the
/// server's own clocks, which the replays do not touch: a request's time
/// is its queue wait, a worker's time on it (service) and the hand-off
/// back to the client, nested in that order, so the server's sums must
/// fit inside the client's, and the replayed layer parts must fit inside
/// the service time.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <unordered_set>

#include "expansion/cycle_expander.h"
#include "graph/ball_prune.h"
#include "graph/cycle_metrics.h"
#include "graph/cycles.h"
#include "graph/undirected_view.h"
#include "perfbench.h"

namespace perfbench {

namespace {

/// Replays per keyword; each layer's time per keyword is their median.
constexpr size_t kReplayReps = 3;

/// How far the replayed layer parts of the traced requests may exceed
/// the service time the server measured for them, as a share of it.
/// Replays cost what serving does give or take noise, plus building an
/// expander per `Engine::Expand` call (workers reuse theirs): on the
/// 4-vCPU VM this was sized on, cold_cycle's parts came to 0.86-1.15x
/// the service time over six seeds.  Hits counted as misses land far
/// beyond the slack.
constexpr double kReplaySlack = 0.5;

/// How far the re-executed child steps of `Engine::Expand` may exceed the
/// call itself, as a share of it: their self times and
/// `expansion.unattributed_ms` add up to it by construction, so a
/// negative unattributed part is the only sign of a step timed twice.  On
/// cold_cycle the children came to about 0.96 of the call; timing the
/// enumeration (about half of it) twice puts them near 1.45.
constexpr double kChildSlack = 0.25;

/// Slack for comparing two readings of the same steady clock.
constexpr double kClockSlackMs = 1e-3;

/// One replay of one keyword: per-layer durations (inclusive) and counts.
struct LayerCost {
  double expand_ms = 0, link_ms = 0, ball_ms = 0, prune_ms = 0, enum_ms = 0,
         score_ms = 0, search_ms = 0;
  double articles = 0, ball_nodes = 0, ball_edges = 0, survivors = 0,
         cycles = 0, accepted = 0, docs = 0;
};

struct ReplayContext {
  wqe::api::Engine* engine;
  const wqe::expansion::CycleExpander* expander;
  SpanLog* spans;
};

/// A started span; `Close` finishes and records it.
struct OpenSpan {
  const char* name;
  uint64_t id;
  uint64_t parent;
  Clock::time_point start;
};

OpenSpan Open(SpanLog* spans, const char* name, uint64_t parent) {
  return {name, spans->NextId(), parent, Clock::now()};
}

double Close(std::vector<SpanRecord>* out, const OpenSpan& span,
             uint64_t request) {
  const Clock::time_point end = Clock::now();
  out->push_back({span.name, span.id, span.parent, request, span.start, end});
  return MillisBetween(span.start, end);
}

/// Replays `keywords` once; false on an error or a result that differs
/// from `expected`.
bool ReplayOnce(const ReplayContext& ctx, const std::string& keywords,
                const Reference& expected, LayerCost* cost,
                std::vector<SpanRecord>* out, std::string* error) {
  // Pin the current epoch, as a serving request does.
  std::shared_ptr<const wqe::api::GraphSnapshot> snapshot =
      ctx.engine->CurrentSnapshot();
  const wqe::wiki::KnowledgeBase& kb = snapshot->kb;
  const wqe::graph::CsrGraph& csr = kb.csr();
  const wqe::expansion::CycleExpanderOptions& eo = ctx.expander->options();
  SpanLog* spans = ctx.spans;

  const OpenSpan root = Open(spans, "replay", 0);
  const uint64_t request = root.id;

  OpenSpan expand = Open(spans, "api.expand", root.id);
  wqe::api::ExpandRequest expand_request;
  expand_request.keywords = keywords;
  wqe::Result<wqe::api::ExpandResponse> expanded =
      ctx.engine->Expand(expand_request);
  cost->expand_ms = Close(out, expand, request);
  if (!expanded.ok()) {
    *error = "Engine::Expand: " + expanded.status().ToString();
    return false;
  }

  OpenSpan link = Open(spans, "linking.link", expand.id);
  const std::vector<wqe::graph::NodeId> articles =
      snapshot->linker->LinkToArticles(keywords);
  cost->link_ms = Close(out, link, request);
  cost->articles = static_cast<double>(articles.size());

  if (!articles.empty()) {
    OpenSpan ball_span = Open(spans, "wiki.ball", expand.id);
    const std::vector<wqe::graph::NodeId> ball = kb.Neighborhood(
        articles, eo.neighborhood_radius, eo.max_neighborhood);
    const wqe::graph::UndirectedView view(csr, ball);
    cost->ball_ms = Close(out, ball_span, request);
    cost->ball_nodes = view.num_nodes();
    cost->ball_edges = static_cast<double>(view.num_undirected_edges());

    // The expander's enumeration, as a server worker runs it (workers
    // enumerate sequentially).
    wqe::graph::CycleEnumerationOptions enum_options;
    enum_options.min_length = eo.min_cycle_length;
    enum_options.max_length = eo.max_cycle_length;
    enum_options.seeds = articles;
    enum_options.max_cycles = eo.max_cycles;
    enum_options.prune_ball = eo.prune_ball;
    enum_options.num_threads = 1;
    const wqe::graph::CycleEnumerator enumerator(view);

    OpenSpan enum_span = Open(spans, "graph.enum", expand.id);
    size_t cycles = 0;
    enumerator.Visit(enum_options, [&cycles](const std::vector<uint32_t>&) {
      ++cycles;
      return true;
    });
    cost->enum_ms = Close(out, enum_span, request);
    cost->cycles = static_cast<double>(cycles);

    // Visit prunes inside when the expander asks it to, so the separate
    // PruneBall call is a child of the enumeration then.
    OpenSpan prune = Open(spans, "graph.prune",
                          eo.prune_ball ? enum_span.id : expand.id);
    std::vector<uint64_t> alive;
    const wqe::graph::BallPruneStats pruned =
        wqe::graph::PruneBall(view, articles, eo.max_cycle_length, &alive);
    cost->prune_ms = Close(out, prune, request);
    cost->survivors = pruned.survivor_fraction();

    // Materialize the cycles (untimed) so scoring is timed alone.
    std::vector<uint32_t> flat;
    std::vector<size_t> ends;
    enumerator.Visit(enum_options, [&](const std::vector<uint32_t>& local) {
      flat.insert(flat.end(), local.begin(), local.end());
      ends.push_back(flat.size());
      return true;
    });
    OpenSpan score = Open(spans, "expansion.score", expand.id);
    size_t accepted = 0;
    size_t begin = 0;
    for (size_t end : ends) {
      wqe::graph::Cycle cycle;
      cycle.nodes.reserve(end - begin);
      for (size_t i = begin; i < end; ++i) {
        cycle.nodes.push_back(view.ToGlobal(flat[i]));
      }
      if (ctx.expander->AcceptsCycle(
              wqe::graph::ComputeCycleMetrics(csr, cycle))) {
        ++accepted;
      }
      begin = end;
    }
    cost->score_ms = Close(out, score, request);
    cost->accepted = static_cast<double>(accepted);
  }

  OpenSpan search = Open(spans, "ir.search", root.id);
  wqe::Result<std::vector<wqe::ir::ScoredDoc>> docs =
      ctx.engine->search_engine().Search(expanded->query,
                                         ctx.engine->options().default_top_k);
  cost->search_ms = Close(out, search, request);
  Close(out, root, request);
  if (!docs.ok()) {
    *error = "SearchEngine::Search: " + docs.status().ToString();
    return false;
  }
  cost->docs = static_cast<double>(docs->size());
  if (*docs != expected.docs || expanded->titles != expected.titles) {
    *error = "replay of '" + keywords + "' differs from the reference";
    return false;
  }
  return true;
}

/// Field-wise median over one keyword's replays.
LayerCost MedianCost(const std::vector<LayerCost>& reps) {
  auto med = [&reps](double LayerCost::*field) {
    std::vector<double> v;
    for (const LayerCost& c : reps) v.push_back(c.*field);
    return Median(std::move(v));
  };
  LayerCost m;
  for (double LayerCost::*field :
       {&LayerCost::expand_ms, &LayerCost::link_ms, &LayerCost::ball_ms,
        &LayerCost::prune_ms, &LayerCost::enum_ms, &LayerCost::score_ms,
        &LayerCost::search_ms, &LayerCost::articles, &LayerCost::ball_nodes,
        &LayerCost::ball_edges, &LayerCost::survivors, &LayerCost::cycles,
        &LayerCost::accepted, &LayerCost::docs}) {
    m.*field = med(field);
  }
  return m;
}

/// Value of a `<name>{...} <value>` Prometheus line (first match).
double PrometheusValue(const std::string& dump, const std::string& name) {
  std::istringstream lines(dump);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.compare(0, name.size(), name) != 0) continue;
    const char next = line.size() > name.size() ? line[name.size()] : '\0';
    if (next != '{' && next != ' ') continue;
    return std::strtod(line.c_str() + line.rfind(' ') + 1, nullptr);
  }
  return 0.0;
}

}  // namespace

ServeReadings ReadServe(const wqe::serve::Server& server,
                        wqe::obs::MetricsRegistry& registry) {
  ServeReadings r;
  r.queue_wait = wqe::obs::MetricsRegistry::Global()
                     .GetHistogram("wqe.serve.queue_wait_ms")
                     ->snapshot();
  r.service = server.StatsSnapshot().request_latency_ms;
  // The benchmark owns this registry and one server records into it, so
  // the lookup histogram has one series.
  const std::string dump = registry.DumpPrometheus();
  r.cache_lookup_count =
      PrometheusValue(dump, "wqe_server_cache_lookup_ms_count");
  r.cache_lookup_sum_ms = PrometheusValue(dump, "wqe_server_cache_lookup_ms_sum");
  if (server.cache() != nullptr) r.cache = server.cache()->stats();
  return r;
}

void ServerTimes::Add(const ServeReadings& before,
                      const ServeReadings& after) {
  const wqe::obs::HistogramSnapshot wait =
      after.queue_wait.DeltaSince(before.queue_wait);
  const wqe::obs::HistogramSnapshot service =
      after.service.DeltaSince(before.service);
  queue_wait_count += wait.count;
  queue_wait_ms += wait.sum;
  service_count += service.count;
  service_ms += service.sum;
}

bool AttributeLayers(Bed& bed, const WorkloadSpec& workload,
                     const std::vector<Reference>& reference,
                     const Computations& computations,
                     const PhaseResult& traced, const PhaseResult& untraced,
                     const PhaseResult& measured, const ServeReadings& before,
                     const ServeReadings& after,
                     const ServerTimes& traced_server, SpanLog* spans,
                     std::vector<Metric>* metrics, std::string* error) {
  wqe::api::Engine& engine = bed.Engine();
  wqe::Result<std::unique_ptr<wqe::expansion::Expander>> built =
      engine.BuildExpander("cycle", {});
  if (!built.ok()) {
    *error = built.status().ToString();
    return false;
  }
  const auto* expander =
      dynamic_cast<const wqe::expansion::CycleExpander*>(built->get());
  if (expander == nullptr) {
    *error = "the 'cycle' strategy is not a CycleExpander";
    return false;
  }

  // ---- replay every keyword the traced requests asked for.
  std::vector<bool> wanted(bed.keywords.size(), false);
  for (const RequestSample& s : traced.samples) wanted[s.keyword] = true;
  std::vector<std::pair<uint32_t, size_t>> work;  // (keyword, rep)
  for (size_t rep = 0; rep < kReplayReps; ++rep) {
    for (uint32_t k = 0; k < wanted.size(); ++k) {
      if (wanted[k]) work.emplace_back(k, rep);
    }
  }
  std::vector<std::vector<LayerCost>> reps(bed.keywords.size());
  for (uint32_t k = 0; k < wanted.size(); ++k) {
    if (wanted[k]) reps[k].resize(kReplayReps);
  }
  const ReplayContext ctx{&engine, expander, spans};
  std::vector<SpanRecord> out;
  for (const auto& [k, rep] : work) {
    std::string replay_error;
    if (!ReplayOnce(ctx, bed.keywords[k], reference[k], &reps[k][rep], &out,
                    &replay_error)) {
      *error = replay_error;
      return false;
    }
  }
  spans->Append(std::move(out));
  std::vector<LayerCost> cost(bed.keywords.size());
  for (uint32_t k = 0; k < wanted.size(); ++k) {
    if (wanted[k]) cost[k] = MedianCost(reps[k]);
  }

  // ---- which requests missed the cache: the first of each computation.
  std::unordered_set<uint64_t> misses;
  if (workload.republish()) {
    size_t attributed = 0;
    for (const auto& [key, first] : computations) {
      misses.insert(first.second);
      if (first.second >= measured.first_id &&
          first.second < measured.end_id) {
        ++attributed;
      }
    }
    // Cross-check against the cache's own miss counter over the window.
    const size_t counted = after.cache.misses - before.cache.misses;
    const size_t gap =
        attributed > counted ? attributed - counted : counted - attributed;
    if (gap > kClients) {
      *error = "attributed " + std::to_string(attributed) +
               " cache misses, the cache counted " + std::to_string(counted);
      return false;
    }
  }
  auto missed = [&](const RequestSample& s) {
    return !workload.republish() || misses.count(s.id) != 0;
  };

  // ---- split each traced request into layers: a miss pays its
  // keyword's expansion, every request its search; the rest of its time
  // is the serve layer's.
  LayerCost mix;  // per-call layer cost, averaged over the traced mix
  double unattributed = 0, enum_self = 0, layers_ms = 0, request_ms = 0;
  double served_expand_ms = 0, miss_count = 0;
  for (const RequestSample& s : traced.samples) {
    const LayerCost& c = cost[s.keyword];
    const double c_enum_self =
        c.enum_ms - (expander->options().prune_ball ? c.prune_ms : 0.0);
    const double c_unattributed =
        c.expand_ms - (c.link_ms + c.ball_ms + c.enum_ms + c.score_ms +
                       (expander->options().prune_ball ? 0.0 : c.prune_ms));
    const bool miss = missed(s);
    const double latency = s.latency_ms();
    // A miss's expansion ran inside the request, so the server's own
    // time for it cannot exceed the time the client saw.  A hit taken
    // for a miss carries an earlier request's expand_ms instead.
    if (miss && s.served_expand_ms > latency + kClockSlackMs) {
      *error = "request " + std::to_string(s.id) + " counted as a miss: " +
               "its expansion took " + std::to_string(s.served_expand_ms) +
               " ms, the request " + std::to_string(latency) + " ms";
      return false;
    }
    for (double LayerCost::*field :
         {&LayerCost::expand_ms, &LayerCost::link_ms, &LayerCost::ball_ms,
          &LayerCost::prune_ms, &LayerCost::score_ms, &LayerCost::search_ms,
          &LayerCost::articles, &LayerCost::ball_nodes,
          &LayerCost::ball_edges, &LayerCost::survivors, &LayerCost::cycles,
          &LayerCost::accepted, &LayerCost::docs}) {
      mix.*field += c.*field;
    }
    enum_self += c_enum_self;
    unattributed += c_unattributed;
    layers_ms += c.search_ms + (miss ? c.expand_ms : 0.0);
    served_expand_ms += miss ? s.served_expand_ms : 0.0;
    request_ms += latency;
    miss_count += miss ? 1.0 : 0.0;
  }
  const size_t n = traced.samples.size();
  if (n == 0) {
    *error = "no traced requests";
    return false;
  }

  // ---- the split against the server's own clocks (see the file
  // comment): queue wait + service + hand-off = request time, each part
  // measured, and the layer parts inside the service time.
  const ServerTimes& st = traced_server;
  const double handoff_ms = request_ms - st.queue_wait_ms - st.service_ms;
  const double slack_ms = kClockSlackMs * static_cast<double>(n);
  const double inv = 1.0 / static_cast<double>(n);
  std::printf(
      "accounting, mean per traced request: %.4f ms = queue wait %.4f + "
      "service %.4f (layers %.4f, rest %.4f) + hand-off %.4f; misses' "
      "served expansions %.4f\n",
      request_ms * inv, st.queue_wait_ms * inv, st.service_ms * inv,
      layers_ms * inv, (st.service_ms - layers_ms) * inv, handoff_ms * inv,
      served_expand_ms * inv);
  if (st.queue_wait_count != n || st.service_count != n) {
    *error = "the server timed " + std::to_string(st.queue_wait_count) +
             " queue waits and " + std::to_string(st.service_count) +
             " requests, the client " + std::to_string(n);
    return false;
  }
  if (handoff_ms < -slack_ms) {
    *error = "the server's queue wait and service (" +
             std::to_string(st.queue_wait_ms + st.service_ms) +
             " ms) exceed the client's request time (" +
             std::to_string(request_ms) + " ms)";
    return false;
  }
  if (served_expand_ms > st.service_ms + slack_ms) {
    *error = "the misses' served expansions (" +
             std::to_string(served_expand_ms) +
             " ms) exceed the service time (" + std::to_string(st.service_ms) +
             " ms)";
    return false;
  }
  if (layers_ms > (1.0 + kReplaySlack) * st.service_ms) {
    *error = "the replayed layer parts (" + std::to_string(layers_ms) +
             " ms) exceed the service time (" + std::to_string(st.service_ms) +
             " ms) by more than " + std::to_string(kReplaySlack * 100) + "%";
    return false;
  }
  if (-unattributed > kChildSlack * mix.expand_ms) {
    *error = "the steps of Engine::Expand (mean " +
             std::to_string((mix.expand_ms - unattributed) * inv) +
             " ms) exceed the call (" + std::to_string(mix.expand_ms * inv) +
             " ms) by more than " + std::to_string(kChildSlack * 100) + "%";
    return false;
  }
  auto add = [&](const char* name, double value, const char* unit,
                 size_t samples) {
    metrics->push_back({name, value, unit, samples});
  };
  const size_t replays = work.size();
  add("linking.link_ms", mix.link_ms * inv, "ms", replays);
  add("linking.articles_linked", mix.articles * inv, "count", replays);
  add("wiki.ball_ms", mix.ball_ms * inv, "ms", replays);
  add("wiki.ball_nodes", mix.ball_nodes * inv, "count", replays);
  add("wiki.ball_edges", mix.ball_edges * inv, "count", replays);
  add("graph.prune_ms", mix.prune_ms * inv, "ms", replays);
  add("graph.prune_survivor_fraction", mix.survivors * inv, "ratio", replays);
  add("graph.enum_ms", enum_self * inv, "ms", replays);
  add("graph.cycles_enumerated", mix.cycles * inv, "count", replays);
  add("expansion.score_ms", mix.score_ms * inv, "ms", replays);
  add("expansion.cycles_accepted", mix.accepted * inv, "count", replays);
  add("expansion.accept_ratio",
      mix.cycles > 0 ? mix.accepted / mix.cycles : 0.0, "ratio", replays);
  add("expansion.expand_ms", mix.expand_ms * inv, "ms", replays);
  add("expansion.unattributed_ms", unattributed * inv, "ms", replays);
  add("expansion.enum_score_share",
      mix.expand_ms > 0
          ? (enum_self + mix.prune_ms + mix.score_ms) / mix.expand_ms
          : 0.0,
      "ratio", replays);
  add("ir.search_ms", mix.search_ms * inv, "ms", replays);
  add("ir.docs_returned", mix.docs * inv, "count", replays);

  // ---- the serve layer, from the server's own instruments.
  const wqe::obs::HistogramSnapshot wait =
      after.queue_wait.DeltaSince(before.queue_wait);
  add("serve.queue_wait_ms", wait.Mean(), "ms", wait.count);
  const double lookups = after.cache_lookup_count - before.cache_lookup_count;
  add("serve.cache_lookup_ms",
      lookups > 0
          ? (after.cache_lookup_sum_ms - before.cache_lookup_sum_ms) / lookups
          : 0.0,
      "ms", static_cast<size_t>(lookups));
  const double hits = static_cast<double>(after.cache.hits - before.cache.hits);
  const double cache_misses =
      static_cast<double>(after.cache.misses - before.cache.misses);
  add("serve.cache_hit_ratio",
      hits + cache_misses > 0 ? hits / (hits + cache_misses) : 0.0, "ratio",
      static_cast<size_t>(hits + cache_misses));
  add("serve.cache_stale_drops",
      static_cast<double>(after.cache.stale_drops - before.cache.stale_drops),
      "count", 1);
  add("serve.cache_evictions",
      static_cast<double>(after.cache.evictions - before.cache.evictions),
      "count", 1);
  add("serve.overhead_ms", (request_ms - layers_ms) * inv, "ms", n);

  std::vector<double> traced_latency;
  for (const RequestSample& s : traced.samples) {
    traced_latency.push_back(s.latency_ms());
  }
  add("trace.request_ms", request_ms * inv, "ms", n);
  add("trace.miss_ratio", miss_count * inv, "ratio", n);
  add("trace.overhead_p50_ms",
      Median(std::move(traced_latency)) - Median(AllLatencies(untraced)), "ms",
      n + untraced.attempted);
  return true;
}

void AppendSetupAndSwapMetrics(const SpanLog& spans,
                               std::vector<Metric>* metrics) {
  std::map<std::string, std::vector<double>> by_name;
  for (const SpanRecord& r : spans.records()) {
    by_name[r.name].push_back(r.duration_ms());
  }
  for (const auto& [span, metric] :
       std::vector<std::pair<const char*, const char*>>{
           {"setup.generate", "setup.generate_ms"},
           {"api.engine_build", "api.engine_build_ms"},
           {"ir.index", "ir.index_ms"},
           {"snapshot.write", "snapshot.write_ms"},
           {"snapshot.open", "snapshot.open_ms"},
           {"snapshot.load", "snapshot.load_ms"},
           {"api.publish", "api.publish_ms"}}) {
    const std::vector<double>& values = by_name[span];
    metrics->push_back({metric, Median(values), "ms", values.size()});
  }
}

}  // namespace perfbench
