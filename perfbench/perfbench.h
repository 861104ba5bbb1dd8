#pragma once

/// \file perfbench.h
/// \brief Shared declarations of the serving benchmark (see README.md).
///
/// The benchmark drives `serve::Server` from outside, the way a client
/// would: it builds a testbed from the seed, replays a Zipfian request
/// stream through a closed loop, checks every response against a
/// reference computed with sequential `Engine::Query` calls, and prints
/// end-to-end metrics.  A traced run (`--trace 1`) replays the same
/// stream and times calls into each layer's public functions from the
/// benchmark's own code (layers.cc).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "api/engine.h"
#include "api/testbed.h"
#include "clef/track.h"
#include "ir/scorer.h"
#include "obs/metrics.h"
#include "serve/server.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Server workers: one per core of the 4-core machine this was sized on.
inline constexpr size_t kWorkers = 4;
/// Closed-loop clients, one outstanding request each: eight requests in
/// flight on four workers, so a worker that finishes a request usually
/// finds the next one queued.  With one request per worker, workers (and
/// the VM's cores) idle between requests, and every idle-to-busy switch
/// is a chance for a shared host to take the core away: all-hit runs
/// (cached 50-domain KB) in which the host stole 5-10% of the VM's time
/// served 25-40% fewer requests with a 3-5x p99.  Threads rather than one
/// thread juggling futures, because `std::future` has no wait-for-any.
inline constexpr size_t kClients = 8;

/// One workload: what it serves and why (BENCHMARK.json holds the why).
struct WorkloadSpec {
  std::string name;
  uint32_t num_domains = 50;
  /// When nonzero, reload the snapshot from disk and publish it into the
  /// served engine every `publish_every` completed requests.  Such a
  /// workload serves through the expansion cache, pre-warmed with every
  /// distinct key before measuring, so each publish turns hits into
  /// misses; the others serve with the cache off.
  size_t publish_every = 0;
  bool republish() const { return publish_every != 0; }
};

/// Looks up a workload by name; false when unknown.
bool FindWorkload(const std::string& name, WorkloadSpec* spec);

struct Options {
  WorkloadSpec workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the snapshot file the workload reloads and, in traced
  /// runs, the span log `spans-<workload>.jsonl`.
  std::string work_dir;
  /// Self-test hook: damage one keyword's reference so the run must fail.
  bool corrupt_reference = false;
};

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  size_t samples = 0;
};

// ------------------------------------------------------------------ spans

/// One finished span: a call into a layer, timed from benchmark code.
struct SpanRecord {
  const char* name = "";   ///< layer.function, a string literal
  uint64_t id = 0;
  uint64_t parent = 0;     ///< 0 for a root
  uint64_t request = 0;    ///< request (or replay, setup step, swap) id
  Clock::time_point start;
  Clock::time_point end;
  double duration_ms() const { return MillisBetween(start, end); }
};

/// In-memory span store, written out once at exit.
class SpanLog {
 public:
  /// Fresh span id (thread-safe).
  uint64_t NextId();
  /// Appends under the log's mutex; hot paths batch through a local
  /// vector and `Append(std::vector)`.
  void Append(const SpanRecord& record);
  void Append(std::vector<SpanRecord> records);
  /// The spans; only once no thread appends any more.
  const std::vector<SpanRecord>& records() const { return records_; }
  /// Writes one JSON object per line: name, id, parent, request, start_ms
  /// and end_ms relative to the first span.
  bool WriteJsonl(const std::string& path) const;

 private:
  std::atomic<uint64_t> next_id_{1};
  std::mutex mu_;
  std::vector<SpanRecord> records_;  ///< guarded by mu_
};

// ---------------------------------------------------------------- testbed

/// The served system plus the inputs generated for it.
struct Bed {
  std::unique_ptr<wqe::api::Testbed> testbed;  ///< untraced set-up
  std::unique_ptr<wqe::api::Engine> engine;    ///< traced set-up
  wqe::clef::Track track;
  /// Distinct query keywords of the track; requests index into this.
  std::vector<std::string> keywords;
  std::string snapshot_path;  ///< the snapshot file swaps reload
  uint64_t snapshot_bytes = 0;  ///< its size, as the reader validated it
  wqe::api::Engine& Engine() { return testbed ? testbed->engine() : *engine; }
};

/// Expected response for one keyword.
struct Reference {
  std::vector<wqe::ir::ScoredDoc> docs;
  std::vector<std::string> titles;
};

/// Builds the testbed for `options` `reps` times and keeps the last,
/// appending each set-up's seconds to `setup_s`.  Republish set-ups
/// include writing the snapshot to `snapshot_path`.  Traced runs build
/// step by step and record `setup.generate`, `api.engine_build` and
/// `ir.index` spans (and `snapshot.write`) into `spans`.
wqe::Status BuildBed(const Options& options, const std::string& snapshot_path,
                     size_t reps, Bed* bed, std::vector<double>* setup_s,
                     SpanLog* spans);

/// Sequential `Engine::Query` per distinct keyword.
wqe::Result<std::vector<Reference>> ComputeReference(Bed& bed);

/// Whether `response` is exactly `expected` (ranking, scores, titles).
bool Matches(const wqe::api::QueryResponse& response,
             const Reference& expected);

/// The request stream: indices into `Bed::keywords`, Zipfian (s = 1)
/// over a seeded popularity order that is re-drawn every
/// `kStreamBlock` requests.
std::vector<uint32_t> MakeStream(uint64_t seed, size_t num_keywords,
                                 size_t length);

// ---------------------------------------------------------- closed loop

/// One traced request as the client saw it.
struct RequestSample {
  uint64_t id = 0;  ///< position in the stream (request id)
  uint32_t keyword = 0;
  Clock::time_point submit;
  Clock::time_point ready;
  /// The response's `expansion.expand_ms`: the server's own time for the
  /// expansion on a miss, a copy of the missing request's on a hit.
  double served_expand_ms = 0.0;
  double latency_ms() const { return MillisBetween(submit, ready); }
};

/// The expansions computed while serving, keyed by (keyword, bits of the
/// response's `expansion.expand_ms`).  A cache hit returns a copy of the
/// expansion that missed, `expand_ms` included, so each key is one
/// computation, and the earliest request that carried it is the one that
/// missed.  Maps a key to that request's (submit time, id).
using Computations = std::map<std::pair<uint32_t, uint64_t>,
                              std::pair<Clock::time_point, uint64_t>>;

/// Records that request `id`, submitted at `submit`, returned the
/// expansion `expand_ms` for `keyword`; keeps the earliest request.
void NoteComputation(Computations* computations, uint32_t keyword,
                     double expand_ms, Clock::time_point submit, uint64_t id);

/// Folds `from` into `into`, keeping the earliest request per key.
void MergeComputations(const Computations& from, Computations* into);

/// Requests completed in one stretch of a phase, and a uniform sample of
/// their latencies.
struct Window {
  size_t completed = 0;
  Clock::time_point first_ready = Clock::time_point::max();
  Clock::time_point last_ready = Clock::time_point::min();
  std::vector<double> latencies_ms;
  /// Completions per second between the window's first and last one
  /// (exact times, so the rate is not quantized by the window length).
  double Rate() const {
    return completed < 2 ? 0.0
                         : static_cast<double>(completed - 1) * 1000.0 /
                               MillisBetween(first_ready, last_ready);
  }
};

/// Outcome of one closed-loop phase.
struct PhaseResult {
  std::string name;
  size_t attempted = 0;
  size_t succeeded = 0;
  size_t failed = 0;       ///< non-OK results plus reference mismatches
  size_t mismatched = 0;
  wqe::serve::ServerStats server;  ///< server counters, diffed over the phase
  double elapsed_s = 0.0;
  /// Consecutive windows of about `kWindowSeconds`.
  std::vector<Window> windows;
  uint64_t first_id = 0;  ///< the phase's requests are ids [first_id, end_id)
  uint64_t end_id = 0;
  std::vector<RequestSample> samples;  ///< traced requests
  Computations computations;           ///< traced runs only
  std::vector<double> swap_ms;         ///< Open → PublishSnapshot returned
  size_t publishes = 0;
  bool generation_ok = true;
};

/// Window length: long enough for ten requests beyond the p99 of the
/// slowest workload, short enough that a run has several.
inline constexpr double kWindowSeconds = 2.0;

/// Latency samples of every window of `phase`.
std::vector<double> AllLatencies(const PhaseResult& phase);

/// Drives `server` with `kClients` closed-loop clients reading
/// `stream` from `*cursor` for `seconds`, in windows, swapping snapshots
/// as the workload asks (see `WorkloadSpec::publish_every`).  Traced runs
/// record `computations`; a non-null `spans` also keeps every request's
/// `RequestSample` and records `request` spans.
PhaseResult RunPhase(const std::string& name, const Options& options,
                     Bed& bed, wqe::serve::Server& server,
                     const std::vector<uint32_t>& stream,
                     const std::vector<Reference>& reference,
                     std::atomic<uint64_t>* cursor, double seconds,
                     SpanLog* spans);

/// Writes the served KB to `bed.snapshot_path` (a `snapshot.write` span
/// when traced), for workloads whose set-up does not.
wqe::Status WriteSnapshot(Bed& bed, SpanLog* spans);

/// For workloads that do not republish while serving, between serving
/// segments: builds a second engine over `bed.snapshot_path`, swaps the
/// snapshot into that engine `warmup` times untimed, then again and again
/// for `seconds`, recording into `phase->swap_ms`.  The engine is dropped
/// before returning.
wqe::Status SwapBurst(Bed& bed, size_t warmup, double seconds,
                      PhaseResult* phase, SpanLog* spans);

// ------------------------------------------------------------ attribution

/// Registry readings diffed around a measured window.
struct ServeReadings {
  wqe::obs::HistogramSnapshot queue_wait;  ///< global wqe.serve.queue_wait_ms
  /// wqe.server.request_latency_ms: a worker's time on a request.
  wqe::obs::HistogramSnapshot service;
  double cache_lookup_count = 0.0;         ///< server registry histogram
  double cache_lookup_sum_ms = 0.0;
  wqe::serve::ExpansionCacheStats cache;
};

ServeReadings ReadServe(const wqe::serve::Server& server,
                        wqe::obs::MetricsRegistry& registry);

/// The server's own timing of the traced requests, summed over the
/// traced segments from its histograms.
struct ServerTimes {
  uint64_t queue_wait_count = 0;
  double queue_wait_ms = 0.0;
  uint64_t service_count = 0;
  double service_ms = 0.0;
  /// Adds the readings' difference over one segment.
  void Add(const ServeReadings& before, const ServeReadings& after);
};

/// Replays every distinct keyword of `traced` through the layers'
/// public functions (each replay checked against `reference`),
/// attributes each traced request's time to layers, checks the
/// attribution against the server's own timing (`traced_server`, see
/// layers.cc), and appends the per-layer metrics.  `computations` are
/// those of the whole run; `measured` (the traced and untraced segments
/// together) bounds the cross-check of misses against the cache's
/// counter.  False (with `*error`) on a replay error or when a check
/// fails.
bool AttributeLayers(Bed& bed, const WorkloadSpec& workload,
                     const std::vector<Reference>& reference,
                     const Computations& computations,
                     const PhaseResult& traced, const PhaseResult& untraced,
                     const PhaseResult& measured, const ServeReadings& before,
                     const ServeReadings& after,
                     const ServerTimes& traced_server, SpanLog* spans,
                     std::vector<Metric>* metrics, std::string* error);

/// Per-layer metrics of the set-up steps and snapshot swaps, from spans.
void AppendSetupAndSwapMetrics(const SpanLog& spans,
                               std::vector<Metric>* metrics);

/// Percentile `p` in [0, 1] of `values`, interpolated between ranks.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);

}  // namespace perfbench
