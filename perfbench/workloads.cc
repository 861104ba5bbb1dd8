/// \file workloads.cc
/// \brief Set-up, reference, request stream and the closed loop.

#include <algorithm>
#include <barrier>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <numeric>
#include <random>
#include <set>
#include <thread>

#include "clef/image_metadata.h"
#include "clef/track_generator.h"
#include "common/macros.h"
#include "perfbench.h"
#include "snapshot/reader.h"
#include "snapshot/writer.h"
#include "wiki/synthetic.h"

namespace perfbench {

using wqe::Result;
using wqe::Status;

namespace {

/// Requests per popularity order: every block re-draws which keyword is
/// most popular, so a run's cost does not hinge on one seed's head topic.
/// Over a run each keyword's expected share is then 1/N; within a block
/// (and a republish window of 2000 requests) the mix is Zipfian.  With
/// one order per run, the work per request (`graph.cycles_enumerated` on
/// cold_cycle) spread 19.4% (IQR/median) over seeds 1-10; re-drawn every
/// 500 requests, 3.3%.
constexpr size_t kStreamBlock = 500;

/// Request spans kept per client and phase: every request of the slow
/// workloads, a prefix of the fast ones, so the span file stays small.
constexpr size_t kRequestSpansPerClient = 10000;

/// Latency samples each client keeps per window (a uniform reservoir), so
/// the benchmark's own memory does not grow with throughput and distort
/// `peak_rss_mb`.
constexpr size_t kReservoirPerClient = 2048;

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Uniform double in [0, 1) from a 64-bit engine draw (the standard
/// distributions are implementation-defined; this is not).
double UnitDouble(std::mt19937_64& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

wqe::api::TestbedOptions TestbedOptionsFor(const Options& options) {
  wqe::api::TestbedOptions bed;
  bed.wiki.seed = SplitMix64(options.seed * 3 + 1);
  bed.wiki.num_domains = options.workload.num_domains;
  bed.track.seed = SplitMix64(options.seed * 3 + 2);
  bed.track.num_topics = 50;
  return bed;
}

/// Testbed::Build's steps, called one by one and timed as spans.
Status BuildTraced(const wqe::api::TestbedOptions& bed_options, Bed* bed,
                   SpanLog* spans, uint64_t setup_id) {
  SpanRecord generate{"setup.generate", spans->NextId(), setup_id, setup_id,
                      Clock::now(), {}};
  WQE_ASSIGN_OR_RETURN(wqe::wiki::SyntheticWikipedia wiki,
                       wqe::wiki::GenerateSyntheticWikipedia(bed_options.wiki));
  WQE_ASSIGN_OR_RETURN(bed->track,
                       wqe::clef::GenerateTrack(wiki, bed_options.track));
  generate.end = Clock::now();

  SpanRecord build{"api.engine_build", spans->NextId(), setup_id, setup_id,
                   Clock::now(), {}};
  WQE_ASSIGN_OR_RETURN(
      bed->engine,
      wqe::api::Engine::Build(std::move(wiki.kb), bed_options.engine));
  build.end = Clock::now();

  SpanRecord index{"ir.index", spans->NextId(), setup_id, setup_id,
                   Clock::now(), {}};
  for (const wqe::clef::TrackDocument& doc : bed->track.documents) {
    WQE_ASSIGN_OR_RETURN(wqe::clef::ImageMetadata meta,
                         wqe::clef::ParseImageMetadata(doc.xml));
    WQE_ASSIGN_OR_RETURN(
        wqe::ir::DocId id,
        bed->engine->AddDocument(doc.name, wqe::clef::ExtractLinkedText(meta)));
    (void)id;
  }
  WQE_RETURN_NOT_OK(bed->engine->FinalizeIndex());
  index.end = Clock::now();
  spans->Append(generate);
  spans->Append(build);
  spans->Append(index);
  return Status::OK();
}

}  // namespace

bool FindWorkload(const std::string& name, WorkloadSpec* spec) {
  // Why each exists: BENCHMARK.json and README.md.
  static const WorkloadSpec kWorkloads[] = {
      {"cold_cycle", 50},
      {"republish", 800, /*publish_every=*/2000},
  };
  for (const WorkloadSpec& w : kWorkloads) {
    if (w.name == name) {
      *spec = w;
      return true;
    }
  }
  return false;
}

// ------------------------------------------------------------------ spans

uint64_t SpanLog::NextId() { return next_id_.fetch_add(1); }

void SpanLog::Append(const SpanRecord& record) {
  std::lock_guard<std::mutex> lock(mu_);
  records_.push_back(record);
}

void SpanLog::Append(std::vector<SpanRecord> records) {
  std::lock_guard<std::mutex> lock(mu_);
  records_.insert(records_.end(), records.begin(), records.end());
}

bool SpanLog::WriteJsonl(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  Clock::time_point origin = Clock::time_point::max();
  for (const SpanRecord& r : records_) origin = std::min(origin, r.start);
  for (const SpanRecord& r : records_) {
    std::fprintf(out,
                 "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                 "\"request\":%llu,\"start_ms\":%.6f,\"end_ms\":%.6f}\n",
                 r.name, static_cast<unsigned long long>(r.id),
                 static_cast<unsigned long long>(r.parent),
                 static_cast<unsigned long long>(r.request),
                 MillisBetween(origin, r.start), MillisBetween(origin, r.end));
  }
  return std::fclose(out) == 0;
}

// ---------------------------------------------------------------- set-up

Status BuildBed(const Options& options, const std::string& snapshot_path,
                size_t reps, Bed* bed, std::vector<double>* setup_s,
                SpanLog* spans) {
  const wqe::api::TestbedOptions bed_options = TestbedOptionsFor(options);
  const bool republish = options.workload.republish();
  for (size_t rep = 0; rep < reps; ++rep) {
    // Drop the previous build first, so peak memory is one testbed's.
    *bed = Bed{};
    bed->snapshot_path = snapshot_path;
    const Clock::time_point start = Clock::now();
    uint64_t setup_id = 0;
    if (spans != nullptr) {
      setup_id = spans->NextId();
      WQE_RETURN_NOT_OK(BuildTraced(bed_options, bed, spans, setup_id));
    } else {
      WQE_ASSIGN_OR_RETURN(bed->testbed,
                           wqe::api::Testbed::Build(bed_options));
    }
    if (republish) {
      const Clock::time_point write_start = Clock::now();
      WQE_RETURN_NOT_OK(wqe::snapshot::Writer::Write(bed->Engine().kb(),
                                                     bed->snapshot_path));
      if (spans != nullptr) {
        spans->Append({"snapshot.write", spans->NextId(), setup_id, setup_id,
                       write_start, Clock::now()});
      }
    }
    const Clock::time_point end = Clock::now();
    if (spans != nullptr) {
      spans->Append({"setup", setup_id, 0, setup_id, start, end});
    }
    setup_s->push_back(MillisBetween(start, end) / 1000.0);
  }
  const wqe::clef::Track& track =
      bed->testbed ? bed->testbed->track() : bed->track;
  std::set<std::string> seen;
  for (const wqe::clef::Topic& topic : track.topics) {
    if (seen.insert(topic.keywords).second) {
      bed->keywords.push_back(topic.keywords);
    }
  }
  if (bed->keywords.empty()) return Status::Internal("track has no topics");
  return Status::OK();
}

Result<std::vector<Reference>> ComputeReference(Bed& bed) {
  std::vector<Reference> reference;
  reference.reserve(bed.keywords.size());
  for (const std::string& keywords : bed.keywords) {
    wqe::api::QueryRequest request;
    request.keywords = keywords;
    WQE_ASSIGN_OR_RETURN(wqe::api::QueryResponse response,
                         bed.Engine().Query(request));
    reference.push_back({std::move(response.docs),
                         std::move(response.expansion.titles)});
  }
  return reference;
}

bool Matches(const wqe::api::QueryResponse& response,
             const Reference& expected) {
  return response.docs == expected.docs &&
         response.expansion.titles == expected.titles;
}

std::vector<uint32_t> MakeStream(uint64_t seed, size_t num_keywords,
                                 size_t length) {
  std::mt19937_64 rng(SplitMix64(seed * 3 + 3));
  // Zipf(s = 1) over popularity ranks, by inverse CDF.
  std::vector<double> cdf(num_keywords);
  double total = 0.0;
  for (size_t r = 0; r < num_keywords; ++r) {
    total += 1.0 / static_cast<double>(r + 1);
    cdf[r] = total;
  }
  std::vector<uint32_t> by_rank(num_keywords);
  std::iota(by_rank.begin(), by_rank.end(), 0u);
  std::vector<uint32_t> stream;
  stream.reserve(length);
  for (size_t i = 0; i < length; ++i) {
    if (i % kStreamBlock == 0) {
      for (size_t j = num_keywords; j > 1; --j) {  // Fisher–Yates
        std::swap(by_rank[j - 1], by_rank[rng() % j]);
      }
    }
    const double u = UnitDouble(rng) * total;
    const size_t rank = std::min<size_t>(
        std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin(),
        num_keywords - 1);
    stream.push_back(by_rank[rank]);
  }
  return stream;
}

// ------------------------------------------------------------------ swaps

namespace {

/// One swap's three layer calls, as spans under a `swap` root.
void RecordSwapSpans(SpanLog* spans, uint64_t swap_id, Clock::time_point t0,
                     Clock::time_point t_open, Clock::time_point t_load,
                     Clock::time_point t_publish) {
  spans->Append({"swap", swap_id, 0, swap_id, t0, t_publish});
  spans->Append({"snapshot.open", spans->NextId(), swap_id, swap_id, t0,
                 t_open});
  spans->Append({"snapshot.load", spans->NextId(), swap_id, swap_id, t_open,
                 t_load});
  spans->Append({"api.publish", spans->NextId(), swap_id, swap_id, t_load,
                 t_publish});
}

/// Open → Load → Publish of the workload's snapshot file into `engine`.
Status Swap(wqe::api::Engine& engine, Bed& bed, std::vector<double>* swap_ms,
            bool* generation_ok, SpanLog* spans) {
  const uint64_t before = engine.snapshot_generation();
  const Clock::time_point t0 = Clock::now();
  WQE_ASSIGN_OR_RETURN(wqe::snapshot::Reader reader,
                       wqe::snapshot::Reader::Open(bed.snapshot_path));
  const Clock::time_point t_open = Clock::now();
  WQE_ASSIGN_OR_RETURN(wqe::wiki::KnowledgeBase kb, reader.Load());
  const Clock::time_point t_load = Clock::now();
  WQE_RETURN_NOT_OK(engine.PublishSnapshot(std::move(kb)));
  const Clock::time_point t_publish = Clock::now();
  if (engine.snapshot_generation() != before + 1) *generation_ok = false;
  bed.snapshot_bytes = reader.info().file_size;
  swap_ms->push_back(MillisBetween(t0, t_publish));
  if (spans != nullptr) {
    RecordSwapSpans(spans, spans->NextId(), t0, t_open, t_load, t_publish);
  }
  return Status::OK();
}

}  // namespace

Status WriteSnapshot(Bed& bed, SpanLog* spans) {
  const Clock::time_point write_start = Clock::now();
  WQE_RETURN_NOT_OK(
      wqe::snapshot::Writer::Write(bed.Engine().kb(), bed.snapshot_path));
  if (spans != nullptr) {
    const uint64_t id = spans->NextId();
    spans->Append({"snapshot.write", id, 0, id, write_start, Clock::now()});
  }
  return Status::OK();
}

Status SwapBurst(Bed& bed, size_t warmup, double seconds, PhaseResult* phase,
                 SpanLog* spans) {
  WQE_ASSIGN_OR_RETURN(wqe::wiki::KnowledgeBase kb,
                       wqe::snapshot::LoadSnapshot(bed.snapshot_path));
  WQE_ASSIGN_OR_RETURN(std::unique_ptr<wqe::api::Engine> engine,
                       wqe::api::Engine::Build(std::move(kb)));
  // Untimed: the first swaps into a fresh engine run faster than the rest.
  std::vector<double> warmup_ms;
  for (size_t i = 0; i < warmup; ++i) {
    WQE_RETURN_NOT_OK(
        Swap(*engine, bed, &warmup_ms, &phase->generation_ok, nullptr));
    ++phase->publishes;
  }
  const Clock::time_point start = Clock::now();
  const auto length = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
  do {
    WQE_RETURN_NOT_OK(
        Swap(*engine, bed, &phase->swap_ms, &phase->generation_ok, spans));
    ++phase->publishes;
  } while (Clock::now() - start < length);
  phase->elapsed_s += MillisBetween(start, Clock::now()) / 1000.0;
  return Status::OK();
}

// ------------------------------------------------------------ closed loop

PhaseResult RunPhase(const std::string& name, const Options& options,
                     Bed& bed, wqe::serve::Server& server,
                     const std::vector<uint32_t>& stream,
                     const std::vector<Reference>& reference,
                     std::atomic<uint64_t>* cursor, double seconds,
                     SpanLog* spans) {
  const size_t num_windows = std::max<size_t>(
      1, static_cast<size_t>(std::lround(seconds / kWindowSeconds)));
  const auto window_length = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds / static_cast<double>(num_windows)));
  struct ClientResult {
    size_t attempted = 0, succeeded = 0, failed = 0, mismatched = 0;
    std::vector<Window> windows;
    std::vector<size_t> seen;  // per window, for the reservoir
    std::vector<RequestSample> samples;
    std::vector<SpanRecord> spans;
    Computations computations;
  };
  PhaseResult result;
  result.name = name;
  result.first_id = cursor->load();
  const wqe::serve::ServerStats server_before = server.stats();
  std::vector<ClientResult> clients(kClients);
  for (ClientResult& c : clients) {
    c.windows.resize(num_windows);
    c.seen.resize(num_windows, 0);
    for (Window& w : c.windows) w.latencies_ms.reserve(kReservoirPerClient);
  }
  const WorkloadSpec& workload = options.workload;

  // Windows end at a barrier: every client finishes its request.
  Clock::time_point window_start = Clock::now();
  const Clock::time_point start = window_start;
  auto end_window = [&]() noexcept { window_start = Clock::now(); };
  std::barrier window_barrier(static_cast<std::ptrdiff_t>(kClients),
                              end_window);

  // Republish swaps the served engine every `publish_every` completed
  // requests, from its own thread, while requests keep arriving.
  std::atomic<size_t> completed{0};
  std::mutex publish_mu;
  std::condition_variable publish_cv;
  bool stop_publisher = false;  // guarded by publish_mu

  auto client = [&](size_t c) {
    ClientResult& out = clients[c];
    std::mt19937_64 reservoir_rng(SplitMix64(options.seed + 101 * (c + 1)));
    for (size_t w = 0; w < num_windows; ++w) {
      Window& window = out.windows[w];
      const Clock::time_point window_end = window_start + window_length;
      while (Clock::now() < window_end) {
        const uint64_t i = cursor->fetch_add(1);
        const uint32_t k = stream[i % stream.size()];
        wqe::api::QueryRequest request;
        request.keywords = bed.keywords[k];
        const Clock::time_point submit = Clock::now();
        Result<wqe::api::QueryResponse> response =
            server.Submit(std::move(request)).get();
        const Clock::time_point ready = Clock::now();
        ++out.attempted;
        if (!response.ok()) {
          ++out.failed;
        } else if (!Matches(*response, reference[k])) {
          ++out.failed;
          ++out.mismatched;
        } else {
          ++out.succeeded;
          if (options.trace) {
            NoteComputation(&out.computations, k,
                            response->expansion.expand_ms, submit, i);
          }
        }
        const double ms = MillisBetween(submit, ready);
        if (window.latencies_ms.size() < kReservoirPerClient) {
          window.latencies_ms.push_back(ms);
        } else {
          const uint64_t j = reservoir_rng() % (out.seen[w] + 1);
          if (j < kReservoirPerClient) window.latencies_ms[j] = ms;
        }
        ++out.seen[w];
        ++window.completed;
        window.first_ready = std::min(window.first_ready, ready);
        window.last_ready = std::max(window.last_ready, ready);
        if (spans != nullptr) {
          out.samples.push_back({i, k, submit, ready,
                                 response.ok() ? response->expansion.expand_ms
                                               : 0.0});
          if (out.spans.size() < kRequestSpansPerClient) {
            out.spans.push_back(
                {"request", spans->NextId(), 0, i, submit, ready});
          }
        }
        const size_t done = completed.fetch_add(1) + 1;
        if (workload.republish() && done % workload.publish_every == 0) {
          std::lock_guard<std::mutex> lock(publish_mu);
          publish_cv.notify_one();
        }
      }
      window_barrier.arrive_and_wait();
    }
  };

  Status publish_status = Status::OK();
  std::thread publisher;
  if (workload.republish()) {
    publisher = std::thread([&] {
      size_t next = workload.publish_every;
      while (true) {
        {
          std::unique_lock<std::mutex> lock(publish_mu);
          publish_cv.wait(lock, [&] {
            return stop_publisher || completed.load() >= next;
          });
          if (stop_publisher) return;
        }
        Status swapped = Swap(bed.Engine(), bed, &result.swap_ms,
                              &result.generation_ok, spans);
        if (!swapped.ok()) {
          std::lock_guard<std::mutex> lock(publish_mu);
          publish_status = swapped;
          return;
        }
        ++result.publishes;
        next += workload.publish_every;
      }
    });
  }
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) threads.emplace_back(client, c);
  for (std::thread& t : threads) t.join();
  result.elapsed_s = MillisBetween(start, Clock::now()) / 1000.0;
  if (publisher.joinable()) {
    {
      std::lock_guard<std::mutex> lock(publish_mu);
      stop_publisher = true;
    }
    publish_cv.notify_one();
    publisher.join();
  }
  if (!publish_status.ok()) {
    std::fprintf(stderr, "perfbench: swap failed: %s\n",
                 publish_status.ToString().c_str());
    result.generation_ok = false;
  }

  result.windows.resize(num_windows);
  for (ClientResult& c : clients) {
    result.attempted += c.attempted;
    result.succeeded += c.succeeded;
    result.failed += c.failed;
    result.mismatched += c.mismatched;
    for (size_t w = 0; w < num_windows; ++w) {
      Window& into = result.windows[w];
      const Window& from = c.windows[w];
      into.completed += from.completed;
      into.first_ready = std::min(into.first_ready, from.first_ready);
      into.last_ready = std::max(into.last_ready, from.last_ready);
      into.latencies_ms.insert(into.latencies_ms.end(),
                               from.latencies_ms.begin(),
                               from.latencies_ms.end());
    }
    result.samples.insert(result.samples.end(), c.samples.begin(),
                          c.samples.end());
    MergeComputations(c.computations, &result.computations);
    if (spans != nullptr) spans->Append(std::move(c.spans));
  }
  result.end_id = cursor->load();
  const wqe::serve::ServerStats server_after = server.stats();
  result.server.requests = server_after.requests - server_before.requests;
  result.server.requests_failed =
      server_after.requests_failed - server_before.requests_failed;
  result.server.shed = server_after.shed - server_before.shed;
  result.server.deadline_exceeded =
      server_after.deadline_exceeded - server_before.deadline_exceeded;
  return result;
}

void NoteComputation(Computations* computations, uint32_t keyword,
                     double expand_ms, Clock::time_point submit, uint64_t id) {
  uint64_t bits = 0;
  std::memcpy(&bits, &expand_ms, sizeof(bits));
  auto [it, inserted] =
      computations->try_emplace({keyword, bits}, submit, id);
  if (!inserted && submit < it->second.first) it->second = {submit, id};
}

void MergeComputations(const Computations& from, Computations* into) {
  for (const auto& [key, first] : from) {
    auto [it, inserted] = into->try_emplace(key, first);
    if (!inserted && first.first < it->second.first) it->second = first;
  }
}

// ------------------------------------------------------------- statistics

std::vector<double> AllLatencies(const PhaseResult& phase) {
  std::vector<double> all;
  for (const Window& w : phase.windows) {
    all.insert(all.end(), w.latencies_ms.begin(), w.latencies_ms.end());
  }
  return all;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

}  // namespace perfbench
