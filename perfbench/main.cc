/// \file main.cc
/// \brief Entry point of the serving benchmark.
///
///   wqe_perfbench --workload cold_cycle|republish --seed N
///                 --seconds S --trace 0|1 [--work-dir DIR]
///                 [--corrupt-reference]
///
/// Prints one line per phase with its request accounting, one line per
/// metric (name, value, unit, sample count), and as the last line a JSON
/// object `{"correct", "attempted", "failed", "metrics"}`.  `--trace 0`
/// reports the end-to-end metrics, `--trace 1` the per-layer ones.  Exits
/// 1 when any response differs from the reference or any check fails.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "perfbench.h"

namespace perfbench {
namespace {

/// Set-ups per run, before serving (the last one is served) and after;
/// `setup_s` is the median of all.
constexpr size_t kEarlySetupReps = 4;
constexpr size_t kLateSetupReps = 7;
/// Stream length; clients wrap around it.  Small, so the benchmark's
/// own memory barely shows in `peak_rss_mb`.
constexpr size_t kStreamLength = size_t{1} << 16;
/// Cache capacity: above the distinct keys of any workload, so a warm
/// cache holds every key.
constexpr size_t kCacheCapacity = 4096;
/// Workloads that do not republish serve in `kSwapBursts` segments (with
/// `--trace 0`; in 4 with `--trace 1`) and swap snapshots into a second
/// engine after each: `kSwapWarmup` untimed swaps, then `kSwapBurstSeconds`
/// of timed ones (about 170 swaps of the 50-domain KB on a shared 4-core
/// host).  Swap time on such a host drifts by 20-30% over tens of
/// seconds: 100 swaps after serving spread 26% (IQR/median) over 10
/// seeds, and 3 s of swaps after serving still 22% over 5.
constexpr size_t kSwapBursts = 8;
constexpr size_t kSwapWarmup = 30;
constexpr double kSwapBurstSeconds = 0.4;

/// Resets the peak resident set to the current one, so the swap bursts
/// between serving segments stay out of `peak_rss_mb`; false when
/// /proc/self/clear_refs cannot be written (the peak then includes them).
bool ResetPeakRss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.flush();
  return static_cast<bool>(clear_refs);
}

void Usage() {
  std::fprintf(stderr,
               "usage: wqe_perfbench --workload cold_cycle|republish "
               "--seed N --seconds S --trace 0|1 [--work-dir DIR] "
               "[--corrupt-reference]\n");
}

bool ParseArgs(int argc, char** argv, Options* options) {
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](std::string* out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    std::string v;
    if (arg == "--corrupt-reference") {
      options->corrupt_reference = true;
    } else if (arg == "--workload") {
      if (!value(&workload)) return false;
    } else if (arg == "--seed") {
      if (!value(&v)) return false;
      options->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      if (!value(&v)) return false;
      options->seconds = std::strtod(v.c_str(), nullptr);
    } else if (arg == "--trace") {
      if (!value(&v) || (v != "0" && v != "1")) return false;
      options->trace = v == "1";
    } else if (arg == "--work-dir") {
      if (!value(&options->work_dir)) return false;
    } else {
      return false;
    }
  }
  if (!FindWorkload(workload, &options->workload)) return false;
  if (!(options->seconds > 0.0)) return false;
  if (options->work_dir.empty()) options->work_dir = ".";
  return true;
}

/// Peak resident set (VmHWM) in MiB; 0 when /proc is unavailable.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

void PrintPhase(const PhaseResult& p) {
  std::printf(
      "phase %-10s attempted %zu succeeded %zu failed %zu (mismatched %zu) "
      "| server: requests %zu failed %zu shed %zu deadline_exceeded %zu "
      "| %.3f s",
      p.name.c_str(), p.attempted, p.succeeded, p.failed, p.mismatched,
      p.server.requests, p.server.requests_failed, p.server.shed,
      p.server.deadline_exceeded, p.elapsed_s);
  if (p.publishes > 0) std::printf(" | publishes %zu", p.publishes);
  std::printf("\n");
}

/// Request ids of the pre-warm pass, above any stream position.
constexpr uint64_t kPrewarmIds = uint64_t{1} << 62;

/// Sequential pass over every distinct key: fills the cache.
PhaseResult Prewarm(Bed& bed, wqe::serve::Server& server,
                    const std::vector<Reference>& reference) {
  PhaseResult result;
  result.name = "prewarm";
  const wqe::serve::ServerStats before = server.stats();
  const Clock::time_point start = Clock::now();
  for (uint32_t k = 0; k < bed.keywords.size(); ++k) {
    wqe::api::QueryRequest request;
    request.keywords = bed.keywords[k];
    const Clock::time_point submit = Clock::now();
    wqe::Result<wqe::api::QueryResponse> response =
        server.Submit(std::move(request)).get();
    ++result.attempted;
    if (!response.ok()) {
      ++result.failed;
    } else if (!Matches(*response, reference[k])) {
      ++result.failed;
      ++result.mismatched;
    } else {
      ++result.succeeded;
      NoteComputation(&result.computations, k, response->expansion.expand_ms,
                      submit, kPrewarmIds + k);
    }
  }
  result.elapsed_s = MillisBetween(start, Clock::now()) / 1000.0;
  const wqe::serve::ServerStats after = server.stats();
  result.server.requests = after.requests - before.requests;
  result.server.requests_failed = after.requests_failed - before.requests_failed;
  result.server.shed = after.shed - before.shed;
  result.server.deadline_exceeded =
      after.deadline_exceeded - before.deadline_exceeded;
  return result;
}

/// Folds `parts` into one phase: counts summed, samples concatenated,
/// ids from the first part's first to the last part's end.
PhaseResult Merge(const std::string& name,
                  const std::vector<const PhaseResult*>& parts) {
  PhaseResult m;
  m.name = name;
  m.first_id = parts.front()->first_id;
  m.end_id = parts.back()->end_id;
  for (const PhaseResult* p : parts) {
    m.attempted += p->attempted;
    m.succeeded += p->succeeded;
    m.failed += p->failed;
    m.mismatched += p->mismatched;
    m.server.requests += p->server.requests;
    m.server.requests_failed += p->server.requests_failed;
    m.server.shed += p->server.shed;
    m.server.deadline_exceeded += p->server.deadline_exceeded;
    m.elapsed_s += p->elapsed_s;
    m.windows.insert(m.windows.end(), p->windows.begin(), p->windows.end());
    m.samples.insert(m.samples.end(), p->samples.begin(), p->samples.end());
    MergeComputations(p->computations, &m.computations);
    m.swap_ms.insert(m.swap_ms.end(), p->swap_ms.begin(), p->swap_ms.end());
    m.publishes += p->publishes;
    m.generation_ok = m.generation_ok && p->generation_ok;
  }
  return m;
}

int Run(const Options& options) {
  const WorkloadSpec& workload = options.workload;
  SpanLog span_log;
  SpanLog* spans = options.trace ? &span_log : nullptr;
  std::string failure;

  Bed bed;
  std::vector<double> setup_s;
  const std::string snapshot_path = options.work_dir + "/" + workload.name +
                                    "-seed" + std::to_string(options.seed) +
                                    ".snap";
  wqe::Status status = BuildBed(options, snapshot_path, kEarlySetupReps, &bed,
                                &setup_s, spans);
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  wqe::Result<std::vector<Reference>> computed = ComputeReference(bed);
  if (!computed.ok()) {
    std::fprintf(stderr, "perfbench: reference failed: %s\n",
                 computed.status().ToString().c_str());
    return 1;
  }
  std::vector<Reference> reference = std::move(*computed);
  if (options.corrupt_reference) {
    // Any response for keyword 0 must now be reported as a mismatch.
    reference[0].titles.push_back("(corrupted reference)");
  }

  wqe::obs::MetricsRegistry registry;
  wqe::serve::ServerOptions server_options;
  server_options.num_threads = kWorkers;
  server_options.enable_cache = workload.republish();
  server_options.cache.capacity = kCacheCapacity;
  server_options.registry = &registry;
  wqe::serve::Server server(bed.Engine(), server_options);

  const std::vector<uint32_t> stream =
      MakeStream(options.seed, bed.keywords.size(), kStreamLength);
  std::atomic<uint64_t> cursor{0};
  std::vector<PhaseResult> phases;
  if (workload.republish()) phases.push_back(Prewarm(bed, server, reference));
  // Unmeasured: the first requests of a process run slow.
  const double warmup_s = std::min(2.0, std::max(0.5, options.seconds * 0.2));
  phases.push_back(RunPhase("warmup", options, bed, server, stream,
                            reference, &cursor, warmup_s, nullptr));

  // Every workload reports `swap_p50_ms`.  Those that do not republish
  // swap into a second engine that serves nothing, in bursts between
  // serving segments, so the swaps sample the whole run but stay out of
  // the served requests' latency and, by resetting the peak after each
  // burst, out of `peak_rss_mb`.
  PhaseResult swaps;
  swaps.name = "swaps";
  double peak_rss_mb = 0.0;
  if (!workload.republish()) {
    status = WriteSnapshot(bed, spans);
    if (!status.ok()) failure = "snapshot write: " + status.ToString();
  }
  auto end_segment = [&] {
    peak_rss_mb = std::max(peak_rss_mb, PeakRssMb());
    if (workload.republish() || !failure.empty()) return;
    status = SwapBurst(bed, kSwapWarmup, kSwapBurstSeconds, &swaps, spans);
    if (!status.ok()) failure = "swaps: " + status.ToString();
    if (!ResetPeakRss()) {
      std::fprintf(stderr, "perfbench: cannot reset the peak resident set\n");
    }
  };

  PhaseResult measured;
  PhaseResult traced;
  PhaseResult untraced;
  ServeReadings before;
  ServeReadings after;
  ServerTimes traced_server;
  if (!options.trace) {
    const size_t segments = workload.republish() ? 1 : kSwapBursts;
    std::vector<const PhaseResult*> parts;
    for (size_t i = 0; i < segments; ++i) {
      phases.push_back(RunPhase(
          "measure-" + std::to_string(i), options, bed, server, stream,
          reference, &cursor,
          options.seconds / static_cast<double>(segments), nullptr));
      end_segment();
    }
    for (size_t i = phases.size() - segments; i < phases.size(); ++i) {
      parts.push_back(&phases[i]);
    }
    measured = Merge("measure", parts);
  } else {
    // Untraced and traced segments alternate, so drift over the run hits
    // both; their p50 difference is the tracing overhead.
    before = ReadServe(server, registry);
    const double segment = options.seconds / 4.0;
    for (int i = 0; i < 4; ++i) {
      const bool traced_segment = i % 2 == 1;
      const ServeReadings segment_before = ReadServe(server, registry);
      phases.push_back(RunPhase(
          (traced_segment ? "traced-" : "untraced-") + std::to_string(i / 2),
          options, bed, server, stream, reference, &cursor, segment,
          traced_segment ? spans : nullptr));
      if (traced_segment) {
        traced_server.Add(segment_before, ReadServe(server, registry));
      }
      end_segment();
    }
    after = ReadServe(server, registry);
    const size_t n = phases.size();
    untraced = Merge("untraced", {&phases[n - 4], &phases[n - 2]});
    traced = Merge("traced", {&phases[n - 3], &phases[n - 1]});
    measured = Merge("measure", {&phases[n - 4], &phases[n - 3],
                                 &phases[n - 2], &phases[n - 1]});
  }

  std::vector<double> swap_ms = measured.swap_ms;
  if (!workload.republish()) {
    swap_ms = swaps.swap_ms;
    phases.push_back(std::move(swaps));
  }
  bool generation_ok = true;
  for (const PhaseResult& p : phases) generation_ok &= p.generation_ok;
  // Set-up is timed again after serving, so it samples more than the
  // run's first seconds.
  const std::string late_path = bed.snapshot_path + ".late";
  wqe::Status late_status = wqe::Status::OK();
  for (size_t round = 0; round < kLateSetupReps && late_status.ok(); ++round) {
    Bed late;
    late_status = BuildBed(options, late_path, 1, &late, &setup_s, spans);
    std::remove(late_path.c_str());
  }
  if (!late_status.ok()) failure = "late set-up: " + late_status.ToString();
  if (!generation_ok) {
    failure = "snapshot_generation() did not rise by one per publish";
  }
  if (swap_ms.empty() && failure.empty()) failure = "no snapshot swap ran";

  std::vector<Metric> metrics;
  if (!options.trace) {
    // Medians over the measured windows: a few seconds of interference
    // from outside the process move one window, not the metric.
    std::vector<double> qps, p50, p99;
    for (const Window& w : measured.windows) {
      qps.push_back(w.Rate());
      p50.push_back(Percentile(w.latencies_ms, 0.5));
      p99.push_back(Percentile(w.latencies_ms, 0.99));
    }
    const size_t n = measured.succeeded;
    metrics.push_back({"setup_s", Median(setup_s), "s", setup_s.size()});
    metrics.push_back({"qps", Median(qps), "1/s", n});
    metrics.push_back({"latency_p50_ms", Median(p50), "ms", n});
    metrics.push_back({"latency_p99_ms", Median(p99), "ms", n});
    metrics.push_back({"peak_rss_mb", peak_rss_mb, "MiB", 1});
    metrics.push_back({"swap_p50_ms", Median(swap_ms), "ms", swap_ms.size()});
    for (size_t i = 0; i < measured.windows.size(); ++i) {
      std::printf("window %zu: qps %.1f p50 %.4f ms p99 %.4f ms\n", i, qps[i],
                  p50[i], p99[i]);
    }
  } else if (failure.empty()) {
    Computations computations;
    for (const PhaseResult& p : phases) {
      MergeComputations(p.computations, &computations);
    }
    std::string error;
    if (!AttributeLayers(bed, workload, reference, computations, traced,
                         untraced, measured, before, after, traced_server,
                         spans, &metrics, &error)) {
      failure = "attribution: " + error;
    }
    AppendSetupAndSwapMetrics(*spans, &metrics);
    metrics.push_back({"snapshot.bytes", static_cast<double>(bed.snapshot_bytes),
                       "bytes", 1});
  }

  size_t attempted = 0;
  size_t failed = 0;
  for (const PhaseResult& p : phases) {
    PrintPhase(p);
    attempted += p.attempted;
    failed += p.failed;
    // Every phase ends with all its requests answered, so the client's
    // and the server's books must agree exactly.
    if (p.server.requests != p.attempted ||
        p.server.requests_failed != p.failed - p.mismatched) {
      failure = "phase " + p.name + ": client and server counts disagree";
    }
  }
  std::printf("error_rate %.6g (failed %zu of %zu attempted, all phases)\n",
              attempted ? static_cast<double>(failed) / attempted : 0.0,
              failed, attempted);
  for (const Metric& m : metrics) {
    std::printf("metric %-32s %.6f %s (n=%zu)\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  const std::string spans_path =
      options.work_dir + "/spans-" + workload.name + ".jsonl";
  if (spans != nullptr && !spans->WriteJsonl(spans_path)) {
    failure = "cannot write " + spans_path;
  }
  std::remove(bed.snapshot_path.c_str());

  const bool correct = failed == 0 && failure.empty();
  if (!failure.empty()) std::fprintf(stderr, "perfbench: %s\n", failure.c_str());
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options;
  if (!perfbench::ParseArgs(argc, argv, &options)) {
    perfbench::Usage();
    return 2;
  }
  return perfbench::Run(options);
}
