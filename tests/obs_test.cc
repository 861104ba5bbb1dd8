/// \file obs_test.cc
/// \brief Tests for the observability subsystem: counter/gauge semantics,
/// log-linear histogram percentile accuracy against the exact
/// `wqe::PercentileSorted`, snapshot deltas, the registry's get-or-create
/// and exporter contracts, span parent/stage propagation across a
/// `common::ThreadPool` task, the trace-log ring, concurrent multi-writer
/// totals, and the runtime kill switch.  Runs under TSan in CI alongside
/// the serve suites (see ci.sh).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/deadline.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace wqe::obs {
namespace {

// ------------------------------------------------------ Counter / Gauge

TEST(CounterTest, MonotonicIncrements) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  counter.Inc();
  counter.Inc(41);
  EXPECT_EQ(counter.value(), 42u);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge gauge;
  EXPECT_EQ(gauge.value(), 0.0);
  gauge.Set(2.5);
  EXPECT_EQ(gauge.value(), 2.5);
  gauge.Add(-1.25);
  EXPECT_EQ(gauge.value(), 1.25);
  gauge.Set(-7.0);
  EXPECT_EQ(gauge.value(), -7.0);
}

// ------------------------------------------------------------ Histogram

/// Records `values` and asserts the histogram percentile lands within one
/// bucket width of the exact R-7 percentile (the interpolation can put
/// the exact value and the estimate in adjacent buckets, hence the max
/// of both widths).
void CheckPercentiles(std::vector<double> values) {
  Histogram histogram;
  for (double v : values) histogram.Record(v);
  std::sort(values.begin(), values.end());
  HistogramSnapshot snap = histogram.snapshot();
  ASSERT_EQ(snap.count, values.size());
  for (double p : {0.5, 0.95, 0.99}) {
    const double exact = PercentileSorted(values, p);
    const double estimate = snap.Percentile(p);
    const double tolerance = std::max(histogram.BucketWidthFor(exact),
                                      histogram.BucketWidthFor(estimate)) +
                             1e-9;
    EXPECT_NEAR(estimate, exact, tolerance)
        << "p=" << p << " n=" << values.size();
  }
}

TEST(HistogramTest, PercentilesMatchExactUniform) {
  if (!kCompiledIn) GTEST_SKIP() << "observability compiled out";
  Rng rng(42);
  std::vector<double> values;
  values.reserve(20000);
  for (int i = 0; i < 20000; ++i) {
    values.push_back(0.5 + rng.NextDouble() * 49.5);  // [0.5, 50) ms
  }
  CheckPercentiles(std::move(values));
}

TEST(HistogramTest, PercentilesMatchExactLognormal) {
  if (!kCompiledIn) GTEST_SKIP() << "observability compiled out";
  Rng rng(7);
  std::vector<double> values;
  values.reserve(20000);
  for (int i = 0; i < 20000; ++i) {
    // Heavy-tailed latencies: exp(N(1.0, 0.8)) ms, the shape serving
    // latency distributions actually have.
    values.push_back(std::exp(rng.Gaussian(1.0, 0.8)));
  }
  CheckPercentiles(std::move(values));
}

TEST(HistogramTest, MeanMatchesSum) {
  if (!kCompiledIn) GTEST_SKIP() << "observability compiled out";
  Histogram histogram;
  histogram.Record(1.0);
  histogram.Record(2.0);
  histogram.Record(6.0);
  HistogramSnapshot snap = histogram.snapshot();
  EXPECT_EQ(snap.count, 3u);
  EXPECT_NEAR(snap.sum, 9.0, 1e-12);
  EXPECT_NEAR(snap.Mean(), 3.0, 1e-12);
}

TEST(HistogramTest, UnderflowAndOverflowBuckets) {
  if (!kCompiledIn) GTEST_SKIP() << "observability compiled out";
  Histogram histogram;  // default layout: [1e-3, 1e-3 * 2^40)
  histogram.Record(0.0);
  histogram.Record(-5.0);   // clamps into underflow, never out of range
  histogram.Record(1e300);  // overflow
  HistogramSnapshot snap = histogram.snapshot();
  EXPECT_EQ(snap.count, 3u);
  // Median sits in the underflow bucket: somewhere in [0, min_value].
  const double p50 = snap.Percentile(0.5);
  EXPECT_GE(p50, 0.0);
  EXPECT_LE(p50, histogram.options().min_value);
  // The tail clamps to the instrumented range's top edge (with n=3 the
  // max — rank 2 — is the first rank that reaches the overflow bucket).
  const double top = std::ldexp(histogram.options().min_value,
                                int(histogram.options().num_octaves));
  EXPECT_EQ(snap.Percentile(1.0), top);
}

TEST(HistogramTest, DeltaSinceIsolatesOnePass) {
  if (!kCompiledIn) GTEST_SKIP() << "observability compiled out";
  Histogram histogram;
  for (int i = 0; i < 100; ++i) histogram.Record(1.0);
  HistogramSnapshot cold = histogram.snapshot();
  for (int i = 0; i < 100; ++i) histogram.Record(16.0);
  HistogramSnapshot warm = histogram.snapshot().DeltaSince(cold);
  EXPECT_EQ(warm.count, 100u);
  EXPECT_NEAR(warm.sum, 1600.0, 1e-9);
  // Only the second pass's values remain after the subtraction.
  EXPECT_NEAR(warm.Percentile(0.5), 16.0,
              histogram.BucketWidthFor(16.0) + 1e-9);
}

TEST(HistogramTest, ConcurrentWritersLoseNothing) {
  if (!kCompiledIn) GTEST_SKIP() << "observability compiled out";
  Histogram histogram;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&histogram, t] {
      for (int i = 0; i < kPerThread; ++i) {
        histogram.Record(0.05 + 0.1 * double((i + t) % 100));
      }
    });
  }
  for (std::thread& w : writers) w.join();
  HistogramSnapshot snap = histogram.snapshot();
  EXPECT_EQ(snap.count, uint64_t(kThreads) * kPerThread);
  // Every thread records the same multiset: 200 copies of each value.
  double expected_sum = 0.0;
  for (int v = 0; v < 100; ++v) {
    expected_sum += (0.05 + 0.1 * v) * kThreads * (kPerThread / 100);
  }
  EXPECT_NEAR(snap.sum, expected_sum, 1e-3);
}

// ------------------------------------------------------------- Registry

TEST(RegistryTest, GetOrCreateIsStableAndLabelOrderInsensitive) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("wqe.test.x", {{"b", "2"}, {"a", "1"}});
  Counter* b = registry.GetCounter("wqe.test.x", {{"a", "1"}, {"b", "2"}});
  EXPECT_EQ(a, b);  // sorted labels: one series, stable pointer
  Counter* other = registry.GetCounter("wqe.test.x", {{"a", "1"}});
  EXPECT_NE(a, other);
  EXPECT_EQ(registry.num_instruments(), 2u);
}

TEST(RegistryTest, DumpJsonIsStableSchema) {
  MetricsRegistry registry;
  registry.GetCounter("wqe.test.requests", {{"server", "1"}})->Inc(3);
  registry.GetGauge("wqe.test.depth")->Set(2.5);
  // Map order: plain names sort before labeled ones here.
  EXPECT_EQ(registry.DumpJson(),
            "{\"metrics\":["
            "{\"name\":\"wqe.test.depth\",\"type\":\"gauge\",\"value\":2.5},"
            "{\"name\":\"wqe.test.requests\",\"labels\":{\"server\":\"1\"},"
            "\"type\":\"counter\",\"value\":3}"
            "]}");
}

TEST(RegistryTest, DumpJsonHistogramCarriesQuantiles) {
  if (!kCompiledIn) GTEST_SKIP() << "observability compiled out";
  MetricsRegistry registry;
  Histogram* histogram = registry.GetHistogram("wqe.test.latency_ms");
  histogram->Record(1.0);
  histogram->Record(2.0);
  const std::string json = registry.DumpJson();
  EXPECT_NE(json.find("\"type\":\"histogram\",\"count\":2,\"sum\":3,\"p50\":"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"p99\":"), std::string::npos) << json;
}

TEST(RegistryTest, DumpPrometheusFormats) {
  if (!kCompiledIn) GTEST_SKIP() << "observability compiled out";
  MetricsRegistry registry;
  registry.GetCounter("wqe.test.requests", {{"server", "1"}})->Inc(3);
  registry.GetHistogram("wqe.test.latency_ms")->Record(1.0);
  const std::string prom = registry.DumpPrometheus();
  EXPECT_NE(prom.find("# TYPE wqe_test_requests counter\n"
                      "wqe_test_requests{server=\"1\"} 3\n"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("# TYPE wqe_test_latency_ms summary\n"),
            std::string::npos);
  EXPECT_NE(prom.find("wqe_test_latency_ms{quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("wqe_test_latency_ms_count 1\n"), std::string::npos);
}

// ---------------------------------------------------------------- Spans

/// Pins the trace head-sampling rate for one test (the default samples
/// every 8th trace, so record-level assertions need every=1).
class ScopedSampleEvery {
 public:
  explicit ScopedSampleEvery(uint32_t n) : prev_(GetTraceSampleEvery()) {
    SetTraceSampleEvery(n);
  }
  ~ScopedSampleEvery() { SetTraceSampleEvery(prev_); }

 private:
  uint32_t prev_;
};

TEST(TraceTest, TraceLogRingOverwritesOldest) {
  TraceLog log(4);
  for (uint64_t i = 1; i <= 6; ++i) {
    SpanRecord record;
    record.span_id = i;
    log.Append(record);
  }
  std::vector<SpanRecord> records = log.Snapshot();
  ASSERT_EQ(records.size(), 4u);
  for (uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(records[i].span_id, i + 3);  // oldest-first: 3, 4, 5, 6
  }
  log.Clear();
  EXPECT_TRUE(log.Snapshot().empty());
}

TEST(TraceTest, NestedSpansShareTraceAndChainParents) {
  if (!kCompiledIn) GTEST_SKIP() << "observability compiled out";
  ScopedSampleEvery sample_all(1);
  MetricsRegistry registry;
  {
    Span root("request", nullptr, &registry);
    EXPECT_TRUE(root.context().active());
    EXPECT_EQ(common::CurrentRequestContext().trace.span_id,
              root.context().span_id);
    {
      Span stage("expansion", nullptr, &registry);
      EXPECT_EQ(stage.context().trace_id, root.context().trace_id);
    }
    // Closing the child restores the parent as the ambient context.
    EXPECT_EQ(common::CurrentRequestContext().trace.span_id,
              root.context().span_id);
  }
  EXPECT_FALSE(common::CurrentRequestContext().trace.active());
  std::vector<SpanRecord> records = registry.trace_log().Snapshot();
  ASSERT_EQ(records.size(), 2u);  // children close (and land) first
  EXPECT_EQ(records[0].stage, "expansion");
  EXPECT_EQ(records[1].stage, "request");
  EXPECT_EQ(records[1].parent_span_id, 0u);  // trace root
  EXPECT_EQ(records[0].trace_id, records[1].trace_id);
  EXPECT_EQ(records[0].parent_span_id, records[1].span_id);
  EXPECT_GE(records[1].duration_ms, records[0].duration_ms);
}

TEST(TraceTest, ContextPropagatesAcrossPoolTask) {
  if (!kCompiledIn) GTEST_SKIP() << "observability compiled out";
  SetEnabled(true);
  ScopedSampleEvery sample_all(1);
  MetricsRegistry registry;
  uint64_t root_trace = 0;
  uint64_t root_span = 0;
  {
    Span root("request", nullptr, &registry);
    root_trace = root.context().trace_id;
    root_span = root.context().span_id;
    common::ThreadPool pool(1);
    pool.Submit([&registry] {
          Span stage("expansion", nullptr, &registry);
        })
        .get();
    pool.Shutdown();
  }
  std::vector<SpanRecord> records = registry.trace_log().Snapshot();
  ASSERT_EQ(records.size(), 2u);
  // The worker-side span joined the submitter's trace, parented directly
  // under the root even though it ran on another thread.
  EXPECT_EQ(records[0].stage, "expansion");
  EXPECT_EQ(records[0].trace_id, root_trace);
  EXPECT_EQ(records[0].parent_span_id, root_span);
  // The pool itself records nothing: `serve::Server` records the
  // `queue-wait` span (serve_test.cc checks it).
}

TEST(TraceTest, SpanMovesOnlyTheTracePosition) {
  if (!kCompiledIn) GTEST_SKIP() << "observability compiled out";
  SetEnabled(true);
  MetricsRegistry registry;
  common::CancelSource source;
  common::RequestContext budget;
  budget.deadline = common::Deadline::AfterMillis(60'000.0);
  budget.cancel = source.token();
  common::ScopedRequestContext scope(budget);
  {
    Span span("request", nullptr, &registry);
    const common::RequestContext& inside = common::CurrentRequestContext();
    EXPECT_EQ(inside.trace.span_id, span.context().span_id);
    EXPECT_TRUE(inside.has_budget());
    source.RequestCancel();
    EXPECT_TRUE(common::ExecStatus().IsCancelled());
  }
  // Closing the span restored the trace position and kept the budget.
  EXPECT_FALSE(common::CurrentRequestContext().trace.active());
  EXPECT_TRUE(common::CurrentRequestContext().has_budget());
  EXPECT_TRUE(common::ExecStatus().IsCancelled());
}

TEST(TraceTest, HeadSamplingKeepsWholeTracesTogether) {
  if (!kCompiledIn) GTEST_SKIP() << "observability compiled out";
  ScopedSampleEvery sample_half(2);
  MetricsRegistry registry;
  for (int i = 0; i < 8; ++i) {
    Span root("request", nullptr, &registry);
    Span child("expansion", nullptr, &registry);
    // The child inherits the root's decision, whatever it was.
    EXPECT_EQ(child.context().sampled, root.context().sampled);
  }
  // Every sampled trace contributed both spans, none contributed one:
  // the log holds complete trees only.  (The exact count depends on how
  // many roots the shared counter assigned to this test, so count pairs
  // rather than pinning a total.)
  std::map<uint64_t, int> spans_per_trace;
  for (const SpanRecord& record : registry.trace_log().Snapshot()) {
    ++spans_per_trace[record.trace_id];
  }
  EXPECT_FALSE(spans_per_trace.empty());  // every=2 over 8 roots samples some
  for (const auto& [trace_id, count] : spans_per_trace) {
    EXPECT_EQ(count, 2) << "trace " << trace_id << " recorded partially";
  }
}

// ---------------------------------------------------------- Kill switch

TEST(KillSwitchTest, RuntimeDisableStopsHistogramsAndSpans) {
  if (!kCompiledIn) GTEST_SKIP() << "observability compiled out";
  MetricsRegistry registry;
  Histogram* histogram = registry.GetHistogram("wqe.test.off_ms");
  Counter* counter = registry.GetCounter("wqe.test.off_count");
  SetEnabled(false);
  histogram->Record(1.0);
  counter->Inc();
  {
    Span span("request", histogram, &registry);
    EXPECT_FALSE(span.context().active());  // inert: no trace started
    EXPECT_FALSE(common::CurrentRequestContext().trace.active());
  }
  SetEnabled(true);
  EXPECT_EQ(histogram->count(), 0u);  // histograms and spans went dark...
  EXPECT_TRUE(registry.trace_log().Snapshot().empty());
  EXPECT_EQ(counter->value(), 1u);  // ...counters stayed live
  histogram->Record(1.0);
  EXPECT_EQ(histogram->count(), 1u);  // and recording resumes
}

}  // namespace
}  // namespace wqe::obs
