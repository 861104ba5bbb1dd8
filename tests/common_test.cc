/// \file common_test.cc
/// \brief Unit tests for the common substrate: Status/Result, RNG,
/// string utilities, statistics, table printing, annotated mutexes,
/// deadlines/cancellation, the request context, the thread pool and its
/// fan-out helpers, and the deterministic fault injector.  Runs under
/// TSan in CI (see ci.sh): the pool and context tests cross threads.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/deadline.h"
#include "common/fault_injection.h"
#include "common/macros.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"

namespace wqe {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorFactoriesSetCodeAndMessage) {
  Status st = Status::InvalidArgument("bad value: ", 42);
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsInvalidArgument());
  EXPECT_EQ(st.message(), "bad value: 42");
  EXPECT_EQ(st.ToString(), "Invalid argument: bad value: 42");
}

TEST(StatusTest, AllCodesRoundTripThroughToString) {
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::ParseError("x").IsParseError());
  EXPECT_TRUE(Status::CapacityError("x").IsCapacityError());
  EXPECT_TRUE(Status::NotImplemented("x").IsNotImplemented());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
  EXPECT_TRUE(Status::DeadlineExceeded("x").IsDeadlineExceeded());
  EXPECT_TRUE(Status::Cancelled("x").IsCancelled());
  EXPECT_TRUE(Status::ResourceExhausted("x").IsResourceExhausted());
}

TEST(StatusTest, LifecycleCodesToString) {
  EXPECT_EQ(Status::DeadlineExceeded("late").ToString(),
            "Deadline exceeded: late");
  EXPECT_EQ(Status::Cancelled("stop").ToString(), "Cancelled: stop");
  EXPECT_EQ(Status::ResourceExhausted("full").ToString(),
            "Resource exhausted: full");
}

TEST(StatusTest, WithContextAppendsDetail) {
  Status st = Status::NotFound("article");
  Status ctx = st.WithContext("while linking");
  EXPECT_TRUE(ctx.IsNotFound());
  EXPECT_EQ(ctx.message(), "article; while linking");
  EXPECT_TRUE(Status::OK().WithContext("ignored").ok());
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::OK(), Status::OK());
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_NE(Status::NotFound("x"), Status::NotFound("y"));
  EXPECT_NE(Status::NotFound("x"), Status::Internal("x"));
}

// ---------------------------------------------------------------- Result

TEST(ResultTest, HoldsValue) {
  Result<int> r = 7;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 7);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("gone");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.ValueOr(-1), -1);
}

TEST(ResultTest, MoveOnlyValueWorks) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(5);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).ValueOrDie();
  EXPECT_EQ(*v, 5);
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  WQE_ASSIGN_OR_RETURN(int h, Half(x));
  WQE_ASSIGN_OR_RETURN(int q, Half(h));
  return q;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Quarter(8), 2);
  EXPECT_TRUE(Quarter(6).status().IsInvalidArgument());
  EXPECT_TRUE(Quarter(7).status().IsInvalidArgument());
}

// ------------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU32() == b.NextU32()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(RngTest, UniformStaysInBounds) {
  Rng rng(7);
  for (uint32_t bound : {1u, 2u, 3u, 10u, 1000u}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.Uniform(bound), bound);
    }
  }
}

TEST(RngTest, UniformRangeInclusive) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 500; ++i) {
    int64_t v = rng.UniformRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 1000.0, 0.5, 0.05);
}

TEST(RngTest, ZipfFavorsSmallRanks) {
  Rng rng(11);
  size_t first_two = 0;
  const int kDraws = 2000;
  for (int i = 0; i < kDraws; ++i) {
    uint32_t v = rng.Zipf(100, 1.2);
    EXPECT_LT(v, 100u);
    if (v < 2) ++first_two;
  }
  // Ranks 0 and 1 should receive far more than the uniform share (2%).
  EXPECT_GT(first_two, kDraws / 10);
}

TEST(RngTest, ZipfMatchesRankFrequencyLaw) {
  // Chi-square goodness of fit of the rejection-inversion sampler against
  // the exact law p(k) ∝ 1/k^s, across exponents including the s = 1
  // logarithmic branch.  (The seed sampler inverted its acceptance test
  // and put ~99% of the mass on rank 0 at s = 1; under this test its
  // chi-square statistic is in the millions.)
  const int kDraws = 60000;
  for (double s : {0.7, 1.0, 1.3}) {
    for (uint32_t n : {5u, 40u}) {
      Rng rng(1000 + static_cast<uint64_t>(s * 10) + n);
      std::vector<uint32_t> counts(n, 0);
      for (int i = 0; i < kDraws; ++i) {
        uint32_t v = rng.Zipf(n, s);
        ASSERT_LT(v, n);
        ++counts[v];
      }
      double hz = 0.0;
      for (uint32_t k = 1; k <= n; ++k) hz += std::pow(k, -s);
      double chi2 = 0.0;
      for (uint32_t k = 1; k <= n; ++k) {
        double expected = kDraws * std::pow(k, -s) / hz;
        double diff = static_cast<double>(counts[k - 1]) - expected;
        chi2 += diff * diff / expected;
      }
      // 99.9th percentile of chi-square with df = n-1 is ~18.5 (df 4) and
      // ~69.3 (df 39); 100 leaves slack without hiding an inverted law.
      EXPECT_LT(chi2, 100.0) << "s=" << s << " n=" << n;
      // Monotone non-increasing head: rank 0 must dominate rank 2.
      EXPECT_GT(counts[0], counts[2]);
    }
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(13);
  double sum = 0, sq = 0;
  const int kDraws = 5000;
  for (int i = 0; i < kDraws; ++i) {
    double g = rng.Gaussian(10.0, 2.0);
    sum += g;
    sq += g * g;
  }
  double mean = sum / kDraws;
  double var = sq / kDraws - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.2);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.2);
}

TEST(RngTest, SampleWithoutReplacementIsDistinctAndInRange) {
  Rng rng(17);
  std::vector<uint32_t> sample = rng.SampleWithoutReplacement(50, 20);
  std::set<uint32_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 20u);
  for (uint32_t v : sample) EXPECT_LT(v, 50u);
  EXPECT_TRUE(rng.SampleWithoutReplacement(5, 0).empty());
  EXPECT_EQ(rng.SampleWithoutReplacement(5, 5).size(), 5u);
}

TEST(RngTest, WeightedChoiceRespectsWeights) {
  Rng rng(19);
  std::vector<double> weights = {0.0, 9.0, 1.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 2000; ++i) {
    ++counts[rng.WeightedChoice(weights)];
  }
  EXPECT_EQ(counts[0], 0);
  EXPECT_GT(counts[1], counts[2] * 4);
}

TEST(RngTest, ForkProducesIndependentStreams) {
  Rng parent(23);
  Rng child1 = parent.Fork(1);
  Rng parent2(23);
  Rng child2 = parent2.Fork(1);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(child1.NextU64(), child2.NextU64());
  }
}

// ----------------------------------------------------------- string_util

TEST(StringUtilTest, ToLowerUpper) {
  EXPECT_EQ(ToLower("Hello World 42"), "hello world 42");
  EXPECT_EQ(ToUpper("hello"), "HELLO");
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  x  "), "x");
  EXPECT_EQ(Trim("\t\nab\r "), "ab");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  auto parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtilTest, SplitWhitespaceDropsEmpty) {
  auto parts = SplitWhitespace("  a \t b\n\nc ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
  EXPECT_TRUE(SplitWhitespace("   ").empty());
}

TEST(StringUtilTest, JoinAndReplace) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(ReplaceAll("aXbXc", "X", "--"), "a--b--c");
  EXPECT_EQ(ReplaceAll("aaa", "aa", "b"), "ba");
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("category:foo", "category:"));
  EXPECT_FALSE(StartsWith("cat", "category:"));
  EXPECT_TRUE(EndsWith("image.jpg", ".jpg"));
  EXPECT_FALSE(EndsWith("jpg", "image.jpg"));
}

TEST(StringUtilTest, EqualsIgnoreCase) {
  EXPECT_TRUE(EqualsIgnoreCase("Category:", "category:"));
  EXPECT_FALSE(EqualsIgnoreCase("a", "ab"));
}

TEST(StringUtilTest, Fnv1a64IsStable) {
  EXPECT_EQ(Fnv1a64("hello"), Fnv1a64("hello"));
  EXPECT_NE(Fnv1a64("hello"), Fnv1a64("hellp"));
  // Known FNV-1a vector.
  EXPECT_EQ(Fnv1a64(""), 14695981039346656037ULL);
}

TEST(StringUtilTest, NormalizeTitle) {
  EXPECT_EQ(NormalizeTitle("  Grand   Canal "), "grand canal");
  EXPECT_EQ(NormalizeTitle("Bridge_of_Sighs"), "bridge of sighs");
  EXPECT_EQ(NormalizeTitle("VENICE"), "venice");
  EXPECT_EQ(NormalizeTitle(""), "");
  EXPECT_EQ(NormalizeTitle("___"), "");
}

TEST(StringUtilTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(0.5, 3), "0.500");
  EXPECT_EQ(FormatDouble(1.23456, 2), "1.23");
}

// ----------------------------------------------------------------- stats

TEST(StatsTest, SummarizeKnownQuartiles) {
  // R-7 quartiles of 1..5 are exactly 2, 3, 4.
  FiveNumberSummary s = Summarize({5, 1, 4, 2, 3});
  EXPECT_DOUBLE_EQ(s.min, 1);
  EXPECT_DOUBLE_EQ(s.q1, 2);
  EXPECT_DOUBLE_EQ(s.median, 3);
  EXPECT_DOUBLE_EQ(s.q3, 4);
  EXPECT_DOUBLE_EQ(s.max, 5);
  EXPECT_EQ(s.n, 5u);
}

TEST(StatsTest, SummarizeEmptyAndSingle) {
  FiveNumberSummary empty = Summarize({});
  EXPECT_EQ(empty.n, 0u);
  FiveNumberSummary one = Summarize({3.5});
  EXPECT_DOUBLE_EQ(one.median, 3.5);
  EXPECT_DOUBLE_EQ(one.min, 3.5);
  EXPECT_DOUBLE_EQ(one.max, 3.5);
}

TEST(StatsTest, PercentileInterpolates) {
  std::vector<double> sorted = {0, 10};
  EXPECT_DOUBLE_EQ(PercentileSorted(sorted, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(PercentileSorted(sorted, 0.25), 2.5);
}

TEST(StatsTest, MeanAndStdDev) {
  EXPECT_DOUBLE_EQ(Mean({1, 2, 3, 4}), 2.5);
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_NEAR(StdDev({2, 4, 4, 4, 5, 5, 7, 9}), 2.138, 0.001);
  EXPECT_DOUBLE_EQ(StdDev({1}), 0.0);
}

TEST(StatsTest, PearsonCorrelation) {
  EXPECT_NEAR(PearsonCorrelation({1, 2, 3}, {2, 4, 6}), 1.0, 1e-12);
  EXPECT_NEAR(PearsonCorrelation({1, 2, 3}, {6, 4, 2}), -1.0, 1e-12);
  EXPECT_DOUBLE_EQ(PearsonCorrelation({1, 1, 1}, {1, 2, 3}), 0.0);
}

TEST(StatsTest, FitLineRecoversSlope) {
  LinearFit fit = FitLine({0, 1, 2, 3}, {1, 3, 5, 7});
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

TEST(StatsTest, FitLineDegenerateX) {
  LinearFit fit = FitLine({2, 2, 2}, {1, 2, 3});
  EXPECT_DOUBLE_EQ(fit.slope, 0.0);
  EXPECT_DOUBLE_EQ(fit.intercept, 2.0);
}

// ---------------------------------------------------------- TablePrinter

TEST(TablePrinterTest, RendersAlignedTable) {
  TablePrinter t("demo");
  t.SetHeader({"name", "value"});
  t.AddRow({"alpha", "1"});
  t.AddRow({"b", "22"});
  std::string rendered = t.Render();
  EXPECT_NE(rendered.find("== demo =="), std::string::npos);
  EXPECT_NE(rendered.find("alpha"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TablePrinterTest, CsvEscapesSpecials) {
  TablePrinter t("csv");
  t.SetHeader({"a", "b"});
  t.AddRow({"x,y", "he said \"hi\""});
  std::string csv = t.RenderCsv();
  EXPECT_NE(csv.find("\"x,y\""), std::string::npos);
  EXPECT_NE(csv.find("\"he said \"\"hi\"\"\""), std::string::npos);
}

TEST(TablePrinterTest, DoubleRowFormatting) {
  TablePrinter t("doubles");
  t.SetHeader({"label", "v1", "v2"});
  t.AddRow("row", {0.12345, 2.0}, 2);
  EXPECT_NE(t.Render().find("0.12"), std::string::npos);
  EXPECT_NE(t.Render().find("2.00"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Annotated mutex primitives (common/mutex.h)
// ---------------------------------------------------------------------------

using common::CondVar;
using common::Mutex;
using common::MutexLock;

TEST(MutexTest, MutualExclusionAcrossThreads) {
  Mutex mu;
  int counter = 0;  // guarded by mu (annotation elided: local variable)
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        MutexLock lock(mu);
        ++counter;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter, kThreads * kIters);
}

TEST(MutexTest, TryLockReportsContention) {
  Mutex mu;
  // try_lock on a mutex the calling thread already holds is UB, so probe
  // from a second thread.
  auto probe = [&mu] {
    bool acquired = false;
    std::thread t([&] {
      acquired = mu.TryLock();
      if (acquired) mu.Unlock();
    });
    t.join();
    return acquired;
  };
  mu.Lock();
  EXPECT_FALSE(probe());
  mu.Unlock();
  EXPECT_TRUE(probe());
}

TEST(CondVarTest, WaitWakesOnNotify) {
  Mutex mu;
  CondVar cv;
  bool ready = false;
  int observed = -1;
  std::thread consumer([&] {
    MutexLock lock(mu);
    // Open-coded wait loop: the annotated CondVar deliberately has no
    // predicate overload (see common/mutex.h).
    while (!ready) cv.Wait(mu);
    observed = 42;
  });
  {
    MutexLock lock(mu);
    ready = true;
  }
  cv.NotifyOne();
  consumer.join();
  EXPECT_EQ(observed, 42);
}

TEST(CondVarTest, NotifyAllReleasesEveryWaiter) {
  Mutex mu;
  CondVar cv;
  bool go = false;
  int woken = 0;
  constexpr int kWaiters = 4;
  std::vector<std::thread> threads;
  threads.reserve(kWaiters);
  for (int t = 0; t < kWaiters; ++t) {
    threads.emplace_back([&] {
      MutexLock lock(mu);
      while (!go) cv.Wait(mu);
      ++woken;
    });
  }
  {
    MutexLock lock(mu);
    go = true;
  }
  cv.NotifyAll();
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(woken, kWaiters);
}

// ---------------------------------------------- Deadline / cancellation

TEST(DeadlineTest, DefaultIsInfinite) {
  common::Deadline d;
  EXPECT_TRUE(d.is_infinite());
  EXPECT_FALSE(d.expired());
  EXPECT_TRUE(std::isinf(d.remaining_ms()));
}

TEST(DeadlineTest, NonPositiveBudgetIsAlreadyExpired) {
  EXPECT_TRUE(common::Deadline::AfterMillis(0.0).expired());
  EXPECT_TRUE(common::Deadline::AfterMillis(-5.0).expired());
}

TEST(DeadlineTest, GenerousBudgetIsNotExpired) {
  common::Deadline d = common::Deadline::AfterMillis(60'000.0);
  EXPECT_FALSE(d.is_infinite());
  EXPECT_FALSE(d.expired());
  EXPECT_GT(d.remaining_ms(), 0.0);
}

TEST(DeadlineTest, TightenPicksTheEarlier) {
  common::Deadline infinite;
  common::Deadline soon = common::Deadline::AfterMillis(1.0);
  common::Deadline later = common::Deadline::AfterMillis(60'000.0);
  EXPECT_FALSE(common::Deadline::Tighten(infinite, soon).is_infinite());
  EXPECT_LT(common::Deadline::Tighten(soon, later).remaining_ms(), 1'000.0);
  EXPECT_TRUE(common::Deadline::Tighten(infinite, infinite).is_infinite());
}

TEST(CancelTokenTest, DefaultTokenNeverCancels) {
  common::CancelToken token;
  EXPECT_FALSE(token.valid());
  EXPECT_FALSE(token.cancelled());
}

TEST(CancelTokenTest, SourceCancelsItsTokens) {
  common::CancelSource source;
  common::CancelToken token = source.token();
  EXPECT_TRUE(token.valid());
  EXPECT_FALSE(token.cancelled());
  source.RequestCancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(source.cancel_requested());
  // Tokens taken after the cancel observe it too.
  EXPECT_TRUE(source.token().cancelled());
}

TEST(RequestContextTest, DefaultIsInactiveAndCheapChecksPass) {
  EXPECT_FALSE(common::CurrentRequestContext().has_budget());
  EXPECT_FALSE(common::ExecInterrupted());
  EXPECT_TRUE(common::ExecStatus().ok());
}

TEST(RequestContextTest, ScopedInstallAndRestore) {
  common::RequestContext ctx;
  ctx.deadline = common::Deadline::AfterMillis(60'000.0);
  {
    common::ScopedRequestContext scope(ctx);
    EXPECT_TRUE(common::CurrentRequestContext().has_budget());
    EXPECT_FALSE(common::ExecInterrupted());
  }
  EXPECT_FALSE(common::CurrentRequestContext().has_budget());
}

TEST(RequestContextTest, ExpiredDeadlineSurfacesAsDeadlineExceeded) {
  common::RequestContext ctx;
  ctx.deadline = common::Deadline::AfterMillis(0.0);
  common::ScopedRequestContext scope(ctx);
  EXPECT_TRUE(common::ExecInterrupted());
  EXPECT_TRUE(common::ExecStatus().IsDeadlineExceeded());
}

TEST(RequestContextTest, CancelSurfacesAsCancelledAndWinsOverDeadline) {
  common::CancelSource source;
  common::RequestContext ctx;
  ctx.deadline = common::Deadline::AfterMillis(0.0);
  ctx.cancel = source.token();
  common::ScopedRequestContext scope(ctx);
  EXPECT_TRUE(common::ExecStatus().IsDeadlineExceeded());  // not cancelled yet
  source.RequestCancel();
  EXPECT_TRUE(common::ExecInterrupted());
  EXPECT_TRUE(common::ExecStatus().IsCancelled());
}

TEST(RequestContextTest, MergePrefersTighterDeadlineAndRequestToken) {
  common::CancelSource ambient_source;
  common::CancelSource request_source;
  common::RequestContext ambient;
  ambient.deadline = common::Deadline::AfterMillis(0.0);  // tighter
  ambient.cancel = ambient_source.token();
  common::RequestContext request;
  request.deadline = common::Deadline::AfterMillis(60'000.0);
  request.cancel = request_source.token();
  common::RequestContext merged =
      common::RequestContext::Merge(ambient, request);
  EXPECT_TRUE(merged.deadline.expired());  // ambient's tighter deadline won
  request_source.RequestCancel();
  EXPECT_TRUE(merged.cancel.cancelled());  // request's token won
  // With no request token, the ambient token is inherited.
  common::RequestContext bare_request;
  common::RequestContext inherited =
      common::RequestContext::Merge(ambient, bare_request);
  ambient_source.RequestCancel();
  EXPECT_TRUE(inherited.cancel.cancelled());
}

TEST(RequestContextTest, PropagatesAcrossPoolSubmit) {
  common::RequestContext ctx;
  ctx.deadline = common::Deadline::AfterMillis(0.0);
  common::ScopedRequestContext scope(ctx);
  common::ThreadPool pool(1);
  // The worker thread has no context of its own; Submit must carry the
  // submitter's budget across the hop.
  EXPECT_TRUE(
      pool.Submit([] { return common::ExecStatus().IsDeadlineExceeded(); })
          .get());
}

TEST(RequestContextTest, OneCaptureCarriesTraceAndBudgetTogether) {
  common::CancelSource source;
  common::RequestContext ctx;
  ctx.trace.trace_id = 7;
  ctx.trace.span_id = 11;
  ctx.trace.sampled = true;
  ctx.cancel = source.token();
  common::ThreadPool pool(1);
  std::future<common::RequestContext> seen;
  {
    common::ScopedRequestContext scope(ctx);
    seen = pool.Submit([] { return common::CurrentRequestContext(); });
  }
  const common::RequestContext inside = seen.get();
  EXPECT_EQ(inside.trace.trace_id, 7u);
  EXPECT_EQ(inside.trace.span_id, 11u);
  EXPECT_TRUE(inside.trace.sampled);
  source.RequestCancel();
  EXPECT_TRUE(inside.cancel.cancelled());
  // The task's context was uninstalled when it finished: the worker is
  // back to no trace and no budget.
  const common::RequestContext after =
      pool.Submit([] { return common::CurrentRequestContext(); }).get();
  EXPECT_FALSE(after.trace.active());
  EXPECT_FALSE(after.has_budget());
}

TEST(RequestContextTest, ForRequestKeepsTheCallersTrace) {
  common::RequestContext ambient;
  ambient.trace.trace_id = 3;
  ambient.trace.span_id = 5;
  common::ScopedRequestContext scope(ambient);
  const common::RequestContext request =
      common::RequestContext::ForRequest(60'000.0, common::CancelToken());
  EXPECT_EQ(request.trace.trace_id, 3u);
  EXPECT_EQ(request.trace.span_id, 5u);
  EXPECT_FALSE(request.deadline.is_infinite());
}

// ------------------------------------------------------------ ThreadPool

TEST(ThreadPoolTest, ExecutesTasksAndReturnsFutures) {
  common::ThreadPool pool(3);
  EXPECT_EQ(pool.num_threads(), 3u);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(pool.Submit([i] { return i * i; }));
  }
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(futures[i].get(), i * i);
  }
  // The counter increments after the future is fulfilled, so only a full
  // drain makes it final — don't assert it right after get().
  pool.Shutdown();
  EXPECT_EQ(pool.tasks_executed(), 32u);
}

TEST(ThreadPoolTest, ManyConcurrentIncrements) {
  common::ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 500; ++i) {
    futures.push_back(pool.Submit([&counter] { ++counter; }));
  }
  for (auto& future : futures) future.get();
  EXPECT_EQ(counter.load(), 500);
}

TEST(ThreadPoolTest, ShutdownDrainsQueuedTasksAndIsIdempotent) {
  std::atomic<int> executed{0};
  {
    common::ThreadPool pool(1);
    for (int i = 0; i < 20; ++i) {
      // The single worker serializes these; most are still queued when
      // Shutdown begins and must run before it returns.
      pool.Submit([&executed] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        ++executed;
      });
    }
    pool.Shutdown();
    EXPECT_EQ(executed.load(), 20);
    pool.Shutdown();  // idempotent
  }  // destructor after explicit Shutdown is a no-op
  EXPECT_EQ(executed.load(), 20);
}

TEST(ThreadPoolTest, ZeroThreadsMeansHardwareConcurrency) {
  common::ThreadPool pool;
  EXPECT_GE(pool.num_threads(), 1u);
  EXPECT_EQ(pool.Submit([] { return 7; }).get(), 7);
}

#ifndef NDEBUG
// The annotated join contract (`Shutdown` is WQE_EXCLUDES and must be
// driven from outside the pool): a worker shutting down its own pool
// would join itself and hang forever, so Debug builds abort instead.
// Live only where WQE_DCHECK is compiled in — the CI tsan/asan lanes.
TEST(ThreadPoolDeathTest, ShutdownFromWorkerAssertsInDebug) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        common::ThreadPool pool(1);
        pool.Submit([&pool] { pool.Shutdown(); }).get();
      },
      "OnWorkerThread");
}

// Same contract one layer up: RunParallel blocks on futures of tasks it
// just queued, so calling it *from* a worker of the same pool deadlocks
// a bounded pool.  EffectiveParallelism degrades worker callers to
// sequential; bypassing it trips the debug check.
TEST(ThreadPoolDeathTest, RunParallelFromOwnWorkerAssertsInDebug) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        common::ThreadPool pool(1);
        pool.Submit([&pool] { common::RunParallel(&pool, 1, [] {}); }).get();
      },
      "OnWorkerThread");
}
#endif  // NDEBUG


// ---------------------------------------------------- Fault injection

TEST(FaultInjectorTest, DisabledInjectorIsTransparent) {
  common::FaultInjector& injector = common::FaultInjector::Global();
  injector.Disable();
  EXPECT_FALSE(injector.enabled());
  EXPECT_TRUE(injector.Evaluate("common_test.site").ok());
  auto probed = []() -> Status {
    WQE_FAULT_POINT("common_test.site");
    return Status::OK();
  };
  EXPECT_TRUE(probed().ok());
}

TEST(FaultInjectorTest, CertainFailureInjectsConfiguredCode) {
  common::FaultInjector& injector = common::FaultInjector::Global();
  common::FaultSpec spec;
  spec.fail_probability = 1.0;
  spec.fail_code = StatusCode::kIOError;
  injector.Configure(/*seed=*/7, {{"common_test.site", spec}});
  auto probed = []() -> Status {
    WQE_FAULT_POINT("common_test.site");
    return Status::OK();
  };
  Status st = probed();
  EXPECT_TRUE(st.IsIOError());
  EXPECT_NE(st.message().find("common_test.site"), std::string::npos);
  EXPECT_EQ(injector.injected_failures(), 1u);
  // Unlisted sites are unaffected even while enabled.
  EXPECT_TRUE(injector.Evaluate("common_test.other_site").ok());
  injector.Disable();
  EXPECT_TRUE(probed().ok());
}

TEST(FaultInjectorTest, SameSeedSameSchedule) {
  common::FaultInjector& injector = common::FaultInjector::Global();
  common::FaultSpec spec;
  spec.fail_probability = 0.4;
  auto draw_schedule = [&](uint64_t seed) {
    injector.Configure(seed, {{"common_test.sched", spec}});
    std::vector<bool> outcomes;
    outcomes.reserve(64);
    for (int i = 0; i < 64; ++i) {
      outcomes.push_back(injector.Evaluate("common_test.sched").ok());
    }
    return outcomes;
  };
  std::vector<bool> first = draw_schedule(123);
  std::vector<bool> second = draw_schedule(123);
  std::vector<bool> other = draw_schedule(321);
  injector.Disable();
  EXPECT_EQ(first, second);
  EXPECT_NE(first, other);  // overwhelmingly likely across 64 draws
  // A 0.4-probability site injects *some* failures and *some* passes.
  EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
  EXPECT_NE(std::count(first.begin(), first.end(), false), 0);
}

TEST(FaultInjectorTest, DelayOnlySiteSleepsWithoutFailing) {
  common::FaultInjector& injector = common::FaultInjector::Global();
  common::FaultSpec spec;
  spec.delay_probability = 1.0;
  spec.delay_ms = 5.0;
  injector.Configure(/*seed=*/1, {{"common_test.delay", spec}});
  const auto start = std::chrono::steady_clock::now();
  injector.MaybeDelay("common_test.delay");
  const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count();
  EXPECT_GE(injector.injected_delays(), 1u);
  EXPECT_GE(elapsed_ms, 4.0);  // sleep_for may round, allow slack down
  injector.Disable();
}

}  // namespace
}  // namespace wqe
