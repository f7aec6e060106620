#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

namespace mch::obs {
namespace {

/// Exact percentile of a sorted sample (linear interpolation between
/// order statistics) — the reference the log2-bucket histogram is checked
/// against.
double reference_percentile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

/// Instruments are process-lifetime, so every test uses its own names and
/// resets what it touched; reset_metrics() in TearDown keeps later tests
/// (and the artifact written under the `.trace` variant) from seeing stale
/// values — registrations survive, which is the documented contract.
class MetricsTest : public ::testing::Test {
 protected:
  void TearDown() override { reset_metrics(); }
};

TEST_F(MetricsTest, CounterAccumulatesAndResets) {
  Counter& c = counter("test.counter.basic");
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST_F(MetricsTest, LookupByNameIsStableAndIdentityPreserving) {
  Counter& a = counter("test.counter.identity");
  Counter& b = counter(std::string("test.counter.") + "identity");
  EXPECT_EQ(&a, &b);
  a.add(7);
  EXPECT_EQ(b.value(), 7u);
}

TEST_F(MetricsTest, LabeledFamilyBakesLabelIntoTheName) {
  Counter& labeled = counter("test.family", "rung", "psor");
  Counter& direct = counter("test.family{rung=psor}");
  EXPECT_EQ(&labeled, &direct);
  labeled.add(3);
  const std::string json = metrics_json();
  EXPECT_NE(json.find("test.family{rung=psor}"), std::string::npos);
}

TEST_F(MetricsTest, GaugeHoldsLatestValue) {
  Gauge& g = gauge("test.gauge.rss");
  g.set(123.5);
  EXPECT_DOUBLE_EQ(g.value(), 123.5);
  g.set(7.25);
  EXPECT_DOUBLE_EQ(g.value(), 7.25);
}

TEST_F(MetricsTest, HistogramCountSumMeanAreExact) {
  Histogram& h = histogram("test.hist.moments");
  double expected_sum = 0.0;
  for (int i = 1; i <= 100; ++i) {
    const double v = static_cast<double>(i) * 1e-3;
    h.observe(v);
    expected_sum += v;
  }
  EXPECT_EQ(h.count(), 100u);
  EXPECT_NEAR(h.sum(), expected_sum, 1e-9);
  EXPECT_NEAR(h.mean(), expected_sum / 100.0, 1e-9);
}

TEST_F(MetricsTest, PercentilesMatchReferenceWithinBucketResolution) {
  Histogram& h = histogram("test.hist.percentiles");
  std::vector<double> values;
  // A latency-shaped sample: two orders of magnitude of spread.
  for (int i = 1; i <= 1000; ++i)
    values.push_back(1e-4 * std::pow(1.005, i));
  for (const double v : values) h.observe(v);

  // Log2 buckets carry factor-of-two resolution; interpolation inside the
  // bucket does better in practice, but 2x is the contract being tested.
  for (const double q : {0.50, 0.95, 0.99}) {
    const double ref = reference_percentile(values, q);
    const double got = h.percentile(q);
    EXPECT_GE(got, ref / 2.0) << "q=" << q;
    EXPECT_LE(got, ref * 2.0) << "q=" << q;
  }
  // Percentiles are monotone in q.
  EXPECT_LE(h.percentile(0.50), h.percentile(0.95));
  EXPECT_LE(h.percentile(0.95), h.percentile(0.99));
}

TEST_F(MetricsTest, HistogramEdgeCases) {
  Histogram& h = histogram("test.hist.edges");
  EXPECT_EQ(h.percentile(0.5), 0.0);  // empty
  h.observe(0.0);
  h.observe(-1.0);  // clamped into bucket 0
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.bucket_count(0), 2u);
  h.observe(1e12);  // overflow clamps to the top bucket, never out of range
  EXPECT_EQ(h.count(), 3u);
}

// A factor-2 bucket is far wider than a tight sample; interpolating in it
// once reported p50 = 0.81 for a queue depth that was 1 on every sample.
TEST_F(MetricsTest, ConstantSampleQuantilesEqualTheSample) {
  Histogram& h = histogram("test.hist.constant");
  for (int i = 0; i < 100; ++i) h.observe(1.0);
  EXPECT_EQ(h.min(), 1.0);
  EXPECT_EQ(h.max(), 1.0);
  for (const double q : {0.0, 0.50, 0.95, 0.99, 1.0})
    EXPECT_EQ(h.percentile(q), 1.0) << "q=" << q;
}

TEST_F(MetricsTest, QuantilesStayWithinObservedRange) {
  Histogram& h = histogram("test.hist.range");
  std::vector<double> values;
  for (int i = 0; i < 50; ++i) values.push_back(3.0 + 0.01 * i);  // one bucket
  for (int i = 0; i < 5; ++i) values.push_back(6.3 + 0.1 * i);    // the next
  for (const double v : values) h.observe(v);
  const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
  EXPECT_EQ(h.min(), *lo);
  EXPECT_EQ(h.max(), *hi);
  for (const double q : {0.0, 0.01, 0.25, 0.50, 0.90, 0.95, 0.99, 1.0}) {
    const double got = h.percentile(q);
    EXPECT_GE(got, *lo) << "q=" << q;
    EXPECT_LE(got, *hi) << "q=" << q;
  }
}

TEST_F(MetricsTest, ResetClearsObservedRange) {
  Histogram& h = histogram("test.hist.range_reset");
  h.observe(5.0);
  h.reset();
  EXPECT_EQ(h.percentile(0.5), 0.0);
  h.observe(0.25);
  EXPECT_EQ(h.min(), 0.25);
  EXPECT_EQ(h.max(), 0.25);
  EXPECT_EQ(h.percentile(0.99), 0.25);
}

TEST_F(MetricsTest, JsonCarriesSchemaAttributesAndInstruments) {
  counter("test.json.counter").add(5);
  gauge("test.json.gauge").set(2.5);
  histogram("test.json.hist").observe(0.125);
  set_metrics_attribute("design", "unit-test");
  set_metrics_attribute("design", "unit-test-v2");  // overwrite wins

  const std::string json = metrics_json();
  EXPECT_NE(json.find("\"schema\": \"mch-metrics/1\""), std::string::npos);
  EXPECT_NE(json.find("\"design\": \"unit-test-v2\""), std::string::npos);
  EXPECT_EQ(json.find("\"unit-test\"\n"), std::string::npos);
  EXPECT_NE(json.find("test.json.counter"), std::string::npos);
  EXPECT_NE(json.find("test.json.gauge"), std::string::npos);
  EXPECT_NE(json.find("test.json.hist"), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST_F(MetricsTest, ConcurrentUpdatesAndRegistrationsAreExact) {
  constexpr int kThreads = 8;
  constexpr int kIters = 4000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      // Shared instrument hammered from every thread...
      Counter& shared = counter("test.mt.shared");
      Histogram& hist = histogram("test.mt.hist");
      // ...while per-thread names force concurrent registrations, so the
      // registry lock and the relaxed update paths are exercised together
      // (the TSan job in tools/verify.sh runs this test).
      Counter& mine = counter("test.mt.thread", "t", std::to_string(t));
      for (int i = 0; i < kIters; ++i) {
        shared.add();
        mine.add();
        hist.observe(1e-6 * (i + 1));
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(counter("test.mt.shared").value(),
            static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(histogram("test.mt.hist").count(),
            static_cast<std::uint64_t>(kThreads) * kIters);
  for (int t = 0; t < kThreads; ++t)
    EXPECT_EQ(counter("test.mt.thread", "t", std::to_string(t)).value(),
              static_cast<std::uint64_t>(kIters));
}

TEST_F(MetricsTest, ResetMetricsZeroesEverythingButKeepsRegistrations) {
  Counter& c = counter("test.reset.counter");
  Histogram& h = histogram("test.reset.hist");
  c.add(9);
  h.observe(1.0);
  reset_metrics();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0.0);
  // Same instrument object after the reset — registrations survive.
  EXPECT_EQ(&c, &counter("test.reset.counter"));
}

}  // namespace
}  // namespace mch::obs
