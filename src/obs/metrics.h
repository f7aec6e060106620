// Process-wide metrics registry: counters, gauges, log2-bucket histograms.
//
// All instruments are registered once (by name, created on first use) and
// live for the process; updates are relaxed atomics, so incrementing a
// counter from a pool worker costs one atomic add and never takes a lock.
// Hot paths should hold a reference instead of re-looking up by name:
//
//   static obs::Counter& hits = obs::counter("solve.warm_start_hits");
//   hits.add(1);
//
// Counter families use a label convention baked into the name:
// "recovery.rung{rung=psor}". metrics_json() renders one top-level entry
// per full name; tools/trace_summary.py groups families by the base name.
//
// Histograms bucket by log2 of the value scaled to integer "ticks"
// (value * 1e9, so seconds become nanoseconds): bucket = bit_width(ticks),
// 64 buckets total. Percentiles come from a cumulative walk with linear
// interpolation inside the winning bucket — coarse (factor-of-two
// resolution) but allocation-free and mergeable.
//
// metrics_enabled() gates the export side only; instruments always count
// (the cost is too small to gate) so in-process consumers (tests, stats
// structs) can read them regardless.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace mch::obs {

/// Whether metrics artifacts should be written. Resolved from MCH_METRICS
/// at process start (unset/"0" = off), flippable at runtime.
bool metrics_enabled();
void set_metrics_enabled(bool enabled);

class Counter {
 public:
  void add(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(double value) { value_.store(value, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

class Histogram {
 public:
  static constexpr int kNumBuckets = 64;

  /// Records one observation. Values are scaled by 1e9 before bucketing,
  /// so seconds land in nanosecond-resolution log2 buckets; zero and
  /// negative values count into bucket 0.
  void observe(double value);

  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double mean() const {
    const std::uint64_t n = count();
    return n == 0 ? 0.0 : sum() / static_cast<double>(n);
  }

  /// Smallest / largest observed value; +inf / −inf when empty.
  double min() const { return min_.load(std::memory_order_relaxed); }
  double max() const { return max_.load(std::memory_order_relaxed); }

  /// Approximate quantile in the original value units (q in [0,1]);
  /// 0 when empty. Linear interpolation inside the selected bucket,
  /// clamped to [min(), max()] so a quantile never leaves the observed
  /// range (a factor-2 bucket is far wider than a tight sample).
  double percentile(double q) const;

  std::uint64_t bucket_count(int bucket) const {
    return buckets_[bucket].load(std::memory_order_relaxed);
  }

  void reset();

 private:
  static constexpr double kEmptyMin = std::numeric_limits<double>::infinity();
  static constexpr double kEmptyMax = -kEmptyMin;

  /// The bucket-interpolated quantile, before the [min, max] clamp.
  double bucket_percentile(double q) const;

  std::atomic<std::uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{kEmptyMin};
  std::atomic<double> max_{kEmptyMax};
};

/// Look up (creating on first use) the instrument named `name`. The
/// returned reference is stable for the process lifetime. Names should be
/// lowercase dotted paths, with optional {key=value} labels:
/// "session.eco.latency_seconds", "recovery.rung{rung=lemke}".
Counter& counter(std::string_view name);
Gauge& gauge(std::string_view name);
Histogram& histogram(std::string_view name);

/// Convenience for counter families: counter("base{key=value}").
Counter& counter(std::string_view base, std::string_view label_key,
                 std::string_view label_value);
Gauge& gauge(std::string_view base, std::string_view label_key,
             std::string_view label_value);

/// Free-form provenance attached to the JSON snapshot ("build", "simd",
/// "threads", "design", ...). Later calls with the same key overwrite.
void set_metrics_attribute(std::string_view key, std::string_view value);

/// The metrics JSON document: schema/attributes plus every registered
/// counter, gauge, and histogram (count/sum/mean/p50/p95/p99 and the
/// non-empty buckets). Layout mirrors bench::JsonSnapshot.
std::string metrics_json();

/// Writes metrics_json() to `path`; false when the file cannot be opened.
bool write_metrics(const std::string& path);

/// Resets every registered instrument to zero (registrations and
/// attributes survive). For tests and multi-phase benches.
void reset_metrics();

}  // namespace mch::obs
