#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>

#include "util/log.h"

namespace mch::obs {

namespace {

bool env_truthy(const char* name) {
  const char* value = std::getenv(name);
  return value != nullptr && value[0] != '\0' &&
         std::strcmp(value, "0") != 0;
}

std::atomic<bool> g_enabled{env_truthy("MCH_METRICS")};

/// std::map keeps node addresses stable across inserts, so references
/// handed out by counter()/gauge()/histogram() never move.
struct MetricsStore {
  std::mutex mutex;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms;
  std::map<std::string, std::string, std::less<>> attributes;
};

MetricsStore& store() {
  static MetricsStore* s = new MetricsStore;  // leaked: outlives all threads
  return *s;
}

template <typename T>
T& lookup(std::map<std::string, std::unique_ptr<T>, std::less<>>& table,
          std::string_view name) {
  MetricsStore& s = store();
  std::lock_guard<std::mutex> lock(s.mutex);
  auto it = table.find(name);
  if (it == table.end()) {
    it = table.emplace(std::string(name), std::make_unique<T>()).first;
  }
  return *it->second;
}

std::string labeled_name(std::string_view base, std::string_view key,
                         std::string_view value) {
  std::string name;
  name.reserve(base.size() + key.size() + value.size() + 3);
  name.append(base);
  name += '{';
  name.append(key);
  name += '=';
  name.append(value);
  name += '}';
  return name;
}

constexpr double kTicksPerUnit = 1e9;

/// Lower edge of `bucket` in original value units. Bucket b holds ticks
/// in [2^(b-1), 2^b) for b >= 1; bucket 0 holds ticks <= 0.
double bucket_lower(int bucket) {
  if (bucket <= 0) return 0.0;
  return static_cast<double>(std::uint64_t{1} << (bucket - 1)) / kTicksPerUnit;
}

double bucket_upper(int bucket) {
  if (bucket >= Histogram::kNumBuckets - 1) return bucket_lower(bucket) * 2.0;
  return static_cast<double>(std::uint64_t{1} << bucket) / kTicksPerUnit;
}

void append_json_escaped(std::string& out, const std::string& text) {
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char hex[8];
          std::snprintf(hex, sizeof hex, "\\u%04x", c);
          out += hex;
        } else {
          out += c;
        }
    }
  }
}

void append_double(std::string& out, double value) {
  char scratch[64];
  std::snprintf(scratch, sizeof scratch, "%.9g", value);
  out += scratch;
}

}  // namespace

bool metrics_enabled() { return g_enabled.load(std::memory_order_relaxed); }

void set_metrics_enabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

void Histogram::observe(double value) {
  const double ticks = value * kTicksPerUnit;
  int bucket = 0;
  if (ticks >= 1.0) {
    const std::uint64_t t =
        ticks >= 9.2e18 ? ~std::uint64_t{0} : static_cast<std::uint64_t>(ticks);
    bucket = std::bit_width(t);
    if (bucket >= kNumBuckets) bucket = kNumBuckets - 1;
  }
  // Extremes first, so a reader that sees the count rarely sees them
  // unset; percentile() tolerates the race either way.
  double lo = min_.load(std::memory_order_relaxed);
  while (value < lo &&
         !min_.compare_exchange_weak(lo, value, std::memory_order_relaxed)) {
  }
  double hi = max_.load(std::memory_order_relaxed);
  while (value > hi &&
         !max_.compare_exchange_weak(hi, value, std::memory_order_relaxed)) {
  }
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  // fetch_add on atomic<double> requires C++20 + hardware support; a CAS
  // loop keeps the sum portable. Contention here is rare (one add per
  // request/solve, not per iteration).
  double expected = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(expected, expected + value,
                                     std::memory_order_relaxed)) {
  }
}

double Histogram::percentile(double q) const {
  const double lo = min();
  const double hi = max();
  const double estimate = bucket_percentile(q);
  // lo > hi only while the first observe() is still publishing its extremes.
  return lo <= hi ? std::clamp(estimate, lo, hi) : estimate;
}

double Histogram::bucket_percentile(double q) const {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(n);
  std::uint64_t cumulative = 0;
  for (int b = 0; b < kNumBuckets; ++b) {
    const std::uint64_t in_bucket = bucket_count(b);
    if (in_bucket == 0) continue;
    if (static_cast<double>(cumulative + in_bucket) >= target) {
      const double within =
          (target - static_cast<double>(cumulative)) /
          static_cast<double>(in_bucket);
      const double lo = bucket_lower(b);
      const double hi = bucket_upper(b);
      return lo + (hi - lo) * std::clamp(within, 0.0, 1.0);
    }
    cumulative += in_bucket;
  }
  return bucket_upper(kNumBuckets - 1);
}

void Histogram::reset() {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(kEmptyMin, std::memory_order_relaxed);
  max_.store(kEmptyMax, std::memory_order_relaxed);
}

Counter& counter(std::string_view name) {
  return lookup(store().counters, name);
}

Gauge& gauge(std::string_view name) { return lookup(store().gauges, name); }

Histogram& histogram(std::string_view name) {
  return lookup(store().histograms, name);
}

Counter& counter(std::string_view base, std::string_view label_key,
                 std::string_view label_value) {
  return counter(labeled_name(base, label_key, label_value));
}

Gauge& gauge(std::string_view base, std::string_view label_key,
             std::string_view label_value) {
  return gauge(labeled_name(base, label_key, label_value));
}

void set_metrics_attribute(std::string_view key, std::string_view value) {
  MetricsStore& s = store();
  std::lock_guard<std::mutex> lock(s.mutex);
  s.attributes[std::string(key)] = std::string(value);
}

std::string metrics_json() {
  MetricsStore& s = store();
  std::lock_guard<std::mutex> lock(s.mutex);

  std::string out;
  out.reserve(1 << 14);
  out += "{\n  \"schema\": \"mch-metrics/1\",\n  \"attributes\": {";
  bool first = true;
  for (const auto& [key, value] : s.attributes) {
    if (!first) out += ", ";
    first = false;
    out += '"';
    append_json_escaped(out, key);
    out += "\": \"";
    append_json_escaped(out, value);
    out += '"';
  }
  out += "},\n  \"counters\": {";
  first = true;
  for (const auto& [name, c] : s.counters) {
    if (!first) out += ',';
    first = false;
    out += "\n    \"";
    append_json_escaped(out, name);
    char scratch[32];
    std::snprintf(scratch, sizeof scratch, "\": %llu",
                  static_cast<unsigned long long>(c->value()));
    out += scratch;
  }
  out += "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : s.gauges) {
    if (!first) out += ',';
    first = false;
    out += "\n    \"";
    append_json_escaped(out, name);
    out += "\": ";
    append_double(out, g->value());
  }
  out += "\n  },\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : s.histograms) {
    if (!first) out += ',';
    first = false;
    out += "\n    \"";
    append_json_escaped(out, name);
    out += "\": {\"count\": ";
    char scratch[32];
    std::snprintf(scratch, sizeof scratch, "%llu",
                  static_cast<unsigned long long>(h->count()));
    out += scratch;
    out += ", \"sum\": ";
    append_double(out, h->sum());
    out += ", \"mean\": ";
    append_double(out, h->mean());
    out += ", \"p50\": ";
    append_double(out, h->percentile(0.50));
    out += ", \"p95\": ";
    append_double(out, h->percentile(0.95));
    out += ", \"p99\": ";
    append_double(out, h->percentile(0.99));
    out += ", \"buckets\": {";
    bool first_bucket = true;
    for (int b = 0; b < Histogram::kNumBuckets; ++b) {
      const std::uint64_t in_bucket = h->bucket_count(b);
      if (in_bucket == 0) continue;
      if (!first_bucket) out += ", ";
      first_bucket = false;
      std::snprintf(scratch, sizeof scratch, "\"%d\": %llu", b,
                    static_cast<unsigned long long>(in_bucket));
      out += scratch;
    }
    out += "}}";
  }
  out += "\n  }\n}\n";
  return out;
}

bool write_metrics(const std::string& path) {
  const std::string json = metrics_json();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    MCH_LOG(kWarn) << "metrics: cannot open " << path << " for writing";
    return false;
  }
  const std::size_t written = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  return written == json.size();
}

void reset_metrics() {
  MetricsStore& s = store();
  std::lock_guard<std::mutex> lock(s.mutex);
  for (auto& [name, c] : s.counters) c->reset();
  for (auto& [name, g] : s.gauges) g->reset();
  for (auto& [name, h] : s.histograms) h->reset();
}

}  // namespace mch::obs
