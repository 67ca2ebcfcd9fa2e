#pragma once
// Typed metrics for the optimizer pipeline: counters, gauges, and fixed
// log-bucket latency histograms, registered once by name and then updated
// with single relaxed atomic operations — no allocation, no locking, no
// formatting on the hot path.
//
// Components count into an attached registry as they go; the greedy loop
// fills it from one counter table at the end of the run (opt/powder.cpp),
// always with inc(), so a registry shared across runs holds their sums.
// Exports: a JSON object (merged into --report-json as the "metrics"
// field) and Prometheus text exposition (--metrics-out).

#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>

namespace powder {

class Counter {
 public:
  void inc(long long delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  long long value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<long long> value_{0};
};

class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Latency histogram over nanoseconds with fixed logarithmic buckets:
/// bucket 0 holds v == 0 and bucket i (1 <= i < kNumBuckets-1) holds
/// v in [2^(i-1), 2^i), i.e. values with bit_width i; the last bucket is
/// the +Inf catch-all. 40 buckets cover sub-nanosecond granularity up to
/// ~4.6 minutes, observed with two relaxed fetch_adds and no allocation.
class Histogram {
 public:
  static constexpr int kNumBuckets = 40;

  void observe(std::uint64_t ns) {
    buckets_[bucket_index(ns)].fetch_add(1, std::memory_order_relaxed);
    sum_ns_.fetch_add(static_cast<long long>(ns), std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
  }

  static int bucket_index(std::uint64_t ns) {
    int bits = 0;
    while (ns != 0) {
      ++bits;
      ns >>= 1;
    }
    return bits < kNumBuckets - 1 ? bits : kNumBuckets - 1;
  }

  /// Inclusive upper bound of bucket i in ns; the last bucket is +Inf
  /// (returned as UINT64_MAX).
  static std::uint64_t bucket_upper_bound_ns(int i) {
    if (i >= kNumBuckets - 1) return ~std::uint64_t{0};
    return (std::uint64_t{1} << i) - 1;
  }

  long long count() const { return count_.load(std::memory_order_relaxed); }
  long long sum_ns() const { return sum_ns_.load(std::memory_order_relaxed); }
  long long bucket(int i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  /// Quantile estimate in ns from the log2 buckets: walks the cumulative
  /// counts to the bucket holding the ceil(q*count)-th observation and
  /// returns its inclusive upper bound (so the estimate never understates
  /// the true quantile by more than one bucket). Returns 0 on an empty
  /// histogram and +Inf when the target lands in the catch-all bucket.
  double percentile_ns(double q) const {
    const long long total = count();
    if (total <= 0) return 0.0;
    long long target =
        static_cast<long long>(std::ceil(q * static_cast<double>(total)));
    if (target < 1) target = 1;
    if (target > total) target = total;
    long long cumulative = 0;
    for (int i = 0; i < kNumBuckets; ++i) {
      cumulative += bucket(i);
      if (cumulative >= target) {
        if (i == kNumBuckets - 1)
          return std::numeric_limits<double>::infinity();
        return static_cast<double>(bucket_upper_bound_ns(i));
      }
    }
    return std::numeric_limits<double>::infinity();
  }

 private:
  std::atomic<long long> buckets_[kNumBuckets] = {};
  std::atomic<long long> sum_ns_{0};
  std::atomic<long long> count_{0};
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Registration is idempotent by name (the existing instrument is
  /// returned) and thread-safe; registering the same name as a different
  /// kind throws CheckError. Returned pointers stay valid for the
  /// registry's lifetime. Register at setup, not per event.
  Counter* counter(const std::string& name, const std::string& help = {});
  Gauge* gauge(const std::string& name, const std::string& help = {});
  Histogram* histogram(const std::string& name, const std::string& help = {});

  /// One flat JSON object, instruments in name order: counters and gauges
  /// as numbers, histograms as {"count","sum_ns","p50","p90","p99",
  /// "buckets":[[le_ns,n],...]} with only non-empty buckets listed.
  /// Percentiles are bucket upper bounds in ns (null when the observation
  /// falls in the +Inf catch-all bucket).
  std::string to_json() const;

  /// Prometheus text exposition format (histogram `le` labels in seconds,
  /// cumulative, with the mandatory +Inf bucket and _sum/_count series).
  void write_prometheus(std::ostream& os) const;
  std::string prometheus_text() const;

  std::size_t size() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry* find_or_create(const std::string& name, const std::string& help,
                        Kind kind);

  mutable std::mutex mutex_;
  std::map<std::string, Entry> entries_;  ///< ordered: deterministic export
};

}  // namespace powder
