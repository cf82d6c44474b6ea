#pragma once
/// \file metrics_registry.hpp
/// Process-wide registry of named counters, gauges and histograms.
///
/// The repo's stat structs (WorkerStats, FaultMetrics, WsResult phase
/// counters, WorkCounts) each grew up as ad-hoc parallel bookkeeping; this
/// registry is the single sink they publish into, and the flat metrics
/// JSON snapshot (`--metrics`, BENCH_*.json "metrics" objects) is its
/// serialization. Publishing helpers live next to the structs they
/// publish (fault.hpp, ws_engine.hpp, loadbal/metrics.hpp, work_units.hpp)
/// so layering stays intact; the registry itself knows nothing about them.
///
/// Concurrency: instrument creation takes a mutex (rare); updates are
/// lock-free atomics, so counters may be bumped from scheduler workers.
/// Snapshots are deterministic: instruments serialize sorted by name, and
/// a fixed-seed run that publishes only deterministic quantities (DES
/// replays, op counts) produces a byte-identical snapshot.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace pmpl::runtime {

/// Monotone event count.
class Counter {
 public:
  void add(std::uint64_t delta) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void increment() noexcept { add(1); }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins scalar (seconds, ratios, sizes).
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed log2-bucketed histogram of non-negative samples. Bucket i counts
/// samples in [2^(i-1), 2^i) (bucket 0: [0, 1)), over a value scaled by
/// the caller (e.g. seconds -> microseconds) so the 64 buckets span any
/// practical range. Lock-free observe; sum/count exact, quantiles coarse —
/// enough for "where did the time go" without a full reservoir.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  void observe(double value) noexcept {
    count_.fetch_add(1, std::memory_order_relaxed);
    // Atomic double sum via CAS (observe rate is per-region, not per-op).
    double cur = sum_.load(std::memory_order_relaxed);
    while (!sum_.compare_exchange_weak(cur, cur + value,
                                       std::memory_order_relaxed)) {
    }
    buckets_[bucket_of(value)].fetch_add(1, std::memory_order_relaxed);
  }

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t bucket(std::size_t i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  static std::size_t bucket_of(double value) noexcept {
    if (!(value >= 1.0)) return 0;  // negatives and NaN land in bucket 0
    std::size_t b = 1;
    double hi = 2.0;
    while (b + 1 < kBuckets && value >= hi) {
      hi *= 2.0;
      ++b;
    }
    return b;
  }

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
};

/// Named instrument registry. Instruments are created on first use and
/// live for the registry's lifetime (references stay valid). A name is
/// one kind of instrument for the registry's lifetime; asking for the
/// same name as a different kind throws std::logic_error (catching the
/// "parallel bookkeeping" bug this layer exists to end).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  // Convenience forms for one-shot publishing.
  void add(const std::string& name, std::uint64_t delta) {
    counter(name).add(delta);
  }
  void set(const std::string& name, double value) { gauge(name).set(value); }
  void observe(const std::string& name, double value) {
    histogram(name).observe(value);
  }

  /// Flat JSON snapshot, deterministic (sorted by name):
  ///   {"counters": {...}, "gauges": {...}, "histograms": {...}}
  /// Histograms serialize count/sum plus the non-empty buckets.
  std::string to_json() const;

  /// The process-wide default registry most call sites publish into.
  static MetricsRegistry& global();

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& entry(const std::string& name, Kind kind);

  mutable std::mutex mutex_;
  std::map<std::string, Entry> entries_;
};

}  // namespace pmpl::runtime
