#include "runtime/metrics_registry.hpp"

#include <cinttypes>
#include <cstdio>
#include <stdexcept>

namespace pmpl::runtime {

namespace {

/// %.17g prints doubles round-trip exactly, keeping snapshots deterministic
/// without trailing-zero noise for integral values.
void append_double(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

void append_quoted(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
}

}  // namespace

MetricsRegistry::Entry& MetricsRegistry::entry(const std::string& name,
                                               Kind kind) {
  std::lock_guard lock(mutex_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    Entry e;
    e.kind = kind;
    switch (kind) {
      case Kind::kCounter: e.counter = std::make_unique<Counter>(); break;
      case Kind::kGauge: e.gauge = std::make_unique<Gauge>(); break;
      case Kind::kHistogram:
        e.histogram = std::make_unique<Histogram>();
        break;
    }
    it = entries_.emplace(name, std::move(e)).first;
  } else if (it->second.kind != kind) {
    throw std::logic_error("metric '" + name +
                           "' already registered as a different kind");
  }
  return it->second;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  return *entry(name, Kind::kCounter).counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  return *entry(name, Kind::kGauge).gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  return *entry(name, Kind::kHistogram).histogram;
}

std::string MetricsRegistry::to_json() const {
  std::lock_guard lock(mutex_);
  std::string counters, gauges, histograms;
  char buf[64];
  for (const auto& [name, e] : entries_) {  // std::map: sorted by name
    switch (e.kind) {
      case Kind::kCounter: {
        if (!counters.empty()) counters += ", ";
        append_quoted(counters, name);
        std::snprintf(buf, sizeof buf, ": %" PRIu64, e.counter->value());
        counters += buf;
        break;
      }
      case Kind::kGauge: {
        if (!gauges.empty()) gauges += ", ";
        append_quoted(gauges, name);
        gauges += ": ";
        append_double(gauges, e.gauge->value());
        break;
      }
      case Kind::kHistogram: {
        if (!histograms.empty()) histograms += ", ";
        append_quoted(histograms, name);
        std::snprintf(buf, sizeof buf, ": {\"count\": %" PRIu64 ", \"sum\": ",
                      e.histogram->count());
        histograms += buf;
        append_double(histograms, e.histogram->sum());
        histograms += ", \"buckets\": {";
        bool first = true;
        for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
          const std::uint64_t n = e.histogram->bucket(b);
          if (n == 0) continue;
          if (!first) histograms += ", ";
          first = false;
          std::snprintf(buf, sizeof buf, "\"%zu\": %" PRIu64, b, n);
          histograms += buf;
        }
        histograms += "}}";
        break;
      }
    }
  }
  std::string out = "{\"counters\": {";
  out += counters;
  out += "}, \"gauges\": {";
  out += gauges;
  out += "}, \"histograms\": {";
  out += histograms;
  out += "}}";
  return out;
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* instance = new MetricsRegistry();  // never dtor'd
  return *instance;
}

}  // namespace pmpl::runtime
