#include "obs/metrics.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace autodml::obs {

namespace {

void add_to_atomic_double(std::atomic<double>& target, double delta) {
  double cur = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(cur, cur + delta,
                                       std::memory_order_relaxed)) {
  }
}

}  // namespace

HistogramSnapshot merge(const HistogramSnapshot& a,
                        const HistogramSnapshot& b) {
  if (a.bounds != b.bounds)
    throw std::invalid_argument(
        "Histogram merge: bucket bounds differ (" +
        std::to_string(a.bounds.size()) + " vs " +
        std::to_string(b.bounds.size()) + " finite buckets)");
  HistogramSnapshot out = a;
  for (std::size_t i = 0; i < out.counts.size(); ++i)
    out.counts[i] += b.counts[i];
  out.count += b.count;
  out.sum += b.sum;
  out.min = std::min(out.min, b.min);
  out.max = std::max(out.max, b.max);
  return out;
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    if (!(bounds_[i - 1] < bounds_[i]))
      throw std::invalid_argument(
          "Histogram: bucket bounds must be strictly increasing");
  }
}

void Histogram::record(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const auto idx = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  add_to_atomic_double(sum_, v);
  double cur = min_.load(std::memory_order_relaxed);
  while (v < cur &&
         !min_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (v > cur &&
         !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot out;
  out.bounds = bounds_;
  out.counts.reserve(buckets_.size());
  for (const auto& b : buckets_)
    out.counts.push_back(b.load(std::memory_order_relaxed));
  out.count = count_.load(std::memory_order_relaxed);
  out.sum = sum_.load(std::memory_order_relaxed);
  out.min = min_.load(std::memory_order_relaxed);
  out.max = max_.load(std::memory_order_relaxed);
  return out;
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

void MetricsRegistry::reset() {
  util::MutexLock lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

Counter& MetricsRegistry::counter(std::string_view name) {
  util::MutexLock lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  util::MutexLock lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::span<const double> bounds) {
  util::MutexLock lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<Histogram>(
                          std::vector<double>(bounds.begin(), bounds.end())))
             .first;
  } else if (!std::equal(bounds.begin(), bounds.end(),
                         it->second->bounds().begin(),
                         it->second->bounds().end())) {
    throw std::invalid_argument("MetricsRegistry: histogram '" +
                                std::string(name) +
                                "' re-requested with different bounds");
  }
  return *it->second;
}

util::JsonValue MetricsRegistry::snapshot_json() const {
  util::MutexLock lock(mu_);
  util::JsonObject counters;
  for (const auto& [name, c] : counters_) {
    counters.emplace(name, util::JsonValue(c->value()));
  }
  util::JsonObject gauges;
  for (const auto& [name, g] : gauges_) {
    gauges.emplace(name, util::JsonValue(g->value()));
  }
  util::JsonObject histograms;
  for (const auto& [name, h] : histograms_) {
    const HistogramSnapshot snap = h->snapshot();
    util::JsonObject obj;
    util::JsonArray bounds, counts;
    for (double b : snap.bounds) bounds.emplace_back(b);
    for (std::int64_t c : snap.counts) counts.emplace_back(c);
    obj.emplace("bounds", util::JsonValue(std::move(bounds)));
    obj.emplace("counts", util::JsonValue(std::move(counts)));
    obj.emplace("count", util::JsonValue(snap.count));
    obj.emplace("sum", util::JsonValue(snap.sum));
    // +/-inf (empty histogram) is not representable in JSON.
    obj.emplace("min", snap.count > 0 ? util::JsonValue(snap.min)
                                      : util::JsonValue(nullptr));
    obj.emplace("max", snap.count > 0 ? util::JsonValue(snap.max)
                                      : util::JsonValue(nullptr));
    histograms.emplace(name, util::JsonValue(std::move(obj)));
  }
  util::JsonObject doc;
  doc.emplace("counters", util::JsonValue(std::move(counters)));
  doc.emplace("gauges", util::JsonValue(std::move(gauges)));
  doc.emplace("histograms", util::JsonValue(std::move(histograms)));
  return util::JsonValue(std::move(doc));
}

std::string MetricsRegistry::snapshot_csv() const {
  util::MutexLock lock(mu_);
  std::ostringstream out;
  out << "kind,name,value\n";
  for (const auto& [name, c] : counters_) {
    out << "counter," << name << "," << c->value() << "\n";
  }
  out.precision(17);
  for (const auto& [name, g] : gauges_) {
    out << "gauge," << name << "," << g->value() << "\n";
  }
  for (const auto& [name, h] : histograms_) {
    const HistogramSnapshot snap = h->snapshot();
    out << "histogram," << name << ".count," << snap.count << "\n";
    out << "histogram," << name << ".sum," << snap.sum << "\n";
    if (snap.count > 0) {
      out << "histogram," << name << ".min," << snap.min << "\n";
      out << "histogram," << name << ".max," << snap.max << "\n";
    }
    for (std::size_t i = 0; i < snap.counts.size(); ++i) {
      out << "histogram," << name << ".le_";
      if (i < snap.bounds.size()) {
        out << snap.bounds[i];
      } else {
        out << "inf";
      }
      out << "," << snap.counts[i] << "\n";
    }
  }
  return out.str();
}

}  // namespace autodml::obs
