#include "obs/metrics.h"

#include <algorithm>
#include <fstream>

#include "common/error.h"
#include "common/table.h"

namespace p2plb::obs {

void Counter::add(double delta) {
  P2PLB_REQUIRE_MSG(delta >= 0.0, "counters only move forward");
  value_ += delta;
}

double MetricsSnapshot::value(std::string_view key) const {
  const auto it = values.find(std::string(key));
  return it == values.end() ? 0.0 : it->second;
}

MetricsSnapshot MetricsSnapshot::diff(const MetricsSnapshot& earlier) const {
  MetricsSnapshot out;
  for (const auto& [key, v] : values) {
    const auto it = earlier.values.find(key);
    out.values.emplace(key, v - (it == earlier.values.end() ? 0.0 : it->second));
  }
  return out;
}

std::string MetricsRegistry::key_of(std::string_view name,
                                    const Labels& labels) {
  P2PLB_REQUIRE_MSG(!name.empty(), "metric name must be non-empty");
  std::string key(name);
  if (labels.empty()) return key;
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  key += '{';
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    P2PLB_REQUIRE_MSG(!sorted[i].first.empty(),
                      "label keys must be non-empty");
    P2PLB_REQUIRE_MSG(i == 0 || sorted[i].first != sorted[i - 1].first,
                      "label keys must be unique");
    if (i > 0) key += ',';
    key += sorted[i].first;
    key += '=';
    key += sorted[i].second;
  }
  key += '}';
  return key;
}

Counter& MetricsRegistry::counter(std::string_view name,
                                  const Labels& labels) {
  return counters_[key_of(name, labels)];
}

Gauge& MetricsRegistry::gauge(std::string_view name, const Labels& labels) {
  return gauges_[key_of(name, labels)];
}

HistogramMetric& MetricsRegistry::histogram(std::string_view name,
                                            std::vector<double> edges,
                                            const Labels& labels) {
  std::string key = key_of(name, labels);
  const auto it = histograms_.find(key);
  if (it != histograms_.end()) return it->second;
  return histograms_
      .emplace(std::move(key), HistogramMetric(std::move(edges)))
      .first->second;
}

bool MetricsRegistry::remove(std::string_view name, const Labels& labels) {
  const std::string key = key_of(name, labels);
  return counters_.erase(key) + gauges_.erase(key) +
             histograms_.erase(key) >
         0;
}

const Counter* MetricsRegistry::find_counter(std::string_view name,
                                             const Labels& labels) const {
  const auto it = counters_.find(key_of(name, labels));
  return it == counters_.end() ? nullptr : &it->second;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  for (const auto& [key, c] : counters_) snap.values.emplace(key, c.value());
  for (const auto& [key, g] : gauges_) snap.values.emplace(key, g.value());
  for (const auto& [key, h] : histograms_) {
    snap.values.emplace(key + "/count",
                        static_cast<double>(h.samples()));
    snap.values.emplace(key + "/weight", h.total_weight());
  }
  return snap;
}

Table MetricsRegistry::to_table() const {
  Table table({"metric", "value"});
  for (const auto& [key, c] : counters_)
    table.add_row({key, Table::num(c.value(), 6)});
  for (const auto& [key, g] : gauges_)
    table.add_row({key, Table::num(g.value(), 6)});
  for (const auto& [key, h] : histograms_) {
    table.add_row({key + "/count", std::to_string(h.samples())});
    table.add_row({key + "/weight", Table::num(h.total_weight(), 6)});
    table.add_row({key + "/p50", Table::num(h.quantile(0.50), 6)});
    table.add_row({key + "/p90", Table::num(h.quantile(0.90), 6)});
    table.add_row({key + "/p99", Table::num(h.quantile(0.99), 6)});
  }
  return table;
}

void MetricsRegistry::write_csv(std::ostream& os) const {
  to_table().print_csv(os);
}

void write_metrics_file(const MetricsRegistry& registry,
                        const std::string& path) {
  std::ofstream os(path);
  P2PLB_REQUIRE_MSG(os.good(), "cannot open metrics file: " + path);
  registry.write_csv(os);
}

}  // namespace p2plb::obs
