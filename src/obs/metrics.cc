#include "obs/metrics.h"

#include <algorithm>
#include <cctype>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace mlkv {
namespace obs {

void SetMetricsEnabled(bool enabled) {
  MetricsEnabledFlag().store(enabled, std::memory_order_relaxed);
}

const std::vector<double>& DefaultLatencyBounds() {
  // Seconds, 100us .. 10s: wide enough for a cold-read wave behind a
  // simulated NVMe and tight enough to resolve warm-path microseconds
  // (the first bound's cumulative count is CountAtOrBelow(100us)).
  static const std::vector<double> kBounds = {
      1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2,
      5e-2, 1e-1,   0.25, 0.5,  1.0,    2.5,  5.0,  10.0};
  return kBounds;
}

bool ValidMetricName(std::string_view name) {
  if (name.empty()) return false;
  for (size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool alpha = std::isalpha(static_cast<unsigned char>(c)) != 0;
    const bool digit = std::isdigit(static_cast<unsigned char>(c)) != 0;
    if (!(alpha || c == '_' || c == ':' || (digit && i > 0))) return false;
  }
  return true;
}

bool ValidLabelKey(std::string_view key) {
  if (key.empty()) return false;
  for (size_t i = 0; i < key.size(); ++i) {
    const char c = key[i];
    const bool alpha = std::isalpha(static_cast<unsigned char>(c)) != 0;
    const bool digit = std::isdigit(static_cast<unsigned char>(c)) != 0;
    if (!(alpha || c == '_' || (digit && i > 0))) return false;
  }
  return true;
}

bool FindSample(std::string_view exposition, std::string_view series,
                double* value) {
  size_t pos = 0;
  while (pos < exposition.size()) {
    size_t end = exposition.find('\n', pos);
    if (end == std::string_view::npos) end = exposition.size();
    const std::string_view line = exposition.substr(pos, end - pos);
    pos = end + 1;
    if (line.starts_with('#')) continue;  // # HELP / # TYPE headers
    if (line.size() > series.size() && line.starts_with(series) &&
        line[series.size()] == ' ') {
      const std::string text(line.substr(series.size() + 1));
      *value = std::strtod(text.c_str(), nullptr);
      return true;
    }
  }
  return false;
}

namespace {

const char* TypeName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "untyped";
}

// HELP text: escape backslash and newline (format spec).
void AppendEscapedHelp(std::string_view s, std::string* out) {
  for (const char c : s) {
    if (c == '\\') *out += "\\\\";
    else if (c == '\n') *out += "\\n";
    else *out += c;
  }
}

// Label values: escape backslash, double-quote, and newline.
void AppendEscapedLabelValue(std::string_view s, std::string* out) {
  for (const char c : s) {
    if (c == '\\') *out += "\\\\";
    else if (c == '"') *out += "\\\"";
    else if (c == '\n') *out += "\\n";
    else *out += c;
  }
}

void AppendHeader(const std::string& name, const std::string& help,
                  MetricKind kind, std::string* out) {
  *out += "# HELP " + name + " ";
  AppendEscapedHelp(help, out);
  *out += "\n# TYPE " + name + " ";
  *out += TypeName(kind);
  *out += "\n";
}

// {k1="v1",k2="v2"} — empty when there are no labels. `extra` appends one
// more pair (the histogram `le` bound) without building a new vector.
void AppendLabels(const std::vector<std::string>& keys,
                  const std::vector<std::string>& values,
                  const std::pair<std::string, std::string>* extra,
                  std::string* out) {
  if (keys.empty() && extra == nullptr) return;
  *out += '{';
  bool first = true;
  for (size_t i = 0; i < keys.size() && i < values.size(); ++i) {
    if (!first) *out += ',';
    first = false;
    *out += keys[i] + "=\"";
    AppendEscapedLabelValue(values[i], out);
    *out += '"';
  }
  if (extra != nullptr) {
    if (!first) *out += ',';
    *out += extra->first + "=\"";
    AppendEscapedLabelValue(extra->second, out);
    *out += '"';
  }
  *out += '}';
}

void AppendValue(double v, std::string* out) {
  char buf[64];
  if (v == static_cast<double>(static_cast<uint64_t>(v)) && v >= 0 &&
      v < 1e18) {
    std::snprintf(buf, sizeof(buf), "%" PRIu64, static_cast<uint64_t>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.14g", v);
  }
  *out += buf;
}

std::string FormatBound(double b) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", b);
  return buf;
}

}  // namespace

// ---- MetricFamily -------------------------------------------------------

template <typename Cell>
Cell* MetricFamily::GetCell(
    std::map<std::vector<std::string>, std::unique_ptr<Cell>>* m,
    MetricKind want, std::vector<std::string> label_values) {
  if (kind_ != want || label_values.size() != label_keys_.size()) {
    return nullptr;
  }
  std::lock_guard<std::mutex> lk(mu_);
  auto it = m->find(label_values);
  if (it == m->end()) {
    it = m->emplace(std::move(label_values), std::make_unique<Cell>()).first;
  }
  return it->second.get();
}

Counter* MetricFamily::GetCounter(std::vector<std::string> label_values) {
  return GetCell(&counters_, MetricKind::kCounter, std::move(label_values));
}

Gauge* MetricFamily::GetGauge(std::vector<std::string> label_values) {
  return GetCell(&gauges_, MetricKind::kGauge, std::move(label_values));
}

HistogramCell* MetricFamily::GetHistogram(
    std::vector<std::string> label_values) {
  return GetCell(&histograms_, MetricKind::kHistogram,
                 std::move(label_values));
}

// ---- MetricsSink --------------------------------------------------------

void MetricsSink::Push(std::string_view name, std::string_view help,
                       MetricKind kind, double value,
                       std::initializer_list<Label> labels) {
  Sample s;
  s.name.assign(name);
  s.help.assign(help);
  s.kind = kind;
  s.value = value;
  s.labels.reserve(labels.size());
  for (const Label& l : labels) {
    s.labels.emplace_back(std::string(l.first), std::string(l.second));
  }
  samples_.push_back(std::move(s));
}

void MetricsSink::AddCounter(std::string_view name, std::string_view help,
                             uint64_t value,
                             std::initializer_list<Label> labels) {
  Push(name, help, MetricKind::kCounter, static_cast<double>(value), labels);
}

void MetricsSink::AddGauge(std::string_view name, std::string_view help,
                           double value,
                           std::initializer_list<Label> labels) {
  Push(name, help, MetricKind::kGauge, value, labels);
}

double MetricsSink::Sum(std::string_view name, Label label) const {
  double total = 0;
  for (const Sample& s : samples_) {
    if (s.name != name) continue;
    const bool match =
        label.first.empty() ||
        std::any_of(s.labels.begin(), s.labels.end(), [&](const auto& l) {
          return l.first == label.first && l.second == label.second;
        });
    if (match) total += s.value;
  }
  return total;
}

// ---- MetricsRegistry ----------------------------------------------------

MetricsRegistry* MetricsRegistry::Default() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return registry;
}

MetricFamily* MetricsRegistry::GetFamily(std::string_view name,
                                         std::string_view help,
                                         MetricKind kind,
                                         std::vector<std::string> label_keys,
                                         HistogramSpec spec) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = families_.find(name);
  if (it == families_.end()) {
    if (spec.bounds.empty()) spec.bounds = DefaultLatencyBounds();
    auto fam = std::unique_ptr<MetricFamily>(
        new MetricFamily(std::string(name), std::string(help), kind,
                         std::move(label_keys), std::move(spec)));
    it = families_.emplace(std::string(name), std::move(fam)).first;
  }
  return it->second.get();
}

MetricFamily* MetricsRegistry::CounterFamily(
    std::string_view name, std::string_view help,
    std::vector<std::string> label_keys) {
  return GetFamily(name, help, MetricKind::kCounter, std::move(label_keys),
                   {});
}

MetricFamily* MetricsRegistry::GaugeFamily(
    std::string_view name, std::string_view help,
    std::vector<std::string> label_keys) {
  return GetFamily(name, help, MetricKind::kGauge, std::move(label_keys), {});
}

MetricFamily* MetricsRegistry::HistogramFamily(
    std::string_view name, std::string_view help,
    std::vector<std::string> label_keys, HistogramSpec spec) {
  return GetFamily(name, help, MetricKind::kHistogram, std::move(label_keys),
                   std::move(spec));
}

uint64_t MetricsRegistry::AddCollector(
    std::function<void(MetricsSink*)> fn) {
  std::lock_guard<std::mutex> lk(mu_);
  const uint64_t id = next_collector_id_++;
  collectors_.emplace_back(id, std::move(fn));
  return id;
}

void MetricsRegistry::RemoveCollector(uint64_t id) {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto it = collectors_.begin(); it != collectors_.end(); ++it) {
    if (it->first == id) {
      collectors_.erase(it);
      return;
    }
  }
}

size_t MetricsRegistry::FamilyCount() const {
  std::lock_guard<std::mutex> lk(mu_);
  return families_.size();
}

std::string MetricsRegistry::ExpositionText() const {
  // Run the collectors and group their samples by family first, so a
  // collector extending a native family rides under that family's single
  // # TYPE header instead of duplicating it.
  MetricsSink sink;
  std::map<std::string, std::vector<const MetricsSink::Sample*>> extra;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto& [id, fn] : collectors_) {
      (void)id;
      fn(&sink);
    }
  }
  for (const MetricsSink::Sample& s : sink.samples()) {
    extra[s.name].push_back(&s);
  }

  std::string out;
  auto emit_sample = [&out](const MetricsSink::Sample& s) {
    out += s.name;
    if (!s.labels.empty()) {
      out += '{';
      for (size_t i = 0; i < s.labels.size(); ++i) {
        if (i) out += ',';
        out += s.labels[i].first + "=\"";
        AppendEscapedLabelValue(s.labels[i].second, &out);
        out += '"';
      }
      out += '}';
    }
    out += ' ';
    AppendValue(s.value, &out);
    out += '\n';
  };

  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& [name, fam] : families_) {
    AppendHeader(name, fam->help(), fam->kind(), &out);
    std::lock_guard<std::mutex> cell_lk(fam->mu_);
    switch (fam->kind()) {
      case MetricKind::kCounter:
        for (const auto& [labels, cell] : fam->counters_) {
          out += name;
          AppendLabels(fam->label_keys(), labels, nullptr, &out);
          out += ' ';
          AppendValue(static_cast<double>(cell->value()), &out);
          out += '\n';
        }
        break;
      case MetricKind::kGauge:
        for (const auto& [labels, cell] : fam->gauges_) {
          out += name;
          AppendLabels(fam->label_keys(), labels, nullptr, &out);
          out += ' ';
          AppendValue(cell->value(), &out);
          out += '\n';
        }
        break;
      case MetricKind::kHistogram:
        for (const auto& [labels, cell] : fam->histograms_) {
          const Histogram& h = cell->histogram();
          const HistogramSpec& spec = fam->spec_;
          for (const double bound : spec.bounds) {
            const double raw = bound / spec.scale;
            const uint64_t threshold =
                raw >= 1e19 ? UINT64_MAX
                            : static_cast<uint64_t>(std::llround(raw));
            const std::pair<std::string, std::string> le{"le",
                                                         FormatBound(bound)};
            out += name + "_bucket";
            AppendLabels(fam->label_keys(), labels, &le, &out);
            out += ' ';
            AppendValue(static_cast<double>(h.CountAtOrBelow(threshold)),
                        &out);
            out += '\n';
          }
          const std::pair<std::string, std::string> inf{"le", "+Inf"};
          out += name + "_bucket";
          AppendLabels(fam->label_keys(), labels, &inf, &out);
          out += ' ';
          AppendValue(static_cast<double>(h.count()), &out);
          out += '\n';
          out += name + "_sum";
          AppendLabels(fam->label_keys(), labels, nullptr, &out);
          out += ' ';
          AppendValue(static_cast<double>(h.sum()) * spec.scale, &out);
          out += '\n';
          out += name + "_count";
          AppendLabels(fam->label_keys(), labels, nullptr, &out);
          out += ' ';
          AppendValue(static_cast<double>(h.count()), &out);
          out += '\n';
        }
        break;
    }
    const auto it = extra.find(name);
    if (it != extra.end()) {
      for (const MetricsSink::Sample* s : it->second) emit_sample(*s);
      extra.erase(it);
    }
  }
  // Collector-only families (no native cells): header from the first
  // sample, then every sample in collector emission order.
  for (const auto& [name, samples] : extra) {
    AppendHeader(name, samples[0]->help, samples[0]->kind, &out);
    for (const MetricsSink::Sample* s : samples) emit_sample(*s);
  }
  return out;
}

}  // namespace obs
}  // namespace mlkv
