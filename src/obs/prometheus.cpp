#include "obs/prometheus.hpp"

#include <array>
#include <charconv>
#include <cstdio>
#include <string_view>

namespace specure::obs {

namespace {

bool ends_with_ns(const std::string& s) {
  return s.size() >= 3 && s.compare(s.size() - 3, 3, "_ns") == 0;
}

/// "stage/merge_ns" -> ("specure_stage_merge_seconds", true).
std::string family_name(const std::string& raw, bool* is_ns) {
  std::string name = raw;
  // The "hist/" prefix is a registry namespace, not exposition-relevant.
  if (name.rfind("hist/", 0) == 0) name = name.substr(5);
  *is_ns = ends_with_ns(name);
  if (*is_ns) name = name.substr(0, name.size() - 3) + "_seconds";
  for (char& c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    if (!ok) c = '_';
  }
  return "specure_" + name;
}

/// Number formatting into a caller's buffer: a scrape renders every
/// sample of the registry, so values never become heap strings.
using NumBuf = char[40];

std::string_view fmt(double v, NumBuf& buf) {
  const int n = std::snprintf(buf, sizeof(NumBuf), "%.9g", v);
  return {buf, static_cast<std::size_t>(n)};
}

std::string_view fmt(std::uint64_t v, NumBuf& buf) {
  const auto end = std::to_chars(buf, buf + sizeof(NumBuf), v).ptr;
  return {buf, static_cast<std::size_t>(end - buf)};
}

/// The `le="..."` label of histogram bucket b. Formatting a double is
/// most of a render's cost, and bucket bounds are fixed, so each label
/// is formatted once per process (nanosecond histograms in seconds).
std::string_view bucket_label(std::size_t b, bool is_ns) {
  static const auto table = [] {
    std::array<std::array<std::string, kHistogramBuckets>, 2> t;
    for (std::size_t ns = 0; ns < 2; ++ns) {
      for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "le=\"%.9g\"",
                      static_cast<double>(HistogramSnapshot::bucket_upper(i)) *
                          (ns != 0 ? 1e-9 : 1.0));
        t[ns][i] = buf;
      }
    }
    return t;
  }();
  return table[is_ns ? 1 : 0][b];
}

/// Append one sample line, `name suffix{labels,extra} value`, where the
/// braces appear only when some label is present.
void append_line(std::string& out, const std::string& name,
                 std::string_view suffix, const std::string& labels,
                 std::string_view extra, std::string_view value) {
  out += name;
  out += suffix;
  if (!labels.empty() || !extra.empty()) {
    out += '{';
    out += labels;
    if (!labels.empty() && !extra.empty()) out += ',';
    out += extra;
    out += '}';
  }
  out += ' ';
  out += value;
  out += '\n';
}

}  // namespace

PrometheusRenderer::Family& PrometheusRenderer::family(const std::string& name,
                                                      const char* type) {
  auto [it, inserted] = families_.try_emplace(name);
  if (inserted) {
    it->second.type = type;
    order_.push_back(name);
  }
  return it->second;
}

void PrometheusRenderer::add(const Snapshot& snapshot,
                             const std::string& labels) {
  NumBuf num;
  for (const CounterSnapshot& c : snapshot.counters) {
    bool is_ns = false;
    const std::string name = family_name(c.name, &is_ns) + "_total";
    append_line(family(name, "counter").text, name, "", labels, "",
                is_ns ? fmt(static_cast<double>(c.total) / 1e9, num)
                      : fmt(c.total, num));
  }
  for (const GaugeSnapshot& g : snapshot.gauges) {
    bool is_ns = false;
    const std::string name = family_name(g.name, &is_ns);
    append_line(family(name, "gauge").text, name, "", labels, "",
                is_ns ? fmt(static_cast<double>(g.value) / 1e9, num)
                      : fmt(g.value, num));
  }
  for (const HistogramSnapshot& h : snapshot.histograms) {
    bool is_ns = false;
    const std::string name = family_name(h.name, &is_ns);
    const double scale = is_ns ? 1e-9 : 1.0;
    std::string& text = family(name, "histogram").text;
    // Cumulative "le" buckets; only non-empty log2 buckets are emitted
    // (plus the mandatory +Inf), keeping the exposition compact.
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      if (h.buckets[b] == 0) continue;
      cumulative += h.buckets[b];
      append_line(text, name, "_bucket", labels, bucket_label(b, is_ns),
                  fmt(cumulative, num));
    }
    append_line(text, name, "_bucket", labels, "le=\"+Inf\"",
                fmt(h.count, num));
    append_line(text, name, "_sum", labels, "",
                fmt(static_cast<double>(h.sum) * scale, num));
    append_line(text, name, "_count", labels, "", fmt(h.count, num));
  }
}

void PrometheusRenderer::add_sample(const std::string& raw, const char* type,
                                    double value, const std::string& labels) {
  bool is_ns = false;
  std::string name = family_name(raw, &is_ns);
  if (is_ns) value /= 1e9;
  if (std::string(type) == "counter") name += "_total";
  NumBuf num;
  append_line(family(name, type).text, name, "", labels, "", fmt(value, num));
}

std::string PrometheusRenderer::render() const {
  std::size_t bytes = 0;
  for (const auto& [name, fam] : families_) {
    bytes += name.size() + fam.type.size() + fam.text.size() + 9;
  }
  std::string out;
  out.reserve(bytes);
  for (const std::string& name : order_) {
    const Family& fam = families_.at(name);
    out += "# TYPE ";
    out += name;
    out += ' ';
    out += fam.type;
    out += '\n';
    out += fam.text;
  }
  return out;
}

void render_prometheus(const Snapshot& snapshot, const std::string& labels,
                       std::string& out) {
  PrometheusRenderer renderer;
  renderer.add(snapshot, labels);
  out += renderer.render();
}

}  // namespace specure::obs
