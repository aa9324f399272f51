#include "obs/prometheus.hpp"

#include <array>
#include <charconv>
#include <cstdio>

namespace specure::obs {

namespace {

/// Append the exposition name of registry instrument `raw` to `out`:
/// "stage/merge_ns" -> "specure_stage_merge_seconds". True when `raw`
/// counts nanoseconds (its values are exported in seconds).
bool append_family_name(std::string_view raw, std::string& out) {
  // The "hist/" prefix is a registry namespace, not exposition-relevant.
  if (raw.substr(0, 5) == "hist/") raw.remove_prefix(5);
  const bool is_ns = raw.size() >= 3 && raw.substr(raw.size() - 3) == "_ns";
  if (is_ns) raw.remove_suffix(3);
  out += "specure_";
  for (const char c : raw) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  if (is_ns) out += "_seconds";
  return is_ns;
}

/// Number formatting into a caller's buffer: a scrape renders every
/// sample of the registry, so values never become heap strings. Doubles
/// print as printf's "%.9g" would.
using NumBuf = char[40];

std::string_view fmt(double v, NumBuf& buf) {
  const auto end = std::to_chars(buf, buf + sizeof(NumBuf), v,
                                 std::chars_format::general, 9)
                       .ptr;
  return {buf, static_cast<std::size_t>(end - buf)};
}

std::string_view fmt(std::uint64_t v, NumBuf& buf) {
  const auto end = std::to_chars(buf, buf + sizeof(NumBuf), v).ptr;
  return {buf, static_cast<std::size_t>(end - buf)};
}

/// The `le="..."` label of histogram bucket b. Bucket bounds are fixed,
/// so each label is formatted once per process (nanosecond histograms
/// in seconds).
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

}  // namespace

void PrometheusRenderer::open_block(const char* type) {
  std::size_t f = 0;
  while (f < families_.size() && families_[f].name != name_) ++f;
  if (f == families_.size()) families_.push_back({name_, type});
  blocks_.push_back({f, lines_.size(), lines_.size()});
}

void PrometheusRenderer::append_line(std::string_view suffix,
                                     const std::string& labels,
                                     std::string_view extra,
                                     std::string_view value) {
  lines_ += name_;
  lines_ += suffix;
  if (!labels.empty() || !extra.empty()) {
    lines_ += '{';
    lines_ += labels;
    if (!labels.empty() && !extra.empty()) lines_ += ',';
    lines_ += extra;
    lines_ += '}';
  }
  lines_ += ' ';
  lines_ += value;
  lines_ += '\n';
  blocks_.back().end = lines_.size();
}

void PrometheusRenderer::add(const Snapshot& snapshot,
                             const std::string& labels) {
  NumBuf num;
  for (const CounterSnapshot& c : snapshot.counters) {
    name_.clear();
    const bool is_ns = append_family_name(c.name, name_);
    name_ += "_total";
    open_block("counter");
    append_line("", labels, "",
                is_ns ? fmt(static_cast<double>(c.total) / 1e9, num)
                      : fmt(c.total, num));
  }
  for (const GaugeSnapshot& g : snapshot.gauges) {
    name_.clear();
    const bool is_ns = append_family_name(g.name, name_);
    open_block("gauge");
    append_line("", labels, "",
                is_ns ? fmt(static_cast<double>(g.value) / 1e9, num)
                      : fmt(g.value, num));
  }
  for (const HistogramSnapshot& h : snapshot.histograms) {
    name_.clear();
    const bool is_ns = append_family_name(h.name, name_);
    const double scale = is_ns ? 1e-9 : 1.0;
    open_block("histogram");
    // Cumulative "le" buckets; only non-empty log2 buckets are emitted
    // (plus the mandatory +Inf), keeping the exposition compact.
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      if (h.buckets[b] == 0) continue;
      cumulative += h.buckets[b];
      append_line("_bucket", labels, bucket_label(b, is_ns),
                  fmt(cumulative, num));
    }
    append_line("_bucket", labels, "le=\"+Inf\"", fmt(h.count, num));
    append_line("_sum", labels, "",
                fmt(static_cast<double>(h.sum) * scale, num));
    append_line("_count", labels, "", fmt(h.count, num));
  }
}

void PrometheusRenderer::add_sample(const std::string& raw, const char* type,
                                    double value, const std::string& labels) {
  name_.clear();
  if (append_family_name(raw, name_)) value /= 1e9;
  if (std::string_view(type) == "counter") name_ += "_total";
  open_block(type);
  NumBuf num;
  append_line("", labels, "", fmt(value, num));
}

std::string PrometheusRenderer::render() const {
  std::size_t bytes = lines_.size();
  for (const Family& fam : families_) {
    bytes += fam.name.size() + fam.type.size() + 9;
  }
  std::string out;
  out.reserve(bytes);
  for (std::size_t f = 0; f < families_.size(); ++f) {
    out += "# TYPE ";
    out += families_[f].name;
    out += ' ';
    out += families_[f].type;
    out += '\n';
    for (const Block& block : blocks_) {
      if (block.family == f) {
        out.append(lines_, block.begin, block.end - block.begin);
      }
    }
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
