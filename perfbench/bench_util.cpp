#include "bench_util.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::size_t min_samples_for_percentile(double q) {
  if (!(q > 0.0 && q < 1.0)) return 0;
  // The epsilon keeps 10 / (1 - 0.9) = 100.000...01 from rounding up to 101.
  return static_cast<std::size_t>(std::ceil(10.0 / (1.0 - q) - 1e-9));
}

std::optional<double> percentile(std::vector<double> values, double q) {
  const std::size_t need = min_samples_for_percentile(q);
  if (need == 0 || values.size() < need) return std::nullopt;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

std::optional<double> roc_auc(const std::vector<double>& scores,
                              const std::vector<bool>& labels) {
  if (scores.size() != labels.size()) return std::nullopt;
  const std::size_t n = scores.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return scores[a] < scores[b]; });
  // Mid-ranks (1-based) over runs of tied scores.
  std::vector<double> rank(n);
  for (std::size_t i = 0; i < n;) {
    std::size_t j = i;
    while (j + 1 < n && scores[order[j + 1]] == scores[order[i]]) ++j;
    const double mid = 0.5 * static_cast<double>(i + j) + 1.0;
    for (std::size_t k = i; k <= j; ++k) rank[order[k]] = mid;
    i = j + 1;
  }
  double positives = 0.0;
  double rank_sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (labels[i]) {
      positives += 1.0;
      rank_sum += rank[i];
    }
  }
  const double negatives = static_cast<double>(n) - positives;
  if (positives == 0.0 || negatives == 0.0) return std::nullopt;
  const double u = rank_sum - positives * (positives + 1.0) / 2.0;
  return u / (positives * negatives);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is kB
}

double cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) { return t.tv_sec + 1e-6 * t.tv_usec; };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

SpanRecorder::Scope::Scope(SpanRecorder* recorder, std::string name,
                           std::string layer)
    : recorder_(recorder) {
  if (recorder_ == nullptr) return;
  Record r;
  r.id = recorder_->records_.size() + 1;
  r.parent = recorder_->open_.empty()
                 ? 0
                 : recorder_->records_[recorder_->open_.back()].id;
  r.name = std::move(name);
  r.layer = std::move(layer);
  r.start_s = now_s();
  index_ = recorder_->records_.size();
  recorder_->records_.push_back(std::move(r));
  recorder_->open_.push_back(index_);
}

SpanRecorder::Scope::~Scope() {
  if (recorder_ == nullptr) return;
  recorder_->records_[index_].end_s = now_s();
  recorder_->open_.pop_back();
}

std::map<std::string, double> SpanRecorder::layer_self_seconds(
    std::uint64_t root) const {
  std::map<std::uint64_t, std::vector<const Record*>> children;
  for (const Record& r : records_) children[r.parent].push_back(&r);
  std::map<std::string, double> out;
  std::vector<const Record*> stack;
  if (root == 0 || root > records_.size()) return out;
  stack.push_back(&records_[root - 1]);
  while (!stack.empty()) {
    const Record* r = stack.back();
    stack.pop_back();
    // Union of child intervals, clipped to the parent.
    std::vector<std::pair<double, double>> spans;
    for (const Record* c : children[r->id]) {
      spans.emplace_back(std::max(c->start_s, r->start_s),
                         std::min(c->end_s, r->end_s));
      stack.push_back(c);
    }
    std::sort(spans.begin(), spans.end());
    double covered = 0.0;
    double cur_lo = 0.0, cur_hi = -1.0;
    for (const auto& [lo, hi] : spans) {
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    out[r->layer] += std::max(0.0, (r->end_s - r->start_s) - covered);
  }
  return out;
}

double SpanRecorder::duration_s(std::uint64_t id) const {
  if (id == 0 || id > records_.size()) return 0.0;
  const Record& r = records_[id - 1];
  return r.end_s - r.start_s;
}

std::uint64_t SpanRecorder::last_root(const std::string& name) const {
  for (auto it = records_.rbegin(); it != records_.rend(); ++it) {
    if (it->parent == 0 && it->name == name) return it->id;
  }
  return 0;
}

std::string SpanRecorder::to_json() const {
  const double t0 = records_.empty() ? 0.0 : records_.front().start_s;
  std::string out = "[";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    if (i > 0) out += ",\n";
    out += "{\"id\":" + std::to_string(r.id) +
           ",\"parent\":" + std::to_string(r.parent) +
           ",\"name\":" + json_quote(r.name) +
           ",\"layer\":" + json_quote(r.layer) +
           ",\"start_ms\":" + json_number(1e3 * (r.start_s - t0)) +
           ",\"dur_ms\":" + json_number(1e3 * (r.end_s - r.start_s)) + "}";
  }
  out += "]\n";
  return out;
}

std::string json_quote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[32];
  if (value == std::floor(value) && std::fabs(value) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", value);
    return buf;
  }
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
    if (std::strtod(buf, nullptr) == value) break;
  }
  return buf;
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const Metrics& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) out += ", ";
    first = false;
    out += json_quote(name) + ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_quote(m.unit) + "}";
  }
  out += "}}";
  return out;
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace perfbench
