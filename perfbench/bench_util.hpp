// Helpers shared by the benchmark's workloads: wall clock, order
// statistics with an explicit sample-count rule, ROC-AUC, the in-memory
// span recorder used by traced runs, and the metric table printed as JSON.
// Nothing here depends on the repository's libraries, so the helpers are
// unit-tested on their own (tests/helpers_test.cpp).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the monotonic wall clock.
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// num / den, or 0 when den is not positive.
inline double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Median of a non-empty sample (mean of the middle pair for even sizes).
double median(std::vector<double> values);

/// Smallest sample count for which the q-quantile has at least ten samples
/// beyond it: ceil(10 / (1 - q)). p50 needs 20 samples, p90 needs 100.
std::size_t min_samples_for_percentile(double q);

/// Nearest-rank q-quantile (q in (0, 1)), or nullopt when the sample holds
/// fewer than min_samples_for_percentile(q) values.
std::optional<double> percentile(std::vector<double> values, double q);

/// ROC-AUC of `scores` against binary `labels` (Mann-Whitney U with
/// mid-ranks for ties): the probability that a random positive outscores a
/// random negative. nullopt when either class is empty or sizes differ.
std::optional<double> roc_auc(const std::vector<double>& scores,
                              const std::vector<bool>& labels);

/// Process peak resident set size, MB (getrusage ru_maxrss).
double peak_rss_mb();

/// CPU seconds the process has used so far, user plus system, all threads
/// (getrusage).
double cpu_s();

/// Spans recorded in memory around the public calls a traced run makes.
/// Each span names the `src/` module (layer) whose function it wraps.
class SpanRecorder {
 public:
  struct Record {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 for roots
    std::string name;
    std::string layer;
    double start_s = 0.0;
    double end_s = 0.0;
  };

  /// RAII span; closes on destruction. Inert when the recorder is null, so
  /// untraced runs pass nullptr and pay one branch per call.
  class Scope {
   public:
    Scope(SpanRecorder* recorder, std::string name, std::string layer);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* recorder_;
    std::size_t index_ = 0;
  };

  const std::vector<Record>& records() const { return records_; }

  /// Self time per layer over the subtree rooted at `root`: each span's
  /// duration minus the union of its children's intervals, summed by layer.
  /// The root's own self time is reported under its layer too.
  std::map<std::string, double> layer_self_seconds(std::uint64_t root) const;

  /// Duration of span `id` (0 when unknown).
  double duration_s(std::uint64_t id) const;

  /// Id of the most recently closed root span named `name` (0 when none).
  std::uint64_t last_root(const std::string& name) const;

  /// Spans as a JSON array (times in ms relative to the first span).
  std::string to_json() const;

 private:
  std::vector<Record> records_;
  std::vector<std::size_t> open_;  ///< stack of open record indices
};

/// One named metric with its unit, printed in the result line.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// The benchmark's last stdout line: {"correct", "attempted", "failed",
/// "metrics": {name: {"value", "unit"}}}. Values carry all their digits.
std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const Metrics& metrics);

/// JSON string literal with the minimal escapes.
std::string json_quote(const std::string& text);

/// Shortest round-trip decimal form of a double.
std::string json_number(double value);

/// FNV-1a over a byte string; used to compare catalogs across passes.
std::uint64_t fnv1a(const std::string& bytes);

}  // namespace perfbench
