// Unit tests for the benchmark's own helpers: ROC-AUC, the percentile
// sample-count rule, median, ratio, process CPU time, JSON number
// formatting and span self time.
#include <gtest/gtest.h>

#include <cmath>

#include "bench_util.hpp"

namespace perfbench {
namespace {

TEST(RocAuc, PerfectSeparationIsOne) {
  const auto auc = roc_auc({0.1, 0.2, 0.3, 0.8, 0.9}, {false, false, false, true, true});
  ASSERT_TRUE(auc.has_value());
  EXPECT_DOUBLE_EQ(*auc, 1.0);
}

TEST(RocAuc, InvertedSeparationIsZero) {
  const auto auc = roc_auc({0.9, 0.8, 0.1, 0.2}, {false, false, true, true});
  ASSERT_TRUE(auc.has_value());
  EXPECT_DOUBLE_EQ(*auc, 0.0);
}

TEST(RocAuc, AllTiesIsOneHalf) {
  const auto auc = roc_auc({0.5, 0.5, 0.5, 0.5, 0.5}, {true, false, true, false, false});
  ASSERT_TRUE(auc.has_value());
  EXPECT_DOUBLE_EQ(*auc, 0.5);
}

TEST(RocAuc, PartialOverlapCountsPairs) {
  // Positives {0.4, 0.8} vs negatives {0.1, 0.6}: 3 of 4 pairs ordered.
  const auto auc = roc_auc({0.1, 0.4, 0.6, 0.8}, {false, true, false, true});
  ASSERT_TRUE(auc.has_value());
  EXPECT_DOUBLE_EQ(*auc, 0.75);
}

TEST(RocAuc, SingleClassIsRejected) {
  EXPECT_FALSE(roc_auc({0.1, 0.2, 0.3}, {true, true, true}).has_value());
  EXPECT_FALSE(roc_auc({0.1, 0.2, 0.3}, {false, false, false}).has_value());
  EXPECT_FALSE(roc_auc({}, {}).has_value());
  EXPECT_FALSE(roc_auc({0.1, 0.2}, {true}).has_value());
}

TEST(Percentile, SampleCountRuleNeedsTenBeyond) {
  EXPECT_EQ(min_samples_for_percentile(0.5), 20u);
  EXPECT_EQ(min_samples_for_percentile(0.9), 100u);
  EXPECT_EQ(min_samples_for_percentile(0.99), 1000u);
  EXPECT_EQ(min_samples_for_percentile(0.0), 0u);
  EXPECT_EQ(min_samples_for_percentile(1.0), 0u);
}

TEST(Percentile, RefusesTooFewSamples) {
  std::vector<double> values(99);
  for (std::size_t i = 0; i < values.size(); ++i) values[i] = static_cast<double>(i + 1);
  EXPECT_FALSE(percentile(values, 0.9).has_value());
  values.push_back(100.0);
  const auto p90 = percentile(values, 0.9);
  ASSERT_TRUE(p90.has_value());
  EXPECT_DOUBLE_EQ(*p90, 90.0);
  EXPECT_DOUBLE_EQ(*percentile(values, 0.5), 50.0);
  EXPECT_FALSE(percentile(std::vector<double>(19, 1.0), 0.5).has_value());
}

TEST(Median, OddAndEven) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(Ratio, ZeroDenominatorIsZero) {
  EXPECT_DOUBLE_EQ(ratio(3.0, 4.0), 0.75);
  EXPECT_DOUBLE_EQ(ratio(3.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(ratio(3.0, -1.0), 0.0);
}

TEST(CpuTime, CountsBusyWork) {
  const double before = cpu_s();
  volatile double sink = 0.0;
  for (int i = 0; i < 20'000'000; ++i) sink = sink + std::sqrt(static_cast<double>(i));
  EXPECT_GT(cpu_s(), before);
}

TEST(JsonNumber, RoundTripsEveryDigit) {
  for (const double v : {1.2034, 0.1, 1.0 / 3.0, 12345.678901234567, 0.0}) {
    EXPECT_EQ(std::strtod(json_number(v).c_str(), nullptr), v);
  }
  EXPECT_EQ(json_number(20.0), "20");
  EXPECT_EQ(json_number(std::nan("")), "null");
}

TEST(SpanRecorder, SelfTimeSubtractsChildren) {
  SpanRecorder spans;
  {
    SpanRecorder::Scope root(&spans, "workload", "");
    SpanRecorder::Scope child(&spans, "call", "core");
  }
  const std::uint64_t root = spans.last_root("workload");
  ASSERT_EQ(root, 1u);
  const auto self = spans.layer_self_seconds(root);
  const double total = self.at("") + self.at("core");
  EXPECT_NEAR(total, spans.duration_s(root), 1e-12);
  EXPECT_EQ(spans.records()[1].parent, root);
}

}  // namespace
}  // namespace perfbench
