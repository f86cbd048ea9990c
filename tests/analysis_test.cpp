// Tests for the analysis layer: statistics, local density, and the Dressler
// density-morphology analysis on catalogs with known structure.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/dressler.hpp"
#include "analysis/stats.hpp"
#include "common/rng.hpp"

namespace nvo::analysis {
namespace {

// ---------------------------------------------------------------------------
// stats
// ---------------------------------------------------------------------------

TEST(Stats, MeanMedianStddev) {
  const std::vector<double> v{1, 2, 3, 4, 100};
  EXPECT_DOUBLE_EQ(mean(v), 22.0);
  EXPECT_DOUBLE_EQ(median(v), 3.0);
  EXPECT_NEAR(stddev({2, 4, 4, 4, 5, 5, 7, 9}), 2.138, 0.01);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
  EXPECT_DOUBLE_EQ(stddev({1.0}), 0.0);
}

TEST(Stats, MedianEvenCount) {
  EXPECT_DOUBLE_EQ(median({1, 2, 3, 4}), 2.5);
}

TEST(Stats, PearsonPerfectAndInverse) {
  const std::vector<double> x{1, 2, 3, 4, 5};
  const std::vector<double> y{2, 4, 6, 8, 10};
  EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
  const std::vector<double> ny{10, 8, 6, 4, 2};
  EXPECT_NEAR(pearson(x, ny), -1.0, 1e-12);
}

TEST(Stats, PearsonConstantInputIsZero) {
  EXPECT_DOUBLE_EQ(pearson({1, 1, 1}, {1, 2, 3}), 0.0);
  EXPECT_DOUBLE_EQ(pearson({1, 2}, {1}), 0.0);  // size mismatch
}

TEST(Stats, PearsonIndependentNearZero) {
  Rng rng(3);
  std::vector<double> x(5000), y(5000);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = rng.normal();
    y[i] = rng.normal();
  }
  EXPECT_NEAR(pearson(x, y), 0.0, 0.05);
}

TEST(Stats, RanksWithTiesAveraged) {
  const auto r = ranks({10, 20, 20, 30});
  ASSERT_EQ(r.size(), 4u);
  EXPECT_DOUBLE_EQ(r[0], 1.0);
  EXPECT_DOUBLE_EQ(r[1], 2.5);
  EXPECT_DOUBLE_EQ(r[2], 2.5);
  EXPECT_DOUBLE_EQ(r[3], 4.0);
}

TEST(Stats, SpearmanMonotoneNonlinear) {
  // y = exp(x) is nonlinear but perfectly monotone: spearman = 1.
  std::vector<double> x, y;
  for (double v = 0.0; v < 5.0; v += 0.25) {
    x.push_back(v);
    y.push_back(std::exp(v));
  }
  EXPECT_NEAR(spearman(x, y), 1.0, 1e-12);
  EXPECT_GT(spearman(x, y), std::abs(pearson(x, y)) - 1.0);  // sanity
}

TEST(Stats, BinnedProfileMeansAndCounts) {
  std::vector<double> x, y;
  for (int i = 0; i < 100; ++i) {
    x.push_back(i < 50 ? 0.25 : 0.75);
    y.push_back(i < 50 ? 10.0 : 20.0);
  }
  const auto bins = binned_profile(x, y, 2, 0.0, 1.0);
  ASSERT_EQ(bins.size(), 2u);
  EXPECT_DOUBLE_EQ(bins[0].y_mean, 10.0);
  EXPECT_DOUBLE_EQ(bins[1].y_mean, 20.0);
  EXPECT_EQ(bins[0].count, 50u);
  EXPECT_NEAR(bins[0].x_center, 0.25, 1e-12);
}

TEST(Stats, BinnedProfileIgnoresOutOfRange) {
  const auto bins = binned_profile({-1.0, 0.5, 2.0}, {1, 2, 3}, 1, 0.0, 1.0);
  ASSERT_EQ(bins.size(), 1u);
  EXPECT_EQ(bins[0].count, 1u);
  EXPECT_DOUBLE_EQ(bins[0].y_mean, 2.0);
}

TEST(Stats, BinnedFraction) {
  std::vector<double> x{0.1, 0.2, 0.3, 0.7, 0.8, 0.9};
  std::vector<bool> f{true, true, false, false, false, true};
  const auto bins = binned_fraction(x, f, 2, 0.0, 1.0);
  ASSERT_EQ(bins.size(), 2u);
  EXPECT_NEAR(bins[0].fraction, 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(bins[1].fraction, 1.0 / 3.0, 1e-12);
}

TEST(Stats, BinnedDegenerateInputs) {
  EXPECT_TRUE(binned_profile({1}, {1}, 0, 0, 1).empty());
  EXPECT_TRUE(binned_profile({1}, {1, 2}, 2, 0, 1).empty());
  EXPECT_TRUE(binned_fraction({1}, {true}, 2, 1, 1).empty());
}

// ---------------------------------------------------------------------------
// local density
// ---------------------------------------------------------------------------

TEST(Density, DenserRegionHigherSigma) {
  // 40 galaxies packed in 1 arcmin, 10 spread over 10 arcmin.
  std::vector<sky::Equatorial> positions;
  const sky::Equatorial center{180.0, 0.0};
  Rng rng(5);
  for (int i = 0; i < 40; ++i) {
    positions.push_back(
        sky::offset_by_arcmin(center, rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)));
  }
  for (int i = 0; i < 10; ++i) {
    positions.push_back(sky::offset_by_arcmin(center, rng.uniform(5.0, 10.0),
                                              rng.uniform(5.0, 10.0)));
  }
  const auto density = local_density_arcmin2(positions, center, 10);
  double core_mean = 0.0, out_mean = 0.0;
  for (int i = 0; i < 40; ++i) core_mean += density[i];
  for (int i = 40; i < 50; ++i) out_mean += density[i];
  core_mean /= 40.0;
  out_mean /= 10.0;
  EXPECT_GT(core_mean, 5.0 * out_mean);
}

TEST(Density, HandlesTinySamples) {
  const sky::Equatorial c{0, 0};
  EXPECT_TRUE(local_density_arcmin2({}, c).empty());
  EXPECT_DOUBLE_EQ(local_density_arcmin2({c}, c)[0], 0.0);
  const auto two = local_density_arcmin2({c, sky::offset_by_arcmin(c, 1.0, 0.0)}, c, 10);
  EXPECT_EQ(two.size(), 2u);
  EXPECT_GT(two[0], 0.0);
}

// ---------------------------------------------------------------------------
// classifier + analyze_cluster
// ---------------------------------------------------------------------------

TEST(Classifier, LinearDiscriminant) {
  ClassifierThresholds th;  // C - 4A >= 2.6
  EXPECT_TRUE(classify_early_type(4.0, 0.05, th));    // clean elliptical
  EXPECT_TRUE(classify_early_type(2.85, 0.05, th));   // S0: mid C, tiny A
  EXPECT_FALSE(classify_early_type(2.0, 0.05, th));   // diffuse
  EXPECT_FALSE(classify_early_type(4.0, 0.40, th));   // concentrated but torn up
  EXPECT_FALSE(classify_early_type(2.9, 0.15, th));   // spiral with mid C
}

/// Builds a merged catalog with a known built-in relation: inner galaxies
/// concentrated+symmetric, outer diffuse+asymmetric.
votable::Table synthetic_merged(int n, double invalid_fraction = 0.1) {
  using votable::DataType;
  using votable::Field;
  using votable::Value;
  votable::Table t({
      Field{"id", DataType::kString, "", "", ""},
      Field{"ra", DataType::kDouble, "", "", ""},
      Field{"dec", DataType::kDouble, "", "", ""},
      Field{"valid", DataType::kBool, "", "", ""},
      Field{"concentration", DataType::kDouble, "", "", ""},
      Field{"asymmetry", DataType::kDouble, "", "", ""},
      Field{"surface_brightness", DataType::kDouble, "", "", ""},
  });
  const sky::Equatorial center{180.0, 0.0};
  Rng rng(11);
  for (int i = 0; i < n; ++i) {
    // r = 8u gives surface density Sigma ~ 1/r: centrally concentrated, so
    // local density genuinely varies (r = 8 sqrt(u) would be uniform).
    const double r = 8.0 * rng.uniform();  // arcmin
    const double theta = rng.uniform(0.0, 6.2831853);
    const auto pos =
        sky::offset_by_arcmin(center, r * std::cos(theta), r * std::sin(theta));
    const bool early = rng.uniform() < (0.9 - 0.08 * r);
    const bool valid = rng.uniform() > invalid_fraction;
    votable::Row row;
    row.push_back(Value::of_string("G" + std::to_string(i)));
    row.push_back(Value::of_double(pos.ra_deg));
    row.push_back(Value::of_double(pos.dec_deg));
    row.push_back(Value::of_bool(valid));
    if (valid) {
      row.push_back(Value::of_double(early ? rng.normal(4.2, 0.3)
                                           : rng.normal(2.4, 0.3)));
      row.push_back(Value::of_double(early ? std::max(0.0, rng.normal(0.05, 0.02))
                                           : rng.normal(0.30, 0.06)));
      row.push_back(Value::of_double(rng.normal(21.0, 0.5)));
    } else {
      row.emplace_back();
      row.emplace_back();
      row.emplace_back();
    }
    (void)t.append_row(std::move(row));
  }
  return t;
}

TEST(Dressler, DetectsBuiltInRelation) {
  const votable::Table merged = synthetic_merged(400);
  auto report = analyze_cluster(merged, {180.0, 0.0});
  ASSERT_TRUE(report.ok()) << report.error().to_string();
  EXPECT_GT(report->invalid_dropped, 0u);
  EXPECT_GT(report->galaxies.size(), 300u);
  EXPECT_TRUE(report->relation_detected());
  EXPECT_GT(report->early_fraction_core, report->early_fraction_edge + 0.2);
  EXPECT_LT(report->spearman_asymmetry_density, -0.2);
  EXPECT_GT(report->spearman_concentration_density, 0.2);
  EXPECT_GT(report->spearman_asymmetry_radius, 0.2);
}

TEST(Dressler, NoRelationInShuffledCatalog) {
  // Destroy the spatial structure: morphology independent of position.
  using votable::Value;
  votable::Table merged = synthetic_merged(400, 0.0);
  Rng rng(13);
  // Shuffle the concentration/asymmetry columns across rows.
  std::vector<std::size_t> perm(merged.num_rows());
  for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = i;
  rng.shuffle(perm);
  votable::Table shuffled = merged;
  for (std::size_t i = 0; i < perm.size(); ++i) {
    shuffled.set_cell(i, "concentration", merged.cell(perm[i], "concentration"));
    shuffled.set_cell(i, "asymmetry", merged.cell(perm[i], "asymmetry"));
  }
  auto report = analyze_cluster(shuffled, {180.0, 0.0});
  ASSERT_TRUE(report.ok());
  EXPECT_LT(std::abs(report->spearman_asymmetry_density), 0.15);
  EXPECT_LT(std::abs(report->spearman_concentration_density), 0.15);
}

TEST(Dressler, RequiresColumnsAndEnoughGalaxies) {
  votable::Table missing({votable::Field{"id", votable::DataType::kString, "", "", ""}});
  EXPECT_FALSE(analyze_cluster(missing, {0, 0}).ok());
  // Too few valid rows.
  const votable::Table tiny = synthetic_merged(5);
  EXPECT_FALSE(analyze_cluster(tiny, {180.0, 0.0}).ok());
}

TEST(Dressler, ReportTextContainsHeadlines) {
  const votable::Table merged = synthetic_merged(200);
  auto report = analyze_cluster(merged, {180.0, 0.0});
  ASSERT_TRUE(report.ok());
  const std::string text = report_to_text(report.value());
  EXPECT_NE(text.find("spearman"), std::string::npos);
  EXPECT_NE(text.find("density-morphology relation detected: YES"),
            std::string::npos);
}

TEST(Dressler, RadialBinCountHonored) {
  const votable::Table merged = synthetic_merged(300);
  auto report = analyze_cluster(merged, {180.0, 0.0}, 7);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->early_fraction_vs_radius.size(), 7u);
  EXPECT_EQ(report->early_fraction_vs_density.size(), 7u);
}

}  // namespace
}  // namespace nvo::analysis
