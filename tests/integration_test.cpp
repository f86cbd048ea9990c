// End-to-end integration tests: the full stack (universe -> federation ->
// portal -> Chimera/Pegasus/DAGMan -> morphology kernel -> Dressler
// analysis) on a scaled-down version of the paper's eight-cluster campaign.
#include <gtest/gtest.h>

#include "analysis/campaign.hpp"
#include "services/federation.hpp"

namespace nvo::analysis {
namespace {

CampaignConfig small_config() {
  CampaignConfig config;
  config.population_scale = 0.03;  // clusters of ~8-17 members
  config.compute_threads = 2;
  return config;
}

/// The galaxy-weighted mean of the Dressler signatures of every cluster
/// with at least `min_galaxies` galaxies.
DresslerReport pooled_dressler(const std::vector<ClusterOutcome>& clusters,
                               std::size_t min_galaxies) {
  DresslerReport pooled;
  double total = 0.0;
  for (const ClusterOutcome& c : clusters) {
    if (c.galaxies < min_galaxies) continue;
    const double w = static_cast<double>(c.galaxies);
    const DresslerReport& d = c.dressler;
    pooled.early_fraction_core += w * d.early_fraction_core;
    pooled.early_fraction_edge += w * d.early_fraction_edge;
    pooled.spearman_asymmetry_density += w * d.spearman_asymmetry_density;
    pooled.spearman_concentration_density += w * d.spearman_concentration_density;
    pooled.spearman_asymmetry_radius += w * d.spearman_asymmetry_radius;
    total += w;
  }
  EXPECT_GT(total, 0.0);
  if (total <= 0.0) return pooled;
  pooled.early_fraction_core /= total;
  pooled.early_fraction_edge /= total;
  pooled.spearman_asymmetry_density /= total;
  pooled.spearman_concentration_density /= total;
  pooled.spearman_asymmetry_radius /= total;
  return pooled;
}

TEST(Integration, SingleClusterEndToEnd) {
  Campaign campaign(small_config());
  const std::string name = campaign.universe().clusters().front().name();
  auto outcome = campaign.run_cluster(name);
  ASSERT_TRUE(outcome.ok()) << outcome.error().to_string();
  EXPECT_GT(outcome->galaxies, 0u);
  EXPECT_GT(outcome->valid, 0u);
  // Workflow accounting: one galMorph per galaxy + one concat.
  EXPECT_EQ(outcome->compute_jobs, outcome->galaxies + 1);
  EXPECT_GT(outcome->transfer_jobs, 0u);
  EXPECT_EQ(outcome->register_jobs, 1u);  // the output VOTable
  EXPECT_GT(outcome->makespan_seconds, 0.0);
}

TEST(Integration, FullCampaignAccountingAndScience) {
  // Larger population than the other tests: detecting the relation is a
  // statistical statement and needs tens of galaxies per cluster.
  CampaignConfig config = small_config();
  config.population_scale = 0.15;
  Campaign campaign(config);
  auto report = campaign.run();
  ASSERT_TRUE(report.ok()) << report.error().to_string();

  // Shape of the paper's §5 numbers (scaled).
  EXPECT_EQ(report->clusters.size(), 8u);
  EXPECT_EQ(report->pools_used, 3u);
  EXPECT_GT(report->total_galaxies, 60u);
  EXPECT_GT(report->max_galaxies, report->min_galaxies);
  EXPECT_EQ(report->total_compute_jobs, report->total_galaxies + 8u);
  EXPECT_EQ(report->total_images_fetched, report->total_galaxies);
  EXPECT_GT(report->total_bytes_transferred, 100000u);

  // The §5 science claim: the density-morphology relation appears. At 15%
  // of the paper's population a cluster holds 8-84 galaxies, and the sign
  // of a rank correlation over a few dozen of them is set by the noise
  // realisation as much as by the relation (the full-scale run is the S5
  // bench's job). So the signatures are pooled: each well-populated
  // cluster's core is richer in early types than its edge, and the
  // galaxy-weighted mean of the clusters' signatures, over the
  // well-populated ones and over all eight, shows every Dressler signature.
  for (const ClusterOutcome& c : report->clusters) {
    if (c.galaxies >= 30) {
      EXPECT_GT(c.dressler.early_fraction_core, c.dressler.early_fraction_edge) << c.name;
    }
  }
  EXPECT_TRUE(pooled_dressler(report->clusters, 30).relation_detected());
  EXPECT_TRUE(pooled_dressler(report->clusters, 0).relation_detected());

  // Fault tolerance: some cutouts are corrupted, none took down a run.
  std::size_t total_invalid = 0;
  for (const ClusterOutcome& c : report->clusters) total_invalid += c.invalid;
  EXPECT_GT(total_invalid, 0u);
  EXPECT_LT(total_invalid, report->total_galaxies / 4);

  // The report text renders.
  const std::string text = report->to_text();
  EXPECT_NE(text.find("clusters: 8"), std::string::npos);
}

TEST(Integration, RepeatClusterUsesResultCache) {
  Campaign campaign(small_config());
  const std::string name = campaign.universe().clusters().front().name();
  auto first = campaign.run_cluster(name);
  ASSERT_TRUE(first.ok());
  const double first_makespan = first->makespan_seconds;
  auto second = campaign.run_cluster(name);
  ASSERT_TRUE(second.ok());
  // The output VOTable is cached in the RLS: no new workflow runs.
  EXPECT_DOUBLE_EQ(second->makespan_seconds, 0.0);
  EXPECT_GT(first_makespan, 0.0);
  // And the science result is identical in count.
  EXPECT_EQ(second->valid, first->valid);
}

TEST(Integration, BatchedCutoutModeProducesSameScience) {
  CampaignConfig per_galaxy = small_config();
  per_galaxy.cutout_mode = portal::CutoutQueryMode::kPerGalaxy;
  CampaignConfig coalesced = small_config();  // kCoalesced is the default
  CampaignConfig batched = small_config();
  batched.cutout_mode = portal::CutoutQueryMode::kWideCone;
  Campaign a(per_galaxy);
  Campaign c(coalesced);
  Campaign b(batched);
  const std::string name = a.universe().clusters().front().name();
  auto ra = a.run_cluster(name);
  auto rc = c.run_cluster(name);
  auto rb = b.run_cluster(name);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rc.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(ra->galaxies, rb->galaxies);
  EXPECT_EQ(ra->galaxies, rc->galaxies);
  EXPECT_EQ(ra->valid, rb->valid);
  EXPECT_EQ(ra->valid, rc->valid);
  // The wide cone needs one cutout metadata query instead of N; coalesced
  // patches land in between.
  EXPECT_EQ(rb->portal_trace.cutout_queries, 1u);
  EXPECT_EQ(ra->portal_trace.cutout_queries, ra->galaxies);
  EXPECT_LT(rc->portal_trace.cutout_queries, ra->portal_trace.cutout_queries);
  EXPECT_LT(rb->portal_trace.cutout_query_ms, ra->portal_trace.cutout_query_ms);
  EXPECT_LT(rc->portal_trace.cutout_query_ms, ra->portal_trace.cutout_query_ms);
}

TEST(Integration, CorruptionSurfacesAsInvalidNotFailure) {
  CampaignConfig config = small_config();
  config.corruption_rate = 0.5;  // half the cutouts are bad
  Campaign campaign(config);
  const std::string name = campaign.universe().clusters().front().name();
  auto outcome = campaign.run_cluster(name);
  ASSERT_TRUE(outcome.ok()) << outcome.error().to_string();
  EXPECT_GT(outcome->invalid, 0u);
  EXPECT_GT(outcome->valid, 0u);
  EXPECT_EQ(outcome->valid + outcome->invalid, outcome->galaxies);
}

TEST(Integration, SitePolicyDoesNotChangeScience) {
  CampaignConfig random_config = small_config();
  CampaignConfig loaded_config = small_config();
  loaded_config.site_policy = pegasus::SitePolicy::kLeastLoaded;
  Campaign a(random_config);
  Campaign b(loaded_config);
  const std::string name = a.universe().clusters().front().name();
  auto ra = a.run_cluster(name);
  auto rb = b.run_cluster(name);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(ra->valid, rb->valid);
  EXPECT_EQ(ra->compute_jobs, rb->compute_jobs);
}

TEST(Integration, DeterministicAcrossIdenticalCampaigns) {
  Campaign a(small_config());
  Campaign b(small_config());
  const std::string name = a.universe().clusters().front().name();
  auto ra = a.run_cluster(name);
  auto rb = b.run_cluster(name);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(ra->galaxies, rb->galaxies);
  EXPECT_EQ(ra->valid, rb->valid);
  EXPECT_DOUBLE_EQ(ra->makespan_seconds, rb->makespan_seconds);
  ASSERT_EQ(ra->dressler.galaxies.size(), rb->dressler.galaxies.size());
  for (std::size_t i = 0; i < ra->dressler.galaxies.size(); ++i) {
    EXPECT_DOUBLE_EQ(ra->dressler.galaxies[i].asymmetry,
                     rb->dressler.galaxies[i].asymmetry);
  }
}

TEST(Integration, MeasuredMorphologyTracksGenerativeTruth) {
  // Cross-check the measured early-type classification against the
  // generator's type labels: agreement well above chance.
  Campaign campaign(small_config());
  const sim::Cluster& cluster = *campaign.universe().find_cluster(
      campaign.universe().clusters().front().name());
  auto outcome = campaign.run_cluster(cluster.name());
  ASSERT_TRUE(outcome.ok());

  std::size_t agree = 0;
  std::size_t total = 0;
  for (const AnalysisGalaxy& g : outcome->dressler.galaxies) {
    const sim::GalaxyTruth* truth = nullptr;
    for (const sim::GalaxyTruth& t : cluster.galaxies) {
      if (t.id == g.id) {
        truth = &t;
        break;
      }
    }
    ASSERT_NE(truth, nullptr) << g.id;
    const bool truth_early = truth->type == sim::MorphType::kElliptical ||
                             truth->type == sim::MorphType::kS0;
    ++total;
    if (truth_early == g.early_type) ++agree;
  }
  ASSERT_GT(total, 5u);
  EXPECT_GT(static_cast<double>(agree) / static_cast<double>(total), 0.6);
}

}  // namespace
}  // namespace nvo::analysis
