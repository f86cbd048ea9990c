// Data-plane invariants: the replica cache must change performance, never
// science (byte-identical morphology and Dressler outputs with the cache
// starved vs. unbounded); a warm cache must shrink the Pegasus plan; and
// the single-pass VOTable codec must be byte-identical to the tree path; and
// rendering the archive on the compute pool must not change a catalog byte.
#include <gtest/gtest.h>

#include "analysis/campaign.hpp"
#include "analysis/dressler.hpp"
#include "image/fits.hpp"
#include "sim/render_cache.hpp"
#include "sim/universe.hpp"
#include "votable/table_ops.hpp"
#include "votable/votable_io.hpp"
#include "votable/xml.hpp"

namespace nvo::analysis {
namespace {

CampaignConfig small_config() {
  CampaignConfig config;
  config.population_scale = 0.03;  // clusters of ~8-17 members
  config.compute_threads = 2;
  return config;
}

TEST(DataPlane, ScienceIsCacheInvariant) {
  // Identical campaigns except for the image-cache budget: the default
  // (everything resident) vs. a 1-byte budget (every insert evicts its
  // predecessors — the cache is effectively off). The staged bytes are
  // pinned by shared_ptr for the kernels, so the catalog, the golden
  // kernel values inside it, and the Dressler analysis must not move by
  // a single byte.
  CampaignConfig cache_on = small_config();
  CampaignConfig cache_off = small_config();
  cache_off.image_cache.byte_budget = 1;

  Campaign a(cache_on);
  Campaign b(cache_off);
  const std::string name = a.universe().clusters().front().name();
  const sky::Equatorial center = a.universe().clusters().front().center();

  auto ra = a.portal().run_analysis(name);
  auto rb = b.portal().run_analysis(name);
  ASSERT_TRUE(ra.ok()) << ra.error().to_string();
  ASSERT_TRUE(rb.ok()) << rb.error().to_string();

  EXPECT_EQ(votable::to_votable_xml(ra->catalog), votable::to_votable_xml(rb->catalog));

  auto da = analyze_cluster(ra->catalog, center);
  auto db = analyze_cluster(rb->catalog, center);
  ASSERT_TRUE(da.ok());
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(report_to_text(da.value()), report_to_text(db.value()));

  // The starved cache really did evict.
  EXPECT_GT(b.compute_service().replica_cache().stats().evictions, 0u);
}

TEST(DataPlane, WarmCachePrunesStageInTransfers) {
  Campaign campaign(small_config());
  const std::string name = campaign.universe().clusters().front().name();

  // Assemble the compute input the way the portal does.
  auto catalog = campaign.portal().build_galaxy_catalog(name);
  ASSERT_TRUE(catalog.ok());
  auto with_refs = campaign.portal().attach_cutout_refs(catalog.value(), name);
  ASSERT_TRUE(with_refs.ok());
  const auto url_col = with_refs->column_index("cutout_url");
  ASSERT_TRUE(url_col.has_value());
  const votable::Table input =
      votable::select(with_refs.value(), [&](const votable::Row& row) {
        const auto url = row[*url_col].as_string();
        return url && !url->empty();
      });
  ASSERT_GT(input.num_rows(), 0u);

  portal::MorphologyService& svc = campaign.compute_service();
  // Distinct output names so the second request misses the result cache
  // and must stage + plan again — this isolates the replica cache's effect.
  ASSERT_TRUE(svc.gal_morph_compute(input, "warm_cache_run1").ok());
  const portal::ServiceTrace cold = *svc.last_trace();
  ASSERT_TRUE(svc.gal_morph_compute(input, "warm_cache_run2").ok());
  const portal::ServiceTrace warm = *svc.last_trace();

  // Cold: every image over the (simulated) WAN. Warm: all served locally.
  EXPECT_EQ(cold.images_fetched, input.num_rows());
  EXPECT_EQ(warm.images_cached, input.num_rows());
  EXPECT_EQ(warm.images_fetched, 0u);
  EXPECT_GT(svc.replica_cache().stats().hits, 0u);

  // The warm plan moves less data: cache-resident LFNs are advertised in
  // the RLS, so Pegasus prunes/skips their stage-in transfer nodes.
  EXPECT_LT(warm.plan.transfer_nodes, cold.plan.transfer_nodes);

  // And the science agrees between the runs.
  EXPECT_EQ(warm.valid_results, cold.valid_results);
  EXPECT_EQ(warm.invalid_results, cold.invalid_results);
}

TEST(DataPlane, RenderCacheServesBitIdenticalFrames) {
  // The simulated archive memoizes frame synthesis process-wide. Because
  // every RNG stream is seeded from the truth records, a hit must be
  // byte-for-byte what a fresh render would produce — across repeated
  // requests and across separately constructed identical universes — while
  // differently seeded universes must never share frames.
  auto u1 = sim::Universe::make_paper_campaign(20031115, 0.02);
  const auto& cluster = u1.clusters().front();
  const auto& galaxy = cluster.galaxies.front();

  const auto before = sim::RenderCache::instance().stats();
  const auto cold = image::write_fits(u1.galaxy_cutout(cluster, galaxy));
  const auto warm = image::write_fits(u1.galaxy_cutout(cluster, galaxy));
  EXPECT_EQ(cold, warm);

  auto u2 = sim::Universe::make_paper_campaign(20031115, 0.02);
  const auto twin = image::write_fits(
      u2.galaxy_cutout(u2.clusters().front(), u2.clusters().front().galaxies.front()));
  EXPECT_EQ(cold, twin);

  const auto after = sim::RenderCache::instance().stats();
  EXPECT_GE(after.hits, before.hits + 2);

  auto u3 = sim::Universe::make_paper_campaign(40961024, 0.02);
  const auto other = image::write_fits(
      u3.galaxy_cutout(u3.clusters().front(), u3.clusters().front().galaxies.front()));
  EXPECT_NE(cold, other);
}

TEST(DataPlane, RenderExecutorLeavesTheCatalogByteIdentical) {
  // A campaign renders archive cutouts in row bands on its compute pool.
  // The catalog it serves must equal the one from a serially rendering
  // archive, byte for byte. The render cache is cleared before each run so
  // both runs synthesize every frame instead of reading the other's.
  CampaignConfig config = small_config();
  config.population_scale = 0.1;
  const auto run = [&](bool bound) {
    Campaign campaign(config);
    EXPECT_EQ(campaign.universe().render_executor(),
              &campaign.compute_service().render_executor());
    if (!bound) campaign.universe().set_render_executor(nullptr);
    const std::string name = campaign.universe().clusters().front().name();
    sim::RenderCache::instance().clear();
    const auto before = sim::RenderCache::instance().stats();
    auto outcome = campaign.run_cluster(name);
    const auto after = sim::RenderCache::instance().stats();
    EXPECT_TRUE(outcome.ok()) << outcome.error().to_string();
    EXPECT_EQ(after.hits, before.hits);
    EXPECT_GT(after.misses, before.misses + 40);
    return outcome.ok() ? outcome->catalog_xml : std::string();
  };
  const std::string banded = run(true);
  const std::string serial = run(false);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(banded, serial);
}

TEST(DataPlane, FastCodecByteIdenticalToTreePath) {
  votable::Table table({
      {"id", votable::DataType::kString, "", "meta.id", "identifier"},
      {"ra", votable::DataType::kDouble, "deg", "pos.eq.ra", ""},
      {"n", votable::DataType::kLong, "", "", ""},
      {"ok", votable::DataType::kBool, "", "", ""},
      {"note", votable::DataType::kString, "", "", "free text"},
  });
  table.name = "codec_check";
  table.description = "fast vs tree <&> \"quotes\"";
  (void)table.append_row({votable::Value::of_string("G<1>&"),
                          votable::Value::of_double(187.70593),
                          votable::Value::of_long(-42), votable::Value::of_bool(true),
                          votable::Value::of_string("a & b < c > d \"q\" 'x'")});
  (void)table.append_row({votable::Value::of_string(""), votable::Value(),
                          votable::Value::of_long(0), votable::Value::of_bool(false),
                          votable::Value()});

  // Byte identity: single-pass serializer vs. the XML tree path.
  const std::string fast = votable::to_votable_xml(table);
  const std::string tree = votable::xml_serialize(*votable::to_votable_tree(table));
  EXPECT_EQ(fast, tree);

  // Round trip through the fast parser preserves every cell.
  votable::VotableReader reader;
  votable::Table parsed;
  ASSERT_TRUE(reader.read(fast, parsed).ok());
  EXPECT_EQ(votable::to_votable_xml(parsed), fast);

  // Re-reading into the same table (schema match -> storage recycled) is
  // still correct after the table already holds rows.
  ASSERT_TRUE(reader.read(fast, parsed).ok());
  EXPECT_EQ(votable::to_votable_xml(parsed), fast);

  // An empty table exercises the self-closing element forms.
  votable::Table empty({{"x", votable::DataType::kDouble, "", "", ""}});
  empty.name = "empty";
  EXPECT_EQ(votable::to_votable_xml(empty),
            votable::xml_serialize(*votable::to_votable_tree(empty)));
}

}  // namespace
}  // namespace nvo::analysis
