#include "replay.hpp"

#include <algorithm>
#include <cstdio>

#include "analysis/dressler.hpp"
#include "core/background.hpp"
#include "core/morphology.hpp"
#include "core/photometry.hpp"
#include "core/segmentation.hpp"
#include "image/fits.hpp"
#include "services/integrity.hpp"
#include "sim/render_cache.hpp"
#include "votable/table_ops.hpp"
#include "votable/votable_io.hpp"

namespace perfbench {

namespace {

using Scope = SpanRecorder::Scope;

// Sums wall seconds of repeated calls and reports the mean.
struct Timer {
  double total_s = 0.0;
  std::size_t calls = 0;

  template <typename F>
  auto time(F&& f) {
    const double t0 = now_s();
    auto result = f();
    total_s += now_s() - t0;
    ++calls;
    return result;
  }
  double mean_s() const { return calls == 0 ? 0.0 : total_s / calls; }
};

}  // namespace

std::vector<ReplayInputs::Galaxy> sample_galaxies(
    const std::vector<const nvo::sim::Cluster*>& clusters, std::size_t target) {
  std::size_t total = 0;
  for (const nvo::sim::Cluster* c : clusters) total += c->galaxies.size();
  const std::size_t stride = std::max<std::size_t>(1, total / std::max<std::size_t>(1, target));
  std::vector<ReplayInputs::Galaxy> out;
  std::size_t index = 0;
  for (const nvo::sim::Cluster* c : clusters) {
    for (const nvo::sim::GalaxyTruth& g : c->galaxies) {
      if (index++ % stride == 0) out.push_back({c, &g});
    }
  }
  return out;
}

void replay_layers(const ReplayInputs& in, SpanRecorder& spans, Metrics& out) {
  namespace core = nvo::core;
  const auto set = [&out](const std::string& name, double value,
                          const std::string& unit) { out[name] = Metric{value, unit}; };
  Scope root(&spans, "replay", "");

  Timer cutout, encode, decode, digest, background, segment, petrosian,
      asymmetry, galmorph;
  std::size_t fits_bytes = 0;
  std::size_t pixel_bytes = 0;
  core::MorphologyWorkspace ws;
  const core::MorphologyOptions kernel;
  for (const ReplayInputs::Galaxy& g : in.galaxies) {
    nvo::image::FitsFile fits;
    {
      Scope s(&spans, "sim::synthesize_galaxy_cutout", "sim");
      fits = cutout.time([&] {
        return nvo::sim::synthesize_galaxy_cutout(*g.cluster, *g.truth, in.cutout_size,
                                                  in.render, in.universe_seed,
                                                  in.corruption_rate);
      });
    }
    std::vector<std::uint8_t> bytes;
    {
      Scope s(&spans, "image::write_fits", "image");
      bytes = encode.time([&] { return nvo::image::write_fits(fits); });
    }
    fits_bytes += bytes.size();
    {
      Scope s(&spans, "image::read_fits", "image");
      const auto decoded = decode.time([&] { return nvo::image::read_fits(bytes); });
      if (!decoded.ok()) std::fprintf(stderr, "replay: read_fits failed\n");
    }
    {
      Scope s(&spans, "services::content_digest", "services");
      digest.time([&] { return nvo::services::integrity::content_digest(bytes); });
    }

    // The kernel's stages in measure_morphology order, on its workspace,
    // with the kernel's default options.
    const nvo::image::Image& img = fits.data;
    pixel_bytes += img.size() * sizeof(float);
    {
      Scope s(&spans, "core stages", "core");
      const core::BackgroundEstimate bg = background.time([&] {
        return core::estimate_background(img, kernel.background_border, 5, 3.0,
                                         ws.background_samples);
      });
      segment.time([&] {
        core::subtract_background_into(img, bg, ws.scratch);
        core::mask_companions_inplace(ws.scratch, bg.sigma, ws.segmentation);
        return 0;
      });
      const double limit = std::min(img.width(), img.height()) / 2.0 - 1.0;
      const auto r_p = petrosian.time([&] {
        const core::Centroid c = core::find_centroid(ws.scratch, limit);
        ws.cog.build(ws.scratch, c.x, c.y);
        return ws.cog.petrosian_radius(kernel.petrosian_eta, limit);
      });
      const double aperture =
          std::min(kernel.aperture_petrosian_factor * r_p.value_or(limit / 3.0), limit);
      // A 3x3 grid of centres at 0.5 px, then at 0.25 px about the best.
      asymmetry.time([&] {
        double best = 1e300, best_x = ws.cog.cx(), best_y = ws.cog.cy();
        for (const double step : {0.5, 0.25}) {
          const double base_x = best_x, base_y = best_y;
          for (int i = 0; i < 9; ++i) {
            const double x = base_x + (i % 3 - 1) * step;
            const double y = base_y + (i / 3 - 1) * step;
            const double a = core::asymmetry_statistic(ws.scratch, x, y, aperture);
            if (a < best) {
              best = a;
              best_x = x;
              best_y = y;
            }
          }
        }
        return best;
      });
    }
    {
      Scope s(&spans, "core::run_gal_morph", "core");
      core::GalMorphArgs args = in.args;
      args.redshift = g.truth->redshift;
      galmorph.time([&] { return core::run_gal_morph(g.truth->id, fits, args); });
    }
  }
  const double n = static_cast<double>(std::max<std::size_t>(1, in.galaxies.size()));
  set("sim.cutout_ms", 1e3 * cutout.mean_s(), "ms");
  set("image.fits_encode_us", 1e6 * encode.mean_s(), "us");
  set("image.fits_decode_us", 1e6 * decode.mean_s(), "us");
  set("image.fits_bytes", static_cast<double>(fits_bytes) / n, "bytes");
  set("services.integrity.digest_us_per_mb",
      fits_bytes == 0 ? 0.0 : 1e6 * digest.total_s / (fits_bytes / 1e6), "us/MB");
  set("core.background_us", 1e6 * background.mean_s(), "us");
  set("core.segment_us", 1e6 * segment.mean_s(), "us");
  set("core.petrosian_us", 1e6 * petrosian.mean_s(), "us");
  set("core.asymmetry_us", 1e6 * asymmetry.mean_s(), "us");
  set("core.galmorph_ms", 1e3 * galmorph.mean_s(), "ms");
  // Computed, not measured: the pixel bytes the kernel reads per cutout.
  set("core.bytes_per_galaxy", static_cast<double>(pixel_bytes) / n, "bytes");

  // Optical fields render through the process-wide cache; clearing it first
  // makes every call a real synthesis.
  Timer field;
  for (const nvo::sim::Cluster* c : in.field_clusters) {
    nvo::sim::RenderCache::instance().clear();
    Scope s(&spans, "sim::Universe::optical_field", "sim");
    field.time([&] { return in.universe->optical_field(*c, 512, 2.0); });
  }
  nvo::sim::RenderCache::instance().clear();
  set("sim.field_ms", 1e3 * field.mean_s(), "ms");

  Timer serialize, parse, join, dressler;
  std::size_t valid = 0, rows = 0;
  for (const ReplayInputs::Catalog& cat : in.catalogs) {
    std::string xml;
    {
      Scope s(&spans, "votable::to_votable_xml", "votable");
      xml = serialize.time([&] { return nvo::votable::to_votable_xml(cat.morphology); });
    }
    {
      Scope s(&spans, "votable::from_votable_xml", "votable");
      parse.time([&] { return nvo::votable::from_votable_xml(xml); });
    }
    const nvo::votable::Table ned = in.universe->ned_catalog(*cat.cluster);
    nvo::Expected<nvo::votable::Table> merged = nvo::votable::Table();
    {
      Scope s(&spans, "votable::join", "votable");
      merged = join.time([&] {
        return nvo::votable::join(ned, cat.morphology, "id", "id",
                                  nvo::votable::JoinKind::kLeft);
      });
    }
    if (merged.ok()) {
      Scope s(&spans, "analysis::analyze_cluster", "analysis");
      dressler.time([&] {
        return nvo::analysis::analyze_cluster(*merged, cat.cluster->center());
      });
    }
    for (std::size_t i = 0; i < cat.morphology.num_rows(); ++i) {
      ++rows;
      if (cat.morphology.cell(i, "valid").as_bool().value_or(false)) ++valid;
    }
  }
  set("votable.serialize_us", 1e6 * serialize.mean_s(), "us");
  set("votable.parse_us", 1e6 * parse.mean_s(), "us");
  set("votable.join_us", 1e6 * join.mean_s(), "us");
  set("analysis.dressler_ms", 1e3 * dressler.mean_s(), "ms");
  set("core.valid_ratio", rows == 0 ? 0.0 : static_cast<double>(valid) / rows, "ratio");
}

}  // namespace perfbench
