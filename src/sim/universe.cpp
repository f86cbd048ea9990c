#include "sim/universe.hpp"

#include <cmath>

#include "common/strings.hpp"
#include "sim/render_cache.hpp"

namespace nvo::sim {

namespace {

/// Feeds every field that can influence a rendered frame into the key hash.
/// A new GalaxyTruth or RenderOptions field MUST be added here, or stale
/// cache hits could serve frames rendered under the old definition.
void hash_galaxy(ContentHash& h, const GalaxyTruth& g) {
  h.text(g.id);
  h.f64(g.position.ra_deg);
  h.f64(g.position.dec_deg);
  h.f64(g.redshift);
  h.f64(g.mag);
  h.i32(static_cast<std::int32_t>(g.type));
  h.f64(g.total_flux);
  h.f64(g.r_e_pix);
  h.f64(g.sersic_n);
  h.f64(g.axis_ratio);
  h.f64(g.position_angle_rad);
  h.f64(g.arm_amplitude);
  h.f64(g.arm_pitch_rad);
  h.f64(g.clumpiness);
  h.u64(g.seed);
  h.f64(g.radius_arcmin);
}

void hash_render_options(ContentHash& h, const RenderOptions& opts) {
  h.f64(opts.pixel_scale_arcsec);
  h.f64(opts.sky_level);
  h.f64(opts.read_noise);
  h.i32(opts.poisson_noise ? 1 : 0);
  h.f64(opts.psf_fwhm_pix);
  h.i32(opts.supersample);
}

std::uint64_t hash_cluster_population(const Cluster& cluster) {
  ContentHash h;
  h.text(cluster.name());
  h.f64(cluster.center().ra_deg);
  h.f64(cluster.center().dec_deg);
  h.u64(cluster.galaxies.size());
  for (const GalaxyTruth& g : cluster.galaxies) hash_galaxy(h, g);
  return h.value();
}

}  // namespace

Universe Universe::make_paper_campaign(std::uint64_t seed, double population_scale) {
  UniverseConfig config;
  config.seed = seed;
  Universe u(config);
  // Eight clusters; member counts span the paper's 37-561 range and sum to
  // 1525 = the number of images the campaign processed (§5).
  struct Entry {
    const char* name;
    double ra, dec, z;
    int n;
  };
  const Entry entries[] = {
      {"MS0906", 137.30, 10.97, 0.172, 561},
      {"A2390", 328.40, 17.70, 0.228, 338},
      {"MS1455", 224.31, 22.34, 0.257, 229},
      {"A2029", 227.73, 5.74, 0.077, 152},
      {"MS1224", 186.74, 19.92, 0.325, 98},
      {"A1689", 197.87, -1.34, 0.183, 64},
      {"MS1358", 209.96, 62.51, 0.328, 46},
      {"MS1621", 245.90, 26.56, 0.426, 37},
  };
  std::uint64_t s = seed;
  for (const Entry& e : entries) {
    ClusterSpec spec;
    spec.name = e.name;
    spec.center = {e.ra, e.dec};
    spec.redshift = e.z;
    spec.n_galaxies =
        std::max(8, static_cast<int>(std::lround(e.n * population_scale)));
    // Spread matching the CNOC-era fields: dense enough for the
    // density-morphology gradient, sparse enough that 64-arcsec cutouts are
    // mostly single-source after companion masking.
    spec.core_radius_arcmin = 2.2;
    spec.extent_arcmin = 14.0;
    spec.seed = splitmix64(s);
    u.add_cluster(spec);
  }
  return u;
}

void Universe::add_cluster(const ClusterSpec& spec) {
  clusters_.push_back(generate_cluster(spec, config_.cosmology));
  population_digests_.push_back(hash_cluster_population(clusters_.back()));
}

std::uint64_t Universe::population_digest(const Cluster& cluster) const {
  for (std::size_t i = 0; i < clusters_.size(); ++i) {
    if (&clusters_[i] == &cluster) return population_digests_[i];
  }
  return hash_cluster_population(cluster);
}

const Cluster* Universe::find_cluster(const std::string& name) const {
  for (const Cluster& c : clusters_) {
    if (c.name() == name) return &c;
  }
  return nullptr;
}

image::FitsFile Universe::optical_field(const Cluster& cluster, int size,
                                        double pixel_scale_arcsec) const {
  ContentHash key;
  key.text("optical_field");
  key.i32(size);
  key.f64(pixel_scale_arcsec);
  hash_render_options(key, config_.render);
  key.u64(population_digest(cluster));
  return RenderCache::instance().get_or_render(key.value(), [&] {
    return render_optical_field(cluster, size, pixel_scale_arcsec);
  });
}

image::FitsFile Universe::render_optical_field(const Cluster& cluster, int size,
                                               double pixel_scale_arcsec) const {
  image::FitsFile out;
  out.data = image::Image(size, size, 0.0f);
  const image::Wcs wcs = image::Wcs::centered(
      cluster.center(), size, size, pixel_scale_arcsec / sky::kArcsecPerDeg);

  // The galaxy structural parameters are defined at 1"/pix; rescale radii
  // when compositing at the field pixel scale.
  RenderOptions opts = config_.render;
  opts.pixel_scale_arcsec = pixel_scale_arcsec;
  std::vector<GalaxyLight> lights;
  for (const GalaxyTruth& g : cluster.galaxies) {
    const auto px = wcs.sky_to_pixel(g.position);
    if (px.x < -32 || px.x >= size + 32 || px.y < -32 || px.y >= size + 32) continue;
    GalaxyTruth scaled = g;
    scaled.r_e_pix = std::max(0.8, g.r_e_pix / pixel_scale_arcsec);
    lights.push_back(prepare_galaxy_light(scaled, px.x, px.y, size, size, opts));
  }
  render_light(out.data, lights, render_executor_);
  Rng noise_rng(hash64(cluster.name()) ^ 0x0F1E1Dull);
  apply_noise(out.data, opts, noise_rng);

  wcs.to_header(out.header);
  out.header.set_string("OBJECT", cluster.name(), "galaxy cluster");
  out.header.set_string("SURVEY", "SIM-DSS", "simulated Digitized Sky Survey");
  out.header.set_real("REDSHIFT", cluster.redshift(), "cluster redshift");
  out.bitpix = -32;
  return out;
}

image::FitsFile Universe::xray_field(const Cluster& cluster, int size,
                                     double pixel_scale_arcsec) const {
  image::FitsFile out;
  out.data = render_xray_map(cluster, size, pixel_scale_arcsec, config_.xray);
  const image::Wcs wcs = image::Wcs::centered(
      cluster.center(), size, size, pixel_scale_arcsec / sky::kArcsecPerDeg);
  wcs.to_header(out.header);
  out.header.set_string("OBJECT", cluster.name(), "galaxy cluster");
  out.header.set_string("SURVEY", "SIM-XRAY", "simulated ROSAT/Chandra map");
  out.header.set_string("BANDPASS", "0.5-2.0keV", "");
  out.bitpix = -32;
  return out;
}

bool galaxy_cutout_is_corrupted(const GalaxyTruth& galaxy,
                                std::uint64_t universe_seed,
                                double corruption_rate) {
  // Deterministic per-galaxy draw, independent of request order.
  Rng rng(galaxy.seed ^ 0xBADC0DEull ^ universe_seed);
  return rng.bernoulli(corruption_rate);
}

bool Universe::cutout_is_corrupted(const GalaxyTruth& galaxy) const {
  return galaxy_cutout_is_corrupted(galaxy, config_.seed,
                                    config_.corruption_rate);
}

image::FitsFile Universe::galaxy_cutout(const Cluster& cluster,
                                        const GalaxyTruth& galaxy, int size) const {
  // The frame depends on the target, every potential neighbor, the render
  // options, and the corruption draw (galaxy.seed ^ config_.seed) — hash
  // them all so only a truly identical synthesis can hit.
  ContentHash key;
  key.text("galaxy_cutout");
  key.i32(size);
  key.u64(config_.seed);
  key.f64(config_.corruption_rate);
  hash_render_options(key, config_.render);
  hash_galaxy(key, galaxy);
  key.u64(population_digest(cluster));
  return RenderCache::instance().get_or_render(key.value(), [&] {
    return render_galaxy_cutout(cluster, galaxy, size);
  });
}

std::vector<GalaxyLight> cutout_lights(const Cluster& cluster, const GalaxyTruth& galaxy,
                                       int size, const RenderOptions& render) {
  const double c = (size - 1) / 2.0;
  // Main galaxy plus any neighbor whose light reaches the frame.
  std::vector<GalaxyLight> lights;
  lights.push_back(prepare_galaxy_light(galaxy, c, c, size, size, render));
  const double frame_arcmin =
      size * render.pixel_scale_arcsec / 60.0;  // full frame width
  for (const GalaxyTruth& other : cluster.galaxies) {
    if (other.id == galaxy.id) continue;
    const double sep_arcmin =
        sky::angular_separation_deg(galaxy.position, other.position) * 60.0;
    if (sep_arcmin > frame_arcmin) continue;
    // Tangent-plane offset of the neighbor in cutout pixels.
    const sky::TangentPlane tp = sky::project_tan(galaxy.position, other.position);
    const double px = c - tp.xi_deg * sky::kArcsecPerDeg / render.pixel_scale_arcsec;
    const double py = c + tp.eta_deg * sky::kArcsecPerDeg / render.pixel_scale_arcsec;
    lights.push_back(prepare_galaxy_light(other, px, py, size, size, render));
  }
  return lights;
}

image::FitsFile synthesize_galaxy_cutout(const Cluster& cluster,
                                         const GalaxyTruth& galaxy, int size,
                                         const RenderOptions& render,
                                         std::uint64_t universe_seed,
                                         double corruption_rate,
                                         const ParallelFor* executor) {
  image::FitsFile out;
  out.data = image::Image(size, size, 0.0f);
  render_light(out.data, cutout_lights(cluster, galaxy, size, render), executor);

  Rng noise_rng(galaxy.seed ^ 0x0157EEDull);
  apply_noise(out.data, render, noise_rng);
  if (galaxy_cutout_is_corrupted(galaxy, universe_seed, corruption_rate)) {
    Rng crng(galaxy.seed ^ 0xBADBEEFull);
    corrupt_image(out.data, crng);
  }

  const image::Wcs wcs = image::Wcs::centered(
      galaxy.position, size, size, render.pixel_scale_arcsec / sky::kArcsecPerDeg);
  wcs.to_header(out.header);
  out.header.set_string("OBJECT", galaxy.id, "galaxy");
  out.header.set_real("REDSHIFT", galaxy.redshift, "");
  out.header.set_real("MAG", galaxy.mag, "apparent magnitude");
  out.bitpix = -32;
  return out;
}

image::FitsFile Universe::render_galaxy_cutout(const Cluster& cluster,
                                               const GalaxyTruth& galaxy,
                                               int size) const {
  return synthesize_galaxy_cutout(cluster, galaxy, size, config_.render,
                                  config_.seed, config_.corruption_rate,
                                  render_executor_);
}

votable::Table Universe::ned_catalog(const Cluster& cluster) const {
  using votable::DataType;
  using votable::Field;
  using votable::Value;
  votable::Table t({
      Field{"id", DataType::kString, "", "meta.id", "object identifier"},
      Field{"ra", DataType::kDouble, "deg", "pos.eq.ra", "right ascension"},
      Field{"dec", DataType::kDouble, "deg", "pos.eq.dec", "declination"},
      Field{"redshift", DataType::kDouble, "", "src.redshift", ""},
      Field{"mag", DataType::kDouble, "mag", "phot.mag", "apparent magnitude"},
  });
  t.name = cluster.name() + "_NED";
  t.description = "simulated NED cone-search extract";
  for (const GalaxyTruth& g : cluster.galaxies) {
    (void)t.append_row({Value::of_string(g.id), Value::of_double(g.position.ra_deg),
                        Value::of_double(g.position.dec_deg),
                        Value::of_double(g.redshift), Value::of_double(g.mag)});
  }
  return t;
}

votable::Table Universe::cnoc_catalog(const Cluster& cluster) const {
  using votable::DataType;
  using votable::Field;
  using votable::Value;
  votable::Table t({
      Field{"id", DataType::kString, "", "meta.id", "object identifier"},
      Field{"ra", DataType::kDouble, "deg", "pos.eq.ra", ""},
      Field{"dec", DataType::kDouble, "deg", "pos.eq.dec", ""},
      Field{"velocity", DataType::kDouble, "km/s", "spect.dopplerVeloc", ""},
      Field{"g_r", DataType::kDouble, "mag", "phot.color", "g-r color"},
  });
  t.name = cluster.name() + "_CNOC";
  t.description = "simulated CNOC survey extract";
  for (const GalaxyTruth& g : cluster.galaxies) {
    // Color correlates with type: red sequence for early types.
    Rng grng(g.seed ^ 0xC0102ull);
    const bool early =
        g.type == MorphType::kElliptical || g.type == MorphType::kS0;
    const double color = early ? grng.normal(0.75, 0.05) : grng.normal(0.45, 0.10);
    (void)t.append_row({Value::of_string(g.id), Value::of_double(g.position.ra_deg),
                        Value::of_double(g.position.dec_deg),
                        Value::of_double(g.redshift * sky::kSpeedOfLightKmS),
                        Value::of_double(color)});
  }
  return t;
}

votable::Table Universe::truth_catalog(const Cluster& cluster) const {
  using votable::DataType;
  using votable::Field;
  using votable::Value;
  votable::Table t({
      Field{"id", DataType::kString, "", "meta.id", ""},
      Field{"type", DataType::kString, "", "src.morph.type", "generative type"},
      Field{"radius_arcmin", DataType::kDouble, "arcmin", "pos.distance", ""},
      Field{"sersic_n", DataType::kDouble, "", "", ""},
      Field{"arm_amplitude", DataType::kDouble, "", "", ""},
      Field{"clumpiness", DataType::kDouble, "", "", ""},
      Field{"corrupted", DataType::kBool, "", "", "cutout arrives corrupted"},
  });
  t.name = cluster.name() + "_TRUTH";
  for (const GalaxyTruth& g : cluster.galaxies) {
    (void)t.append_row({Value::of_string(g.id), Value::of_string(to_string(g.type)),
                        Value::of_double(g.radius_arcmin),
                        Value::of_double(g.sersic_n),
                        Value::of_double(g.arm_amplitude),
                        Value::of_double(g.clumpiness),
                        Value::of_bool(cutout_is_corrupted(g))});
  }
  return t;
}

}  // namespace nvo::sim
