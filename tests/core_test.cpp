// Tests for the science kernel: background estimation, photometry, the
// three morphology parameters, and the galMorph transformation wrapper.
// Validation strategy: synthesize galaxies with known structure (via the
// sim module) and check that the estimators recover the expected orderings
// (E more concentrated and more symmetric than Sp) and invariances.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/background.hpp"
#include "core/galmorph.hpp"
#include "core/morphology.hpp"
#include "core/photometry.hpp"
#include "sim/galaxy.hpp"

namespace nvo::core {
namespace {

using sim::GalaxyTruth;
using sim::MorphType;
using sim::RenderOptions;

RenderOptions clean_render() {
  RenderOptions opts;
  opts.poisson_noise = false;
  opts.read_noise = 0.0;
  opts.sky_level = 0.0;
  return opts;
}

RenderOptions noisy_render() {
  RenderOptions opts;  // defaults: sky 10, read noise 3, poisson on
  return opts;
}

GalaxyTruth make_truth(MorphType type, const std::string& id) {
  GalaxyTruth g;
  g.id = id;
  g.seed = hash64(id);
  g.type = type;
  g.total_flux = 8e4;
  g.r_e_pix = 4.0;
  switch (type) {
    case MorphType::kElliptical:
      g.sersic_n = 4.0;
      g.axis_ratio = 0.85;
      break;
    case MorphType::kS0:
      g.sersic_n = 2.5;
      g.axis_ratio = 0.7;
      break;
    case MorphType::kSpiral:
      g.sersic_n = 1.0;
      g.axis_ratio = 0.7;
      g.arm_amplitude = 0.6;
      g.clumpiness = 0.1;
      g.r_e_pix = 6.0;
      break;
    case MorphType::kIrregular:
      g.sersic_n = 0.9;
      g.axis_ratio = 0.6;
      g.arm_amplitude = 0.2;
      g.clumpiness = 0.4;
      break;
  }
  return g;
}

// ---------------------------------------------------------------------------
// background
// ---------------------------------------------------------------------------

TEST(Background, RecoversFlatLevel) {
  image::Image img(64, 64, 0.0f);
  sim::RenderOptions opts = noisy_render();
  opts.sky_level = 50.0;
  Rng rng(3);
  sim::apply_noise(img, opts, rng);
  const BackgroundEstimate bg = estimate_background(img);
  EXPECT_NEAR(bg.level, 50.0, 2.0);
  // Poisson(50) + read 3 -> sigma ~ sqrt(50 + 9) ~ 7.7.
  EXPECT_NEAR(bg.sigma, 7.7, 1.5);
  EXPECT_GT(bg.pixels_used, 500);
}

TEST(Background, ClippingRejectsSourceLight) {
  // A bright galaxy in the center must not bias the border estimate much.
  GalaxyTruth g = make_truth(MorphType::kElliptical, "BG_E");
  sim::RenderOptions opts = noisy_render();
  opts.sky_level = 30.0;
  const image::Image img = sim::render_galaxy(g, 64, opts);
  const BackgroundEstimate bg = estimate_background(img);
  EXPECT_NEAR(bg.level, 30.0, 4.0);
}

TEST(Background, SubtractShiftsMean) {
  image::Image img(32, 32, 12.0f);
  BackgroundEstimate bg;
  bg.level = 12.0;
  const image::Image sub = subtract_background(img, bg);
  EXPECT_NEAR(sub.mean_value(), 0.0, 1e-5);
}

TEST(Background, TinyImageDoesNotCrash) {
  image::Image img(4, 4, 5.0f);
  const BackgroundEstimate bg = estimate_background(img);
  EXPECT_NEAR(bg.level, 5.0, 1e-5);
}

// ---------------------------------------------------------------------------
// photometry
// ---------------------------------------------------------------------------

TEST(Photometry, CentroidFindsOffsetSource) {
  GalaxyTruth g = make_truth(MorphType::kElliptical, "CEN_E");
  image::Image img(65, 65, 0.0f);
  sim::add_galaxy_light(img, g, 36.0, 29.0, clean_render());
  const Centroid c = find_centroid(img, 30.0);
  EXPECT_TRUE(c.converged);
  EXPECT_NEAR(c.x, 36.0, 0.3);
  EXPECT_NEAR(c.y, 29.0, 0.3);
}

TEST(Photometry, CentroidOnEmptyFrameStaysPut) {
  image::Image img(33, 33, 0.0f);
  const Centroid c = find_centroid(img, 15.0);
  EXPECT_FALSE(c.converged);
  EXPECT_NEAR(c.x, 16.0, 1e-9);
}

TEST(Photometry, ApertureFluxOfUniformDisk) {
  // Uniform image: flux in radius r is ~ pi r^2 * value.
  image::Image img(101, 101, 2.0f);
  const double flux = aperture_flux(img, 50.0, 50.0, 20.0);
  EXPECT_NEAR(flux, 3.14159265 * 400.0 * 2.0, flux * 0.01);
}

TEST(Photometry, ApertureFluxMonotonicInRadius) {
  GalaxyTruth g = make_truth(MorphType::kElliptical, "AP_E");
  const image::Image img = sim::render_galaxy(g, 65, clean_render());
  double prev = 0.0;
  for (double r = 2.0; r <= 30.0; r += 2.0) {
    const double f = aperture_flux(img, 32.0, 32.0, r);
    EXPECT_GE(f, prev);
    prev = f;
  }
}

TEST(Photometry, RadiusEnclosingOrdersFractions) {
  GalaxyTruth g = make_truth(MorphType::kElliptical, "RE_E");
  const image::Image img = sim::render_galaxy(g, 97, clean_render());
  const double total = aperture_flux(img, 48.0, 48.0, 45.0);
  const auto r20 = radius_enclosing(img, 48.0, 48.0, 0.2, total, 45.0);
  const auto r50 = radius_enclosing(img, 48.0, 48.0, 0.5, total, 45.0);
  const auto r80 = radius_enclosing(img, 48.0, 48.0, 0.8, total, 45.0);
  ASSERT_TRUE(r20 && r50 && r80);
  EXPECT_LT(*r20, *r50);
  EXPECT_LT(*r50, *r80);
}

TEST(Photometry, RadiusEnclosingRejectsBadInput) {
  image::Image img(32, 32, 1.0f);
  EXPECT_FALSE(radius_enclosing(img, 16, 16, 0.5, -1.0, 10.0).has_value());
  EXPECT_FALSE(radius_enclosing(img, 16, 16, 1.5, 10.0, 10.0).has_value());
}

TEST(Photometry, PetrosianRadiusScalesWithSize) {
  GalaxyTruth small = make_truth(MorphType::kElliptical, "P_S");
  small.r_e_pix = 3.0;
  GalaxyTruth big = make_truth(MorphType::kElliptical, "P_B");
  big.r_e_pix = 6.0;
  const image::Image s_img = sim::render_galaxy(small, 97, clean_render());
  const image::Image b_img = sim::render_galaxy(big, 97, clean_render());
  const auto rp_s = petrosian_radius(s_img, 48.0, 48.0);
  const auto rp_b = petrosian_radius(b_img, 48.0, 48.0);
  ASSERT_TRUE(rp_s && rp_b);
  EXPECT_GT(*rp_b, *rp_s * 1.3);
}

TEST(Photometry, PetrosianUndefinedOnEmptySky) {
  image::Image img(64, 64, 0.0f);
  EXPECT_FALSE(petrosian_radius(img, 32.0, 32.0).has_value());
}

// ---------------------------------------------------------------------------
// morphology parameters
// ---------------------------------------------------------------------------

// One frame's C and A are a single noise realisation: the E-vs-Sp gap is a
// few tenths in C and about 0.1 in A, while one frame's noise moves either
// by a comparable amount. So each ordering below is stated on means over a
// fixed set of truths: `base` under the named id plus `n - 1` more ids
// derived from it ("M_E1", "M_E1.1", ...), which average the realisation
// out.
struct MeanMorphology {
  double concentration = 0.0;
  double asymmetry = 0.0;
};

MeanMorphology mean_morphology(const GalaxyTruth& base,
                               const std::vector<std::string>& ids) {
  MeanMorphology mean;
  for (const std::string& id : ids) {
    GalaxyTruth g = base;
    g.id = id;
    g.seed = hash64(id);
    const auto p = measure_morphology(sim::render_galaxy(g, 64, noisy_render()));
    EXPECT_TRUE(p.valid) << id << ": " << p.failure_reason;
    mean.concentration += p.concentration / static_cast<double>(ids.size());
    mean.asymmetry += p.asymmetry / static_cast<double>(ids.size());
  }
  return mean;
}

std::vector<std::string> truth_ids(const std::string& first, int n = 16) {
  std::vector<std::string> ids{first};
  for (int k = 1; k < n; ++k) ids.push_back(first + "." + std::to_string(k));
  return ids;
}

// The two ordering pairs share size, shape and flux (the spiral's r_e, the
// elliptical's axis ratio), so each measures only the structure it names
// instead of also comparing sizes and surface brightnesses.
GalaxyTruth matched_truth(MorphType type) {
  GalaxyTruth g = make_truth(type, "");
  g.r_e_pix = 6.0;
  g.axis_ratio = 0.85;
  return g;
}

TEST(Morphology, EllipticalMoreConcentratedThanSpiral) {
  // Only the Sersic index differs: the spiral's arms and clumps are off.
  GalaxyTruth spiral = matched_truth(MorphType::kSpiral);
  spiral.arm_amplitude = 0.0;
  spiral.clumpiness = 0.0;
  const MeanMorphology e =
      mean_morphology(matched_truth(MorphType::kElliptical), truth_ids("M_E1"));
  const MeanMorphology s = mean_morphology(spiral, truth_ids("M_S1"));
  EXPECT_GT(e.concentration, s.concentration);
}

TEST(Morphology, SpiralMoreAsymmetricThanElliptical) {
  // Only the arms and clumps differ: the elliptical takes the spiral's
  // Sersic index.
  const GalaxyTruth spiral = matched_truth(MorphType::kSpiral);
  GalaxyTruth elliptical = matched_truth(MorphType::kElliptical);
  elliptical.sersic_n = spiral.sersic_n;
  const MeanMorphology e = mean_morphology(elliptical, truth_ids("M_E2"));
  const MeanMorphology s = mean_morphology(spiral, truth_ids("M_S2"));
  EXPECT_GT(s.asymmetry, e.asymmetry + 0.05);
}

TEST(Morphology, OrderingsHoldAcrossSeeds) {
  // Population-level check: n independent comparisons, each between the
  // means of `group` truths of either type (pair i holds POP_Ei, POP_E(i+n),
  // ...), so one comparison is not decided by a single frame's noise.
  int concentration_ok = 0;
  int asymmetry_ok = 0;
  const int n = 8;
  const int group = 4;
  for (int i = 0; i < n; ++i) {
    std::vector<std::string> e_ids, s_ids;
    for (int k = 0; k < group; ++k) {
      e_ids.push_back("POP_E" + std::to_string(i + k * n));
      s_ids.push_back("POP_S" + std::to_string(i + k * n));
    }
    const MeanMorphology e = mean_morphology(make_truth(MorphType::kElliptical, ""), e_ids);
    const MeanMorphology s = mean_morphology(make_truth(MorphType::kSpiral, ""), s_ids);
    if (e.concentration > s.concentration) ++concentration_ok;
    if (s.asymmetry > e.asymmetry) ++asymmetry_ok;
  }
  EXPECT_GE(concentration_ok, n - 1);
  EXPECT_GE(asymmetry_ok, n - 1);
}

TEST(Morphology, BrighterGalaxyHasBrighterSurfaceBrightness) {
  GalaxyTruth faint = make_truth(MorphType::kElliptical, "SB_F");
  faint.total_flux = 2e4;
  GalaxyTruth bright = make_truth(MorphType::kElliptical, "SB_B");
  bright.total_flux = 2e5;
  const auto f = measure_morphology(sim::render_galaxy(faint, 64, noisy_render()));
  const auto b = measure_morphology(sim::render_galaxy(bright, 64, noisy_render()));
  ASSERT_TRUE(f.valid && b.valid);
  // Magnitudes: brighter = smaller number.
  EXPECT_LT(b.surface_brightness, f.surface_brightness);
}

TEST(Morphology, ZeroPointShiftsSurfaceBrightness) {
  const image::Image img =
      sim::render_galaxy(make_truth(MorphType::kElliptical, "ZP"), 64, noisy_render());
  MorphologyOptions a;
  MorphologyOptions b;
  b.zero_point = 25.0;
  const auto pa = measure_morphology(img, a);
  const auto pb = measure_morphology(img, b);
  ASSERT_TRUE(pa.valid && pb.valid);
  EXPECT_NEAR(pb.surface_brightness - pa.surface_brightness, 25.0, 1e-6);
}

TEST(Morphology, CorruptedFrameInvalid) {
  image::Image img =
      sim::render_galaxy(make_truth(MorphType::kElliptical, "COR"), 64, noisy_render());
  Rng rng(9);
  sim::corrupt_image(img, rng);
  const auto p = measure_morphology(img);
  EXPECT_FALSE(p.valid);
  EXPECT_NE(p.failure_reason.find("saturated"), std::string::npos);
}

TEST(Morphology, NonFinitePixelsInvalid) {
  image::Image img(64, 64, 10.0f);
  img.at(10, 10) = std::numeric_limits<float>::quiet_NaN();
  EXPECT_FALSE(measure_morphology(img).valid);
}

TEST(Morphology, EmptySkyInvalid) {
  image::Image img(64, 64, 0.0f);
  sim::RenderOptions opts = noisy_render();
  Rng rng(11);
  sim::apply_noise(img, opts, rng);
  const auto p = measure_morphology(img);
  EXPECT_FALSE(p.valid);
}

TEST(Morphology, TooSmallFrameInvalid) {
  EXPECT_FALSE(measure_morphology(image::Image(8, 8, 1.0f)).valid);
  EXPECT_FALSE(measure_morphology(image::Image{}).valid);
}

TEST(Morphology, AsymmetryStatisticZeroForPointSymmetric) {
  // A circular Gaussian is point-symmetric: statistic ~ 0 about its center.
  image::Image img(65, 65, 0.0f);
  for (int y = 0; y < 65; ++y) {
    for (int x = 0; x < 65; ++x) {
      const double dx = x - 32.0;
      const double dy = y - 32.0;
      img.at(x, y) = static_cast<float>(std::exp(-(dx * dx + dy * dy) / 50.0));
    }
  }
  EXPECT_LT(asymmetry_statistic(img, 32.0, 32.0, 20.0), 0.01);
}

TEST(Morphology, AsymmetryGrowsWithArmAmplitude) {
  double prev = -1.0;
  for (double amp : {0.0, 0.3, 0.7}) {
    GalaxyTruth g = make_truth(MorphType::kSpiral, "AMP");
    g.clumpiness = 0.0;
    g.arm_amplitude = amp;
    const auto p = measure_morphology(sim::render_galaxy(g, 64, clean_render()),
                                      MorphologyOptions{});
    ASSERT_TRUE(p.valid) << p.failure_reason;
    EXPECT_GT(p.asymmetry, prev);
    prev = p.asymmetry;
  }
}

// ---------------------------------------------------------------------------
// galMorph transformation
// ---------------------------------------------------------------------------

TEST(GalMorph, ArgsRoundTripThroughStringMap) {
  GalMorphArgs args;
  args.redshift = 0.027886;
  args.pix_scale_deg = 2.831933107035062e-4;
  args.zero_point = 24.5;
  args.h0 = 72.0;
  args.omega_m = 0.27;
  args.flat = true;
  auto parsed = GalMorphArgs::from_args(args.to_args());
  ASSERT_TRUE(parsed.ok());
  EXPECT_DOUBLE_EQ(parsed->redshift, args.redshift);
  EXPECT_DOUBLE_EQ(parsed->pix_scale_deg, args.pix_scale_deg);
  EXPECT_DOUBLE_EQ(parsed->h0, 72.0);
  EXPECT_TRUE(parsed->flat);
}

TEST(GalMorph, ArgsDefaultsWhenMissing) {
  auto parsed = GalMorphArgs::from_args({});
  ASSERT_TRUE(parsed.ok());
  EXPECT_DOUBLE_EQ(parsed->h0, 100.0);  // paper default
  EXPECT_DOUBLE_EQ(parsed->omega_m, 0.3);
}

TEST(GalMorph, ArgsRejectMalformed) {
  EXPECT_FALSE(GalMorphArgs::from_args({{"redshift", "abc"}}).ok());
  EXPECT_FALSE(GalMorphArgs::from_args({{"flat", "maybe"}}).ok());
}

TEST(GalMorph, RunOnRenderedCutout) {
  GalaxyTruth g = make_truth(MorphType::kElliptical, "RUN_E");
  image::FitsFile fits;
  fits.data = sim::render_galaxy(g, 64, noisy_render());
  GalMorphArgs args;
  args.redshift = 0.15;
  const GalMorphResult r = run_gal_morph(g.id, fits, args);
  EXPECT_TRUE(r.params.valid) << r.params.failure_reason;
  EXPECT_EQ(r.galaxy_id, g.id);
  EXPECT_GT(r.kpc_per_arcsec, 1.0);
  EXPECT_GT(r.petrosian_r_kpc, 0.0);
}

TEST(GalMorph, UndecodableBytesAreInvalidNotFatal) {
  const GalMorphResult r =
      run_gal_morph_bytes("BAD", std::vector<std::uint8_t>(100, 0xFF), GalMorphArgs{});
  EXPECT_FALSE(r.params.valid);
  EXPECT_NE(r.params.failure_reason.find("undecodable"), std::string::npos);
}

TEST(GalMorph, ResultTextRoundTrip) {
  GalMorphResult r;
  r.galaxy_id = "A2390_G0042";
  r.redshift = 0.228;
  r.params.valid = true;
  r.params.surface_brightness = 21.35;
  r.params.concentration = 4.2;
  r.params.asymmetry = 0.07;
  r.params.petrosian_r = 8.5;
  r.params.snr = 42.0;
  r.kpc_per_arcsec = 2.5;
  r.petrosian_r_kpc = 21.25;
  auto parsed = GalMorphResult::parse_text(r.to_text());
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed->galaxy_id, r.galaxy_id);
  EXPECT_TRUE(parsed->params.valid);
  EXPECT_NEAR(parsed->params.concentration, 4.2, 1e-6);
  EXPECT_NEAR(parsed->petrosian_r_kpc, 21.25, 1e-6);
}

TEST(GalMorph, InvalidResultTextKeepsReason) {
  GalMorphResult r;
  r.galaxy_id = "X";
  r.params.valid = false;
  r.params.failure_reason = "saturated defect band";
  auto parsed = GalMorphResult::parse_text(r.to_text());
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed->params.valid);
  EXPECT_EQ(parsed->params.failure_reason, "saturated defect band");
}

TEST(GalMorph, ParseTextRejectsGarbage) {
  EXPECT_FALSE(GalMorphResult::parse_text("no equals sign here").ok());
  EXPECT_FALSE(GalMorphResult::parse_text("valid=1\n").ok());  // no id
  EXPECT_FALSE(GalMorphResult::parse_text("id=x\nasymmetry=abc\n").ok());
}

TEST(GalMorph, ConcatBuildsValidityFlaggedTable) {
  std::vector<GalMorphResult> results(3);
  results[0].galaxy_id = "g0";
  results[0].params.valid = true;
  results[0].params.concentration = 4.0;
  results[1].galaxy_id = "g1";
  results[1].params.valid = false;
  results[1].params.failure_reason = "bad image";
  results[2].galaxy_id = "g2";
  results[2].params.valid = true;
  results[2].params.asymmetry = 0.3;

  const votable::Table t = concat_results(results, "CL_morph.vot");
  ASSERT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(t.name, "CL_morph.vot");
  EXPECT_EQ(t.cell(0, "valid").as_bool().value(), true);
  EXPECT_EQ(t.cell(1, "valid").as_bool().value(), false);
  EXPECT_TRUE(t.cell(1, "concentration").is_null());  // nulls for invalid
  EXPECT_NEAR(t.cell(2, "asymmetry").as_double().value(), 0.3, 1e-9);

  // Row -> result round trip.
  auto back = result_from_row(t, 0);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->galaxy_id, "g0");
  EXPECT_NEAR(back->params.concentration, 4.0, 1e-9);
  EXPECT_FALSE(result_from_row(t, 99).ok());
}

}  // namespace
}  // namespace nvo::core
