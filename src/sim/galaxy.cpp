#include "sim/galaxy.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

namespace nvo::sim {

namespace {

constexpr float kSaturation = 65535.0f;

// Adaptive sub-pixel integration (DESIGN.md §15). With supersample s > 1
// on a noisy frame the renderer evaluates each light once at every pixel
// centre of its box, in blocks of kBlockRows rows with a one-pixel halo. A
// pixel keeps the s x s integral when its centre lies within kCoreRadii
// softened r_e of the light's centre, where the spiral's winding changes
// faster than the centre grid resolves, or when the midpoint rule's error
// estimate (|f_xx| + |f_yy|) (1 - 1/s^2) / 24, from second differences of
// the centre values, reaches kNoiseFraction of the frame's noise floor over
// kEstimateSafety (the estimate is leading-order only); every other pixel
// takes its centre value.
constexpr int kBlockRows = 8;
constexpr double kCoreRadii = 3.0;
constexpr double kNoiseFraction = 0.01;
constexpr double kEstimateSafety = 2.0;

/// Effective profile with PSF softening: we fold the Gaussian seeing into
/// the profile by adding the PSF sigma in quadrature to the scale radius.
/// This is the standard cheap approximation for well-resolved sources.
double softened_re(double r_e_pix, double psf_fwhm_pix) {
  const double psf_sigma = psf_fwhm_pix / 2.35482;
  return std::sqrt(r_e_pix * r_e_pix + psf_sigma * psf_sigma);
}

/// Second-difference sum |f_xx| + |f_yy| at or above which a pixel is
/// integrated on the s x s grid (see kNoiseFraction); 0, which integrates
/// every pixel, when s = 1 or the frame is noiseless.
double refine_curvature(const RenderOptions& opts) {
  const double sky_variance = opts.poisson_noise ? std::max(opts.sky_level, 0.0) : 0.0;
  const double noise_floor = std::sqrt(sky_variance + opts.read_noise * opts.read_noise);
  const int s = opts.supersample;
  if (s <= 1 || noise_floor <= 0.0) return 0.0;
  return kNoiseFraction * noise_floor / kEstimateSafety * 24.0 / (1.0 - 1.0 / (s * s));
}

/// Adds the light's smooth profile to rows [row_begin, row_end) of `frame`.
void accumulate_profile(image::Image& frame, const GalaxyLight& light, int row_begin,
                        int row_end) {
  const double cusp2 = light.cusp_soft * light.cusp_soft;
  auto profile = [&](double dx, double dy) {
    const double r_ell = light.ellipse.radius(dx, dy);
    const double r = std::sqrt(r_ell * r_ell + cusp2);
    double v = light.norm * light.sersic.at(r);
    if (light.spiral.amp > 0.0) v *= light.spiral.at(dx, dy);
    return v;
  };
  const PixelBox& b = light.box;
  const int y0 = std::max(b.y0, row_begin);
  const int y1 = std::min(b.y1, row_end - 1);
  if (y0 > y1 || b.x0 > b.x1) return;
  if (light.refine_curvature <= 0.0) {
    for (int y = y0; y <= y1; ++y) {
      for (int x = b.x0; x <= b.x1; ++x) {
        frame.at(x, y) += static_cast<float>(
            integrate_pixel(profile, light.cx, light.cy, x, y, light.supersample));
      }
    }
    return;
  }

  // Centre values of rows y0-1..y1+1 and columns x0-1..x1+1: the halo gives
  // every pixel of the box its four second-difference neighbours.
  const int w = b.x1 - b.x0 + 3;
  std::vector<double> centre(static_cast<std::size_t>(w) * (y1 - y0 + 3));
  for (int j = 0; j < y1 - y0 + 3; ++j) {
    for (int i = 0; i < w; ++i) {
      centre[static_cast<std::size_t>(j) * w + i] =
          profile(b.x0 - 1 + i - light.cx, y0 - 1 + j - light.cy);
    }
  }
  const double core2 = kCoreRadii * light.sersic.r_e * kCoreRadii * light.sersic.r_e;
  for (int y = y0; y <= y1; ++y) {
    const double* c = &centre[static_cast<std::size_t>(y - y0 + 1) * w + 1];
    const double dy = y - light.cy;
    for (int x = b.x0; x <= b.x1; ++x, ++c) {
      const double dx = x - light.cx;
      const double curvature =
          std::fabs(c[-1] + c[1] - 2.0 * c[0]) + std::fabs(c[-w] + c[w] - 2.0 * c[0]);
      const bool refine =
          dx * dx + dy * dy <= core2 || curvature >= light.refine_curvature;
      frame.at(x, y) += static_cast<float>(
          refine ? integrate_pixel(profile, light.cx, light.cy, x, y, light.supersample)
                 : c[0]);
    }
  }
}

/// Adds the prepared light to rows [row_begin, row_end) of `frame`: the
/// smooth profile first, then each clump.
void accumulate_galaxy_light(image::Image& frame, const GalaxyLight& light, int row_begin,
                             int row_end) {
  accumulate_profile(frame, light, row_begin, row_end);
  for (const GalaxyLight::Clump& c : light.clumps) {
    for (int y = std::max(c.box.y0, row_begin); y <= std::min(c.box.y1, row_end - 1); ++y) {
      for (int x = c.box.x0; x <= c.box.x1; ++x) {
        const double dx = x - c.cx;
        const double dy = y - c.cy;
        frame.at(x, y) +=
            static_cast<float>(c.amp * std::exp(-(dx * dx + dy * dy) / c.two_sigma2));
      }
    }
  }
}

}  // namespace

const char* to_string(MorphType t) {
  switch (t) {
    case MorphType::kElliptical:
      return "E";
    case MorphType::kS0:
      return "S0";
    case MorphType::kSpiral:
      return "Sp";
    case MorphType::kIrregular:
      return "Irr";
  }
  return "?";
}

GalaxyLight prepare_galaxy_light(const GalaxyTruth& g, double cx, double cy, int width,
                                 int height, const RenderOptions& opts) {
  GalaxyLight light;
  light.cx = cx;
  light.cy = cy;
  light.supersample = opts.supersample;
  light.refine_curvature = refine_curvature(opts);
  const double re = softened_re(g.r_e_pix, opts.psf_fwhm_pix);
  const double psf_sigma = opts.psf_fwhm_pix / 2.35482;
  // High-n Sersic profiles have an integrable cusp at r = 0 that finite
  // pixel sampling cannot integrate; evaluating at sqrt(r^2 + sigma_psf^2)
  // caps it the way real seeing does.
  light.cusp_soft = std::max(psf_sigma, 0.4);
  // Normalize to the requested total flux. The elliptical radius compresses
  // the minor axis, scaling the plane integral by the axis ratio q, so the
  // normalization divides by q; the cusp softening removes the inner
  // portion of the analytic integral, handled by the corrected total.
  const double q = std::max(g.axis_ratio, 1e-3);
  light.norm = g.total_flux * (1.0 - g.clumpiness) /
               std::max(q * sersic_cusp_softened_total(re, g.sersic_n, light.cusp_soft),
                        1e-9);
  light.sersic = SersicShape(re, g.sersic_n);
  light.ellipse = EllipseFrame(g.axis_ratio, g.position_angle_rad);
  light.spiral = SpiralPattern(g.arm_amplitude, g.arm_pitch_rad, re);

  // Render within a box of +-12 r_e: an n=4 profile still holds ~7% of its
  // light beyond 8 r_e, so the box must reach well into the wings.
  const double extent = std::max(12.0 * re, 6.0);
  light.box.x0 = std::max(0, static_cast<int>(std::floor(cx - extent)));
  light.box.x1 = std::min(width - 1, static_cast<int>(std::ceil(cx + extent)));
  light.box.y0 = std::max(0, static_cast<int>(std::floor(cy - extent)));
  light.box.y1 = std::min(height - 1, static_cast<int>(std::ceil(cy + extent)));

  // Clumps: small Gaussians offset from the center (asymmetric by
  // construction). Drawn from the galaxy's own seed, so a galaxy's image is
  // identical however many times it is rendered.
  if (g.clumpiness <= 0.0) return light;
  Rng rng(g.seed ^ 0xC1u);
  const int n = 3 + static_cast<int>(rng.uniform_index(5));
  const double clump_flux = g.total_flux * g.clumpiness / n;
  for (int i = 0; i < n; ++i) {
    const double r = rng.uniform(0.3, 1.8) * g.r_e_pix;
    const double th = rng.uniform(0.0, 2.0 * 3.14159265358979323846);
    const double flux = clump_flux * rng.uniform(0.5, 1.5);
    const double clump_sigma = std::max(0.8, 0.25 * g.r_e_pix);
    GalaxyLight::Clump c{};
    c.cx = cx + r * std::cos(th);
    c.cy = cy + r * std::sin(th);
    const double sigma = std::sqrt(clump_sigma * clump_sigma + psf_sigma * psf_sigma);
    c.amp = flux / (2.0 * 3.14159265358979323846 * sigma * sigma);
    c.two_sigma2 = 2.0 * sigma * sigma;
    c.box.x0 = std::max(0, static_cast<int>(c.cx - 5 * sigma));
    c.box.x1 = std::min(width - 1, static_cast<int>(c.cx + 5 * sigma));
    c.box.y0 = std::max(0, static_cast<int>(c.cy - 5 * sigma));
    c.box.y1 = std::min(height - 1, static_cast<int>(c.cy + 5 * sigma));
    light.clumps.push_back(c);
  }
  return light;
}

void render_light(image::Image& frame, const std::vector<GalaxyLight>& lights,
                  const ParallelFor* executor) {
  const auto block = [&](std::size_t index) {
    const int y = static_cast<int>(index) * kBlockRows;
    for (const GalaxyLight& light : lights) {
      accumulate_galaxy_light(frame, light, y, y + kBlockRows);
    }
  };
  const auto blocks = static_cast<std::size_t>((frame.height() + kBlockRows - 1) / kBlockRows);
  if (executor == nullptr) {
    for (std::size_t i = 0; i < blocks; ++i) block(i);
  } else {
    (*executor)(blocks, block);
  }
}

void add_galaxy_light(image::Image& frame, const GalaxyTruth& g, double cx, double cy,
                      const RenderOptions& opts) {
  render_light(frame, {prepare_galaxy_light(g, cx, cy, frame.width(), frame.height(), opts)},
               nullptr);
}

image::Image render_galaxy(const GalaxyTruth& g, int size, const RenderOptions& opts) {
  image::Image frame(size, size, 0.0f);
  const double c = (size - 1) / 2.0;
  add_galaxy_light(frame, g, c, c, opts);
  Rng rng(g.seed ^ 0x0157EEDull);
  apply_noise(frame, opts, rng);
  return frame;
}

void apply_noise(image::Image& frame, const RenderOptions& opts, Rng& rng) {
  for (float& v : frame.pixels()) {
    double signal = v + opts.sky_level;
    if (opts.poisson_noise) {
      signal = static_cast<double>(rng.poisson(std::max(signal, 0.0)));
    }
    if (opts.read_noise > 0.0) {
      signal += rng.normal(0.0, opts.read_noise);
    }
    v = static_cast<float>(signal);
  }
}

void corrupt_image(image::Image& frame, Rng& rng) {
  if (frame.height() == 0) return;
  const int band = std::max(1, frame.height() / 8);
  const int start = static_cast<int>(rng.uniform_index(
      static_cast<std::uint64_t>(std::max(1, frame.height() - band))));
  for (int y = start; y < std::min(frame.height(), start + band); ++y) {
    for (int x = 0; x < frame.width(); ++x) {
      frame.at(x, y) = kSaturation;
    }
  }
}

bool looks_corrupted(const image::Image& frame) {
  // A corrupted frame has a contiguous run of fully saturated rows.
  for (int y = 0; y < frame.height(); ++y) {
    bool all_saturated = frame.width() > 0;
    for (int x = 0; x < frame.width(); ++x) {
      if (frame.at(x, y) < kSaturation) {
        all_saturated = false;
        break;
      }
    }
    if (all_saturated) return true;
  }
  return false;
}

}  // namespace nvo::sim
