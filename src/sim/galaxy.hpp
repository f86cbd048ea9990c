// Ground-truth description of one synthetic galaxy and its image renderer.
// Every galaxy carries the morphological parameters its image is drawn from,
// so tests can check that the measured CAS parameters recover the truth
// ordering (E more concentrated and more symmetric than Sp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "image/image.hpp"
#include "sim/profiles.hpp"
#include "sky/coords.hpp"

namespace nvo::sim {

/// Hubble-type bucket the generator draws from. The Dressler mixing in the
/// cluster generator varies the E/S0 vs Sp/Irr proportions with local
/// density.
enum class MorphType { kElliptical, kS0, kSpiral, kIrregular };

const char* to_string(MorphType t);

/// Full truth record for one cluster member.
struct GalaxyTruth {
  std::string id;                 ///< e.g. "A2029_G0042"
  sky::Equatorial position;       ///< sky position
  double redshift = 0.0;          ///< cluster redshift + peculiar velocity
  double mag = 18.0;              ///< apparent magnitude (arbitrary zeropoint)
  MorphType type = MorphType::kElliptical;

  // Image-plane parameters at the survey pixel scale.
  double total_flux = 1e4;        ///< total counts
  double r_e_pix = 4.0;           ///< half-light radius, pixels
  double sersic_n = 4.0;          ///< 4 for E, ~1 for disks
  double axis_ratio = 0.8;        ///< b/a in (0, 1]
  double position_angle_rad = 0.0;
  double arm_amplitude = 0.0;     ///< spiral arm strength, 0 for E/S0
  double arm_pitch_rad = 0.31;    ///< ~18 degrees
  double clumpiness = 0.0;        ///< irregular star-forming clump fraction
  std::uint64_t seed = 0;         ///< per-galaxy stream for clumps/noise

  // Truth bookkeeping used by the analysis module.
  double radius_arcmin = 0.0;     ///< projected distance from cluster center
};

/// Rendering controls shared by cutout and field synthesis.
struct RenderOptions {
  double pixel_scale_arcsec = 1.0;  ///< survey sampling
  double sky_level = 10.0;          ///< flat sky background, counts/pixel
  double read_noise = 3.0;          ///< Gaussian sigma, counts
  bool poisson_noise = true;        ///< photon shot noise on source + sky
  double psf_fwhm_pix = 2.2;        ///< Gaussian seeing blur
  int supersample = 3;              ///< sub-pixel integration grid
};

/// Renders the galaxy alone on a size x size frame, centered. The profile
/// is convolved with a Gaussian PSF approximated by rendering with an
/// effective radius floor (adequate at the 2-3 pixel seeing of survey data
/// — we validate estimator *ordering*, not absolute photometry).
image::Image render_galaxy(const GalaxyTruth& g, int size, const RenderOptions& opts);

/// Inclusive pixel rectangle, already clipped to the frame (empty when
/// x0 > x1 or y0 > y1).
struct PixelBox {
  int x0 = 0, x1 = -1, y0 = 0, y1 = -1;
};

/// One galaxy's light placed at pixel (cx, cy) of a width x height frame:
/// everything the per-sample profile needs that does not change from pixel
/// to pixel (the softened radius, the flux normalisation, the clumps, the
/// position-angle and pitch trigonometry, the clipped boxes), computed once
/// by prepare_galaxy_light and read by every row band of render_light.
struct GalaxyLight {
  struct Clump {
    double cx, cy;      ///< frame pixel of the clump centre
    double amp;         ///< peak counts of the PSF-broadened Gaussian
    double two_sigma2;  ///< 2 sigma^2 of that Gaussian
    PixelBox box;       ///< +-5 sigma
  };
  double cx = 0.0, cy = 0.0;
  int supersample = 3;
  /// Sum of the pixel-centre values' absolute second differences at or
  /// above which a pixel outside the core is integrated on the supersample
  /// grid (see render_light); 0 integrates every pixel on it.
  double refine_curvature = 0.0;
  double norm = 0.0;       ///< Sersic peak scaled to the body's total flux
  double cusp_soft = 0.0;  ///< radius the central cusp is softened at
  SersicShape sersic{1.0, 1.0};
  EllipseFrame ellipse{1.0, 0.0};
  SpiralPattern spiral{0.0, 0.0, 1.0};
  PixelBox box;  ///< +-12 r_e around the centre
  std::vector<Clump> clumps;
};

/// The per-placement step of the renderer (see GalaxyLight).
GalaxyLight prepare_galaxy_light(const GalaxyTruth& g, double cx, double cy, int width,
                                 int height, const RenderOptions& opts);

/// Adds every placement's light (no noise, no sky) to `frame`, one 8-row
/// block per executor index. Each block walks `lights` in order and adds,
/// for its rows only, the smooth profile and then each clump, so every pixel
/// receives its terms in the same order whatever the executor: the frame is
/// bit-identical to the serial render (a null executor). Blocks only write
/// their own rows.
///
/// With supersample s > 1 and a noisy frame, a pixel's profile term is the
/// s x s integral only within 3 softened r_e of the light's centre or where
/// the midpoint rule's estimated error reaches half of 1% of the frame's
/// noise floor, and the pixel-centre value elsewhere. Either way it is a
/// pure function of the light and the pixel, so the block split does not
/// show.
void render_light(image::Image& frame, const std::vector<GalaxyLight>& lights,
                  const ParallelFor* executor);

/// Adds the galaxy's light (no noise, no sky) into `frame` at pixel
/// (cx, cy), serially.
void add_galaxy_light(image::Image& frame, const GalaxyTruth& g, double cx, double cy,
                      const RenderOptions& opts);

/// Applies sky + Poisson + read noise in place (deterministic given rng).
void apply_noise(image::Image& frame, const RenderOptions& opts, Rng& rng);

/// Corrupts an image the way the paper's bad cutouts failed: overwrites a
/// band of rows with an extreme saturated value so downstream photometry
/// blows up and the compute job reports invalid.
void corrupt_image(image::Image& frame, Rng& rng);

/// True when a frame looks corrupted (saturated band detector used by the
/// validity check in the compute kernel).
bool looks_corrupted(const image::Image& frame);

}  // namespace nvo::sim
