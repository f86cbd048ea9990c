// Aperture photometry primitives underlying the morphology parameters:
// flux-weighted centroiding, circular-aperture flux with sub-pixel edge
// weighting, curve-of-growth radii (r20/r80 for the concentration index),
// and a Petrosian-style total-light radius that sets the measurement
// aperture independently of redshift dimming.
//
// The hot path is the CurveOfGrowth object: every radial query the kernel
// issues (aperture flux, r20/r80 bisection, the Petrosian sweep) reduces to
// a prefix-sum lookup over pixels counting-sorted into one-pixel radial
// shells about the centroid, instead of a fresh O(R^2) scan of the cutout
// per query. Only the few shells straddling a query radius are re-examined
// pixel by pixel — with the same squared-distance cuts and 4x4 sub-pixel
// boundary weighting as the direct scan — so the returned values match the
// scan-based functions to float-summation-order precision.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "image/image.hpp"

namespace nvo::core {

struct Centroid {
  double x = 0.0;
  double y = 0.0;
  bool converged = false;
};

/// Iterative flux-weighted centroid: starts at the frame center, computes
/// the first moment within `radius`, recenters, and repeats until the shift
/// falls below 0.05 pixels (or `max_iterations`). Works on
/// background-subtracted data; negative pixels are clamped to zero in the
/// weights so noise cannot drag the centroid off the source.
Centroid find_centroid(const image::Image& img, double radius,
                       int max_iterations = 12);

/// Flux within a circular aperture (sub-pixel edge handling by 2x2
/// sub-sampling of boundary pixels).
double aperture_flux(const image::Image& img, double cx, double cy, double radius);

/// Smallest radius whose enclosed flux reaches `fraction` of `total_flux`,
/// by bisection on the (monotone) curve of growth. nullopt when the total
/// is non-positive or the fraction is not reached within `max_radius`.
std::optional<double> radius_enclosing(const image::Image& img, double cx, double cy,
                                       double fraction, double total_flux,
                                       double max_radius);

/// Mean surface brightness in an annulus [r_in, r_out).
double annulus_mean(const image::Image& img, double cx, double cy, double r_in,
                    double r_out);

/// Petrosian radius: the radius where the local annular surface brightness
/// falls to `eta` (default 0.2) of the mean surface brightness interior to
/// it. Scanned outward in 0.5-pixel steps; nullopt if never reached.
std::optional<double> petrosian_radius(const image::Image& img, double cx, double cy,
                                       double eta = 0.2, double max_radius = 1e9);

/// Precomputed radial curve of growth about a fixed center. Built in two
/// linear passes over the frame (histogram + scatter — a counting sort into
/// one-pixel radial shells; no comparison sort); afterwards every radial
/// query is O(1) for the interior shell prefix plus O(boundary ring) for
/// the exactly-resolved edge shells, rather than O(R^2). `build` reuses the
/// vectors' capacity, so a long-lived instance measures an entire batch of
/// same-sized cutouts without steady-state heap allocation.
///
/// Pixels are held in structure-of-arrays form (d2 / value / x / y in
/// separate contiguous arrays): the query scans touch only the d2 and value
/// streams, so the inner loops are branchless compare-and-accumulate sweeps
/// over dense memory instead of strided walks over a 20-byte record.
class CurveOfGrowth {
 public:
  CurveOfGrowth() = default;

  /// (Re)builds the curve for `img` about (cx, cy). The image reference is
  /// not retained. Clears any previous state. Entries are scattered in
  /// row-major order within each shell, so every flux prefix is
  /// reproducible.
  void build(const image::Image& img, double cx, double cy);

  bool empty() const { return value_.empty(); }
  double cx() const { return cx_; }
  double cy() const { return cy_; }

  /// Flux within `radius`, equal to aperture_flux(img, cx, cy, radius) up
  /// to floating-point summation order.
  double aperture_flux(double radius) const;

  /// Mean pixel value over the annulus [r_in, r_out), equal to
  /// annulus_mean(img, cx, cy, r_in, r_out) up to summation order.
  double annulus_mean(double r_in, double r_out) const;

  /// Smallest radius enclosing `fraction` of `total_flux`, by the same
  /// bisection as the free radius_enclosing but with O(log n) evaluations.
  std::optional<double> radius_enclosing(double fraction, double total_flux,
                                         double max_radius) const;

  /// Petrosian radius by the same outward 0.5-pixel sweep as the free
  /// petrosian_radius, each step answered from the prefix sums.
  std::optional<double> petrosian_radius(double eta = 0.2,
                                         double max_radius = 1e9) const;

 private:
  /// Accumulates value and pixel count over every entry in shells
  /// [shell_lo, shell_hi) whose exact squared distance lies in [in2, out2).
  /// The shared edge-resolution step of flux and annulus queries.
  void scan_shells(int shell_lo, int shell_hi, double in2, double out2,
                   double& sum, int& count) const;

  /// Shell index of squared distance d2 (shell s holds d in [s, s+1)).
  int shell_of(double d2) const;

  // Pixels grouped by integer radial shell, structure-of-arrays: index range
  // [shell_start_[s], shell_start_[s+1]) is shell s (unordered within the
  // shell — queries resolve exact thresholds per entry). d2_ is kept in
  // double precision and computed from the one canonical expression
  // (dx*dx + dy*dy, contraction disabled tree-wide), so every query sees
  // exactly the squared distances the direct-scan reference computes.
  std::vector<double> d2_;          ///< squared distance from (cx, cy)
  std::vector<float> value_;        ///< pixel value
  std::vector<std::uint16_t> x_;    ///< pixel column (frames far below 65536)
  std::vector<std::uint16_t> y_;    ///< pixel row
  std::vector<std::uint32_t> shell_start_;  ///< size num_shells + 1
  std::vector<double> shell_flux_prefix_;   ///< prefix over whole shells
  std::vector<double> col_dx2_;             ///< build scratch: (x-cx)^2 per column
  std::vector<std::uint32_t> shell_cursor_;  ///< build scratch: per-shell cursors
  std::vector<std::uint16_t> shell_scratch_;  ///< build scratch: per-pixel shell
  double cx_ = 0.0;
  double cy_ = 0.0;
  int width_ = 0;
  int height_ = 0;
  int num_shells_ = 0;
};

}  // namespace nvo::core
