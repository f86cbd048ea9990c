#include "core/photometry.hpp"

#include <algorithm>
#include <cmath>

namespace nvo::core {

namespace {

// Half-diagonal margin (in pixels) around an aperture radius inside which a
// pixel can straddle the boundary. The 4x4 sub-sample grid spans at most
// ~0.53 px from the pixel center, so the weight is exactly 1 inside
// r - 0.71 and exactly 0 outside r + 0.71; classifying a pixel on either
// side of those cuts cannot change its contribution.
constexpr double kBoundaryBand = 0.71;

/// Covered fraction (in sixteenths) of the pixel centered at (x, y) for a
/// circular aperture of squared radius r2 about (cx, cy): the 4x4
/// sub-sample count used by every flux query, boundary pixels only.
inline int subsampled_coverage(int x, int y, double cx, double cy, double r2) {
  int covered = 0;
  for (int sy = 0; sy < 4; ++sy) {
    for (int sx = 0; sx < 4; ++sx) {
      const double px = x - 0.5 + (sx + 0.5) / 4.0;
      const double py = y - 0.5 + (sy + 0.5) / 4.0;
      const double ddx = px - cx;
      const double ddy = py - cy;
      covered += (ddx * ddx + ddy * ddy <= r2) ? 1 : 0;
    }
  }
  return covered;
}

}  // namespace

Centroid find_centroid(const image::Image& img, double radius, int max_iterations) {
  Centroid c;
  c.x = (img.width() - 1) / 2.0;
  c.y = (img.height() - 1) / 2.0;
  for (int it = 0; it < max_iterations; ++it) {
    // Four independent accumulator lanes per moment break the serial
    // FP-add latency chain that otherwise bounds this loop. The lane sums
    // reassociate the addition order, so the centroid matches the strictly
    // sequential scan to summation-order precision (~1e-15 relative per
    // iteration), not bit-for-bit — within the kernel's documented
    // tolerance policy.
    double sum_l[4] = {0.0, 0.0, 0.0, 0.0};
    double sx_l[4] = {0.0, 0.0, 0.0, 0.0};
    double sy_l[4] = {0.0, 0.0, 0.0, 0.0};
    const int x0 = std::max(0, static_cast<int>(c.x - radius));
    const int x1 = std::min(img.width() - 1, static_cast<int>(c.x + radius));
    const int y0 = std::max(0, static_cast<int>(c.y - radius));
    const int y1 = std::min(img.height() - 1, static_cast<int>(c.y + radius));
    const double r2 = radius * radius;
    for (int y = y0; y <= y1; ++y) {
      const double dy = y - c.y;
      const double dy2 = dy * dy;
      if (dy2 > r2) continue;
      // In-circle x-interval: bracket by sqrt with one pixel of slack, then
      // tighten with the exact per-pixel predicate, so the pixel set is
      // identical to the full scan's.
      const double half = std::sqrt(r2 - dy2);
      int xlo = std::max(x0, static_cast<int>(std::ceil(c.x - half)) - 1);
      int xhi = std::min(x1, static_cast<int>(std::floor(c.x + half)) + 1);
      while (xlo <= xhi) {
        const double dx = xlo - c.x;
        if (!(dx * dx + dy2 > r2)) break;
        ++xlo;
      }
      while (xhi >= xlo) {
        const double dx = xhi - c.x;
        if (!(dx * dx + dy2 > r2)) break;
        --xhi;
      }
      const float* row = img.data() + static_cast<std::size_t>(y) * img.width();
      for (int x = xlo; x <= xhi; ++x) {
        const double w = std::max(0.0f, row[x]);
        sum_l[x & 3] += w;
        sx_l[x & 3] += w * x;
        sy_l[x & 3] += w * y;
      }
    }
    const double sum = (sum_l[0] + sum_l[1]) + (sum_l[2] + sum_l[3]);
    const double sx = (sx_l[0] + sx_l[1]) + (sx_l[2] + sx_l[3]);
    const double sy = (sy_l[0] + sy_l[1]) + (sy_l[2] + sy_l[3]);
    if (sum <= 0.0) return c;  // not converged
    const double nx = sx / sum;
    const double ny = sy / sum;
    const double shift = std::hypot(nx - c.x, ny - c.y);
    c.x = nx;
    c.y = ny;
    if (shift < 0.05) {
      c.converged = true;
      return c;
    }
  }
  return c;
}

double aperture_flux(const image::Image& img, double cx, double cy, double radius) {
  if (radius <= 0.0) return 0.0;
  double flux = 0.0;
  const int x0 = std::max(0, static_cast<int>(std::floor(cx - radius - 1)));
  const int x1 = std::min(img.width() - 1, static_cast<int>(std::ceil(cx + radius + 1)));
  const int y0 = std::max(0, static_cast<int>(std::floor(cy - radius - 1)));
  const int y1 = std::min(img.height() - 1, static_cast<int>(std::ceil(cy + radius + 1)));
  const double r2 = radius * radius;
  // Squared-distance cuts for the fully-inside / fully-outside fast paths;
  // no per-pixel sqrt. A negative inner edge (radius < band) disables the
  // inside fast path rather than matching d2 <= (negative)^2.
  const double inner = radius - kBoundaryBand;
  const double inner2 = inner > 0.0 ? inner * inner : -1.0;
  const double outer2 = (radius + kBoundaryBand) * (radius + kBoundaryBand);
  for (int y = y0; y <= y1; ++y) {
    for (int x = x0; x <= x1; ++x) {
      const double dx = x - cx;
      const double dy = y - cy;
      const double d2 = dx * dx + dy * dy;
      if (d2 >= outer2) continue;
      if (d2 <= inner2) {
        flux += img.at(x, y);
        continue;
      }
      flux += img.at(x, y) * subsampled_coverage(x, y, cx, cy, r2) / 16.0;
    }
  }
  return flux;
}

double annulus_mean(const image::Image& img, double cx, double cy, double r_in,
                    double r_out) {
  double sum = 0.0;
  int count = 0;
  const int x0 = std::max(0, static_cast<int>(std::floor(cx - r_out)));
  const int x1 = std::min(img.width() - 1, static_cast<int>(std::ceil(cx + r_out)));
  const int y0 = std::max(0, static_cast<int>(std::floor(cy - r_out)));
  const int y1 = std::min(img.height() - 1, static_cast<int>(std::ceil(cy + r_out)));
  const double in2 = r_in * r_in;
  const double out2 = r_out * r_out;
  for (int y = y0; y <= y1; ++y) {
    for (int x = x0; x <= x1; ++x) {
      const double dx = x - cx;
      const double dy = y - cy;
      const double d2 = dx * dx + dy * dy;
      if (d2 < in2 || d2 >= out2) continue;
      sum += img.at(x, y);
      ++count;
    }
  }
  return count > 0 ? sum / count : 0.0;
}

std::optional<double> radius_enclosing(const image::Image& img, double cx, double cy,
                                       double fraction, double total_flux,
                                       double max_radius) {
  CurveOfGrowth cog;
  cog.build(img, cx, cy);
  return cog.radius_enclosing(fraction, total_flux, max_radius);
}

std::optional<double> petrosian_radius(const image::Image& img, double cx, double cy,
                                       double eta, double max_radius) {
  CurveOfGrowth cog;
  cog.build(img, cx, cy);
  return cog.petrosian_radius(eta, max_radius);
}

int CurveOfGrowth::shell_of(double d2) const {
  return std::min(static_cast<int>(std::sqrt(d2)), num_shells_ - 1);
}

void CurveOfGrowth::build(const image::Image& img, double cx, double cy) {
  cx_ = cx;
  cy_ = cy;
  width_ = img.width();
  height_ = img.height();
  const std::size_t n = img.size();
  if (n == 0) {
    d2_.clear();
    value_.clear();
    x_.clear();
    y_.clear();
    num_shells_ = 0;
    return;
  }
  // Shell count from the farthest frame corner; per-entry clamping below
  // makes the exact value uncritical.
  double d2max = 0.0;
  for (int corner = 0; corner < 4; ++corner) {
    const double dx = (corner & 1 ? width_ - 1 : 0) - cx;
    const double dy = (corner & 2 ? height_ - 1 : 0) - cy;
    d2max = std::max(d2max, dx * dx + dy * dy);
  }
  num_shells_ = static_cast<int>(std::sqrt(d2max)) + 2;
  const int last_shell = num_shells_ - 1;

  // Column squared offsets, computed once: d2 for pixel (x, y) is
  // col_dx2_[x] + dy2, which — with contraction disabled — is bit-identical
  // to the direct (dx*dx + dy*dy) the scan-based references evaluate.
  col_dx2_.resize(static_cast<std::size_t>(width_));
  for (int x = 0; x < width_; ++x) {
    const double dx = x - cx;
    col_dx2_[x] = dx * dx;
  }

  // Counting sort into radial shells. Pass 1: per-pixel shell index (a
  // vectorizable sqrt sweep over the column offsets) plus the shell
  // histogram.
  shell_scratch_.resize(n);
  shell_cursor_.assign(static_cast<std::size_t>(num_shells_), 0);
  for (int y = 0; y < height_; ++y) {
    const double dy = y - cy;
    const double dy2 = dy * dy;
    std::uint16_t* srow = shell_scratch_.data() + static_cast<std::size_t>(y) * width_;
    for (int x = 0; x < width_; ++x) {
      const int s = std::min(static_cast<int>(std::sqrt(col_dx2_[x] + dy2)),
                             last_shell);
      srow[x] = static_cast<std::uint16_t>(s);
    }
    for (int x = 0; x < width_; ++x) ++shell_cursor_[srow[x]];
  }

  // Shell prefix, and an exclusive scatter cursor per shell.
  shell_start_.assign(static_cast<std::size_t>(num_shells_) + 1, 0);
  for (int s = 0; s < num_shells_; ++s) {
    const std::uint32_t cnt = shell_cursor_[s];
    shell_cursor_[s] = shell_start_[s];
    shell_start_[static_cast<std::size_t>(s) + 1] = shell_start_[s] + cnt;
  }

  // Pass 2: scatter into the structure-of-arrays layout in row-major order.
  // Entries are unordered within a shell as far as queries care; the fixed
  // scatter order only matters for making the flux prefixes reproducible.
  d2_.resize(n);
  value_.resize(n);
  x_.resize(n);
  y_.resize(n);
  for (int y = 0; y < height_; ++y) {
    const double dy = y - cy;
    const double dy2 = dy * dy;
    const std::uint16_t* srow =
        shell_scratch_.data() + static_cast<std::size_t>(y) * width_;
    for (int x = 0; x < width_; ++x) {
      const std::uint32_t idx = shell_cursor_[srow[x]]++;
      d2_[idx] = col_dx2_[x] + dy2;
      value_[idx] = img.at(x, y);
      x_[idx] = static_cast<std::uint16_t>(x);
      y_[idx] = static_cast<std::uint16_t>(y);
    }
  }

  // Per-shell flux sums (each summed in scatter order), then the prefix.
  shell_flux_prefix_.resize(static_cast<std::size_t>(num_shells_) + 1);
  for (int s = 0; s < num_shells_; ++s) {
    double sum = 0.0;
    for (std::uint32_t e = shell_start_[s]; e < shell_start_[s + 1]; ++e) {
      sum += value_[e];
    }
    shell_flux_prefix_[static_cast<std::size_t>(s) + 1] = sum;
  }
  shell_flux_prefix_[0] = 0.0;
  for (int s = 0; s < num_shells_; ++s) {
    shell_flux_prefix_[static_cast<std::size_t>(s) + 1] +=
        shell_flux_prefix_[static_cast<std::size_t>(s)];
  }
}

void CurveOfGrowth::scan_shells(int shell_lo, int shell_hi, double in2, double out2,
                                double& sum, int& count) const {
  shell_lo = std::clamp(shell_lo, 0, num_shells_);
  shell_hi = std::clamp(shell_hi, shell_lo, num_shells_);
  const double* d2 = d2_.data();
  const float* val = value_.data();
  // Branchless interval test over the contiguous d2/value streams, with
  // four accumulator lanes to break the FP-add latency chain. Excluded
  // entries contribute a masked-in 0.0; the lane merge reassociates the
  // addition order (summation-order precision vs. the sequential scan).
  double acc[4] = {0.0, 0.0, 0.0, 0.0};
  int cnt = 0;
  for (std::uint32_t i = shell_start_[shell_lo]; i < shell_start_[shell_hi]; ++i) {
    const bool in = !(d2[i] < in2 || d2[i] >= out2);
    acc[i & 3] += in ? static_cast<double>(val[i]) : 0.0;
    cnt += in ? 1 : 0;
  }
  sum += (acc[0] + acc[1]) + (acc[2] + acc[3]);
  count += cnt;
}

double CurveOfGrowth::aperture_flux(double radius) const {
  if (radius <= 0.0 || value_.empty()) return 0.0;
  const double r2 = radius * radius;
  const double inner = radius - kBoundaryBand;
  const double inner2 = inner > 0.0 ? inner * inner : -1.0;
  const double outer = radius + kBoundaryBand;
  const double outer2 = outer * outer;
  // Shells [0, full) lie strictly inside radius - band (one whole shell of
  // margin, far beyond any sqrt rounding): their flux is a prefix lookup.
  const int full =
      std::clamp(inner > 1.0 ? static_cast<int>(inner) - 1 : 0, 0, num_shells_);
  const int last = std::clamp(static_cast<int>(outer) + 2, full, num_shells_);
  double flux = shell_flux_prefix_[full];
  // Straddling shells: the same squared-distance cuts and sub-pixel
  // boundary weighting as the direct scan, applied per entry. Interior and
  // exterior entries resolve branchlessly through four masked accumulator
  // lanes; only genuine boundary pixels take the coverage branch. The lane
  // merge reassociates the addition order (summation-order precision).
  const double* d2s = d2_.data();
  const float* vals = value_.data();
  double acc[4] = {0.0, 0.0, 0.0, 0.0};
  for (std::uint32_t i = shell_start_[full]; i < shell_start_[last]; ++i) {
    const double d2 = d2s[i];
    const bool interior = d2 <= inner2;
    const bool outside = d2 >= outer2;
    acc[i & 3] += interior ? static_cast<double>(vals[i]) : 0.0;
    if (!interior && !outside) {
      flux += vals[i] * subsampled_coverage(x_[i], y_[i], cx_, cy_, r2) / 16.0;
    }
  }
  return flux + ((acc[0] + acc[1]) + (acc[2] + acc[3]));
}

double CurveOfGrowth::annulus_mean(double r_in, double r_out) const {
  if (value_.empty() || r_out <= 0.0) return 0.0;
  const double in2 = r_in * r_in;
  const double out2 = r_out * r_out;
  // Whole shells strictly inside [r_in, r_out) resolve by prefix lookup;
  // the edge shells are scanned with the exact pixel-center cuts.
  const int full_lo = std::clamp(static_cast<int>(r_in) + 1, 0, num_shells_);
  const int full_hi =
      std::clamp(r_out > 1.0 ? static_cast<int>(r_out) - 1 : 0, full_lo, num_shells_);
  const int scan_lo = r_in > 1.0 ? static_cast<int>(r_in) - 1 : 0;
  const int scan_hi = static_cast<int>(r_out) + 2;
  double sum = shell_flux_prefix_[full_hi] - shell_flux_prefix_[full_lo];
  int count = static_cast<int>(shell_start_[full_hi] - shell_start_[full_lo]);
  scan_shells(scan_lo, full_lo, in2, out2, sum, count);
  scan_shells(full_hi, scan_hi, in2, out2, sum, count);
  return count > 0 ? sum / count : 0.0;
}

std::optional<double> CurveOfGrowth::radius_enclosing(double fraction,
                                                      double total_flux,
                                                      double max_radius) const {
  if (total_flux <= 0.0 || fraction <= 0.0 || fraction >= 1.0) return std::nullopt;
  const double target = fraction * total_flux;
  double lo = 0.0;
  double hi = max_radius;
  if (aperture_flux(hi) < target) return std::nullopt;
  for (int it = 0; it < 40 && hi - lo > 0.01; ++it) {
    const double mid = 0.5 * (lo + hi);
    if (aperture_flux(mid) < target) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

std::optional<double> CurveOfGrowth::petrosian_radius(double eta,
                                                      double max_radius) const {
  const double limit =
      std::min({max_radius, static_cast<double>(width_),
                static_cast<double>(height_)});
  const double pi = 3.14159265358979323846;
  for (double r = 1.5; r <= limit; r += 0.5) {
    const double enclosed = aperture_flux(r);
    const double area = pi * r * r;
    const double mean_interior = enclosed / area;
    if (mean_interior <= 0.0) return std::nullopt;
    // Fixed +-0.8 pixel band: a proportional band (0.9r..1.1r) is empty of
    // pixel centers at small radii on the integer lattice.
    const double local = annulus_mean(std::max(r - 0.8, 0.0), r + 0.8);
    if (local < eta * mean_interior) return r;
  }
  return std::nullopt;
}

}  // namespace nvo::core
