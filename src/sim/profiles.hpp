// Analytic galaxy light profiles used to synthesize images. The morphology
// estimators in src/core are validated against these: a Sersic n=4
// (de Vaucouleurs) spheroid is centrally concentrated and symmetric; an
// exponential (n=1) disk with spiral-arm perturbation is less concentrated
// and rotationally asymmetric — the contrast the paper's concentration and
// asymmetry indices are designed to measure (Conselice 2003).
#pragma once

#include <algorithm>
#include <cmath>

namespace nvo::sim {

/// Sersic b_n coefficient such that r_e encloses half the total light.
/// Ciotti & Bertin (1999) asymptotic expansion, accurate to <1e-4 for
/// n >= 0.5.
double sersic_bn(double n);

/// Sersic surface brightness at radius r (same units as r_e), normalized to
/// unit intensity at r = 0: I(r) = exp(-b_n * (r/r_e)^(1/n)).
double sersic_profile(double r, double r_e, double n);

/// Total flux integral of the (un-normalized) Sersic profile
/// \int 2 pi r I(r) dr = 2 pi n r_e^2 Gamma(2n) / b_n^(2n); used to scale a
/// profile to a requested total flux.
double sersic_total_flux(double r_e, double n);

/// Regularized lower incomplete gamma function P(a, x) = gamma(a, x)/Gamma(a)
/// (series expansion for x < a+1, continued fraction otherwise).
double regularized_gamma_p(double a, double x);

/// Total flux of the cusp-softened profile I(sqrt(r^2 + soft^2)): the
/// substitution u^2 = r^2 + soft^2 turns it into the Sersic integral from
/// `soft` outward, i.e. total * (1 - P(2n, b_n (soft/r_e)^(1/n))). High-n
/// profiles have an integrable cusp at r = 0 that finite pixel sampling
/// cannot integrate; the renderer softens the cusp at the PSF radius and
/// must normalize against this corrected total.
double sersic_cusp_softened_total(double r_e, double n, double soft);

/// Elliptical radius: distance in the frame rotated by `pa_rad` and
/// compressed by axis ratio q (0 < q <= 1), so iso-light contours are
/// ellipses.
double elliptical_radius(double dx, double dy, double q, double pa_rad);

/// Logarithmic spiral modulation factor: an m=2 grand-design pattern of
/// strength `amp` plus an m=1 lopsidedness term of strength 0.6*amp,
/// clamped non-negative (range [max(0, 1-1.6 amp), 1+1.6 amp]). The m=1
/// term is essential: a pure two-arm pattern is point-symmetric and would
/// contribute nothing to the 180-degree rotational asymmetry index.
double spiral_modulation(double dx, double dy, double amp, double pitch_rad,
                         double r0);

// Per-galaxy forms of the profiles above. Each holds what its free
// function recomputes on every call (b_n and 1/n, cos/sin of the position
// angle, tan of the pitch) and evaluates the same expressions in the same
// order, so a renderer that builds one per galaxy and calls it for every
// sub-sample gets bit-identical values. The free functions are these, built
// per call.

/// Sersic surface brightness of one profile (see sersic_profile).
struct SersicShape {
  SersicShape(double r_e, double n)
      : r_e(r_e), bn(sersic_bn(n)), inv_n(1.0 / n), defined(r_e > 0.0 && n > 0.0) {}
  double at(double r) const {
    if (!defined) return 0.0;
    return std::exp(-bn * std::pow(r / r_e, inv_n));
  }
  double r_e, bn, inv_n;
  bool defined;
};

/// Elliptical radius under one orientation (see elliptical_radius).
struct EllipseFrame {
  EllipseFrame(double q, double pa_rad)
      : c(std::cos(pa_rad)), s(std::sin(pa_rad)), qq(q <= 0.0 ? 1e-3 : q) {}
  double radius(double dx, double dy) const {
    const double u = dx * c + dy * s;   // along the major axis
    const double v = -dx * s + dy * c;  // along the minor axis
    return std::sqrt(u * u + (v / qq) * (v / qq));
  }
  double c, s, qq;
};

/// Spiral modulation of one disk (see spiral_modulation).
struct SpiralPattern {
  SpiralPattern(double amp, double pitch_rad, double r0)
      : amp(amp), tan_pitch(std::tan(pitch_rad)), r0(r0) {}
  double at(double dx, double dy) const {
    if (amp <= 0.0) return 1.0;
    const double r = std::sqrt(dx * dx + dy * dy);
    const double theta = std::atan2(dy, dx);
    const double winding =
        tan_pitch != 0.0 ? std::log(std::max(r, 0.25) / r0) / tan_pitch : 0.0;
    // m=2 grand-design pattern plus an m=1 lopsidedness term. The m=2 term
    // alone is point-symmetric (cos(2(theta+pi-w)) = cos(2(theta-w))), so a
    // pure two-arm spiral would have zero rotational asymmetry; real disks
    // are lopsided, and the m=1 component is what the asymmetry index sees.
    const double m2 = amp * std::cos(2.0 * (theta - winding));
    const double m1 = 0.6 * amp * std::cos(theta - winding);
    return std::max(0.0, 1.0 + m2 + m1);
  }
  double amp, tan_pitch, r0;
};

/// Lanczos-free sub-pixel integration helper: mean profile value over a
/// pixel sampled on an s x s grid (s=3 is plenty for r_e >= 1.5 pix).
template <typename F>
double integrate_pixel(F&& profile, double cx, double cy, int x, int y, int s = 3) {
  double sum = 0.0;
  const double step = 1.0 / s;
  for (int j = 0; j < s; ++j) {
    for (int i = 0; i < s; ++i) {
      const double px = x + (i + 0.5) * step - 0.5;
      const double py = y + (j + 0.5) * step - 0.5;
      sum += profile(px - cx, py - cy);
    }
  }
  return sum / (s * s);
}

}  // namespace nvo::sim
