#include "sim/profiles.hpp"

#include <cmath>

namespace nvo::sim {

double sersic_bn(double n) {
  // Ciotti & Bertin (1999): b_n ~ 2n - 1/3 + 4/(405n) + 46/(25515 n^2).
  return 2.0 * n - 1.0 / 3.0 + 4.0 / (405.0 * n) + 46.0 / (25515.0 * n * n);
}

double sersic_profile(double r, double r_e, double n) {
  return SersicShape(r_e, n).at(r);
}

double sersic_total_flux(double r_e, double n) {
  // \int_0^inf 2 pi r exp(-b (r/re)^(1/n)) dr = 2 pi n re^2 Gamma(2n) b^-2n.
  const double bn = sersic_bn(n);
  return 2.0 * 3.14159265358979323846 * n * r_e * r_e * std::tgamma(2.0 * n) *
         std::pow(bn, -2.0 * n);
}

double regularized_gamma_p(double a, double x) {
  if (x <= 0.0) return 0.0;
  if (a <= 0.0) return 1.0;
  // lgamma(3) writes the global signgam, which races when pool workers
  // render concurrently; the reentrant variant returns the same value.
#if defined(__GLIBC__) || defined(__APPLE__)
  int sign_unused = 0;
  const double log_gamma_a = ::lgamma_r(a, &sign_unused);
#else
  const double log_gamma_a = std::lgamma(a);
#endif
  if (x < a + 1.0) {
    // Series: P(a,x) = x^a e^-x / Gamma(a) * sum x^k / (a)_(k+1).
    double term = 1.0 / a;
    double sum = term;
    double ap = a;
    for (int k = 0; k < 200; ++k) {
      ap += 1.0;
      term *= x / ap;
      sum += term;
      if (std::fabs(term) < std::fabs(sum) * 1e-14) break;
    }
    return sum * std::exp(-x + a * std::log(x) - log_gamma_a);
  }
  // Continued fraction for Q(a,x) (Lentz's method).
  const double tiny = 1e-300;
  double b = x + 1.0 - a;
  double c = 1.0 / tiny;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i <= 200; ++i) {
    const double an = -i * (i - a);
    b += 2.0;
    d = an * d + b;
    if (std::fabs(d) < tiny) d = tiny;
    c = b + an / c;
    if (std::fabs(c) < tiny) c = tiny;
    d = 1.0 / d;
    const double delta = d * c;
    h *= delta;
    if (std::fabs(delta - 1.0) < 1e-14) break;
  }
  const double q = std::exp(-x + a * std::log(x) - log_gamma_a) * h;
  return 1.0 - q;
}

double sersic_cusp_softened_total(double r_e, double n, double soft) {
  const double total = sersic_total_flux(r_e, n);
  if (soft <= 0.0) return total;
  const double bn = sersic_bn(n);
  const double x = bn * std::pow(soft / r_e, 1.0 / n);
  return total * (1.0 - regularized_gamma_p(2.0 * n, x));
}

double elliptical_radius(double dx, double dy, double q, double pa_rad) {
  return EllipseFrame(q, pa_rad).radius(dx, dy);
}

double spiral_modulation(double dx, double dy, double amp, double pitch_rad,
                         double r0) {
  return SpiralPattern(amp, pitch_rad, r0).at(dx, dy);
}

}  // namespace nvo::sim
