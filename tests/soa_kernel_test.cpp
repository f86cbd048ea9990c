// Equivalence guards for the survey-scale kernel rework: the swept
// (index-reversed, interval-based) asymmetry statistic against the scalar
// reference it replaced, and the caller-participating parallel_for_shared
// loop the renderer's row-band executor rides on.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstddef>
#include <vector>

#include "common/rng.hpp"
#include "core/morphology.hpp"
#include "grid/threadpool.hpp"
#include "image/image.hpp"
#include "sim/galaxy.hpp"

namespace nvo::core {
namespace {

using grid::ThreadPool;
using image::Image;

Image render_test_galaxy(sim::MorphType type, int size, std::uint64_t seed) {
  sim::GalaxyTruth g;
  g.id = "SOA_TEST";
  g.seed = seed;
  g.type = type;
  g.total_flux = 2e4 * (size / 64.0) * (size / 64.0);
  g.r_e_pix = 0.09 * size;
  if (type == sim::MorphType::kSpiral) {
    g.sersic_n = 1.0;
    g.arm_amplitude = 0.5;
    g.clumpiness = 0.15;
  }
  return sim::render_galaxy(g, size, {});
}

void expect_asymmetry_equivalent(const Image& img, double cx, double cy,
                                 double radius) {
  const double ref = asymmetry_statistic_reference(img, cx, cy, radius);
  const double swept = asymmetry_statistic(img, cx, cy, radius);
  // The swept kernel computes identical per-pixel terms; only the
  // accumulation order differs (four-lane sums), so agreement is to
  // summation-order precision.
  const double scale = std::max(1.0, std::abs(ref));
  EXPECT_NEAR(swept, ref, 1e-9 * scale)
      << "cx=" << cx << " cy=" << cy << " r=" << radius
      << " size=" << img.width();
}

// ---------------------------------------------------------------------------
// Swept asymmetry vs the scalar reference, across cutout sizes.
// ---------------------------------------------------------------------------

TEST(SoaKernel, SweptAsymmetryMatchesReferenceAcrossSizes) {
  for (const int size : {16, 33, 64, 128, 256}) {
    for (const auto type : {sim::MorphType::kElliptical, sim::MorphType::kSpiral}) {
      const Image img = render_test_galaxy(type, size, 0xA5A5 + size);
      const double c = (size - 1) / 2.0;
      // Integer, fractional, and off-center recentering positions — the 3x3
      // asymmetry grid probes all of these.
      expect_asymmetry_equivalent(img, c, c, 0.35 * size);
      expect_asymmetry_equivalent(img, c + 0.37, c - 0.52, 0.35 * size);
      expect_asymmetry_equivalent(img, c - 1.0, c + 1.0, 0.25 * size);
      // Radius past the frame edge: the in-circle interval clips.
      expect_asymmetry_equivalent(img, c, c, 0.80 * size);
    }
  }
}

TEST(SoaKernel, SweptAsymmetryMaskedAndEdgeCases) {
  // All-zero frame (fully masked cutout): zero numerator and denominator.
  {
    Image zero(32, 32);
    const double a = asymmetry_statistic(zero, 15.5, 15.5, 12.0);
    const double r = asymmetry_statistic_reference(zero, 15.5, 15.5, 12.0);
    EXPECT_EQ(a, r);
  }
  // Companion-masked blocks: masked pixels are zeroed in the subtracted
  // frame, leaving sharp holes the interval sweep must step across.
  {
    Image img = render_test_galaxy(sim::MorphType::kSpiral, 64, 7);
    for (int y = 10; y < 22; ++y) {
      for (int x = 40; x < 55; ++x) img.at(x, y) = 0.0f;
    }
    for (int y = 50; y < 58; ++y) {
      for (int x = 5; x < 12; ++x) img.at(x, y) = 0.0f;
    }
    expect_asymmetry_equivalent(img, 31.5, 31.5, 24.0);
    expect_asymmetry_equivalent(img, 30.8, 32.1, 24.0);
  }
  // Noise-only frame with negative pixels (below-background residuals).
  {
    Image img(48, 48);
    Rng rng(99);
    for (int y = 0; y < 48; ++y) {
      for (int x = 0; x < 48; ++x) {
        img.at(x, y) = static_cast<float>(rng.normal(0.0, 1.0));
      }
    }
    expect_asymmetry_equivalent(img, 23.5, 23.5, 18.0);
  }
  // Center near a corner: most of the circle lies outside the frame, and
  // the mirror rows of in-frame pixels are largely clipped away.
  {
    const Image img = render_test_galaxy(sim::MorphType::kElliptical, 64, 3);
    expect_asymmetry_equivalent(img, 2.3, 1.7, 20.0);
    expect_asymmetry_equivalent(img, 62.0, 62.5, 20.0);
  }
  // Single hot pixel: the statistic is dominated by one term, so any
  // indexing slip in the mirrored sweep shows up at full magnitude.
  {
    Image img(33, 33);
    img.at(20, 13) = 1000.0f;
    expect_asymmetry_equivalent(img, 16.0, 16.0, 15.0);
    expect_asymmetry_equivalent(img, 20.0, 13.0, 10.0);
  }
}

// ---------------------------------------------------------------------------
// parallel_for_shared: coverage, small-n, and pool-reentrant safety.
// ---------------------------------------------------------------------------

TEST(SoaKernel, ParallelForSharedCoversEveryIndexOnce) {
  ThreadPool pool(4);
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                              std::size_t{1000}}) {
    std::vector<std::atomic<int>> hits(n);
    grid::parallel_for_shared(pool, n,
                              [&hits](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " of " << n;
    }
  }
}

TEST(SoaKernel, ParallelForSharedIsSafeFromInsideThePool) {
  // Outer tasks run on pool workers and fan inner loops back into the same
  // pool. A blocking parallel_for here would deadlock a fully-busy pool;
  // the shared loop must not.
  ThreadPool pool(2);
  constexpr std::size_t kOuter = 4;
  constexpr std::size_t kInner = 64;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  grid::parallel_for(pool, kOuter, [&](std::size_t outer) {
    grid::parallel_for_shared(pool, kInner, [&, outer](std::size_t inner) {
      hits[outer * kInner + inner].fetch_add(1);
    });
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "slot " << i;
  }
}

TEST(SoaKernel, ParallelForSharedSingleWorkerPool) {
  ThreadPool pool(1);
  std::vector<int> out(257, 0);
  grid::parallel_for_shared(pool, out.size(),
                            [&out](std::size_t i) { out[i] = static_cast<int>(i) + 1; });
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i) + 1);
  }
}

}  // namespace
}  // namespace nvo::core
