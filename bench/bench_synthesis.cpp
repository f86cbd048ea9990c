// Archive synthesis per cutout: the simulated archive drawing a 64x64
// cutout (target + every neighbour whose light reaches the frame, noise,
// corruption, header) as sim::synthesize_galaxy_cutout does for every cold
// campaign request. Args: supersample (1 = survey grade, 3 = campaign
// default) and workers (0 = serial, null executor; N = row bands over an
// N-thread pool through grid::parallel_for_shared, the executor a Campaign
// binds from MorphologyService::render_executor(), with the calling thread
// draining bands too).
//
// One iteration renders a fixed sample of the full-scale §5 campaign (every
// 24th of its 1525 galaxies, so dense-core and outskirt cutouts both count);
// the "cutout_s" counter is wall seconds per cutout.
//
//   ./build/bench/bench_synthesis --benchmark_min_time=2
#include <benchmark/benchmark.h>

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/parallel.hpp"
#include "grid/threadpool.hpp"
#include "sim/universe.hpp"

namespace {

using namespace nvo;

struct Sample {
  sim::Universe universe = sim::Universe::make_paper_campaign();
  std::vector<std::pair<const sim::Cluster*, const sim::GalaxyTruth*>> cutouts;

  Sample() {
    std::size_t index = 0;
    for (const sim::Cluster& c : universe.clusters()) {
      for (const sim::GalaxyTruth& g : c.galaxies) {
        if (index++ % 24 == 0) cutouts.emplace_back(&c, &g);
      }
    }
  }
};

const Sample& sample() {
  static const Sample s;
  return s;
}

void BM_SynthesizeCutout(benchmark::State& state) {
  const Sample& s = sample();
  sim::RenderOptions render = s.universe.config().render;
  render.supersample = static_cast<int>(state.range(0));
  const auto workers = static_cast<std::size_t>(state.range(1));
  std::unique_ptr<grid::ThreadPool> pool;
  ParallelFor executor;
  if (workers > 0) {
    pool = std::make_unique<grid::ThreadPool>(workers);
    executor = [&pool](std::size_t n, const std::function<void(std::size_t)>& fn) {
      grid::parallel_for_shared(*pool, n, fn);
    };
  }
  for (auto _ : state) {
    for (const auto& [cluster, galaxy] : s.cutouts) {
      benchmark::DoNotOptimize(sim::synthesize_galaxy_cutout(
          *cluster, *galaxy, 64, render, s.universe.config().seed,
          s.universe.config().corruption_rate, workers > 0 ? &executor : nullptr));
    }
  }
  state.counters["cutout_s"] = benchmark::Counter(
      static_cast<double>(s.cutouts.size()),
      benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_SynthesizeCutout)
    ->ArgNames({"supersample", "workers"})
    ->ArgsProduct({{1, 3}, {0, 1, 2, 3}})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
