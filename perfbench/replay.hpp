// Layer replay for traced runs. A workload's public entry points
// (Campaign::run_cluster, Survey::run, AsyncPortal::step) each hide several
// modules behind one call; the replay re-runs a sample of the workload's
// own inputs through each module's public functions in pipeline order —
// sim synthesis, FITS encode/decode, content digest, the core kernel
// stages, run_gal_morph, VOTable serialize/parse/join, the Dressler
// analysis — and reports the mean cost of each step.
#pragma once

#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/galmorph.hpp"
#include "sim/universe.hpp"
#include "votable/table.hpp"

namespace perfbench {

struct ReplayInputs {
  /// Universe whose clusters the galaxies belong to; also renders the
  /// optical fields and serves the NED catalogs the Dressler join uses.
  const nvo::sim::Universe* universe = nullptr;
  int cutout_size = 64;
  nvo::sim::RenderOptions render;
  std::uint64_t universe_seed = 0;
  double corruption_rate = 0.0;
  nvo::core::GalMorphArgs args;

  struct Galaxy {
    const nvo::sim::Cluster* cluster = nullptr;
    const nvo::sim::GalaxyTruth* truth = nullptr;
  };
  std::vector<Galaxy> galaxies;                         ///< kernel sample
  std::vector<const nvo::sim::Cluster*> field_clusters; ///< field renders

  struct Catalog {
    const nvo::sim::Cluster* cluster = nullptr;
    nvo::votable::Table morphology;  ///< the workload's own output rows
  };
  std::vector<Catalog> catalogs;
};

/// Replays `inputs` and sets the sim/image/services.integrity/core/votable
/// and analysis.dressler per-layer metrics in `out`. Spans go to `spans`.
void replay_layers(const ReplayInputs& inputs, SpanRecorder& spans, Metrics& out);

/// An evenly strided sample of about `target` members across `clusters`.
std::vector<ReplayInputs::Galaxy> sample_galaxies(
    const std::vector<const nvo::sim::Cluster*>& clusters, std::size_t target);

}  // namespace perfbench
