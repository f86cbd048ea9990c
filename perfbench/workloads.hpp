// The three workloads and what they share: run options, the outcome each
// returns to main(), and the science/correctness helpers that score a
// morphology catalog against the simulator's truth.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/campaign.hpp"
#include "bench_util.hpp"
#include "obs/metrics.hpp"
#include "portal/compute_service.hpp"
#include "replay.hpp"
#include "sim/cluster.hpp"
#include "votable/table.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  unsigned nproc = 1;
};

/// What a workload hands back to main(). `metrics` holds the end-to-end
/// metrics of an untraced run, or the per-layer metrics of a traced run.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;
  std::vector<std::string> notes;   ///< informational lines, printed first
  std::vector<std::string> errors;  ///< correctness failures
  SpanRecorder spans;               ///< traced runs only

  void error(std::string what) { errors.push_back(std::move(what)); }
  void note(std::string what) { notes.push_back(std::move(what)); }
  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Reports setup_s as the median of `samples_s`, with a note of the range.
  void set_setup(const std::vector<double>& samples_s);
};

Outcome run_campaign_cold(const RunOptions& options);
Outcome run_survey(const RunOptions& options);
Outcome run_portal_load(const RunOptions& options);

/// The default CampaignConfig with compute_threads capped at nproc.
nvo::analysis::CampaignConfig campaign_config(const RunOptions& options);

/// Replay inputs for a campaign stack: its universe, render options, seed
/// and corruption rate, 64 px cutouts. Galaxies and catalogs are the
/// caller's.
ReplayInputs replay_inputs(const nvo::analysis::Campaign& campaign,
                           const nvo::analysis::CampaignConfig& config);

/// Sets the services/grid/vds/pegasus/portal.staging metrics of a full-stack
/// run from registry snapshots taken around it (counters as deltas) and the
/// compute-service traces of its requests.
void set_stack_metrics(const nvo::obs::MetricsSnapshot& before,
                       const nvo::obs::MetricsSnapshot& after,
                       const std::vector<const nvo::portal::ServiceTrace*>& traces,
                       Outcome& out);

/// Sets obs.trace_overhead_ratio (traced over untraced wall) and
/// obs.unattributed_share (self time of the "workload" root span, which
/// belongs to no layer, over its duration).
void set_obs_metrics(double traced_wall_s, double untraced_wall_s, Outcome& out);

/// Row-level audit of one cluster's morphology catalog against the truth.
struct CatalogAudit {
  std::size_t expected = 0;   ///< truth members
  std::size_t missing = 0;    ///< truth members without a row
  std::size_t unexpected = 0; ///< rows for ids not in the cluster, or duplicates
  std::size_t invalid = 0;
  /// Invalid rows whose cutout is not in the deterministic corrupted subset:
  /// sources the kernel's validity rule rejects (too faint, no Petrosian
  /// radius). Lost science, counted against success_ratio.
  std::vector<const nvo::sim::GalaxyTruth*> invalid_uncorrupted;
  /// Of those, rows the kernel measures as valid when the same cutout is
  /// synthesized and measured directly: the pipeline lost a good galaxy.
  std::size_t invalid_disputed = 0;

  /// Rows that cost science: missing, unexpected, or invalid though clean.
  std::size_t lost() const { return missing + unexpected + invalid_uncorrupted.size(); }
  /// Rows that are wrong: a correctness failure of the run.
  std::size_t failures() const { return missing + unexpected + invalid_disputed; }
};

/// Audits `catalog` (columns id, valid) against `cluster`'s members, with
/// the corrupted subset of a universe seeded `universe_seed`. Every invalid
/// row outside that subset is re-measured from a direct synthesis of its
/// cutout (`render`, `cutout_size`); the run is wrong if it measures valid.
CatalogAudit audit_catalog(const nvo::votable::Table& catalog,
                           const nvo::sim::Cluster& cluster,
                           std::uint64_t universe_seed, double corruption_rate,
                           const nvo::sim::RenderOptions& render, int cutout_size);

/// One line describing a cluster's audit, for the run's notes or errors.
std::string describe(const CatalogAudit& audit, const std::string& cluster);

/// The science of one audited pass.
struct Science {
  std::size_t galaxies = 0;
  std::size_t failures = 0;  ///< wrong rows (correctness)
  std::size_t lost = 0;      ///< rows without a usable measurement
  double auc = 0.0;
  std::vector<ReplayInputs::Catalog> catalogs;  ///< one per cluster
};

/// Accumulates (C - 4A, is-early-type) pairs for the early-type AUC from
/// the valid rows of a catalog with concentration/asymmetry columns.
struct EarlyTypeScores {
  std::vector<double> scores;
  std::vector<bool> early;

  void add(const nvo::votable::Table& catalog, const nvo::sim::Cluster& cluster);
  /// ROC-AUC of the score against E+S0 truth; 0 when a class is empty.
  double auc() const;
};

}  // namespace perfbench
