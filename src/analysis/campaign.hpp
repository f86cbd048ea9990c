// The §5 campaign: "we used our prototype to separately analyze eight
// different galaxy clusters ... 1152 compute jobs ... 1525 images,
// corresponding to 30MB of data ... the transfer of 2295 files" on three
// Condor pools. Campaign wires the whole system together — universe,
// federation, grid, RLS/TC, compute service, portal — runs every cluster,
// and accumulates the same accounting columns the paper reports, plus the
// per-cluster Dressler analysis.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "analysis/dressler.hpp"
#include "common/expected.hpp"
#include "grid/grid.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pegasus/rls.hpp"
#include "pegasus/tc.hpp"
#include "portal/compute_service.hpp"
#include "portal/portal.hpp"
#include "services/chaos.hpp"
#include "services/federation.hpp"
#include "services/http.hpp"
#include "services/replica_cache.hpp"
#include "services/resilience.hpp"
#include "sim/universe.hpp"

namespace nvo::analysis {

struct CampaignConfig {
  std::uint64_t seed = 20031115;
  /// Cutout metadata retrieval mode (coalesced patch batching by default;
  /// kPerGalaxy reproduces the paper's loop, kWideCone the single
  /// cluster-wide query it wished for).
  portal::CutoutQueryMode cutout_mode = portal::CutoutQueryMode::kCoalesced;
  std::size_t compute_threads = 2;
  double corruption_rate = 0.04;  ///< bad-cutout fraction
  pegasus::SitePolicy site_policy = pegasus::SitePolicy::kRandom;
  /// Scale factor on cluster sizes (1.0 = the paper's 37..561 members);
  /// smaller values keep unit tests fast.
  double population_scale = 1.0;
  services::RetryPolicy retry;    ///< per-request tolerance (portal + compute)
  services::BreakerPolicy breaker;
  services::ChaosSchedule chaos;  ///< scripted fault windows (empty = none)
  bool enable_mirror = true;      ///< register the DSS/cutout failover mirror
  /// Compute-service image store (sharded LRU). Tests shrink byte_budget to
  /// force eviction and verify the science is cache-invariant.
  services::ReplicaCacheConfig image_cache;
  /// Optional trace-span sink, threaded into the portal and the compute
  /// service (the fabric's SimClock is attached automatically). Must
  /// outlive the campaign.
  obs::Tracer* tracer = nullptr;
  /// How each cluster's workflow execution is scheduled against its image
  /// staging (portal::ExecutionMode). kPipelined (default) dispatches a
  /// galaxy's compute node the moment its cutout lands and merges finished
  /// rows incrementally; kBarriered stages everything first (the overlap
  /// baseline). Catalog bytes are identical either way.
  portal::ExecutionMode execution_mode = portal::ExecutionMode::kPipelined;
  /// Durable checkpoint journal path; empty disables journaling. When set,
  /// staged-replica registrations, DAG node completions, per-galaxy
  /// morphology rows, and finished cluster catalogs are persisted as they
  /// happen, and run() resumes from whatever the journal already holds — a
  /// killed campaign restarted on the same journal re-executes only the
  /// unfinished work and produces a byte-identical catalog.
  std::string journal_path;
  /// In-request rescue-DAG rounds after a failed execution (0 = off). With
  /// site-outage chaos scripted, each round re-maps the unfinished portion
  /// onto surviving pools (see ChaosSchedule::site_outage).
  std::size_t rescue_rounds = 0;
  /// Hedged stage-ins in the pipelined executor: slow archive fetches are
  /// re-issued against the mirror after a quantile-derived delay, first
  /// verified success wins (portal::ComputeServiceConfig::hedge_stage_ins).
  bool hedge_stage_ins = false;
};

struct ClusterOutcome {
  std::string name;
  std::size_t galaxies = 0;
  std::size_t valid = 0;
  std::size_t invalid = 0;
  std::size_t compute_jobs = 0;
  std::size_t transfer_jobs = 0;
  std::size_t register_jobs = 0;
  double makespan_seconds = 0.0;  ///< simulated
  std::uint64_t retries = 0;        ///< HTTP re-attempts (portal + staging)
  std::uint64_t breaker_trips = 0;
  std::uint64_t failovers = 0;      ///< requests served by the mirror
  std::size_t archives_degraded = 0;  ///< archives that did not deliver
  std::uint64_t integrity_failures = 0;  ///< corrupted payloads caught staging
  std::uint64_t quarantine_skips = 0;    ///< fetches rerouted past quarantine
  bool resumed_from_journal = false;  ///< catalog served whole from the journal
  std::size_t rows_resumed = 0;       ///< morphology rows recovered, not computed
  std::size_t nodes_resumed = 0;      ///< DAG nodes skipped as journal-complete
  /// Exact output VOTable bytes as served by the compute service; the
  /// byte-identity guarantees (corruption windows, kill/resume) are
  /// asserted on this, not on a re-serialized table.
  std::string catalog_xml;
  portal::PortalTrace portal_trace;
  DresslerReport dressler;
};

struct CampaignReport {
  std::vector<ClusterOutcome> clusters;
  std::size_t total_galaxies = 0;
  std::size_t min_galaxies = 0;
  std::size_t max_galaxies = 0;
  std::size_t total_compute_jobs = 0;
  std::size_t total_transfer_jobs = 0;
  std::size_t total_register_jobs = 0;
  std::size_t total_images_fetched = 0;
  std::size_t total_bytes_transferred = 0;  ///< over the HTTP fabric
  std::size_t clusters_with_relation = 0;
  double total_sim_seconds = 0.0;
  std::size_t pools_used = 0;

  // Resilience accounting for the whole campaign.
  std::uint64_t total_retries = 0;
  std::uint64_t total_breaker_trips = 0;
  std::uint64_t total_failovers = 0;
  std::uint64_t total_integrity_failures = 0;  ///< corruptions caught staging
  std::uint64_t total_quarantine_skips = 0;
  std::size_t clusters_resumed = 0;     ///< catalogs served from the journal
  std::size_t total_rows_resumed = 0;
  std::size_t total_nodes_resumed = 0;
  std::size_t archives_degraded = 0;  ///< degraded archive interactions, summed
  /// Every degraded archive interaction, labelled "<cluster>/<archive>".
  struct Degradation {
    std::string cluster;
    portal::ArchiveStatus status;
  };
  std::vector<Degradation> degradations;

  std::string to_text() const;
};

/// Owns the full stack for one campaign run.
class Campaign {
 public:
  explicit Campaign(CampaignConfig config);
  ~Campaign();

  /// Runs every cluster of the paper campaign through the portal.
  Expected<CampaignReport> run();

  /// Runs a single cluster.
  Expected<ClusterOutcome> run_cluster(const std::string& name);

  // Internals, exposed for examples and benchmarks.
  const sim::Universe& universe() const { return *universe_; }
  /// Mutable for rebinding its render executor (bound to the compute
  /// service's pool at construction).
  sim::Universe& universe() { return *universe_; }
  services::HttpFabric& fabric() { return *fabric_; }
  /// The registered archive federation (endpoint URLs + mirror host) —
  /// front-ends layered over this campaign (portal::AsyncPortal) build
  /// their per-tenant portals from it.
  const services::Federation& federation() const { return federation_; }

  /// Registers the whole stack's metrics (fabric + routes, portal client,
  /// compute client, replica cache, kernel pool) in `registry` under the
  /// DESIGN.md §9 names. The campaign must outlive the registry's use.
  void register_metrics(obs::MetricsRegistry& registry) const;

  grid::Grid& grid() { return *grid_; }
  pegasus::ReplicaLocationService& rls() { return *rls_; }
  portal::Portal& portal() { return *portal_; }
  portal::MorphologyService& compute_service() { return *compute_; }
  /// The checkpoint journal (null when journal_path is empty or unopenable).
  grid::CheckpointJournal* journal() { return journal_.get(); }

 private:
  CampaignConfig config_;
  std::unique_ptr<sim::Universe> universe_;
  std::unique_ptr<services::HttpFabric> fabric_;
  services::Federation federation_;
  std::unique_ptr<grid::Grid> grid_;
  std::unique_ptr<pegasus::ReplicaLocationService> rls_;
  std::unique_ptr<pegasus::TransformationCatalog> tc_;
  std::unique_ptr<grid::CheckpointJournal> journal_;
  std::unique_ptr<portal::MorphologyService> compute_;
  std::unique_ptr<portal::Portal> portal_;
};

}  // namespace nvo::analysis
