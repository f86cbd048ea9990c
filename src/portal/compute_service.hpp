// The galaxy-morphology compute web service (paper §4.3, Fig. 6): "the type
// of highly-specialized service that we expect to see when the NVO
// environment reaches its most mature state." Protocol, as in the paper:
//
//   1. The portal POSTs an input VOTable + desired output name; the service
//      assigns a unique request id and immediately returns a status URL.
//   2. The service checks the RLS for the output VOTable; a hit completes
//      the request at once (result caching).
//   3. Otherwise it downloads every galaxy image into its local cache and
//      registers them in the RLS (so later requests use GridFTP-class local
//      access instead of SIA).
//   4. The input VOTable is transformed into a VDL derivation file; Chimera
//      composes the abstract workflow; Pegasus reduces/maps it; DAGMan
//      executes it (simulated timing + real morphology computation).
//   5. The output VOTable is registered in the RLS; polls of the status URL
//      now return "job completed" plus the result URL.
//
// Per-galaxy failures (corrupted cutouts) yield validity-flagged rows, not
// request failures (§4.3.1 item 4).
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/expected.hpp"
#include "common/ids.hpp"
#include "common/parallel.hpp"
#include "grid/checkpoint.hpp"
#include "grid/dagman.hpp"
#include "grid/grid.hpp"
#include "grid/threadpool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pegasus/planner.hpp"
#include "pegasus/rls.hpp"
#include "pegasus/tc.hpp"
#include "services/http.hpp"
#include "services/lifecycle.hpp"
#include "services/replica_cache.hpp"
#include "services/resilience.hpp"
#include "vds/chimera.hpp"
#include "vds/provenance.hpp"
#include "votable/table.hpp"

namespace nvo::portal {

/// How the simulated workflow execution is scheduled against image staging.
enum class ExecutionMode {
  /// Phase barrier: all images stage (sequentially on the sim clock), then
  /// the DAG runs. The original executor's timeline, kept as the overlap
  /// baseline. Catalog rows stream through the same StreamingCatalogWriter
  /// as in kPipelined, so only the simulated timeline differs.
  kBarriered,
  /// Event-driven dataflow: stage-in requests occupy a bounded window of
  /// concurrent channels on the sim clock, each galaxy's compute node
  /// becomes dispatchable the moment its cutout lands in the replica cache
  /// (ready-on-data edges through DagManSim::set_ready_times), and slow
  /// fetches may be hedged. Science output is byte-identical to kBarriered;
  /// only the simulated timeline changes.
  kPipelined,
};

struct ComputeServiceConfig {
  std::string host = "galmorph.isi.sim";  ///< service host on the fabric
  std::string cache_site = "isi";         ///< grid site holding the image cache
  pegasus::PlannerConfig planner;         ///< site/replica policies etc.
  grid::JobCostModel cost;                ///< simulated job durations
  grid::FailureModel failure;             ///< injected grid failures
  std::size_t compute_threads = 2;        ///< real kernel parallelism
  std::uint64_t seed = 17;
  services::RetryPolicy retry;            ///< image staging / poll tolerance
  services::BreakerPolicy breaker;
  /// Failover mirrors for staging fetches (archive host -> mirror host).
  std::map<std::string, std::string> mirrors;
  /// Byte-budgeted LRU replica store backing the image cache. Evicted LFNs
  /// are deregistered from the RLS/grid so plans never rely on them.
  services::ReplicaCacheConfig replica_cache;
  /// Execution scheduling mode (see ExecutionMode). Pipelined is the
  /// default; barriered remains for benchmarking and identity checks.
  ExecutionMode execution_mode = ExecutionMode::kPipelined;
  /// Optional trace-span sink (staging, planning, DAGMan nodes, kernels).
  /// Must outlive the service.
  obs::Tracer* tracer = nullptr;
  /// Optional durable checkpoint journal (must outlive the service). When
  /// set, staged-image registrations, DAG node completions, and per-galaxy
  /// morphology rows are persisted as they happen, and process() resumes
  /// from whatever the journal already holds: journaled rows skip staging
  /// and the kernel, journaled node completions are cut out of the DAG via
  /// the rescue machinery, and the merged report covers both halves.
  grid::CheckpointJournal* journal = nullptr;
  /// Chaos kill injection: abort DAG execution with kAborted once this many
  /// node completions have been counted across the service's lifetime
  /// (0 disables). Simulates the submit host dying mid-DAG so the
  /// checkpoint/resume path can be exercised deterministically.
  std::size_t abort_after_nodes = 0;
  /// Rescue-DAG rounds after a failed execution (0 preserves the old
  /// behavior: no in-request rescue; journal resume still performs its
  /// single implicit round). Each round rebuilds the unfinished portion,
  /// re-maps it off any pools the executor has latched dead (site-outage
  /// chaos), and reruns it on the same sim engine.
  std::size_t rescue_rounds = 0;
  /// Hedged stage-ins (pipelined executor only): once enough fetch
  /// durations have been observed, a fetch slower than the hedge delay —
  /// a fixed quantile of a service-level rolling window of primary
  /// durations (learned across requests, so a warm service protects a new
  /// request's first fetches too) — is re-issued against the archive's
  /// registered mirror. First verified success wins:
  /// the cutout's effective arrival on the stage-in channels is
  /// min(primary, delay + hedge), and the loser's bytes are charged to
  /// `hedge_wasted_bytes` (the stream is cancelled, but its WAN transfer
  /// already happened). Requires a mirror in `mirrors` for the archive
  /// host; fetches without one are never hedged.
  bool hedge_stage_ins = false;
};

/// Everything measured about one request (drives the Fig. 6 benchmark).
struct ServiceTrace {
  std::string request_id;
  std::string cluster_name;
  bool cache_hit = false;          ///< output VOTable already in the RLS
  bool journal_hit = false;        ///< catalog served from the checkpoint journal
  std::size_t galaxies = 0;
  std::size_t images_fetched = 0;  ///< downloaded via SIA this request
  std::size_t images_cached = 0;   ///< served from the local cache
  double image_fetch_sim_ms = 0.0; ///< simulated SIA download time
  std::uint64_t staging_retries = 0;    ///< HTTP re-attempts while staging
  std::uint64_t staging_failovers = 0;  ///< staging fetches served by a mirror
  std::uint64_t staging_breaker_trips = 0;
  std::uint64_t staging_integrity_failures = 0;  ///< corrupted payloads caught
  std::uint64_t staging_quarantine_skips = 0;    ///< fetches rerouted to mirror
  std::uint64_t hedged_fetches = 0;  ///< stage-ins that issued a mirror hedge
  std::uint64_t hedge_wins = 0;      ///< hedges whose arrival beat the primary
  /// Loser-transfer bytes: WAN traffic the slower copy of a hedged fetch
  /// had already moved when it was cancelled. The honest cost of hedging.
  std::size_t hedge_wasted_bytes = 0;
  double hedge_delay_ms = 0.0;       ///< last quantile-derived hedge delay
  /// Archive payload bytes fetched while staging (primary + hedge streams).
  std::size_t staging_wan_bytes = 0;
  /// p99 of effective per-fetch stage-in durations (simulated ms) — the
  /// tail the hedging defends; 0 when nothing was fetched.
  double stage_in_p99_ms = 0.0;
  std::size_t rows_resumed = 0;   ///< morphology rows loaded from the journal
  std::size_t nodes_resumed = 0;  ///< DAG nodes skipped as journal-completed
  double vdl_bytes = 0.0;
  double compose_wall_ms = 0.0;
  double plan_wall_ms = 0.0;
  /// Real morphology computation. With pipelined staging the kernels run
  /// concurrently with image fetches, so this measures the full overlapped
  /// stage-and-compute window (fetch start to last kernel done).
  double kernel_wall_ms = 0.0;
  pegasus::PlanResult plan;
  grid::RunReport execution;       ///< simulated DAGMan run
  std::size_t valid_results = 0;
  std::size_t invalid_results = 0;
  /// End-to-end simulated latency the portal would observe (zero on a
  /// cache hit). Barriered: sequential image staging + workflow makespan.
  /// Pipelined: the makespan alone — staging arrivals are folded into it
  /// as per-node ready times, so overlapped fetch latency is not billed.
  double total_sim_seconds = 0.0;
};

class MorphologyService {
 public:
  /// Registers /status and /results routes on the fabric. The grid, RLS,
  /// and TC references must outlive the service; galMorph is installed at
  /// every grid site in the TC if absent.
  MorphologyService(services::HttpFabric& fabric, grid::Grid& grid,
                    pegasus::ReplicaLocationService& rls,
                    pegasus::TransformationCatalog& tc, ComputeServiceConfig config);

  /// The paper's client call: galMorphCompute(vot, outVOTName) -> status
  /// URL. The input table needs `id`, `redshift`, and `cutout_url` columns;
  /// `out_name` is the logical name of the output VOTable (named after the
  /// cluster). The optional request context carries the caller's remaining
  /// deadline budget and cancellation token through staging fetches, kernel
  /// tasks and DAG dispatch; an expired budget fails the request with state
  /// "expired" (journal rows persisted so far are kept — a resubmission
  /// resumes instead of recomputing), a cancelled token with "cancelled".
  /// Neither outcome materializes or memoizes a catalog.
  Expected<std::string> gal_morph_compute(const votable::Table& input,
                                          const std::string& out_name,
                                          const services::RequestContext& ctx = {});

  /// Client-side poll of a status URL.
  struct PollResult {
    std::string state;  ///< "running", "completed", "failed"
    std::string result_url;
    std::vector<std::string> messages;
  };
  Expected<PollResult> poll(const std::string& status_url) const;

  /// Raw XML bytes of a materialized output VOTable (exactly what /results
  /// serves); nullptr when the LFN is unknown. Byte-identity checks compare
  /// these rather than re-serialized tables.
  const std::string* result_xml(const std::string& out_lfn) const;

  /// Trace lookup for benchmarks (by request id). Null when unknown.
  const ServiceTrace* trace(const std::string& request_id) const;
  /// Trace of the most recent request.
  const ServiceTrace* last_trace() const;

  /// Provenance of everything this service has materialized: per-galaxy
  /// results and output VOTables, with the derivation parameters and
  /// execution sites (GriPhyN's "virtual data and provenance").
  const vds::ProvenanceCatalog& provenance() const { return provenance_; }

  const ComputeServiceConfig& config() const { return config_; }

  /// True once the one-shot abort_after_nodes chaos kill has fired.
  bool kill_fired() const { return kill_fired_; }

  /// The service's resilient HTTP client (staging + poll tolerance state).
  const services::ResilientClient& client() const { return client_; }

  /// The sharded LRU replica store (hit/miss/eviction/bytes metrics).
  const services::ReplicaCache& replica_cache() const { return cache_; }

  /// The service-lifetime kernel pool (queue/active/idle observables).
  const grid::ThreadPool& pool() const { return pool_; }

  /// The pool-backed parallel-for the kernel tiles large cutouts over
  /// (grid::parallel_for_shared on pool()). The campaign also binds it to
  /// its universe as the archive renderer's row-band executor. Lives as long
  /// as the service.
  const ParallelFor& tile_executor() const { return tile_executor_; }

  /// Registers this service's metrics (staging client, replica cache,
  /// kernel pool) under "client.compute.*", "cache.replica.*" and "pool.*",
  /// plus "staging.inflight" (live staged-but-uncomputed image count). The
  /// service must outlive the registry's use.
  void register_metrics(obs::MetricsRegistry& registry) const;

 private:
  struct RequestRecord {
    std::string id;
    std::string state = "running";
    std::vector<std::string> messages;
    std::string result_lfn;
    ServiceTrace trace;
  };

  /// Per-request state shared by the pipeline stages (defined in the .cpp).
  struct Request;

  /// The request pipeline: serve an already materialized result, or replay
  /// journaled images, stage (hedged fetch, admit, kernel submit), compose
  /// and plan, execute with rescue, and materialize.
  Status process(RequestRecord& record, const votable::Table& input,
                 const std::string& out_name, const services::RequestContext& ctx);
  bool serve_materialized(RequestRecord& record, const std::string& out_lfn,
                          obs::Span& req);
  void replay_journaled_images(Request& rq);
  Status stage(Request& rq);
  services::ReplicaCache::Payload admit_image(Request& rq, const std::string& id,
                                              const std::string& url);
  Expected<services::HttpResponse> fetch_hedged(Request& rq, const std::string& lfn,
                                                const std::string& url);
  void submit_kernel(Request& rq, std::size_t i, services::ReplicaCache::Payload payload,
                     std::uint64_t staging_id);
  Status compose_and_plan(Request& rq);
  Status execute(Request& rq);
  Status run_rescue_rounds(Request& rq, grid::DagManSim& dagman);
  void materialize(Request& rq, obs::Span& req);

  services::HttpFabric& fabric_;
  grid::Grid& grid_;
  pegasus::ReplicaLocationService& rls_;
  pegasus::TransformationCatalog& tc_;
  ComputeServiceConfig config_;
  // Mutable: poll is a logically const read but goes through the client's
  // retry/breaker state.
  mutable services::ResilientClient client_;
  IdGenerator ids_;
  vds::ProvenanceCatalog provenance_;
  // Service-lifetime compute pool: worker threads persist across requests
  // (and with them the kernel's thread-local workspaces), instead of being
  // spawned and joined inside every request.
  grid::ThreadPool pool_;
  // Intra-kernel executor handed to run_gal_morph for large (>= 128px)
  // cutouts: tiled kernel stages fan back out over the same pool via
  // parallel_for_shared, which is safe to enter from a pool worker (the
  // worker itself drains chunks, so a fully-busy pool cannot deadlock).
  ParallelFor tile_executor_;
  // Sharded byte-budgeted LRU image store replacing the old unbounded map.
  // Entries are registered in the RLS/grid on insert and deregistered on
  // eviction, so Pegasus reduction sees exactly what is resident.
  services::ReplicaCache cache_;
  // Evictions of LFNs staged by the active request are deferred until the
  // request's plan is committed: the RLS must keep advertising a replica
  // the in-flight workflow references, or a starved budget would fail the
  // feasibility check instead of merely running cache-cold. Flushed (for
  // entries still non-resident) when the request completes.
  bool defer_evictions_ = false;
  std::unordered_set<std::string> request_lfns_;
  std::vector<std::string> deferred_evictions_;
  /// Node completions across the service's lifetime; drives the chaos
  /// kill counter (ComputeServiceConfig::abort_after_nodes).
  std::size_t nodes_completed_total_ = 0;
  /// The abort_after_nodes kill has fired. One-shot: only the request in
  /// flight when the threshold is crossed aborts; subsequent requests
  /// (other tenants through a shared service) proceed normally.
  bool kill_fired_ = false;
  /// Staged-but-uncomputed images currently pinned for pending kernel
  /// tasks (the kPrefetchDepth bound's live occupancy). Atomic so the
  /// "staging.inflight" gauge can read it while pool workers decrement.
  std::atomic<std::size_t> staging_inflight_{0};
  /// Rolling window of primary (unhedged) stage-in durations across the
  /// service's lifetime — the sample set the hedge delay is derived from.
  /// Service-level on purpose: the delay learned on one request protects
  /// the next one's earliest fetches, instead of re-warming per request.
  /// Bounded (oldest dropped) so the delay tracks current archive weather.
  std::vector<double> hedge_history_;

  // Shared with fabric handler closures.
  struct State {
    std::map<std::string, RequestRecord> requests;          // id -> record
    std::map<std::string, std::string> results;             // lfn -> VOTable XML
    std::vector<std::string> order;                         // request ids, oldest first
  };
  std::shared_ptr<State> state_;
};

}  // namespace nvo::portal
