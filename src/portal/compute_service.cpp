#include "portal/compute_service.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <utility>

#include "common/log.hpp"
#include "common/strings.hpp"
#include "core/galmorph.hpp"
#include "grid/rescue.hpp"
#include "grid/threadpool.hpp"
#include "services/integrity.hpp"
#include "services/obs_bridge.hpp"
#include "pegasus/request_manager.hpp"
#include "portal/streaming_merge.hpp"
#include "portal/transforms.hpp"
#include "services/sia.hpp"
#include "votable/votable_io.hpp"

namespace nvo::portal {

namespace {
double wall_ms_since(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                   t0)
      .count();
}

/// Bound on staged-but-uncomputed images in flight: the staging loop blocks
/// once this many kernel tasks are pending, keeping pinned cutout memory
/// proportional to the bound rather than the cluster size.
constexpr std::size_t kPrefetchDepth = 32;

/// Pipelined mode: concurrent stage-in channels on the sim clock. Fetch
/// latencies overlap each other up to this bound (and all of them overlap
/// kernel time), modeling a client that keeps this many transfers in flight
/// against the archive.
constexpr std::size_t kStageInWindow = 8;

/// Hedged stage-ins: the hedge delay is this quantile of the rolling window
/// of primary durations, used once kHedgeMinSamples have been observed. With
/// ~15% of fetches browned out, 0.75 keeps the derived delay in the fast
/// mode so hedges launch early enough to rescue the stragglers.
constexpr double kHedgeQuantile = 0.75;
constexpr std::size_t kHedgeMinSamples = 6;

/// Cap on the service-level rolling window of primary stage-in durations
/// (hedge_history_): old weather ages out, the quantile sort stays cheap.
constexpr std::size_t kHedgeHistoryLimit = 512;

/// Linear-interpolated quantile of a sample set (q in [0,1]).
double quantile_of(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// Pipelined mode: replays the per-fetch durations onto kStageInWindow
/// channels (each fetch takes the earliest-free one, in issue order) to
/// derive each cutout's arrival on the sim clock, and returns each DAG
/// node's ready time (seconds): the moment its data lands. Only the timeline
/// changes; the per-(node, attempt) failure draws are schedule-invariant.
std::map<std::string, double> stage_in_ready_times(
    const std::vector<std::pair<std::string, double>>& fetches,
    const pegasus::PlanResult& plan, const std::string& cache_site) {
  std::priority_queue<double, std::vector<double>, std::greater<>> channels;
  for (std::size_t c = 0; c < kStageInWindow; ++c) channels.push(0.0);
  std::map<std::string, double> arrival_ms;
  for (const auto& [lfn, dur_ms] : fetches) {
    const double start = channels.top();
    channels.pop();
    const double done = start + dur_ms;
    channels.push(done);
    arrival_ms[lfn] = done;
  }
  std::map<std::string, double> ready;
  for (const auto& [node_id, inputs] : plan.data_inputs) {
    double node_ready_ms = 0.0;
    for (const std::string& lfn : inputs) {
      const auto it = arrival_ms.find(lfn);
      // Absent = cache hit or journal replay: resident before the run.
      if (it != arrival_ms.end()) node_ready_ms = std::max(node_ready_ms, it->second);
    }
    if (node_ready_ms > 0.0) ready[node_id] = node_ready_ms / 1000.0;
  }
  // Multi-pool plans insert stage-in transfers sourced at the cache site for
  // cutouts that are themselves still arriving from the archive: the
  // inter-site stream cannot start before its file lands in the cache.
  for (const std::string& tid : plan.concrete.node_ids()) {
    const vds::DagNode* tn = plan.concrete.node(tid);
    if (tn->type != vds::JobType::kTransfer || tn->source_site != cache_site) continue;
    if (const auto it = arrival_ms.find(tn->file); it != arrival_ms.end()) {
      ready[tid] = std::max(ready[tid], it->second / 1000.0);
    }
  }
  return ready;
}

// --- checkpoint record codecs ---------------------------------------------
// The journal stores per-galaxy morphology rows and staged-image
// registrations as space-separated fields in the common record codec
// (common/strings.hpp): a resumed row must be bit-identical to the one the
// kernel produced, and a decimal round-trip would lose ulps and break the
// byte-identical-catalog guarantee.

/// Pointers to the 15 doubles of a result, in serialization order.
/// Templated so the same list serves encode (const) and decode (mutable).
template <typename R>
auto result_doubles(R& r) {
  return std::array{&r.redshift,
                    &r.kpc_per_arcsec,
                    &r.petrosian_r_kpc,
                    &r.params.surface_brightness,
                    &r.params.concentration,
                    &r.params.asymmetry,
                    &r.params.total_flux,
                    &r.params.petrosian_r,
                    &r.params.r20,
                    &r.params.r80,
                    &r.params.centroid_x,
                    &r.params.centroid_y,
                    &r.params.background_level,
                    &r.params.background_sigma,
                    &r.params.snr};
}

std::string encode_result(const core::GalMorphResult& r) {
  std::string out = escape_field(r.galaxy_id);
  out += r.params.valid ? " 1 " : " 0 ";
  out += r.params.failure_reason.empty() ? "-"
                                         : escape_field(r.params.failure_reason);
  for (const double* d : result_doubles(r)) {
    out += ' ';
    append_hex_double(out, *d);
  }
  return out;
}

bool decode_result(const std::string& payload, core::GalMorphResult& out) {
  const std::vector<std::string> f = split(payload, ' ');
  if (f.size() != 18) return false;
  out.galaxy_id = unescape_field(f[0]);
  out.params.valid = f[1] == "1";
  out.params.failure_reason = f[2] == "-" ? std::string() : unescape_field(f[2]);
  const auto slots = result_doubles(out);
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (!parse_hex_double(f[3 + i], *slots[i])) return false;
  }
  return true;
}
}  // namespace

MorphologyService::MorphologyService(services::HttpFabric& fabric, grid::Grid& grid,
                                     pegasus::ReplicaLocationService& rls,
                                     pegasus::TransformationCatalog& tc,
                                     ComputeServiceConfig config)
    : fabric_(fabric),
      grid_(grid),
      rls_(rls),
      tc_(tc),
      config_(std::move(config)),
      client_(fabric, config_.retry, config_.breaker, "compute"),
      ids_("req"),
      pool_(config_.compute_threads),
      tile_executor_([this](std::size_t n,
                            const std::function<void(std::size_t)>& fn) {
        grid::parallel_for_shared(pool_, n, fn);
      }),
      cache_(config_.replica_cache),
      state_(std::make_shared<State>()) {
  for (const auto& [host, mirror] : config_.mirrors) client_.add_mirror(host, mirror);
  // Keep the RLS and grid truthful under eviction: a dropped replica must
  // not be advertised, or Pegasus would prune a stage-in it still needs.
  cache_.set_eviction_callback([this](const std::string& lfn) {
    // An LFN staged by the active request stays advertised until that
    // request completes (see MorphologyService::Request).
    if (defer_evictions_ && request_lfns_.count(lfn) != 0) {
      deferred_evictions_.push_back(lfn);
      return;
    }
    (void)rls_.remove(lfn, config_.cache_site);
    grid_.remove_file(config_.cache_site, lfn);
  });
  // galMorph is installed at every pool (the paper shipped its executable to
  // all three sites).
  for (const std::string& site : grid_.site_names()) {
    (void)tc_.add({"galMorph", site, "/grid/bin/galMorph", {{"version", "1.0"}}});
  }

  // Status endpoint: tiny key=value document.
  auto state = state_;
  fabric_.route(config_.host, "/status",
                [state](const services::Url& url)
                    -> Expected<services::HttpResponse> {
                  const auto id = url.param("id");
                  if (!id) return Error(ErrorCode::kInvalidArgument, "missing id");
                  const auto it = state->requests.find(*id);
                  if (it == state->requests.end()) {
                    return Error(ErrorCode::kNotFound, "unknown request " + *id);
                  }
                  const RequestRecord& r = it->second;
                  std::string body = "state=" + r.state + "\n";
                  if (r.state == "completed") {
                    body += "result=" + r.result_lfn + "\n";
                  }
                  for (const std::string& m : r.messages) body += "message=" + m + "\n";
                  return services::HttpResponse::text(body);
                },
                services::EndpointModel{10.0, 50.0, 0.0, true});

  // Result endpoint: serves the computed VOTable.
  fabric_.route(config_.host, "/results",
                [state](const services::Url& url)
                    -> Expected<services::HttpResponse> {
                  const auto name = url.param("name");
                  if (!name) return Error(ErrorCode::kInvalidArgument, "missing name");
                  const auto it = state->results.find(*name);
                  if (it == state->results.end()) {
                    return Error(ErrorCode::kNotFound, "no result " + *name);
                  }
                  return services::HttpResponse::text(it->second,
                                                      "text/xml;content=x-votable");
                },
                services::EndpointModel{10.0, 50.0, 0.0, true});
}

Expected<std::string> MorphologyService::gal_morph_compute(
    const votable::Table& input, const std::string& out_name,
    const services::RequestContext& ctx) {
  RequestRecord record;
  record.id = ids_.next();
  record.trace.request_id = record.id;
  record.trace.cluster_name = out_name;
  const std::string status_url =
      "http://" + config_.host + "/status?id=" + record.id;
  record.messages.push_back("request accepted: " + out_name);

  const Status s = process(record, input, out_name, ctx);
  if (!s.ok()) {
    // Cancelled/expired are first-class terminal states — the portal maps
    // them back onto its own request lifecycle; everything else is "failed".
    record.state = s.error().code == ErrorCode::kCancelled ? "cancelled"
                   : s.error().code == ErrorCode::kDeadlineExceeded
                       ? "expired"
                       : "failed";
    record.messages.push_back("error: " + s.error().to_string());
  }
  const std::string request_id = record.id;
  state_->requests[request_id] = std::move(record);
  state_->order.push_back(request_id);
  return status_url;
}

/// One request's state, shared by the stages of process(). It defers cache
/// evictions while it lives; on every exit path it drains the pool (kernel
/// tasks reference it), then deregisters the deferred replicas that are
/// still not resident.
struct MorphologyService::Request {
  Request(MorphologyService& service, RequestRecord& rec, const votable::Table& in,
          const std::string& name, const std::string& lfn,
          const services::RequestContext& c)
      : svc(service),
        record(rec),
        input(in),
        out_name(name),
        out_lfn(lfn),
        ck(lfn + "/"),
        ctx(c),
        journal(service.config_.journal),
        pipelined(service.config_.execution_mode == ExecutionMode::kPipelined),
        id_col(*in.column_index("id")),  // both checked by process()
        url_col(*in.column_index("cutout_url")),
        z_col(in.column_index("redshift")),
        results(in.num_rows()),
        writer(lfn, results) {
    galaxy_ids.reserve(in.num_rows());  // exact: element refs stay stable
    svc.defer_evictions_ = true;
  }
  ~Request() {
    svc.pool_.wait_idle();
    svc.defer_evictions_ = false;
    for (const std::string& lfn : svc.deferred_evictions_) {
      if (!svc.cache_.contains(lfn)) {
        (void)svc.rls_.remove(lfn, svc.config_.cache_site);
        svc.grid_.remove_file(svc.config_.cache_site, lfn);
      }
    }
    svc.deferred_evictions_.clear();
    svc.request_lfns_.clear();
  }

  MorphologyService& svc;
  RequestRecord& record;
  const votable::Table& input;
  const std::string& out_name;
  const std::string& out_lfn;
  const std::string ck;  ///< journal key prefix: "<out_lfn>/..."
  const services::RequestContext& ctx;
  grid::CheckpointJournal* const journal;
  const bool pipelined;
  const std::size_t id_col;
  const std::size_t url_col;
  const std::optional<std::size_t> z_col;
  std::vector<core::GalMorphResult> results;
  std::vector<std::string> galaxy_ids;
  /// Rows stream into the output VOTable as galaxies finish (kernel done +
  /// node final), in input order, in both execution modes.
  StreamingCatalogWriter writer;
  /// Effective (post-hedging) simulated duration of each fetch, in issue
  /// order: the stage-in tail metric, and in pipelined mode the cutout
  /// arrivals that become ready times.
  std::vector<std::pair<std::string, double>> fetches;
  std::chrono::steady_clock::time_point stage_t0;
  // Serializes the blocking bound on staging_inflight_ (an atomic member so
  // the "staging.inflight" gauge can read it).
  std::mutex inflight_mu;
  std::condition_variable inflight_cv;
};

Status MorphologyService::process(RequestRecord& record, const votable::Table& input,
                                  const std::string& out_name,
                                  const services::RequestContext& ctx) {
  obs::Span req = obs::start_span(config_.tracer, "compute.request", "compute");
  req.note("request", record.id);
  if (ctx.cancelled()) {
    return Error(ErrorCode::kCancelled,
                 "request cancelled before staging: " + ctx.cancel.reason());
  }
  if (ctx.expired(fabric_.now_ms())) {
    return Error(ErrorCode::kDeadlineExceeded,
                 "deadline budget exhausted before staging");
  }
  // Every transport call this request makes — staging fetches and their
  // retries — now sees the caller's remaining budget and cancellation token;
  // restored when process() returns, so polls from other requests are
  // unaffected.
  services::ResilientClient::ScopedContext scoped_ctx(client_, ctx);
  const std::string out_lfn = ends_with(out_name, ".vot")
                                  ? out_name
                                  : output_votable_lfn(out_name);
  record.result_lfn = "http://" + config_.host + "/results?name=" + out_lfn;
  if (serve_materialized(record, out_lfn, req)) return Status::Ok();

  if (!input.column_index("id") || !input.column_index("cutout_url")) {
    return Error(ErrorCode::kInvalidArgument,
                 "input VOTable needs id and cutout_url columns");
  }
  record.trace.galaxies = input.num_rows();
  if (record.trace.galaxies == 0) {
    return Error(ErrorCode::kInvalidArgument, "input VOTable has no rows");
  }
  Request rq(*this, record, input, out_name, out_lfn, ctx);
  replay_journaled_images(rq);
  if (const Status s = stage(rq); !s.ok()) return s;
  if (const Status s = compose_and_plan(rq); !s.ok()) return s;
  if (const Status s = execute(rq); !s.ok()) return s;
  materialize(rq, req);
  return Status::Ok();
}

bool MorphologyService::serve_materialized(RequestRecord& record,
                                           const std::string& out_lfn, obs::Span& req) {
  ServiceTrace& trace = record.trace;
  const bool rls_hit = rls_.exists(out_lfn) && state_->results.count(out_lfn) != 0;
  const std::string* xml = !rls_hit && config_.journal
                               ? config_.journal->find("cluster", out_lfn)
                               : nullptr;
  if (!rls_hit && !xml) return false;
  if (rls_hit) {
    // (2) RLS lookup for the output VOTable: the result cache.
    trace.cache_hit = true;
    record.messages.push_back("output " + out_lfn + " already materialized (RLS hit)");
    req.count("result_cache_hit", 1.0);
  } else {
    // (2b) Checkpoint-journal result cache: a cluster whose catalog was
    // persisted by an earlier (possibly killed) campaign completes without
    // re-staging, re-planning, or re-computing anything.
    state_->results[out_lfn] = *xml;
    rls_.add(out_lfn, config_.cache_site, record.result_lfn);
    grid_.put_file(config_.cache_site, out_lfn, xml->size());
    trace.journal_hit = true;
    record.messages.push_back("output " + out_lfn + " recovered from checkpoint journal");
    req.count("journal_hit", 1.0);
  }
  trace.total_sim_seconds = 0.0;
  record.state = "completed";
  return true;
}

void MorphologyService::replay_journaled_images(Request& rq) {
  if (!rq.journal) return;
  // Resume replay: re-register journaled staged images (replica location,
  // size, content digest) so the planner sees the same replica state the
  // original run had at plan time — identical inputs give an identical
  // concrete DAG, which is what lets journaled node ids line up.
  rq.journal->for_each("image", [&](const std::string& key, const std::string& payload) {
    if (!starts_with(key, rq.ck)) return;
    const std::vector<std::string> f = split(payload, ' ');
    std::uint64_t digest = 0;
    if (f.size() != 3 || !parse_hex_u64(f[2], digest)) return;
    const std::string lfn = key.substr(rq.ck.size());
    rls_.add(lfn, config_.cache_site, unescape_field(f[0]), digest);
    grid_.put_file(config_.cache_site, lfn, std::strtoull(f[1].c_str(), nullptr, 10));
  });
}

Status MorphologyService::stage(Request& rq) {
  // (3) Stage images through the replica cache, pipelined against the
  // kernels: each fetch stays on this thread (the fabric is not
  // thread-safe), but the moment a payload is resident its kernel task goes
  // to the pool, so simulated transfer time overlaps real compute time.
  ServiceTrace& trace = rq.record.trace;
  const std::size_t n = rq.input.num_rows();
  rq.record.messages.push_back(format("staging %zu galaxy images", trace.galaxies));
  obs::Span staging = obs::start_span(config_.tracer, "compute.staging", "compute");
  const services::EndpointStats before = client_.totals();
  rq.stage_t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    // Cooperative cancellation / deadline expiry, checked between galaxies:
    // rows journaled so far are preserved (a resubmission resumes instead of
    // recomputing), kernel tasks already queued drop via their cancel branch,
    // and the Request's destructor unwinds everything else.
    if (rq.ctx.cancelled()) {
      return Error(ErrorCode::kCancelled,
                   format("staging cancelled after %zu of %zu galaxies", i, n));
    }
    if (rq.ctx.expired(fabric_.now_ms())) {
      return Error(ErrorCode::kDeadlineExceeded,
                   format("deadline exceeded while staging (%zu of %zu galaxies)", i, n));
    }
    const auto id = rq.input.row(i)[rq.id_col].as_string();
    const auto url = rq.input.row(i)[rq.url_col].as_string();
    if (!id || !url) {
      return Error(ErrorCode::kInvalidArgument, format("row %zu lacks id/url", i));
    }
    rq.galaxy_ids.push_back(*id);
    // Resumed galaxy: the journal holds the kernel's row bit-for-bit, so
    // neither the image bytes nor the kernel are needed again; only the node
    // outcome is still pending for its catalog row. The replica registration
    // was already replayed, so planning still sees it.
    if (const std::string* row = rq.journal ? rq.journal->find("row", rq.ck + *id) : nullptr;
        row && decode_result(*row, rq.results[i])) {
      ++trace.rows_resumed;
      rq.writer.mark_kernel_done(i);
      continue;
    }
    submit_kernel(rq, i, admit_image(rq, *id, *url), staging.id());
  }
  const services::EndpointStats after = client_.totals();
  trace.staging_retries = after.retries - before.retries;
  trace.staging_failovers = after.failovers - before.failovers;
  trace.staging_breaker_trips = after.breaker_trips - before.breaker_trips;
  trace.staging_integrity_failures = after.integrity_failures - before.integrity_failures;
  trace.staging_quarantine_skips = after.quarantine_skips - before.quarantine_skips;
  std::vector<double> durations;
  for (const auto& fetch : rq.fetches) durations.push_back(fetch.second);
  trace.stage_in_p99_ms = quantile_of(std::move(durations), 0.99);
  staging.count("images_fetched", static_cast<double>(trace.images_fetched));
  staging.count("images_cached", static_cast<double>(trace.images_cached));
  staging.count("retries", static_cast<double>(trace.staging_retries));
  if (trace.hedged_fetches > 0) {
    staging.count("hedged_fetches", static_cast<double>(trace.hedged_fetches));
    staging.count("hedge_wins", static_cast<double>(trace.hedge_wins));
  }
  // Integrity/resume counts appear only when the feature fired, so the
  // zero-fault golden trace stays unchanged.
  if (trace.staging_integrity_failures > 0) {
    staging.count("integrity_failures",
                  static_cast<double>(trace.staging_integrity_failures));
  }
  if (trace.rows_resumed > 0) {
    staging.count("rows_resumed", static_cast<double>(trace.rows_resumed));
  }
  return Status::Ok();
}

services::ReplicaCache::Payload MorphologyService::admit_image(Request& rq,
                                                               const std::string& id,
                                                               const std::string& url) {
  ServiceTrace& trace = rq.record.trace;
  const std::string lfn = image_lfn(id);
  services::ReplicaCache::Payload payload = cache_.get(lfn);
  if (payload) {
    ++trace.images_cached;
  } else {
    auto response = fetch_hedged(rq, lfn, url);
    if (!response.ok() || response->status != 200) {
      // An unreachable image is a per-galaxy failure, not a request
      // failure: cache an empty payload and register it like any other
      // replica so Pegasus's feasibility check still passes — the kernel
      // will flag the galaxy invalid (§4.3.1 item 4).
      const std::string why = response.ok() ? format("status %d", response->status)
                                             : response.error().to_string();
      log_warn("galmorph-svc", "image fetch failed for " + id + ": " + why);
      payload = cache_.put(lfn, {});
    } else {
      // The transport layer already verified the body against its signed
      // digest (retrying/failing over on mismatch), so admission here
      // records a digest of known-clean bytes.
      payload = cache_.put(lfn, std::move(response->body));
    }
    ++trace.images_fetched;
    rls_.add(lfn, config_.cache_site, url, cache_.digest_of(lfn));
    grid_.put_file(config_.cache_site, lfn, payload->size());
  }
  request_lfns_.insert(lfn);  // a hit can still be evicted mid-request
  if (rq.journal && !rq.journal->has("image", rq.ck + lfn)) {
    (void)rq.journal->append("image", rq.ck + lfn,
                             escape_field(url) + ' ' + format("%zu", payload->size()) +
                                 ' ' + hex_u64(cache_.digest_of(lfn)));
  }
  return payload;
}

Expected<services::HttpResponse> MorphologyService::fetch_hedged(Request& rq,
                                                                 const std::string& lfn,
                                                                 const std::string& url) {
  ServiceTrace& trace = rq.record.trace;
  const double fetch_before_ms = fabric_.metrics().total_elapsed_ms;
  auto response = client_.get(url);
  const double fetch_ms = fabric_.metrics().total_elapsed_ms - fetch_before_ms;
  trace.image_fetch_sim_ms += fetch_ms;
  if (response.ok()) trace.staging_wan_bytes += response->body.size();
  double effective_ms = fetch_ms;
  // Hedged stage-in: a fetch slower than the hedge delay (kHedgeQuantile of
  // the rolling primary-duration history) is re-issued against the
  // archive's mirror. First verified success wins — on the overlapped
  // timeline the mirror's copy lands at delay + hedge duration, so the
  // effective arrival is the minimum — and the loser's bytes are charged to
  // hedge_wasted_bytes (its stream is cancelled, but the WAN transfer
  // already happened). Pipelined-only: the barriered baseline bills
  // serialized fetches, where a second stream cannot overlap anything.
  if (rq.pipelined && config_.hedge_stage_ins &&
      hedge_history_.size() >= kHedgeMinSamples) {
    const double hedge_delay = quantile_of(hedge_history_, kHedgeQuantile);
    trace.hedge_delay_ms = hedge_delay;
    std::string hedge_url;
    if (const auto parsed = services::Url::parse(url); parsed.ok()) {
      const std::string mirror = client_.mirror_for(parsed->host);
      if (!mirror.empty()) {
        services::Url m = parsed.value();
        m.host = mirror;
        hedge_url = m.to_string();
      }
    }
    if (!hedge_url.empty() && hedge_delay > 0.0 && fetch_ms > hedge_delay) {
      const double hedge_before_ms = fabric_.metrics().total_elapsed_ms;
      auto hedge = client_.get(hedge_url);
      const double hedge_ms = fabric_.metrics().total_elapsed_ms - hedge_before_ms;
      ++trace.hedged_fetches;
      const bool hedge_ok = hedge.ok() && hedge->status == 200;
      const bool primary_ok = response.ok() && response->status == 200;
      if (hedge_ok) trace.staging_wan_bytes += hedge->body.size();
      if (hedge_ok && (!primary_ok || hedge_delay + hedge_ms < fetch_ms)) {
        ++trace.hedge_wins;
        effective_ms = hedge_delay + hedge_ms;
        if (primary_ok) trace.hedge_wasted_bytes += response->body.size();
        response = std::move(hedge);
      } else if (hedge_ok) {
        trace.hedge_wasted_bytes += hedge->body.size();
      }
    }
  }
  hedge_history_.push_back(fetch_ms);
  if (hedge_history_.size() > kHedgeHistoryLimit) {
    hedge_history_.erase(hedge_history_.begin());
  }
  rq.fetches.emplace_back(lfn, effective_ms);
  return response;
}

void MorphologyService::submit_kernel(Request& rq, std::size_t i,
                                      services::ReplicaCache::Payload payload,
                                      std::uint64_t staging_id) {
  {
    std::unique_lock lock(rq.inflight_mu);
    rq.inflight_cv.wait(lock, [this] {
      return staging_inflight_.load(std::memory_order_relaxed) < kPrefetchDepth;
    });
    staging_inflight_.fetch_add(1, std::memory_order_relaxed);
  }
  // Releases the in-flight bound (the staging loop may be parked on it).
  const auto release = [this, &rq] {
    {
      std::lock_guard lock(rq.inflight_mu);
      staging_inflight_.fetch_sub(1, std::memory_order_relaxed);
    }
    rq.inflight_cv.notify_one();
  };
  // The shared_ptr pins the bytes for the kernel even if the cache evicts
  // the entry mid-request. Kernel tasks outlive the staging loop (they drain
  // at the (4e) barrier), so their spans parent under the staging span by
  // explicit id.
  pool_.submit_cancellable(
      rq.ctx.cancel,
      [this, &rq, i, payload = std::move(payload), staging_id, release] {
        obs::Span kernel =
            config_.tracer
                ? config_.tracer->span_under(staging_id, "kernel.galmorph", "kernel")
                : obs::Span();
        core::GalMorphArgs args;
        if (rq.z_col) {
          const auto z = rq.input.row(i)[*rq.z_col].as_number();
          if (z) args.redshift = *z;
        }
        core::GalMorphResult& result = rq.results[i];
        if (!payload || payload->empty()) {
          result.galaxy_id = rq.galaxy_ids[i];
          result.redshift = args.redshift;
          result.params.valid = false;
          result.params.failure_reason = "image unavailable";
        } else {
          result = core::run_gal_morph_bytes(rq.galaxy_ids[i], *payload, args,
                                             &tile_executor_);
        }
        kernel.count(result.params.valid ? "valid" : "invalid", 1.0);
        if (rq.journal) {
          // Journaled the moment it exists: a kill any time after this line
          // cannot lose this galaxy's science. append() is thread-safe.
          (void)rq.journal->append("row", rq.ck + rq.galaxy_ids[i],
                                   encode_result(result));
        }
        // After this line the result is immutable from this thread; the
        // writer may serialize it (under its own lock) the moment the node
        // outcome lands.
        rq.writer.mark_kernel_done(i);
        release();
      },
      // A cancelled request's queued kernels drop without running, but the
      // bookkeeping they owe still happens exactly once: the in-flight bound
      // is released and the gauge returns to zero. No journal row, no writer
      // progress — the galaxy was never computed.
      release);
}

Status MorphologyService::compose_and_plan(Request& rq) {
  ServiceTrace& trace = rq.record.trace;
  // (4a) VDL generation (the second stylesheet), built once: its size is
  // the trace figure, its parse the Chimera input.
  obs::Span compose_span =
      obs::start_span(config_.tracer, "compute.vdl_compose", "compute");
  auto t0 = std::chrono::steady_clock::now();
  auto vdl_text = catalog_to_vdl(rq.input, rq.out_name, core::GalMorphArgs{});
  if (!vdl_text.ok()) return vdl_text.error();
  auto vdl_doc = vds::parse_vdl(vdl_text.value());
  if (!vdl_doc.ok()) return vdl_doc.error();
  trace.vdl_bytes = static_cast<double>(vdl_text->size());

  // (4b) Chimera composition.
  vds::VirtualDataCatalog vdc;
  if (const Status s = vdc.ingest(vdl_doc.value()); !s.ok()) return s;
  auto abstract = vds::compose_abstract_workflow(vdc, {rq.out_lfn});
  if (!abstract.ok()) return abstract.error();
  trace.compose_wall_ms = wall_ms_since(t0);
  compose_span.count("vdl_bytes", trace.vdl_bytes);
  compose_span.end();

  // (4c) Pegasus planning. The generated concat transformation runs at the
  // service's own site (where the results will be gathered).
  (void)tc_.add({"concatMorph_" + rq.out_name, config_.cache_site,
                 "/grid/bin/concatMorph", {}});
  obs::Span plan_span = obs::start_span(config_.tracer, "compute.plan", "compute");
  t0 = std::chrono::steady_clock::now();
  pegasus::PlannerConfig planner_config = config_.planner;
  planner_config.output_site = config_.cache_site;
  pegasus::Planner planner(grid_, rls_, tc_, planner_config, config_.seed);
  auto plan = planner.plan(abstract.value());
  if (!plan.ok()) return plan.error();
  trace.plan = std::move(plan.value());
  trace.plan_wall_ms = wall_ms_since(t0);
  plan_span.count("concrete_nodes", static_cast<double>(trace.plan.concrete.num_nodes()));
  plan_span.end();
  return Status::Ok();
}

Status MorphologyService::execute(Request& rq) {
  ServiceTrace& trace = rq.record.trace;
  // (4d) Simulated DAGMan execution for the timing/accounting shape.
  grid::JobCostModel cost = config_.cost;
  if (!cost.compute_seconds) {
    const double ref = cost.compute_reference_seconds;
    cost.compute_seconds = [ref](const vds::DagNode& n) {
      if (starts_with(n.transformation, "concatMorph")) {
        return 0.5 + 0.002 * static_cast<double>(n.inputs.size());
      }
      return ref;
    };
  }
  // Node-retry budget unified with the per-request retries the staging
  // phase already performs, so a permanent failure is not retried
  // multiplicatively across the two layers.
  obs::Span dag_span = obs::start_span(config_.tracer, "compute.dagman", "compute");
  grid::DagManSim dagman(
      grid_, cost,
      pegasus::unify_retry_budgets(config_.failure, config_.retry.max_attempts),
      config_.seed ^ 0xDA6);
  dagman.set_cancel_token(rq.ctx.cancel);
  if (rq.ctx.budget.bounded()) {
    // The DAG runs on its own simulated timeline starting at t=0 == now:
    // whatever budget survives staging/planning is the run's deadline. A
    // budget already at zero is caught here rather than letting 0 read as
    // "no deadline" in the executor.
    if (rq.ctx.expired(fabric_.now_ms())) {
      return Error(ErrorCode::kDeadlineExceeded,
                   "deadline budget exhausted before workflow dispatch");
    }
    dagman.set_deadline_s(rq.ctx.budget.remaining_ms(fabric_.now_ms()) / 1000.0);
  }
  if (rq.pipelined && !rq.fetches.empty()) {
    dagman.set_ready_times(stage_in_ready_times(rq.fetches, trace.plan, config_.cache_site));
  }
  if (const Status s = run_rescue_rounds(rq, dagman); !s.ok()) return s;
  if (trace.execution.jobs_expired > 0) {
    // The deadline gate dropped part of the workflow: surface expiry instead
    // of materializing a catalog with silently missing galaxies. Journal
    // rows and node completions persisted so far are kept — a resubmission
    // with a fresh budget resumes from them.
    dag_span.count("jobs_expired", static_cast<double>(trace.execution.jobs_expired));
    dag_span.end();
    rq.record.messages.push_back(
        format("deadline: %zu compute node(s) expired before dispatch",
               trace.execution.jobs_expired));
    return Error(ErrorCode::kDeadlineExceeded,
                 format("deadline budget exhausted: %zu compute node(s) "
                        "expired before dispatch",
                        trace.execution.jobs_expired));
  }
  if (config_.tracer) {
    // Node executions are simulated, so their spans are recorded
    // retrospectively from the discrete-event report on the sim timeline.
    // Journal-resumed nodes (attempts == 0) never ran here — no span.
    for (const grid::NodeResult& r : trace.execution.nodes) {
      if (r.outcome == grid::NodeOutcome::kSkipped || r.attempts == 0) continue;
      config_.tracer->record_span(
          dag_span.id(), "dag.node", "grid", r.start_seconds * 1000.0,
          (r.end_seconds - r.start_seconds) * 1000.0,
          {{"attempts", static_cast<double>(r.attempts)},
           {"failed", r.outcome == grid::NodeOutcome::kFailed ? 1.0 : 0.0}},
          {{"node", r.id}, {"site", r.site}});
    }
  }
  dag_span.count("jobs", static_cast<double>(trace.execution.jobs_total));
  dag_span.end();
  (void)pegasus::commit_execution(trace.plan.concrete, trace.execution, rls_, grid_);
  // Record provenance of every product this run materialized.
  std::vector<std::string> succeeded;
  succeeded.reserve(trace.execution.nodes.size());
  for (const grid::NodeResult& r : trace.execution.nodes) {
    if (r.outcome == grid::NodeOutcome::kSucceeded) succeeded.push_back(r.id);
  }
  provenance_.record_execution(trace.plan.concrete, succeeded,
                               trace.execution.makespan_seconds);
  return Status::Ok();
}

Status MorphologyService::run_rescue_rounds(Request& rq, grid::DagManSim& dagman) {
  ServiceTrace& trace = rq.record.trace;
  const vds::Dag& concrete = trace.plan.concrete;
  // Journal-completed nodes are cut out of the DAG via the rescue machinery
  // before execution: a resumed run re-executes only the unfinished tail.
  grid::RescueTally tally;
  if (rq.journal) {
    for (const std::string& node_id : concrete.node_ids()) {
      if (!rq.journal->has("node", rq.ck + node_id)) continue;
      grid::NodeResult r;
      r.id = node_id;
      r.outcome = grid::NodeOutcome::kSucceeded;
      if (const vds::DagNode* n = concrete.node(node_id)) r.site = n->site;
      tally.latest[node_id] = std::move(r);
    }
  }
  trace.nodes_resumed = tally.latest.size();
  const bool resumed_from_journal = !tally.latest.empty();
  // Rescue rounds still available after the run in flight. Journal resume
  // keeps its single implicit round (the pre-multi-pool behavior);
  // config_.rescue_rounds budgets explicit rounds for failure and
  // whole-pool-outage recovery. Rounds reuse the same sim engine, so latched
  // dead pools and lifetime failure draws carry across; the unfinished
  // portion is re-mapped off dead pools before each rerun.
  std::size_t rounds_left =
      std::max<std::size_t>(config_.rescue_rounds, resumed_from_journal ? 1 : 0);
  // Row index of each galaxy's compute node, for the catalog writer.
  std::map<std::string, std::size_t> node_row;
  for (std::size_t i = 0; i < rq.galaxy_ids.size(); ++i) {
    node_row["m_" + rq.galaxy_ids[i]] = i;
  }
  dagman.set_node_callback([this, &rq, &rounds_left,
                            &node_row](const grid::NodeResult& nr) -> Status {
    // Final outcome for this galaxy's node: its catalog row can be absorbed
    // as soon as the kernel is also done. While a rescue round may still
    // follow, a failure is NOT final — a later round may succeed, and
    // mark_node_final is first-wins — so such rows are left for the sweep
    // over the merged report in materialize().
    const auto it = node_row.find(nr.id);
    const bool failed = nr.outcome == grid::NodeOutcome::kFailed;
    if (it != node_row.end() && (!failed || rounds_left == 0)) {
      rq.writer.mark_node_final(it->second, failed);
    }
    if (rq.journal && nr.outcome == grid::NodeOutcome::kSucceeded &&
        !rq.journal->has("node", rq.ck + nr.id)) {
      if (const Status s = rq.journal->append("node", rq.ck + nr.id, ""); !s.ok()) {
        return s;
      }
    }
    ++nodes_completed_total_;
    if (config_.abort_after_nodes > 0 && !kill_fired_ &&
        nodes_completed_total_ >= config_.abort_after_nodes) {
      // Simulated submit-host death: the run aborts here, after the
      // completion above was journaled, so resume loses nothing. The kill
      // is one-shot — it takes down exactly the request whose DAG crosses
      // the threshold; later requests through the same (multi-tenant)
      // service run normally, as they would after a submit-host restart.
      kill_fired_ = true;
      return Error(ErrorCode::kAborted, format("chaos kill after %zu node completions",
                                               nodes_completed_total_));
    }
    return Status::Ok();
  });

  if (!resumed_from_journal) {
    auto report = dagman.run(concrete);
    if (!report.ok()) return report.error();
    if (report->cancelled) {
      return Error(ErrorCode::kCancelled,
                   "workflow cancelled mid-execution: " + rq.ctx.cancel.reason());
    }
    // Seeds the outcome map too: rescue rounds merge against it, and a map
    // missing the first run's successes would report them skipped.
    tally.absorb(report.value());
    trace.execution = std::move(report.value());
  } else {
    rq.record.messages.push_back(format("resuming: %zu of %zu nodes journal-complete",
                                        tally.latest.size(), concrete.num_nodes()));
    trace.execution = tally.merged(concrete);
  }
  // An expired or cancelled request must not burn rescue rounds: its nodes
  // were dropped deliberately, not lost to a failure worth recovering from.
  while (rounds_left > 0 && !trace.execution.workflow_succeeded &&
         tally.counters.jobs_expired == 0 && !rq.ctx.cancelled()) {
    --rounds_left;
    auto resume_dag = grid::make_rescue_dag(concrete, trace.execution);
    if (!resume_dag.ok()) return resume_dag.error();
    if (resume_dag->empty()) break;
    if (!dagman.dead_sites().empty()) {
      auto remap = pegasus::remap_rescue_sites(resume_dag.value(), grid_,
                                               dagman.dead_sites(), tc_, rls_,
                                               config_.cache_site);
      if (!remap.ok()) return remap.error();
      if (remap->compute_remapped > 0 || remap->transfers_retargeted > 0) {
        rq.record.messages.push_back(
            format("rescue: re-mapped %zu jobs, re-pointed %zu transfers, "
                   "re-staged %zu inputs off %zu lost pool(s)",
                   remap->compute_remapped, remap->transfers_retargeted,
                   remap->inputs_restaged, dagman.dead_sites().size()));
      }
    }
    auto report = dagman.run(resume_dag.value());
    if (!report.ok()) return report.error();
    if (report->cancelled) {
      return Error(ErrorCode::kCancelled,
                   "rescue round cancelled mid-execution: " + rq.ctx.cancel.reason());
    }
    tally.absorb(report.value());
    trace.execution = tally.merged(concrete);
  }
  return Status::Ok();
}

void MorphologyService::materialize(Request& rq, obs::Span& req) {
  ServiceTrace& trace = rq.record.trace;
  // (4e) Barrier for the kernels submitted during staging: the planning and
  // execution simulation ran concurrently with the tail of the real
  // computation. kernel_wall_ms covers the full overlapped
  // stage-and-compute window.
  pool_.wait_idle();
  trace.kernel_wall_ms = wall_ms_since(rq.stage_t0);

  // Grid-level failures (when injected) override kernel success: a job that
  // never ran produces no product. Sweep rows whose node outcome the event
  // loop did not finalize — journal-resumed nodes, and failures a rescue
  // round could still have recovered. mark_node_final is idempotent.
  for (std::size_t i = 0; i < rq.galaxy_ids.size(); ++i) {
    if (rq.writer.node_finalized(i)) continue;
    const grid::NodeResult* nr = trace.execution.result_for("m_" + rq.galaxy_ids[i]);
    rq.writer.mark_node_final(i, nr && nr->outcome == grid::NodeOutcome::kFailed);
  }
  for (const core::GalMorphResult& r : rq.results) {
    if (r.params.valid) {
      ++trace.valid_results;
    } else {
      ++trace.invalid_results;
    }
  }

  // (5) Materialize, register, and expose the output VOTable.
  const std::string& xml = state_->results[rq.out_lfn] = rq.writer.finish();
  rls_.add(rq.out_lfn, config_.cache_site, rq.record.result_lfn);
  grid_.put_file(config_.cache_site, rq.out_lfn, xml.size());
  if (rq.journal) {
    // The finished catalog is the cluster's terminal record: a resumed
    // campaign serves these bytes directly (step 2b) instead of re-running.
    (void)rq.journal->append("cluster", rq.out_lfn, xml);
  }

  // Barriered: staging bills sequentially, then the DAG runs. Pipelined:
  // staging arrivals are folded into the makespan as per-node ready times,
  // so the makespan alone IS the end-to-end window (fetch latency that
  // overlapped kernel time is not billed twice).
  trace.total_sim_seconds =
      rq.pipelined ? trace.execution.makespan_seconds
                   : trace.image_fetch_sim_ms / 1000.0 + trace.execution.makespan_seconds;
  req.count("valid", static_cast<double>(trace.valid_results));
  req.count("invalid", static_cast<double>(trace.invalid_results));
  rq.record.state = "completed";
  rq.record.messages.push_back(
      format("job completed: %zu valid, %zu invalid, makespan %.1f sim-s",
             trace.valid_results, trace.invalid_results,
             trace.execution.makespan_seconds));
}

Expected<MorphologyService::PollResult> MorphologyService::poll(
    const std::string& status_url) const {
  auto response = client_.get(status_url);
  if (!response.ok()) return response.error();
  if (response->status != 200) {
    return Error(ErrorCode::kServiceUnavailable,
                 format("status poll returned %d", response->status));
  }
  PollResult out;
  for (const std::string& line : split(response->body_text(), '\n')) {
    if (line.empty()) continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) continue;
    const std::string key = line.substr(0, eq);
    const std::string value = line.substr(eq + 1);
    if (key == "state") {
      out.state = value;
    } else if (key == "result") {
      out.result_url = value;
    } else if (key == "message") {
      out.messages.push_back(value);
    }
  }
  return out;
}

const std::string* MorphologyService::result_xml(const std::string& out_lfn) const {
  const auto it = state_->results.find(out_lfn);
  return it == state_->results.end() ? nullptr : &it->second;
}

void MorphologyService::register_metrics(obs::MetricsRegistry& registry) const {
  services::register_metrics(registry, cache_, "cache.replica");
  services::register_metrics(registry, client_, "client.compute");
  services::register_metrics(registry, pool_, "pool");
  const std::atomic<std::size_t>* inflight = &staging_inflight_;
  registry.register_gauge("staging.inflight", [inflight] {
    return static_cast<double>(inflight->load(std::memory_order_relaxed));
  });
}

const ServiceTrace* MorphologyService::trace(const std::string& request_id) const {
  const auto it = state_->requests.find(request_id);
  return it == state_->requests.end() ? nullptr : &it->second.trace;
}

const ServiceTrace* MorphologyService::last_trace() const {
  if (state_->order.empty()) return nullptr;
  return trace(state_->order.back());
}

}  // namespace nvo::portal
