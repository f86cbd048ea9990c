#include "portal/compute_service.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <queue>
#include <utility>

#include "common/log.hpp"
#include "common/strings.hpp"
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
    // request's plan is committed (see EvictionDeferral in process()).
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

Status MorphologyService::process(RequestRecord& record, const votable::Table& input,
                                  const std::string& out_name,
                                  const services::RequestContext& ctx) {
  ServiceTrace& trace = record.trace;
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

  // (2) RLS lookup for the output VOTable: the result cache.
  if (rls_.exists(out_lfn) && state_->results.count(out_lfn)) {
    trace.cache_hit = true;
    trace.total_sim_seconds = 0.0;
    record.state = "completed";
    record.messages.push_back("output " + out_lfn + " already materialized (RLS hit)");
    req.count("result_cache_hit", 1.0);
    return Status::Ok();
  }

  // (2b) Checkpoint-journal result cache: a cluster whose catalog was
  // persisted by an earlier (possibly killed) campaign completes without
  // re-staging, re-planning, or re-computing anything.
  if (config_.journal) {
    if (const std::string* xml = config_.journal->find("cluster", out_lfn)) {
      state_->results[out_lfn] = *xml;
      rls_.add(out_lfn, config_.cache_site, record.result_lfn);
      grid_.put_file(config_.cache_site, out_lfn, xml->size());
      trace.journal_hit = true;
      trace.total_sim_seconds = 0.0;
      record.state = "completed";
      record.messages.push_back("output " + out_lfn +
                                " recovered from checkpoint journal");
      req.count("journal_hit", 1.0);
      return Status::Ok();
    }
  }

  const auto id_col = input.column_index("id");
  const auto url_col = input.column_index("cutout_url");
  if (!id_col || !url_col) {
    return Error(ErrorCode::kInvalidArgument,
                 "input VOTable needs id and cutout_url columns");
  }
  trace.galaxies = input.num_rows();
  if (trace.galaxies == 0) {
    return Error(ErrorCode::kInvalidArgument, "input VOTable has no rows");
  }

  // Checkpoint journal: records for this cluster are keyed "<out_lfn>/...".
  grid::CheckpointJournal* journal = config_.journal;
  const std::string ck = out_lfn + "/";
  if (journal) {
    // Resume replay: re-register journaled staged images (replica location,
    // size, content digest) so the planner sees the same replica state the
    // original run had at plan time — identical inputs give an identical
    // concrete DAG, which is what lets journaled node ids line up.
    journal->for_each("image", [&](const std::string& key, const std::string& payload) {
      if (!starts_with(key, ck)) return;
      const std::vector<std::string> f = split(payload, ' ');
      std::uint64_t digest = 0;
      if (f.size() != 3 || !parse_hex_u64(f[2], digest)) return;
      const std::string lfn = key.substr(ck.size());
      rls_.add(lfn, config_.cache_site, unescape_field(f[0]), digest);
      grid_.put_file(config_.cache_site, lfn,
                     std::strtoull(f[1].c_str(), nullptr, 10));
    });
  }

  // (3) Stage images through the replica cache, pipelined against the
  // morphology kernels: each fetch stays on this thread (the fabric is
  // thread-compatible, not thread-safe), but the moment a payload is
  // resident its kernel task is submitted to the pool, so simulated
  // transfer time overlaps real compute time instead of serializing with
  // it. A bounded in-flight count keeps pinned cutout memory proportional
  // to the prefetch depth, not the cluster size.
  record.messages.push_back(format("staging %zu galaxy images", trace.galaxies));
  obs::Span staging = obs::start_span(config_.tracer, "compute.staging", "compute");
  // Kernel tasks outlive the staging loop (they drain at the (4e) barrier),
  // so their spans parent under the staging span by explicit id.
  const std::uint64_t staging_id = staging.id();
  const services::EndpointStats staging_before = client_.totals();
  const auto stage_t0 = std::chrono::steady_clock::now();
  const auto z_col = input.column_index("redshift");
  std::vector<core::GalMorphResult> results(trace.galaxies);
  std::vector<std::string> galaxy_ids;
  galaxy_ids.reserve(trace.galaxies);  // exact: element refs stay stable
  const bool pipelined = config_.execution_mode == ExecutionMode::kPipelined;
  // Pipelined mode: per-fetch simulated durations in issue order, replayed
  // below onto stage_in_window concurrent channels to derive each cutout's
  // arrival time on the sim clock (the barriered mode bills the same
  // durations sequentially).
  std::vector<std::pair<std::string, double>> fetch_timeline;
  // Effective per-fetch durations the request observed (post hedging), for
  // the stage-in tail metric. The hedge delay itself derives from
  // hedge_history_, the service-level rolling window of primary durations.
  std::vector<double> effective_durations;
  // Pipelined mode: rows stream into the output VOTable as galaxies finish
  // (kernel done + node final) instead of one concat after the (4e)
  // barrier. Declared before Drain: kernel tasks hold a pointer into it, so
  // it must outlive the pool drain on every exit path.
  std::unique_ptr<StreamingCatalogWriter> writer;
  if (pipelined) {
    writer = std::make_unique<StreamingCatalogWriter>(out_lfn, results);
  }

  // Declared before Drain so it flushes after the pool is idle: deferred
  // evictions deregister (only if still non-resident) once nothing in this
  // request can reference the replicas any more, on success and error paths
  // alike.
  struct EvictionDeferral {
    MorphologyService& svc;
    explicit EvictionDeferral(MorphologyService& s) : svc(s) {
      svc.defer_evictions_ = true;
      svc.request_lfns_.clear();
      svc.deferred_evictions_.clear();
    }
    ~EvictionDeferral() {
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
  } deferral{*this};

  // The live count lives in staging_inflight_ (atomic, member) so the
  // "staging.inflight" gauge can observe it; the mutex/cv pair still
  // serializes the blocking-bound protocol around it.
  std::mutex inflight_mu;
  std::condition_variable inflight_cv;
  const std::size_t depth = std::max<std::size_t>(1, config_.prefetch_depth);
  // Any exit path (including mid-staging errors) must drain the pool before
  // the locals the tasks reference go out of scope.
  struct Drain {
    grid::ThreadPool& pool;
    ~Drain() { pool.wait_idle(); }
  } drain{pool_};

  for (std::size_t i = 0; i < input.num_rows(); ++i) {
    // Cooperative cancellation / deadline expiry, checked between galaxies:
    // rows journaled so far are preserved (a resubmission resumes instead of
    // recomputing), kernel tasks already queued drop via their cancel branch,
    // and the Drain/EvictionDeferral guards unwind everything else.
    if (ctx.cancelled()) {
      return Error(ErrorCode::kCancelled,
                   format("staging cancelled after %zu of %zu galaxies", i,
                          input.num_rows()));
    }
    if (ctx.expired(fabric_.now_ms())) {
      return Error(ErrorCode::kDeadlineExceeded,
                   format("deadline exceeded while staging (%zu of %zu galaxies)",
                          i, input.num_rows()));
    }
    const auto id = input.row(i)[*id_col].as_string();
    const auto url = input.row(i)[*url_col].as_string();
    if (!id || !url) {
      return Error(ErrorCode::kInvalidArgument, format("row %zu lacks id/url", i));
    }
    galaxy_ids.push_back(*id);
    const std::string lfn = image_lfn(*id);
    // Resumed galaxy: the journal holds the kernel's row bit-for-bit, so
    // neither the image bytes nor the kernel are needed again. The replica
    // registration was already replayed above, so planning still sees it.
    if (journal) {
      if (const std::string* row = journal->find("row", ck + *id)) {
        if (decode_result(*row, results[i])) {
          ++trace.rows_resumed;
          // The journaled row is the kernel's output bit-for-bit; only the
          // node outcome is still pending for this galaxy's catalog row.
          if (writer) writer->mark_kernel_done(i);
          continue;
        }
      }
    }
    services::ReplicaCache::Payload payload = cache_.get(lfn);
    if (payload) {
      ++trace.images_cached;
      request_lfns_.insert(lfn);  // a hit can still be evicted mid-request
      if (journal && !journal->has("image", ck + lfn)) {
        (void)journal->append("image", ck + lfn,
                              escape_field(*url) + ' ' +
                                  format("%zu", payload->size()) + ' ' +
                                  hex_u64(cache_.digest_of(lfn)));
      }
    } else {
      const double fetch_before_ms = fabric_.metrics().total_elapsed_ms;
      auto response = client_.get(*url);
      const double fetch_ms =
          fabric_.metrics().total_elapsed_ms - fetch_before_ms;
      trace.image_fetch_sim_ms += fetch_ms;
      if (response.ok()) trace.staging_wan_bytes += response->body.size();
      double effective_ms = fetch_ms;
      // Hedged stage-in: a fetch slower than the hedge delay (the configured
      // quantile of the rolling primary-duration history) is re-issued
      // against the archive's mirror. First verified success wins — on the
      // overlapped timeline the mirror's copy lands at delay + hedge
      // duration, so the effective arrival is the minimum — and the loser's
      // bytes are charged to hedge_wasted_bytes (its stream is cancelled,
      // but the WAN transfer already happened). Pipelined-only: the
      // barriered baseline bills serialized fetches, where a second stream
      // cannot overlap anything.
      if (pipelined && config_.hedge_stage_ins &&
          hedge_history_.size() >= config_.hedge_min_samples) {
        const double hedge_delay =
            quantile_of(hedge_history_, config_.hedge_quantile);
        trace.hedge_delay_ms = hedge_delay;
        std::string hedge_url;
        if (const auto parsed = services::Url::parse(*url); parsed.ok()) {
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
          const double hedge_ms =
              fabric_.metrics().total_elapsed_ms - hedge_before_ms;
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
      effective_durations.push_back(effective_ms);
      if (pipelined) fetch_timeline.emplace_back(lfn, effective_ms);
      if (!response.ok() || response->status != 200) {
        // An unreachable image is a per-galaxy failure, not a request
        // failure: cache an empty payload and register it like any other
        // replica so Pegasus's feasibility check still passes — the kernel
        // will flag the galaxy invalid (§4.3.1 item 4).
        const std::string why = response.ok()
                                    ? format("status %d", response->status)
                                    : response.error().to_string();
        log_warn("galmorph-svc", "image fetch failed for " + *id + ": " + why);
        payload = cache_.put(lfn, {});
      } else {
        // The transport layer already verified the body against its signed
        // digest (retrying/failing over on mismatch), so admission here
        // records a digest of known-clean bytes.
        payload = cache_.put(lfn, std::move(response->body));
      }
      ++trace.images_fetched;
      const std::uint64_t digest = cache_.digest_of(lfn);
      rls_.add(lfn, config_.cache_site, *url, digest);
      grid_.put_file(config_.cache_site, lfn, payload->size());
      request_lfns_.insert(lfn);
      if (journal && !journal->has("image", ck + lfn)) {
        (void)journal->append("image", ck + lfn,
                              escape_field(*url) + ' ' +
                                  format("%zu", payload->size()) + ' ' +
                                  hex_u64(digest));
      }
    }

    {
      std::unique_lock lock(inflight_mu);
      inflight_cv.wait(lock, [&] {
        return staging_inflight_.load(std::memory_order_relaxed) < depth;
      });
      staging_inflight_.fetch_add(1, std::memory_order_relaxed);
    }
    // The shared_ptr pins the bytes for the kernel even if the cache evicts
    // the entry mid-request.
    pool_.submit_cancellable(
        ctx.cancel,
        [this, i, payload = std::move(payload), z_col, staging_id,
                  journal, ck, w = writer.get(), &galaxy_ids, &results, &input,
                  &inflight_mu, &inflight_cv] {
      obs::Span kernel = config_.tracer
                             ? config_.tracer->span_under(staging_id,
                                                          "kernel.galmorph", "kernel")
                             : obs::Span();
      core::GalMorphArgs args = config_.default_args;
      if (z_col) {
        const auto z = input.row(i)[*z_col].as_number();
        if (z) args.redshift = *z;
      }
      if (!payload || payload->empty()) {
        results[i].galaxy_id = galaxy_ids[i];
        results[i].redshift = args.redshift;
        results[i].params.valid = false;
        results[i].params.failure_reason = "image unavailable";
      } else {
        results[i] = core::run_gal_morph_bytes(galaxy_ids[i], *payload, args,
                                               &tile_executor_);
      }
      kernel.count(results[i].params.valid ? "valid" : "invalid", 1.0);
      if (journal) {
        // Journaled the moment it exists: a kill any time after this line
        // cannot lose this galaxy's science. append() is thread-safe.
        (void)journal->append("row", ck + galaxy_ids[i],
                              encode_result(results[i]));
      }
      // After this line results[i] is immutable from this thread; the
      // writer may serialize it (under its own lock) the moment the node
      // outcome lands.
      if (w) w->mark_kernel_done(i);
      {
        std::lock_guard lock(inflight_mu);
        staging_inflight_.fetch_sub(1, std::memory_order_relaxed);
      }
      inflight_cv.notify_one();
        },
        // A cancelled request's queued kernels drop without running, but the
        // bookkeeping they owe still happens exactly once: the in-flight
        // bound is released (the staging loop may be parked on it) and the
        // gauge returns to zero. No journal row, no writer progress — the
        // galaxy was never computed.
        [this, &inflight_mu, &inflight_cv] {
          {
            std::lock_guard lock(inflight_mu);
            staging_inflight_.fetch_sub(1, std::memory_order_relaxed);
          }
          inflight_cv.notify_one();
        });
  }
  const services::EndpointStats staging_after = client_.totals();
  trace.staging_retries = staging_after.retries - staging_before.retries;
  trace.staging_failovers = staging_after.failovers - staging_before.failovers;
  trace.staging_breaker_trips =
      staging_after.breaker_trips - staging_before.breaker_trips;
  trace.staging_integrity_failures =
      staging_after.integrity_failures - staging_before.integrity_failures;
  trace.staging_quarantine_skips =
      staging_after.quarantine_skips - staging_before.quarantine_skips;
  trace.stage_in_p99_ms = quantile_of(effective_durations, 0.99);
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
  staging.end();

  // (4a) VDL generation (the second stylesheet).
  obs::Span compose_span =
      obs::start_span(config_.tracer, "compute.vdl_compose", "compute");
  auto t0 = std::chrono::steady_clock::now();
  auto vdl_doc = catalog_to_vdl_document(input, out_name, config_.default_args);
  if (!vdl_doc.ok()) return vdl_doc.error();
  trace.vdl_bytes = 0.0;  // recomputed below from text size
  {
    auto vdl_text = catalog_to_vdl(input, out_name, config_.default_args);
    if (vdl_text.ok()) trace.vdl_bytes = static_cast<double>(vdl_text->size());
  }

  // (4b) Chimera composition.
  vds::VirtualDataCatalog vdc;
  if (const Status s = vdc.ingest(vdl_doc.value()); !s.ok()) return s;
  auto abstract = vds::compose_abstract_workflow(vdc, {out_lfn});
  if (!abstract.ok()) return abstract.error();
  trace.compose_wall_ms = wall_ms_since(t0);
  compose_span.count("vdl_bytes", trace.vdl_bytes);
  compose_span.end();

  // (4c) Pegasus planning. The generated concat transformation runs at the
  // service's own site (where the results will be gathered).
  (void)tc_.add({"concatMorph_" + out_name, config_.cache_site,
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
  dagman.set_cancel_token(ctx.cancel);
  if (ctx.budget.bounded()) {
    // The DAG runs on its own simulated timeline starting at t=0 == now:
    // whatever budget survives staging/planning is the run's deadline. A
    // budget already at zero is caught here rather than letting 0 read as
    // "no deadline" in the executor.
    if (ctx.expired(fabric_.now_ms())) {
      return Error(ErrorCode::kDeadlineExceeded,
                   "deadline budget exhausted before workflow dispatch");
    }
    dagman.set_deadline_s(ctx.budget.remaining_ms(fabric_.now_ms()) / 1000.0);
  }
  if (config_.work_stealing) {
    dagman.set_work_stealing(true);
    // A thief pool can only take jobs whose transformation it has installed.
    dagman.set_steal_filter([this](const vds::DagNode& n, const std::string& site) {
      return tc_.lookup_at(n.transformation, site).ok();
    });
  }
  // Pipelined mode: replay the recorded per-fetch durations onto
  // stage_in_window concurrent channels (list scheduling: each fetch takes
  // the earliest-free channel, in issue order) to derive each cutout's
  // arrival on the sim clock, then hand DagManSim a ready time per compute
  // node — the node becomes dispatchable the moment its data lands, while
  // other galaxies are still in flight. Only the timeline changes; the
  // per-(node, attempt) failure draws are schedule-invariant.
  if (pipelined && !fetch_timeline.empty()) {
    const std::size_t window = std::max<std::size_t>(1, config_.stage_in_window);
    std::priority_queue<double, std::vector<double>, std::greater<>> channels;
    for (std::size_t c = 0; c < window; ++c) channels.push(0.0);
    std::map<std::string, double> arrival_ms;
    for (const auto& [lfn, dur_ms] : fetch_timeline) {
      const double start = channels.top();
      channels.pop();
      const double done = start + dur_ms;
      channels.push(done);
      arrival_ms[lfn] = done;
    }
    std::map<std::string, double> ready;
    for (const auto& [node_id, inputs] : trace.plan.data_inputs) {
      double node_ready_ms = 0.0;
      for (const std::string& lfn : inputs) {
        const auto it = arrival_ms.find(lfn);
        // Absent = cache hit or journal replay: resident before the run.
        if (it != arrival_ms.end()) {
          node_ready_ms = std::max(node_ready_ms, it->second);
        }
      }
      if (node_ready_ms > 0.0) ready[node_id] = node_ready_ms / 1000.0;
    }
    // Multi-pool plans insert stage-in transfers sourced at the cache site
    // for cutouts that are themselves still arriving from the archive: the
    // inter-site stream cannot start before its file lands in the cache.
    for (const std::string& tid : trace.plan.concrete.node_ids()) {
      const vds::DagNode* tn = trace.plan.concrete.node(tid);
      if (tn->type != vds::JobType::kTransfer ||
          tn->source_site != config_.cache_site) {
        continue;
      }
      const auto it = arrival_ms.find(tn->file);
      if (it != arrival_ms.end()) {
        double& slot = ready[tid];
        slot = std::max(slot, it->second / 1000.0);
      }
    }
    dagman.set_ready_times(std::move(ready));
  }
  // Row index of each galaxy's compute node, for the incremental merge.
  std::map<std::string, std::size_t> node_row;
  if (writer) {
    for (std::size_t i = 0; i < galaxy_ids.size(); ++i) {
      node_row["m_" + galaxy_ids[i]] = i;
    }
  }
  if (journal || config_.abort_after_nodes > 0 || writer) {
    dagman.set_node_callback([this, journal, ck, w = writer.get(),
                              &node_row](const grid::NodeResult& nr)
                                 -> Status {
      if (w) {
        // Final outcome for this galaxy's node: its catalog row can be
        // absorbed as soon as the kernel is also done. With rescue rounds
        // budgeted, a failure is NOT final — a later round may still
        // succeed, and mark_node_final is first-wins — so failed rows are
        // left for the post-drain sweep over the merged report.
        const auto it = node_row.find(nr.id);
        if (it != node_row.end()) {
          if (nr.outcome != grid::NodeOutcome::kFailed) {
            w->mark_node_final(it->second, false);
          } else if (config_.rescue_rounds == 0) {
            w->mark_node_final(it->second, true);
          }
        }
      }
      if (journal && nr.outcome == grid::NodeOutcome::kSucceeded &&
          !journal->has("node", ck + nr.id)) {
        if (const Status s = journal->append("node", ck + nr.id, ""); !s.ok()) {
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
        return Error(ErrorCode::kAborted,
                     format("chaos kill after %zu node completions",
                            nodes_completed_total_));
      }
      return Status::Ok();
    });
  }

  // Journal-completed nodes are cut out of the DAG via the rescue machinery
  // before execution: a resumed run re-executes only the unfinished tail.
  std::map<std::string, grid::NodeResult> prior;
  if (journal) {
    for (const std::string& node_id : trace.plan.concrete.node_ids()) {
      if (!journal->has("node", ck + node_id)) continue;
      const vds::DagNode* n = trace.plan.concrete.node(node_id);
      grid::NodeResult r;
      r.id = node_id;
      r.outcome = grid::NodeOutcome::kSucceeded;
      if (n) r.site = n->site;
      prior[node_id] = std::move(r);
    }
  }
  trace.nodes_resumed = prior.size();
  // merge_node_outcomes rebuilds a report from per-node outcomes only, so
  // run-level counters are accumulated by hand across rescue rounds.
  std::size_t acc_retries = 0;
  std::size_t acc_stolen = 0;
  std::size_t acc_wan = 0;
  std::size_t acc_expired = 0;
  std::vector<std::string> acc_sites_lost;
  std::map<std::string, double> acc_busy;
  const auto absorb = [&](const grid::RunReport& rep) {
    acc_retries += rep.retries;
    acc_stolen += rep.stolen_jobs;
    acc_wan += rep.wan_bytes;
    acc_expired += rep.jobs_expired;
    acc_sites_lost.insert(acc_sites_lost.end(), rep.sites_lost.begin(),
                          rep.sites_lost.end());
    for (const auto& [s, t] : rep.site_busy_seconds) acc_busy[s] += t;
  };
  bool report_is_merged = false;
  const bool resumed_from_journal = !prior.empty();
  if (prior.empty()) {
    auto report = dagman.run(trace.plan.concrete);
    if (!report.ok()) return report.error();
    if (report->cancelled) {
      return Error(ErrorCode::kCancelled,
                   "workflow cancelled mid-execution: " + ctx.cancel.reason());
    }
    absorb(report.value());
    // Seed the outcome map too: rescue rounds merge against `prior`, and a
    // map missing the first run's successes would report them skipped.
    for (const grid::NodeResult& r : report->nodes) prior[r.id] = r;
    trace.execution = std::move(report.value());
  } else {
    record.messages.push_back(format("resuming: %zu of %zu nodes journal-complete",
                                     prior.size(),
                                     trace.plan.concrete.num_nodes()));
    trace.execution = grid::merge_node_outcomes(trace.plan.concrete, prior);
    report_is_merged = true;
  }
  // Rescue rounds. Journal resume keeps its single implicit round (the
  // pre-multi-pool behavior); config_.rescue_rounds budgets explicit rounds
  // for failure and whole-pool-outage recovery. Rounds reuse the same sim
  // engine, so latched dead pools and lifetime failure draws carry across;
  // the unfinished portion is re-mapped off dead pools before each rerun.
  std::size_t rounds_left =
      std::max<std::size_t>(config_.rescue_rounds, resumed_from_journal ? 1 : 0);
  // An expired or cancelled request must not burn rescue rounds: its nodes
  // were dropped deliberately, not lost to a failure worth recovering from.
  while (rounds_left > 0 && !trace.execution.workflow_succeeded &&
         acc_expired == 0 && !ctx.cancelled()) {
    --rounds_left;
    auto resume_dag = grid::make_rescue_dag(trace.plan.concrete, trace.execution);
    if (!resume_dag.ok()) return resume_dag.error();
    if (resume_dag->empty()) break;
    if (!dagman.dead_sites().empty()) {
      auto remap = pegasus::remap_rescue_sites(resume_dag.value(), grid_,
                                               dagman.dead_sites(), tc_, rls_,
                                               config_.cache_site);
      if (!remap.ok()) return remap.error();
      if (remap->compute_remapped > 0 || remap->transfers_retargeted > 0) {
        record.messages.push_back(
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
                   "rescue round cancelled mid-execution: " + ctx.cancel.reason());
    }
    absorb(report.value());
    for (const grid::NodeResult& r : report->nodes) prior[r.id] = r;
    trace.execution = grid::merge_node_outcomes(trace.plan.concrete, prior);
    report_is_merged = true;
  }
  if (report_is_merged) {
    trace.execution.retries = acc_retries;
    trace.execution.stolen_jobs = acc_stolen;
    trace.execution.wan_bytes = acc_wan;
    trace.execution.jobs_expired = acc_expired;
    trace.execution.sites_lost = std::move(acc_sites_lost);
    trace.execution.site_busy_seconds = std::move(acc_busy);
  }
  if (trace.execution.jobs_expired > 0) {
    // The deadline gate dropped part of the workflow: surface expiry instead
    // of materializing a catalog with silently missing galaxies. Journal
    // rows and node completions persisted so far are kept — a resubmission
    // with a fresh budget resumes from them.
    dag_span.count("jobs_expired",
                   static_cast<double>(trace.execution.jobs_expired));
    dag_span.end();
    record.messages.push_back(
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

  // (4e) Barrier for the pipelined kernels submitted during staging: the
  // planning/execution simulation above ran concurrently with the tail of
  // the real computation. kernel_wall_ms covers the full overlapped
  // stage-and-compute window.
  pool_.wait_idle();
  trace.kernel_wall_ms = wall_ms_since(stage_t0);

  // Grid-level failures (when injected) override kernel success: a job that
  // never ran produces no product.
  if (writer) {
    // Sweep rows whose node outcome never went through this run's event
    // loop — journal-resumed nodes and outcomes recovered by rescue-merge.
    // mark_node_final is idempotent, so callback-finalized rows are safe.
    for (std::size_t i = 0; i < galaxy_ids.size(); ++i) {
      if (writer->node_finalized(i)) continue;
      const grid::NodeResult* nr =
          trace.execution.result_for("m_" + galaxy_ids[i]);
      writer->mark_node_final(i,
                              nr && nr->outcome == grid::NodeOutcome::kFailed);
    }
  } else {
    for (std::size_t i = 0; i < galaxy_ids.size(); ++i) {
      const grid::NodeResult* nr = trace.execution.result_for("m_" + galaxy_ids[i]);
      if (nr && nr->outcome == grid::NodeOutcome::kFailed) {
        results[i].params.valid = false;
        results[i].params.failure_reason = "grid job failed";
      }
    }
  }
  for (const core::GalMorphResult& r : results) {
    if (r.params.valid) {
      ++trace.valid_results;
    } else {
      ++trace.invalid_results;
    }
  }

  // (5) Materialize, register, and expose the output VOTable. The streamed
  // document is a byte-identical decomposition of the concat path (shared
  // schema, shared row serialization through VotableXmlStream).
  if (writer) {
    state_->results[out_lfn] = writer->finish();
  } else {
    const votable::Table out_table = core::concat_results(results, out_lfn);
    state_->results[out_lfn] = votable::to_votable_xml(out_table);
  }
  rls_.add(out_lfn, config_.cache_site, record.result_lfn);
  grid_.put_file(config_.cache_site, out_lfn, state_->results[out_lfn].size());
  if (journal) {
    // The finished catalog is the cluster's terminal record: a resumed
    // campaign serves these bytes directly (step 2b) instead of re-running.
    (void)journal->append("cluster", out_lfn, state_->results[out_lfn]);
  }

  // Barriered: staging bills sequentially, then the DAG runs. Pipelined:
  // staging arrivals are folded into the makespan as per-node ready times,
  // so the makespan alone IS the end-to-end window (fetch latency that
  // overlapped kernel time is not billed twice).
  trace.total_sim_seconds =
      pipelined ? trace.execution.makespan_seconds
                : trace.image_fetch_sim_ms / 1000.0 +
                      trace.execution.makespan_seconds;
  req.count("valid", static_cast<double>(trace.valid_results));
  req.count("invalid", static_cast<double>(trace.invalid_results));
  record.state = "completed";
  record.messages.push_back(
      format("job completed: %zu valid, %zu invalid, makespan %.1f sim-s",
             trace.valid_results, trace.invalid_results,
             trace.execution.makespan_seconds));
  return Status::Ok();
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
