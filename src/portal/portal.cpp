#include "portal/portal.hpp"

#include <chrono>
#include <cmath>
#include <map>
#include <utility>

#include "common/log.hpp"
#include "common/strings.hpp"
#include "services/cone_search.hpp"
#include "services/sia.hpp"
#include "sky/spatial_index.hpp"
#include "votable/table_ops.hpp"
#include "votable/votable_io.hpp"

namespace nvo::portal {

namespace {
double wall_ms_since(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                   t0)
      .count();
}

std::string host_of(const std::string& base_url) {
  auto url = services::Url::parse(base_url);
  return url.ok() ? url->host : std::string();
}

services::EndpointStats stats_snapshot(const services::ResilientClient& client,
                                       const std::string& base_url) {
  const services::EndpointStats* p = client.stats_for(host_of(base_url));
  return p ? *p : services::EndpointStats{};
}
}  // namespace

Portal::Portal(services::HttpFabric& fabric, const services::Federation& federation,
               MorphologyService& compute, PortalConfig config)
    : fabric_(fabric),
      federation_(federation),
      compute_(compute),
      config_(std::move(config)),
      client_(fabric, config_.retry, config_.breaker, "portal") {
  if (!federation_.mirror_host.empty()) {
    client_.add_mirror(services::Federation::kMastHost, federation_.mirror_host);
  }
}

ArchiveStatus Portal::archive_status(const std::string& archive,
                                     const std::string& base_url,
                                     const services::EndpointStats& before) const {
  ArchiveStatus s;
  s.archive = archive;
  s.endpoint = base_url;
  services::EndpointStats after;
  if (const services::EndpointStats* p = client_.stats_for(host_of(base_url))) {
    after = *p;
  }
  s.attempted = after.attempts - before.attempts;
  s.succeeded = after.successes - before.successes;
  s.retries = after.retries - before.retries;
  s.breaker_trips = after.breaker_trips - before.breaker_trips;
  s.failovers = after.failovers - before.failovers;
  return s;
}

void Portal::record_archive(PortalTrace* trace, ArchiveStatus status) {
  if (!trace) return;
  trace->retries += status.retries;
  trace->breaker_trips += status.breaker_trips;
  trace->failovers += status.failovers;
  trace->archives.push_back(std::move(status));
}

void Portal::add_cluster(ClusterEntry entry) { clusters_.push_back(std::move(entry)); }

const ClusterEntry* Portal::find_cluster(const std::string& name) const {
  for (const ClusterEntry& c : clusters_) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

void Portal::publish_to_registry(services::Registry& registry) const {
  using services::Capability;
  using services::ServiceRecord;
  const auto add = [&](const char* ident, const char* title, const char* publisher,
                       Capability cap, const std::string& url, const char* band) {
    ServiceRecord r;
    r.identifier = ident;
    r.title = title;
    r.publisher = publisher;
    r.capability = cap;
    r.base_url = url;
    r.waveband = band;
    (void)registry.add(std::move(r));
  };
  add("ivo://sim.cda/sia", "Chandra Data Archive", "Chandra X-ray Center",
      Capability::kSimpleImageAccess, federation_.chandra_sia, "x-ray");
  add("ivo://sim.heasarc/rosat", "ROSAT X-ray data", "NASA HEASARC",
      Capability::kSimpleImageAccess, federation_.rosat_sia, "x-ray");
  add("ivo://sim.ipac/ned", "NASA Extragalactic Database", "NASA IPAC",
      Capability::kConeSearch, federation_.ned_cone, "optical");
  add("ivo://sim.cadc/cnoc-sia", "CNOC Survey images", "CADC",
      Capability::kSimpleImageAccess, federation_.cnoc_sia, "optical");
  add("ivo://sim.cadc/cnoc-cone", "CNOC Survey catalog", "CADC",
      Capability::kConeSearch, federation_.cnoc_cone, "optical");
  add("ivo://sim.mast/dss", "Digitized Sky Survey", "MAST",
      Capability::kSimpleImageAccess, federation_.dss_sia, "optical");
  add("ivo://sim.mast/cutout", "DSS galaxy cutout service", "MAST",
      Capability::kCutout, federation_.cutout_sia, "optical");
  add("ivo://sim.isi/galmorph", "Galaxy morphology compute service", "USC/ISI",
      Capability::kCompute, "http://" + compute_.config().host + "/status", "");
}

Expected<Portal::ImageLinks> Portal::find_large_scale_images(
    const std::string& cluster_name, PortalTrace* trace) {
  const ClusterEntry* cluster = find_cluster(cluster_name);
  if (!cluster) return Error(ErrorCode::kNotFound, "unknown cluster " + cluster_name);

  ImageLinks links;
  obs::Span stage = obs::start_span(config_.tracer, "portal.image_search", "portal");
  const double before = fabric_.metrics().total_elapsed_ms;
  // Optical: DSS. X-ray: ROSAT + Chandra. An archive being down is not
  // fatal — the analysis can proceed without a large-scale image.
  {
    obs::Span q = obs::start_span(config_.tracer, "query.DSS", "archive");
    const auto snap = stats_snapshot(client_, federation_.dss_sia);
    auto dss = services::sia_query(client_, federation_.dss_sia, cluster->position,
                                   cluster->search_radius_deg * 2.0);
    ArchiveStatus status = archive_status("DSS", federation_.dss_sia, snap);
    if (dss.ok()) {
      status.rows = dss->size();
      for (const auto& r : dss.value()) links.optical.push_back(r.access_url);
    } else {
      status.skipped_reason = dss.error().to_string();
      log_warn("portal", "DSS SIA failed: " + dss.error().to_string());
      q.note("skipped", status.skipped_reason);
    }
    q.count("attempts", static_cast<double>(status.attempted));
    q.count("retries", static_cast<double>(status.retries));
    q.count("rows", static_cast<double>(status.rows));
    record_archive(trace, std::move(status));
  }
  const std::pair<const char*, const std::string*> xray_archives[] = {
      {"ROSAT", &federation_.rosat_sia}, {"Chandra", &federation_.chandra_sia}};
  for (const auto& [name, base] : xray_archives) {
    obs::Span q =
        obs::start_span(config_.tracer, std::string("query.") + name, "archive");
    const auto snap = stats_snapshot(client_, *base);
    auto xr = services::sia_query(client_, *base, cluster->position,
                                  cluster->search_radius_deg * 2.0);
    ArchiveStatus status = archive_status(name, *base, snap);
    if (xr.ok()) {
      status.rows = xr->size();
      for (const auto& r : xr.value()) links.xray.push_back(r.access_url);
    } else {
      status.skipped_reason = xr.error().to_string();
      log_warn("portal", "X-ray SIA failed: " + xr.error().to_string());
      q.note("skipped", status.skipped_reason);
    }
    q.count("attempts", static_cast<double>(status.attempted));
    q.count("retries", static_cast<double>(status.retries));
    q.count("rows", static_cast<double>(status.rows));
    record_archive(trace, std::move(status));
  }
  if (trace) trace->image_search_ms += fabric_.metrics().total_elapsed_ms - before;
  return links;
}

Expected<votable::Table> Portal::build_galaxy_catalog(const std::string& cluster_name,
                                                      PortalTrace* trace) {
  const ClusterEntry* cluster = find_cluster(cluster_name);
  if (!cluster) return Error(ErrorCode::kNotFound, "unknown cluster " + cluster_name);

  obs::Span stage = obs::start_span(config_.tracer, "portal.catalog_build", "portal");
  const double before = fabric_.metrics().total_elapsed_ms;
  obs::Span ned_span = obs::start_span(config_.tracer, "query.NED", "archive");
  const auto ned_snap = stats_snapshot(client_, federation_.ned_cone);
  auto ned = services::cone_search(client_, federation_.ned_cone, cluster->position,
                                   cluster->search_radius_deg);
  ArchiveStatus ned_status = archive_status("NED", federation_.ned_cone, ned_snap);
  if (ned.ok()) ned_status.rows = ned->num_rows();
  ned_span.count("attempts", static_cast<double>(ned_status.attempted));
  ned_span.count("retries", static_cast<double>(ned_status.retries));
  ned_span.count("rows", static_cast<double>(ned_status.rows));
  ned_span.end();
  obs::Span cnoc_span = obs::start_span(config_.tracer, "query.CNOC", "archive");
  const auto cnoc_snap = stats_snapshot(client_, federation_.cnoc_cone);
  auto cnoc = services::cone_search(client_, federation_.cnoc_cone, cluster->position,
                                    cluster->search_radius_deg);
  ArchiveStatus cnoc_status = archive_status("CNOC", federation_.cnoc_cone, cnoc_snap);
  if (cnoc.ok()) cnoc_status.rows = cnoc->num_rows();
  cnoc_span.count("attempts", static_cast<double>(cnoc_status.attempted));
  cnoc_span.count("retries", static_cast<double>(cnoc_status.retries));
  cnoc_span.count("rows", static_cast<double>(cnoc_status.rows));
  cnoc_span.end();

  // Graceful degradation: either survey alone still yields a usable catalog
  // (both carry id/ra/dec); only losing both archives is fatal.
  votable::Table catalog;
  if (ned.ok() && cnoc.ok() && cnoc->num_rows() > 0) {
    // The generic join the paper calls for: NED brings position/redshift/
    // magnitude, CNOC adds velocity and color. Left join keeps galaxies the
    // second survey missed.
    auto joined = votable::join(ned.value(), cnoc.value(), "id", "id",
                                votable::JoinKind::kLeft);
    if (!joined.ok()) return joined.error();
    catalog = std::move(joined.value());
  } else if (ned.ok()) {
    if (!cnoc.ok()) {
      cnoc_status.skipped_reason = cnoc.error().to_string();
      log_warn("portal", "CNOC cone search failed (continuing with NED only): " +
                             cnoc.error().to_string());
    }
    catalog = std::move(ned.value());
  } else if (cnoc.ok() && cnoc->num_rows() > 0) {
    ned_status.skipped_reason = ned.error().to_string();
    log_warn("portal", "NED cone search failed (continuing with CNOC only): " +
                           ned.error().to_string());
    catalog = std::move(cnoc.value());
  } else {
    // Dual-archive outage: record WHY each archive delivered nothing, so
    // the failure is diagnosable from the outcome's ArchiveStatus entries.
    ned_status.skipped_reason = ned.error().to_string();
    cnoc_status.skipped_reason =
        cnoc.ok() ? "empty result" : cnoc.error().to_string();
    record_archive(trace, std::move(ned_status));
    record_archive(trace, std::move(cnoc_status));
    if (trace) trace->catalog_build_ms += fabric_.metrics().total_elapsed_ms - before;
    return Error(ErrorCode::kServiceUnavailable,
                 "all catalog archives unavailable for " + cluster_name + ": NED: " +
                     ned.error().to_string() +
                     (cnoc.ok() ? "; CNOC: empty" : "; CNOC: " +
                                                        cnoc.error().to_string()));
  }
  record_archive(trace, std::move(ned_status));
  record_archive(trace, std::move(cnoc_status));
  catalog.name = cluster_name + "_catalog";
  if (trace) trace->catalog_build_ms += fabric_.metrics().total_elapsed_ms - before;
  return catalog;
}

Expected<votable::Table> Portal::attach_cutout_refs(votable::Table catalog,
                                                    const std::string& cluster_name,
                                                    PortalTrace* trace) {
  const ClusterEntry* cluster = find_cluster(cluster_name);
  if (!cluster) return Error(ErrorCode::kNotFound, "unknown cluster " + cluster_name);
  const auto ra_col = catalog.column_index("ra");
  const auto dec_col = catalog.column_index("dec");
  if (!ra_col || !dec_col) {
    return Error(ErrorCode::kInvalidArgument, "catalog lacks ra/dec");
  }

  obs::Span stage = obs::start_span(config_.tracer, "portal.cutout_refs", "portal");
  const double before = fabric_.metrics().total_elapsed_ms;
  const auto cutout_snap = stats_snapshot(client_, federation_.cutout_sia);
  std::size_t queries = 0;
  std::size_t refs_attached = 0;
  catalog.add_column({"cutout_url", votable::DataType::kString, "", "meta.ref.url",
                      "galaxy cutout access reference"});

  // Matches one batch of records against catalog rows by position: for each
  // row, the nearest record strictly inside the 2 arcsec tolerance wins
  // (first record on exact ties, like the original linear scan). An index
  // over record centers makes this O((m + n) log m) instead of O(n·m).
  const auto match_records =
      [&](const std::vector<services::SiaRecord>& records,
          const std::vector<std::size_t>& row_ids) {
        std::vector<sky::Equatorial> centers;
        centers.reserve(records.size());
        for (const auto& r : records) centers.push_back(r.center);
        const sky::SpatialIndex record_index(std::move(centers), 720);
        constexpr double kTolDeg = 2.0 / 3600.0;  // 2 arcsec match tolerance
        for (const std::size_t i : row_ids) {
          const auto ra = catalog.row(i)[*ra_col].as_number();
          const auto dec = catalog.row(i)[*dec_col].as_number();
          if (!ra || !dec) continue;
          const sky::Equatorial pos{*ra, *dec};
          const services::SiaRecord* best = nullptr;
          double best_sep = kTolDeg;
          for (const std::size_t id : record_index.query_cone(pos, kTolDeg)) {
            const double sep = sky::angular_separation_deg(records[id].center, pos);
            if (sep < best_sep) {
              best_sep = sep;
              best = &records[id];
            }
          }
          if (best) {
            catalog.set_cell(i, "cutout_url",
                             votable::Value::of_string(best->access_url));
            ++refs_attached;
          }
        }
      };

  if (config_.cutout_query == CutoutQueryMode::kWideCone) {
    // The batched mode the paper wanted: one wide cone returns every
    // member's cutout reference; match records to rows by position.
    auto records = services::sia_query(client_, federation_.cutout_sia,
                                       cluster->position,
                                       cluster->search_radius_deg * 2.0);
    if (!records.ok()) {
      ArchiveStatus status =
          archive_status("MAST cutout", federation_.cutout_sia, cutout_snap);
      status.skipped_reason = records.error().to_string();
      record_archive(trace, std::move(status));
      if (trace) trace->cutout_query_ms += fabric_.metrics().total_elapsed_ms - before;
      return records.error();
    }
    ++queries;
    std::vector<std::size_t> all_rows(catalog.num_rows());
    for (std::size_t i = 0; i < all_rows.size(); ++i) all_rows[i] = i;
    match_records(records.value(), all_rows);
  } else if (config_.cutout_query == CutoutQueryMode::kCoalesced) {
    // Spatial-patch batching: rows bucketed on a fixed angular grid; one
    // SIA range query per occupied patch covers every member, so the
    // round-trip count follows the sky area, not the galaxy count, while
    // each response stays patch-sized. A failed patch query loses only
    // that patch's cutout references.
    const double patch = std::max(config_.cutout_patch_deg, 1e-6);
    // Each patch keeps (row index, position): positions are captured once
    // at bucketing time, so no later step re-dereferences as_number() on a
    // row it has not itself checked.
    struct Member {
      std::size_t row;
      sky::Equatorial pos;
    };
    std::map<std::pair<long, long>, std::vector<Member>> patches;
    for (std::size_t i = 0; i < catalog.num_rows(); ++i) {
      const auto ra = catalog.row(i)[*ra_col].as_number();
      const auto dec = catalog.row(i)[*dec_col].as_number();
      if (!ra || !dec) continue;
      patches[{static_cast<long>(std::floor(*ra / patch)),
               static_cast<long>(std::floor(*dec / patch))}]
          .push_back(Member{i, {*ra, *dec}});
    }
    for (const auto& [cell, members] : patches) {
      // Patch center = member centroid; the query radius covers the
      // farthest member plus a cutout-size margin.
      double sum_ra = 0.0, sum_dec = 0.0;
      for (const Member& m : members) {
        sum_ra += m.pos.ra_deg;
        sum_dec += m.pos.dec_deg;
      }
      const sky::Equatorial center{sum_ra / members.size(),
                                   sum_dec / members.size()};
      double max_sep = 0.0;
      for (const Member& m : members) {
        max_sep = std::max(max_sep, sky::angular_separation_deg(center, m.pos));
      }
      auto records = services::sia_query(client_, federation_.cutout_sia, center,
                                         2.0 * max_sep + config_.cutout_size_deg);
      ++queries;
      if (!records.ok() || records->empty()) continue;
      std::vector<std::size_t> row_ids;
      row_ids.reserve(members.size());
      for (const Member& m : members) row_ids.push_back(m.row);
      match_records(records.value(), row_ids);
    }
  } else {
    // The paper's actual behaviour: "an image query ... for each galaxy
    // must be done separately" — the application's bottleneck. A failed
    // query loses that one galaxy's cutout reference, not the stage.
    for (std::size_t i = 0; i < catalog.num_rows(); ++i) {
      const auto ra = catalog.row(i)[*ra_col].as_number();
      const auto dec = catalog.row(i)[*dec_col].as_number();
      if (!ra || !dec) continue;
      auto records = services::sia_query(client_, federation_.cutout_sia,
                                         {*ra, *dec}, config_.cutout_size_deg);
      ++queries;
      if (!records.ok() || records->empty()) continue;
      // The cone may contain close neighbors too; take the record nearest
      // the requested position, not merely the first.
      const sky::Equatorial want{*ra, *dec};
      const services::SiaRecord* best = &records->front();
      double best_sep = sky::angular_separation_deg(best->center, want);
      for (const auto& r : records.value()) {
        const double sep = sky::angular_separation_deg(r.center, want);
        if (sep < best_sep) {
          best_sep = sep;
          best = &r;
        }
      }
      catalog.set_cell(i, "cutout_url",
                       votable::Value::of_string(best->access_url));
      ++refs_attached;
    }
  }
  {
    ArchiveStatus status =
        archive_status("MAST cutout", federation_.cutout_sia, cutout_snap);
    status.rows = refs_attached;
    if (refs_attached == 0 && catalog.num_rows() > 0) {
      status.skipped_reason = "no cutout reference resolved";
    }
    record_archive(trace, std::move(status));
  }
  stage.count("queries", static_cast<double>(queries));
  stage.count("refs", static_cast<double>(refs_attached));
  if (trace) {
    trace->cutout_query_ms += fabric_.metrics().total_elapsed_ms - before;
    trace->cutout_queries += queries;
    trace->galaxies = catalog.num_rows();
  }
  return catalog;
}

Expected<votable::Table> Portal::compute_morphology(const votable::Table& catalog,
                                                    const std::string& out_name,
                                                    const services::RequestContext& ctx,
                                                    PortalTrace* trace) {
  // Drop rows with no cutout reference (nothing to compute on). The column
  // is checked, not assumed: a degraded cutout stage surfaces as a status,
  // never as an unchecked dereference.
  const auto url_col = catalog.column_index("cutout_url");
  if (!url_col) {
    return Error(ErrorCode::kInternal, "cutout stage produced no cutout_url column");
  }
  const votable::Table input = votable::select(catalog, [&](const votable::Row& row) {
    const auto url = row[*url_col].as_string();
    return url && !url->empty();
  });
  if (input.num_rows() == 0) {
    return Error(ErrorCode::kInvalidArgument,
                 "no galaxy in " + out_name + " has a cutout reference");
  }

  // Submit to the compute service and poll asynchronously ("the portal
  // polls the returned URL until it finds a job completed status message").
  obs::Span span = obs::start_span(config_.tracer, "portal.compute", "portal");
  const double before = fabric_.metrics().total_elapsed_ms;
  auto status_url = compute_.gal_morph_compute(input, out_name, ctx);
  if (!status_url.ok()) return status_url.error();
  // The unique request id rides in the status URL ("...?id=req-N"); keep it
  // so the service trace can be found again after other requests interleave.
  std::string request_id;
  if (const auto pos = status_url->find("id="); pos != std::string::npos) {
    request_id = status_url->substr(pos + 3);
  }
  if (trace) trace->compute_request_id = request_id;
  std::size_t polls = 0;
  std::string result_url;
  for (int i = 0; i < config_.poll_limit && result_url.empty(); ++i) {
    auto poll = compute_.poll(status_url.value());
    if (!poll.ok()) return poll.error();
    ++polls;
    if (trace) ++trace->polls;
    const std::string messages = join(poll->messages, "; ");
    if (poll->state == "completed") {
      result_url = poll->result_url;
    } else if (poll->state == "cancelled") {
      return Error(ErrorCode::kCancelled, "compute cancelled: " + messages);
    } else if (poll->state == "expired") {
      return Error(ErrorCode::kDeadlineExceeded, "compute deadline exceeded: " + messages);
    } else if (poll->state == "failed") {
      return Error(ErrorCode::kComputeFailed, "compute service failed: " + messages);
    }
  }
  if (result_url.empty()) {
    return Error(ErrorCode::kTimeout, "compute service never completed");
  }
  auto morphology = fetch_catalog(result_url);
  if (!morphology.ok()) return morphology.error();
  // Simulated compute latency: the polling and fetch round-trips recorded
  // by the fabric plus the service's own accounting (staging + makespan).
  if (trace) {
    trace->compute_wait_ms += fabric_.metrics().total_elapsed_ms - before;
    if (const ServiceTrace* st = compute_.trace(request_id)) {
      trace->compute_wait_ms += st->total_sim_seconds * 1000.0;
    }
  }
  span.count("polls", static_cast<double>(polls));
  span.count("galaxies", static_cast<double>(input.num_rows()));
  return morphology;
}

Expected<votable::Table> Portal::merge_morphology(const votable::Table& catalog,
                                                  const votable::Table& morphology,
                                                  const std::string& cluster_name,
                                                  PortalTrace* trace) {
  obs::Span span = obs::start_span(config_.tracer, "portal.merge", "portal");
  const auto t0 = std::chrono::steady_clock::now();
  auto merged = votable::join(catalog, morphology, "id", "id", votable::JoinKind::kLeft);
  if (!merged.ok()) return merged.error();
  merged->name = cluster_name + "_analysis";
  if (trace) {
    trace->merge_ms += wall_ms_since(t0);
    trace->tally_validity(merged.value());
  }
  return merged;
}

Expected<votable::Table> Portal::fetch_catalog(const std::string& url) {
  auto response = client_.get(url);
  if (!response.ok()) return response.error();
  if (response->status != 200) {
    return Error(ErrorCode::kServiceUnavailable,
                 format("catalog fetch returned %d for %s", response->status, url.c_str()));
  }
  return votable::from_votable_xml(response->body_text());
}

void PortalTrace::tally_validity(const votable::Table& catalog) {
  valid = 0;
  invalid = 0;
  const auto valid_col = catalog.column_index("valid");
  for (std::size_t i = 0; i < catalog.num_rows(); ++i) {
    const auto v = valid_col ? catalog.row(i)[*valid_col].as_bool() : std::nullopt;
    if (v && *v) {
      ++valid;
    } else {
      ++invalid;
    }
  }
}

Portal::AnalysisOutcome Portal::run_analysis(const std::string& cluster_name) {
  AnalysisOutcome outcome;
  PortalTrace& trace = outcome.trace;
  obs::Span root = obs::start_span(config_.tracer, "portal.run_analysis", "portal");
  root.note("cluster", cluster_name);
  const auto fail = [&](Error error) {
    root.note("error", error.to_string());
    outcome.status = std::move(error);
    return std::move(outcome);
  };

  auto images = find_large_scale_images(cluster_name, &trace);
  if (!images.ok()) return fail(images.error());
  outcome.images = std::move(images.value());
  auto catalog = build_galaxy_catalog(cluster_name, &trace);
  if (!catalog.ok()) return fail(catalog.error());
  auto with_refs = attach_cutout_refs(std::move(catalog.value()), cluster_name, &trace);
  if (!with_refs.ok()) return fail(with_refs.error());
  auto morphology = compute_morphology(with_refs.value(), cluster_name, {}, &trace);
  if (!morphology.ok()) return fail(morphology.error());
  auto merged =
      merge_morphology(with_refs.value(), morphology.value(), cluster_name, &trace);
  if (!merged.ok()) return fail(merged.error());
  outcome.catalog = std::move(merged.value());
  root.count("galaxies", static_cast<double>(trace.galaxies));
  root.count("valid", static_cast<double>(trace.valid));
  root.count("invalid", static_cast<double>(trace.invalid));
  return outcome;
}

}  // namespace nvo::portal
