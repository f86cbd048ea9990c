// portal_load: seeded open-loop multi-tenant load on portal::AsyncPortal,
// driven on the simulated fabric clock from one thread. The schedule —
// arrival times, tenants, bursts, (cluster, params) keys with a stated share
// of repeats, deadline SLOs — is generated here from the seed; the portal
// receives only the submissions. The offered load is a stated multiple of
// the portal's measured capacity. The archive is warm: set-up pre-renders
// every cutout of the sky, so the timed drive loop renders nothing
// (checked: zero render-cache misses).
//
// Each round replays the same schedule against a fresh campaign stack and
// portal (the render cache stays warm); rounds repeat until --seconds has
// elapsed. Simulated-clock figures come from the first round and every
// later round must reproduce them exactly.
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <random>
#include <thread>

#include "analysis/campaign.hpp"
#include "common/strings.hpp"
#include "obs/metrics.hpp"
#include "portal/async_portal.hpp"
#include "portal/load_gen.hpp"
#include "portal/transforms.hpp"
#include "replay.hpp"
#include "sim/render_cache.hpp"
#include "votable/votable_io.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using nvo::analysis::Campaign;
using nvo::analysis::CampaignConfig;
using nvo::portal::AsyncPortal;
using nvo::portal::RequestState;
using nvo::portal::RequestStatus;
using Scope = SpanRecorder::Scope;

// Workload shape. The offered load is stated against the portal's capacity:
// portal::measure_mean_service_ms, the calibration the repository's own
// overload bench uses, gives the mean simulated service time of one
// derivation, and requests arrive at kOverload per mean service time
// (portal::LoadConfig::overload; 1.0 is its critical load, 2.0 the overload
// bench's 2x point, where admission starts to shed on bursts). Bursts follow
// the defaults of the repository's load model (portal::LoadConfig), the SLO
// is the overload bench's 25 mean service times, and admission keeps the
// portal's default limits. Half the arrivals repeat an earlier key, so the
// memo path and the derivation path each serve half the requests.
constexpr double kPopulationScale = 0.25;   // clusters of 9..140 galaxies
constexpr std::size_t kRequests = 400;      // per round
constexpr double kOverload = 2.0;
constexpr double kSloServiceTimes = 25.0;
constexpr unsigned kMaxTenants = 4;
constexpr int kSetupSamples = 3;

struct Arrival {
  double at_ms = 0.0;
  std::size_t tenant = 0;
  std::string cluster;
  std::string params;
};

struct Schedule {
  std::vector<std::string> tenants;
  double slo_ms = 0.0;         ///< every request's deadline budget
  double mean_gap_ms = 0.0;    ///< between arrival events (a burst is one event)
  std::vector<Arrival> arrivals;
  std::size_t repeated = 0;    ///< arrivals whose key was issued before
};

// Uniform double in [0, 1) from the top 53 bits.
double unit(std::mt19937_64& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

std::vector<std::string> tenant_names(std::size_t n) {
  std::vector<std::string> names;
  for (std::size_t t = 0; t < n; ++t) names.push_back(nvo::format("tenant%zu", t));
  return names;
}

// Every other arrival repeats an earlier key; the rest are fresh. Fresh
// keys and repeats each cycle through the clusters, so every seed asks for
// the same cluster mix and only arrival times, tenants and bursts vary.
Schedule make_schedule(std::uint64_t seed, const std::vector<std::string>& clusters,
                       const std::vector<std::string>& tenants, double service_ms) {
  const nvo::portal::LoadConfig model;
  Schedule s;
  s.tenants = tenants;
  s.slo_ms = kSloServiceTimes * service_ms;
  const double mean_burst =
      1.0 + model.burst_fraction * (static_cast<double>(model.burst_size) - 1.0);
  s.mean_gap_ms = service_ms * mean_burst / kOverload;
  std::mt19937_64 rng(seed ^ 0x9E3779B97F4A7C15ull);
  std::map<std::string, std::string> latest_params;  // cluster -> newest key
  std::size_t fresh = 0, repeats = 0;
  double t_ms = 0.0;
  while (s.arrivals.size() < kRequests) {
    t_ms += -std::log(1.0 - unit(rng)) * s.mean_gap_ms;
    const std::size_t tenant = rng() % tenants.size();
    const std::size_t n = unit(rng) < model.burst_fraction ? model.burst_size : 1;
    for (std::size_t i = 0; i < n && s.arrivals.size() < kRequests; ++i) {
      Arrival a;
      a.at_ms = t_ms;
      a.tenant = tenant;
      a.cluster = clusters[repeats % clusters.size()];
      const auto known = latest_params.find(a.cluster);
      if (s.arrivals.size() % 2 == 1 && known != latest_params.end()) {
        a.params = known->second;
        ++repeats;
        ++s.repeated;
      } else {
        a.cluster = clusters[fresh % clusters.size()];
        a.params = nvo::format("p%zu", fresh++);
        latest_params[a.cluster] = a.params;
      }
      s.arrivals.push_back(std::move(a));
    }
  }
  return s;
}

// The archive (the universe) is the default campaign sky for every seed;
// the seed drives the traffic.
CampaignConfig portal_config(const RunOptions& options) {
  CampaignConfig config = campaign_config(options);
  config.population_scale = kPopulationScale;
  return config;
}

// Campaign stack + async portal over it, every cluster registered.
struct Stack {
  std::unique_ptr<Campaign> campaign;
  std::unique_ptr<AsyncPortal> portal;
};

Stack make_stack(const CampaignConfig& config, const std::vector<std::string>& tenants) {
  Stack s;
  s.campaign = std::make_unique<Campaign>(config);
  s.portal = std::make_unique<AsyncPortal>(s.campaign->fabric(), s.campaign->federation(),
                                           s.campaign->compute_service(),
                                           nvo::portal::AsyncPortalConfig{});
  for (const nvo::sim::Cluster& c : s.campaign->universe().clusters()) {
    nvo::portal::ClusterEntry entry;
    entry.name = c.name();
    entry.position = c.center();
    entry.redshift = c.redshift();
    entry.search_radius_deg = c.spec.extent_arcmin / 60.0;
    s.portal->add_cluster(entry);
  }
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    s.portal->add_tenant(tenants[t], t == 0 ? 2.0 : 1.0);
  }
  return s;
}

// Renders every cutout of the sky into the process-wide cache, on `threads`
// threads. The schedule cycles through every cluster.
void prerender(const Campaign& campaign, unsigned threads) {
  std::vector<std::pair<const nvo::sim::Cluster*, const nvo::sim::GalaxyTruth*>> work;
  for (const nvo::sim::Cluster& c : campaign.universe().clusters()) {
    for (const nvo::sim::GalaxyTruth& g : c.galaxies) work.emplace_back(&c, &g);
  }
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (std::size_t i = next++; i < work.size(); i = next++) {
        campaign.universe().galaxy_cutout(*work[i].first, *work[i].second, 64);
      }
    });
  }
  for (std::thread& t : pool) t.join();
}

struct Round {
  double wall_s = 0.0;
  double cpu_s = 0.0;             ///< process CPU time over the drive loop
  double sim_elapsed_ms = 0.0;
  std::vector<std::string> ids;  ///< submitted request ids, schedule order
  std::vector<double> step_us;   ///< traced rounds only
  std::uint64_t render_hits = 0;
  std::uint64_t render_misses = 0;
};

// The open-loop drive: each submission fires at its scheduled simulated
// time; between arrivals the portal works its backlog one step() at a time;
// when idle the clock jumps to the next arrival. The generator cannot run
// late: it shares the simulated clock with the system it drives.
Round drive(Stack& stack, const Schedule& schedule, SpanRecorder* spans) {
  Round round;
  AsyncPortal& portal = *stack.portal;
  nvo::services::HttpFabric& fabric = stack.campaign->fabric();
  const auto cache0 = nvo::sim::RenderCache::instance().stats();
  {
    Scope root(spans, "workload", "");
    const double t0 = now_s();
    const double cpu0 = cpu_s();
    const double start_ms = fabric.now_ms();
    std::size_t next = 0;
    while (next < schedule.arrivals.size() || !portal.idle()) {
      if (next < schedule.arrivals.size() &&
          schedule.arrivals[next].at_ms <= fabric.now_ms() - start_ms) {
        const Arrival& a = schedule.arrivals[next++];
        Scope s(spans, "portal::AsyncPortal::submit", "portal");
        const auto sub = portal.submit(schedule.tenants[a.tenant], a.cluster, a.params,
                                       schedule.slo_ms);
        round.ids.push_back(sub.id);
        continue;
      }
      bool stepped = false;
      if (spans != nullptr) {
        Scope s(spans, "portal::AsyncPortal::step", "portal");
        const double s0 = now_s();
        stepped = portal.step();
        round.step_us.push_back(1e6 * (now_s() - s0));
      } else {
        stepped = portal.step();
      }
      if (stepped) continue;
      if (next >= schedule.arrivals.size()) break;
      Scope s(spans, "services::HttpFabric::advance_clock", "services");
      fabric.advance_clock(schedule.arrivals[next].at_ms - (fabric.now_ms() - start_ms));
    }
    round.wall_s = now_s() - t0;
    round.cpu_s = cpu_s() - cpu0;
    round.sim_elapsed_ms = fabric.now_ms() - start_ms;
  }
  const auto cache1 = nvo::sim::RenderCache::instance().stats();
  round.render_hits = cache1.hits - cache0.hits;
  round.render_misses = cache1.misses - cache0.misses;
  return round;
}

// Everything the round's statuses say, on the simulated clock.
struct Summary {
  std::size_t submitted = 0, admitted = 0, shed = 0, done = 0, partial = 0;
  std::size_t failed = 0, expired = 0;
  std::size_t other = 0;          ///< no status, or not in a terminal state
  std::size_t deadline_met = 0;
  std::size_t galaxies = 0;       ///< catalog rows delivered to clients
  std::vector<double> latency_ms; ///< completed requests
  std::size_t memo_checked = 0;   ///< memo-served catalogs compared
  std::size_t memo_coalesced = 0; ///< of those, requests that waited on a leader
  std::size_t memo_mismatches = 0;
  double auc = 0.0;
  /// First derived catalog of each cluster, as the compute service
  /// materialized it, by cluster name (the round's stack, and with it its
  /// universe, ends with the round).
  std::vector<std::pair<std::string, nvo::votable::Table>> catalogs;

  bool operator==(const Summary& o) const {
    return submitted == o.submitted && admitted == o.admitted && shed == o.shed &&
           done == o.done && partial == o.partial && failed == o.failed &&
           expired == o.expired && galaxies == o.galaxies && latency_ms == o.latency_ms;
  }
};

std::string describe_table(const nvo::votable::Table& t) {
  return nvo::format("'%s' (%zu rows, %zu columns)", t.name.c_str(), t.num_rows(),
                     t.num_columns());
}

// A request served from the memo, directly or after waiting on an identical
// in-flight derivation, must get byte for byte the catalog its key's leader
// was served: the latest derivation of the same (cluster, params) that
// finished before the memo-served request started.
void check_memo(const AsyncPortal& portal, const std::vector<RequestStatus>& done,
                Summary& s, Outcome& out) {
  std::map<std::string, std::vector<const RequestStatus*>> derived;  // key -> by finish
  for (const RequestStatus& r : done) {
    if (!r.memo_hit) derived[r.cluster + '\n' + r.params].push_back(&r);
  }
  for (auto& [key, list] : derived) {
    std::sort(list.begin(), list.end(), [](const RequestStatus* a, const RequestStatus* b) {
      return a->finish_ms < b->finish_ms;
    });
  }
  std::map<std::string, std::string> leader_xml;  // leader id -> served bytes
  std::string example;
  for (const RequestStatus& r : done) {
    if (!r.memo_hit) continue;
    ++s.memo_checked;
    if (r.coalesced) ++s.memo_coalesced;
    const RequestStatus* leader = nullptr;
    for (const RequestStatus* d : derived[r.cluster + '\n' + r.params]) {
      if (d->finish_ms <= r.start_ms) leader = d;
    }
    const nvo::votable::Table* served = portal.result(r.id);
    const nvo::votable::Table* led = leader ? portal.result(leader->id) : nullptr;
    if (served == nullptr || led == nullptr) {
      ++s.memo_mismatches;
      out.error("memo-served request " + r.id + " has no leader catalog to compare with");
      continue;
    }
    auto it = leader_xml.find(leader->id);
    if (it == leader_xml.end()) {
      it = leader_xml.emplace(leader->id, nvo::votable::to_votable_xml(*led)).first;
    }
    if (nvo::votable::to_votable_xml(*served) == it->second) continue;
    if (s.memo_mismatches++ == 0) {
      example = nvo::format("%s was served %s, its leader %s %s", r.id.c_str(),
                            describe_table(*served).c_str(), leader->id.c_str(),
                            describe_table(*led).c_str());
    }
  }
  if (s.memo_mismatches > 0 && !example.empty()) {
    out.error(nvo::format("%zu of %zu memo-served catalogs differ from the catalog their "
                          "key's leader was served; e.g. %s",
                          s.memo_mismatches, s.memo_checked, example.c_str()));
  }
}

Summary summarize(const Stack& stack, const Schedule& schedule, const Round& round,
                  bool score, Outcome& out) {
  Summary s;
  const AsyncPortal& portal = *stack.portal;
  const nvo::portal::MorphologyService& compute = stack.campaign->compute_service();
  EarlyTypeScores scores;
  std::vector<RequestStatus> done;
  for (std::size_t i = 0; i < round.ids.size(); ++i) {
    const auto st = portal.status(round.ids[i]);
    ++s.submitted;
    if (!st.ok()) {
      out.error("no status for submitted request " + round.ids[i]);
      ++s.other;
      continue;
    }
    const RequestStatus& r = st.value();
    switch (r.state) {
      case RequestState::kShed: ++s.shed; break;
      case RequestState::kDone: ++s.done; break;
      case RequestState::kPartial: ++s.partial; break;
      case RequestState::kFailed: ++s.failed; break;
      case RequestState::kExpired: ++s.expired; break;
      default:
        ++s.other;
        out.error(nvo::format("request %s ended %s, not terminal-by-design",
                              r.id.c_str(), nvo::portal::to_string(r.state)));
    }
    if (r.state != RequestState::kShed) ++s.admitted;
    const bool completed =
        r.state == RequestState::kDone || r.state == RequestState::kPartial;
    if (!completed) continue;
    s.latency_ms.push_back(r.latency_ms());
    s.galaxies += r.galaxies;
    if (r.deadline_ms <= 0.0 || r.finish_ms <= r.deadline_ms) ++s.deadline_met;
    if (r.state != RequestState::kDone || !score) continue;
    done.push_back(r);
    const bool first_of_cluster =
        !r.memo_hit && std::none_of(s.catalogs.begin(), s.catalogs.end(),
                                    [&](const auto& c) { return c.first == r.cluster; });
    if (!first_of_cluster) continue;
    const std::string* xml = compute.result_xml(
        nvo::portal::output_votable_lfn(r.cluster + "_" + r.params));
    auto materialized = xml ? nvo::votable::from_votable_xml(*xml)
                            : nvo::Expected<nvo::votable::Table>(nvo::votable::Table());
    if (xml == nullptr || !materialized.ok()) {
      out.error("no materialized catalog for completed request " + r.id);
      continue;
    }
    scores.add(*materialized, *stack.campaign->universe().find_cluster(r.cluster));
    s.catalogs.emplace_back(r.cluster, std::move(materialized.value()));
  }
  if (score) check_memo(portal, done, s, out);
  s.auc = scores.auc();
  if (s.submitted != schedule.arrivals.size()) {
    out.error(nvo::format("%zu of %zu arrivals got a request id", s.submitted,
                          schedule.arrivals.size()));
  }
  return s;
}

}  // namespace

Outcome run_portal_load(const RunOptions& options) {
  Outcome out;
  const CampaignConfig config = portal_config(options);
  const std::vector<std::string> tenants =
      tenant_names(std::min(kMaxTenants, options.nproc));

  // Set-up: empty the archive cache, build the stack, pre-render every
  // cutout of the sky. Median of several samples.
  std::vector<double> setup_s;
  const unsigned render_threads = std::min(4u, options.nproc);
  for (int i = 0; i < kSetupSamples; ++i) {
    nvo::sim::RenderCache::instance().clear();
    const double t0 = now_s();
    Stack stack = make_stack(config, tenants);
    prerender(*stack.campaign, render_threads);
    setup_s.push_back(now_s() - t0);
  }

  // Capacity: every cluster once through the synchronous portal of a
  // scratch stack. Simulated time, so the warm archive does not change it.
  std::vector<std::string> clusters;
  double service_ms = 0.0;
  {
    Campaign scratch(config);
    for (const nvo::sim::Cluster& c : scratch.universe().clusters()) {
      clusters.push_back(c.name());
    }
    service_ms = nvo::portal::measure_mean_service_ms(scratch.portal(), clusters);
  }
  if (!(service_ms > 0.0)) {
    out.error("portal service-time calibration failed");
    return out;
  }
  const Schedule schedule = make_schedule(options.seed, clusters, tenants, service_ms);
  out.note(nvo::format(
      "portal_load: seed %llu, population scale %.2f, %zu tenants, %zu open-loop "
      "arrivals; measured mean service time %.1f sim ms, offered %.2f requests per "
      "service time (mean gap %.1f sim ms between arrival events, bursts of %zu at "
      "p=%.2f); %zu arrivals repeat an earlier (cluster, params) key; SLO %.0f sim ms; "
      "generator lateness 0 by construction (it runs on the simulated clock)",
      static_cast<unsigned long long>(options.seed), kPopulationScale, tenants.size(),
      schedule.arrivals.size(), service_ms, kOverload, schedule.mean_gap_ms,
      nvo::portal::LoadConfig().burst_size, nvo::portal::LoadConfig().burst_fraction,
      schedule.repeated, schedule.slo_ms));

  std::vector<double> request_rates, galaxy_rates, cpu_shares;
  double wall_s = 0.0;
  Summary first;
  double first_sim_ms = 0.0;
  double first_wall_s = 0.0;
  Round traced_round;
  Stack traced_stack;
  std::size_t rounds = 0;
  // An untraced run repeats rounds until --seconds has elapsed; a traced run
  // makes one untraced round, then one traced round.
  while (options.trace ? rounds < 2 : (rounds == 0 || wall_s < options.seconds)) {
    Stack stack = make_stack(config, tenants);
    SpanRecorder* spans = options.trace && rounds == 1 ? &out.spans : nullptr;
    Round round = drive(stack, schedule, spans);
    if (round.render_misses != 0) {
      out.error(nvo::format("portal_load is not warm: %llu render-cache misses",
                            static_cast<unsigned long long>(round.render_misses)));
    }
    Summary sum = summarize(stack, schedule, round, rounds == 0, out);
    wall_s += round.wall_s;
    request_rates.push_back((sum.submitted - sum.other) / round.wall_s);
    galaxy_rates.push_back(sum.galaxies / round.wall_s);
    cpu_shares.push_back(round.cpu_s / round.wall_s);
    if (rounds == 0) {
      first = std::move(sum);
      first_sim_ms = round.sim_elapsed_ms;
      first_wall_s = round.wall_s;
    } else if (!(sum == first) || round.sim_elapsed_ms != first_sim_ms) {
      out.error("simulated outcomes differ between identical rounds");
    }
    if (spans != nullptr) {
      traced_round = std::move(round);
      traced_stack = std::move(stack);
    }
    ++rounds;
  }

  const std::size_t completed = first.done + first.partial;
  const std::optional<double> p50 = percentile(first.latency_ms, 0.5);
  const std::optional<double> p90 = percentile(first.latency_ms, 0.9);
  if (!p90) {
    out.error(nvo::format("only %zu completed requests; p90 needs %zu", completed,
                          min_samples_for_percentile(0.9)));
  }
  const double goodput = completed / (first_sim_ms / 1000.0);
  const double shed_ratio = ratio(first.shed, first.submitted);
  // Every request carries a deadline; shed and expired requests miss it.
  const double attainment = ratio(first.deadline_met, first.submitted);
  out.attempted = first.submitted * rounds;
  out.failed = (first.failed + first.other + first.memo_mismatches) * rounds;
  out.note(nvo::format(
      "portal_load: %zu round(s) in %.3f s wall, process CPU / wall per round median "
      "%.3f (range %.3f .. %.3f); per round %zu submitted, %zu admitted, %zu shed, "
      "%zu done, %zu partial, %zu expired, %zu failed; %zu memo-served catalogs "
      "(%zu after waiting on a leader) compared with their leader's",
      rounds, wall_s, median(cpu_shares),
      *std::min_element(cpu_shares.begin(), cpu_shares.end()),
      *std::max_element(cpu_shares.begin(), cpu_shares.end()), first.submitted,
      first.admitted, first.shed, first.done, first.partial, first.expired, first.failed,
      first.memo_checked, first.memo_coalesced));
  out.note(nvo::format(
      "portal_load (not gated): requests_per_s %.4f (wall); simulated clock: "
      "sim_latency_p50_ms %.3f, sim_latency_p90_ms %.3f over %zu completed requests, "
      "sim_goodput_per_s %.5f, shed_ratio %.4f, deadline_attainment %.4f, "
      "sim_elapsed_s %.3f",
      median(request_rates), p50.value_or(0.0), p90.value_or(0.0), completed, goodput,
      shed_ratio, attainment, first_sim_ms / 1000.0));

  if (!options.trace) {
    out.set_setup(setup_s);
    out.set("galaxies_per_s", median(galaxy_rates), "1/s");
    out.set("peak_rss_mb", peak_rss_mb(), "MB");
    out.set("early_auc", first.auc, "ratio");
    out.set("success_ratio",
            1.0 - ratio(static_cast<double>(first.failed + first.expired + first.partial),
                        static_cast<double>(first.admitted)),
            "ratio");
    return out;
  }

  out.set("portal.requests_per_s", request_rates.front(), "1/s");
  out.set("portal.sim_latency_p50_ms", p50.value_or(0.0), "ms");
  out.set("portal.sim_latency_p90_ms", p90.value_or(0.0), "ms");
  out.set("portal.sim_latency_samples", static_cast<double>(completed), "count");
  out.set("portal.sim_goodput_per_s", goodput, "1/s");
  out.set("portal.shed_ratio", shed_ratio, "ratio");
  out.set("portal.deadline_attainment", attainment, "ratio");
  out.set("portal.step_us_p50", percentile(traced_round.step_us, 0.5).value_or(0.0), "us");
  out.set("portal.step_us_p90", percentile(traced_round.step_us, 0.9).value_or(0.0), "us");
  const AsyncPortal::Stats stats = traced_stack.portal->stats();
  out.set("portal.memo_hit_ratio", ratio(stats.memo_hits, stats.admitted), "ratio");
  out.set("portal.recomputes", static_cast<double>(stats.recomputes), "count");
  out.set("portal.coalesced", static_cast<double>(stats.coalesced), "count");
  out.set("services.admission.shed", static_cast<double>(stats.shed), "count");
  out.set("sim.render_cache.hits", static_cast<double>(traced_round.render_hits), "count");
  out.set("sim.render_cache.misses", static_cast<double>(traced_round.render_misses), "count");

  // The stack is fresh per round, so its counters cover the traced round.
  Campaign& campaign = *traced_stack.campaign;
  nvo::obs::MetricsRegistry registry;
  campaign.register_metrics(registry);
  // Compute-service requests are numbered req-000001, req-000002, ...
  std::vector<const nvo::portal::ServiceTrace*> traces;
  while (const auto* t = campaign.compute_service().trace(
             nvo::format("req-%06zu", traces.size() + 1))) {
    traces.push_back(t);
  }
  if (traces.empty()) out.error("no compute-service traces found for the traced round");
  set_stack_metrics({}, registry.snapshot(), traces, out);
  set_obs_metrics(traced_round.wall_s, first_wall_s, out);

  ReplayInputs replay = replay_inputs(campaign, config);
  std::vector<const nvo::sim::Cluster*> served;
  for (auto& [name, table] : first.catalogs) {
    served.push_back(campaign.universe().find_cluster(name));
    replay.catalogs.push_back({served.back(), std::move(table)});
  }
  replay.galaxies = sample_galaxies(served, 96);
  if (!served.empty()) replay.field_clusters = {served.front(), served.back()};
  replay_layers(replay, out.spans, out.metrics);
  return out;
}

}  // namespace perfbench
