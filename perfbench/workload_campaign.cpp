// campaign_cold: the paper's §5 eight-cluster campaign at full population
// scale (1525 galaxies, 37..561 per cluster) with the default
// CampaignConfig, run with the process-wide render cache empty. Each timed
// campaign is a fresh analysis::Campaign; the cache is cleared before it.
// The sky is the default one for every seed; the seed orders the eight
// cluster requests. A seeded sky would make the cost of a campaign depend
// on the seed: synthesis time differs by about 10% between skies.
#include <algorithm>
#include <memory>
#include <random>

#include "analysis/campaign.hpp"
#include "common/strings.hpp"
#include "obs/metrics.hpp"
#include "replay.hpp"
#include "sim/render_cache.hpp"
#include "votable/votable_io.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using nvo::analysis::Campaign;
using nvo::analysis::CampaignConfig;
using nvo::analysis::ClusterOutcome;
using Scope = SpanRecorder::Scope;

// Set-up samples taken before every timed campaign and once after the last.
// A stack builds in about 3 ms, and a shared machine's speed drifts over
// seconds, so batches spread over the run steady the median more than one
// batch could.
constexpr int kSetupBatch = 34;

// The universe's clusters in a seeded order (Fisher-Yates on mt19937_64).
std::vector<std::string> request_order(const Campaign& campaign, std::uint64_t seed) {
  std::vector<std::string> order;
  for (const nvo::sim::Cluster& c : campaign.universe().clusters()) order.push_back(c.name());
  std::mt19937_64 rng(seed);
  for (std::size_t i = order.size(); i > 1; --i) std::swap(order[i - 1], order[rng() % i]);
  return order;
}

struct Pass {
  double wall_s = 0.0;
  std::vector<ClusterOutcome> clusters;
  std::uint64_t render_hits = 0;
  std::uint64_t render_misses = 0;
  nvo::obs::MetricsSnapshot before;
  nvo::obs::MetricsSnapshot after;
};

// One cold campaign: clear the render cache, then run every cluster through
// `campaign` in `order`. Spans wrap each public call when `spans` is set.
Pass run_pass(Campaign& campaign, const std::vector<std::string>& order,
              SpanRecorder* spans, Outcome& out) {
  nvo::sim::RenderCache::instance().clear();
  nvo::obs::MetricsRegistry registry;
  campaign.register_metrics(registry);
  Pass pass;
  pass.before = registry.snapshot();
  const auto cache0 = nvo::sim::RenderCache::instance().stats();
  {
    Scope root(spans, "workload", "");
    const double t0 = now_s();
    for (const std::string& name : order) {
      Scope s(spans, "analysis::Campaign::run_cluster", "analysis");
      auto outcome = campaign.run_cluster(name);
      if (!outcome.ok()) {
        out.error("run_cluster " + name + ": " + outcome.error().to_string());
        continue;
      }
      pass.clusters.push_back(std::move(outcome.value()));
    }
    pass.wall_s = now_s() - t0;
  }
  const auto cache1 = nvo::sim::RenderCache::instance().stats();
  pass.after = registry.snapshot();
  pass.render_hits = cache1.hits - cache0.hits;
  pass.render_misses = cache1.misses - cache0.misses;
  // Cold honesty: a campaign labelled cold may not read a single frame that
  // an earlier render left behind.
  if (pass.render_hits != 0) {
    out.error(nvo::format("campaign_cold is not cold: %llu render-cache hits",
                          static_cast<unsigned long long>(pass.render_hits)));
  }
  return pass;
}

// Audits every cluster catalog of a pass against the truth.
Science audit_pass(const Campaign& campaign, const CampaignConfig& config,
                   const Pass& pass, Outcome& out) {
  Science sci;
  EarlyTypeScores scores;
  for (const nvo::sim::Cluster& c : campaign.universe().clusters()) {
    sci.galaxies += c.galaxies.size();
    const auto it = std::find_if(pass.clusters.begin(), pass.clusters.end(),
                                 [&](const ClusterOutcome& o) { return o.name == c.name(); });
    if (it == pass.clusters.end()) {
      sci.failures += c.galaxies.size();
      sci.lost += c.galaxies.size();
      continue;
    }
    auto table = nvo::votable::from_votable_xml(it->catalog_xml);
    if (!table.ok()) {
      out.error("catalog of " + c.name() + " does not parse");
      sci.failures += c.galaxies.size();
      sci.lost += c.galaxies.size();
      continue;
    }
    const CatalogAudit audit =
        audit_catalog(*table, c, config.seed, config.corruption_rate,
                      campaign.universe().config().render, 64);
    if (audit.failures() > 0) out.error(describe(audit, c.name()));
    sci.failures += audit.failures();
    sci.lost += audit.lost();
    scores.add(*table, c);
    sci.catalogs.push_back({&c, std::move(table.value())});
  }
  sci.auc = scores.auc();
  return sci;
}

std::vector<std::uint64_t> catalog_digests(const Pass& pass) {
  std::vector<std::uint64_t> out;
  for (const ClusterOutcome& o : pass.clusters) out.push_back(fnv1a(o.catalog_xml));
  return out;
}

double sim_seconds(const Pass& pass) {
  double total = 0.0;
  for (const ClusterOutcome& o : pass.clusters) {
    total += o.makespan_seconds + o.portal_trace.total_ms() / 1000.0;
  }
  return total;
}

void traced_run(const CampaignConfig& config, const std::vector<std::string>& order,
                Outcome& out) {
  Campaign untraced_campaign(config);
  const Pass untraced = run_pass(untraced_campaign, order, nullptr, out);

  Campaign campaign(config);
  const Pass traced = run_pass(campaign, order, &out.spans, out);
  if (catalog_digests(traced) != catalog_digests(untraced)) {
    out.error("catalog digests differ between the traced and untraced runs");
  }
  Science sci = audit_pass(campaign, config, traced, out);
  out.attempted = sci.galaxies;
  out.failed = sci.failures;

  out.set("sim.render_cache.hits", static_cast<double>(traced.render_hits), "count");
  out.set("sim.render_cache.misses", static_cast<double>(traced.render_misses), "count");
  std::vector<const nvo::portal::ServiceTrace*> traces;
  for (const ClusterOutcome& o : traced.clusters) {
    if (const auto* t = campaign.compute_service().trace(o.portal_trace.compute_request_id)) {
      traces.push_back(t);
    }
  }
  set_stack_metrics(traced.before, traced.after, traces, out);
  out.set("analysis.campaign.sim_makespan_s", sim_seconds(traced), "s");
  set_obs_metrics(traced.wall_s, untraced.wall_s, out);

  ReplayInputs replay = replay_inputs(campaign, config);
  std::vector<const nvo::sim::Cluster*> clusters;
  for (const nvo::sim::Cluster& c : campaign.universe().clusters()) clusters.push_back(&c);
  replay.galaxies = sample_galaxies(clusters, 96);
  replay.field_clusters = {clusters.front(), clusters.back()};
  replay.catalogs = std::move(sci.catalogs);
  replay_layers(replay, out.spans, out.metrics);
  out.note(nvo::format("trace: untraced %.3f s, traced %.3f s, %zu replayed cutouts",
                       untraced.wall_s, traced.wall_s, replay.galaxies.size()));
}

}  // namespace

Outcome run_campaign_cold(const RunOptions& options) {
  Outcome out;
  const CampaignConfig config = campaign_config(options);
  const std::vector<std::string> order = request_order(Campaign(config), options.seed);
  out.note(nvo::format("campaign_cold: seed %llu orders the requests (%s), default sky, "
                       "population scale %.2f, compute_threads %zu, render cache cleared "
                       "before each campaign",
                       static_cast<unsigned long long>(options.seed),
                       nvo::join(order, " ").c_str(), config.population_scale,
                       config.compute_threads));

  if (options.trace) {
    traced_run(config, order, out);
    return out;
  }

  // Set-up is building the whole stack (universe, federation, grid, RLS/TC,
  // compute service, portal); sampled in batches, median reported.
  std::vector<double> setup_s;
  const auto sample_setup = [&] {
    for (int i = 0; i < kSetupBatch; ++i) {
      const double t0 = now_s();
      Campaign campaign(config);
      setup_s.push_back(now_s() - t0);
    }
  };

  double wall_s = 0.0;
  std::size_t galaxies = 0, requests = 0, campaigns = 0;
  std::uint64_t failures = 0, lost = 0, attempted = 0, misses = 0;
  double auc = 0.0, sim_s = 0.0;
  std::vector<std::uint64_t> digests;
  while (campaigns == 0 || wall_s < options.seconds) {
    sample_setup();
    const double t0 = now_s();
    auto campaign = std::make_unique<Campaign>(config);
    setup_s.push_back(now_s() - t0);
    const Pass pass = run_pass(*campaign, order, nullptr, out);
    wall_s += pass.wall_s;
    ++campaigns;
    misses += pass.render_misses;
    requests += pass.clusters.size();
    for (const ClusterOutcome& o : pass.clusters) galaxies += o.galaxies;
    const Science sci = audit_pass(*campaign, config, pass, out);
    attempted += sci.galaxies;
    failures += sci.failures;
    lost += sci.lost;
    if (campaigns == 1) {
      auc = sci.auc;
      sim_s = sim_seconds(pass);
      digests = catalog_digests(pass);
    } else if (catalog_digests(pass) != digests) {
      out.error("catalogs differ between repeated cold campaigns");
    }
  }

  sample_setup();
  out.attempted = attempted;
  out.failed = failures;
  out.set_setup(setup_s);
  out.set("galaxies_per_s", galaxies / wall_s, "1/s");
  out.set("peak_rss_mb", peak_rss_mb(), "MB");
  out.set("early_auc", auc, "ratio");
  out.set("success_ratio",
          attempted == 0 ? 0.0 : 1.0 - static_cast<double>(lost) / attempted, "ratio");
  out.note(nvo::format("campaign_cold: %zu campaign(s), %zu galaxies in %.3f s wall; "
                       "render cache misses %llu, hits 0 checked; %llu galaxies "
                       "without a measurement outside the corrupted subset",
                       campaigns, galaxies, wall_s,
                       static_cast<unsigned long long>(misses),
                       static_cast<unsigned long long>(lost)));
  out.note(nvo::format("campaign_cold (not gated): requests_per_s %.4f (cluster "
                       "requests), sim_makespan_s %.3f (simulated clock)",
                       requests / wall_s, sim_s));
  return out;
}

}  // namespace perfbench
