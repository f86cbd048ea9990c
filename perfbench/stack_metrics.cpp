// What the workloads share: set-up time; for the two workloads that run the
// full grid stack (campaign_cold and portal_load), their campaign config,
// replay inputs and per-layer metrics; and the obs ratios every traced run
// reports.
#include <algorithm>
#include <cstdio>

#include "workloads.hpp"

namespace perfbench {

void Outcome::set_setup(const std::vector<double>& samples_s) {
  set("setup_s", median(samples_s), "s");
  const auto [lo, hi] = std::minmax_element(samples_s.begin(), samples_s.end());
  char line[96];
  std::snprintf(line, sizeof(line), "setup_s: median of %zu samples, range %.4g .. %.4g s",
                samples_s.size(), *lo, *hi);
  note(line);
}

nvo::analysis::CampaignConfig campaign_config(const RunOptions& options) {
  nvo::analysis::CampaignConfig config;
  config.compute_threads = std::min<std::size_t>(config.compute_threads, options.nproc);
  return config;
}

ReplayInputs replay_inputs(const nvo::analysis::Campaign& campaign,
                           const nvo::analysis::CampaignConfig& config) {
  ReplayInputs in;
  in.universe = &campaign.universe();
  in.cutout_size = 64;
  in.render = campaign.universe().config().render;
  in.universe_seed = config.seed;
  in.corruption_rate = config.corruption_rate;
  return in;
}

void set_stack_metrics(const nvo::obs::MetricsSnapshot& before,
                       const nvo::obs::MetricsSnapshot& after,
                       const std::vector<const nvo::portal::ServiceTrace*>& traces,
                       Outcome& out) {
  const auto counter = [&](const std::string& name) {
    return after.counter(name) - before.counter(name);
  };
  out.set("services.fabric.requests", counter("fabric.requests"), "count");
  out.set("services.fabric.mb", counter("fabric.bytes_transferred") / 1e6, "MB");
  out.set("services.client.retries",
          counter("client.portal.retries") + counter("client.compute.retries"), "count");
  const double hits = counter("cache.replica.hits");
  out.set("services.replica_cache.hit_ratio",
          ratio(hits, hits + counter("cache.replica.misses")), "ratio");
  out.set("grid.pool.idle_ms", after.gauge("pool.idle_ms") - before.gauge("pool.idle_ms"),
          "ms");

  double compose_ms = 0, plan_ms = 0, staging_ms = 0, makespan_s = 0;
  double abstract_jobs = 0, pruned = 0, jobs = 0;
  for (const nvo::portal::ServiceTrace* t : traces) {
    compose_ms += t->compose_wall_ms;
    plan_ms += t->plan_wall_ms;
    staging_ms += t->kernel_wall_ms;
    abstract_jobs += static_cast<double>(t->plan.abstract_jobs);
    pruned += static_cast<double>(t->plan.pruned_jobs);
    jobs += static_cast<double>(t->execution.jobs_total);
    makespan_s += t->execution.makespan_seconds;
  }
  const double requests = static_cast<double>(traces.size());
  out.set("vds.compose_ms", ratio(compose_ms, requests), "ms");
  out.set("pegasus.plan_ms", ratio(plan_ms, requests), "ms");
  out.set("pegasus.pruned_ratio", ratio(pruned, abstract_jobs), "ratio");
  out.set("grid.jobs", jobs, "count");
  out.set("grid.sim_makespan_s", makespan_s, "s");
  out.set("portal.staging_ms", staging_ms, "ms");
}

void set_obs_metrics(double traced_wall_s, double untraced_wall_s, Outcome& out) {
  out.set("obs.trace_overhead_ratio", ratio(traced_wall_s, untraced_wall_s), "ratio");
  const std::uint64_t root = out.spans.last_root("workload");
  const auto self = out.spans.layer_self_seconds(root);
  const auto unattributed = self.find("");
  out.set("obs.unattributed_share",
          unattributed == self.end() ? 0.0
                                     : ratio(unattributed->second, out.spans.duration_s(root)),
          "ratio");
}

}  // namespace perfbench
