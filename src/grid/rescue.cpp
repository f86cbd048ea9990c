#include "grid/rescue.hpp"

#include <map>

namespace nvo::grid {

namespace {

/// True when the report contains no node that still needs running.
bool all_succeeded(const RunReport& report) {
  return report.jobs_failed == 0 && report.jobs_skipped == 0 &&
         report.jobs_succeeded == report.jobs_total;
}

}  // namespace

Expected<vds::Dag> make_rescue_dag(const vds::Dag& concrete,
                                   const RunReport& report) {
  // All-succeeded (or empty) report: nothing to rescue. Return the empty
  // DAG straight away rather than building a degenerate one node-by-node.
  if (all_succeeded(report)) return vds::Dag{};
  vds::Dag rescue;
  for (const NodeResult& r : report.nodes) {
    if (r.outcome == NodeOutcome::kSucceeded) continue;
    const vds::DagNode* n = concrete.node(r.id);
    if (!n) {
      return Error(ErrorCode::kInvalidArgument,
                   "report names unknown node " + r.id);
    }
    if (const Status s = rescue.add_node(*n); !s.ok()) return s.error();
  }
  for (const std::string& id : rescue.node_ids()) {
    for (const std::string& child : concrete.children(id)) {
      if (rescue.has_node(child)) {
        if (const Status s = rescue.add_edge(id, child); !s.ok()) return s.error();
      }
    }
  }
  return rescue;
}

RunReport merge_node_outcomes(const vds::Dag& concrete,
                              const std::map<std::string, NodeResult>& latest) {
  RunReport merged;
  merged.jobs_total = concrete.num_nodes();
  for (const std::string& id : concrete.node_ids()) {
    const vds::DagNode* n = concrete.node(id);
    switch (n->type) {
      case vds::JobType::kCompute:
        ++merged.compute_jobs;
        break;
      case vds::JobType::kTransfer:
        ++merged.transfer_jobs;
        break;
      case vds::JobType::kRegister:
        ++merged.register_jobs;
        break;
    }
    const auto it = latest.find(id);
    NodeResult r;
    if (it != latest.end()) {
      r = it->second;
    } else {
      r.id = id;
    }
    switch (r.outcome) {
      case NodeOutcome::kSucceeded:
        ++merged.jobs_succeeded;
        break;
      case NodeOutcome::kFailed:
        ++merged.jobs_failed;
        break;
      case NodeOutcome::kSkipped:
        ++merged.jobs_skipped;
        break;
    }
    merged.makespan_seconds = std::max(merged.makespan_seconds, r.end_seconds);
    merged.nodes.push_back(std::move(r));
  }
  merged.workflow_succeeded = merged.jobs_succeeded == merged.jobs_total;
  return merged;
}

void RescueTally::absorb(const RunReport& round) {
  for (const NodeResult& r : round.nodes) latest[r.id] = r;
  counters.retries += round.retries;
  counters.stolen_jobs += round.stolen_jobs;
  counters.wan_bytes += round.wan_bytes;
  counters.jobs_expired += round.jobs_expired;
  counters.sites_lost.insert(counters.sites_lost.end(), round.sites_lost.begin(),
                             round.sites_lost.end());
  for (const auto& [site, busy] : round.site_busy_seconds) {
    counters.site_busy_seconds[site] += busy;
  }
}

RunReport RescueTally::merged(const vds::Dag& concrete) const {
  RunReport out = merge_node_outcomes(concrete, latest);
  out.retries = counters.retries;
  out.stolen_jobs = counters.stolen_jobs;
  out.wan_bytes = counters.wan_bytes;
  out.jobs_expired = counters.jobs_expired;
  out.sites_lost = counters.sites_lost;
  out.site_busy_seconds = counters.site_busy_seconds;
  return out;
}

}  // namespace nvo::grid
