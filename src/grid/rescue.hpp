// DAGMan rescue DAGs. When a DAGMan run ends with failures, Condor's DAGMan
// writes a "rescue DAG" containing the not-yet-completed portion so the
// workflow can be resubmitted without redoing finished work — the
// between-runs counterpart of the paper's per-galaxy fault tolerance. Given
// an executed concrete DAG and its report, build the DAG of failed +
// skipped nodes (succeeded nodes are dropped; edges from succeeded parents
// vanish since those inputs now exist).
#pragma once

#include "common/expected.hpp"
#include "grid/dagman.hpp"
#include "vds/dag.hpp"

namespace nvo::grid {

/// The rescue workflow: every node that did not succeed, with the edges
/// among them preserved. Succeeded nodes are treated as materialized — the
/// same assumption Pegasus reduction makes about RLS replicas. An
/// all-succeeded report short-circuits to an empty DAG without walking the
/// edge set (there is nothing to rescue).
Expected<vds::Dag> make_rescue_dag(const vds::Dag& concrete, const RunReport& report);

/// Folds per-node final outcomes into a report shaped like a single run
/// over `concrete`: job-class counts, succeeded/failed/skipped tallies,
/// makespan from the latest end time. Nodes absent from `latest` are
/// reported skipped. RescueTally::merged builds on it, which is how the
/// checkpoint-resume path merges journal-recovered completions with a
/// fresh partial run.
RunReport merge_node_outcomes(const vds::Dag& concrete,
                              const std::map<std::string, NodeResult>& latest);

/// One workflow across its executions (first run plus rescue rounds): each
/// node's latest outcome, and the run-level counters (retries, stolen_jobs,
/// wan_bytes, jobs_expired, sites_lost, site_busy_seconds) summed over the
/// rounds, which merge_node_outcomes alone would report as zero.
struct RescueTally {
  std::map<std::string, NodeResult> latest;  ///< node id -> last outcome
  RunReport counters;  ///< only the run-level counters are used
  /// Folds one round in: its outcomes replace earlier ones, counters add up.
  void absorb(const RunReport& round);
  /// merge_node_outcomes(concrete, latest) carrying the summed counters.
  RunReport merged(const vds::Dag& concrete) const;
};

}  // namespace nvo::grid
