#include "grid/dagman.hpp"

#include <algorithm>
#include <deque>
#include <queue>

#include "common/strings.hpp"

namespace nvo::grid {

const NodeResult* RunReport::result_for(const std::string& id) const {
  for (const NodeResult& r : nodes) {
    if (r.id == id) return &r;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// DagManSim
// ---------------------------------------------------------------------------

DagManSim::DagManSim(const Grid& grid, JobCostModel cost, FailureModel failure,
                     std::uint64_t seed)
    : grid_(grid), cost_(std::move(cost)), failure_(failure), seed_(seed) {}

namespace {

struct SimEvent {
  enum class Kind {
    kCompletion,    ///< a node attempt finished
    kReadyWakeup,   ///< data-readiness wakeup: dispatch the node now
    kSiteOutage,    ///< a pool drops off the grid (node_id carries the site)
  };
  double time = 0.0;
  std::size_t sequence = 0;  // tie-break for determinism
  std::string node_id;
  Kind kind = Kind::kCompletion;
  bool operator>(const SimEvent& other) const {
    if (time != other.time) return time > other.time;
    return sequence > other.sequence;
  }
};

/// Per-(node, attempt) failure draw, independent of event order: the same
/// seed gives every attempt of every node the same verdict whether the
/// schedule is phase-barriered or pipelined on data arrivals. (A shared
/// sequential generator would entangle outcomes with completion order and
/// break the byte-identical-science guarantee across execution modes.)
/// FNV-1a over the node id, attempt index, and seed, finalized splitmix64-
/// style for uniformity.
bool attempt_fails(std::uint64_t seed, const std::string& node_id, int attempt,
                   double rate) {
  if (rate <= 0.0) return false;
  std::uint64_t h = 1469598103934665603ull ^ seed;
  for (const char c : node_id) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  h ^= static_cast<std::uint64_t>(attempt);
  h *= 1099511628211ull;
  h += 0x9E3779B97F4A7C15ull;
  h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ull;
  h = (h ^ (h >> 27)) * 0x94D049BB133111EBull;
  h ^= h >> 31;
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  return u < rate;
}

}  // namespace

Expected<RunReport> DagManSim::run(const vds::Dag& dag) {
  auto order = dag.topological_order();
  if (!order.ok()) return order.error();

  RunReport report;
  report.jobs_total = dag.num_nodes();

  // Validate sites and classify nodes up front.
  for (const std::string& id : dag.node_ids()) {
    const vds::DagNode* n = dag.node(id);
    switch (n->type) {
      case vds::JobType::kCompute:
        ++report.compute_jobs;
        if (!grid_.site(n->site)) {
          return Error(ErrorCode::kInvalidArgument,
                       "compute node " + id + " mapped to unknown site '" + n->site +
                           "'");
        }
        break;
      case vds::JobType::kTransfer:
        ++report.transfer_jobs;
        break;
      case vds::JobType::kRegister:
        ++report.register_jobs;
        break;
    }
  }

  std::map<std::string, NodeResult> results;
  std::map<std::string, std::size_t> waiting_parents;
  for (const std::string& id : dag.node_ids()) {
    waiting_parents[id] = dag.parents(id).size();
    NodeResult r;
    r.id = id;
    results[id] = r;
  }

  std::map<std::string, int> free_slots;
  for (const SiteConfig& s : grid_.sites()) free_slots[s.name] = s.slots;

  // Per-site FIFO of compute nodes awaiting a slot; transfers/registers
  // dispatch immediately.
  std::map<std::string, std::deque<std::string>> site_queue;
  std::priority_queue<SimEvent, std::vector<SimEvent>, std::greater<>> events;
  std::size_t sequence = 0;
  double now = 0.0;
  std::map<std::string, int> attempts;
  std::set<std::string> failed_permanently;

  // Scripted whole-pool outages. Sites already latched dead by a previous
  // run() (an earlier rescue round) stay dead from t=0; the rest are parked
  // as outage events at their scripted second.
  for (const auto& [site_name, at_s] : failure_.site_outage_at_s) {
    if (dead_sites_.count(site_name) != 0) {
      free_slots[site_name] = 0;
      continue;
    }
    events.push(SimEvent{at_s, ++sequence, site_name, SimEvent::Kind::kSiteOutage});
  }

  auto file_bytes = [&](const std::string& lfn) {
    return grid_.file_size(lfn).value_or(grid_.default_file_bytes);
  };

  // `exec_site` is where the node actually runs — normally n.site, but a
  // stolen node runs (and is billed) at the thief pool.
  auto duration_of = [&](const vds::DagNode& n,
                         const std::string& exec_site) -> double {
    switch (n.type) {
      case vds::JobType::kCompute: {
        const double ref = cost_.compute_seconds ? cost_.compute_seconds(n)
                                                 : cost_.compute_reference_seconds;
        const SiteConfig* site = grid_.site(exec_site);
        return ref / std::max(site ? site->speed_factor : 1.0, 1e-6);
      }
      case vds::JobType::kTransfer:
        return grid_.transfer_seconds(n.source_site, n.site, n.file);
      case vds::JobType::kRegister:
        return cost_.register_seconds;
    }
    return 0.0;
  };

  auto start_node = [&](const std::string& id, const std::string& site_override = {},
                        double migration_delay = 0.0) {
    const vds::DagNode* n = dag.node(id);
    NodeResult& r = results[id];
    if (r.attempts == 0) r.start_seconds = now;
    ++r.attempts;
    r.site = site_override.empty() ? n->site : site_override;
    const double d = duration_of(*n, r.site);
    double delay = migration_delay;
    if (n->type == vds::JobType::kCompute) {
      report.site_busy_seconds[r.site] += d;
      const SiteConfig* site = grid_.site(r.site);
      if (site) delay += site->queue_delay_s;
    } else if (n->type == vds::JobType::kTransfer &&
               n->source_site != n->site) {
      report.wan_bytes += file_bytes(n->file);
    }
    events.push(SimEvent{now + delay + d, ++sequence, id});
  };

  // Deadline gate at dispatch: a compute node whose remaining budget
  // cannot cover queue delay + estimated duration is terminally expired —
  // no attempt is issued, no slot taken, descendants stay blocked. Idempotent
  // (a node may be re-examined from a queue or a steal scan); the verdict
  // can only tighten because `now` is monotone.
  std::set<std::string> expired_nodes;
  auto expire_if_due = [&](const std::string& id) -> bool {
    if (deadline_s_ <= 0.0) return false;
    const vds::DagNode* n = dag.node(id);
    if (n->type != vds::JobType::kCompute) return false;
    const SiteConfig* site = grid_.site(n->site);
    const double queue_delay = site ? site->queue_delay_s : 0.0;
    if (now + queue_delay + duration_of(*n, n->site) <= deadline_s_) {
      return false;
    }
    if (expired_nodes.insert(id).second) ++report.jobs_expired;
    return true;
  };

  auto dispatch_now = [&](const std::string& id) {
    const vds::DagNode* n = dag.node(id);
    if (n->type == vds::JobType::kCompute) {
      if (expire_if_due(id)) return;
      // A pool that is gone accepts nothing: the node is left unstarted
      // (reported skipped) for a rescue round to re-map.
      if (dead_sites_.count(n->site) != 0) return;
      if (free_slots[n->site] > 0) {
        --free_slots[n->site];
        start_node(id);
      } else {
        site_queue[n->site].push_back(id);
      }
    } else {
      if (n->type == vds::JobType::kTransfer &&
          (dead_sites_.count(n->site) != 0 ||
           dead_sites_.count(n->source_site) != 0)) {
        return;  // no endpoint to stream to/from; left skipped for rescue
      }
      start_node(id);
    }
  };

  // Parent-satisfied nodes still wait for their data: a node with a ready
  // time in the future is parked as a wakeup event instead of being handed
  // to the site queue (where it would start the moment a slot freed,
  // before its inputs exist).
  auto dispatch = [&](const std::string& id) {
    if (!ready_.empty()) {
      const auto it = ready_.find(id);
      if (it != ready_.end() && it->second > now) {
        events.push(SimEvent{it->second, ++sequence, id,
                             SimEvent::Kind::kReadyWakeup});
        return;
      }
    }
    dispatch_now(id);
  };

  // Work stealing: a freed slot at `thief` with no local backlog pulls the
  // newest queued node from the most backlogged other pool (newest = the
  // entry a busy pool would reach last, so stealing helps the tail without
  // reordering the head). Returns true when a node was migrated onto the
  // already-held slot.
  auto steal_into = [&](const std::string& thief) -> bool {
    if (!work_stealing_) return false;
    std::string victim;
    std::string stolen;
    std::size_t best_backlog = 0;
    for (const auto& [site_name, q] : site_queue) {
      if (site_name == thief || q.empty() || q.size() <= best_backlog) continue;
      // Newest-first scan for a node the thief can actually run.
      for (auto it = q.rbegin(); it != q.rend(); ++it) {
        if (expire_if_due(*it)) continue;  // dropped for good at pop time
        if (steal_filter_ && !steal_filter_(*dag.node(*it), thief)) continue;
        victim = site_name;
        stolen = *it;
        best_backlog = q.size();
        break;
      }
    }
    if (stolen.empty()) return false;
    auto& q = site_queue[victim];
    q.erase(std::find(q.begin(), q.end(), stolen));
    ++report.stolen_jobs;
    // The staged inputs sit at the victim pool; migrating the job moves
    // them over the inter-site link before the attempt can start.
    double migration_s = 0.0;
    const vds::DagNode* sn = dag.node(stolen);
    for (const std::string& lfn : sn->inputs) {
      migration_s += grid_.transfer_seconds(victim, thief, lfn);
      report.wan_bytes += file_bytes(lfn);
    }
    start_node(stolen, thief, migration_s);
    return true;
  };

  // Seed with roots.
  for (const std::string& id : dag.node_ids()) {
    if (waiting_parents[id] == 0) dispatch(id);
  }
  // A pool that starts idle would otherwise never steal — it only re-enters
  // the loop on its own completions, and it has none. Let every pool with
  // leftover slots pull from backlogged queues before the clock starts.
  if (work_stealing_) {
    for (const SiteConfig& s : grid_.sites()) {
      if (dead_sites_.count(s.name) != 0) continue;
      while (free_slots[s.name] > 0 && site_queue[s.name].empty() &&
             steal_into(s.name)) {
        --free_slots[s.name];
      }
    }
  }

  std::size_t completed = 0;
  while (!events.empty()) {
    // Cooperative cancellation: observed between events, never mid-node.
    // Everything still pending — queued nodes, parked wakeups, in-flight
    // completions — is dropped with the run-local state (slots, queues and
    // events are locals, so nothing survives the return), and completions
    // already recorded stand. The caller sees a partial report.
    if (cancel_.cancelled()) {
      report.cancelled = true;
      break;
    }
    const SimEvent ev = events.top();
    events.pop();
    now = ev.time;
    if (ev.kind == SimEvent::Kind::kReadyWakeup) {
      dispatch_now(ev.node_id);
      continue;
    }
    if (ev.kind == SimEvent::Kind::kSiteOutage) {
      // The pool is gone: no free slots, and its queued-but-unstarted jobs
      // have nowhere to run (they stay skipped; a rescue round re-maps
      // them). Attempts in flight there fail when their completion fires.
      dead_sites_.insert(ev.node_id);
      report.sites_lost.push_back(ev.node_id);
      free_slots[ev.node_id] = 0;
      site_queue[ev.node_id].clear();
      continue;
    }
    const vds::DagNode* n = dag.node(ev.node_id);
    NodeResult& r = results[ev.node_id];

    // An attempt whose pool died under it (or whose transfer endpoint
    // vanished) fails terminally: there is no pool to resubmit to, so the
    // DAGMan retry policy does not apply and the slot dies with the pool.
    const bool lost_site =
        n->type == vds::JobType::kCompute
            ? dead_sites_.count(r.site) != 0
            : n->type == vds::JobType::kTransfer &&
                  (dead_sites_.count(n->site) != 0 ||
                   dead_sites_.count(n->source_site) != 0);
    if (lost_site) {
      r.end_seconds = now;
      r.outcome = NodeOutcome::kFailed;
      failed_permanently.insert(ev.node_id);
      ++report.jobs_failed;
      ++completed;
      if (on_node_) {
        if (const Status s = on_node_(r); !s.ok()) return s.error();
      }
      continue;
    }

    // Outcome draw, keyed on (node, lifetime draw index) so it is
    // event-order invariant: barriered and pipelined schedules reach
    // identical verdicts, while rescue rounds re-running a node draw fresh.
    bool failed = failure_.permanent_failures.count(ev.node_id) != 0;
    if (!failed) {
      const double rate = n->type == vds::JobType::kTransfer
                              ? failure_.transfer_failure_rate
                              : n->type == vds::JobType::kCompute
                                    ? failure_.compute_failure_rate
                                    : 0.0;
      failed = attempt_fails(seed_, ev.node_id, ++draw_count_[ev.node_id], rate);
    }

    if (failed && r.attempts <= failure_.max_retries) {
      ++report.retries;
      ++r.attempts;
      // Retry in place: the slot is still held (DAGMan resubmits).
      const double d = duration_of(*n, r.site);
      double delay = 0.0;
      if (n->type == vds::JobType::kCompute) {
        report.site_busy_seconds[r.site] += d;
        const SiteConfig* site = grid_.site(r.site);
        if (site) delay = site->queue_delay_s;
      } else if (n->type == vds::JobType::kTransfer &&
                 n->source_site != n->site) {
        report.wan_bytes += file_bytes(n->file);  // the stream restarts
      }
      events.push(SimEvent{now + delay + d, ++sequence, ev.node_id});
      continue;
    }

    // Slot release: hand it to the local queue first (skipping nodes whose
    // budget expired while they waited), then (when enabled) to the most
    // backlogged other pool's tail, else free it.
    if (n->type == vds::JobType::kCompute) {
      auto& q = site_queue[r.site];
      std::string next;
      while (!q.empty()) {
        const std::string cand = q.front();
        q.pop_front();
        if (!expire_if_due(cand)) {
          next = cand;
          break;
        }
      }
      if (!next.empty()) {
        start_node(next);  // slot handed directly to the next queued job
      } else if (!steal_into(r.site)) {
        ++free_slots[r.site];
      }
    }

    r.end_seconds = now;
    ++completed;
    if (failed) {
      r.outcome = NodeOutcome::kFailed;
      failed_permanently.insert(ev.node_id);
      ++report.jobs_failed;
      if (on_node_) {
        if (const Status s = on_node_(r); !s.ok()) return s.error();
      }
      continue;  // descendants stay blocked -> reported skipped
    }
    r.outcome = NodeOutcome::kSucceeded;
    ++report.jobs_succeeded;
    if (on_node_) {
      // The completion is final before the callback fires, so a journal
      // write captures exactly the state a resume must not redo — and an
      // injected kill here loses only work the journal already holds.
      if (const Status s = on_node_(r); !s.ok()) return s.error();
    }
    for (const std::string& child : dag.children(ev.node_id)) {
      if (--waiting_parents[child] == 0) dispatch(child);
    }
  }

  report.makespan_seconds = now;
  for (const std::string& id : dag.node_ids()) {
    const NodeResult& r = results[id];
    if (r.outcome == NodeOutcome::kSkipped) ++report.jobs_skipped;
    report.nodes.push_back(r);
  }
  report.workflow_succeeded = report.jobs_succeeded == report.jobs_total;
  return report;
}

}  // namespace nvo::grid
