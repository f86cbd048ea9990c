// Pipelined dataflow executor invariants. The tentpole guarantee: switching
// the compute service from phase-barriered execution to event-driven
// dataflow (stage-in overlapped with kernels, ready-on-data DAG dispatch,
// incremental catalog merge) changes the simulated timeline and nothing
// else — catalogs are byte-identical in every completion order, under
// chaos, and across kill/resume; and under injected fetch latency the
// overlap buys real simulated throughput.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <numeric>
#include <optional>
#include <random>
#include <thread>
#include <vector>

#include "analysis/campaign.hpp"
#include "common/rng.hpp"
#include "core/galmorph.hpp"
#include "grid/dagman.hpp"
#include "grid/threadpool.hpp"
#include "portal/streaming_merge.hpp"
#include "services/federation.hpp"
#include "votable/votable_io.hpp"

namespace nvo::analysis {
namespace {

CampaignConfig small_config(portal::ExecutionMode mode,
                            std::uint64_t seed = 20031115) {
  CampaignConfig config;
  config.seed = seed;
  config.population_scale = 0.03;  // clusters of ~8-17 members
  config.compute_threads = 2;
  config.execution_mode = mode;
  return config;
}

/// Sum of the compute service's end-to-end simulated request latencies
/// across the campaign (fetch + makespan when barriered; the overlapped
/// makespan when pipelined).
double service_sim_seconds(Campaign& campaign, const CampaignReport& report) {
  double total = 0.0;
  for (const ClusterOutcome& c : report.clusters) {
    const portal::ServiceTrace* t =
        campaign.compute_service().trace(c.portal_trace.compute_request_id);
    if (t) total += t->total_sim_seconds;
  }
  return total;
}

// ---------------------------------------------------------------------------
// Byte identity: pipelined vs barriered
// ---------------------------------------------------------------------------

TEST(Dataflow, PipelinedCatalogsAreByteIdenticalToBarriered) {
  Campaign barriered(small_config(portal::ExecutionMode::kBarriered));
  Campaign pipelined(small_config(portal::ExecutionMode::kPipelined));

  auto rb = barriered.run();
  auto rp = pipelined.run();
  ASSERT_TRUE(rb.ok()) << rb.error().to_string();
  ASSERT_TRUE(rp.ok()) << rp.error().to_string();

  ASSERT_EQ(rb->clusters.size(), rp->clusters.size());
  for (std::size_t i = 0; i < rb->clusters.size(); ++i) {
    EXPECT_EQ(rb->clusters[i].name, rp->clusters[i].name);
    ASSERT_FALSE(rb->clusters[i].catalog_xml.empty());
    EXPECT_EQ(rb->clusters[i].catalog_xml, rp->clusters[i].catalog_xml)
        << rb->clusters[i].name;
  }

  // Overlap can only help: the pipelined end-to-end window is bounded by
  // the barriered one (equal when fetches are instantaneous).
  EXPECT_LE(service_sim_seconds(pipelined, rp.value()),
            service_sim_seconds(barriered, rb.value()) + 1e-9);
}

TEST(Dataflow, ByteIdentityHoldsAcrossSeeds) {
  for (const std::uint64_t seed : {7ull, 40961024ull}) {
    Campaign barriered(small_config(portal::ExecutionMode::kBarriered, seed));
    Campaign pipelined(small_config(portal::ExecutionMode::kPipelined, seed));
    auto rb = barriered.run();
    auto rp = pipelined.run();
    ASSERT_TRUE(rb.ok()) << rb.error().to_string();
    ASSERT_TRUE(rp.ok()) << rp.error().to_string();
    ASSERT_EQ(rb->clusters.size(), rp->clusters.size());
    for (std::size_t i = 0; i < rb->clusters.size(); ++i) {
      EXPECT_EQ(rb->clusters[i].catalog_xml, rp->clusters[i].catalog_xml)
          << "seed " << seed << " cluster " << rb->clusters[i].name;
    }
  }
}

// ---------------------------------------------------------------------------
// Overlap gain under injected fetch latency
// ---------------------------------------------------------------------------

TEST(Dataflow, BrownoutLatencyOverlapsWithKernelTime) {
  // A sustained brownout on the cutout archive adds latency to every
  // stage-in fetch. Barriered execution serializes that latency in front of
  // the DAG; pipelined execution overlaps fetches with each other (the
  // stage-in window) and with compute, so the same fault costs far less
  // simulated time — while the science stays byte-identical.
  auto browned = [](portal::ExecutionMode mode) {
    CampaignConfig config = small_config(mode);
    config.chaos.brownout(services::Federation::kMastHost,
                          /*bandwidth_factor=*/1.0,
                          /*extra_latency_ms=*/250.0, 0.0, 1e15);
    return config;
  };
  Campaign barriered(browned(portal::ExecutionMode::kBarriered));
  Campaign pipelined(browned(portal::ExecutionMode::kPipelined));

  auto rb = barriered.run();
  auto rp = pipelined.run();
  ASSERT_TRUE(rb.ok()) << rb.error().to_string();
  ASSERT_TRUE(rp.ok()) << rp.error().to_string();

  ASSERT_EQ(rb->clusters.size(), rp->clusters.size());
  for (std::size_t i = 0; i < rb->clusters.size(); ++i) {
    EXPECT_EQ(rb->clusters[i].catalog_xml, rp->clusters[i].catalog_xml)
        << rb->clusters[i].name;
  }

  const double barriered_s = service_sim_seconds(barriered, rb.value());
  const double pipelined_s = service_sim_seconds(pipelined, rp.value());
  ASSERT_GT(pipelined_s, 0.0);
  EXPECT_GE(barriered_s / pipelined_s, 1.3)
      << "barriered " << barriered_s << "s vs pipelined " << pipelined_s << "s";
}

// ---------------------------------------------------------------------------
// Kill/resume in pipelined mode
// ---------------------------------------------------------------------------

TEST(Dataflow, PipelinedKillResumeMatchesBarrieredReference) {
  const std::string journal_path =
      testing::TempDir() + "nvo_dataflow_resume.journal";
  std::remove(journal_path.c_str());

  // Reference: barriered, journal-free, fault-free.
  auto reference = Campaign(small_config(portal::ExecutionMode::kBarriered)).run();
  ASSERT_TRUE(reference.ok()) << reference.error().to_string();

  // Pipelined campaign killed mid-DAG; the journal holds the partial run.
  {
    CampaignConfig config = small_config(portal::ExecutionMode::kPipelined);
    config.journal_path = journal_path;
    config.chaos.kill_after_nodes(20);
    Campaign campaign(config);
    ASSERT_NE(campaign.journal(), nullptr);
    auto report = campaign.run();
    ASSERT_FALSE(report.ok()) << "the chaos kill must abort the campaign";
  }

  // Pipelined resume on the same journal: re-executes only the unfinished
  // tail, catalogs byte-identical to the barriered fault-free reference.
  CampaignConfig resume_config = small_config(portal::ExecutionMode::kPipelined);
  resume_config.journal_path = journal_path;
  Campaign resumed(resume_config);
  ASSERT_NE(resumed.journal(), nullptr);
  EXPECT_GT(resumed.journal()->stats().records_loaded, 0u);
  auto report = resumed.run();
  ASSERT_TRUE(report.ok()) << report.error().to_string();

  ASSERT_EQ(report->clusters.size(), reference->clusters.size());
  for (std::size_t i = 0; i < report->clusters.size(); ++i) {
    EXPECT_EQ(report->clusters[i].catalog_xml,
              reference->clusters[i].catalog_xml)
        << report->clusters[i].name;
  }
  EXPECT_GT(report->total_nodes_resumed + report->clusters_resumed, 0u);
  std::remove(journal_path.c_str());
}

// ---------------------------------------------------------------------------
// Barriered catalog bytes and grid-failure rows
// ---------------------------------------------------------------------------

/// Order-sensitive digest over every cluster's catalog bytes.
std::uint64_t catalogs_digest(const CampaignReport& report) {
  std::vector<std::uint64_t> digests;
  for (const ClusterOutcome& c : report.clusters) digests.push_back(hash64(c.catalog_xml));
  return hash64(reinterpret_cast<const char*>(digests.data()),
                digests.size() * sizeof(std::uint64_t));
}

CampaignConfig outage_config(portal::ExecutionMode mode) {
  CampaignConfig config = small_config(mode);
  config.chaos.site_outage("fermilab", 1.0);  // mid-DAG: jobs are in flight
  config.rescue_rounds = 0;  // no recovery: the lost pool's rows stay failed
  return config;
}

/// The catalog XML carries only the validity flag, so a grid-failure row
/// is checked against the fault-free catalog of the same galaxies: a row
/// whose `m_<id>` node the trace reports kFailed is invalid with null
/// measurements, and every other row equals its fault-free counterpart.
/// Returns how many rows the grid failure turned invalid.
std::size_t check_grid_failure_rows(Campaign& campaign, const CampaignReport& report,
                                    const CampaignReport& clean) {
  std::size_t overridden = 0;
  EXPECT_EQ(report.clusters.size(), clean.clusters.size());
  for (std::size_t c = 0; c < report.clusters.size(); ++c) {
    const ClusterOutcome& cluster = report.clusters[c];
    const portal::ServiceTrace* trace =
        campaign.compute_service().trace(cluster.portal_trace.compute_request_id);
    auto table = votable::from_votable_xml(cluster.catalog_xml);
    auto reference = votable::from_votable_xml(clean.clusters[c].catalog_xml);
    EXPECT_NE(trace, nullptr) << cluster.name;
    EXPECT_TRUE(table.ok() && reference.ok()) << cluster.name;
    if (!trace || !table.ok() || !reference.ok()) continue;
    EXPECT_EQ(table->num_rows(), reference->num_rows()) << cluster.name;
    for (std::size_t i = 0; i < table->num_rows() && i < reference->num_rows(); ++i) {
      const votable::Row& row = table->row(i);
      const votable::Row& ref = reference->row(i);
      const std::string id = row[0].as_string().value_or("");
      const grid::NodeResult* node = trace->execution.result_for("m_" + id);
      EXPECT_NE(node, nullptr) << id;
      if (!node || node->outcome != grid::NodeOutcome::kFailed) {
        EXPECT_EQ(row, ref) << cluster.name << " row " << id;
        continue;
      }
      EXPECT_EQ(row[1].as_bool(), std::optional<bool>(false)) << id;
      for (std::size_t col = 2; col < row.size(); ++col) {
        EXPECT_TRUE(row[col].is_null()) << id << " column " << col;
      }
      if (ref[1].as_bool().value_or(false)) ++overridden;
    }
  }
  return overridden;
}

// Digests recorded from the barriered executor while it still assembled its
// catalog with concat_results after the execution barrier. Both modes now
// stream rows through StreamingCatalogWriter, so these pin that the
// barriered bytes did not move. Re-recorded once, when the archive
// renderer's adaptive sub-pixel integration changed the cutouts.
TEST(Dataflow, BarrieredCatalogDigestsArePinned) {
  auto clean = Campaign(small_config(portal::ExecutionMode::kBarriered)).run();
  ASSERT_TRUE(clean.ok()) << clean.error().to_string();
  EXPECT_EQ(catalogs_digest(clean.value()), 0xde638621aa8e35b8ull);

  Campaign wounded(outage_config(portal::ExecutionMode::kBarriered));
  auto report = wounded.run();
  ASSERT_TRUE(report.ok()) << report.error().to_string();
  EXPECT_EQ(catalogs_digest(report.value()), 0x0a4b534126ac9e5dull);
}

TEST(Dataflow, GridFailedRowsMatchTheTraceInBothModes) {
  for (const portal::ExecutionMode mode :
       {portal::ExecutionMode::kBarriered, portal::ExecutionMode::kPipelined}) {
    auto clean = Campaign(small_config(mode)).run();
    ASSERT_TRUE(clean.ok()) << clean.error().to_string();
    Campaign wounded(outage_config(mode));
    auto report = wounded.run();
    ASSERT_TRUE(report.ok()) << report.error().to_string();
    EXPECT_GT(check_grid_failure_rows(wounded, report.value(), clean.value()), 0u)
        << "the outage must void some kernel-valid rows";
  }
}

// ---------------------------------------------------------------------------
// StreamingCatalogWriter: every completion order converges
// ---------------------------------------------------------------------------

core::GalMorphResult synthetic_result(std::size_t i) {
  core::GalMorphResult r;
  r.galaxy_id = "G" + std::to_string(i);
  r.redshift = 0.1 + 0.01 * static_cast<double>(i);
  r.kpc_per_arcsec = 1.5 + 0.1 * static_cast<double>(i);
  r.params.valid = i % 5 != 3;  // a few kernel-invalid rows
  if (!r.params.valid) r.params.failure_reason = "undecodable FITS";
  r.params.surface_brightness = 20.0 + 0.25 * static_cast<double>(i);
  r.params.concentration = 2.0 + 0.05 * static_cast<double>(i);
  r.params.asymmetry = 0.1 + 0.01 * static_cast<double>(i);
  r.params.petrosian_r = 8.0 + 0.5 * static_cast<double>(i);
  r.params.snr = 30.0 - 0.2 * static_cast<double>(i);
  return r;
}

TEST(Dataflow, StreamingWriterConvergesForRandomizedCompletionOrders) {
  constexpr std::size_t kRows = 41;

  // Expected bytes: the batch path with grid-failure overrides applied.
  std::vector<core::GalMorphResult> expected_rows;
  std::vector<bool> grid_failed(kRows, false);
  for (std::size_t i = 0; i < kRows; ++i) {
    expected_rows.push_back(synthetic_result(i));
    if (i % 7 == 2) grid_failed[i] = true;
  }
  for (std::size_t i = 0; i < kRows; ++i) {
    if (grid_failed[i]) {
      expected_rows[i].params.valid = false;
      expected_rows[i].params.failure_reason = "grid job failed";
    }
  }
  const std::string expected =
      votable::to_votable_xml(core::concat_results(expected_rows, "stream.vot"));

  for (const std::uint32_t seed : {1u, 2u, 3u, 17u, 99u}) {
    // Fresh (un-overridden) kernel results: the writer applies the grid
    // failure at emission time, like the service does.
    std::vector<core::GalMorphResult> rows;
    for (std::size_t i = 0; i < kRows; ++i) rows.push_back(synthetic_result(i));

    // Interleave the 2*kRows marks (kernel done, node final) in a random
    // order; the emitted document must not depend on it.
    struct Mark {
      std::size_t index;
      bool kernel;
    };
    std::vector<Mark> marks;
    for (std::size_t i = 0; i < kRows; ++i) {
      marks.push_back({i, true});
      marks.push_back({i, false});
    }
    std::shuffle(marks.begin(), marks.end(), std::mt19937(seed));

    portal::StreamingCatalogWriter writer("stream.vot", rows);
    std::size_t emitted_checkpoint = 0;
    for (const Mark& m : marks) {
      if (m.kernel) {
        writer.mark_kernel_done(m.index);
      } else {
        writer.mark_node_final(m.index, grid_failed[m.index]);
        // Idempotence: a blanket re-mark must not duplicate or flip rows.
        writer.mark_node_final(m.index, !grid_failed[m.index]);
      }
      // Progress is monotone in emitted rows.
      EXPECT_GE(writer.rows_emitted(), emitted_checkpoint);
      emitted_checkpoint = writer.rows_emitted();
    }
    EXPECT_EQ(writer.rows_emitted(), kRows);
    EXPECT_EQ(writer.finish(), expected) << "seed " << seed;
  }
}

TEST(Dataflow, StreamingWriterHandlesConcurrentKernelMarks) {
  constexpr std::size_t kRows = 64;
  std::vector<core::GalMorphResult> rows;
  std::vector<core::GalMorphResult> expected_rows;
  for (std::size_t i = 0; i < kRows; ++i) {
    rows.push_back(synthetic_result(i));
    expected_rows.push_back(synthetic_result(i));
  }
  const std::string expected =
      votable::to_votable_xml(core::concat_results(expected_rows, "conc.vot"));

  portal::StreamingCatalogWriter writer("conc.vot", rows);
  // Kernel completions race in from pool threads (out of order) while the
  // caller thread finalizes node outcomes in order — the service's actual
  // concurrency shape.
  grid::ThreadPool pool(4);
  std::vector<std::size_t> order(kRows);
  std::iota(order.begin(), order.end(), 0);
  std::shuffle(order.begin(), order.end(), std::mt19937(5));
  for (const std::size_t i : order) {
    pool.submit([&writer, i] { writer.mark_kernel_done(i); });
  }
  for (std::size_t i = 0; i < kRows; ++i) writer.mark_node_final(i, false);
  pool.wait_idle();
  EXPECT_EQ(writer.rows_emitted(), kRows);
  EXPECT_EQ(writer.finish(), expected);
}

// ---------------------------------------------------------------------------
// DagManSim ready-on-data dispatch
// ---------------------------------------------------------------------------

grid::Grid one_site_grid(int slots) {
  grid::Grid g;
  (void)g.add_site({"s", slots, 1.0, 10.0, 100.0});
  return g;
}

vds::DagNode compute_node(const std::string& id) {
  vds::DagNode n;
  n.id = id;
  n.type = vds::JobType::kCompute;
  n.site = "s";
  return n;
}

TEST(Dataflow, ReadyTimeDelaysDispatchWithoutBlockingOthers) {
  const grid::Grid g = one_site_grid(4);
  vds::Dag dag;
  (void)dag.add_node(compute_node("a"));
  (void)dag.add_node(compute_node("b"));

  grid::DagManSim dagman(g, grid::JobCostModel{}, grid::FailureModel{});
  dagman.set_ready_times({{"a", 5.0}});
  auto report = dagman.run(dag);
  ASSERT_TRUE(report.ok());
  // "a" waits for its data (ready 5.0) then runs 2.0s; "b" is unconstrained
  // and finishes at 2.0 while "a" is still waiting.
  const grid::NodeResult* a = report->result_for("a");
  const grid::NodeResult* b = report->result_for("b");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_DOUBLE_EQ(a->start_seconds, 5.0);
  EXPECT_DOUBLE_EQ(a->end_seconds, 7.0);
  EXPECT_DOUBLE_EQ(b->start_seconds, 0.0);
  EXPECT_DOUBLE_EQ(b->end_seconds, 2.0);
  EXPECT_DOUBLE_EQ(report->makespan_seconds, 7.0);
}

TEST(Dataflow, ReadyTimeComposesWithDependencyEdges) {
  const grid::Grid g = one_site_grid(4);
  vds::Dag dag;
  (void)dag.add_node(compute_node("parent"));
  (void)dag.add_node(compute_node("child"));
  (void)dag.add_edge("parent", "child");

  grid::DagManSim dagman(g, grid::JobCostModel{}, grid::FailureModel{});
  // The child's data lands after its parent finishes: it must wait for the
  // later of the two constraints.
  dagman.set_ready_times({{"child", 10.0}});
  auto report = dagman.run(dag);
  ASSERT_TRUE(report.ok());
  EXPECT_DOUBLE_EQ(report->result_for("child")->start_seconds, 10.0);
  EXPECT_DOUBLE_EQ(report->makespan_seconds, 12.0);

  // Data already there when the parent finishes: no extra wait.
  grid::DagManSim dagman2(g, grid::JobCostModel{}, grid::FailureModel{});
  dagman2.set_ready_times({{"child", 1.0}});
  auto report2 = dagman2.run(dag);
  ASSERT_TRUE(report2.ok());
  EXPECT_DOUBLE_EQ(report2->result_for("child")->start_seconds, 2.0);
  EXPECT_DOUBLE_EQ(report2->makespan_seconds, 4.0);
}

TEST(Dataflow, FailureDrawsAreScheduleInvariant) {
  // The same seed must reach the same per-node verdicts whether nodes
  // dispatch immediately (barriered) or on staggered ready times
  // (pipelined): draws are keyed per (node, draw index), not on the shared
  // event order.
  const grid::Grid g = one_site_grid(2);
  vds::Dag dag;
  for (int i = 0; i < 8; ++i) {
    (void)dag.add_node(compute_node("n" + std::to_string(i)));
  }
  grid::FailureModel failure;
  failure.compute_failure_rate = 0.4;
  failure.max_retries = 1;

  grid::DagManSim barriered(g, grid::JobCostModel{}, failure, 99);
  auto rb = barriered.run(dag);
  ASSERT_TRUE(rb.ok());

  grid::DagManSim pipelined(g, grid::JobCostModel{}, failure, 99);
  std::map<std::string, double> ready;
  for (int i = 0; i < 8; ++i) {
    ready["n" + std::to_string(i)] = 0.75 * static_cast<double>(8 - i);
  }
  pipelined.set_ready_times(std::move(ready));
  auto rp = pipelined.run(dag);
  ASSERT_TRUE(rp.ok());

  for (int i = 0; i < 8; ++i) {
    const std::string id = "n" + std::to_string(i);
    const grid::NodeResult* b = rb->result_for(id);
    const grid::NodeResult* p = rp->result_for(id);
    ASSERT_NE(b, nullptr);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(b->outcome, p->outcome) << id;
    EXPECT_EQ(b->attempts, p->attempts) << id;
  }
  EXPECT_EQ(rb->jobs_succeeded, rp->jobs_succeeded);
  EXPECT_EQ(rb->retries, rp->retries);
}

// ---------------------------------------------------------------------------
// ThreadPool: shutdown/drain hazards
// ---------------------------------------------------------------------------

TEST(Dataflow, ThreadPoolSubmitDuringDrainRunsEverything) {
  // Multiple producers hammer submit while another thread repeatedly drains
  // with wait_idle: no task may be lost to a drain/submit race (TSan lane
  // checks the synchronization; this checks the count).
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 1000;
  std::atomic<int> ran{0};
  {
    grid::ThreadPool pool(3);
    std::atomic<bool> done{false};
    std::thread drainer([&] {
      while (!done.load()) pool.wait_idle();
    });
    {
      std::vector<std::jthread> producers;
      for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&pool, &ran] {
          for (int i = 0; i < kPerProducer; ++i) {
            pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
          }
        });
      }
    }
    done.store(true);
    drainer.join();
    pool.wait_idle();
  }
  EXPECT_EQ(ran.load(), kProducers * kPerProducer);
}

TEST(Dataflow, ThreadPoolDestructorRunsTasksSubmittedByTasks) {
  // A task submitted by a running task can land after the destructor's
  // wait_idle returned and the workers were told to stop. The destructor
  // must still run it (inline drain), or its side effects — in-flight
  // counters, promised results — would be silently dropped.
  std::atomic<int> ran{0};
  {
    grid::ThreadPool pool(2);
    for (int i = 0; i < 8; ++i) {
      pool.submit([&pool, &ran] {
        ran.fetch_add(1, std::memory_order_relaxed);
        pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
      });
    }
    // Destructor runs here, possibly racing the resubmissions.
  }
  EXPECT_EQ(ran.load(), 16);
}

TEST(Dataflow, ThreadPoolIdleTimeIsMonotoneAndStableWhenParked) {
  grid::ThreadPool pool(2);
  pool.submit([] {});
  pool.wait_idle();
  const double first = pool.idle_ms();
  EXPECT_GE(first, 0.0);
  // Waking the workers again can only add parked time.
  pool.submit([] {});
  pool.wait_idle();
  const double second = pool.idle_ms();
  EXPECT_GE(second, first);
  // Stable while no work arrives: the accumulator is updated on wake.
  EXPECT_DOUBLE_EQ(pool.idle_ms(), second);
}

}  // namespace
}  // namespace nvo::analysis
