// survey: the streaming analysis::Survey::run() throughput lane (no render
// cache, supersample 1, 64 px cutouts). A run repeats identical survey
// passes of kPassGalaxies until --seconds has elapsed and reports the
// median pass throughput; every pass must reproduce the first catalog.
#include <algorithm>
#include <memory>

#include "analysis/survey.hpp"
#include "common/strings.hpp"
#include "replay.hpp"
#include "sim/render_cache.hpp"
#include "sim/survey.hpp"
#include "sim/universe.hpp"
#include "votable/table_ops.hpp"
#include "votable/votable_io.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using nvo::analysis::Survey;
using nvo::analysis::SurveyConfig;
using nvo::analysis::SurveyReport;
using Scope = SpanRecorder::Scope;

constexpr std::size_t kPassGalaxies = 12000;
constexpr std::size_t kWarmupGalaxies = 400;
constexpr std::size_t kSelfCheckGalaxies = 300;
constexpr int kSetupSamples = 9;

SurveyConfig survey_config(const RunOptions& options, std::size_t galaxies,
                           std::size_t threads) {
  SurveyConfig config;
  config.seed = options.seed;
  config.target_galaxies = galaxies;
  config.compute_threads = threads;
  return config;
}

// The survey footprint's truth: every cluster the survey realizes, held in
// a Universe so the replay can also render fields and NED catalogs.
std::unique_ptr<nvo::sim::Universe> survey_truth(const SurveyConfig& config) {
  nvo::sim::UniverseConfig ucfg;
  ucfg.seed = config.seed;
  ucfg.corruption_rate = config.corruption_rate;
  ucfg.render = config.render;
  ucfg.cosmology = config.args.cosmology();
  auto universe = std::make_unique<nvo::sim::Universe>(ucfg);
  for (const nvo::sim::ClusterSpec& spec :
       nvo::sim::survey_cluster_specs({config.seed, config.target_galaxies})) {
    universe->add_cluster(spec);
  }
  return universe;
}

// Splits the survey catalog by cluster (ids are "<cluster>_G<n>") and
// audits each part against the truth.
Science audit_survey(const nvo::sim::Universe& truth, const SurveyConfig& config,
                     const SurveyReport& report, Outcome& out) {
  Science sci;
  auto table = nvo::votable::from_votable_xml(report.catalog_xml);
  for (const nvo::sim::Cluster& c : truth.clusters()) sci.galaxies += c.galaxies.size();
  if (!table.ok()) {
    out.error("survey catalog does not parse");
    sci.failures = sci.lost = sci.galaxies;
    return sci;
  }
  EarlyTypeScores scores;
  std::size_t rows_assigned = 0;
  for (const nvo::sim::Cluster& c : truth.clusters()) {
    const std::string prefix = c.name() + "_";
    nvo::votable::Table part = nvo::votable::select(*table, [&](const nvo::votable::Row& row) {
      const std::string* id = row[0].string_ref();
      return id != nullptr && id->compare(0, prefix.size(), prefix) == 0;
    });
    rows_assigned += part.num_rows();
    const CatalogAudit audit =
        audit_catalog(part, c, config.seed, config.corruption_rate,
                      config.render, config.cutout_size);
    if (audit.failures() > 0) out.error(describe(audit, c.name()));
    sci.failures += audit.failures();
    sci.lost += audit.lost();
    scores.add(part, c);
    sci.catalogs.push_back({&c, std::move(part)});
  }
  if (rows_assigned != table->num_rows()) {
    out.error(nvo::format("%zu survey rows belong to no cluster",
                          table->num_rows() - rows_assigned));
    sci.failures += table->num_rows() - rows_assigned;
    sci.lost += table->num_rows() - rows_assigned;
  }
  sci.auc = scores.auc();
  return sci;
}

// Streamed vs in-memory catalogs of a small survey must be byte-identical.
void self_check(const RunOptions& options, std::size_t threads, Outcome& out) {
  const SurveyConfig config =
      survey_config(options, kSelfCheckGalaxies, threads);
  const auto streamed = Survey(config).run();
  const auto in_memory = Survey(config).run_in_memory();
  if (!streamed.ok() || !in_memory.ok()) {
    out.error("survey self-check failed to run");
  } else if (streamed->catalog_xml != in_memory->catalog_xml) {
    out.error("streamed survey catalog differs from run_in_memory()");
  }
}

struct PassResult {
  SurveyReport report;
  double wall_s = 0.0;
};

PassResult run_pass(const SurveyConfig& config, SpanRecorder* spans, Outcome& out) {
  PassResult pass;
  const auto cache0 = nvo::sim::RenderCache::instance().stats();
  Scope root(spans, "workload", "");
  const double t0 = now_s();
  Survey survey(config);
  {
    Scope s(spans, "analysis::Survey::run", "analysis");
    auto report = survey.run();
    pass.wall_s = now_s() - t0;
    if (!report.ok()) {
      out.error("Survey::run: " + report.error().to_string());
    } else {
      pass.report = std::move(report.value());
    }
  }
  const auto cache1 = nvo::sim::RenderCache::instance().stats();
  if (cache1.hits != cache0.hits || cache1.misses != cache0.misses) {
    out.error("the survey lane touched the render cache");
  }
  return pass;
}

}  // namespace

Outcome run_survey(const RunOptions& options) {
  Outcome out;
  // One core stays free for the rest of the host: on a fully subscribed
  // machine any other load stalls a parallel_for on its slowest worker,
  // which made throughput spread ~2x wider across runs.
  const std::size_t threads = std::clamp(options.nproc - 1, 1u, 4u);
  const SurveyConfig config = survey_config(options, kPassGalaxies, threads);
  out.note(nvo::format("survey: seed %llu, %zu-galaxy passes, compute_threads %zu, "
                       "%d px cutouts, supersample %d, in-memory spill runs",
                       static_cast<unsigned long long>(options.seed), kPassGalaxies,
                       threads, config.cutout_size, config.render.supersample));

  // Set-up: realize the footprint's truth and run one short warm-up survey
  // (thread pool start, kernel workspaces, allocator). Median of samples.
  std::vector<double> setup_s;
  std::unique_ptr<nvo::sim::Universe> truth;
  for (int i = 0; i < kSetupSamples; ++i) {
    const double t0 = now_s();
    truth = survey_truth(config);
    const auto warm = Survey(survey_config(options, kWarmupGalaxies, threads)).run();
    setup_s.push_back(now_s() - t0);
    if (!warm.ok()) out.error("warm-up survey failed");
  }
  self_check(options, threads, out);

  if (options.trace) {
    const PassResult untraced = run_pass(config, nullptr, out);
    const PassResult traced = run_pass(config, &out.spans, out);
    if (fnv1a(traced.report.catalog_xml) != fnv1a(untraced.report.catalog_xml)) {
      out.error("survey catalog differs between the traced and untraced runs");
    }
    const PassResult single =
        run_pass(survey_config(options, kPassGalaxies, 1), nullptr, out);
    if (fnv1a(single.report.catalog_xml) != fnv1a(untraced.report.catalog_xml)) {
      out.error("survey catalog differs between 1 and N threads");
    }
    Science sci = audit_survey(*truth, config, traced.report, out);
    out.attempted = sci.galaxies;
    out.failed = sci.failures;
    const SurveyReport& r = traced.report;
    out.set("analysis.survey.compute_s", r.compute_seconds, "s");
    out.set("analysis.survey.merge_s", r.merge_seconds, "s");
    out.set("analysis.survey.spill_mb", r.spill_bytes / 1e6, "MB");
    out.set("analysis.survey.thread_efficiency",
            single.wall_s / (static_cast<double>(threads) * untraced.wall_s), "ratio");
    out.set("sim.render_cache.hits", 0.0, "count");
    out.set("sim.render_cache.misses", 0.0, "count");

    set_obs_metrics(traced.wall_s, untraced.wall_s, out);

    ReplayInputs replay;
    replay.universe = truth.get();
    replay.cutout_size = config.cutout_size;
    replay.render = config.render;
    replay.universe_seed = config.seed;
    replay.corruption_rate = config.corruption_rate;
    replay.args = config.args;
    std::vector<const nvo::sim::Cluster*> clusters;
    for (const nvo::sim::Cluster& c : truth->clusters()) clusters.push_back(&c);
    replay.galaxies = sample_galaxies(clusters, 256);
    replay.field_clusters = {clusters.front(), clusters.back()};
    replay.catalogs = std::move(sci.catalogs);
    replay_layers(replay, out.spans, out.metrics);
    out.note(nvo::format("trace: untraced %.3f s, traced %.3f s, 1 thread %.3f s",
                         untraced.wall_s, traced.wall_s, single.wall_s));
    return out;
  }

  std::vector<double> rates;
  double wall_s = 0.0;
  std::uint64_t first_digest = 0;
  Science sci;
  while (rates.empty() || wall_s < options.seconds) {
    const PassResult pass = run_pass(config, nullptr, out);
    wall_s += pass.wall_s;
    rates.push_back(pass.report.galaxies / pass.wall_s);
    const std::uint64_t digest = fnv1a(pass.report.catalog_xml);
    if (rates.size() == 1) {
      first_digest = digest;
      sci = audit_survey(*truth, config, pass.report, out);
    } else if (digest != first_digest) {
      out.error("survey catalog differs between identical passes");
    }
  }
  // Every pass reproduced the audited first catalog (digest check above).
  out.attempted = sci.galaxies * rates.size();
  out.failed = sci.failures * rates.size();
  out.set_setup(setup_s);
  out.set("galaxies_per_s", median(rates), "1/s");
  out.set("peak_rss_mb", peak_rss_mb(), "MB");
  out.set("early_auc", sci.auc, "ratio");
  out.set("success_ratio",
          sci.galaxies == 0 ? 0.0 : 1.0 - static_cast<double>(sci.lost) / sci.galaxies,
          "ratio");
  out.note(nvo::format("survey: %zu passes of %zu galaxies in %.3f s wall; %zu "
                       "galaxies without a measurement outside the corrupted subset",
                       rates.size(), sci.galaxies, wall_s, sci.lost));
  return out;
}

}  // namespace perfbench
