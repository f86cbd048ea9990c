// The repository benchmark's binary (built and invoked by perfbench/run.py).
//
//   perfbench --workload campaign_cold|survey|portal_load --seed N
//             --seconds S --trace 0|1 [--out-dir DIR] [--source ID]
//
// Prints a provenance line, the workload's informational lines, and as the
// last stdout line one JSON object {"correct", "attempted", "failed",
// "metrics"}: the end-to-end metrics with --trace 0, the per-layer metrics
// with --trace 1. A traced run also writes its spans to
// DIR/<workload>-seed<N>.spans.json. Exits 1 when any output check fails.
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "workloads.hpp"

namespace {

using namespace perfbench;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (run.py checks the result against it).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},        {"galaxies_per_s", "1/s"}, {"peak_rss_mb", "MB"},
    {"early_auc", "ratio"},  {"success_ratio", "ratio"},
};

// A layer a workload does not exercise reports 0 for its metrics.
constexpr MetricSpec kPerLayer[] = {
    {"sim.cutout_ms", "ms"},
    {"sim.field_ms", "ms"},
    {"sim.render_cache.hits", "count"},
    {"sim.render_cache.misses", "count"},
    {"image.fits_encode_us", "us"},
    {"image.fits_decode_us", "us"},
    {"image.fits_bytes", "bytes"},
    {"core.galmorph_ms", "ms"},
    {"core.background_us", "us"},
    {"core.segment_us", "us"},
    {"core.petrosian_us", "us"},
    {"core.asymmetry_us", "us"},
    {"core.bytes_per_galaxy", "bytes"},
    {"core.valid_ratio", "ratio"},
    {"services.fabric.requests", "count"},
    {"services.fabric.mb", "MB"},
    {"services.client.retries", "count"},
    {"services.integrity.digest_us_per_mb", "us/MB"},
    {"services.replica_cache.hit_ratio", "ratio"},
    {"services.admission.shed", "count"},
    {"votable.serialize_us", "us"},
    {"votable.parse_us", "us"},
    {"votable.join_us", "us"},
    {"vds.compose_ms", "ms"},
    {"pegasus.plan_ms", "ms"},
    {"pegasus.pruned_ratio", "ratio"},
    {"grid.pool.idle_ms", "ms"},
    {"grid.jobs", "count"},
    {"grid.sim_makespan_s", "s"},
    {"portal.staging_ms", "ms"},
    {"portal.step_us_p50", "us"},
    {"portal.step_us_p90", "us"},
    {"portal.memo_hit_ratio", "ratio"},
    {"portal.recomputes", "count"},
    {"portal.coalesced", "count"},
    {"portal.requests_per_s", "1/s"},
    {"portal.sim_latency_p50_ms", "ms"},
    {"portal.sim_latency_p90_ms", "ms"},
    {"portal.sim_latency_samples", "count"},
    {"portal.sim_goodput_per_s", "1/s"},
    {"portal.shed_ratio", "ratio"},
    {"portal.deadline_attainment", "ratio"},
    {"analysis.survey.compute_s", "s"},
    {"analysis.survey.merge_s", "s"},
    {"analysis.survey.spill_mb", "MB"},
    {"analysis.survey.thread_efficiency", "ratio"},
    {"analysis.dressler_ms", "ms"},
    {"analysis.campaign.sim_makespan_s", "s"},
    {"obs.trace_overhead_ratio", "ratio"},
    {"obs.unattributed_share", "ratio"},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload campaign_cold|survey|"
               "portal_load --seed N --seconds S --trace 0|1 [--out-dir DIR] "
               "[--source ID]\n",
               why);
  return 2;
}

unsigned usable_cpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

int simd_width_bits() {
#if defined(__AVX512F__)
  return 512;
#elif defined(__AVX__)
  return 256;
#elif defined(__SSE2__) || defined(__ARM_NEON)
  return 128;
#else
  return 0;
#endif
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  std::string out_dir;
  std::string source = "unknown";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && options.seconds > 0.0;
    } else if (arg == "--trace") {
      have_trace = value == "0" || value == "1";
      options.trace = value == "1";
    } else if (arg == "--out-dir") {
      out_dir = value;
    } else if (arg == "--source") {
      source = value;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return usage("--seed, --seconds and --trace are required");
  }

#ifndef NDEBUG
  std::fprintf(stderr,
               "perfbench: refusing to report from a build without NDEBUG "
               "(build type %s); configure with -DCMAKE_BUILD_TYPE=Release\n",
               PERFBENCH_BUILD_TYPE);
  return 3;
#endif

  options.nproc = usable_cpus();
  std::printf("provenance: source %s, nproc %u, compiler \"%s\", simd %d-bit, "
              "build %s (NDEBUG)\n",
              source.c_str(), options.nproc, __VERSION__, simd_width_bits(),
              PERFBENCH_BUILD_TYPE);

  Outcome out;
  if (options.workload == "campaign_cold") {
    out = run_campaign_cold(options);
  } else if (options.workload == "survey") {
    out = run_survey(options);
  } else if (options.workload == "portal_load") {
    out = run_portal_load(options);
  } else {
    return usage(("unknown workload '" + options.workload + "'").c_str());
  }

  Metrics metrics;
  if (options.trace) {
    for (const MetricSpec& m : kPerLayer) {
      const auto it = out.metrics.find(m.name);
      metrics[m.name] = Metric{it == out.metrics.end() ? 0.0 : it->second.value, m.unit};
    }
  } else {
    for (const MetricSpec& m : kEndToEnd) {
      const auto it = out.metrics.find(m.name);
      if (it == out.metrics.end()) out.error(std::string("metric not measured: ") + m.name);
      metrics[m.name] = Metric{it == out.metrics.end() ? 0.0 : it->second.value, m.unit};
    }
  }
  for (const auto& [name, m] : out.metrics) {
    if (!metrics.count(name)) out.error("metric not declared: " + name);
  }

  if (options.trace && !out_dir.empty()) {
    const std::string path = out_dir + "/" + options.workload + "-seed" +
                             std::to_string(options.seed) + ".spans.json";
    std::ofstream file(path, std::ios::trunc);
    file << out.spans.to_json();
    if (file) {
      out.note("spans: " + std::to_string(out.spans.records().size()) + " written to " + path);
    } else {
      out.error("cannot write " + path);
    }
  }

  for (const std::string& line : out.notes) std::printf("%s\n", line.c_str());
  if (options.trace) {
    std::printf("per-layer (0 = layer not exercised by this workload):\n");
    for (const auto& [name, m] : metrics) {
      std::printf("  %-38s %14.6g %s\n", name.c_str(), m.value, m.unit.c_str());
    }
  }
  if (out.attempted == 0) {
    out.error("the workload attempted nothing");
    out.attempted = 1;
  }
  for (const std::string& line : out.errors) std::printf("CHECK FAILED: %s\n", line.c_str());
  const bool correct = out.errors.empty() && out.failed == 0;
  std::printf("%s\n", result_json(correct, out.attempted, out.failed, metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
