#include "analysis/survey.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <numeric>
#include <string_view>
#include <vector>

#include "common/strings.hpp"
#include "grid/threadpool.hpp"
#include "sim/cluster.hpp"
#include "sim/survey.hpp"
#include "sim/universe.hpp"
#include "votable/votable_io.hpp"

namespace nvo::analysis {

namespace {

std::size_t read_proc_status_kb(const char* key) {
  std::ifstream f("/proc/self/status");
  if (!f) return 0;
  std::string line;
  const std::string_view want(key);
  while (std::getline(f, line)) {
    if (std::string_view(line).substr(0, want.size()) != want) continue;
    std::size_t kb = 0;
    for (const char c : line) {
      if (c >= '0' && c <= '9') kb = kb * 10 + static_cast<std::size_t>(c - '0');
    }
    return kb;
  }
  return 0;
}

double wall_seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

namespace detail {

// ---------------------------------------------------------------------------
// Spill-run codec. One text line per galaxy:
//
//   <id> 1 <sb> <C> <A> <r_p> <snr> <kpc/arcsec>
//   <id> 0
//
// with each double written as its 16-hex-digit IEEE-754 bit pattern (the
// common record codec, common/strings.hpp), so the decode side reconstructs
// bit-identical values and the streamed catalog renders byte-identically to
// the in-memory concat_results path.
// ---------------------------------------------------------------------------

void encode_run_line(const core::GalMorphResult& r, std::string& out) {
  out += r.galaxy_id;
  if (!r.params.valid) {
    out += " 0\n";
    return;
  }
  out += " 1 ";
  append_hex_double(out, r.params.surface_brightness);
  out.push_back(' ');
  append_hex_double(out, r.params.concentration);
  out.push_back(' ');
  append_hex_double(out, r.params.asymmetry);
  out.push_back(' ');
  append_hex_double(out, r.params.petrosian_r);
  out.push_back(' ');
  append_hex_double(out, r.params.snr);
  out.push_back(' ');
  append_hex_double(out, r.kpc_per_arcsec);
  out.push_back('\n');
}

/// Decodes one run line into a reusable 8-cell catalog row (same column
/// order as core::concat_results). The id cell recycles its string storage,
/// so steady-state decoding performs zero heap allocations.
bool decode_run_line(const std::string& line, votable::Row& row) {
  using votable::DataType;
  using votable::Value;
  if (row.size() != 8) row.resize(8);
  const std::string_view s(line);
  const std::size_t sp = s.find(' ');
  if (sp == std::string_view::npos || sp + 1 >= s.size()) return false;
  if (!row[0].assign_parse(s.substr(0, sp), DataType::kString).ok()) return false;
  const bool valid = s[sp + 1] == '1';
  row[1] = Value::of_bool(valid);
  if (!valid) {
    for (std::size_t c = 2; c < 8; ++c) row[c] = Value();
    return true;
  }
  std::size_t pos = sp + 3;  // past " 1 "
  for (std::size_t c = 2; c < 8; ++c) {
    if (pos + 16 > s.size()) return false;
    double v = 0.0;
    if (!parse_hex_double(s.substr(pos, 16), v)) return false;
    row[c] = Value::of_double(v);
    pos += 17;  // 16 hex digits + separator
  }
  return true;
}

}  // namespace detail

namespace {

// ---------------------------------------------------------------------------
// Sorted runs and the k-way merge.
// ---------------------------------------------------------------------------

/// One id-sorted run, either spilled to a file or held as a string.
struct Run {
  std::string path;  ///< file-backed when non-empty
  std::string data;  ///< in-memory otherwise
};

/// Streaming reader over one run; the line buffer is reused across records.
struct RunSource {
  std::ifstream file;
  const std::string* mem = nullptr;
  std::size_t pos = 0;
  std::string line;

  bool open(const Run& run) {
    if (!run.path.empty()) {
      file.open(run.path, std::ios::binary);
      return static_cast<bool>(file);
    }
    mem = &run.data;
    pos = 0;
    return true;
  }

  bool advance() {
    if (mem) {
      if (pos >= mem->size()) return false;
      const std::size_t nl = mem->find('\n', pos);
      const std::size_t end = nl == std::string::npos ? mem->size() : nl;
      line.assign(*mem, pos, end - pos);
      pos = end + 1;
    } else if (!std::getline(file, line)) {
      return false;
    }
    return !line.empty();
  }

  std::string_view id() const {
    const std::string_view s(line);
    return s.substr(0, s.find(' '));
  }
};

/// The shared k-way loop over already-opened sources: hands each record's
/// line to `sink` in ascending id order. The heap holds source indices;
/// every comparison reads the id prefix of a reused line buffer, so the
/// loop itself never allocates once the buffers have grown to their
/// steady-state capacity.
Status merge_opened_sources(std::vector<RunSource>& sources,
                            const std::function<void(const std::string&)>& sink) {
  std::vector<std::size_t> heap;
  heap.reserve(sources.size());
  for (std::size_t i = 0; i < sources.size(); ++i) {
    if (sources[i].advance()) heap.push_back(i);
  }
  const auto later = [&sources](std::size_t a, std::size_t b) {
    return sources[a].id() > sources[b].id();  // min-heap on id
  };
  std::make_heap(heap.begin(), heap.end(), later);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    const std::size_t i = heap.back();
    sink(sources[i].line);
    if (sources[i].advance()) {
      std::push_heap(heap.begin(), heap.end(), later);
    } else {
      heap.pop_back();
    }
  }
  return Status::Ok();
}

Status merge_runs(const std::vector<const Run*>& runs,
                  const std::function<void(const std::string&)>& sink) {
  std::vector<RunSource> sources(runs.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (!sources[i].open(*runs[i])) {
      return Error(ErrorCode::kIoError, "cannot open spill run " + runs[i]->path);
    }
  }
  return merge_opened_sources(sources, sink);
}

}  // namespace

namespace detail {

Status merge_encoded_runs(const std::vector<const std::string*>& runs,
                          const std::function<void(const std::string&)>& sink) {
  std::vector<RunSource> sources(runs.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    sources[i].mem = runs[i];
    sources[i].pos = 0;
  }
  return merge_opened_sources(sources, sink);
}

}  // namespace detail

std::size_t process_vm_rss_kb() { return read_proc_status_kb("VmRSS:"); }
std::size_t process_vm_hwm_kb() { return read_proc_status_kb("VmHWM:"); }

namespace {

/// Realizes one cluster and measures every member: synthesis -> morphology
/// kernel -> result slot, optionally fanned out across the pool (slots are
/// disjoint, so the parallel path is deterministic). Results land unsorted.
void compute_cluster(const SurveyConfig& config, const sim::ClusterSpec& spec,
                     grid::ThreadPool* pool,
                     std::vector<core::GalMorphResult>& results) {
  const sim::Cluster cluster =
      sim::generate_cluster(spec, config.args.cosmology());
  results.resize(cluster.galaxies.size());
  const auto measure_one = [&](std::size_t i) {
    const sim::GalaxyTruth& g = cluster.galaxies[i];
    const image::FitsFile fits = sim::synthesize_galaxy_cutout(
        cluster, g, config.cutout_size, config.render, config.seed,
        config.corruption_rate);
    core::GalMorphArgs args = config.args;
    args.redshift = g.redshift;
    results[i] = core::run_gal_morph(g.id, fits, args);
  };
  if (pool != nullptr) {
    grid::parallel_for(*pool, cluster.galaxies.size(), measure_one);
  } else {
    for (std::size_t i = 0; i < cluster.galaxies.size(); ++i) measure_one(i);
  }
}

Status write_run_file(const std::string& path, const std::string& data) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return Error(ErrorCode::kIoError, "cannot write spill run " + path);
  f.write(data.data(), static_cast<std::streamsize>(data.size()));
  if (!f) return Error(ErrorCode::kIoError, "short write on spill run " + path);
  return Status::Ok();
}

}  // namespace

Expected<SurveyReport> Survey::run() {
  SurveyReport report;
  report.vm_rss_start_kb = process_vm_rss_kb();
  report.catalog_path = config_.catalog_path;

  const sim::SurveySpec spec{config_.seed, config_.target_galaxies};
  const std::vector<sim::ClusterSpec> specs = sim::survey_cluster_specs(spec);
  report.clusters = specs.size();

  std::unique_ptr<grid::ThreadPool> pool;
  if (config_.compute_threads > 1) {
    pool = std::make_unique<grid::ThreadPool>(config_.compute_threads);
  }

  // Phase 1: one id-sorted run per cluster. Memory high-water here is one
  // cluster's truth records + results + encoded run, not the survey.
  auto t0 = std::chrono::steady_clock::now();
  std::vector<Run> runs;
  runs.reserve(specs.size());
  std::vector<core::GalMorphResult> results;
  std::vector<std::size_t> order;
  std::string encoded;
  std::size_t spill_seq = 0;
  for (const sim::ClusterSpec& cluster_spec : specs) {
    compute_cluster(config_, cluster_spec, pool.get(), results);
    report.galaxies += results.size();
    for (const core::GalMorphResult& r : results) {
      (r.params.valid ? report.valid : report.invalid) += 1;
    }
    order.resize(results.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return results[a].galaxy_id < results[b].galaxy_id;
    });
    encoded.clear();
    for (const std::size_t i : order) detail::encode_run_line(results[i], encoded);
    report.spill_bytes += encoded.size();
    Run run;
    if (!config_.scratch_dir.empty()) {
      run.path = config_.scratch_dir + "/" + config_.table_name + "_" +
                 format("%05zu", spill_seq++) + ".run";
      if (const Status s = write_run_file(run.path, encoded); !s.ok()) {
        return s.error();
      }
    } else {
      run.data = encoded;
    }
    runs.push_back(std::move(run));
  }
  report.spill_runs = runs.size();
  report.compute_seconds = wall_seconds_since(t0);

  // Phase 2: hierarchical k-way merge. Levels deeper than merge_fan_in
  // first collapse batches into intermediate runs; the final level streams
  // straight into the VOTable serializer.
  t0 = std::chrono::steady_clock::now();
  const std::size_t fan_in = std::max<std::size_t>(2, config_.merge_fan_in);
  std::vector<std::string> cleanup;
  for (const Run& r : runs) {
    if (!r.path.empty()) cleanup.push_back(r.path);
  }
  while (runs.size() > fan_in) {
    std::vector<Run> next;
    next.reserve(runs.size() / fan_in + 1);
    for (std::size_t begin = 0; begin < runs.size(); begin += fan_in) {
      const std::size_t end = std::min(runs.size(), begin + fan_in);
      std::vector<const Run*> batch;
      batch.reserve(end - begin);
      for (std::size_t i = begin; i < end; ++i) batch.push_back(&runs[i]);
      Run merged;
      std::string buffer;
      const Status s = merge_runs(batch, [&buffer](const std::string& line) {
        buffer += line;
        buffer.push_back('\n');
      });
      if (!s.ok()) return s.error();
      report.spill_bytes += buffer.size();
      if (!config_.scratch_dir.empty()) {
        merged.path = config_.scratch_dir + "/" + config_.table_name + "_" +
                      format("%05zu", spill_seq++) + ".run";
        if (const Status w = write_run_file(merged.path, buffer); !w.ok()) {
          return w.error();
        }
        cleanup.push_back(merged.path);
      } else {
        merged.data = std::move(buffer);
      }
      next.push_back(std::move(merged));
    }
    runs = std::move(next);
  }

  // Final merge: decode each record into a reused row and stream it through
  // the incremental VOTable serializer; the buffer drains to the catalog
  // file once it exceeds the flush threshold.
  const votable::Table schema = core::concat_results({}, config_.table_name);
  std::ofstream catalog_file;
  const bool to_file = !config_.catalog_path.empty();
  if (to_file) {
    catalog_file.open(config_.catalog_path, std::ios::binary | std::ios::trunc);
    if (!catalog_file) {
      return Error(ErrorCode::kIoError,
                   "cannot write catalog " + config_.catalog_path);
    }
  }
  std::string& xml = report.catalog_xml;
  constexpr std::size_t kFlushBytes = 1 << 20;
  const auto maybe_flush = [&](bool force) {
    if (!to_file || (!force && xml.size() < kFlushBytes)) return;
    catalog_file.write(xml.data(), static_cast<std::streamsize>(xml.size()));
    xml.clear();
  };
  votable::VotableXmlStream stream;
  stream.begin(schema, xml);
  votable::Row row;
  bool decode_ok = true;
  {
    std::vector<const Run*> finals;
    finals.reserve(runs.size());
    for (const Run& r : runs) finals.push_back(&r);
    const Status s = merge_runs(finals, [&](const std::string& line) {
      if (!detail::decode_run_line(line, row)) {
        decode_ok = false;
        return;
      }
      stream.row(row, xml);
      maybe_flush(false);
    });
    if (!s.ok()) return s.error();
  }
  if (!decode_ok) {
    return Error(ErrorCode::kParseError, "corrupt spill-run record");
  }
  stream.end(xml);
  maybe_flush(true);
  if (to_file) {
    catalog_file.close();
    if (!catalog_file) {
      return Error(ErrorCode::kIoError,
                   "short write on catalog " + config_.catalog_path);
    }
  }
  for (const std::string& path : cleanup) std::remove(path.c_str());
  report.merge_seconds = wall_seconds_since(t0);
  report.vm_rss_end_kb = process_vm_rss_kb();
  report.vm_hwm_kb = process_vm_hwm_kb();
  return report;
}

Expected<SurveyReport> Survey::run_in_memory() {
  SurveyReport report;
  report.vm_rss_start_kb = process_vm_rss_kb();

  const sim::SurveySpec spec{config_.seed, config_.target_galaxies};
  const std::vector<sim::ClusterSpec> specs = sim::survey_cluster_specs(spec);
  report.clusters = specs.size();

  std::unique_ptr<grid::ThreadPool> pool;
  if (config_.compute_threads > 1) {
    pool = std::make_unique<grid::ThreadPool>(config_.compute_threads);
  }

  auto t0 = std::chrono::steady_clock::now();
  std::vector<core::GalMorphResult> all;
  all.reserve(config_.target_galaxies + config_.target_galaxies / 4);
  std::vector<core::GalMorphResult> batch;
  for (const sim::ClusterSpec& cluster_spec : specs) {
    compute_cluster(config_, cluster_spec, pool.get(), batch);
    for (core::GalMorphResult& r : batch) {
      (r.params.valid ? report.valid : report.invalid) += 1;
      all.push_back(std::move(r));
    }
  }
  report.galaxies = all.size();
  std::sort(all.begin(), all.end(),
            [](const core::GalMorphResult& a, const core::GalMorphResult& b) {
              return a.galaxy_id < b.galaxy_id;
            });
  report.compute_seconds = wall_seconds_since(t0);

  t0 = std::chrono::steady_clock::now();
  const votable::Table catalog = core::concat_results(all, config_.table_name);
  votable::to_votable_xml(catalog, report.catalog_xml);
  report.merge_seconds = wall_seconds_since(t0);
  report.vm_rss_end_kb = process_vm_rss_kb();
  report.vm_hwm_kb = process_vm_hwm_kb();
  return report;
}

}  // namespace nvo::analysis
