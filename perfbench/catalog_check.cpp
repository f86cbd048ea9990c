#include <unordered_map>
#include <unordered_set>

#include "common/strings.hpp"
#include "core/galmorph.hpp"
#include "sim/universe.hpp"
#include "workloads.hpp"

namespace perfbench {

using nvo::sim::Cluster;
using nvo::sim::GalaxyTruth;
using nvo::sim::MorphType;
using nvo::votable::Table;

CatalogAudit audit_catalog(const Table& catalog, const Cluster& cluster,
                           std::uint64_t universe_seed, double corruption_rate,
                           const nvo::sim::RenderOptions& render, int cutout_size) {
  CatalogAudit audit;
  audit.expected = cluster.galaxies.size();
  std::unordered_map<std::string, const GalaxyTruth*> truth;
  for (const GalaxyTruth& g : cluster.galaxies) truth.emplace(g.id, &g);
  std::unordered_set<std::string> seen;
  for (std::size_t i = 0; i < catalog.num_rows(); ++i) {
    const auto id = catalog.cell(i, "id").as_string();
    const auto it = id ? truth.find(*id) : truth.end();
    if (it == truth.end() || !seen.insert(*id).second) {
      ++audit.unexpected;
      continue;
    }
    if (catalog.cell(i, "valid").as_bool().value_or(false)) continue;
    ++audit.invalid;
    const GalaxyTruth& g = *it->second;
    if (nvo::sim::galaxy_cutout_is_corrupted(g, universe_seed, corruption_rate)) continue;
    audit.invalid_uncorrupted.push_back(&g);
    const auto fits = nvo::sim::synthesize_galaxy_cutout(cluster, g, cutout_size, render,
                                                        universe_seed, corruption_rate);
    nvo::core::GalMorphArgs args;
    args.redshift = g.redshift;
    if (nvo::core::run_gal_morph(g.id, fits, args).params.valid) ++audit.invalid_disputed;
  }
  audit.missing = audit.expected - seen.size();
  return audit;
}

std::string describe(const CatalogAudit& audit, const std::string& cluster) {
  return nvo::format("%s: %zu members, %zu missing, %zu unexpected, %zu invalid "
                     "(%zu outside the corrupted subset, %zu of them measure valid "
                     "when re-measured directly)",
                     cluster.c_str(), audit.expected, audit.missing, audit.unexpected,
                     audit.invalid, audit.invalid_uncorrupted.size(),
                     audit.invalid_disputed);
}

void EarlyTypeScores::add(const Table& catalog, const Cluster& cluster) {
  std::unordered_map<std::string, MorphType> truth;
  for (const GalaxyTruth& g : cluster.galaxies) truth.emplace(g.id, g.type);
  for (std::size_t i = 0; i < catalog.num_rows(); ++i) {
    if (!catalog.cell(i, "valid").as_bool().value_or(false)) continue;
    const auto id = catalog.cell(i, "id").as_string();
    const auto c = catalog.cell(i, "concentration").as_double();
    const auto a = catalog.cell(i, "asymmetry").as_double();
    if (!id || !c || !a) continue;
    const auto it = truth.find(*id);
    if (it == truth.end()) continue;
    scores.push_back(*c - 4.0 * *a);
    early.push_back(it->second == MorphType::kElliptical ||
                    it->second == MorphType::kS0);
  }
}

double EarlyTypeScores::auc() const { return roc_auc(scores, early).value_or(0.0); }

}  // namespace perfbench
