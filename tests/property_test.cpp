// Property-based and parameterized sweeps over library invariants:
// serialization round-trips on randomized inputs, join algebra, DAG
// reduction invariants, morphology monotonicity, and scheduler conservation
// laws.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/rng.hpp"
#include "common/strings.hpp"
#include "core/morphology.hpp"
#include "grid/dagman.hpp"
#include "image/fits.hpp"
#include "pegasus/planner.hpp"
#include "sim/galaxy.hpp"
#include "vds/chimera.hpp"
#include "votable/table_ops.hpp"
#include "votable/votable_io.hpp"

namespace nvo {
namespace {

// ---------------------------------------------------------------------------
// FITS round-trip sweep: random images across all BITPIX values
// ---------------------------------------------------------------------------

class FitsRoundTrip : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(FitsRoundTrip, LosslessForIntegerContent) {
  const auto [bitpix, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed));
  const int w = 8 + static_cast<int>(rng.uniform_index(56));
  const int h = 8 + static_cast<int>(rng.uniform_index(56));
  image::FitsFile f;
  f.data = image::Image(w, h);
  f.bitpix = bitpix;
  // Integer content in the representable range of every bitpix.
  const double lo = bitpix == 8 ? 0.0 : -120.0;
  const double hi = bitpix == 8 ? 250.0 : 120.0;
  for (float& v : f.data.pixels()) {
    v = static_cast<float>(std::floor(rng.uniform(lo, hi)));
  }
  auto parsed = image::read_fits(image::write_fits(f));
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  ASSERT_EQ(parsed->data.width(), w);
  ASSERT_EQ(parsed->data.height(), h);
  for (std::size_t i = 0; i < f.data.size(); ++i) {
    ASSERT_FLOAT_EQ(parsed->data.pixels()[i], f.data.pixels()[i]) << "i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBitpix, FitsRoundTrip,
    ::testing::Combine(::testing::Values(-32, 32, 16, 8),
                       ::testing::Values(1, 2, 3, 4, 5)));

// ---------------------------------------------------------------------------
// VOTable round-trip sweep: randomized schemas and contents
// ---------------------------------------------------------------------------

class VoTableRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(VoTableRoundTrip, PreservesEverything) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  using votable::DataType;
  const DataType kinds[] = {DataType::kDouble, DataType::kLong, DataType::kString,
                            DataType::kBool};
  const int cols = 1 + static_cast<int>(rng.uniform_index(6));
  std::vector<votable::Field> fields;
  for (int c = 0; c < cols; ++c) {
    votable::Field f;
    f.name = "col" + std::to_string(c);
    f.datatype = kinds[rng.uniform_index(4)];
    if (rng.bernoulli(0.5)) f.unit = "deg";
    if (rng.bernoulli(0.5)) f.ucd = "pos.eq.ra;meta.main";
    fields.push_back(f);
  }
  votable::Table t(fields);
  t.name = "rand";
  const int rows = static_cast<int>(rng.uniform_index(40));
  for (int r = 0; r < rows; ++r) {
    votable::Row row;
    for (int c = 0; c < cols; ++c) {
      if (rng.bernoulli(0.15)) {
        row.emplace_back();  // null
        continue;
      }
      switch (fields[static_cast<std::size_t>(c)].datatype) {
        case DataType::kDouble:
          row.push_back(votable::Value::of_double(rng.normal(0.0, 100.0)));
          break;
        case DataType::kLong:
          row.push_back(votable::Value::of_long(
              static_cast<long long>(rng.uniform(-1e6, 1e6))));
          break;
        case DataType::kString: {
          // Include XML-hostile characters.
          std::string s = "v<&>'\"";
          s += std::to_string(rng.next_u64() % 1000);
          row.push_back(votable::Value::of_string(s));
          break;
        }
        case DataType::kBool:
          row.push_back(votable::Value::of_bool(rng.bernoulli(0.5)));
          break;
      }
    }
    ASSERT_TRUE(t.append_row(std::move(row)).ok());
  }

  auto parsed = votable::from_votable_xml(votable::to_votable_xml(t));
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  ASSERT_EQ(parsed->num_rows(), t.num_rows());
  ASSERT_EQ(parsed->num_columns(), t.num_columns());
  for (std::size_t r = 0; r < t.num_rows(); ++r) {
    for (std::size_t c = 0; c < t.num_columns(); ++c) {
      const votable::Value& orig = t.row(r)[c];
      const votable::Value& back = parsed->row(r)[c];
      if (orig.is_null()) {
        EXPECT_TRUE(back.is_null());
        continue;
      }
      switch (fields[c].datatype) {
        case DataType::kDouble:
          EXPECT_NEAR(back.as_double().value(), orig.as_double().value(),
                      std::fabs(orig.as_double().value()) * 1e-9 + 1e-12);
          break;
        default:
          EXPECT_EQ(back, orig);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VoTableRoundTrip, ::testing::Range(1, 13));

// ---------------------------------------------------------------------------
// join algebra properties
// ---------------------------------------------------------------------------

votable::Table random_keyed_table(Rng& rng, const std::string& prefix, int rows,
                                  int key_space) {
  using votable::DataType;
  votable::Table t({votable::Field{"k", DataType::kLong, "", "", ""},
                    votable::Field{prefix + "_v", DataType::kDouble, "", "", ""}});
  for (int i = 0; i < rows; ++i) {
    (void)t.append_row({votable::Value::of_long(
                            static_cast<long long>(rng.uniform_index(key_space))),
                        votable::Value::of_double(rng.uniform())});
  }
  return t;
}

class JoinProperties : public ::testing::TestWithParam<int> {};

TEST_P(JoinProperties, InnerSubsetOfLeftAndCountsConsistent) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919);
  const votable::Table l = random_keyed_table(rng, "l", 30, 10);
  const votable::Table r = random_keyed_table(rng, "r", 20, 10);
  auto inner = votable::join(l, r, "k", "k", votable::JoinKind::kInner);
  auto left = votable::join(l, r, "k", "k", votable::JoinKind::kLeft);
  ASSERT_TRUE(inner.ok());
  ASSERT_TRUE(left.ok());
  // Left join row count = inner rows + unmatched left rows.
  std::set<std::string> right_keys;
  for (std::size_t i = 0; i < r.num_rows(); ++i) {
    right_keys.insert(r.row(i)[0].to_text());
  }
  std::size_t unmatched = 0;
  for (std::size_t i = 0; i < l.num_rows(); ++i) {
    if (!right_keys.count(l.row(i)[0].to_text())) ++unmatched;
  }
  EXPECT_EQ(left->num_rows(), inner->num_rows() + unmatched);
  EXPECT_GE(left->num_rows(), l.num_rows());  // left join never loses rows
  // Brute-force inner count: sum over pairs with equal keys.
  std::size_t brute = 0;
  for (std::size_t i = 0; i < l.num_rows(); ++i) {
    for (std::size_t j = 0; j < r.num_rows(); ++j) {
      if (l.row(i)[0].to_text() == r.row(j)[0].to_text()) ++brute;
    }
  }
  EXPECT_EQ(inner->num_rows(), brute);
}

TEST_P(JoinProperties, SelfJoinOnUniqueKeyIsIdentitySized) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729);
  using votable::DataType;
  votable::Table t({votable::Field{"k", DataType::kLong, "", "", ""},
                    votable::Field{"v", DataType::kDouble, "", "", ""}});
  const int n = 5 + static_cast<int>(rng.uniform_index(20));
  for (int i = 0; i < n; ++i) {
    (void)t.append_row(
        {votable::Value::of_long(i), votable::Value::of_double(rng.uniform())});
  }
  auto j = votable::join(t, t, "k", "k", votable::JoinKind::kInner);
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(j->num_rows(), t.num_rows());
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinProperties, ::testing::Range(1, 9));

// ---------------------------------------------------------------------------
// DAG reduction invariants on random workflows
// ---------------------------------------------------------------------------

struct RandomWorkflow {
  vds::Dag dag;
  std::vector<std::string> files;
};

RandomWorkflow random_workflow(Rng& rng, int layers, int width) {
  vds::VirtualDataCatalog vdc;
  vds::Transformation tr;
  tr.name = "t";
  tr.args = {{"input", vds::Direction::kIn}, {"output", vds::Direction::kOut}};
  (void)vdc.define_transformation(tr);
  RandomWorkflow out;
  std::vector<std::string> prev_layer{"raw"};
  std::vector<std::string> finals;
  int counter = 0;
  for (int layer = 0; layer < layers; ++layer) {
    std::vector<std::string> this_layer;
    const int n = 1 + static_cast<int>(rng.uniform_index(width));
    for (int i = 0; i < n; ++i) {
      const std::string in = prev_layer[rng.uniform_index(prev_layer.size())];
      const std::string file = "f" + std::to_string(counter);
      vds::Derivation d;
      d.name = "d" + std::to_string(counter);
      ++counter;
      d.transformation = "t";
      d.bindings["input"] = vds::ActualArg{true, in, vds::Direction::kIn};
      d.bindings["output"] = vds::ActualArg{true, file, vds::Direction::kOut};
      EXPECT_TRUE(vdc.define_derivation(d).ok());
      this_layer.push_back(file);
      out.files.push_back(file);
    }
    prev_layer = this_layer;
  }
  finals = prev_layer;
  out.dag = vds::compose_abstract_workflow(vdc, finals).value();
  return out;
}

class ReductionProperties : public ::testing::TestWithParam<int> {};

TEST_P(ReductionProperties, ReducedIsSubsetAndMonotone) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31337);
  RandomWorkflow wf = random_workflow(rng, 4, 4);

  grid::Grid g = grid::make_paper_grid();
  pegasus::ReplicaLocationService rls;
  pegasus::TransformationCatalog tc;
  (void)tc.add({"t", "isi", "/bin/t", {}});
  rls.add("raw", "isi", "p");

  // Register a random subset of intermediate files as replicas.
  std::size_t registered = 0;
  for (const std::string& f : wf.files) {
    if (rng.bernoulli(0.4)) {
      rls.add(f, "isi", "p");
      ++registered;
    }
  }
  pegasus::Planner planner(g, rls, tc, pegasus::PlannerConfig{}, 1);
  auto reduced = planner.reduce(wf.dag);
  ASSERT_TRUE(reduced.ok());
  // Invariant 1: subset of the abstract workflow.
  EXPECT_LE(reduced->num_nodes(), wf.dag.num_nodes());
  for (const std::string& id : reduced->node_ids()) {
    EXPECT_TRUE(wf.dag.has_node(id));
  }
  // Invariant 2: the reduced workflow is still a DAG and feasible.
  EXPECT_TRUE(reduced->topological_order().ok());
  EXPECT_TRUE(planner.check_feasibility(reduced.value()).ok());
  // Invariant 3: every kept node produces something not in the RLS.
  for (const std::string& id : reduced->node_ids()) {
    bool produces_missing = false;
    for (const std::string& f : reduced->node(id)->outputs) {
      if (!rls.exists(f)) produces_missing = true;
    }
    EXPECT_TRUE(produces_missing) << id;
  }
  // Invariant 4: registering everything prunes everything.
  for (const std::string& f : wf.files) rls.add(f, "isi", "p");
  auto fully = planner.reduce(wf.dag);
  ASSERT_TRUE(fully.ok());
  EXPECT_EQ(fully->num_nodes(), 0u);
}

TEST_P(ReductionProperties, PlanNodeConservation) {
  // compute + transfer + register node counts always add up to the DAG.
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 65537);
  RandomWorkflow wf = random_workflow(rng, 3, 3);
  grid::Grid g = grid::make_paper_grid();
  pegasus::ReplicaLocationService rls;
  pegasus::TransformationCatalog tc;
  for (const std::string& site : g.site_names()) (void)tc.add({"t", site, "/t", {}});
  rls.add("raw", "fermilab", "p");
  pegasus::Planner planner(g, rls, tc, pegasus::PlannerConfig{}, 9);
  auto plan = planner.plan(wf.dag);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->compute_nodes + plan->transfer_nodes + plan->register_nodes,
            plan->concrete.num_nodes());
  EXPECT_EQ(plan->compute_nodes + plan->pruned_jobs, plan->abstract_jobs);
  EXPECT_TRUE(plan->concrete.topological_order().ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReductionProperties, ::testing::Range(1, 9));

// ---------------------------------------------------------------------------
// scheduler conservation: jobs in = jobs accounted
// ---------------------------------------------------------------------------

class SchedulerProperties : public ::testing::TestWithParam<int> {};

TEST_P(SchedulerProperties, EveryJobAccountedExactlyOnce) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 2654435761u);
  RandomWorkflow wf = random_workflow(rng, 4, 5);
  grid::Grid g = grid::make_paper_grid();
  // Random site assignment + random failures.
  const auto sites = g.site_names();
  vds::Dag dag = wf.dag;
  for (const std::string& id : dag.node_ids()) {
    dag.mutable_node(id)->site = sites[rng.uniform_index(sites.size())];
  }
  grid::FailureModel failure;
  failure.compute_failure_rate = 0.2;
  failure.max_retries = 1;
  grid::DagManSim dagman(g, grid::JobCostModel{}, failure,
                         static_cast<std::uint64_t>(GetParam()));
  auto report = dagman.run(dag);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->jobs_succeeded + report->jobs_failed + report->jobs_skipped,
            report->jobs_total);
  EXPECT_EQ(report->nodes.size(), dag.num_nodes());
  // Makespan >= the longest single job; site busy time <= slots * makespan.
  for (const auto& [site, busy] : report->site_busy_seconds) {
    EXPECT_LE(busy, g.site(site)->slots * report->makespan_seconds + 1e-9);
  }
  // A skipped node has at least one non-succeeded ancestor.
  for (const grid::NodeResult& r : report->nodes) {
    if (r.outcome != grid::NodeOutcome::kSkipped) continue;
    bool found_failed_ancestor = false;
    std::vector<std::string> frontier = dag.parents(r.id);
    std::set<std::string> seen;
    while (!frontier.empty()) {
      const std::string p = frontier.back();
      frontier.pop_back();
      if (!seen.insert(p).second) continue;
      const grid::NodeResult* pr = report->result_for(p);
      if (pr->outcome != grid::NodeOutcome::kSucceeded) found_failed_ancestor = true;
      for (const std::string& gp : dag.parents(p)) frontier.push_back(gp);
    }
    EXPECT_TRUE(found_failed_ancestor) << r.id;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerProperties, ::testing::Range(1, 9));

// ---------------------------------------------------------------------------
// VDL print/parse round trip on randomized documents
// ---------------------------------------------------------------------------

class VdlRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(VdlRoundTrip, PrintedDocumentsReparseIdentically) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 48271);
  // Random transformation set.
  std::vector<vds::Transformation> trs;
  const int num_trs = 1 + static_cast<int>(rng.uniform_index(3));
  for (int t = 0; t < num_trs; ++t) {
    vds::Transformation tr;
    tr.name = "tr" + std::to_string(t);
    const int scalars = static_cast<int>(rng.uniform_index(4));
    for (int a = 0; a < scalars; ++a) {
      tr.args.push_back({"p" + std::to_string(a), vds::Direction::kIn});
    }
    const int inputs = 1 + static_cast<int>(rng.uniform_index(3));
    for (int a = 0; a < inputs; ++a) {
      tr.args.push_back({"in" + std::to_string(a), vds::Direction::kIn});
    }
    tr.args.push_back({"result", vds::Direction::kOut});
    trs.push_back(std::move(tr));
  }
  // Random derivations over them.
  std::vector<vds::Derivation> dvs;
  int file_counter = 0;
  const int num_dvs = 1 + static_cast<int>(rng.uniform_index(6));
  for (int d = 0; d < num_dvs; ++d) {
    const vds::Transformation& tr = trs[rng.uniform_index(trs.size())];
    vds::Derivation dv;
    dv.name = "dv" + std::to_string(d);
    dv.transformation = tr.name;
    for (const vds::FormalArg& formal : tr.args) {
      vds::ActualArg actual;
      if (formal.direction == vds::Direction::kOut) {
        actual.is_file = true;
        actual.direction = vds::Direction::kOut;
        actual.value = "file-" + std::to_string(file_counter++) + ".out";
      } else if (formal.name.substr(0, 2) == "in") {
        actual.is_file = true;
        actual.direction = vds::Direction::kIn;
        actual.value = "raw_" + std::to_string(rng.uniform_index(5)) + ".fit";
      } else {
        actual.is_file = false;
        actual.value = format("%.6g", rng.uniform(-100.0, 100.0));
      }
      dv.bindings[formal.name] = std::move(actual);
    }
    dvs.push_back(std::move(dv));
  }

  // Print the document and re-parse it.
  std::string text;
  for (const auto& tr : trs) text += vds::to_vdl(tr) + "\n";
  for (const auto& dv : dvs) text += vds::to_vdl(dv) + "\n";
  auto doc = vds::parse_vdl(text);
  ASSERT_TRUE(doc.ok()) << doc.error().to_string() << "\n" << text;
  ASSERT_EQ(doc->transformations.size(), trs.size());
  ASSERT_EQ(doc->derivations.size(), dvs.size());
  for (std::size_t t = 0; t < trs.size(); ++t) {
    EXPECT_EQ(doc->transformations[t].name, trs[t].name);
    ASSERT_EQ(doc->transformations[t].args.size(), trs[t].args.size());
    for (std::size_t a = 0; a < trs[t].args.size(); ++a) {
      EXPECT_EQ(doc->transformations[t].args[a].name, trs[t].args[a].name);
      EXPECT_EQ(doc->transformations[t].args[a].direction,
                trs[t].args[a].direction);
    }
  }
  for (std::size_t d = 0; d < dvs.size(); ++d) {
    const vds::Derivation& orig = dvs[d];
    const vds::Derivation& back = doc->derivations[d];
    EXPECT_EQ(back.name, orig.name);
    EXPECT_EQ(back.transformation, orig.transformation);
    ASSERT_EQ(back.bindings.size(), orig.bindings.size());
    for (const auto& [formal, actual] : orig.bindings) {
      ASSERT_TRUE(back.bindings.count(formal)) << formal;
      const vds::ActualArg& b = back.bindings.at(formal);
      EXPECT_EQ(b.is_file, actual.is_file);
      EXPECT_EQ(b.value, actual.value);
      if (actual.is_file) {
        EXPECT_EQ(b.direction, actual.direction);
      }
    }
    EXPECT_EQ(back.input_files(), orig.input_files());
    EXPECT_EQ(back.output_files(), orig.output_files());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VdlRoundTrip, ::testing::Range(1, 13));

// ---------------------------------------------------------------------------
// morphology invariances
// ---------------------------------------------------------------------------

class MorphologyInvariance : public ::testing::TestWithParam<int> {};

TEST_P(MorphologyInvariance, FluxScaleInvariantIndices) {
  // Concentration and asymmetry are flux-ratio statistics: scaling the
  // image (noise-free) must not change them.
  sim::GalaxyTruth g;
  g.id = "INV" + std::to_string(GetParam());
  g.seed = hash64(g.id);
  g.sersic_n = 1.0 + 0.5 * GetParam();
  g.r_e_pix = 4.0;
  g.total_flux = 5e4;
  g.arm_amplitude = GetParam() % 2 ? 0.4 : 0.0;
  sim::RenderOptions opts;
  opts.poisson_noise = false;
  opts.read_noise = 0.0;
  opts.sky_level = 0.0;
  image::Image img = sim::render_galaxy(g, 64, opts);
  image::Image scaled = img;
  scaled.scale(3.0f);
  const auto a = core::measure_morphology(img);
  const auto b = core::measure_morphology(scaled);
  ASSERT_TRUE(a.valid) << a.failure_reason;
  ASSERT_TRUE(b.valid) << b.failure_reason;
  EXPECT_NEAR(a.concentration, b.concentration, 0.05);
  EXPECT_NEAR(a.asymmetry, b.asymmetry, 0.02);
  // Surface brightness shifts by -2.5 log10(3).
  EXPECT_NEAR(b.surface_brightness - a.surface_brightness, -2.5 * std::log10(3.0),
              0.05);
}

TEST_P(MorphologyInvariance, RotationInvariantIndices) {
  // Rotating the galaxy's position angle must not change C or A much.
  sim::RenderOptions opts;
  opts.poisson_noise = false;
  opts.read_noise = 0.0;
  opts.sky_level = 0.0;
  sim::GalaxyTruth g;
  g.id = "ROT";
  g.seed = hash64(g.id);
  g.sersic_n = 4.0;
  g.axis_ratio = 0.6;
  g.r_e_pix = 4.0;
  g.total_flux = 5e4;
  g.position_angle_rad = 0.0;
  const auto a = core::measure_morphology(sim::render_galaxy(g, 64, opts));
  g.position_angle_rad = 0.3 * GetParam();
  const auto b = core::measure_morphology(sim::render_galaxy(g, 64, opts));
  ASSERT_TRUE(a.valid && b.valid);
  EXPECT_NEAR(a.concentration, b.concentration, 0.15);
  EXPECT_NEAR(a.asymmetry, b.asymmetry, 0.03);
}

INSTANTIATE_TEST_SUITE_P(Sweep, MorphologyInvariance, ::testing::Range(1, 6));

}  // namespace
}  // namespace nvo
