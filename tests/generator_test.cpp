/// Property tests for the procedural workload generator: across many
/// seeds and corpus sizes every generated region must produce verified
/// IR that round-trips through the printer/parser and builds a
/// well-formed flow graph (edge endpoints in range, CSR forms consistent
/// with the edge lists), and generation must be a pure function of the
/// options — two fresh Generator instances with the same seed are
/// bit-identical. Also covers family archetype guarantees and end-to-end
/// consumption by MeasurementDb / PnpTuner / TuningService.

#include <gtest/gtest.h>

#include <set>

#include "common/error.hpp"
#include "core/measurement_db.hpp"
#include "core/pnp_tuner.hpp"
#include "graph/builder.hpp"
#include "ir/extract.hpp"
#include "ir/parser.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"
#include "serve/tuning_service.hpp"
#include "workloads/generator.hpp"

namespace pnp::workloads {
namespace {

GeneratorOptions opts(std::uint64_t seed, int regions) {
  GeneratorOptions o;
  o.seed = seed;
  o.num_regions = regions;
  return o;
}

bool descriptors_equal(const sim::KernelDescriptor& a,
                       const sim::KernelDescriptor& b) {
  return a.app == b.app && a.region == b.region &&
         a.trip_count == b.trip_count && a.flops_per_iter == b.flops_per_iter &&
         a.bytes_per_iter == b.bytes_per_iter &&
         a.working_set_bytes == b.working_set_bytes &&
         a.imbalance == b.imbalance && a.branch_div == b.branch_div &&
         a.serial_frac == b.serial_frac && a.critical_frac == b.critical_frac &&
         a.chunk_overhead_scale == b.chunk_overhead_scale &&
         a.loop_nest_depth == b.loop_nest_depth && a.reduction == b.reduction &&
         a.has_calls == b.has_calls && a.flop_efficiency == b.flop_efficiency;
}

TEST(Generator, RequestedRegionCountExactly) {
  for (int n : {1, 2, 8, 33, 64}) {
    const Corpus c = Generator(opts(7, n)).generate();
    EXPECT_EQ(c.total_regions(), static_cast<std::size_t>(n)) << n;
    EXPECT_GE(c.application_count(), 1u);
  }
}

TEST(Generator, SameSeedBitIdenticalAcrossFreshInstances) {
  for (std::uint64_t seed : {1ULL, 7ULL, 42ULL, 9001ULL}) {
    const Corpus a = Generator(opts(seed, 24)).generate();
    const Corpus b = Generator(opts(seed, 24)).generate();
    ASSERT_EQ(a.application_count(), b.application_count()) << seed;
    for (std::size_t i = 0; i < a.application_count(); ++i) {
      const auto& aa = a.applications()[i];
      const auto& ba = b.applications()[i];
      EXPECT_EQ(aa.name, ba.name);
      ASSERT_EQ(aa.regions.size(), ba.regions.size());
      for (std::size_t r = 0; r < aa.regions.size(); ++r) {
        EXPECT_EQ(aa.regions[r].function, ba.regions[r].function);
        EXPECT_TRUE(
            descriptors_equal(aa.regions[r].desc, ba.regions[r].desc))
            << aa.regions[r].desc.qualified_name();
      }
      // Printed IR is the strongest bit-identity witness: it covers every
      // instruction the two generators emitted.
      EXPECT_EQ(ir::print_module(aa.module), ir::print_module(ba.module));
    }
  }
}

TEST(Generator, DifferentSeedsDiffer) {
  const Corpus a = Generator(opts(1, 16)).generate();
  const Corpus b = Generator(opts(2, 16)).generate();
  bool any_difference = false;
  const auto ra = a.all_regions(), rb = b.all_regions();
  for (std::size_t i = 0; i < std::min(ra.size(), rb.size()); ++i)
    if (!descriptors_equal(ra[i].region->desc, rb[i].region->desc))
      any_difference = true;
  EXPECT_TRUE(any_difference);
}

TEST(Generator, EveryModuleVerifiesAndRoundTripsAcrossSeedsAndSizes) {
  for (std::uint64_t seed : {3ULL, 17ULL, 99ULL}) {
    for (int n : {1, 9, 40}) {
      const Corpus c = Generator(opts(seed, n)).generate();
      for (const auto& app : c.applications()) {
        EXPECT_TRUE(ir::verify_module(app.module).empty())
            << app.name << " seed=" << seed;
        const std::string text = ir::print_module(app.module);
        const auto back = ir::parse_module(text);
        EXPECT_EQ(ir::print_module(back), text) << app.name;
      }
    }
  }
}

TEST(Generator, EveryRegionExtractsAndBuildsWellFormedFlowGraph) {
  const Corpus c = Generator(opts(7, 48)).generate();
  std::vector<graph::FlowGraph> graphs;
  for (const auto& rr : c.all_regions()) {
    const auto one =
        ir::extract_function(rr.app->module, rr.region->function);
    EXPECT_TRUE(ir::verify_module(one).empty()) << rr.region->function;
    graphs.push_back(graph::build_flow_graph(one));
    const auto& g = graphs.back();
    // Same model budget the paper corpus obeys.
    EXPECT_GE(g.num_nodes(), 15) << rr.region->function;
    EXPECT_LE(g.num_nodes(), 400) << rr.region->function;
    EXPECT_GT(g.num_edges(), g.num_nodes() / 2);
    for (const auto& e : g.edges()) {
      EXPECT_GE(e.src, 0);
      EXPECT_LT(e.src, g.num_nodes());
      EXPECT_GE(e.dst, 0);
      EXPECT_LT(e.dst, g.num_nodes());
    }
  }

  // CSR forms must agree with the raw relation edge lists.
  std::vector<const graph::FlowGraph*> ptrs;
  for (const auto& g : graphs) ptrs.push_back(&g);
  const auto vocab = graph::Vocabulary::from_graphs(ptrs);
  for (const auto& g : graphs) {
    const auto t = graph::to_tensors(g, vocab);
    for (int rel = 0; rel < graph::kNumModelRelations; ++rel) {
      const auto& edges = t.rel_edges[static_cast<std::size_t>(rel)];
      const auto& csr = t.csr(rel);
      ASSERT_EQ(csr.row_offset.size(),
                static_cast<std::size_t>(t.num_nodes) + 1);
      EXPECT_EQ(csr.num_edges(), static_cast<int>(edges.size()));
      const auto deg = t.in_degree(rel);
      std::vector<std::vector<int>> by_target(
          static_cast<std::size_t>(t.num_nodes));
      for (const auto& [src, dst] : edges)
        by_target[static_cast<std::size_t>(dst)].push_back(src);
      std::vector<int> expected_active;
      for (int v = 0; v < t.num_nodes; ++v) {
        const auto vi = static_cast<std::size_t>(v);
        ASSERT_LE(csr.row_offset[vi], csr.row_offset[vi + 1]);
        const int row = csr.row_offset[vi + 1] - csr.row_offset[vi];
        EXPECT_EQ(row, deg[vi]);
        ASSERT_EQ(row, static_cast<int>(by_target[vi].size()));
        for (int j = 0; j < row; ++j)
          EXPECT_EQ(csr.src[static_cast<std::size_t>(csr.row_offset[vi] + j)],
                    by_target[vi][static_cast<std::size_t>(j)]);
        if (row > 0) {
          ASSERT_LT(expected_active.size(), csr.inv_deg.size());
          EXPECT_DOUBLE_EQ(csr.inv_deg[expected_active.size()], 1.0 / row);
          expected_active.push_back(v);
        }
      }
      EXPECT_EQ(csr.active_dst, expected_active);
      EXPECT_EQ(csr.inv_deg.size(), expected_active.size());
    }
  }
}

TEST(Generator, RegionNamesUniqueAndQualified) {
  const Corpus c = Generator(opts(5, 50)).generate();
  std::set<std::string> names;
  for (const auto& rr : c.all_regions()) {
    EXPECT_TRUE(names.insert(rr.region->desc.qualified_name()).second);
    EXPECT_EQ(rr.region->desc.app, rr.app->name);
    EXPECT_EQ(rr.region->function,
              rr.region->desc.qualified_name() + ".omp_outlined");
  }
  EXPECT_EQ(names.size(), 50u);
}

TEST(Generator, AllFamiliesAppearAndParseBack) {
  const Corpus c = Generator(opts(7, 64)).generate();
  std::set<Family> seen;
  for (const auto& app : c.applications()) {
    const auto fam = Generator::family_of(app.name);
    ASSERT_TRUE(fam.has_value()) << app.name;
    seen.insert(*fam);
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(kNumFamilies));

  EXPECT_FALSE(Generator::family_of("lulesh").has_value());
  EXPECT_FALSE(Generator::family_of("gemm").has_value());
  EXPECT_FALSE(Generator::family_of("g3_bogus").has_value());
  EXPECT_FALSE(Generator::family_of("gx_blas3").has_value());
  EXPECT_FALSE(Generator::family_of("g_blas3").has_value());  // no digits
  EXPECT_FALSE(Generator::family_of("").has_value());
}

TEST(Generator, FamilyArchetypesShapeDescriptors) {
  const Corpus c = Generator(opts(11, 96)).generate();
  for (const auto& app : c.applications()) {
    const Family fam = *Generator::family_of(app.name);
    for (const auto& r : app.regions) {
      const auto& d = r.desc;
      EXPECT_GE(d.trip_count, 1.0);
      EXPECT_GT(d.flops_per_iter, 0.0);
      EXPECT_GT(d.bytes_per_iter, 0.0);
      EXPECT_GT(d.working_set_bytes, 0.0);
      switch (fam) {
        case Family::Blas3:
          EXPECT_EQ(d.loop_nest_depth, 3);
          EXPECT_DOUBLE_EQ(d.flops_per_iter, 2.0 * d.trip_count * d.trip_count);
          break;
        case Family::Factorization:
          EXPECT_GE(d.imbalance, 0.3);
          break;
        case Family::MonteCarlo:
          EXPECT_GE(d.branch_div, 0.2);
          EXPECT_GE(d.working_set_bytes, 16.0 * 1024 * 1024);
          break;
        case Family::Critical:
          EXPECT_GE(d.critical_frac, 0.05);
          EXPECT_GE(d.serial_frac, 0.2);
          break;
        case Family::Stencil:
        case Family::ProxyMix:
          break;  // heterogeneous by design
      }
    }
  }
}

TEST(Generator, FamilyWeightsRestrictSampling) {
  GeneratorOptions o = opts(13, 20);
  o.family_weights = {0, 0, 0, 1, 0, 0};  // MonteCarlo only
  const Corpus c = Generator(o).generate();
  for (const auto& app : c.applications())
    EXPECT_EQ(Generator::family_of(app.name), Family::MonteCarlo) << app.name;
}

TEST(Generator, InvalidOptionsThrow) {
  EXPECT_THROW(Generator{opts(7, 0)}, pnp::Error);
  EXPECT_THROW(Generator{opts(7, -4)}, pnp::Error);
  GeneratorOptions bad_app = opts(7, 4);
  bad_app.max_regions_per_app = 0;
  EXPECT_THROW(Generator{bad_app}, pnp::Error);
  GeneratorOptions zero_w = opts(7, 4);
  zero_w.family_weights = {0, 0, 0, 0, 0, 0};
  EXPECT_THROW(Generator{zero_w}, pnp::Error);
  GeneratorOptions neg_w = opts(7, 4);
  neg_w.family_weights = {1, -1, 1, 1, 1, 1};
  EXPECT_THROW(Generator{neg_w}, pnp::Error);
}

TEST(Generator, GeneratedCorpusTrainsAndServes) {
  // The whole pipeline must consume a generated corpus exactly like the
  // paper suite: measurement sweep → training → batched serving.
  const Corpus c = Generator(opts(21, 6)).generate();
  const auto machine = hw::MachineModel::haswell();
  const sim::Simulator sim(machine);
  const core::MeasurementDb db(sim, core::SearchSpace::for_machine(machine),
                               c.all_regions());
  ASSERT_EQ(db.num_regions(), 6);

  core::PnpOptions popt;
  popt.trainer.max_epochs = 2;
  core::PnpTuner tuner(db, popt);
  tuner.train_power_scenario({0, 1, 2, 3});

  std::vector<sim::OmpConfig> direct;
  for (int r = 4; r < 6; ++r)
    for (int k = 0; k < db.num_caps(); ++k)
      direct.push_back(tuner.predict_power(r, k));

  serve::TuningService service(std::move(tuner));
  std::vector<serve::TuneRequest> batch;
  for (int r = 4; r < 6; ++r)
    for (int k = 0; k < db.num_caps(); ++k)
      batch.push_back(serve::TuneRequest::power(r, k));
  const auto batched = service.tune_batch(batch);
  ASSERT_EQ(batched.size(), direct.size());
  for (std::size_t i = 0; i < batched.size(); ++i)
    EXPECT_EQ(batched[i].config, direct[i]) << "request " << i;
}

TEST(Generator, MixedCorpusDbFindsBothSuites) {
  const Corpus c = Generator(opts(31, 4)).generate();
  const auto machine = hw::MachineModel::haswell();
  const sim::Simulator sim(machine);
  auto regions = Suite::instance().all_regions();
  const int paper = static_cast<int>(regions.size());
  for (const auto& rr : c.all_regions()) regions.push_back(rr);
  const core::MeasurementDb db(sim, core::SearchSpace::for_machine(machine),
                               regions);
  EXPECT_EQ(db.num_regions(), paper + 4);
  EXPECT_GE(db.find_region("gemm", "r0_gemm"), 0);
  const auto& first_gen = c.applications()[0];
  EXPECT_GE(db.find_region(first_gen.name, first_gen.regions[0].desc.region),
            paper);
}

}  // namespace
}  // namespace pnp::workloads
