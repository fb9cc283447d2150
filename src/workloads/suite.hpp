#pragma once

/// \file suite.hpp
/// Workload corpora. Two kinds exist in the repository:
///   - Suite — the paper's benchmark corpus (§III-C, §IV): 30 applications
///     with 68 OpenMP parallel regions — 24 PolyBench kernels plus the
///     proxy-/mini-apps RSBench, XSBench, miniFE, Quicksilver, miniAMR,
///     and LULESH;
///   - generated corpora — arbitrary-size procedural corpora sampled by
///     workloads::Generator (generator.hpp).
/// Both are Corpus instances, so everything downstream (MeasurementDb,
/// PnpTuner, the LOOCV drivers, core::Evaluator, serve::TuningService)
/// consumes them through the same abstraction.
///
/// Every region is described by a KernelDescriptor (see sim/kernel.hpp)
/// from which both its outlined IR (workloads/irgen.hpp) and its simulated
/// runtime behaviour derive. The paper corpus sets descriptor values per
/// kernel family: dense BLAS-3 compute kernels, bandwidth-bound stencils
/// and BLAS-2, triangular/factorization kernels with ramp imbalance, Monte
/// Carlo lookup kernels with branch divergence, and the proxy apps' mixed
/// regions (including LULESH's tiny boundary-condition kernel that drives
/// the paper's §I motivating example).

#include <string>
#include <vector>

#include "ir/module.hpp"
#include "sim/kernel.hpp"

namespace pnp::workloads {

/// One OpenMP region: descriptor + the outlined function in the module.
struct Region {
  sim::KernelDescriptor desc;
  std::string function;  ///< "<app>.<region>.omp_outlined"
};

/// One application: its IR module and regions.
struct Application {
  std::string name;
  ir::Module module;
  std::vector<Region> regions;
};

/// An ordered set of applications — the shared shape of the paper corpus
/// and generated corpora. Downstream consumers hold RegionRef views, which
/// point into this object's applications: keep the corpus alive (and
/// unmoved applications — moving the Corpus itself is fine, its
/// application vector's elements stay put) for as long as any RegionRef,
/// MeasurementDb, or tuner built on it is in use.
class Corpus {
 public:
  Corpus() = default;
  explicit Corpus(std::vector<Application> apps) : apps_(std::move(apps)) {}

  const std::vector<Application>& applications() const { return apps_; }

  std::size_t application_count() const { return apps_.size(); }
  std::size_t total_regions() const;

  /// All regions in application order, each paired with its application.
  struct RegionRef {
    const Application* app;
    const Region* region;
  };
  std::vector<RegionRef> all_regions() const;

  const Application* find(const std::string& name) const;

  /// Application names in corpus order (for the paper corpus: the figure
  /// order of the paper).
  std::vector<std::string> application_names() const;

 protected:
  std::vector<Application> apps_;
};

/// The paper's benchmark corpus, built once per process (IR emission +
/// verification happen at first access).
class Suite : public Corpus {
 public:
  static const Suite& instance();

 private:
  Suite();
};

}  // namespace pnp::workloads
