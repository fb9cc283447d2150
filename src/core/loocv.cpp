#include "core/loocv.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "nn/task_pool.hpp"

namespace pnp::core {

namespace {

/// Run `body(variant, fold)` for every (variant, fold) pair as one loop, on
/// a pool as wide as the CPU affinity mask; a variant is one trained tuner
/// configuration (a PnP variant or a held-out cap). One loop over all pairs
/// keeps every core busy until the last pair starts, where a loop per
/// variant would idle cores at each variant's tail. Pairs are fully
/// independent (each trains its own tuner and writes disjoint result
/// cells), so results are bit-identical to the sequential order whatever
/// the thread count. A pair's trainer runs on its own thread
/// (TaskPool::in_task), so the cores split per pair, not inside each
/// training. The first exception a pair throws is rethrown here.
template <class Body>
void for_each_fold(int num_variants, int num_folds, Body&& body) {
  const int pairs = num_variants * num_folds;
  nn::TaskPool pool(std::min(pairs, nn::affinity_cpu_count()));
  pool.run(pairs, [&](int i, int) { body(i / num_folds, i % num_folds); });
}

/// LOOCV fold structure over applications.
struct Folds {
  std::vector<std::pair<std::string, std::vector<int>>> by_app;
  std::vector<int> all_regions;

  std::vector<int> training_for(std::size_t fold) const {
    std::vector<int> out;
    for (std::size_t a = 0; a < by_app.size(); ++a) {
      if (a == fold) continue;
      out.insert(out.end(), by_app[a].second.begin(), by_app[a].second.end());
    }
    return out;
  }
};

Folds make_folds(const MeasurementDb& db, int max_apps) {
  Folds f;
  f.by_app = regions_by_app(db);
  if (max_apps > 0 && static_cast<int>(f.by_app.size()) > max_apps)
    f.by_app.resize(static_cast<std::size_t>(max_apps));
  for (const auto& [app, rs] : f.by_app)
    f.all_regions.insert(f.all_regions.end(), rs.begin(), rs.end());
  return f;
}

/// Run scenario-1 LOOCV for each PnP variant; variant v fills
/// (*variants[v].second)[region][cap].
void loocv_power(
    const sim::Simulator& sim, const MeasurementDb& db, const Folds& folds,
    const std::vector<std::pair<PnpOptions, std::vector<std::vector<S1Cell>>*>>&
        variants) {
  const auto& caps = db.space().power_caps();
  for_each_fold(static_cast<int>(variants.size()),
                static_cast<int>(folds.by_app.size()), [&](int v, int fold) {
    const auto& [pnp_opt, out] = variants[static_cast<std::size_t>(v)];
    PnpTuner tuner(db, pnp_opt);
    tuner.train_power_scenario(folds.training_for(static_cast<std::size_t>(fold)));
    for (int r : folds.by_app[static_cast<std::size_t>(fold)].second) {
      for (std::size_t k = 0; k < caps.size(); ++k) {
        const auto cfg = tuner.predict_power(r, static_cast<int>(k));
        S1Cell cell;
        cell.cfg = cfg;
        cell.seconds =
            sim.expected(db.region(r).region->desc, cfg, caps[k]).seconds;
        (*out)[static_cast<std::size_t>(r)][k] = cell;
      }
    }
  });
}

}  // namespace

std::vector<std::pair<std::string, std::vector<int>>> regions_by_app(
    const MeasurementDb& db) {
  std::vector<std::pair<std::string, std::vector<int>>> out;
  for (int r = 0; r < db.num_regions(); ++r) {
    const std::string& app = db.region(r).region->desc.app;
    if (out.empty() || out.back().first != app)
      out.emplace_back(app, std::vector<int>{});
    out.back().second.push_back(r);
  }
  return out;
}

Scenario1Result run_power_experiment(const sim::Simulator& sim,
                                     const MeasurementDb& db,
                                     const ExperimentOptions& opt) {
  const Folds folds = make_folds(db, opt.max_apps);
  const auto& caps = db.space().power_caps();
  const std::size_t R = static_cast<std::size_t>(db.num_regions());

  Scenario1Result res;
  res.caps = caps;
  res.apps.resize(R);
  res.regions.resize(R);
  for (int r = 0; r < db.num_regions(); ++r) {
    res.apps[static_cast<std::size_t>(r)] = db.region(r).region->desc.app;
    res.regions[static_cast<std::size_t>(r)] =
        db.region(r).region->desc.qualified_name();
  }

  res.oracle_seconds.assign(R, std::vector<double>(caps.size(), 0.0));
  res.default_seconds.assign(R, std::vector<double>(caps.size(), 0.0));
  for (int r = 0; r < db.num_regions(); ++r) {
    for (std::size_t k = 0; k < caps.size(); ++k) {
      res.oracle_seconds[static_cast<std::size_t>(r)][k] =
          db.best_time(r, static_cast<int>(k));
      res.default_seconds[static_cast<std::size_t>(r)][k] =
          db.at_default(r, static_cast<int>(k)).seconds;
    }
  }

  const std::vector<std::vector<S1Cell>> empty(
      R, std::vector<S1Cell>(caps.size()));

  std::vector<std::pair<PnpOptions, std::vector<std::vector<S1Cell>>*>>
      variants;
  if (opt.run_pnp_static)
    variants.emplace_back(opt.pnp, &(res.tuners[kPnpStatic] = empty));
  if (opt.run_pnp_dynamic) {
    PnpOptions dyn = opt.pnp;
    dyn.use_counters = true;
    dyn.seed = opt.pnp.seed ^ 0xd1;
    variants.emplace_back(dyn, &(res.tuners[kPnpDynamic] = empty));
  }
  loocv_power(sim, db, folds, variants);
  if (opt.run_baselines) {
    BlissTuner bliss(sim, db.space(), opt.baselines);
    OpenTunerLike otl(sim, db.space(), opt.baselines);
    auto& bcells = res.tuners[kBliss] = empty;
    auto& ocells = res.tuners[kOpenTuner] = empty;
    for (int r : folds.all_regions) {
      const auto& desc = db.region(r).region->desc;
      for (std::size_t k = 0; k < caps.size(); ++k) {
        const auto bc = bliss.tune_at_cap(desc, caps[k]);
        bcells[static_cast<std::size_t>(r)][k] = {
            bc.cfg, sim.expected(desc, bc.cfg, caps[k]).seconds, bc.executions};
        const auto oc = otl.tune_at_cap(desc, caps[k]);
        ocells[static_cast<std::size_t>(r)][k] = {
            oc.cfg, sim.expected(desc, oc.cfg, caps[k]).seconds, oc.executions};
      }
    }
  }
  return res;
}

UnseenCapResult run_unseen_cap_experiment(const sim::Simulator& sim,
                                          const MeasurementDb& db,
                                          const ExperimentOptions& opt) {
  const Folds folds = make_folds(db, opt.max_apps);
  const auto& caps = db.space().power_caps();
  const std::size_t R = static_cast<std::size_t>(db.num_regions());

  UnseenCapResult res;
  res.caps = caps;
  // Lowest and highest caps, as in the paper's four tests.
  res.heldout_cap_indices = {0, static_cast<int>(caps.size()) - 1};
  res.apps.resize(R);
  res.regions.resize(R);
  for (int r = 0; r < db.num_regions(); ++r) {
    res.apps[static_cast<std::size_t>(r)] = db.region(r).region->desc.app;
    res.regions[static_cast<std::size_t>(r)] =
        db.region(r).region->desc.qualified_name();
  }
  res.pnp.assign(res.heldout_cap_indices.size(), std::vector<S1Cell>(R));
  res.oracle_seconds.assign(res.heldout_cap_indices.size(),
                            std::vector<double>(R, 0.0));
  res.default_seconds.assign(res.heldout_cap_indices.size(),
                             std::vector<double>(R, 0.0));

  std::vector<PnpOptions> variants;
  for (std::size_t hi = 0; hi < res.heldout_cap_indices.size(); ++hi) {
    const int heldout = res.heldout_cap_indices[hi];
    for (int r = 0; r < db.num_regions(); ++r) {
      res.oracle_seconds[hi][static_cast<std::size_t>(r)] =
          db.best_time(r, heldout);
      res.default_seconds[hi][static_cast<std::size_t>(r)] =
          db.at_default(r, heldout).seconds;
    }

    // Dynamic features + scalar normalized cap (paper §IV-B: static
    // features cannot capture behaviour at unobserved constraints).
    PnpOptions pnp = opt.pnp;
    pnp.use_counters = true;
    pnp.cap_onehot = false;
    pnp.seed = opt.pnp.seed ^ (0x515 + static_cast<std::uint64_t>(heldout));
    pnp.train_cap_indices.clear();
    for (int k = 0; k < static_cast<int>(caps.size()); ++k)
      if (k != heldout) pnp.train_cap_indices.push_back(k);
    variants.push_back(std::move(pnp));
  }

  for_each_fold(static_cast<int>(variants.size()),
                static_cast<int>(folds.by_app.size()), [&](int hi, int fold) {
    const auto hs = static_cast<std::size_t>(hi);
    const double cap = caps[static_cast<std::size_t>(res.heldout_cap_indices[hs])];
    PnpTuner tuner(db, variants[hs]);
    tuner.train_power_scenario(
        folds.training_for(static_cast<std::size_t>(fold)));
    for (int r : folds.by_app[static_cast<std::size_t>(fold)].second) {
      const auto cfg = tuner.predict_power_at(r, cap);
      S1Cell cell;
      cell.cfg = cfg;
      cell.seconds = sim.expected(db.region(r).region->desc, cfg, cap).seconds;
      res.pnp[hs][static_cast<std::size_t>(r)] = cell;
    }
  });
  return res;
}

Scenario2Result run_edp_experiment(const sim::Simulator& sim,
                                   const MeasurementDb& db,
                                   const ExperimentOptions& opt) {
  const Folds folds = make_folds(db, opt.max_apps);
  const auto& caps = db.space().power_caps();
  const std::size_t R = static_cast<std::size_t>(db.num_regions());
  const int tdp_index = static_cast<int>(caps.size()) - 1;

  Scenario2Result res;
  res.caps = caps;
  res.apps.resize(R);
  res.regions.resize(R);
  res.default_seconds.resize(R);
  res.default_joules.resize(R);
  res.oracle_edp.resize(R);
  for (int r = 0; r < db.num_regions(); ++r) {
    const auto ri = static_cast<std::size_t>(r);
    res.apps[ri] = db.region(r).region->desc.app;
    res.regions[ri] = db.region(r).region->desc.qualified_name();
    const auto& dflt = db.at_default(r, tdp_index);
    res.default_seconds[ri] = dflt.seconds;
    res.default_joules[ri] = dflt.joules;
    res.oracle_edp[ri] = db.best_by_edp(r).edp;
  }

  auto eval_choice = [&](int r, int cap_index,
                         const sim::OmpConfig& cfg) -> S2Cell {
    const auto er = sim.expected(db.region(r).region->desc, cfg,
                                 caps[static_cast<std::size_t>(cap_index)]);
    return S2Cell{cap_index, cfg, er.seconds, er.joules, 0};
  };

  std::vector<std::pair<PnpOptions, std::vector<S2Cell>*>> variants;
  auto add_variant = [&](const PnpOptions& pnp_opt, const char* name) {
    auto& cells = res.tuners[name];
    cells.assign(R, S2Cell{});
    variants.emplace_back(pnp_opt, &cells);
  };
  if (opt.run_pnp_static) {
    PnpOptions pnp = opt.pnp;
    pnp.use_adamw = false;  // Table II: plain Adam for the EDP scenario
    add_variant(pnp, kPnpStatic);
  }
  if (opt.run_pnp_dynamic) {
    PnpOptions pnp = opt.pnp;
    pnp.use_adamw = false;
    pnp.use_counters = true;
    pnp.seed = opt.pnp.seed ^ 0xd2;
    add_variant(pnp, kPnpDynamic);
  }
  for_each_fold(static_cast<int>(variants.size()),
                static_cast<int>(folds.by_app.size()), [&](int v, int fold) {
    const auto& [pnp_opt, cells] = variants[static_cast<std::size_t>(v)];
    PnpTuner tuner(db, pnp_opt);
    tuner.train_edp_scenario(folds.training_for(static_cast<std::size_t>(fold)));
    for (int r : folds.by_app[static_cast<std::size_t>(fold)].second) {
      const auto jc = tuner.predict_edp(r);
      (*cells)[static_cast<std::size_t>(r)] = eval_choice(r, jc.cap_index, jc.cfg);
    }
  });
  if (opt.run_baselines) {
    BlissTuner bliss(sim, db.space(), opt.baselines);
    OpenTunerLike otl(sim, db.space(), opt.baselines);
    auto& bcells = res.tuners[kBliss];
    auto& ocells = res.tuners[kOpenTuner];
    bcells.assign(R, S2Cell{});
    ocells.assign(R, S2Cell{});
    for (int r : folds.all_regions) {
      const auto& desc = db.region(r).region->desc;
      const auto bc = bliss.tune_edp(desc);
      bcells[static_cast<std::size_t>(r)] = eval_choice(r, bc.cap_index, bc.cfg);
      bcells[static_cast<std::size_t>(r)].executions = bc.executions;
      const auto oc = otl.tune_edp(desc);
      ocells[static_cast<std::size_t>(r)] = eval_choice(r, oc.cap_index, oc.cfg);
      ocells[static_cast<std::size_t>(r)].executions = oc.executions;
    }
  }
  return res;
}

TransferReport run_transfer_experiment(const MeasurementDb& src_db,
                                       const MeasurementDb& dst_db,
                                       const ExperimentOptions& opt) {
  TransferReport rep;
  std::vector<int> all_src, all_dst;
  for (int r = 0; r < src_db.num_regions(); ++r) all_src.push_back(r);
  for (int r = 0; r < dst_db.num_regions(); ++r) all_dst.push_back(r);

  // 1. Full training on the source machine (Haswell in the paper).
  PnpTuner src_tuner(src_db, opt.pnp);
  const auto src_rep = src_tuner.train_power_scenario(all_src);
  rep.source_train_seconds = src_rep.seconds;

  // 2. From-scratch training on the target machine.
  PnpTuner full_tuner(dst_db, opt.pnp);
  const auto full_rep = full_tuner.train_power_scenario(all_dst);
  rep.full_target_seconds = full_rep.seconds;
  rep.full_accuracy = full_rep.train_accuracy;
  rep.full_trainable_weights =
      full_tuner.net().num_weights(/*trainable_only=*/true);

  // 3. Transfer: load the source GNN, freeze it, retrain dense layers only.
  PnpOptions xfer_opt = opt.pnp;
  xfer_opt.seed = opt.pnp.seed ^ 0x77;
  PnpTuner xfer_tuner(dst_db, xfer_opt);
  xfer_tuner.import_gnn(src_tuner.state(), /*freeze_gnn=*/true);
  const auto xfer_rep = xfer_tuner.train_power_scenario(all_dst);
  rep.transfer_target_seconds = xfer_rep.seconds;
  rep.transfer_accuracy = xfer_rep.train_accuracy;
  rep.transfer_trainable_weights =
      xfer_tuner.net().num_weights(/*trainable_only=*/true);

  rep.speedup = rep.full_target_seconds /
                std::max(rep.transfer_target_seconds, 1e-9);
  return rep;
}

}  // namespace pnp::core
