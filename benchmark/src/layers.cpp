#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <thread>
#include <unordered_map>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/measurement_log.hpp"
#include "core/tuner_artifact.hpp"
#include "graph/builder.hpp"
#include "ir/extract.hpp"
#include "nn/loss.hpp"
#include "serve/inference_engine.hpp"

namespace pnp::bench {

namespace {

/// Flush a local span buffer into the tracer (no-op when untraced).
void flush(Tracer* tracer, std::vector<Span>& buf) {
  if (tracer) tracer->add_all(buf);
}

}  // namespace

double median_us(std::span<const Span> spans, const char* name) {
  return median_value(durations_ns(spans, name)) / 1e3;
}

void replay_graph_build(const core::MeasurementDb& db,
                        const graph::Vocabulary& vocab, int max_regions,
                        Tracer* tracer, Metrics& layers) {
  const int n = db.num_regions();
  const int take = std::min(n, max_regions);
  std::vector<double> extract_ns, flow_ns, tensor_ns;
  std::vector<Span> buf;
  for (int k = 0; k < take; ++k) {
    const auto& rr = db.region(static_cast<int>(
        static_cast<long long>(k) * n / take));
    Section s1(tracer, "ir.extract");
    const ir::Module one =
        ir::extract_function(rr.app->module, rr.region->function);
    extract_ns.push_back(static_cast<double>(s1.close(buf)));
    Section s2(tracer, "graph.flow_graph");
    const graph::FlowGraph fg = graph::build_flow_graph(one);
    flow_ns.push_back(static_cast<double>(s2.close(buf)));
    Section s3(tracer, "graph.tensors");
    const graph::GraphTensors gt = graph::to_tensors(fg, vocab);
    gt.finalize();
    tensor_ns.push_back(static_cast<double>(s3.close(buf)));
  }
  flush(tracer, buf);
  layers.set("ir.extract_us", median_value(extract_ns) / 1e3, "us");
  layers.set("graph.flow_graph_us", median_value(flow_ns) / 1e3, "us");
  layers.set("graph.tensors_us", median_value(tensor_ns) / 1e3, "us");
}

double replay_epoch(const core::PnpTuner& tuner,
                    const std::vector<int>& regions, bool cap_onehot,
                    std::uint64_t seed, Tracer* tracer, Metrics* layers) {
  const core::MeasurementDb& db = tuner.db();
  const core::SearchSpace& space = db.space();
  const int caps = db.num_caps();

  // Samples exactly as PnpTuner::train_power_scenario builds them (no
  // counters, no machine features): one graph per region, one member per
  // cap carrying the cap feature and the best-by-time label tuple.
  std::vector<graph::GraphTensors> tensors;
  tensors.reserve(regions.size());
  for (int r : regions) {
    tensors.push_back(graph::to_tensors(tuner.region_graph(r), tuner.vocab()));
    tensors.back().finalize();
  }
  struct Member {
    std::vector<double> extra;
    std::vector<int> labels;
  };
  std::vector<std::vector<Member>> members(regions.size());
  for (std::size_t i = 0; i < regions.size(); ++i)
    for (int k = 0; k < caps; ++k) {
      Member m;
      if (cap_onehot) {
        m.extra.assign(static_cast<std::size_t>(caps), 0.0);
        m.extra[static_cast<std::size_t>(k)] = 1.0;
      } else {
        m.extra = {space.power_caps()[static_cast<std::size_t>(k)] /
                   space.tdp()};
      }
      const sim::OmpConfig best =
          space.candidate(db.best_candidate_by_time(regions[i], k));
      m.labels = core::tuner_labels(
          space, core::tuner_classes_for(space, best, k),
          /*factored_heads=*/true, /*edp_scenario=*/false);
      members[i].push_back(std::move(m));
    }

  nn::RgcnNet net(tuner.net().config());
  net.load_state_dict(tuner.net().state_dict());
  const auto opt = nn::Adam::adamw_amsgrad(1e-3, 1e-2);
  std::vector<nn::Param*> params = net.params();
  const auto& heads = net.config().head_sizes;

  std::vector<std::size_t> order(regions.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  Rng rng(seed);
  rng.shuffle(order);

  std::vector<double> fwd_ns, dfwd_ns, dbwd_ns, bwd_ns, step_ns;
  std::vector<Span> buf;
  nn::RgcnNet::GnnCache gc;
  nn::RgcnNet::DenseCache dc;
  std::vector<double> dlogits, d_readout;
  double loss = 0.0;
  int batch_members = 0;

  Section epoch(tracer, "nn.epoch");
  const auto step = [&] {
    Section s(tracer, "nn.optim_step", epoch.id());
    const double scale = 1.0 / batch_members;
    for (nn::Param* p : params)
      for (double& g : p->g.flat()) g *= scale;
    opt->step(params);
    net.zero_grad();
    step_ns.push_back(static_cast<double>(s.close(buf)));
    batch_members = 0;
  };
  net.zero_grad();
  for (std::size_t oi : order) {
    Section f(tracer, "nn.rgcn_forward", epoch.id());
    net.encode_into(tensors[oi], gc);
    fwd_ns.push_back(static_cast<double>(f.close(buf)));
    d_readout.assign(gc.readout.size(), 0.0);
    for (const Member& m : members[oi]) {
      Section df(tracer, "nn.dense_forward", epoch.id());
      net.dense_forward_into(gc.readout, m.extra, dc);
      dfwd_ns.push_back(static_cast<double>(df.close(buf)));
      dlogits.assign(dc.logits.size(), 0.0);
      std::size_t off = 0;
      for (std::size_t h = 0; h < heads.size(); ++h) {
        const auto len = static_cast<std::size_t>(heads[h]);
        loss += nn::softmax_cross_entropy(
            std::span<const double>(dc.logits).subspan(off, len), m.labels[h],
            std::span<double>(dlogits).subspan(off, len));
        off += len;
      }
      Section bk(tracer, "nn.dense_backward", epoch.id());
      const std::vector<double> dr = net.dense_backward(dc, dlogits);
      dbwd_ns.push_back(static_cast<double>(bk.close(buf)));
      for (std::size_t d = 0; d < d_readout.size(); ++d) d_readout[d] += dr[d];
    }
    Section b(tracer, "nn.rgcn_backward", epoch.id());
    net.gnn_backward(gc, d_readout);
    bwd_ns.push_back(static_cast<double>(b.close(buf)));
    batch_members += static_cast<int>(members[oi].size());
    if (batch_members >= 16) step();
  }
  if (batch_members > 0) step();
  const double epoch_ms = static_cast<double>(epoch.close(buf)) / 1e6;
  flush(tracer, buf);
  PNP_CHECK_MSG(std::isfinite(loss), "epoch replay produced a non-finite loss");

  if (layers) {
    layers->set("nn.rgcn_forward_us", median_value(fwd_ns) / 1e3, "us");
    layers->set("nn.dense_forward_us", median_value(dfwd_ns) / 1e3, "us");
    layers->set("nn.dense_backward_us", median_value(dbwd_ns) / 1e3, "us");
    layers->set("nn.rgcn_backward_us", median_value(bwd_ns) / 1e3, "us");
    layers->set("nn.optim_step_us", median_value(step_ns) / 1e3, "us");
    layers->set("nn.epoch_ms", epoch_ms, "ms");
  }
  return epoch_ms;
}

void replay_observe_append(const core::MeasurementDb& db,
                           const std::string& path, int n, std::uint64_t seed,
                           Tracer* tracer, Metrics& layers) {
  std::filesystem::remove(path);
  core::MeasurementLog log(path);
  Rng rng(seed);
  const int caps = db.num_caps();
  const int cands = db.space().num_candidates_per_cap();
  std::vector<double> ns;
  std::vector<Span> buf;
  for (int i = 0; i < n; ++i) {
    const int r = static_cast<int>(rng.uniform_index(
        static_cast<std::size_t>(db.num_regions())));
    const int k = static_cast<int>(rng.uniform_index(static_cast<std::size_t>(caps)));
    const int c = static_cast<int>(rng.uniform_index(static_cast<std::size_t>(cands)));
    const sim::ExecutionResult& res = db.at(r, k, c);
    core::MeasurementRecord rec;
    rec.region = r;
    rec.cap_w = db.space().power_caps()[static_cast<std::size_t>(k)];
    rec.config = db.space().candidate(c);
    rec.seconds = res.seconds;
    rec.joules = res.joules;
    Section s(tracer, "core.observe_append");
    log.append(rec);
    ns.push_back(static_cast<double>(s.close(buf)));
  }
  flush(tracer, buf);
  layers.set("core.observe_append_p50_us", quantile(ns, 0.5) / 1e3, "us");
  layers.set("core.observe_append_p99_us", quantile(ns, 0.99) / 1e3, "us");
  std::filesystem::remove(path);
}

void replay_artifact_load(const core::MeasurementDb& db,
                          const std::string& artifact, int reps,
                          Tracer* tracer, Metrics& layers) {
  std::vector<double> ms;
  std::vector<Span> buf;
  for (int i = 0; i < reps; ++i) {
    Section s(tracer, "core.artifact_load");
    const core::PnpTuner t = core::PnpTuner::load(db, artifact);
    ms.push_back(static_cast<double>(s.close(buf)) / 1e6);
  }
  flush(tracer, buf);
  layers.set("core.artifact_load_ms", median_value(ms), "ms");
}

std::vector<sim::OmpConfig> replay_model(
    const core::MeasurementDb& db, const std::vector<std::string>& artifacts,
    std::span<const ReplayOp> warm, std::span<const ReplayOp> timed,
    Tracer* tracer, Metrics& layers) {
  std::vector<std::unique_ptr<serve::ModelState>> models(artifacts.size());
  const auto model = [&](int a) -> const serve::ModelState& {
    auto& m = models[static_cast<std::size_t>(a)];
    if (!m)
      m = std::make_unique<serve::ModelState>(
          core::PnpTuner::load(db, artifacts[static_cast<std::size_t>(a)]));
    return *m;
  };
  int current = 0;
  std::unordered_map<int, nn::RgcnNet::GnnCache> encodings;
  serve::ModelState::Workspace ws;
  std::vector<double> enc_ns, heads_ns, dec_ns;
  std::vector<sim::OmpConfig> out;
  std::vector<Span> buf;

  const auto run = [&](std::span<const ReplayOp> ops, bool timing) {
    Tracer* tr = timing ? tracer : nullptr;
    for (const ReplayOp& op : ops) {
      if (op.reload) {
        current = op.artifact;
        encodings.clear();  // a new version starts with an empty cache
        continue;
      }
      const serve::ModelState& m = model(current);
      const serve::TuneRequest& q = op.tune;
      auto [it, fresh] = encodings.try_emplace(q.region);
      if (fresh) {
        Section s(tr, "serve.model.encode");
        m.encode(q.region, it->second);
        const auto t = s.close(buf);
        if (timing) enc_ns.push_back(static_cast<double>(t));
      }
      const bool at_watts = q.kind == serve::TuneRequest::Kind::PowerAt;
      Section h(tr, "serve.model.run_heads");
      m.run_heads(it->second, q.region,
                  at_watts ? std::nullopt : std::optional<int>(q.cap_index),
                  at_watts ? std::optional<double>(q.cap_w) : std::nullopt, ws);
      const auto th = h.close(buf);
      Section d(tr, "serve.model.decode");
      const sim::OmpConfig cfg = m.decode_power(ws);
      const auto td = d.close(buf);
      if (timing) {
        heads_ns.push_back(static_cast<double>(th));
        dec_ns.push_back(static_cast<double>(td));
        out.push_back(cfg);
      }
    }
  };
  run(warm, false);
  run(timed, true);
  const double stream_encodes = static_cast<double>(enc_ns.size());
  // A warm stream (serve_hot) encodes nothing: time fresh encodes of the
  // stream's own regions so encode_us always rests on enough samples.
  constexpr std::size_t kMinEncodes = 64;
  std::unordered_map<int, bool> seen;
  for (const ReplayOp& op : timed) {
    if (enc_ns.size() >= kMinEncodes) break;
    if (op.reload || !seen.try_emplace(op.tune.region, true).second) continue;
    nn::RgcnNet::GnnCache c;
    Section s(tracer, "serve.model.encode");
    model(current).encode(op.tune.region, c);
    enc_ns.push_back(static_cast<double>(s.close(buf)));
  }
  flush(tracer, buf);
  layers.set("serve.model.encode_us", median_value(enc_ns) / 1e3, "us");
  layers.set("serve.model.run_heads_ns", median_value(heads_ns), "ns");
  layers.set("serve.model.decode_ns", median_value(dec_ns), "ns");
  layers.set("serve.model.stream_encodes", stream_encodes, "count");
  return out;
}

std::vector<serve::TuneResult> replay_service(
    const core::MeasurementDb& db, const std::vector<std::string>& artifacts,
    std::span<const ReplayOp> warm, std::span<const ReplayOp> timed,
    int threads, int extra_reloads, Tracer* tracer, Metrics& layers) {
  serve::TuningService svc(db, artifacts.front());
  int current = 0;
  std::vector<double> tune_ns, reload_ms;
  std::vector<serve::TuneResult> out;
  std::vector<Span> reload_buf;

  const auto reload = [&](int artifact, bool timing) {
    Section s(timing ? tracer : nullptr, "serve.service.reload");
    svc.reload(artifacts[static_cast<std::size_t>(artifact)]);
    const auto t = s.close(reload_buf);
    if (timing) reload_ms.push_back(static_cast<double>(t) / 1e6);
    current = artifact;
  };
  // Tune ops between two reloads run from `threads` callers (op j on
  // thread j mod threads); results land at their op's position.
  const auto segment = [&](std::span<const ReplayOp> ops, bool timing,
                           std::size_t out_base) {
    std::vector<std::vector<double>> lat(static_cast<std::size_t>(threads));
    std::vector<std::vector<Span>> bufs(static_cast<std::size_t>(threads));
    std::vector<std::string> errors(static_cast<std::size_t>(threads));
    std::vector<std::thread> team;
    for (int t = 0; t < threads; ++t)
      team.emplace_back([&, t] {
        const auto ti = static_cast<std::size_t>(t);
        try {
          for (std::size_t j = ti; j < ops.size();
               j += static_cast<std::size_t>(threads)) {
            Section s(timing ? tracer : nullptr, "serve.service.tune");
            const serve::TuneResult r = svc.tune(ops[j].tune);
            const auto ns = s.close(bufs[ti]);
            if (timing) {
              lat[ti].push_back(static_cast<double>(ns));
              out[out_base + j] = r;
            }
          }
        } catch (const std::exception& e) {
          errors[ti] = e.what();
        }
      });
    for (auto& th : team) th.join();
    for (const std::string& e : errors)
      PNP_CHECK_MSG(e.empty(), "service replay request failed: " << e);
    for (std::size_t t = 0; t < lat.size(); ++t) {
      tune_ns.insert(tune_ns.end(), lat[t].begin(), lat[t].end());
      flush(tracer, bufs[t]);
    }
  };
  // `out` is indexed by tune-op position: reloads take no slot, so each
  // segment's offset counts the tune ops before it.
  const auto run = [&](std::span<const ReplayOp> ops, bool timing) {
    std::size_t begin = 0, tunes_before = 0;
    for (std::size_t i = 0; i <= ops.size(); ++i) {
      if (i < ops.size() && !ops[i].reload) continue;
      segment(ops.subspan(begin, i - begin), timing, tunes_before);
      tunes_before += i - begin;
      if (i < ops.size()) reload(ops[i].artifact, timing);
      begin = i + 1;
    }
  };

  run(warm, false);
  std::size_t tunes = 0;
  for (const ReplayOp& op : timed) tunes += op.reload ? 0 : 1;
  out.assign(tunes, serve::TuneResult{});
  const serve::TuningService::Stats s0 = svc.stats();
  run(timed, true);
  const serve::TuningService::Stats s1 = svc.stats();
  for (int i = 0; i < extra_reloads; ++i) reload(current, true);
  flush(tracer, reload_buf);

  const double requests = static_cast<double>(s1.requests - s0.requests);
  const double batches = static_cast<double>(s1.batches - s0.batches);
  const double hits = static_cast<double>(s1.encode_hits - s0.encode_hits);
  const double misses =
      static_cast<double>(s1.encode_misses - s0.encode_misses);
  layers.set("serve.service.tune_p50_us", quantile(tune_ns, 0.5) / 1e3, "us");
  layers.set("serve.service.tune_p99_us", quantile(tune_ns, 0.99) / 1e3, "us");
  layers.set("serve.service.batch_mean", batches > 0 ? requests / batches : 0.0,
             "req/batch");
  layers.set("serve.service.encode_hit_ratio",
             hits + misses > 0 ? hits / (hits + misses) : 0.0, "fraction");
  layers.set("serve.service.requests", requests, "count");
  layers.set("serve.service.batches", batches, "count");
  layers.set("serve.service.encode_hits", hits, "count");
  layers.set("serve.service.encode_misses", misses, "count");
  layers.set("serve.service.reload_ms", median_value(reload_ms), "ms");
  return out;
}

}  // namespace pnp::bench
