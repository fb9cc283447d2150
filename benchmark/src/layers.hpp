#pragma once

/// \file layers.hpp
/// Per-layer replays for the traced run. Each replay drives one layer
/// through its public API with the workload's own inputs and times every
/// call from outside (harness.hpp Section), so the per-layer numbers need
/// no instrumentation inside src/. Every workload runs every replay, which
/// is why the per-layer metric set is the same for all of them.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/measurement_db.hpp"
#include "core/pnp_tuner.hpp"
#include "harness.hpp"
#include "serve/tuning_service.hpp"

namespace pnp::bench {

/// Per-region model-input build: ir.extract, graph.flow_graph and
/// graph.tensors for up to `max_regions` regions spread over the db.
/// Records the median of each (µs) into `layers`.
void replay_graph_build(const core::MeasurementDb& db,
                        const graph::Vocabulary& vocab, int max_regions,
                        Tracer* tracer, Metrics& layers);

/// One training epoch of a copy of `tuner`'s trained net over `regions`
/// (all caps, power scenario) through the public RgcnNet / Optimizer API,
/// mirroring nn::train's sequential path: per sample an RGCN forward, per
/// member a dense forward + loss + dense backward, an RGCN backward, and an
/// AdamW step per 16 members. Returns the epoch's wall time (ms); with a
/// tracer, also records the nn.* medians into `layers`.
double replay_epoch(const core::PnpTuner& tuner, const std::vector<int>& regions,
                    bool cap_onehot, std::uint64_t seed, Tracer* tracer,
                    Metrics* layers);

/// `n` durable appends of truthful observations of `db` into a fresh
/// MeasurementLog at `path`; records core.observe_append_p50_us/_p99_us.
void replay_observe_append(const core::MeasurementDb& db,
                           const std::string& path, int n, std::uint64_t seed,
                           Tracer* tracer, Metrics& layers);

/// PnpTuner::load of `artifact` `reps` times; records core.artifact_load_ms.
void replay_artifact_load(const core::MeasurementDb& db,
                          const std::string& artifact, int reps,
                          Tracer* tracer, Metrics& layers);

/// One step of a replayed request stream: a tune request, or a reload of
/// artifact `artifact` (which empties the encode cache).
struct ReplayOp {
  bool reload = false;
  int artifact = 0;
  serve::TuneRequest tune;
};

/// Single-threaded replay through ModelState::encode / run_heads /
/// decode_power on the Workspace path, with one region→encoding map per
/// model version. `warm` runs untimed first. Returns the decoded config of
/// every tune op of `timed`, in order; records serve.model.* medians.
std::vector<sim::OmpConfig> replay_model(
    const core::MeasurementDb& db, const std::vector<std::string>& artifacts,
    std::span<const ReplayOp> warm, std::span<const ReplayOp> timed,
    Tracer* tracer, Metrics& layers);

/// Closed-loop replay against TuningService::tune (default options) from
/// `threads` caller threads with no wire; reloads run between the tune
/// ops around them, then `extra_reloads` more reloads of the current
/// artifact. Returns the result of every tune op of `timed`, in order;
/// records serve.service.* metrics (hit ratio and batch size with their
/// base counts).
std::vector<serve::TuneResult> replay_service(
    const core::MeasurementDb& db, const std::vector<std::string>& artifacts,
    std::span<const ReplayOp> warm, std::span<const ReplayOp> timed,
    int threads, int extra_reloads, Tracer* tracer, Metrics& layers);

/// Median (µs) of the durations of the spans named `name`, 0 when none.
double median_us(std::span<const Span> spans, const char* name);

}  // namespace pnp::bench
