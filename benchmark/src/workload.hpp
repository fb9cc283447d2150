#pragma once

/// \file workload.hpp
/// What every workload receives and returns: pnp_bench.cpp
/// parses the command line, runs one workload, and prints and writes what
/// the workload measured.

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"

namespace pnp::bench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 7;
  double seconds = 30.0;  ///< measured time of one run
  bool trace = false;
  std::string tmp_dir;    ///< temporary: sockets, logs, artifacts (short path)
  /// Time to build the process-wide paper suite (its IR is emitted once
  /// per process, before the first setup); added once to setup_s.
  double suite_s = 0.0;
};

struct RunResult {
  Metrics end_to_end;  ///< every end-to-end metric (computed in both modes)
  Metrics layers;      ///< per-layer numbers (traced run)
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  ///< correctness failures
  std::vector<std::string> notes;     ///< informational lines
  bool valid = true;  ///< false when the load generator ran late
  std::vector<Rung> ladder;
  std::vector<bool> ladder_passed;
};

/// The three serving workloads (serve_workloads.cpp).
bool is_serve_workload(const std::string& name);
RunResult run_serve_workload(const RunArgs& args, Tracer* tracer);

/// train_power (train_workload.cpp).
RunResult run_train_workload(const RunArgs& args, Tracer* tracer);

}  // namespace pnp::bench
