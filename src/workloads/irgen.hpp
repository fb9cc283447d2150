#pragma once

/// \file irgen.hpp
/// Synthesis of mini-IR for an OpenMP region from its KernelDescriptor.
///
/// Clang outlines OpenMP `parallel` regions into functions; this
/// generator produces the equivalent outlined function so the rest of the
/// pipeline (extract → PROGRAML graph → RGCN) is identical to the paper's.
/// The generated code mirrors the descriptor:
///   - loop-nest depth → nested header/body/latch block structure;
///   - arithmetic intensity → ratio of f-ops to loads/stores in the body;
///   - branch divergence → data-dependent if/else inside the body;
///   - imbalance → data-dependent inner trip count (CSR-style bound load);
///   - reduction → atomicrmw combine; critical sections → __kmpc_critical
///     call pairs; serial fraction → __kmpc_single-guarded block;
///   - math calls → calls to declared intrinsics (sqrt/exp);
///   - the implicit region-end barrier → a barrier instruction.
///
/// Magnitudes (trip counts, working sets) appear only as constant values —
/// which the graph vocabulary deliberately collapses to "const i64" — so,
/// exactly as in the paper, static graphs capture structure while dynamic
/// counters are needed to see magnitudes (§IV-B).

#include "ir/module.hpp"
#include "sim/kernel.hpp"

namespace pnp::workloads {

/// Append the outlined function for `desc` to `module` and return its
/// name (`<app>.<region>.omp_outlined`). Declares any intrinsics it
/// references (idempotently).
std::string emit_region(ir::Module& module, const sim::KernelDescriptor& desc);

/// Build a whole application module: one outlined function per region plus
/// an `@<app>.main` driver that calls each region in order (providing the
/// call-flow context PROGRAML encodes).
ir::Module emit_application(const std::string& app_name,
                            const std::vector<sim::KernelDescriptor>& regions);

}  // namespace pnp::workloads
