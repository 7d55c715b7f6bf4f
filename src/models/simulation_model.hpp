#ifndef BORG_MODELS_SIMULATION_MODEL_HPP
#define BORG_MODELS_SIMULATION_MODEL_HPP

/// \file simulation_model.hpp
/// The paper's simulation model (Section IV-B), rebuilt on the C++
/// discrete-event engine instead of SimPy.
///
/// T_F, T_C and T_A are random variables; the master node is a FIFO
/// resource of capacity one. Each simulated worker repeats the cycle from
/// the paper's SimPy fragment:
///
///     request master; hold T_C + T_A + T_C; release master; evaluate T_F
///
/// (the combined hold covers returning the result, the master ingesting it
/// and generating the next offspring, and sending that offspring back).
/// When many workers finish evaluations close together they queue for the
/// master — the resource contention the analytical model cannot express,
/// and the reason the simulation model tracks Table II so much better at
/// small T_F / large P.
///
/// Unlike the full virtual-time executor (parallel/async_executor.hpp),
/// nothing real is computed here: the model "holds resources" only, so a
/// 16,384-processor sweep point costs micro-, not milliseconds of work per
/// simulated evaluation. Both protocols run as statistics-only master
/// policies on the same parallel::ClusterEngine that drives the
/// real-algorithm executors, so model and experiment provably share their
/// scheduling code (DESIGN.md §10).

#include <cstdint>
#include <memory>

#include "models/analytical.hpp"
#include "parallel/run_context.hpp"
#include "parallel/virtual_cluster.hpp"
#include "stats/distribution.hpp"

namespace borg::models {

/// Inputs to one simulated run.
struct SimulationConfig {
    std::uint64_t evaluations = 0; ///< N
    std::uint64_t processors = 2;  ///< P (1 master + P-1 workers)
    const stats::Distribution* tf = nullptr;
    const stats::Distribution* tc = nullptr;
    const stats::Distribution* ta = nullptr;
    std::uint64_t seed = 1;
};

/// Simulates the asynchronous master-slave protocol. The result is the
/// executors' own VirtualRunResult: elapsed is the simulated T_P (the time
/// the N-th result lands), and the applied T_F/T_A summaries describe the
/// draws. \p ctx optionally attaches the engine's event trace ("sim"
/// events share the executor schema) and metrics under the "sim_async."
/// prefix; ctx.recorder is ignored (there is no archive to checkpoint).
parallel::VirtualRunResult simulate_async(const SimulationConfig& config,
                                          const parallel::RunContext& ctx = {});

/// Simulates the synchronous (generational) master-slave protocol of
/// Figure 1: per generation the master sends P-1 messages serially,
/// every node (master included) evaluates one offspring, results are
/// received serially, then the master processes the whole generation
/// (sum of P sampled T_A values). Used to study how T_F variability hurts
/// the synchronous model (Section VI-B's closing observation). \p ctx as
/// for simulate_async, under the "sim_sync." prefix.
parallel::VirtualRunResult simulate_sync(const SimulationConfig& config,
                                         const parallel::RunContext& ctx = {});

/// Efficiency implied by a simulated run: E_P = T_S / (P T_P) with
/// T_S = N (mean T_F + mean T_A) from the configured distributions.
double simulated_efficiency(const SimulationConfig& config,
                            const parallel::VirtualRunResult& result);

} // namespace borg::models

#endif
