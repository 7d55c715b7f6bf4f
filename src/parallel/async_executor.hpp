#ifndef BORG_PARALLEL_ASYNC_EXECUTOR_HPP
#define BORG_PARALLEL_ASYNC_EXECUTOR_HPP

/// \file async_executor.hpp
/// The asynchronous, master-slave Borg MOEA on a virtual-time cluster.
///
/// This executor runs the *real* algorithm — real operators, real archive,
/// real restarts — under the exact event protocol of the paper's MPI
/// implementation:
///
///   * whenever a worker becomes free, the master generates a new
///     offspring for it (BorgMoea::next_offspring_handle);
///   * whenever a worker's result returns, the master ingests it
///     immediately (BorgMoea::receive_handle) and hands the worker fresh
///     work;
///   * workers never wait on each other; they only queue (FIFO) for the
///     master.
///
/// Time is virtual: evaluation occupies the worker for a sampled T_F,
/// messages cost sampled T_C, and the master is held for T_C + T_A + T_C
/// per result, with T_A either sampled from a configured distribution or
/// *measured* from the real master-step CPU time. The returned elapsed
/// time is therefore the paper's T_P, and the recorded archive dynamics
/// are the algorithm's true dynamics under that processor count.

#include <cstdint>

#include "moea/borg.hpp"
#include "parallel/run_context.hpp"
#include "parallel/trajectory.hpp"
#include "parallel/virtual_cluster.hpp"

namespace borg::parallel {

class AsyncMasterSlaveExecutor {
public:
    /// \p algorithm must be freshly constructed (no prior evaluations);
    /// \p problem is the evaluation function the simulated workers apply.
    /// Both must outlive the executor.
    AsyncMasterSlaveExecutor(moea::BorgMoea& algorithm,
                             const problems::Problem& problem,
                             VirtualClusterConfig config);

    /// Runs until \p evaluations results have been ingested. \p ctx
    /// attaches the optional observability sinks: ctx.recorder receives a
    /// callback after every ingested result; ctx.trace the full typed
    /// event stream (worker spawns and failures, master acquire/release
    /// with queue depth, per-evaluation T_F/T_C/T_A samples, archive
    /// snapshots — DESIGN.md §8); ctx.metrics counters/gauges/histograms
    /// under the "async." prefix. Null sinks cost nothing on the hot path.
    VirtualRunResult run(std::uint64_t evaluations,
                         const RunContext& ctx = {});

private:
    moea::BorgMoea& algorithm_;
    const problems::Problem& problem_;
    VirtualClusterConfig config_;
};

/// The serial baseline on the same virtual clock: one processor executes
/// generate → evaluate → receive with t advancing by T_F + T_A per
/// evaluation (no communication), yielding the paper's T_S and the serial
/// hypervolume trajectory T_S^h. T_A is sampled or measured exactly as in
/// the parallel executor.
/// Only ctx.recorder is consulted (a serial run has no cluster events).
VirtualRunResult run_serial_virtual(moea::BorgMoea& algorithm,
                                    const problems::Problem& problem,
                                    const VirtualClusterConfig& config,
                                    std::uint64_t evaluations,
                                    const RunContext& ctx = {});

} // namespace borg::parallel

#endif
