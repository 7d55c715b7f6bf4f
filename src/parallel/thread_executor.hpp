#ifndef BORG_PARALLEL_THREAD_EXECUTOR_HPP
#define BORG_PARALLEL_THREAD_EXECUTOR_HPP

/// \file thread_executor.hpp
/// A physical asynchronous master-slave executor using std::thread workers
/// and lock-free rings — the in-process stand-in for the paper's OpenMPI
/// deployment (DESIGN.md §2).
///
/// Protocol (identical to the MPI implementation):
///  * the master seeds every worker with one offspring;
///  * workers loop: receive work, evaluate (a DelayedProblem physically
///    blocks for the sampled T_F), send the result back;
///  * the master polls every worker's result ring (the MPI_ANY_SOURCE
///    receive), ingests each result, and immediately dispatches fresh
///    work — no barriers anywhere.
///
/// The wire (spsc_ring.hpp): per worker, one single-producer/single-
/// consumer ring of tasks and one of results. A side with nothing to do
/// spins kSpinPauses polls, then parks on an atomic counter its producer
/// bumps: one per worker for tasks (and shutdown), one for all results.
///
/// The executor is a transport only: threads, rings and zero-copy
/// evaluation into the pool's rows. The master loop above the wire —
/// window seeding, the task table, ingest order, and the T_F/T_C/T_A
/// accounting — is the WindowProtocol core the TCP run manager drives
/// too (window_protocol.hpp), serving the same AsyncBorgPolicy the
/// virtual executors run. A thread run therefore emits the engine's trace
/// and `async.*` metrics, feeds a TrajectoryRecorder, and cross-validates
/// against its trace exactly like the virtual and TCP runs.
///
/// Besides demonstrating the production path at workstation scale, this
/// executor is the measurement instrument of the model-calibration
/// workflow: it records real T_A samples (master processing time per
/// result) and per-result ring latencies, which stats::fit_all turns
/// into the distributions the simulation model consumes — the paper's
/// "collect timings on Ranger, fit with R" step.

#include <cstdint>
#include <vector>

#include "moea/borg.hpp"
#include "parallel/message.hpp"
#include "parallel/run_context.hpp"
#include "parallel/virtual_cluster.hpp"
#include "problems/problem.hpp"

namespace borg::parallel {

/// The engine's run summary (elapsed is wall-clock seconds; T_F, T_A and
/// master busy time are measured) plus the raw calibration samples.
struct ThreadRunResult : VirtualRunResult {
    /// The T_A the engine applied to each ingested result: the measured
    /// master step (receive + generate).
    std::vector<double> ta_samples;
    /// Measured one-way result latencies, the physical analogue of T_C:
    /// from the worker's send timestamp, or from the end of the master's
    /// previous service if that came later, to the master's pickup from
    /// the ring. Time a result spent queued behind other services is the
    /// master's, not the link's, so it is left out — the simulation model
    /// charges that queueing itself when it is calibrated from these.
    std::vector<double> tc_samples;
};

class ThreadMasterSlaveExecutor {
public:
    /// \p workers physical worker threads (>= 1); total "processors" is
    /// workers + 1 (the calling thread acts as the master). \p ingest
    /// picks the ingestion discipline: `arrival` is the historical
    /// MPI_ANY_SOURCE behaviour; `dispatch` is the schedule-invariant
    /// window protocol whose archive is byte-identical to any other
    /// transport run with the same seed and window — the determinism
    /// contract the TCP run manager is tested against (DESIGN.md §14).
    explicit ThreadMasterSlaveExecutor(
        std::size_t workers, IngestOrder ingest = IngestOrder::arrival);

    /// Runs the algorithm for \p evaluations results. \p problem is
    /// evaluated concurrently from the worker threads and must be
    /// thread-safe.
    ///
    /// If an evaluation throws inside a worker thread, the exception is
    /// captured, every thread is shut down and joined, and the exception
    /// is rethrown here. The worker threads live for this call only:
    /// they start here and are joined before it returns. ctx.trace receives the engine's event stream —
    /// emitted from the master thread only, with times in wall-clock
    /// seconds since run start; ctx.metrics the "async." instruments
    /// (`async.tc_seconds` holds the measured result latencies);
    /// ctx.recorder per-result checkpoints and the final snapshot.
    ThreadRunResult run(moea::BorgMoea& algorithm,
                        const problems::Problem& problem,
                        std::uint64_t evaluations,
                        const RunContext& ctx = {});

private:
    std::size_t workers_;
    IngestOrder ingest_;
};

} // namespace borg::parallel

#endif
