#ifndef BORG_PARALLEL_VIRTUAL_CLUSTER_HPP
#define BORG_PARALLEL_VIRTUAL_CLUSTER_HPP

/// \file virtual_cluster.hpp
/// The cluster description and run result of every virtual-time run: the
/// executors hand their VirtualClusterConfig to the ClusterEngine
/// unchanged, and the engine, the executors and the simulation model all
/// report a VirtualRunResult.
///
/// SUBSTITUTION (DESIGN.md §2): the paper ran on TACC Ranger over MPI. We
/// replace the physical cluster with executors that run the *real*
/// algorithm while the clock is simulated: worker evaluation, message
/// transfer and master processing advance a discrete-event virtual clock
/// using configured distributions (T_F, T_C) and either a configured or a
/// *measured* master overhead (T_A). Because the asynchronous protocol's
/// behaviour is a pure function of event ordering, the virtual executor
/// reproduces the Ranger runs' elapsed time, efficiency, and algorithm
/// dynamics without 1024 physical cores.

#include <cstdint>
#include <vector>

#include "stats/distribution.hpp"
#include "stats/summary.hpp"

namespace borg::parallel {

class TimeModel;

struct VirtualClusterConfig {
    VirtualClusterConfig() = default;
    /// Homogeneous, failure-free cluster (the common case; set
    /// worker_speed / worker_failure_at afterwards for the rest).
    VirtualClusterConfig(std::uint64_t processors_,
                         const stats::Distribution* tf_,
                         const stats::Distribution* tc_,
                         const stats::Distribution* ta_,
                         std::uint64_t seed_)
        : processors(processors_), tf(tf_), tc(tc_), ta(ta_), seed(seed_) {}

    /// Total processors P: one master + P-1 workers. P >= 2.
    std::uint64_t processors = 2;
    /// Function evaluation time distribution (required unless a
    /// `time_model` is set).
    const stats::Distribution* tf = nullptr;
    /// One-way communication time distribution (required).
    const stats::Distribution* tc = nullptr;
    /// Master algorithm-overhead distribution. nullptr means "measure":
    /// the executor times the real master step (receive + generate) on the
    /// host CPU and uses that as the virtual T_A — the mode that mirrors
    /// how the paper collected T_A on Ranger.
    const stats::Distribution* ta = nullptr;
    /// Seed for the executor's own sampling streams.
    std::uint64_t seed = 1;

    /// Optional heterogeneous T_F model (time_model.hpp, DESIGN.md §17):
    /// per-worker / per-solution evaluation-time draws replacing the flat
    /// `tf` × `worker_speed` scheme (which is then ignored for T_F).
    /// Non-owning; must outlive the run. Event-path executors only.
    TimeModel* time_model = nullptr;

    /// Optional heterogeneity: per-worker evaluation-speed multipliers
    /// (worker w's sampled T_F is scaled by worker_speed[w]; 1.0 = nominal,
    /// 2.0 = half-speed straggler). Empty means homogeneous. When set, the
    /// size must equal the worker count (processors - 1).
    std::vector<double> worker_speed;

    /// Optional fault injection: virtual time at which worker w permanently
    /// fails. A failing worker returns its unclaimed work to the pool and
    /// retires before starting its next evaluation (modeling the master's
    /// timeout-and-redispatch recovery); remaining workers absorb the load.
    /// Empty means no failures; +infinity entries never fail. When set, the
    /// size must equal the worker count.
    std::vector<double> worker_failure_at;
};

struct VirtualRunResult {
    double elapsed = 0.0; ///< virtual seconds until the N-th result landed
    std::uint64_t evaluations = 0; ///< results ingested (< requested if
                                   ///< every worker failed first)
    /// True iff the requested evaluation count was reached. False means the
    /// run starved — e.g. every worker hit its injected failure time before
    /// the target (total fleet loss) — and `elapsed` is then the time the
    /// last event fired, not a completion time. Callers must check this
    /// rather than inferring completion from `elapsed` or `evaluations`.
    bool completed_target = false;
    std::size_t failed_workers = 0;
    double master_busy_fraction = 0.0;
    double mean_queue_wait = 0.0;
    double contention_rate = 0.0;
    /// The T_A values actually applied (sampled or measured), summarized.
    stats::Summary ta_applied;
    /// The T_F values actually applied, summarized.
    stats::Summary tf_applied;
};

/// Throws std::invalid_argument unless the config is usable (ta may be
/// null; tf and tc may not). The single-master form sizes the per-worker
/// arrays against processors - 1; topologies with more than one master
/// pass their actual worker count explicitly.
void validate(const VirtualClusterConfig& config);
void validate(const VirtualClusterConfig& config, std::uint64_t workers);

} // namespace borg::parallel

#endif
