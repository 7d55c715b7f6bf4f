#ifndef BORG_PARALLEL_MULTI_MASTER_HPP
#define BORG_PARALLEL_MULTI_MASTER_HPP

/// \file multi_master.hpp
/// Hierarchical (multi-master) topology — the paper's proposed remedy for
/// master saturation.
///
/// Section VI observes that when T_F is small relative to 2 T_C + T_A, a
/// single master saturates long before the available processor count, and
/// suggests running "several smaller, concurrently-running master-slave
/// instances ... each on a distinct subset of the available processors",
/// sized with the simulation model. The conclusion names an adaptive
/// island topology as future work. This executor implements that design
/// point on the virtual-time cluster:
///
///  * P processors are split into `islands` independent asynchronous
///    master-slave Borg instances (each 1 master + subset workers);
///  * every `migration_interval` results (per island), the island sends a
///    copy of a random ε-archive member to its ring neighbour; migrants
///    enter through the neighbour master's normal receive_handle() path
///    and are charged T_C (message) + T_A (ingestion) of master hold
///    time — the honest cost of the hierarchy;
///  * the final result merges all island archives into one global
///    ε-dominance archive.
///
/// With one island this degenerates exactly to AsyncMasterSlaveExecutor's
/// protocol, which the tests use as a consistency anchor.

#include <cstdint>
#include <memory>
#include <vector>

#include "moea/borg.hpp"
#include "moea/epsilon_archive.hpp"
#include "parallel/run_context.hpp"
#include "parallel/virtual_cluster.hpp"

namespace borg::parallel {

struct MultiMasterConfig {
    VirtualClusterConfig cluster; ///< total P; islands share tf/tc/ta
    std::uint64_t islands = 2;    ///< number of master-slave instances
    /// Results ingested per island between outgoing migrations; 0 disables
    /// migration entirely (fully independent islands).
    std::uint64_t migration_interval = 1000;
};

/// The base carries the engine's uniform accounting (elapsed, evaluations,
/// completed_target, failed workers, aggregate busy fraction across all
/// island masters, queue wait, contention, applied T_F/T_A summaries);
/// the extension is per-island and topology-specific.
struct MultiMasterResult : VirtualRunResult {
    std::uint64_t migrations = 0; ///< migrant solutions exchanged
    std::vector<std::uint64_t> island_evaluations;
    std::vector<double> island_busy_fraction;
    /// Merged ε-Pareto approximation across all islands.
    std::vector<moea::Solution> combined_archive;
};

class MultiMasterExecutor {
public:
    /// \p problem must outlive the executor. Requires
    /// cluster.processors >= 2 * islands (every island needs a master and
    /// at least one worker).
    MultiMasterExecutor(const problems::Problem& problem,
                        moea::BorgParams params, MultiMasterConfig config);

    /// Runs until \p evaluations results have been ingested in total
    /// (divided dynamically across islands — faster islands do more).
    /// ctx.trace, if given, receives the typed event stream with each
    /// island's master resource identified by its island index in the
    /// `actor` field, plus `migration` events (DESIGN.md §8); ctx.metrics
    /// receives instruments under the "mm." prefix.
    ///
    /// worker_speed / worker_failure_at are indexed by global worker slot
    /// (cluster.processors - islands entries, island-major in spawn
    /// order). Failed workers retire exactly as in the asynchronous
    /// executor; an island whose workers all fail goes quiet while the
    /// others keep claiming the global budget.
    MultiMasterResult run(std::uint64_t evaluations,
                          const RunContext& ctx = {});

private:
    const problems::Problem& problem_;
    moea::BorgParams params_;
    MultiMasterConfig config_;
    bool used_ = false;
};

} // namespace borg::parallel

#endif
