#include "parallel/async_executor.hpp"

#include <chrono>
#include <stdexcept>
#include <utility>

#include "parallel/cluster_engine.hpp"
#include "parallel/master_policies.hpp"
#include "stats/summary.hpp"
#include "util/rng.hpp"

namespace borg::parallel {

namespace {

using SteadyClock = std::chrono::steady_clock;

} // namespace

AsyncMasterSlaveExecutor::AsyncMasterSlaveExecutor(
    moea::BorgMoea& algorithm, const problems::Problem& problem,
    VirtualClusterConfig config)
    : algorithm_(algorithm), problem_(problem), config_(config) {
    validate(config_);
}

VirtualRunResult AsyncMasterSlaveExecutor::run(std::uint64_t evaluations,
                                               const RunContext& ctx) {
    if (evaluations == 0)
        throw std::invalid_argument("async executor: evaluations == 0");
    if (algorithm_.evaluations() != 0)
        throw std::logic_error("async executor: algorithm already used");

    ClusterEngine engine({.cluster = config_}, ctx);
    AsyncBorgPolicy policy(algorithm_, problem_);
    return engine.run_events(policy, evaluations);
}

VirtualRunResult run_serial_virtual(moea::BorgMoea& algorithm,
                                    const problems::Problem& problem,
                                    const VirtualClusterConfig& config,
                                    std::uint64_t evaluations,
                                    const RunContext& ctx) {
    if (!config.tf)
        throw std::invalid_argument("serial virtual: missing T_F distribution");
    if (evaluations == 0)
        throw std::invalid_argument("serial virtual: evaluations == 0");

    TrajectoryRecorder* recorder = ctx.recorder;
    util::Rng rng(config.seed);
    stats::Accumulator ta_acc, tf_acc;
    double now = 0.0;

    for (std::uint64_t i = 0; i < evaluations; ++i) {
        const auto t0 = SteadyClock::now();
        const moea::SolutionHandle offspring =
            algorithm.next_offspring_handle();
        const auto t1 = SteadyClock::now();
        moea::evaluate(problem, algorithm.pool(), offspring);
        const auto t2 = SteadyClock::now();
        algorithm.receive_handle(offspring);
        const auto t3 = SteadyClock::now();
        // Measured T_A covers generate + receive — the calls the parallel
        // master's serve() times — excluding the real evaluation in the
        // middle (that time belongs to T_F).
        const double generate_and_receive =
            std::chrono::duration<double>((t1 - t0) + (t3 - t2)).count();
        const double ta = config.ta ? config.ta->sample(rng)
                                    : generate_and_receive;
        const double tf = config.tf->sample(rng);
        ta_acc.add(ta);
        tf_acc.add(tf);
        now += tf + ta;
        if (recorder)
            recorder->on_result(now, i + 1, [&] {
                return algorithm.archive().objective_vectors();
            });
    }

    VirtualRunResult result;
    result.evaluations = evaluations;
    result.completed_target = true;
    result.elapsed = now;
    result.master_busy_fraction = 1.0;
    result.ta_applied = stats::to_summary(ta_acc);
    result.tf_applied = stats::to_summary(tf_acc);
    if (recorder)
        recorder->finalize(now, evaluations, [&] {
            return algorithm.archive().objective_vectors();
        });
    return result;
}

} // namespace borg::parallel
