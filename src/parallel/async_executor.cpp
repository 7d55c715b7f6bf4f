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

    ClusterEngine::Setup setup;
    setup.tf = config_.tf;
    setup.time_model = config_.time_model;
    setup.tc = config_.tc;
    setup.ta = config_.ta;
    setup.processors = config_.processors;
    setup.worker_speed = config_.worker_speed;
    setup.worker_failure_at = config_.worker_failure_at;
    setup.queue = config_.queue;
    setup.groups = {{config_.processors - 1, config_.seed, 0}};

    ClusterEngine engine(std::move(setup), ctx);
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
    result.ta_applied.count = ta_acc.count();
    result.ta_applied.mean = ta_acc.mean();
    result.ta_applied.stddev = ta_acc.stddev();
    result.ta_applied.min = ta_acc.min();
    result.ta_applied.max = ta_acc.max();
    result.tf_applied.count = tf_acc.count();
    result.tf_applied.mean = tf_acc.mean();
    result.tf_applied.stddev = tf_acc.stddev();
    result.tf_applied.min = tf_acc.min();
    result.tf_applied.max = tf_acc.max();
    if (recorder)
        recorder->finalize(now, evaluations, [&] {
            return algorithm.archive().objective_vectors();
        });
    return result;
}

} // namespace borg::parallel
