#include "parallel/multi_master.hpp"

#include <chrono>
#include <stdexcept>
#include <utility>

#include "des/resource.hpp"
#include "obs/event_trace.hpp"
#include "obs/metrics_registry.hpp"
#include "parallel/cluster_engine.hpp"
#include "parallel/master_policies.hpp"
#include "util/rng.hpp"

namespace borg::parallel {

namespace {

using SteadyClock = std::chrono::steady_clock;

double seconds_since(SteadyClock::time_point start) {
    return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

/// The hierarchical topology as a master policy: one engine group per
/// island, each running the asynchronous Borg protocol against its own
/// algorithm instance, with ring migrations launched after results
/// (DESIGN.md §10). The evaluation budget is global — faster islands
/// claim more of it.
class IslandRingPolicy final : public EventMasterPolicy {
public:
    IslandRingPolicy(const problems::Problem& problem,
                     const moea::BorgParams& params,
                     const MultiMasterConfig& config)
        : config_(config) {
        islands_.reserve(config.islands);
        for (std::size_t i = 0; i < config.islands; ++i) {
            Island island;
            island.algorithm = std::make_unique<moea::BorgMoea>(
                problem, params,
                util::derive_seed(config.cluster.seed, i, 100));
            islands_.push_back(std::move(island));
        }
    }

    const char* prefix() const noexcept override { return "mm"; }

    /// Multi-master traces identify work through per-island result/hold
    /// events; the per-draw sample mirror stays off, as it always has.
    bool trace_samples() const noexcept override { return false; }

    std::optional<WorkItem>
    dispatch_initial(ClusterEngine& engine, const WorkerRef& worker) override {
        if (!claim(engine)) return std::nullopt;
        return offspring_work(*islands_[worker.group].algorithm);
    }

    void evaluate(WorkItem& work) override {
        const moea::BorgMoea& any = *islands_.front().algorithm;
        moea::evaluate(any.problem(), *work.pool, work.handle);
    }

    Service serve(ClusterEngine& engine, const WorkerRef& worker,
                  WorkItem work) override {
        Island& island = islands_[worker.group];
        const auto start = SteadyClock::now();
        island.algorithm->receive_handle(work.handle);
        std::optional<WorkItem> next;
        if (claim(engine)) next = offspring_work(*island.algorithm);
        const double measured = seconds_since(start);
        const auto actor = static_cast<std::int64_t>(worker.group);
        // Protocol order: result message, ingest + generate, fresh-work
        // message — all charged to this island's master.
        const double tc1 = engine.sample_tc(worker.group, actor);
        const double ta = engine.sample_ta(worker.group, actor, measured);
        const double tc2 = engine.sample_tc(worker.group, actor);
        return {tc1 + ta + tc2, std::move(next)};
    }

    void on_worker_failure(ClusterEngine& engine,
                           const WorkerRef& worker) override {
        (void)engine;
        (void)worker;
        --dispatched_; // the lost offspring's claim returns to the pool
    }

    void record_result(ClusterEngine& engine,
                       const WorkerRef& worker) override {
        ++islands_[worker.group].since_migration;
        if (auto* trace = engine.trace())
            trace->record({obs::EventKind::result, engine.now(),
                           static_cast<std::int64_t>(worker.group), 0.0,
                           engine.completed()});
    }

    void after_result(ClusterEngine& engine,
                      const WorkerRef& worker) override {
        Island& island = islands_[worker.group];
        const std::uint64_t interval = config_.migration_interval;
        if (interval > 0 && island.since_migration >= interval &&
            islands_.size() > 1) {
            island.since_migration = 0;
            const std::size_t to = (worker.group + 1) % islands_.size();
            engine.env().spawn(migrate(engine, worker.group, to));
        }
    }

    /// Multi-master worker_spawn shape: actor = island, count = local slot.
    void record_spawn(ClusterEngine& engine,
                      const WorkerRef& worker) override {
        if (auto* trace = engine.trace())
            trace->record({obs::EventKind::worker_spawn, engine.now(),
                           static_cast<std::int64_t>(worker.group), 0.0,
                           worker.local});
    }

    void publish_extra_metrics(ClusterEngine& engine,
                               obs::MetricsRegistry& metrics) override {
        (void)engine;
        metrics.counter("mm.migrations").inc(migrations_);
    }

    std::uint64_t migrations() const noexcept { return migrations_; }

    const moea::EpsilonBoxArchive& island_archive(std::size_t i) const {
        return islands_[i].algorithm->archive();
    }

private:
    struct Island {
        std::unique_ptr<moea::BorgMoea> algorithm;
        std::uint64_t since_migration = 0;
    };

    bool claim(ClusterEngine& engine) {
        if (dispatched_ >= engine.target()) return false;
        ++dispatched_;
        return true;
    }

    /// Delivers one migrant into the target island through its master,
    /// charged T_C (message) + T_A (ingestion) of master hold time.
    des::Process migrate(ClusterEngine& engine, std::size_t from,
                         std::size_t to) {
        des::Environment& env = engine.env();
        const auto& archive = islands_[from].algorithm->archive();
        if (archive.empty()) co_return;
        // The copy is taken at launch: the source archive may change while
        // the migrant waits for the target master.
        moea::BorgMoea& target = *islands_[to].algorithm;
        const moea::SolutionHandle migrant = target.pool().store(
            archive[static_cast<std::size_t>(
                engine.group_rng(from).below(archive.size()))]);

        const double wait_start = env.now();
        co_await engine.group_master(to).acquire();
        engine.add_wait(env.now() - wait_start);
        const auto start = SteadyClock::now();
        target.receive_handle(migrant);
        const double measured = seconds_since(start);
        const auto actor = static_cast<std::int64_t>(to);
        const double tc = engine.sample_tc(to, actor);
        const double ta = engine.sample_ta(to, actor, measured);
        const double hold = tc + ta;
        engine.add_hold(to, hold);
        co_await env.delay(hold);
        engine.group_master(to).release();
        ++migrations_;
        if (auto* trace = engine.trace())
            trace->record({obs::EventKind::migration, env.now(), actor, 0.0,
                           migrations_});
    }

    const MultiMasterConfig& config_;
    std::vector<Island> islands_;
    std::uint64_t dispatched_ = 0;
    std::uint64_t migrations_ = 0;
};

} // namespace

MultiMasterExecutor::MultiMasterExecutor(const problems::Problem& problem,
                                         moea::BorgParams params,
                                         MultiMasterConfig config)
    : problem_(problem), params_(std::move(params)), config_(config) {
    if (config_.islands == 0)
        throw std::invalid_argument("multi-master: need >= 1 island");
    if (config_.cluster.processors < 2 * config_.islands)
        throw std::invalid_argument(
            "multi-master: need >= 2 processors per island");
    validate(config_.cluster, config_.cluster.processors - config_.islands);
}

MultiMasterResult MultiMasterExecutor::run(std::uint64_t evaluations,
                                           const RunContext& ctx) {
    if (evaluations == 0)
        throw std::invalid_argument("multi-master: evaluations == 0");
    if (used_) throw std::logic_error("multi-master: executor already used");
    used_ = true;

    // Split processors: each island gets a master; workers are distributed
    // as evenly as possible.
    const std::uint64_t islands = config_.islands;
    const std::uint64_t total_workers = config_.cluster.processors - islands;

    ClusterEngine::Setup setup;
    setup.tf = config_.cluster.tf;
    setup.time_model = config_.cluster.time_model;
    setup.tc = config_.cluster.tc;
    setup.ta = config_.cluster.ta;
    setup.processors = config_.cluster.processors;
    setup.worker_speed = config_.cluster.worker_speed;
    setup.worker_failure_at = config_.cluster.worker_failure_at;
    setup.queue = config_.cluster.queue;
    for (std::size_t i = 0; i < islands; ++i) {
        const std::uint64_t workers =
            total_workers / islands + (i < total_workers % islands ? 1 : 0);
        setup.groups.push_back(
            {workers, util::derive_seed(config_.cluster.seed, i, 200),
             static_cast<std::int64_t>(i)});
    }

    ClusterEngine engine(std::move(setup), ctx);
    IslandRingPolicy policy(problem_, params_, config_);
    MultiMasterResult result;
    static_cast<VirtualRunResult&>(result) =
        engine.run_events(policy, evaluations);

    result.migrations = policy.migrations();
    moea::EpsilonBoxArchive combined(params_.epsilons);
    for (std::size_t i = 0; i < islands; ++i) {
        result.island_evaluations.push_back(engine.group_evaluations(i));
        result.island_busy_fraction.push_back(
            result.elapsed > 0.0 ? engine.group_hold(i) / result.elapsed
                                 : 0.0);
        combined.add_all(policy.island_archive(i).solutions());
    }
    result.combined_archive = combined.solutions();
    return result;
}

} // namespace borg::parallel
