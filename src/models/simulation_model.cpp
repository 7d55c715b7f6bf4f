#include "models/simulation_model.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "obs/event_trace.hpp"
#include "parallel/cluster_engine.hpp"
#include "util/rng.hpp"

namespace borg::models {

namespace {

using parallel::ClusterEngine;
using parallel::EventMasterPolicy;
using parallel::GenerationalMasterPolicy;
using parallel::WorkItem;
using parallel::WorkerRef;

void validate(const SimulationConfig& config) {
    if (config.evaluations == 0)
        throw std::invalid_argument("simulation: evaluations == 0");
    if (config.processors < 2)
        throw std::invalid_argument("simulation: need P >= 2");
    if (!config.tf || !config.tc || !config.ta)
        throw std::invalid_argument("simulation: missing distribution");
}

ClusterEngine::Setup engine_setup(const SimulationConfig& config) {
    return {.cluster = {config.processors, config.tf, config.tc, config.ta,
                        config.seed}};
}

/// The paper's SimPy fragment as a master policy: nothing real is
/// computed — work items are empty claims on the evaluation budget, and
/// every cost is a pure distribution draw. Running it through the same
/// ClusterEngine as the real-algorithm executors is what makes the
/// model-vs-experiment comparison share scheduling code (DESIGN.md §10).
class SimAsyncPolicy final : public EventMasterPolicy {
public:
    const char* prefix() const noexcept override { return "sim_async"; }

    std::optional<WorkItem>
    dispatch_initial(ClusterEngine& engine, const WorkerRef& worker) override {
        (void)worker;
        if (!claim(engine)) return std::nullopt;
        return WorkItem{};
    }

    void evaluate(WorkItem& work) override { (void)work; }

    Service serve(ClusterEngine& engine, const WorkerRef& worker,
                  WorkItem work) override {
        (void)work;
        const auto actor = static_cast<std::int64_t>(worker.global);
        // Return the result (T_C), master ingests it and generates the
        // next offspring (T_A), master sends the new offspring back (T_C).
        const double tc1 = engine.sample_tc(worker.group, actor);
        const double ta = engine.sample_ta(worker.group, actor, 0.0);
        const double tc2 = engine.sample_tc(worker.group, actor);
        std::optional<WorkItem> next;
        if (claim(engine)) next = WorkItem{};
        return {tc1 + ta + tc2, std::move(next)};
    }

    void on_worker_failure(ClusterEngine& engine,
                           const WorkerRef& worker) override {
        (void)engine;
        (void)worker;
        --dispatched_;
    }

    void record_result(ClusterEngine& engine,
                       const WorkerRef& worker) override {
        if (auto* trace = engine.trace())
            trace->record({obs::EventKind::result, engine.now(),
                           static_cast<std::int64_t>(worker.global), 0.0,
                           engine.completed()});
    }

private:
    bool claim(ClusterEngine& engine) {
        if (dispatched_ >= engine.target()) return false;
        ++dispatched_;
        return true;
    }

    std::uint64_t dispatched_ = 0;
};

/// The synchronous protocol of Figure 1, statistics-only: per generation
/// min(P, remaining) offspring, one on the master itself, T_F drawn
/// lazily during the send sweep (preserving the historical tc/tf draw
/// interleaving), T_A^sync = one draw per offspring.
class SimSyncPolicy final : public GenerationalMasterPolicy {
public:
    explicit SimSyncPolicy(const SimulationConfig& config)
        : config_(config) {}

    const char* prefix() const noexcept override { return "sim_sync"; }

    Plan plan(ClusterEngine& engine, std::uint64_t completed,
              std::uint64_t target,
              const std::vector<std::size_t>& alive_workers) override {
        (void)engine;
        const std::uint64_t remaining = target - completed;
        const std::size_t batch = static_cast<std::size_t>(
            std::min<std::uint64_t>(remaining, alive_workers.size() + 1));
        return {batch, batch};
    }

    double node_eval_time(ClusterEngine& engine, double at,
                          std::size_t node) override {
        return engine.gen_sample_tf(0, at, static_cast<std::int64_t>(node),
                                    1.0);
    }

    Ingest ingest(ClusterEngine& engine, std::size_t batch) override {
        double ta_sync = 0.0;
        for (std::size_t i = 0; i < batch; ++i)
            ta_sync += config_.ta->sample(engine.group_rng(0));
        return {ta_sync, ta_sync / static_cast<double>(batch)};
    }

private:
    const SimulationConfig& config_;
};

} // namespace

parallel::VirtualRunResult simulate_async(const SimulationConfig& config,
                                          const parallel::RunContext& ctx) {
    validate(config);
    ClusterEngine engine(engine_setup(config), ctx);
    SimAsyncPolicy policy;
    return engine.run_events(policy, config.evaluations);
}

parallel::VirtualRunResult simulate_sync(const SimulationConfig& config,
                                         const parallel::RunContext& ctx) {
    validate(config);
    ClusterEngine engine(engine_setup(config), ctx);
    SimSyncPolicy policy(config);
    return engine.run_generational(policy, config.evaluations);
}

double simulated_efficiency(const SimulationConfig& config,
                            const parallel::VirtualRunResult& result) {
    const TimingCosts costs{config.tf->mean(), config.tc->mean(),
                            config.ta->mean()};
    const double ts = serial_time(config.evaluations, costs);
    return ts / (static_cast<double>(config.processors) * result.elapsed);
}

} // namespace borg::models
