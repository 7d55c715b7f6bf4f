#include "parallel/sync_executor.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>
#include <vector>

#include "parallel/cluster_engine.hpp"
#include "util/rng.hpp"

namespace borg::parallel {

namespace {

using SteadyClock = std::chrono::steady_clock;

/// The Figure 1 generational protocol as a barrier policy: one
/// next_generation() per plan, offspring assigned round-robin across the
/// master and the surviving workers, whole-generation ingest through
/// receive_generation (DESIGN.md §10).
class SyncBorgPolicy final : public GenerationalMasterPolicy {
public:
    SyncBorgPolicy(moea::GenerationalMoea& algorithm,
                   const problems::Problem& problem,
                   const VirtualClusterConfig& config)
        : algorithm_(algorithm), problem_(problem), config_(config) {}

    const char* prefix() const noexcept override { return "sync"; }

    Plan plan(ClusterEngine& engine, std::uint64_t completed,
              std::uint64_t target,
              const std::vector<std::size_t>& alive_workers) override {
        (void)completed;
        (void)target;
        generation_ = algorithm_.next_generation();
        const std::size_t batch = generation_.size();
        if (batch == 0)
            throw std::logic_error("sync executor: empty generation");

        // Round-robin assignment; node 0 is the master (nominal speed),
        // node k >= 1 is the k-th surviving worker.
        const std::size_t nodes = std::min(alive_workers.size() + 1, batch);
        node_eval_.assign(nodes, 0.0);
        for (std::size_t i = 0; i < batch; ++i) {
            moea::evaluate(problem_, generation_[i]);
            const std::size_t node = i % nodes;
            const double speed =
                node == 0 ? 1.0 : engine.speed_of(alive_workers[node - 1]);
            node_eval_[node] += engine.gen_sample_tf(
                0, engine.now(), static_cast<std::int64_t>(node), speed);
        }
        return {batch, nodes};
    }

    double node_eval_time(ClusterEngine& engine, double at,
                          std::size_t node) override {
        (void)engine;
        (void)at;
        return node_eval_[node];
    }

    Ingest ingest(ClusterEngine& engine, std::size_t batch) override {
        // Whole-generation processing: measured, or one T_A per offspring.
        const auto t0 = SteadyClock::now();
        algorithm_.receive_generation(std::move(generation_));
        const double measured =
            std::chrono::duration<double>(SteadyClock::now() - t0).count();
        double ta_sync = 0.0;
        if (config_.ta) {
            for (std::size_t i = 0; i < batch; ++i)
                ta_sync += config_.ta->sample(engine.group_rng(0));
        } else {
            ta_sync = measured;
        }
        return {ta_sync, ta_sync / static_cast<double>(batch)};
    }

    void record_generation(ClusterEngine& engine, double now,
                           std::uint64_t completed) override {
        if (auto* recorder = engine.recorder())
            recorder->on_result(now, completed,
                                [this] { return algorithm_.front(); });
    }

    void finalize(ClusterEngine& engine,
                  const VirtualRunResult& result) override {
        if (auto* recorder = engine.recorder())
            recorder->finalize(result.elapsed, result.evaluations,
                               [this] { return algorithm_.front(); });
    }

private:
    moea::GenerationalMoea& algorithm_;
    const problems::Problem& problem_;
    const VirtualClusterConfig& config_;
    std::vector<moea::Solution> generation_;
    std::vector<double> node_eval_; ///< summed T_F per node, this generation
};

} // namespace

SyncMasterSlaveExecutor::SyncMasterSlaveExecutor(
    moea::GenerationalMoea& algorithm, const problems::Problem& problem,
    VirtualClusterConfig config)
    : algorithm_(algorithm), problem_(problem), config_(config) {
    validate(config_);
}

VirtualRunResult SyncMasterSlaveExecutor::run(std::uint64_t evaluations,
                                              const RunContext& ctx) {
    if (evaluations == 0)
        throw std::invalid_argument("sync executor: evaluations == 0");
    if (algorithm_.evaluations() != 0)
        throw std::logic_error("sync executor: algorithm already used");
    if (config_.time_model != nullptr)
        throw std::invalid_argument(
            "sync executor: TimeModel is event-path only (the barrier "
            "driver prices batches through the flat tf stream)");

    ClusterEngine engine({.cluster = config_}, ctx);
    SyncBorgPolicy policy(algorithm_, problem_, config_);
    return engine.run_generational(policy, evaluations);
}

} // namespace borg::parallel
