#ifndef BORG_PARALLEL_TIME_MODEL_HPP
#define BORG_PARALLEL_TIME_MODEL_HPP

/// \file time_model.hpp
/// Heterogeneous evaluation-time models for the bias lab (DESIGN.md §17).
///
/// The paper samples T_F i.i.d. from one distribution, optionally scaled by
/// a per-worker speed multiplier. Real fleets are messier: per-worker
/// distributions (a few chronically slow nodes), correlated slowdown
/// episodes (a worker drops to half speed for a while, then recovers), and
/// per-solution cost (the decision variables determine how expensive the
/// evaluation is — the regime where asynchronous selection bias becomes
/// heritable). A TimeModel generalizes the flat `tf`-distribution ×
/// `worker_speed` scheme to a per-draw policy over (worker, time,
/// solution).
///
/// Determinism contract: a model draws all randomness from the engine
/// stream it is handed (the worker's group stream), never from hidden
/// state, so fixed seeds reproduce byte-identical schedules exactly as
/// with flat distributions. Models may keep mutable *state* (the episodic
/// model's per-worker on/off phase) as long as every transition is driven
/// by stream draws at deterministic times. A model instance is therefore
/// bound to one engine run at a time; reuse across runs requires reset().
///
/// TimeModels are event-path only: the generational drivers price whole
/// batches through the flat tf stream and refuse a Setup carrying a model.

#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "stats/distribution.hpp"
#include "util/rng.hpp"

namespace borg::parallel {

/// Everything a model may condition one T_F draw on.
struct TimeSampleContext {
    /// Global worker index (engine-wide spawn order).
    std::size_t worker = 0;
    /// Virtual time of the draw.
    double now = 0.0;
    /// Decision variables of the solution being evaluated; empty when the
    /// work item carries no payload (statistics-only policies).
    std::span<const double> variables;
};

/// Per-draw evaluation-time policy. sample() is non-const because some
/// models carry evolving state (episodes); reset() restores the
/// construction state so one model object can serve several runs.
class TimeModel {
public:
    virtual ~TimeModel() = default;
    virtual double sample(util::Rng& rng, const TimeSampleContext& ctx) = 0;
    virtual void reset() {}
    virtual std::string describe() const = 0;
};

/// One distribution per worker — chronic heterogeneity (straggler nodes
/// with lognormal/Pareto tails next to nominal cv = 0.1 nodes).
class PerWorkerTimeModel final : public TimeModel {
public:
    /// One owned distribution per global worker index.
    explicit PerWorkerTimeModel(
        std::vector<std::unique_ptr<stats::Distribution>> per_worker);

    /// Convenience: \p workers nodes where every \p every -th (0, every,
    /// 2·every, …) draws from \p tail and the rest from \p body.
    static std::unique_ptr<PerWorkerTimeModel>
    straggler_fleet(std::size_t workers, const stats::Distribution& body,
                    const stats::Distribution& tail, std::size_t every);

    double sample(util::Rng& rng, const TimeSampleContext& ctx) override;
    std::string describe() const override;

private:
    std::vector<std::unique_ptr<stats::Distribution>> per_worker_;
};

/// Correlated slowdown episodes: each worker alternates between a nominal
/// phase and a slowed phase (all draws multiplied by `slowdown`), with
/// exponentially distributed phase durations advanced lazily against the
/// virtual clock. Models GC pauses, co-tenant interference, thermal
/// throttling — anything that makes consecutive draws on one node
/// correlated instead of i.i.d.
class EpisodicSlowdownTimeModel final : public TimeModel {
public:
    /// \p base must outlive the model. \p mean_normal / \p mean_slow are
    /// the expected phase durations (virtual seconds); \p slowdown > 1
    /// multiplies draws made during a slow phase.
    EpisodicSlowdownTimeModel(const stats::Distribution* base,
                              std::size_t workers, double mean_normal,
                              double mean_slow, double slowdown);
    double sample(util::Rng& rng, const TimeSampleContext& ctx) override;
    void reset() override;
    std::string describe() const override;

    /// Test hook: whether \p worker is currently in a slow phase.
    bool slowed(std::size_t worker) const { return states_[worker].slowed; }

private:
    struct WorkerState {
        bool started = false; ///< first-phase duration not yet drawn
        bool slowed = false;
        double until = 0.0; ///< end of the current phase
    };

    const stats::Distribution* base_;
    double mean_normal_, mean_slow_, slowdown_;
    std::vector<WorkerState> states_;
};

/// Decision-variable-dependent cost: base draw × cost(variables). This is
/// the regime where evaluation time is *heritable* — offspring of cheap
/// parents tend to be cheap — so asynchronous selection bias compounds
/// across generations instead of washing out. Work items without a
/// payload cost the base draw unscaled.
class VariableCostTimeModel final : public TimeModel {
public:
    using CostFn = std::function<double(std::span<const double>)>;

    /// \p base must outlive the model; \p cost maps decision variables to
    /// a positive multiplier.
    VariableCostTimeModel(const stats::Distribution* base, CostFn cost);
    double sample(util::Rng& rng, const TimeSampleContext& ctx) override;
    std::string describe() const override;

private:
    const stats::Distribution* base_;
    CostFn cost_;
};

} // namespace borg::parallel

#endif
