/// Tests for the heterogeneous evaluation-time models (DESIGN.md §17):
/// the straggler-fleet factory, the episodic slowdown phase machine, the
/// variable-cost (heritable T_F) model, and the generational drivers'
/// refusal of a model-carrying Setup.

#include "parallel/time_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "moea/nsga2.hpp"
#include "parallel/sync_executor.hpp"
#include "problems/problem.hpp"
#include "stats/distribution.hpp"

namespace {

using namespace borg;
using namespace borg::parallel;
using borg::stats::ConstantDistribution;
using borg::stats::make_delay;
using borg::util::Rng;

TEST(PerWorkerTimeModel, StragglerFleetClonesTailToEveryKth) {
    const ConstantDistribution body(1.0);
    const ConstantDistribution tail(10.0);
    const auto fleet =
        PerWorkerTimeModel::straggler_fleet(8, body, tail, /*every=*/4);
    Rng rng(1);
    for (std::size_t w = 0; w < 8; ++w) {
        TimeSampleContext ctx;
        ctx.worker = w;
        const double expected = w % 4 == 0 ? 10.0 : 1.0;
        EXPECT_DOUBLE_EQ(fleet->sample(rng, ctx), expected) << "worker " << w;
    }
    // A draw for a worker outside the fleet is a caller bug, not a wrap.
    TimeSampleContext beyond;
    beyond.worker = 8;
    EXPECT_THROW(fleet->sample(rng, beyond), std::out_of_range);
    EXPECT_THROW(PerWorkerTimeModel::straggler_fleet(0, body, tail, 4),
                 std::invalid_argument);
    EXPECT_THROW(PerWorkerTimeModel::straggler_fleet(8, body, tail, 0),
                 std::invalid_argument);
}

TEST(EpisodicSlowdown, PhasesAlternateAndResetRestoresThem) {
    // Constant base makes the phase visible in the sample value itself:
    // 1.0 nominal, 5.0 slowed. Walking the clock forward must alternate
    // phases at seed-deterministic times, the slowed() hook must agree
    // with the returned value, and reset() + a twin stream must replay
    // the identical sequence.
    const ConstantDistribution base(1.0);
    EpisodicSlowdownTimeModel model(&base, /*workers=*/1,
                                    /*mean_normal=*/1.0, /*mean_slow=*/1.0,
                                    /*slowdown=*/5.0);
    const auto walk = [&](Rng& rng) {
        std::vector<double> values;
        for (int i = 0; i < 400; ++i) {
            TimeSampleContext ctx;
            ctx.worker = 0;
            ctx.now = 0.1 * static_cast<double>(i);
            const double v = model.sample(rng, ctx);
            EXPECT_DOUBLE_EQ(v, model.slowed(0) ? 5.0 : 1.0);
            values.push_back(v);
        }
        return values;
    };
    Rng first_rng(7);
    const auto first = walk(first_rng);
    // Both phases must actually occur over 40 virtual seconds of mean-1
    // exponential phases (fixed seed: this is deterministic, not flaky).
    EXPECT_NE(std::count(first.begin(), first.end(), 5.0), 0);
    EXPECT_NE(std::count(first.begin(), first.end(), 1.0), 0);

    model.reset();
    EXPECT_FALSE(model.slowed(0));
    Rng second_rng(7);
    EXPECT_EQ(walk(second_rng), first);
}

TEST(EpisodicSlowdown, RejectsBadConstruction) {
    const ConstantDistribution base(1.0);
    EXPECT_THROW(EpisodicSlowdownTimeModel(nullptr, 1, 1.0, 1.0, 2.0),
                 std::invalid_argument);
    EXPECT_THROW(EpisodicSlowdownTimeModel(&base, 0, 1.0, 1.0, 2.0),
                 std::invalid_argument);
    EXPECT_THROW(EpisodicSlowdownTimeModel(&base, 1, 0.0, 1.0, 2.0),
                 std::invalid_argument);
    EXPECT_THROW(EpisodicSlowdownTimeModel(&base, 1, 1.0, 1.0, 0.5),
                 std::invalid_argument);
}

TEST(VariableCost, ScalesBaseDrawByCostOfVariables) {
    const ConstantDistribution base(2.0);
    VariableCostTimeModel model(&base, [](std::span<const double> x) {
        return 0.5 + x[0];
    });
    Rng rng(3);
    const std::vector<double> vars = {1.5};
    TimeSampleContext ctx;
    ctx.variables = vars;
    EXPECT_DOUBLE_EQ(model.sample(rng, ctx), 4.0); // 2.0 * (0.5 + 1.5)

    // No payload (statistics-only policies): the base draw, unscaled.
    TimeSampleContext bare;
    EXPECT_DOUBLE_EQ(model.sample(rng, bare), 2.0);

    // A cost function returning <= 0 is a modeling bug; fail loudly.
    VariableCostTimeModel broken(&base,
                                 [](std::span<const double>) { return 0.0; });
    EXPECT_THROW(broken.sample(rng, ctx), std::domain_error);
}

TEST(TimeModelScope, GenerationalDriversRefuseAModel) {
    // TimeModels are event-path only: the barrier drivers price whole
    // batches through the flat tf stream, so a model-carrying Setup is a
    // configuration error there, not a silent ignore.
    const auto problem = problems::make_problem("zdt1");
    const auto tf = make_delay(0.01, 0.0);
    const auto tc = make_delay(0.000006, 0.0);
    const auto ta = make_delay(0.000029, 0.0);
    const auto model = PerWorkerTimeModel::straggler_fleet(
        4, *tf, *tf, /*every=*/4);
    VirtualClusterConfig cfg(4, tf.get(), tc.get(), ta.get(), 5);
    cfg.time_model = model.get();
    moea::Nsga2 algo(*problem, 8, 8);
    SyncMasterSlaveExecutor exec(algo, *problem, cfg);
    EXPECT_THROW(exec.run(64), std::invalid_argument);
}

} // namespace
