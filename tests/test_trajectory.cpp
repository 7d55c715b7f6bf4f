#include "parallel/trajectory.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "problems/reference_set.hpp"

namespace {

using namespace borg;
using namespace borg::parallel;

struct Fixture : ::testing::Test {
    Fixture()
        : refset(problems::zdt1_reference_set(200)), normalizer(refset) {}

    /// Front with a tunable quality knob: shift the true front outward.
    metrics::Front shifted_front(double shift) const {
        metrics::Front out;
        for (const auto& p : refset)
            out.push_back({p[0] + shift, p[1] + shift});
        return out;
    }

    problems::ReferenceSet refset;
    metrics::HypervolumeNormalizer normalizer;
};

TEST_F(Fixture, CheckpointsAtInterval) {
    TrajectoryRecorder recorder(normalizer, 100);
    int supplier_calls = 0;
    auto supplier = [&] {
        ++supplier_calls;
        return shifted_front(0.1);
    };
    for (std::uint64_t e = 1; e <= 1000; ++e)
        recorder.on_result(0.001 * static_cast<double>(e), e, supplier);
    EXPECT_EQ(recorder.points().size(), 10u);
    EXPECT_EQ(supplier_calls, 10); // supplier only invoked at checkpoints
}

TEST_F(Fixture, SkipsToLatestWhenResultsArriveInBursts) {
    TrajectoryRecorder recorder(normalizer, 10);
    auto supplier = [&] { return shifted_front(0.1); };
    // One callback jumps far past several checkpoints.
    recorder.on_result(1.0, 55, supplier);
    EXPECT_EQ(recorder.points().size(), 1u);
    recorder.on_result(2.0, 60, supplier);
    EXPECT_EQ(recorder.points().size(), 2u);
}

TEST_F(Fixture, FinalizeAddsTerminalPoint) {
    TrajectoryRecorder recorder(normalizer, 100);
    auto supplier = [&] { return shifted_front(0.05); };
    recorder.on_result(1.0, 100, supplier);
    recorder.finalize(2.5, 142, supplier);
    ASSERT_EQ(recorder.points().size(), 2u);
    EXPECT_DOUBLE_EQ(recorder.points().back().time, 2.5);
    EXPECT_EQ(recorder.points().back().evaluations, 142u);
}

TEST_F(Fixture, FinalizeIsIdempotentAtSameEvaluationCount) {
    TrajectoryRecorder recorder(normalizer, 100);
    auto supplier = [&] { return shifted_front(0.05); };
    recorder.on_result(1.0, 100, supplier);
    recorder.finalize(1.0, 100, supplier);
    EXPECT_EQ(recorder.points().size(), 1u);
}

TEST_F(Fixture, TimeToThresholdFindsFirstCrossing) {
    TrajectoryRecorder recorder(normalizer, 10);
    // Quality improves over time: shift shrinks.
    const double shifts[] = {0.5, 0.2, 0.05, 0.0};
    std::uint64_t evals = 0;
    double time = 0.0;
    for (const double shift : shifts) {
        evals += 10;
        time += 1.0;
        recorder.on_result(time, evals, [&] { return shifted_front(shift); });
    }
    const double hv_at_2 = recorder.points()[1].hypervolume;
    const double hv_at_3 = recorder.points()[2].hypervolume;
    ASSERT_LT(hv_at_2, hv_at_3);
    EXPECT_DOUBLE_EQ(recorder.time_to_threshold(hv_at_2), 2.0);
    EXPECT_DOUBLE_EQ(
        recorder.time_to_threshold(0.5 * (hv_at_2 + hv_at_3)), 3.0);
}

TEST_F(Fixture, UnreachedThresholdIsInfinite) {
    TrajectoryRecorder recorder(normalizer, 10);
    recorder.on_result(1.0, 10, [&] { return shifted_front(0.5); });
    EXPECT_TRUE(std::isinf(recorder.time_to_threshold(0.99)));
}

TEST_F(Fixture, FinalHypervolumeIsBestSeen) {
    TrajectoryRecorder recorder(normalizer, 10);
    recorder.on_result(1.0, 10, [&] { return shifted_front(0.1); });
    recorder.on_result(2.0, 20, [&] { return shifted_front(0.3); });
    const double first = recorder.points()[0].hypervolume;
    EXPECT_DOUBLE_EQ(recorder.final_hypervolume(), first);
}

TEST_F(Fixture, RejectsZeroInterval) {
    EXPECT_THROW(TrajectoryRecorder(normalizer, 0), std::invalid_argument);
}

TEST(TimeToThreshold, FreeFunctionOnRawPoints) {
    const std::vector<TrajectoryPoint> points{
        {1.0, 10, 0.2}, {2.0, 20, 0.6}, {3.0, 30, 0.9}};
    EXPECT_DOUBLE_EQ(time_to_threshold(points, 0.1), 1.0);
    EXPECT_DOUBLE_EQ(time_to_threshold(points, 0.6), 2.0);
    EXPECT_DOUBLE_EQ(time_to_threshold(points, 0.7), 3.0);
    EXPECT_TRUE(std::isinf(time_to_threshold(points, 0.95)));
    EXPECT_TRUE(std::isinf(time_to_threshold({}, 0.1)));
}

} // namespace
