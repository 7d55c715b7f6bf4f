/// Edge-case tests for the ClusterEngine — the single virtual-time
/// master-slave engine behind every executor and the simulation model
/// (DESIGN.md §10). The protocol-level behaviour is covered by the
/// executor suites and the golden traces; this file probes the engine's
/// boundaries: minimal clusters, empty runs, failures that land while a
/// worker holds the master slot, and degenerate island topologies.

#include "parallel/cluster_engine.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <memory>

#include "moea/nsga2.hpp"
#include "obs/event_trace.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace_check.hpp"
#include "parallel/async_executor.hpp"
#include "parallel/multi_master.hpp"
#include "parallel/sync_executor.hpp"
#include "parallel/trace_check.hpp"
#include "problems/problem.hpp"

namespace {

using namespace borg;
using namespace borg::parallel;
using borg::stats::Distribution;
using borg::stats::make_delay;

constexpr double kInf = std::numeric_limits<double>::infinity();

struct Fixture {
    std::unique_ptr<problems::Problem> problem =
        problems::make_problem("zdt1");
    std::unique_ptr<Distribution> tf = make_delay(0.01, 0.0);
    std::unique_ptr<Distribution> tc = make_delay(0.000006, 0.0);
    std::unique_ptr<Distribution> ta = make_delay(0.000029, 0.0);

    moea::BorgParams params() const {
        return moea::BorgParams::for_problem(*problem, 0.01);
    }
    VirtualClusterConfig cluster(std::uint64_t p,
                                 std::uint64_t seed = 1) const {
        return VirtualClusterConfig{p, tf.get(), tc.get(), ta.get(), seed};
    }
};

// ---------------------------------------------------- minimal clusters

TEST(EngineEdge, AsyncP2SingleWorkerCompletes) {
    // P = 2 is the smallest legal cluster: one master, one worker. The
    // protocol degenerates to strict alternation with zero contention.
    Fixture f;
    moea::BorgMoea algo(*f.problem, f.params(), 2);
    AsyncMasterSlaveExecutor exec(algo, *f.problem, f.cluster(2, 3));
    obs::EventTrace trace;
    const auto result = exec.run(500, {.trace = &trace});
    EXPECT_TRUE(result.completed_target);
    EXPECT_EQ(result.evaluations, 500u);
    EXPECT_DOUBLE_EQ(result.contention_rate, 0.0);
    for (const auto& issue : cross_validate(trace, result))
        ADD_FAILURE() << issue;
}

TEST(EngineEdge, SyncP2SingleWorkerCompletes) {
    Fixture f;
    moea::Nsga2 algo(*f.problem, 8, 4);
    SyncMasterSlaveExecutor exec(algo, *f.problem, f.cluster(2, 5));
    obs::EventTrace trace;
    const auto result = exec.run(160, {.trace = &trace});
    EXPECT_TRUE(result.completed_target);
    EXPECT_GE(result.evaluations, 160u);
    for (const auto& issue : cross_validate(trace, result))
        ADD_FAILURE() << issue;
}

// ------------------------------------------------- zero-evaluation runs

TEST(EngineEdge, ZeroEvaluationRunsThrowEverywhere) {
    Fixture f;
    moea::BorgMoea async_algo(*f.problem, f.params(), 6);
    AsyncMasterSlaveExecutor async_exec(async_algo, *f.problem,
                                        f.cluster(4, 7));
    EXPECT_THROW(async_exec.run(0), std::invalid_argument);

    moea::Nsga2 sync_algo(*f.problem, 8, 8);
    SyncMasterSlaveExecutor sync_exec(sync_algo, *f.problem, f.cluster(4, 9));
    EXPECT_THROW(sync_exec.run(0), std::invalid_argument);

    MultiMasterConfig mm;
    mm.cluster = f.cluster(8, 10);
    mm.islands = 2;
    MultiMasterExecutor mm_exec(*f.problem, f.params(), mm);
    EXPECT_THROW(mm_exec.run(0), std::invalid_argument);
}

// ------------------------------- failure while holding the master slot

TEST(EngineEdge, FailureDuringMasterServiceReleasesTheSlot) {
    // Worker 0's failure time lands inside its first steady-state master
    // service (it is granted the master at ~0.01006 and holds it for
    // T_A + 2 T_C). The engine only retires workers at the loop top, so
    // the in-flight service completes, the slot is released, and the
    // survivor finishes the run — a failure mid-hold must never leak the
    // capacity-1 resource and deadlock the cluster.
    Fixture f;
    VirtualClusterConfig cfg = f.cluster(3, 11);
    cfg.worker_failure_at = {0.010065, kInf};
    moea::BorgMoea algo(*f.problem, f.params(), 12);
    AsyncMasterSlaveExecutor exec(algo, *f.problem, cfg);
    obs::EventTrace trace;
    const auto result = exec.run(400, {.trace = &trace});
    EXPECT_TRUE(result.completed_target);
    EXPECT_EQ(result.evaluations, 400u);
    EXPECT_EQ(result.failed_workers, 1u);
    // Every granted acquisition was requested and the failed worker's
    // final service still counted: the trace stays internally consistent.
    const auto agg = obs::recompute(trace);
    EXPECT_EQ(agg.grants, agg.total_acquires);
    EXPECT_EQ(agg.worker_failures, 1u);
    for (const auto& issue : cross_validate(trace, result))
        ADD_FAILURE() << issue;
}

// --------------------------------- negative draws clamp at the boundary

TEST(EngineEdge, NegativeTimingDrawsClampAtSampleBoundaryAndCount) {
    // A high-cv NormalDistribution T_F puts real mass below zero. The
    // clamp must happen at the sampling boundary — before the value is
    // traced, accumulated, or histogrammed — and be counted, so the
    // applied schedule and every mirror of it agree. (They used to
    // disagree: des::Environment::delay clamped silently after the
    // negative value had already been recorded.)
    Fixture f;
    const stats::NormalDistribution hot_tf(0.001, 0.01); // P[X<0] ~ 46%
    VirtualClusterConfig cfg = f.cluster(4, 17);
    cfg.tf = &hot_tf;
    moea::BorgMoea algo(*f.problem, f.params(), 21);
    AsyncMasterSlaveExecutor exec(algo, *f.problem, cfg);
    obs::EventTrace trace;
    obs::MetricsRegistry metrics;
    const auto result = exec.run(300, {.trace = &trace, .metrics = &metrics});
    ASSERT_TRUE(result.completed_target);

    // The applied T_F summary never goes negative...
    EXPECT_GE(result.tf_applied.min, 0.0);
    // ...the clamps were counted and published...
    EXPECT_GT(metrics.counter("async.clamped_samples").value(), 0u);
    // ...the histogram mirror agrees with the applied values...
    EXPECT_GE(metrics.histogram("async.tf_seconds").min(), 0.0);
    // ...and so does every tf_sample trace event.
    for (const auto& event : trace.events()) {
        if (event.kind == obs::EventKind::tf_sample) {
            ASSERT_GE(event.value, 0.0);
        }
    }
    for (const auto& issue : cross_validate(trace, result))
        ADD_FAILURE() << issue;
}

TEST(EngineEdge, BenignDistributionsReportNoClamps) {
    Fixture f;
    moea::BorgMoea algo(*f.problem, f.params(), 8);
    AsyncMasterSlaveExecutor exec(algo, *f.problem, f.cluster(4, 18));
    obs::MetricsRegistry metrics;
    const auto result = exec.run(200, {.metrics = &metrics});
    ASSERT_TRUE(result.completed_target);
    // clamped_samples is published only when nonzero: a clean run's
    // instrument set must not grow.
    EXPECT_EQ(metrics.counter("async.clamped_samples").value(), 0u);
}

// ------------------------------- generational streams are per-group now

TEST(EngineEdge, GenSampleDrawsFromTheNamedGroupStream) {
    // gen_sample_tf/tc used to draw from group 0 unconditionally, silently
    // sharing one stream across islands. With two groups seeded alike,
    // group 1's draws must be untouched by group 0's consumption: the
    // sequences come out identical.
    const auto tf = make_delay(0.01, 0.1);
    const auto tc = make_delay(0.000006, 0.1);
    const ClusterEngine::Setup setup{
        .cluster = {4, tf.get(), tc.get(), nullptr, 1},
        .groups = {{1, 42, 0}, {1, 42, 1}}};
    const RunContext ctx;
    ClusterEngine engine(setup, ctx);

    std::vector<double> first, second;
    for (int i = 0; i < 8; ++i) {
        first.push_back(engine.gen_sample_tf(0, 0.0, 0, 1.0));
        first.push_back(engine.gen_sample_tc(0, 0.0, 0));
    }
    for (int i = 0; i < 8; ++i) {
        second.push_back(engine.gen_sample_tf(1, 0.0, 1, 1.0));
        second.push_back(engine.gen_sample_tc(1, 0.0, 1));
    }
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i)
        EXPECT_DOUBLE_EQ(first[i], second[i]) << "draw " << i;
}

// ------------------------------------------ setups built without executor

TEST(EngineEdge, DirectSetupRejectsPerWorkerArraysOfTheWrongSize) {
    // micro_bias and the bias-policy tests build the engine directly, so
    // the engine itself must size-check the per-worker arrays it indexes
    // by global worker: two groups of two workers need exactly 4 entries.
    Fixture f;
    ClusterEngine::Setup speed{.cluster = f.cluster(6),
                               .groups = {{2, 1, 0}, {2, 2, 1}}};
    speed.cluster.worker_speed = {1.0, 1.0, 1.0};
    EXPECT_THROW(ClusterEngine(speed, RunContext{}), std::invalid_argument);

    ClusterEngine::Setup failure{.cluster = f.cluster(6),
                                 .groups = {{2, 1, 0}, {2, 2, 1}}};
    failure.cluster.worker_failure_at = {kInf, kInf, kInf, kInf, kInf};
    EXPECT_THROW(ClusterEngine(failure, RunContext{}), std::invalid_argument);

    ClusterEngine::Setup sized{.cluster = f.cluster(6),
                               .groups = {{2, 1, 0}, {2, 2, 1}}};
    sized.cluster.worker_speed = {1.0, 2.0, 1.0, 2.0};
    sized.cluster.worker_failure_at = {kInf, kInf, kInf, kInf};
    EXPECT_NO_THROW(ClusterEngine(sized, RunContext{}));
}

// ------------------------------------------- degenerate island topology

TEST(EngineEdge, MultiMasterOneWorkerPerIsland) {
    // islands == workers: every island is a P = 2 master-slave pair
    // (processors == 2 * islands), the thinnest topology the validator
    // accepts.
    Fixture f;
    MultiMasterConfig mm;
    mm.cluster = f.cluster(6, 13);
    mm.islands = 3;
    mm.migration_interval = 100;
    MultiMasterExecutor exec(*f.problem, f.params(), mm);
    obs::EventTrace trace;
    const auto result = exec.run(900, {.trace = &trace});
    EXPECT_TRUE(result.completed_target);
    EXPECT_EQ(result.evaluations, 900u);
    std::uint64_t total = 0;
    for (const auto e : result.island_evaluations) total += e;
    EXPECT_EQ(total, 900u);
    EXPECT_EQ(trace.count(obs::EventKind::worker_spawn), 3u);
    for (const auto& issue :
         obs::cross_validate(trace, to_reported(result,
                                                /*check_samples=*/false)))
        ADD_FAILURE() << issue;

    // One more master than workers is rejected outright.
    MultiMasterConfig too_thin;
    too_thin.cluster = f.cluster(5, 14);
    too_thin.islands = 3;
    EXPECT_THROW(MultiMasterExecutor(*f.problem, f.params(), too_thin),
                 std::invalid_argument);
}

} // namespace
