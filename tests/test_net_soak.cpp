/// Fleet soak for the TCP run manager (DESIGN.md §16): a 64-process
/// worker fleet on loopback, pipelined two-deep, driven by the build's
/// poller (epoll on Linux) — the smallest configuration that exercises
/// every fleet-scale mechanism at once (persistent registration, batched
/// writes across dozens of dirty connections per wakeup, the heartbeat
/// sweep at real population) while staying inside a CTest timeout.
/// The full {64..512} cost grid lives in bench/micro_net; this test pins
/// correctness and sane syscall shape at fleet scale on every CI run.
///
/// Sleep-dominated evaluations (--eval-delay-ms) keep 64 workers
/// runnable on a single-core container: the fleet spends its time
/// blocked in nanosleep, so the master's event loop — the thing under
/// test — is the only busy party.

#include "parallel/tcp_executor.hpp"

#include <gtest/gtest.h>

#include "moea/borg.hpp"
#include "net_test_support.hpp"
#include "obs/metrics_registry.hpp"
#include "problems/problem.hpp"

namespace {

using namespace borg;
using testnet::archives_identical;
using testnet::reference_archive;
using testnet::spawn_worker;
using testnet::WorkerProc;

constexpr const char* kProblem = "zdt1";
constexpr double kEpsilon = 0.01;
constexpr std::uint64_t kSeed = 20260809;
constexpr std::size_t kFleet = 64;
constexpr std::size_t kDepth = 2;
constexpr std::size_t kWindow = kFleet * kDepth; // keeps every worker fed
constexpr std::uint64_t kEvals = 1500;

TEST(TcpSoak, SixtyFourWorkerFleetEpollPipelined) {
    const auto problem = problems::make_problem(kProblem);
    const std::vector<moea::Solution> reference =
        reference_archive(*problem, kEpsilon, kSeed, kWindow, kEvals);

    parallel::TcpRunConfig config;
    config.workers_expected = kWindow;
    config.pipeline_depth = kDepth;
    config.heartbeat_interval_ms = 250;
    config.heartbeat_timeout_ms = 5000; // fork storms stall slow machines
    config.run_timeout_s = 60.0;

    moea::BorgParams params =
        moea::BorgParams::for_problem(*problem, kEpsilon);
    moea::BorgMoea algorithm(*problem, params, kSeed);
    parallel::TcpMasterSlaveExecutor executor(algorithm, *problem, config);

    std::vector<WorkerProc> fleet;
    fleet.reserve(kFleet);
    for (std::size_t i = 0; i < kFleet; ++i)
        fleet.push_back(
            spawn_worker(executor.port(), kProblem, {"--eval-delay-ms", "2"}));

    obs::MetricsRegistry metrics;
    const parallel::TcpRunResult result = executor.run(
        kEvals, {.metrics = &metrics});
    for (auto& w : fleet) w.wait_exit_or_kill(2000);

    EXPECT_TRUE(result.run.completed_target);
    EXPECT_EQ(result.net.connects, kFleet);
    EXPECT_EQ(result.net.results_received, kEvals);
    EXPECT_EQ(result.run.failed_workers, 0u);
    EXPECT_EQ(result.net.heartbeat_timeouts, 0u);
    EXPECT_TRUE(
        archives_identical(reference, algorithm.archive().solutions()))
        << "64-worker pipelined epoll soak diverged from the thread "
           "executor archive";

    // Syscall-shape sanity at fleet scale (the hard ratio gates live in
    // bench/micro_net): coalescing must keep the master well under the
    // ~4 syscalls/result a loop paying one send per frame and a
    // read-until-EAGAIN probe per readable socket would cost, and
    // batched writes must carry more than one frame per send on average.
    const double per_result =
        static_cast<double>(result.net.io_syscalls()) /
        static_cast<double>(result.net.results_received);
    EXPECT_LT(per_result, 4.0) << "io syscalls per result: " << per_result;
    EXPECT_GT(result.net.frames_sent, result.net.syscalls_send)
        << "writes never batched: every frame paid its own send";
}

} // namespace
