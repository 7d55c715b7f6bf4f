/// Parallel optimization of an expensive black-box evaluation with the
/// physical (std::thread) asynchronous master-slave executor — the
/// workstation-scale version of the paper's MPI deployment.
///
/// The "expensive simulation" is DTLZ2 wrapped in a controlled 5 ms delay
/// (cv = 0.1), exactly the paper's experimental control. The example runs
/// the same budget serially and with increasing worker counts, reporting
/// wall-clock speedup and efficiency alongside the analytical prediction
/// (Eq. 2) — a miniature, physical Table II row.

#include <cstdio>
#include <memory>

#include "models/analytical.hpp"
#include "moea/borg.hpp"
#include "obs/metrics_registry.hpp"
#include "parallel/thread_executor.hpp"
#include "problems/delayed.hpp"
#include "problems/problem.hpp"
#include "stats/summary.hpp"

int main() {
    using namespace borg;

    constexpr double kTfMean = 0.005; // 5 ms per evaluation
    constexpr std::uint64_t kEvaluations = 2000;

    auto inner = std::shared_ptr<const problems::Problem>(
        problems::make_problem("dtlz2_3"));
    const problems::DelayedProblem expensive(
        inner, stats::make_delay(kTfMean, 0.1), /*seed=*/3,
        /*physically_sleep=*/true);

    const auto params = moea::BorgParams::for_problem(expensive, 0.05);

    std::printf("expensive evaluation: %s, T_F ~ %.0f ms, N = %llu\n\n",
                expensive.name().c_str(), kTfMean * 1000.0,
                static_cast<unsigned long long>(kEvaluations));
    std::printf("%8s %10s %9s %11s %12s %12s\n", "workers", "wall (s)",
                "speedup", "efficiency", "Eq.2 pred", "mean T_A (us)");

    // One registry across all runs: counters accumulate, histograms pool
    // the timing samples (the run-observability layer's summary view).
    obs::MetricsRegistry metrics;

    double serial_wall = 0.0;
    for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                      std::size_t{4}, std::size_t{8}}) {
        moea::BorgMoea algorithm(expensive, params, 42);
        parallel::ThreadMasterSlaveExecutor executor(workers);
        const auto run = executor.run(algorithm, expensive, kEvaluations,
                                      {.metrics = &metrics});

        const auto ta_summary = stats::summarize(run.ta_samples);
        if (workers == 1) serial_wall = run.elapsed;

        const models::TimingCosts costs{kTfMean, 0.0, ta_summary.mean};
        const double predicted = models::async_parallel_time(
            kEvaluations, workers + 1, costs);
        const double speedup = serial_wall / run.elapsed;
        std::printf("%8zu %10.2f %9.2f %11.2f %12.2f %12.1f\n", workers,
                    run.elapsed, speedup,
                    speedup / static_cast<double>(workers + 1), predicted,
                    ta_summary.mean * 1e6);
    }

    std::printf("\nNote: the 1-worker row is the physical serial baseline "
                "(one evaluation in flight at a time);\nspeedup is "
                "relative to it. Efficiency includes the master core, "
                "matching the paper's E_P = T_S / (P T_P).\n");

    if (const auto* results = metrics.find_counter("async.results")) {
        const auto* ta = metrics.find_histogram("async.ta_seconds");
        const auto* tc = metrics.find_histogram("async.tc_seconds");
        std::printf("\nmetrics across all runs: %llu results; "
                    "T_A mean %.1f us (max %.1f us), "
                    "T_C mean %.1f us over %zu messages\n",
                    static_cast<unsigned long long>(results->value()),
                    ta->mean() * 1e6, ta->max() * 1e6, tc->mean() * 1e6,
                    tc->count());
    }
    return 0;
}
