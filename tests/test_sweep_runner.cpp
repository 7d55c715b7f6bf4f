#include "bench/sweep_runner.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "obs/metrics_registry.hpp"
#include "stats/summary.hpp"
#include "util/rng.hpp"

namespace {

using namespace borg;
using bench::SweepOptions;
using bench::SweepReport;
using bench::SweepRunner;

/// The cell workload the determinism tests run: a small deterministic
/// simulation whose randomness derives only from the cell index, mirroring
/// the contract the experiment drivers follow.
std::vector<double> run_grid(std::size_t jobs) {
    constexpr std::size_t kCells = 64;
    std::vector<double> slots(kCells, 0.0);
    SweepRunner runner({.jobs = jobs});
    const SweepReport report = runner.run(kCells, [&](std::size_t i) {
        util::Rng rng(util::derive_seed(
            2013, static_cast<std::uint64_t>(i), 7));
        double acc = 0.0;
        for (int k = 0; k < 100; ++k) acc += rng.uniform();
        slots[i] = acc;
    });
    EXPECT_EQ(report.failures(), 0u);
    return slots;
}

/// Aggregates like the drivers do: serially, in index order, after the
/// sweep. Identical slots must therefore give identical aggregates.
stats::Summary aggregate(const std::vector<double>& slots) {
    return stats::summarize(slots);
}

TEST(SweepRunner, Jobs1VersusJobs4ProduceIdenticalSlots) {
    const auto serial = run_grid(1);
    const auto a = aggregate(serial);
    // 80 threads is more than the grid's 64 cells: the runner starts
    // min(jobs, cells) threads, and the slots must not notice.
    for (const std::size_t jobs : {std::size_t{4}, std::size_t{80}}) {
        const auto parallel = run_grid(jobs);
        ASSERT_EQ(serial.size(), parallel.size());
        for (std::size_t i = 0; i < serial.size(); ++i)
            EXPECT_EQ(serial[i], parallel[i])
                << "jobs " << jobs << " cell " << i;

        const auto b = aggregate(parallel);
        EXPECT_EQ(a.mean, b.mean) << "jobs " << jobs;
        EXPECT_EQ(a.stddev, b.stddev) << "jobs " << jobs;
        EXPECT_EQ(a.median, b.median) << "jobs " << jobs;
    }
}

TEST(SweepRunner, ThrowingCellIsIsolatedAndReportedPerCell) {
    constexpr std::size_t kCells = 32;
    // Each cell owns its counter, so the increments race with nothing.
    std::vector<int> ran(kCells, 0);
    SweepRunner runner({.jobs = 4});
    const SweepReport report = runner.run(kCells, [&](std::size_t i) {
        if (i == 5) throw std::runtime_error("cell five exploded");
        if (i == 17) throw std::domain_error("cell seventeen too");
        ++ran[i];
    });

    EXPECT_EQ(report.failures(), 2u);
    ASSERT_EQ(report.cells.size(), kCells);
    EXPECT_FALSE(report.cells[5].ok);
    EXPECT_EQ(report.cells[5].error, "cell five exploded");
    EXPECT_FALSE(report.cells[17].ok);
    EXPECT_EQ(report.cells[17].error, "cell seventeen too");

    // Every sibling still ran to completion, exactly once.
    for (std::size_t i = 0; i < kCells; ++i) {
        if (i == 5 || i == 17) continue;
        EXPECT_TRUE(report.cells[i].ok) << "cell " << i;
        EXPECT_EQ(ran[i], 1) << "cell " << i;
    }

    try {
        report.throw_if_failed();
        FAIL() << "throw_if_failed() did not throw";
    } catch (const std::runtime_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("cell 5"), std::string::npos) << what;
        EXPECT_NE(what.find("cell five exploded"), std::string::npos);
        EXPECT_NE(what.find("cell 17"), std::string::npos) << what;
    }
}

TEST(SweepRunner, CleanReportDoesNotThrow) {
    SweepRunner runner({.jobs = 2});
    const SweepReport report = runner.run(8, [](std::size_t) {});
    EXPECT_EQ(report.failures(), 0u);
    EXPECT_NO_THROW(report.throw_if_failed());
}

TEST(SweepRunner, EmitsProgressMetrics) {
    obs::MetricsRegistry metrics;
    std::ostringstream progress;
    SweepRunner runner(
        {.jobs = 2,
         .metrics = &metrics,
         .progress = &progress,
         .label = "unit"});
    const SweepReport report = runner.run(10, [&](std::size_t i) {
        if (i == 3) throw std::runtime_error("x");
    });

    const auto* cells = metrics.find_counter("sweep.cells");
    const auto* done = metrics.find_counter("sweep.cells_done");
    const auto* failed = metrics.find_counter("sweep.cells_failed");
    const auto* seconds = metrics.find_histogram("sweep.cell_seconds");
    const auto* elapsed = metrics.find_gauge("sweep.elapsed_seconds");
    ASSERT_NE(cells, nullptr);
    ASSERT_NE(done, nullptr);
    ASSERT_NE(failed, nullptr);
    ASSERT_NE(seconds, nullptr);
    ASSERT_NE(elapsed, nullptr);
    EXPECT_EQ(cells->value(), 10u);
    // cells_done counts every finished cell, ok or not.
    EXPECT_EQ(done->value(), 10u);
    EXPECT_EQ(failed->value(), 1u);
    EXPECT_EQ(seconds->count(), 10u);
    EXPECT_GE(elapsed->value(), 0.0);
    EXPECT_GE(report.elapsed_seconds, 0.0);

    // Progress lines carry the label and go to the progress stream only.
    EXPECT_NE(progress.str().find("unit"), std::string::npos);
}

TEST(SweepRunner, ZeroCellsIsANoOp) {
    obs::MetricsRegistry metrics;
    SweepRunner runner({.jobs = 1, .metrics = &metrics});
    const SweepReport report = runner.run(0, [](std::size_t) {
        FAIL() << "cell function must not run";
    });
    EXPECT_TRUE(report.cells.empty());
    EXPECT_EQ(report.failures(), 0u);
}

TEST(SweepRunner, ParseJobsDefaultsToAutoAndRejectsZero) {
    {
        const char* argv[] = {"prog"};
        const util::CliArgs args(1, argv);
        EXPECT_EQ(bench::parse_jobs(args), 0u);
    }
    {
        const char* argv[] = {"prog", "--jobs", "3"};
        const util::CliArgs args(3, argv);
        EXPECT_EQ(bench::parse_jobs(args), 3u);
    }
    {
        const char* argv[] = {"prog", "--jobs", "0"};
        const util::CliArgs args(3, argv);
        EXPECT_THROW(bench::parse_jobs(args), std::invalid_argument);
    }
}

} // namespace
