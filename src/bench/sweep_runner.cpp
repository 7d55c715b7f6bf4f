#include "bench/sweep_runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <ostream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/metrics_registry.hpp"

namespace borg::bench {

namespace {

using SteadyClock = std::chrono::steady_clock;

double seconds_since(SteadyClock::time_point start) {
    return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

/// Hardware concurrency, never less than 1.
std::size_t default_concurrency() noexcept {
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : static_cast<std::size_t>(n);
}

} // namespace

std::size_t SweepReport::failures() const noexcept {
    std::size_t n = 0;
    for (const CellOutcome& cell : cells)
        if (!cell.ok) ++n;
    return n;
}

void SweepReport::throw_if_failed() const {
    if (failures() == 0) return;
    std::string message = "sweep: " + std::to_string(failures()) + " of " +
                          std::to_string(cells.size()) + " cells failed:";
    for (std::size_t i = 0; i < cells.size(); ++i)
        if (!cells[i].ok)
            message += "\n  cell " + std::to_string(i) + ": " + cells[i].error;
    throw std::runtime_error(message);
}

SweepRunner::SweepRunner(SweepOptions options)
    : options_(std::move(options)) {}

SweepReport SweepRunner::run(std::size_t cells,
                             const std::function<void(std::size_t)>& fn) {
    if (!fn) throw std::invalid_argument("sweep: empty cell function");

    SweepReport report;
    report.cells.resize(cells);
    if (cells == 0) return report;

    const auto start = SteadyClock::now();
    // Throttle progress lines to ~20 over the sweep so a 1000-cell grid
    // does not flood the stream.
    const std::size_t stride = cells < 20 ? 1 : cells / 20;

    // Guards the done/failed counts, the metrics registry, and the
    // progress stream. Cell results themselves need no lock: each cell
    // writes only to its own pre-sized slot.
    std::mutex progress_mutex;
    std::size_t done = 0;
    std::size_t failed = 0;

    if (options_.metrics)
        options_.metrics->counter("sweep.cells").inc(cells);

    const auto on_cell_finished = [&](const CellOutcome& outcome) {
        const std::lock_guard lock(progress_mutex);
        ++done;
        if (!outcome.ok) ++failed;
        const double elapsed = seconds_since(start);
        const double eta =
            elapsed / static_cast<double>(done) *
            static_cast<double>(cells - done);
        if (options_.metrics) {
            obs::MetricsRegistry& m = *options_.metrics;
            m.counter("sweep.cells_done").inc();
            if (!outcome.ok) m.counter("sweep.cells_failed").inc();
            m.histogram("sweep.cell_seconds").observe(outcome.seconds);
            m.gauge("sweep.elapsed_seconds").set(elapsed);
            m.gauge("sweep.eta_seconds").set(eta);
        }
        if (options_.progress && (done == cells || done % stride == 0)) {
            *options_.progress << "[" << options_.label << "] " << done << "/"
                               << cells << " cells";
            if (failed > 0) *options_.progress << " (" << failed << " failed)";
            *options_.progress << ", elapsed "
                               << static_cast<long>(elapsed * 10.0) / 10.0
                               << "s, eta "
                               << static_cast<long>(eta * 10.0) / 10.0 << "s"
                               << std::endl;
        }
    };

    const auto run_cell = [&](std::size_t index) {
        CellOutcome& outcome = report.cells[index];
        const auto cell_start = SteadyClock::now();
        try {
            fn(index);
        } catch (const std::exception& e) {
            outcome.ok = false;
            outcome.error = e.what();
        } catch (...) {
            outcome.ok = false;
            outcome.error = "unknown exception";
        }
        outcome.seconds = seconds_since(cell_start);
        on_cell_finished(outcome);
    };

    // Every thread claims the next unclaimed index until the cursor passes
    // the last cell, so uneven cells balance without per-thread queues.
    // run_cell records whatever a cell throws in its CellOutcome, so no
    // cell failure escapes a thread.
    std::atomic<std::size_t> cursor{0};
    const std::size_t jobs = std::min(
        options_.jobs == 0 ? default_concurrency() : options_.jobs, cells);
    {
        // jthreads join as the vector goes out of scope, also when a
        // thread fails to start and the exception leaves run().
        std::vector<std::jthread> threads;
        for (std::size_t t = 0; t < jobs; ++t)
            threads.emplace_back([&] {
                for (std::size_t i = cursor++; i < cells; i = cursor++)
                    run_cell(i);
            });
    }

    report.elapsed_seconds = seconds_since(start);
    return report;
}

std::size_t parse_jobs(const util::CliArgs& args) {
    if (!args.has("jobs")) return 0;
    const std::int64_t jobs = args.get_uint("jobs", 0);
    if (jobs == 0)
        throw std::invalid_argument("--jobs: must be a positive integer");
    return static_cast<std::size_t>(jobs);
}

} // namespace borg::bench
