#ifndef BORG_BENCH_SWEEP_RUNNER_HPP
#define BORG_BENCH_SWEEP_RUNNER_HPP

/// \file sweep_runner.hpp
/// Replicate-parallel experiment sweeps with schedule-invariant results.
///
/// The paper's headline tables aggregate 50 replicates per (problem, T_F,
/// P) configuration; every replicate is an independent virtual-time DES
/// run, so the full grid is embarrassingly parallel across host threads.
/// The SweepRunner fans the cells of a flattened experiment grid out on
/// host threads that claim cell indices from one shared cursor, and
/// guarantees that the *results* are bit-identical regardless of thread
/// count or which thread ran which cell:
///
///  * each cell derives its seeds from the cell's grid coordinates via
///    util::derive_seed — never from "which thread ran it" or "how many
///    cells ran before it";
///  * each cell writes its output into a caller-owned slot addressed by
///    cell index — never appends to a shared container in completion
///    order;
///  * aggregation (stats::Accumulator / Summary merging) happens after the
///    sweep, serially, in index order.
///
/// Progress (per-cell timing, elapsed, ETA) is reported through an
/// obs::MetricsRegistry under the "sweep." prefix and, optionally, as
/// throttled lines on a progress stream. Drivers point that stream at
/// std::cerr so stdout (the CSV/table payload) stays byte-identical for
/// any --jobs value. See DESIGN.md §9.

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "util/cli.hpp"

namespace borg::obs {
class MetricsRegistry;
}

namespace borg::bench {

struct SweepOptions {
    /// Host threads to run cells on; 0 means one per hardware thread.
    std::size_t jobs = 0;
    /// Optional registry for the sweep's own instruments: sweep.cells
    /// counter, sweep.cells_done, sweep.cells_failed, sweep.cell_seconds
    /// histogram, sweep.elapsed_seconds and sweep.eta_seconds gauges. It
    /// is only touched under the runner's internal lock, so callers must
    /// not update it concurrently while a sweep is running. Traces and
    /// recorders are per-run concerns: cells pass their own RunContext to
    /// the executors they drive.
    obs::MetricsRegistry* metrics = nullptr;
    /// Optional throttled progress lines ("[label] 12/40 cells ...").
    /// Point this at std::cerr, never at the results stream.
    std::ostream* progress = nullptr;
    std::string label = "sweep";
};

/// Per-cell completion record. A throwing cell is reported here and never
/// poisons its siblings — every other cell still runs.
struct CellOutcome {
    bool ok = true;
    std::string error;      ///< what() of the captured exception
    double seconds = 0.0;   ///< wall-clock time the cell took
};

struct SweepReport {
    std::vector<CellOutcome> cells; ///< indexed by cell, not finish order
    double elapsed_seconds = 0.0;

    std::size_t failures() const noexcept;
    /// Throws std::runtime_error naming every failed cell (index + error).
    void throw_if_failed() const;
};

class SweepRunner {
public:
    explicit SweepRunner(SweepOptions options = {});

    /// Runs fn(i) once for every i in [0, cells) on min(jobs, cells)
    /// threads. \p fn must write its result only into caller-owned state
    /// addressed by i (pre-sized slots), and must derive any randomness
    /// from i — that is the whole schedule-invariance contract.
    SweepReport run(std::size_t cells,
                    const std::function<void(std::size_t)>& fn);

private:
    SweepOptions options_;
};

/// Parses --jobs for the experiment drivers: absent means "one per
/// hardware thread" (returned as 0 for SweepOptions); an explicit value
/// must be a positive integer.
std::size_t parse_jobs(const util::CliArgs& args);

} // namespace borg::bench

#endif
