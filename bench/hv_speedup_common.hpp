#ifndef BORG_BENCH_HV_SPEEDUP_COMMON_HPP
#define BORG_BENCH_HV_SPEEDUP_COMMON_HPP

/// \file hv_speedup_common.hpp
/// Shared driver for Figures 3 and 4: parallel speedup measured at
/// hypervolume thresholds.
///
/// For each T_F and each processor count P, a serial virtual-time run and
/// a parallel virtual-time run record (time, hypervolume) trajectories;
/// S_P^h = T_S^h / T_P^h is reported over thresholds h in [0.1, 1.0]. Flat
/// speedup lines (efficient configurations) versus strongly h-dependent
/// curves (saturated configurations) are the paper's headline qualitative
/// result.
///
/// Every (T_F, P, replicate) cell is an independent DES run, so the grid
/// executes replicate-parallel on the sweep engine (DESIGN.md §9): cell
/// seeds derive from the grid coordinates, results land in index-addressed
/// slots, and aggregation runs serially afterwards — stdout is
/// byte-identical for any --jobs value. Progress goes to stderr.
///
/// Flags: --tf 0.001,0.01,0.1  --procs 16,...,1024  --evals 50000
///        --replicates 1  --epsilon 0.15  --checkpoints 50  --seed 2013
///        --jobs N (default: hardware concurrency)  --metrics  --quick
///        --hv-algo {auto,wfg,mc}  --hv-mc-samples N

#include <cmath>
#include <iostream>
#include <map>

#include "bench/sweep_runner.hpp"
#include "experiment_common.hpp"
#include "metrics/hypervolume.hpp"
#include "obs/metrics_registry.hpp"
#include "parallel/trajectory.hpp"
#include "problems/reference_set.hpp"
#include "stats/summary.hpp"
#include "util/table.hpp"

namespace borg::bench {

struct HvSpeedupOptions {
    std::vector<double> tfs{0.001, 0.01, 0.1};
    std::vector<std::int64_t> procs{16, 32, 64, 128, 256, 512, 1024};
    std::uint64_t evals = 50000;
    std::uint64_t replicates = 1;
    double epsilon = 0.15;
    std::uint64_t checkpoints = 50;
    std::uint64_t seed = 2013;
    std::size_t jobs = 0; ///< sweep threads; 0 = hardware concurrency
    bool csv = false;
    bool metrics = false; ///< dump the sweep metrics JSON to stderr
    metrics::HvConfig hv; ///< hypervolume policy for every checkpoint
};

inline HvSpeedupOptions parse_hv_options(int argc, char** argv) {
    util::CliArgs args(argc, argv);
    args.check_known({"tf", "procs", "evals", "replicates", "epsilon",
                      "checkpoints", "seed", "jobs", "metrics", "quick",
                      "csv", "hv-algo", "hv-mc-samples"});
    HvSpeedupOptions opt;
    opt.tfs = args.get_doubles("tf", opt.tfs);
    opt.procs = args.get_ints("procs", opt.procs);
    opt.evals = static_cast<std::uint64_t>(
        args.get_uint("evals", static_cast<std::int64_t>(opt.evals)));
    opt.replicates = static_cast<std::uint64_t>(args.get_uint(
        "replicates", static_cast<std::int64_t>(opt.replicates)));
    opt.epsilon = args.get_double("epsilon", opt.epsilon);
    opt.checkpoints = static_cast<std::uint64_t>(args.get_uint(
        "checkpoints", static_cast<std::int64_t>(opt.checkpoints)));
    opt.seed = static_cast<std::uint64_t>(
        args.get_uint("seed", static_cast<std::int64_t>(opt.seed)));
    opt.jobs = parse_jobs(args);
    opt.csv = args.get_bool("csv");
    opt.metrics = args.get_bool("metrics");
    opt.hv = metrics::hv_config_from_cli(args);
    if (args.get_bool("quick")) {
        opt.tfs = {0.01};
        opt.procs = {16, 64, 256, 1024};
        opt.evals = 20000;
    }
    return opt;
}

/// Runs the figure for one problem and prints one threshold x P speedup
/// matrix per T_F value.
inline int run_hv_speedup(const std::string& problem_name,
                          const std::string& figure_label,
                          const HvSpeedupOptions& opt) {
    // The reference-set hypervolume is identical for every cell; memoize
    // it once and share the immutable normalizer across all threads.
    const auto normalizer = metrics::NormalizerCache::global().get(
        metrics::normalizer_cache_key(problem_name, opt.hv),
        [&] { return problems::reference_set_for(problem_name); },
        /*margin=*/0.1, opt.hv);
    const std::uint64_t interval =
        std::max<std::uint64_t>(1, opt.evals / opt.checkpoints);

    {
        const auto problem = problems::make_problem(problem_name);
        std::cout << figure_label
                  << " — speedup vs hypervolume threshold, 5-objective "
                  << problem->name() << "\nN = " << opt.evals << ", "
                  << opt.replicates << " replicate(s); thresholds are "
                  << "normalized hypervolume (1 = reference set)\n";
    }

    const std::vector<double> thresholds{0.1, 0.2, 0.3, 0.4, 0.5,
                                         0.6, 0.7, 0.8, 0.9, 1.0};

    // Flattened grid: per (T_F, replicate) one serial-baseline cell
    // (p == 0) followed by one cell per parallel processor count.
    struct Cell {
        std::size_t tf_idx = 0;
        std::uint64_t rep = 0;
        std::int64_t p = 0; ///< 0 = serial baseline
    };
    std::vector<Cell> cells;
    for (std::size_t ti = 0; ti < opt.tfs.size(); ++ti) {
        for (std::uint64_t rep = 0; rep < opt.replicates; ++rep) {
            cells.push_back({ti, rep, 0});
            for (const std::int64_t p : opt.procs)
                cells.push_back({ti, rep, p});
        }
    }

    struct CellResult {
        std::vector<double> threshold_times;
        double final_hv = 0.0; ///< serial cells only
    };
    std::vector<CellResult> results(cells.size());

    obs::MetricsRegistry sweep_metrics;
    SweepRunner runner({.jobs = opt.jobs,
                        .metrics = &sweep_metrics,
                        .progress = &std::cerr,
                        .label = figure_label});
    const SweepReport report = runner.run(cells.size(), [&](std::size_t i) {
        const Cell& cell = cells[i];
        const double tf_mean = opt.tfs[cell.tf_idx];
        const auto tf = stats::make_delay(tf_mean, 0.1);
        const auto tc = stats::make_delay(kPaperTc, 0.0);
        const auto problem = problems::make_problem(problem_name);
        parallel::TrajectoryRecorder rec(*normalizer, interval);
        if (cell.p == 0) {
            const auto ta = stats::make_delay(
                paper_ta_mean(problem_name, 128), 0.2);
            moea::BorgMoea algo(
                *problem, experiment_params(*problem, opt.epsilon),
                run_seed(opt.seed, cell.rep, 10));
            parallel::VirtualClusterConfig cfg{
                2, tf.get(), tc.get(), ta.get(),
                run_seed(opt.seed, cell.rep, 11)};
            run_serial_virtual(algo, *problem, cfg, opt.evals,
                               {.recorder = &rec});
        } else {
            const auto p = static_cast<std::uint64_t>(cell.p);
            const auto ta_p =
                stats::make_delay(paper_ta_mean(problem_name, p), 0.2);
            moea::BorgMoea algo(
                *problem, experiment_params(*problem, opt.epsilon),
                run_seed(opt.seed, cell.rep, 20 + p));
            parallel::VirtualClusterConfig cfg{
                p, tf.get(), tc.get(), ta_p.get(),
                run_seed(opt.seed, cell.rep, 30 + p)};
            parallel::AsyncMasterSlaveExecutor exec(algo, *problem, cfg);
            exec.run(opt.evals, {.recorder = &rec});
        }
        CellResult& out = results[i];
        out.threshold_times.reserve(thresholds.size());
        for (const double h : thresholds)
            out.threshold_times.push_back(rec.time_to_threshold(h));
        if (cell.p == 0) out.final_hv = rec.final_hypervolume();
    });
    if (opt.metrics) sweep_metrics.write_json(std::cerr);
    report.throw_if_failed();

    // Serial aggregation in cell-index order: identical accumulator call
    // sequences — hence identical bytes — no matter how the sweep was
    // scheduled.
    for (std::size_t ti = 0; ti < opt.tfs.size(); ++ti) {
        const double tf_mean = opt.tfs[ti];
        std::map<double, stats::Accumulator> serial_at;
        std::map<std::int64_t, std::map<double, stats::Accumulator>>
            parallel_at;
        stats::Accumulator serial_final_hv;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            if (cells[i].tf_idx != ti) continue;
            const CellResult& r = results[i];
            if (cells[i].p == 0) {
                serial_final_hv.add(r.final_hv);
                for (std::size_t k = 0; k < thresholds.size(); ++k)
                    serial_at[thresholds[k]].add(r.threshold_times[k]);
            } else {
                for (std::size_t k = 0; k < thresholds.size(); ++k)
                    parallel_at[cells[i].p][thresholds[k]].add(
                        r.threshold_times[k]);
            }
        }

        std::cout << "\nT_F = " << tf_mean << " s (serial run reaches "
                  << util::format_fixed(serial_final_hv.mean(), 3)
                  << " normalized hypervolume)\n";
        std::vector<std::string> headers{"h"};
        for (const std::int64_t p : opt.procs)
            headers.push_back("P=" + std::to_string(p));
        util::Table table(std::move(headers));
        for (const double h : thresholds) {
            const double ts = serial_at[h].mean();
            std::vector<std::string> row{util::format_fixed(h, 1)};
            for (const std::int64_t p : opt.procs) {
                const double tp = parallel_at[p][h].mean();
                if (!std::isfinite(ts) || !std::isfinite(tp) || tp <= 0.0)
                    row.push_back("-");
                else
                    row.push_back(util::format_fixed(ts / tp, 1));
            }
            table.add_row(std::move(row));
        }
        if (opt.csv)
            table.print_csv(std::cout);
        else
            table.print(std::cout);
        std::cout << "('-': threshold not attained by the serial and/or "
                     "parallel run within N evaluations)\n";
    }
    return 0;
}

} // namespace borg::bench

#endif
