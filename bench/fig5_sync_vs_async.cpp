/// Reproduces Figure 5: predicted efficiency of the synchronous
/// master-slave MOEA (Cantú-Paz's analytical model, Eq. 6) against the
/// asynchronous MOEA (discrete-event simulation model) over a grid of
/// T_F in [1e-4, 1] s and P in [2, 16384].
///
/// Constants follow the paper's Section VI-B with the symbol order
/// corrected (see DESIGN.md): T_C = 6 us, T_A = 60 us.
///
/// Output: one ASCII heatmap per model (efficiency deciles rendered as
/// digits 0-9, '#' for > 0.95) plus a CSV-style dump with --csv.
///
/// The (T_F, P) grid cells are independent simulations and run
/// replicate-parallel on the sweep engine (DESIGN.md §9); stdout is
/// byte-identical for any --jobs value.
///
/// Flags: --tf-points 9  --p-max 16384  --evals-per-worker 8
///        --tc 0.000006  --ta 0.000060  --seed 2013  --csv  --quick
///        --jobs N  --metrics

#include <algorithm>
#include <cmath>
#include <iostream>
#include <vector>

#include "bench/sweep_runner.hpp"
#include "models/simulation_model.hpp"
#include "models/sync_model.hpp"
#include "obs/metrics_registry.hpp"
#include "stats/distribution.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using namespace borg;

char cell(double efficiency) {
    if (efficiency > 0.95) return '#';
    const int decile = static_cast<int>(std::floor(efficiency * 10.0));
    return static_cast<char>('0' + std::clamp(decile, 0, 9));
}

} // namespace

int main(int argc, char** argv) {
    util::CliArgs args(argc, argv);
    args.check_known({"tf-points", "p-max", "evals-per-worker", "tc", "ta",
                      "seed", "csv", "quick", "jobs", "metrics"});
    std::size_t tf_points =
        static_cast<std::size_t>(args.get_uint("tf-points", 9));
    std::uint64_t p_max =
        static_cast<std::uint64_t>(args.get_uint("p-max", 16384));
    const std::uint64_t evals_per_worker =
        static_cast<std::uint64_t>(args.get_uint("evals-per-worker", 8));
    const double tc_mean = args.get_double("tc", 0.000006);
    const double ta_mean = args.get_double("ta", 0.000060);
    const auto seed =
        static_cast<std::uint64_t>(args.get_uint("seed", 2013));
    const bool csv = args.get_bool("csv");
    const bool dump_metrics = args.get_bool("metrics");
    const std::size_t jobs = bench::parse_jobs(args);
    if (args.get_bool("quick")) {
        tf_points = 5;
        p_max = 1024;
    }

    // Log-spaced T_F in [1e-4, 1]; log-spaced P in [2, p_max].
    std::vector<double> tfs;
    for (std::size_t i = 0; i < tf_points; ++i)
        tfs.push_back(std::pow(
            10.0, -4.0 + 4.0 * static_cast<double>(i) /
                             static_cast<double>(tf_points - 1)));
    std::vector<std::uint64_t> procs;
    for (std::uint64_t p = 2; p <= p_max; p *= 2) procs.push_back(p);

    std::cout << "Figure 5 reproduction — predicted efficiency, "
                 "synchronous (Cantu-Paz, Eq. 6) vs asynchronous "
                 "(simulation model)\n"
              << "T_C = " << tc_mean << " s, T_A = " << ta_mean
              << " s; cells are efficiency deciles (# means > 0.95)\n\n";

    // One sweep cell per (T_F, P) grid point, slotted by index so the
    // heatmaps are byte-identical for any --jobs value.
    const std::size_t columns = procs.size();
    std::vector<std::vector<double>> sync_eff(tfs.size()),
        async_eff(tfs.size());
    for (std::size_t ti = 0; ti < tfs.size(); ++ti) {
        sync_eff[ti].resize(columns);
        async_eff[ti].resize(columns);
    }

    obs::MetricsRegistry sweep_metrics;
    bench::SweepRunner runner({.jobs = jobs,
                               .metrics = &sweep_metrics,
                               .progress = &std::cerr,
                               .label = "Figure 5"});
    const bench::SweepReport report =
        runner.run(tfs.size() * columns, [&](std::size_t i) {
            const std::size_t ti = i / columns;
            const std::size_t pi = i % columns;
            const double tf_mean = tfs[ti];
            const std::uint64_t p = procs[pi];
            const auto tf = stats::make_delay(tf_mean, 0.1);
            const auto tc = stats::make_delay(tc_mean, 0.0);
            const auto ta = stats::make_delay(ta_mean, 0.0);
            const models::TimingCosts costs{tf_mean, tc_mean, ta_mean};
            sync_eff[ti][pi] = models::sync_efficiency(p, costs);
            const std::uint64_t n =
                std::max<std::uint64_t>(evals_per_worker * (p - 1), 2000);
            models::SimulationConfig cfg{n, p, tf.get(), tc.get(), ta.get(),
                                         seed + p + ti};
            async_eff[ti][pi] = models::simulated_efficiency(
                cfg, models::simulate_async(cfg));
        });
    if (dump_metrics) sweep_metrics.write_json(std::cerr);
    report.throw_if_failed();

    const auto print_heatmap = [&](const char* title,
                                   const std::vector<std::vector<double>>&
                                       grid) {
        std::cout << title << "\n      ";
        for (const std::uint64_t p : procs) {
            std::string label = std::to_string(p);
            std::cout << (label.size() >= 6 ? label
                                            : std::string(6 - label.size(),
                                                          ' ') +
                                                  label);
        }
        std::cout << "   (P)\n";
        for (std::size_t ti = tfs.size(); ti-- > 0;) {
            char buf[16];
            std::snprintf(buf, sizeof buf, "%6.0e", tfs[ti]);
            std::cout << buf;
            for (std::size_t pi = 0; pi < procs.size(); ++pi)
                std::cout << "     " << cell(grid[ti][pi]);
            std::cout << "\n";
        }
        std::cout << "  (T_F)\n\n";
    };

    print_heatmap("(a) Synchronous efficiency", sync_eff);
    print_heatmap("(b) Asynchronous efficiency", async_eff);

    if (csv) {
        util::Table table({"tf", "p", "sync_eff", "async_eff"});
        for (std::size_t ti = 0; ti < tfs.size(); ++ti)
            for (std::size_t pi = 0; pi < procs.size(); ++pi)
                table.add_row({util::format_fixed(tfs[ti], 6),
                               std::to_string(procs[pi]),
                               util::format_fixed(sync_eff[ti][pi], 4),
                               util::format_fixed(async_eff[ti][pi], 4)});
        table.print_csv(std::cout);
    }

    // The paper's qualitative summary line.
    std::cout << "Markers: async needs roughly T_F >= 0.01 s and P >= 16 "
                 "to run efficiently, but\nsustains efficiency to far "
                 "larger P than sync at equal T_F (compare rows).\n";
    return 0;
}
