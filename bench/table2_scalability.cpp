/// Reproduces the paper's Table II: experimental elapsed time and
/// efficiency of the asynchronous master-slave Borg MOEA on 5-objective
/// DTLZ2 and UF11, against the analytical model (Eq. 2) and the
/// discrete-event simulation model, with per-row relative errors (Eq. 5).
///
/// Substitutions (DESIGN.md §2): the "experimental" column runs the real
/// Borg MOEA on the virtual-time cluster executor; T_A is calibrated to
/// the paper's per-row means by default (--measure-ta uses the real
/// master-step cost on this host); replicates default to 3 instead of 50.
///
/// Every (problem, T_F, P, replicate) cell runs on the replicate-parallel
/// sweep engine (DESIGN.md §9); stdout is byte-identical for any --jobs.
///
/// Flags:
///   --problems dtlz2_5,uf11   --tf 0.001,0.01,0.1
///   --procs 16,32,...,1024    --evals 100000       --replicates 3
///   --epsilon 0.15            --tf-cv 0.1          --ta-cv 0.2
///   --measure-ta              --quick              --csv
///   --seed 2013               --jobs N             --metrics

#include <iostream>

#include "bench/sweep_runner.hpp"
#include "experiment_common.hpp"
#include "models/analytical.hpp"
#include "models/simulation_model.hpp"
#include "obs/metrics_registry.hpp"
#include "stats/summary.hpp"
#include "util/table.hpp"

namespace {

using namespace borg;

struct Options {
    std::vector<std::string> problems{"dtlz2_5", "uf11"};
    std::vector<double> tfs{0.001, 0.01, 0.1};
    std::vector<std::int64_t> procs{16, 32, 64, 128, 256, 512, 1024};
    std::uint64_t evals = 100000;
    std::uint64_t replicates = 3;
    double epsilon = 0.15;
    double tf_cv = 0.1;
    double ta_cv = 0.2;
    bool measure_ta = false;
    bool csv = false;
    bool metrics = false;
    std::uint64_t seed = 2013;
    std::size_t jobs = 0;
};

Options parse(int argc, char** argv) {
    util::CliArgs args(argc, argv);
    args.check_known({"problems", "tf", "procs", "evals", "replicates",
                      "epsilon", "tf-cv", "ta-cv", "measure-ta", "quick",
                      "csv", "seed", "jobs", "metrics"});
    Options opt;
    if (args.has("problems")) {
        opt.problems.clear();
        std::string csl = args.get("problems", "");
        std::size_t start = 0;
        while (start <= csl.size()) {
            const auto comma = csl.find(',', start);
            opt.problems.push_back(csl.substr(
                start, comma == std::string::npos ? csl.size() - start
                                                  : comma - start));
            if (comma == std::string::npos) break;
            start = comma + 1;
        }
    }
    opt.tfs = args.get_doubles("tf", opt.tfs);
    opt.procs = args.get_ints("procs", opt.procs);
    opt.evals = static_cast<std::uint64_t>(
        args.get_uint("evals", static_cast<std::int64_t>(opt.evals)));
    opt.replicates = static_cast<std::uint64_t>(args.get_uint(
        "replicates", static_cast<std::int64_t>(opt.replicates)));
    opt.epsilon = args.get_double("epsilon", opt.epsilon);
    opt.tf_cv = args.get_double("tf-cv", opt.tf_cv);
    opt.ta_cv = args.get_double("ta-cv", opt.ta_cv);
    opt.measure_ta = args.get_bool("measure-ta");
    opt.csv = args.get_bool("csv");
    opt.metrics = args.get_bool("metrics");
    opt.seed = static_cast<std::uint64_t>(
        args.get_uint("seed", static_cast<std::int64_t>(opt.seed)));
    opt.jobs = bench::parse_jobs(args);
    if (args.get_bool("quick")) {
        opt.evals = 20000;
        opt.replicates = 1;
        opt.procs = {16, 64, 256, 1024};
    }
    return opt;
}

} // namespace

int main(int argc, char** argv) {
    const Options opt = parse(argc, argv);

    std::cout << "Table II reproduction — asynchronous master-slave Borg "
                 "MOEA scalability\n"
              << "N = " << opt.evals << " evaluations, " << opt.replicates
              << " replicate(s), T_C = 6 us, T_A "
              << (opt.measure_ta ? "measured on this host"
                                 : "calibrated to the paper's means")
              << "\n\n";

    // Flattened grid; replicates are the innermost axis so each
    // configuration's cells are contiguous.
    struct Cell {
        std::size_t problem_idx = 0;
        std::size_t tf_idx = 0;
        std::size_t p_idx = 0;
        std::uint64_t rep = 0;
    };
    std::vector<Cell> cells;
    for (std::size_t pr = 0; pr < opt.problems.size(); ++pr)
        for (std::size_t ti = 0; ti < opt.tfs.size(); ++ti)
            for (std::size_t pi = 0; pi < opt.procs.size(); ++pi)
                for (std::uint64_t rep = 0; rep < opt.replicates; ++rep)
                    cells.push_back({pr, ti, pi, rep});

    struct CellResult {
        double exp_time = 0.0;
        double sim_time = 0.0;
        stats::Summary ta_applied;
    };
    std::vector<CellResult> results(cells.size());

    obs::MetricsRegistry sweep_metrics;
    bench::SweepRunner runner({.jobs = opt.jobs,
                               .metrics = &sweep_metrics,
                               .progress = &std::cerr,
                               .label = "Table II"});
    const bench::SweepReport report =
        runner.run(cells.size(), [&](std::size_t i) {
            const Cell& cell = cells[i];
            const std::string& problem_name = opt.problems[cell.problem_idx];
            const auto problem = problems::make_problem(problem_name);
            const double tf_mean = opt.tfs[cell.tf_idx];
            const auto p =
                static_cast<std::uint64_t>(opt.procs[cell.p_idx]);
            const double calibrated_ta =
                bench::paper_ta_mean(problem_name, p);

            const auto tf = stats::make_delay(tf_mean, opt.tf_cv);
            const auto tc = stats::make_delay(bench::kPaperTc, 0.0);
            const auto ta = stats::make_delay(calibrated_ta, opt.ta_cv);

            // "Experimental": real algorithm on the virtual cluster.
            moea::BorgMoea algo(
                *problem, bench::experiment_params(*problem, opt.epsilon),
                bench::run_seed(opt.seed, cell.rep, 1));
            parallel::VirtualClusterConfig cluster{
                p, tf.get(), tc.get(),
                opt.measure_ta ? nullptr : ta.get(),
                bench::run_seed(opt.seed, cell.rep, 2)};
            parallel::AsyncMasterSlaveExecutor exec(algo, *problem, cluster);
            const auto run = exec.run(opt.evals);

            // Simulation model: distributions only.
            models::SimulationConfig sim_cfg{
                opt.evals, p, tf.get(), tc.get(),
                opt.measure_ta ? nullptr : ta.get(),
                bench::run_seed(opt.seed, cell.rep, 3)};
            const auto measured_ta = stats::make_delay(
                run.ta_applied.mean,
                run.ta_applied.mean > 0.0
                    ? run.ta_applied.stddev / run.ta_applied.mean
                    : 0.0);
            if (opt.measure_ta) sim_cfg.ta = measured_ta.get();

            CellResult& out = results[i];
            out.exp_time = run.elapsed;
            out.ta_applied = run.ta_applied;
            out.sim_time = models::simulate_async(sim_cfg).elapsed;
        });
    if (opt.metrics) sweep_metrics.write_json(std::cerr);
    report.throw_if_failed();

    // "Sat" columns extend the paper's table with the saturation-aware
    // closed form (models/analytical.hpp) — accurate on both sides of
    // P_UB without running the simulation.
    util::Table table({"Problem", "P", "TA", "TC", "TF", "Time", "Eff",
                       "AnaTime", "AnaErr", "SatTime", "SatErr", "SimTime",
                       "SimErr"});

    // Aggregate replicate cells in index order; cells are grouped per
    // configuration by construction.
    std::size_t base = 0;
    for (const std::string& problem_name : opt.problems) {
        for (const double tf_mean : opt.tfs) {
            for (const std::int64_t procs_signed : opt.procs) {
                const auto p = static_cast<std::uint64_t>(procs_signed);
                stats::Accumulator exp_time, sim_time;
                stats::Summary ta_pooled;
                for (std::uint64_t rep = 0; rep < opt.replicates; ++rep) {
                    const CellResult& r = results[base + rep];
                    exp_time.add(r.exp_time);
                    sim_time.add(r.sim_time);
                    ta_pooled.merge(r.ta_applied);
                }
                base += opt.replicates;

                const double ta_used = ta_pooled.mean;
                const models::TimingCosts costs{tf_mean, bench::kPaperTc,
                                                ta_used};
                const double actual = exp_time.mean();
                const double analytical =
                    models::async_parallel_time(opt.evals, p, costs);
                const double saturating =
                    models::async_parallel_time_saturating(opt.evals, p,
                                                           costs);
                const double simulated = sim_time.mean();
                const double efficiency =
                    models::serial_time(opt.evals, costs) /
                    (static_cast<double>(p) * actual);

                table.add_row(
                    {problem_name, std::to_string(p),
                     util::format_fixed(ta_used, 6),
                     util::format_fixed(bench::kPaperTc, 6),
                     util::format_fixed(tf_mean, 3),
                     util::format_seconds(actual),
                     util::format_fixed(efficiency, 2),
                     util::format_seconds(analytical),
                     util::format_percent(
                         models::relative_error(actual, analytical)),
                     util::format_seconds(saturating),
                     util::format_percent(
                         models::relative_error(actual, saturating)),
                     util::format_seconds(simulated),
                     util::format_percent(
                         models::relative_error(actual, simulated))});
            }
        }
    }

    if (opt.csv)
        table.print_csv(std::cout);
    else
        table.print(std::cout);

    // The Section VI worked example: processor count bounds for DTLZ2 at
    // T_F = 0.01 (paper: P_UB = 244).
    std::cout << "\nProcessor-count bounds (Eqs. 3-4):\n";
    for (const std::string& problem_name : opt.problems) {
        for (const double tf_mean : opt.tfs) {
            const models::TimingCosts costs{
                tf_mean, bench::kPaperTc,
                bench::paper_ta_mean(problem_name, 128)};
            std::cout << "  " << problem_name << " TF=" << tf_mean
                      << "  P_UB = "
                      << util::format_fixed(
                             models::processor_upper_bound(costs), 0)
                      << "  P_LB > "
                      << util::format_fixed(
                             models::processor_lower_bound(costs), 3)
                      << "\n";
        }
    }
    return 0;
}
