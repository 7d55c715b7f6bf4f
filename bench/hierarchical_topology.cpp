/// Extension bench (paper Section VI + conclusion): hierarchical
/// multi-master topologies against a single saturated master.
///
/// For a small T_F where the single-master upper bound P_UB is far below
/// the available processor count, the paper suggests splitting P into
/// several concurrently-running master-slave instances. This driver sweeps
/// island counts at fixed total P and reports elapsed time, efficiency,
/// and solution quality of the merged archive — quantifying exactly how
/// much the hierarchy recovers.
///
/// Flags: --problem dtlz2_5  --tf 0.001  --procs 512  --evals 100000
///        --islands 1,2,4,8,16  --migration 1000  --epsilon 0.15
///        --replicates 2  --seed 2013  --quick
///        --hv-algo {auto,wfg,mc}  --hv-mc-samples N

#include <iostream>

#include "experiment_common.hpp"
#include "metrics/hypervolume.hpp"
#include "models/analytical.hpp"
#include "parallel/multi_master.hpp"
#include "problems/reference_set.hpp"
#include "stats/summary.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
    using namespace borg;

    util::CliArgs args(argc, argv);
    args.check_known({"problem", "tf", "procs", "evals", "islands",
                      "migration", "epsilon", "replicates", "seed", "quick",
                      "hv-algo", "hv-mc-samples"});
    const std::string problem_name = args.get("problem", "dtlz2_5");
    const double tf_mean = args.get_double("tf", 0.001);
    const auto procs = static_cast<std::uint64_t>(args.get_int("procs", 512));
    std::uint64_t evals =
        static_cast<std::uint64_t>(args.get_int("evals", 100000));
    auto islands = args.get_ints("islands", {1, 2, 4, 8, 16});
    const auto migration =
        static_cast<std::uint64_t>(args.get_int("migration", 1000));
    const double epsilon = args.get_double("epsilon", 0.15);
    std::uint64_t replicates =
        static_cast<std::uint64_t>(args.get_int("replicates", 2));
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 2013));
    if (args.get_bool("quick")) {
        evals = 30000;
        replicates = 1;
        islands = {1, 4, 16};
    }

    const metrics::HvConfig hv = metrics::hv_config_from_cli(args);

    const auto problem = problems::make_problem(problem_name);
    const auto refset = problems::reference_set_for(problem_name);
    const metrics::HypervolumeNormalizer normalizer(refset, /*margin=*/0.1,
                                                    hv);

    const double ta_mean = bench::paper_ta_mean(problem_name, procs);
    const auto tf = stats::make_delay(tf_mean, 0.1);
    const auto tc = stats::make_delay(bench::kPaperTc, 0.0);
    const auto ta = stats::make_delay(ta_mean, 0.2);
    const models::TimingCosts costs{tf_mean, bench::kPaperTc, ta_mean};

    std::cout << "Hierarchical topology sweep — " << problem->name()
              << ", T_F = " << tf_mean << " s, P = " << procs
              << " total, N = " << evals << "\n"
              << "Single-master saturation bound P_UB = "
              << util::format_fixed(models::processor_upper_bound(costs), 0)
              << " (Eq. 3); islands beyond P/P_UB masters should stop "
                 "helping.\n\n";

    util::Table table({"Islands", "P/island", "Time", "Eff", "HV",
                       "Migrations"});
    for (const std::int64_t islands_signed : islands) {
        const auto island_count = static_cast<std::uint64_t>(islands_signed);
        if (procs < 2 * island_count) continue;
        stats::Accumulator time_acc, hv_acc, mig_acc;
        for (std::uint64_t rep = 0; rep < replicates; ++rep) {
            parallel::MultiMasterConfig cfg;
            cfg.cluster = parallel::VirtualClusterConfig{
                procs, tf.get(), tc.get(), ta.get(),
                bench::run_seed(seed, rep, island_count)};
            cfg.islands = island_count;
            cfg.migration_interval = migration;
            parallel::MultiMasterExecutor exec(
                *problem, bench::experiment_params(*problem, epsilon), cfg);
            const auto result = exec.run(evals);
            time_acc.add(result.elapsed);
            mig_acc.add(static_cast<double>(result.migrations));
            metrics::Front front;
            for (const auto& s : result.combined_archive)
                front.push_back(s.objectives);
            hv_acc.add(normalizer.normalized(front));
        }
        const double efficiency = models::serial_time(evals, costs) /
                                  (static_cast<double>(procs) *
                                   time_acc.mean());
        table.add_row({std::to_string(island_count),
                       std::to_string(procs / island_count),
                       util::format_seconds(time_acc.mean()),
                       util::format_fixed(efficiency, 2),
                       util::format_fixed(hv_acc.mean(), 3),
                       util::format_fixed(mig_acc.mean(), 0)});
    }
    table.print(std::cout);
    std::cout << "\nExpected shape: elapsed time drops roughly linearly in "
                 "island count until each island's\nworker share falls "
                 "below its own P_UB; solution quality holds (migration "
                 "shares the front).\n";
    return 0;
}
