/// Ablation bench for the design choices DESIGN.md §7 calls out:
///   * ε-progress restarts on/off,
///   * auto-adaptive operator selection vs uniform vs each single operator,
///   * steady-state asynchronous Borg vs generational NSGA-II.
/// Each variant runs the same budget on DTLZ2_5 and UF11; the output is
/// final normalized hypervolume (mean over replicates).
///
/// Every (variant, problem, replicate) cell is an independent serial run
/// and executes replicate-parallel on the sweep engine (DESIGN.md §9);
/// stdout is byte-identical for any --jobs value.
///
/// Flags: --evals 50000  --replicates 3  --epsilon 0.15  --seed 2013
///        --quick  --jobs N  --metrics

#include <iostream>

#include "bench/sweep_runner.hpp"
#include "experiment_common.hpp"
#include "metrics/hypervolume.hpp"
#include "moea/nsga2.hpp"
#include "obs/metrics_registry.hpp"
#include "problems/reference_set.hpp"
#include "stats/summary.hpp"
#include "util/table.hpp"

namespace {

using namespace borg;

struct Variant {
    std::string name;
    bool restarts = true;
    bool adaptation = true;
    int forced_operator = -1;
    bool nsga2 = false;
};

} // namespace

int main(int argc, char** argv) {
    util::CliArgs args(argc, argv);
    args.check_known(
        {"evals", "replicates", "epsilon", "seed", "quick", "jobs",
         "metrics"});
    std::uint64_t evals =
        static_cast<std::uint64_t>(args.get_uint("evals", 50000));
    std::uint64_t replicates =
        static_cast<std::uint64_t>(args.get_uint("replicates", 3));
    const double epsilon = args.get_double("epsilon", 0.15);
    const auto seed =
        static_cast<std::uint64_t>(args.get_uint("seed", 2013));
    const bool dump_metrics = args.get_bool("metrics");
    const std::size_t jobs = bench::parse_jobs(args);
    if (args.get_bool("quick")) {
        evals = 20000;
        replicates = 1;
    }

    const std::vector<Variant> variants{
        {"borg (full)", true, true, -1, false},
        {"no restarts", false, true, -1, false},
        {"no adaptation (uniform ops)", true, false, -1, false},
        {"SBX+PM only", true, true, 0, false},
        {"DE+PM only", true, true, 1, false},
        {"PCX+PM only", true, true, 2, false},
        {"SPX+PM only", true, true, 3, false},
        {"UNDX+PM only", true, true, 4, false},
        {"UM only", true, true, 5, false},
        {"NSGA-II (generational)", false, false, -1, true},
    };

    std::cout << "Ablation — final normalized hypervolume after " << evals
              << " evaluations (" << replicates << " replicate(s))\n\n";

    const std::vector<std::string> problem_names{"dtlz2_5", "uf11"};

    // Flattened (variant, problem, replicate) grid; replicate innermost.
    const std::size_t cells =
        variants.size() * problem_names.size() * replicates;
    std::vector<double> hv_results(cells, 0.0);

    obs::MetricsRegistry sweep_metrics;
    bench::SweepRunner runner({.jobs = jobs,
                               .metrics = &sweep_metrics,
                               .progress = &std::cerr,
                               .label = "Ablation"});
    const bench::SweepReport report = runner.run(cells, [&](std::size_t i) {
        const std::uint64_t rep = i % replicates;
        const std::size_t pr = (i / replicates) % problem_names.size();
        const Variant& variant =
            variants[i / (replicates * problem_names.size())];
        const std::string& problem_name = problem_names[pr];
        const auto problem = problems::make_problem(problem_name);
        const auto normalizer = metrics::NormalizerCache::global().get(
            problem_name,
            [&] { return problems::reference_set_for(problem_name); });
        if (variant.nsga2) {
            moea::Nsga2 algo(*problem, 100, bench::run_seed(seed, rep, 50));
            moea::run_serial_generational(algo, *problem, evals);
            hv_results[i] = normalizer->normalized(algo.front());
        } else {
            moea::BorgParams params =
                bench::experiment_params(*problem, epsilon);
            params.enable_restarts = variant.restarts;
            params.enable_adaptation = variant.adaptation;
            params.forced_operator = variant.forced_operator;
            moea::BorgMoea algo(*problem, params,
                                bench::run_seed(seed, rep, 51));
            moea::run_serial(algo, *problem, evals);
            hv_results[i] =
                normalizer->normalized(algo.archive().objective_vectors());
        }
    });
    if (dump_metrics) sweep_metrics.write_json(std::cerr);
    report.throw_if_failed();

    util::Table table({"Variant", "DTLZ2_5", "UF11"});
    std::size_t base = 0;
    for (const Variant& variant : variants) {
        std::vector<std::string> row{variant.name};
        for (std::size_t pr = 0; pr < problem_names.size(); ++pr) {
            stats::Accumulator hv;
            for (std::uint64_t rep = 0; rep < replicates; ++rep)
                hv.add(hv_results[base + rep]);
            base += replicates;
            row.push_back(util::format_fixed(hv.mean(), 3));
        }
        table.add_row(std::move(row));
    }
    table.print(std::cout);
    std::cout << "\nExpected shape: the full Borg configuration is at or "
                 "near the top on both problems;\nsingle-operator variants "
                 "win on at most one problem (no-free-lunch motivation for "
                 "auto-adaptation).\n";
    return 0;
}
