/// Topology design: the paper's stated use of the simulation model —
/// "design the parallel topology of the Borg MOEA to maximize efficiency
/// and solution quality" (Sections I, VI).
///
/// Workflow (the full paper pipeline at workstation scale):
///   1. measure — run a short physical master-slave burst and collect real
///      T_A samples (master processing per result) and result latencies;
///   2. fit — select distributions for T_A / T_C by log-likelihood
///      (the R-project step of Section IV-B);
///   3. simulate — sweep processor counts through the DES simulation model
///      for the user's expected evaluation time T_F;
///   4. recommend — report the efficiency curve, the analytical bounds
///      P_LB / P_UB, and the smallest P within 5% of peak throughput.
///
/// Flags: --tf 0.05  --evals 100000  --p-max 4096

#include <cmath>
#include <cstdio>
#include <memory>
#include <utility>

#include "models/analytical.hpp"
#include "models/simulation_model.hpp"
#include "moea/borg.hpp"
#include "parallel/thread_executor.hpp"
#include "problems/problem.hpp"
#include "stats/fitting.hpp"
#include "stats/summary.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
    using namespace borg;

    util::CliArgs args(argc, argv);
    args.check_known({"tf", "evals", "p-max"});
    const double tf_mean = args.get_double("tf", 0.05);
    const auto evals =
        static_cast<std::uint64_t>(args.get_int("evals", 100000));
    const auto p_max = static_cast<std::uint64_t>(args.get_int("p-max", 4096));

    // --- 1. measure ------------------------------------------------------
    std::printf("[1/4] measuring master overhead with a physical "
                "master-slave burst...\n");
    const auto problem = problems::make_problem("dtlz2_5");
    moea::BorgMoea algorithm(*problem,
                             moea::BorgParams::for_problem(*problem, 0.15),
                             99);
    parallel::ThreadMasterSlaveExecutor executor(4);
    const auto burst = executor.run(algorithm, *problem, 20000);
    const auto ta_summary = stats::summarize(burst.ta_samples);
    const auto tc_summary = stats::summarize(burst.tc_samples);
    std::printf("      T_A: mean %.1f us (sd %.1f us, n = %zu)\n",
                ta_summary.mean * 1e6, ta_summary.stddev * 1e6,
                ta_summary.count);
    std::printf("      T_C: mean %.1f us (result-ring latency)\n",
                tc_summary.mean * 1e6);

    // --- 2. fit ----------------------------------------------------------
    std::printf("[2/4] fitting distributions by log-likelihood...\n");
    const auto fits = stats::fit_all(burst.ta_samples);
    for (std::size_t i = 0; i < std::min<std::size_t>(3, fits.size()); ++i)
        std::printf("      %zu. %-12s logL = %.0f  AIC = %.0f%s\n", i + 1,
                    fits[i].family.c_str(), fits[i].log_likelihood,
                    fits[i].aic, i == 0 ? "   <- selected" : "");
    const auto ks = stats::ks_test_fit(fits.front(), burst.ta_samples);
    std::printf("      goodness of fit (KS): D = %.4f, p = %.3f%s\n",
                ks.statistic, ks.p_value,
                ks.p_value < 0.01 ? "  (imperfect but adequate for the "
                                    "queueing model — only the mean and "
                                    "spread matter)"
                                  : "");
    const stats::Distribution& ta_fit = *fits.front().distribution;
    const auto tc_fit = stats::make_delay(
        std::max(tc_summary.mean, 1e-7),
        tc_summary.mean > 0 ? tc_summary.stddev / tc_summary.mean : 0.0);

    // --- 3. simulate -----------------------------------------------------
    std::printf("[3/4] sweeping processor counts for T_F = %.3f s...\n\n",
                tf_mean);
    const auto tf_dist = stats::make_delay(tf_mean, 0.1);
    const models::TimingCosts costs{tf_mean, tc_fit->mean(), ta_fit.mean()};

    std::printf("      %8s %12s %12s %10s\n", "P", "sim T_P (s)",
                "throughput", "efficiency");
    double best_throughput = 0.0;
    std::vector<std::pair<std::uint64_t, double>> sweep; // (P, throughput)
    std::vector<double> efficiencies;
    for (std::uint64_t p = 2; p <= p_max; p *= 2) {
        const std::uint64_t n = std::max<std::uint64_t>(8 * (p - 1), 4000);
        models::SimulationConfig cfg{n, p, tf_dist.get(), tc_fit.get(),
                                     &ta_fit, 17 + p};
        const auto result = models::simulate_async(cfg);
        const double throughput =
            static_cast<double>(n) / result.elapsed; // evals per second
        const double efficiency = models::simulated_efficiency(cfg, result);
        sweep.emplace_back(p, throughput);
        efficiencies.push_back(efficiency);
        best_throughput = std::max(best_throughput, throughput);
        std::printf("      %8llu %12.2f %12.1f %10.2f\n",
                    static_cast<unsigned long long>(p),
                    static_cast<double>(evals) / throughput, throughput,
                    efficiency);
    }

    // --- 4. recommend ----------------------------------------------------
    std::printf("\n[4/4] recommendation\n");
    std::printf("      analytical bounds: P_LB > %.2f, P_UB = %.0f "
                "(master saturation)\n",
                models::processor_lower_bound(costs),
                models::processor_upper_bound(costs));
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        if (sweep[i].second >= 0.95 * best_throughput) {
            std::printf("      smallest P within 5%% of peak throughput: "
                        "P = %llu (efficiency %.2f)\n",
                        static_cast<unsigned long long>(sweep[i].first),
                        efficiencies[i]);
            std::printf("      estimated wall time for N = %llu: %.1f s\n",
                        static_cast<unsigned long long>(evals),
                        static_cast<double>(evals) / sweep[i].second);
            break;
        }
    }
    std::printf("      past P_UB, extra workers only queue at the master — "
                "consider hierarchical\n      (multi-master) topologies "
                "there, as the paper's conclusion suggests.\n");
    return 0;
}
