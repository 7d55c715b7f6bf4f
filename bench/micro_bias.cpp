/// Evaluation-time-bias sweep: heterogeneous T_F models × master policies
/// (DESIGN.md §17).
///
/// The paper's simulations draw T_F i.i.d., under which the asynchronous
/// master is fair. Real fleets are heterogeneous, and an asynchronous
/// master then over-selects fast-evaluating solutions: their results
/// return sooner, enter the mating pool earlier, and — when evaluation
/// cost depends on the decision variables — their cheap offspring compound
/// the drift (Harada, arXiv:2107.12053; Guijt et al., arXiv:2303.15543).
///
/// This driver runs the *real* Borg algorithm on DTLZ2 under the async
/// virtual cluster for every (time model × policy) cell:
///
///   time models — `varcost` (lognormal base × decision-variable cost
///   multiplier: the heritable-bias regime) and `straggler` (every 4th
///   worker draws from a ~20x slower lognormal tail: the staleness
///   regime);
///
///   policies — `async` (baseline AsyncBorgPolicy), `freq` (Harada's
///   frequency-based parent selection), `spec` (bounded staleness with
///   speculative duplicate evaluation).
///
/// Every cell gets the same evaluation budget, so the countermeasures pay
/// for themselves or visibly don't. Per cell: the BiasMonitor's Pearson
/// corr(T_F, selection count) — 0 when unbiased, negative when fast
/// solutions are over-selected — mean T_F of selected vs never-selected
/// solutions, staleness, duplicate counts, and final-archive hypervolume.
///
/// Gates (exit 1 on failure; deterministic — fixed seeds). The freq gates
/// run on the varcost cell, where T_F is a trait of the solution and the
/// countermeasure has a signal to act on; in the straggler cell T_F is
/// worker luck, the per-solution correlation is inherently near zero, and
/// the failure mode is staleness — which is spec's cell:
///   * varcost/async shows the bias (corr <= -0.05);
///   * varcost/freq measurably reduces it (|corr| <= 0.85 * |async's|);
///   * freq costs no hypervolume at equal budget in either cell
///     (hv_freq >= 0.95 * hv_async);
///   * straggler/spec bounds the staleness tail (max < async's and
///     <= 3x the configured bound) and actually speculates.
///
/// ci.sh runs `--quick` as a smoke gate; the full run regenerates the
/// checked-in BENCH_bias.json (`micro_bias --json BENCH_bias.json`).
///
/// Flags: --evals 6000  --procs 64  --bound 48  --seed 2013
///        --json FILE  --quick

#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "metrics/hypervolume.hpp"
#include "moea/borg.hpp"
#include "parallel/bias_monitor.hpp"
#include "parallel/cluster_engine.hpp"
#include "parallel/master_policies.hpp"
#include "parallel/time_model.hpp"
#include "problems/dtlz.hpp"
#include "stats/distribution.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using namespace borg;

struct Cell {
    std::string model;
    std::string policy;
    parallel::BiasMonitor::Summary bias;
    double hv = 0.0;
    double elapsed = 0.0;
    std::uint64_t evaluations = 0;
    std::uint64_t duplicates_issued = 0;
    std::uint64_t duplicates_wasted = 0;
};

/// Hypervolume against a fixed reference, ignoring points outside the
/// reference box (early archives on a heterogeneous run can still carry a
/// point with g > 1).
double hv_of(const metrics::Front& front, const std::vector<double>& ref) {
    metrics::Front clipped;
    for (const auto& point : front) {
        bool inside = true;
        for (std::size_t i = 0; i < ref.size(); ++i)
            if (point[i] >= ref[i]) {
                inside = false;
                break;
            }
        if (inside) clipped.push_back(point);
    }
    if (clipped.empty()) return 0.0;
    return metrics::hypervolume(clipped, ref);
}

std::unique_ptr<parallel::TimeModel> make_model(const std::string& name,
                                                std::size_t workers) {
    if (name == "varcost") {
        // Base ~0.05 s lognormal; cost multiplier 0.1..10 driven by the
        // first (position) variable, so evaluation cost is a heritable
        // trait of the solution: offspring of cheap parents are cheap.
        static const stats::LogNormalDistribution base(-3.0, 0.3);
        return std::make_unique<parallel::VariableCostTimeModel>(
            &base, [](std::span<const double> x) {
                return x.empty() ? 1.0 : 0.1 + 9.9 * x[0];
            });
    }
    // straggler: every 4th worker is a chronic ~20x straggler.
    static const stats::LogNormalDistribution body(-3.0, 0.25);
    static const stats::LogNormalDistribution tail(0.0, 0.5);
    return parallel::PerWorkerTimeModel::straggler_fleet(workers, body, tail,
                                                         4);
}

Cell run_cell(const std::string& model_name, const std::string& policy_name,
              std::uint64_t evals, std::uint64_t procs, std::uint64_t seed,
              std::uint64_t bound) {
    problems::Dtlz2 problem(2);
    moea::BorgParams params = moea::BorgParams::for_problem(problem, 0.01);
    params.frequency_selection = policy_name == "freq";
    moea::BorgMoea algorithm(problem, params, seed);

    const auto tc = stats::make_delay(0.000006, 0.0);
    const auto ta = stats::make_delay(0.000060, 0.0);
    const std::size_t workers = procs - 1;
    const auto model = make_model(model_name, workers);

    parallel::ClusterEngine::Setup setup{
        .cluster = {procs, nullptr, tc.get(), ta.get(), seed}};
    setup.cluster.time_model = model.get();

    parallel::ClusterEngine engine(std::move(setup), {});
    parallel::BiasMonitor monitor;
    algorithm.set_selection_observer(&monitor);

    std::unique_ptr<parallel::AsyncBorgPolicy> policy;
    if (policy_name == "freq")
        policy = std::make_unique<parallel::AsyncFreqPolicy>(algorithm,
                                                             problem);
    else if (policy_name == "spec")
        policy = std::make_unique<parallel::AsyncSpecPolicy>(algorithm,
                                                             problem, bound);
    else
        policy =
            std::make_unique<parallel::AsyncBorgPolicy>(algorithm, problem);
    policy->set_bias_monitor(&monitor);

    const parallel::VirtualRunResult result =
        engine.run_events(*policy, evals);

    Cell cell;
    cell.model = model_name;
    cell.policy = policy_name;
    cell.bias = monitor.finalize();
    cell.hv = hv_of(algorithm.archive().objective_vectors(), {2.0, 2.0});
    cell.elapsed = result.elapsed;
    cell.evaluations = result.evaluations;
    if (const auto* spec =
            dynamic_cast<const parallel::AsyncSpecPolicy*>(policy.get())) {
        cell.duplicates_issued = spec->duplicates_issued();
        cell.duplicates_wasted = spec->duplicates_wasted();
    }
    return cell;
}

std::string fmt(double v, int digits = 3) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
    return buf;
}

} // namespace

int main(int argc, char** argv) {
    util::CliArgs args(argc, argv);
    args.check_known({"evals", "procs", "bound", "seed", "json", "quick"});
    std::uint64_t evals =
        static_cast<std::uint64_t>(args.get_uint("evals", 6000));
    const auto procs =
        static_cast<std::uint64_t>(args.get_uint("procs", 64));
    const auto bound =
        static_cast<std::uint64_t>(args.get_uint("bound", 48));
    const auto seed =
        static_cast<std::uint64_t>(args.get_uint("seed", 2013));
    const std::string json_path = args.get("json", "");
    const bool quick = args.get_bool("quick");
    if (quick) evals = 2500;

    std::cout << "Evaluation-time bias lab: real Borg on DTLZ2, async "
                 "virtual cluster, P = "
              << procs << ", " << evals << " evaluations per cell\n"
              << "corr = Pearson(T_F, selection count); negative means "
                 "fast solutions are over-selected\n\n";

    const std::vector<std::string> models = {"varcost", "straggler"};
    const std::vector<std::string> policies = {"async", "freq", "spec"};

    std::vector<Cell> cells;
    util::Table table({"model", "policy", "corr", "tf_sel", "tf_unsel",
                       "stale_mean", "stale_max", "dups", "hv", "T_P"});
    for (const std::string& model : models)
        for (const std::string& policy : policies) {
            Cell cell = run_cell(model, policy, evals, procs, seed, bound);
            table.add_row(
                {cell.model, cell.policy, fmt(cell.bias.correlation),
                 fmt(cell.bias.mean_eval_selected),
                 fmt(cell.bias.mean_eval_unselected),
                 fmt(cell.bias.staleness_mean, 1),
                 fmt(cell.bias.staleness_max, 0),
                 std::to_string(cell.duplicates_issued), fmt(cell.hv),
                 fmt(cell.elapsed, 1)});
            cells.push_back(std::move(cell));
        }
    table.print(std::cout);

    const auto find = [&](const std::string& model,
                          const std::string& policy) -> const Cell& {
        for (const Cell& c : cells)
            if (c.model == model && c.policy == policy) return c;
        std::cerr << "FAIL: missing cell " << model << "/" << policy << "\n";
        std::exit(2);
    };

    // ------------------------------------------------------------- gates
    int rc = 0;
    const auto gate = [&](bool ok, const std::string& what) {
        std::cout << (ok ? "gate: " : "FAIL: ") << what << "\n";
        if (!ok) rc = 1;
    };

    {
        const Cell& base = find("varcost", "async");
        const Cell& freq = find("varcost", "freq");
        gate(base.bias.correlation <= -0.05,
             "varcost/async shows the bias (corr " +
                 fmt(base.bias.correlation) + " <= -0.05)");
        gate(std::abs(freq.bias.correlation) <=
                 0.85 * std::abs(base.bias.correlation),
             "varcost/freq reduces it (corr " +
                 fmt(freq.bias.correlation) + " vs " +
                 fmt(base.bias.correlation) + ")");
    }
    for (const std::string& model : models) {
        const Cell& base = find(model, "async");
        const Cell& freq = find(model, "freq");
        gate(freq.hv >= 0.95 * base.hv,
             model + "/freq holds hypervolume at equal budget (" +
                 fmt(freq.hv) + " vs " + fmt(base.hv) + ")");
    }
    {
        const Cell& base = find("straggler", "async");
        const Cell& spec = find("straggler", "spec");
        gate(spec.bias.staleness_max < base.bias.staleness_max &&
                 spec.bias.staleness_max <= 3.0 * static_cast<double>(bound),
             "straggler/spec bounds the staleness tail (max " +
                 fmt(spec.bias.staleness_max, 0) + " vs " +
                 fmt(base.bias.staleness_max, 0) + ", bound " +
                 std::to_string(bound) + ")");
        gate(spec.duplicates_issued > 0,
             "straggler/spec actually speculated (" +
                 std::to_string(spec.duplicates_issued) + " duplicates, " +
                 std::to_string(spec.duplicates_wasted) + " wasted)");
    }

    if (!json_path.empty()) {
        std::ofstream out(json_path);
        if (!out) {
            std::cerr << "FAIL: cannot write " << json_path << "\n";
            return 2;
        }
        out << "{\n  \"benchmark\": \"micro_bias\",\n"
            << "  \"problem\": \"dtlz2-2\",\n"
            << "  \"evaluations\": " << evals << ",\n"
            << "  \"processors\": " << procs << ",\n"
            << "  \"staleness_bound\": " << bound << ",\n"
            << "  \"seed\": " << seed << ",\n  \"cells\": [\n";
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const Cell& c = cells[i];
            char buf[512];
            std::snprintf(
                buf, sizeof(buf),
                "    {\"model\": \"%s\", \"policy\": \"%s\", "
                "\"corr\": %.4f, \"solutions\": %zu, "
                "\"tf_selected\": %.4f, \"tf_unselected\": %.4f, "
                "\"staleness_mean\": %.2f, \"staleness_max\": %.0f, "
                "\"duplicates_issued\": %llu, \"duplicates_wasted\": %llu, "
                "\"hv\": %.4f, \"elapsed\": %.2f}%s\n",
                c.model.c_str(), c.policy.c_str(), c.bias.correlation,
                c.bias.solutions, c.bias.mean_eval_selected,
                c.bias.mean_eval_unselected, c.bias.staleness_mean,
                c.bias.staleness_max,
                static_cast<unsigned long long>(c.duplicates_issued),
                static_cast<unsigned long long>(c.duplicates_wasted), c.hv,
                c.elapsed, i + 1 < cells.size() ? "," : "");
            out << buf;
        }
        out << "  ]\n}\n";
        std::cout << "wrote " << json_path << "\n";
    }
    return rc;
}
