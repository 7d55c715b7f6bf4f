/// Variation-operator benchmark and recorded-offspring agreement gate.
///
/// Offspring generation is the second component of the master's
/// per-result overhead T_A (after archive insertion), so the arena path —
/// apply_into()/produce_batch() writing into SolutionPool rows with reused
/// scratch and cached bounds — directly moves the paper's saturation
/// bound P_UB = T_F / (2·T_C + T_A). This benchmark times each ensemble
/// operator (SBX+PM, DE+PM, PCX+PM, SPX+PM, UNDX+PM, UM) on the paper's
/// two experiment problems. Its agreement gate replays the recorded
/// offspring digests of tests/operator_digests.hpp (every raw operator and
/// every composite, through apply() and apply_into()) and checks
/// produce_batch against sequential apply_into on one RNG stream; any
/// divergence exits 2.
///
/// ci.sh runs `--quick` (DTLZ2_5 only, fewer samples) as a smoke gate:
/// agreement plus the per-operator timings. The full grid
/// additionally times the end-to-end master hot loop — generation +
/// ingestion per offspring, evaluation excluded — on the paper's two
/// problems at population 100 (ε = 0.25) and at the 10^4-member archive
/// configuration (ε = 0.06), through the handle path the master runs,
/// and gates the T_A headline: the population-100 median speedup over
/// the pre-arena seed must be >= 2x, and each 10^4-member cell must
/// individually be >= 2x over the seed.
/// The full grid produces the checked-in BENCH_operators.json
/// (regenerate from a Release build with
/// `micro_operators --json BENCH_operators.json`).
///
/// Flags: --batch 32  --samples 5  --seed 123  --json FILE  --quick

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "moea/borg.hpp"
#include "moea/operators.hpp"
#include "operator_digests.hpp"
#include "problems/problem.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace borg;
using namespace borg::moea;

double elapsed_ns(std::chrono::steady_clock::time_point t0,
                  std::chrono::steady_clock::time_point t1) {
    return std::chrono::duration<double, std::nano>(t1 - t0).count();
}

struct Setup {
    std::unique_ptr<problems::Problem> problem;
    std::vector<std::unique_ptr<Variation>> ops;
    std::vector<std::vector<double>> parents;

    explicit Setup(const std::string& name, std::uint64_t seed)
        : problem(problems::make_problem(name)),
          ops(make_borg_operators(*problem)) {
        util::Rng rng(seed);
        for (int i = 0; i < 10; ++i) {
            std::vector<double> x(problem->num_variables());
            for (std::size_t j = 0; j < x.size(); ++j)
                x[j] = rng.uniform(problem->lower_bound(j),
                                   problem->upper_bound(j));
            parents.push_back(std::move(x));
        }
    }

    ParentView view(std::size_t arity) const {
        ParentView v;
        for (std::size_t i = 0; i < arity; ++i) v.emplace_back(parents[i]);
        return v;
    }
};

/// Every operator must reproduce its recorded offspring digest through
/// both entry points. Returns false on any divergence.
bool recorded_digests_gate() {
    const auto problem = problems::make_problem(testops::kProblem);
    const auto check = [&](std::vector<std::unique_ptr<Variation>> ops,
                           std::span<const testops::RecordedDigest> recorded,
                           std::uint64_t seed, int trials) {
        util::Rng parent_rng(testops::kParentSeed);
        for (std::size_t k = 0; k < ops.size(); ++k) {
            const testops::OffspringDigests got = testops::digest_offspring(
                *ops[k], *problem, parent_rng, seed, trials);
            if (ops[k]->name() != recorded[k].name ||
                got.apply != recorded[k].digest ||
                got.apply_into != recorded[k].digest) {
                std::cerr << "FAIL: " << ops[k]->name()
                          << " offspring diverged from the recorded digest\n";
                return false;
            }
        }
        return true;
    };
    return check(testops::all_raw_operators(*problem), testops::kRawDigests,
                 testops::kRawSeed, testops::kRawTrials) &&
           check(make_borg_operators(*problem), testops::kEnsembleDigests,
                 testops::kEnsembleSeed, testops::kEnsembleTrials);
}

/// produce_batch must equal sequential apply_into calls on a lockstep RNG
/// stream. Returns false on any divergence.
bool batch_agreement_gate(Setup& setup, std::size_t batch,
                          std::uint64_t seed) {
    for (auto& op : setup.ops) {
        const ParentView parents = setup.view(op->arity());
        const std::size_t n = setup.problem->num_variables();
        util::Rng batch_rng(seed), seq_rng(seed);
        std::vector<double> row(n);
        std::vector<double> rows(batch * n);
        for (std::size_t trial = 0; trial < 200; trial += batch) {
            const std::size_t count =
                std::min(batch, std::size_t{200} - trial);
            op->produce_batch(parents, batch_rng, count,
                              std::span<double>(rows.data(), count * n));
            for (std::size_t i = 0; i < count; ++i) {
                op->apply_into(parents, seq_rng, row);
                if (!std::equal(row.begin(), row.end(),
                                rows.begin() + i * n)) {
                    std::cerr << "FAIL: " << op->name()
                              << " produce_batch diverged at offspring "
                              << trial + i << "\n";
                    return false;
                }
            }
        }
    }
    return true;
}

/// Median ns/offspring over \p samples; the inner cycle repeats until it
/// runs >= 20 ms so clock quantization stays negligible. The RNG stream is
/// reseeded per sample, so every sample does identical numerical work.
template <typename Body>
double median_ns_per_offspring(std::size_t samples, std::uint64_t seed,
                               std::size_t offspring_per_cycle, Body&& body) {
    const auto t0 = std::chrono::steady_clock::now();
    {
        util::Rng rng(seed);
        body(rng);
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double once = std::max(1.0, elapsed_ns(t0, t1));
    constexpr double kMinSampleNs = 2e7;
    const auto reps = static_cast<std::uint64_t>(
        std::max(1.0, std::ceil(kMinSampleNs / once)));
    std::vector<double> medians;
    for (std::size_t s = 0; s < samples; ++s) {
        util::Rng rng(seed);
        const auto s0 = std::chrono::steady_clock::now();
        for (std::uint64_t r = 0; r < reps; ++r) body(rng);
        const auto s1 = std::chrono::steady_clock::now();
        medians.push_back(
            elapsed_ns(s0, s1) /
            static_cast<double>(reps * offspring_per_cycle));
    }
    std::sort(medians.begin(), medians.end());
    return medians[medians.size() / 2];
}

struct OpReport {
    std::string problem;
    std::string op;
    double batch_ns = 0.0;
};

/// One (problem, ε) cell of the end-to-end master hot loop, timed with
/// the exact protocol the seed baseline was measured with: each pass runs
/// a fresh algorithm through 20k warm-up offspring and 30k timed ones,
/// accumulating per-offspring generation + ingestion with evaluation
/// excluded, and the cell is the median of kLoopPasses passes (a single
/// pass moves by ±30 % with host noise).
struct LoopCell {
    std::string problem;
    double epsilon = 0.0;
    std::size_t archive = 0;
    double arena_ns = 0.0; ///< handle path: generate + ingest
    double seed_ns = 0.0;  ///< pre-arena seed, same protocol (see kSeedBaseline)
    double speedup_vs_seed = 0.0;
};

/// Steady-state master loop ns/offspring measured at the pre-arena seed
/// (commit 36199b5, the tree before the SolutionPool refactor) with the
/// identical protocol: BorgParams::for_problem(problem, ε),
/// initial_population_size = 100, seed 42, 20k warm-up + 30k timed,
/// evaluation excluded; median of five passes of a Release build on a
/// 4-vCPU Intel Xeon VM (the host BENCH_operators.json is recorded on).
/// These anchor the speedup_vs_seed column; re-measure them when moving
/// BENCH_operators.json to new hardware.
struct SeedBaseline {
    const char* problem;
    double epsilon;
    double ns_per_offspring;
};
constexpr SeedBaseline kSeedBaseline[] = {
    {"dtlz2_5", 0.25, 4305.0},
    {"uf11", 0.25, 7098.0},
    {"dtlz2_5", 0.06, 258680.0},
    {"uf11", 0.06, 162480.0},
};

double seed_baseline_ns(const std::string& problem, double epsilon) {
    for (const SeedBaseline& b : kSeedBaseline)
        if (problem == b.problem && epsilon == b.epsilon)
            return b.ns_per_offspring;
    return 0.0;
}

/// The grid's two ε: population 100, and the 10^4-member archive.
constexpr double kPop100Epsilon = 0.25;
constexpr double kArchive10kEpsilon = 0.06;

constexpr int kLoopWarmup = 20000;
constexpr int kLoopTimed = 30000;
constexpr int kLoopPasses = 5;

double time_arena_loop(problems::Problem& problem, const BorgParams& params,
                       std::size_t& archive_out) {
    BorgMoea alg(problem, params, 42);
    for (int i = 0; i < kLoopWarmup; ++i) {
        const SolutionHandle h = alg.next_offspring_handle();
        evaluate(problem, alg.pool(), h);
        alg.receive_handle(h);
    }
    double ns = 0.0;
    for (int i = 0; i < kLoopTimed; ++i) {
        const auto t0 = std::chrono::steady_clock::now();
        const SolutionHandle h = alg.next_offspring_handle();
        const auto t1 = std::chrono::steady_clock::now();
        evaluate(problem, alg.pool(), h);
        const auto t2 = std::chrono::steady_clock::now();
        alg.receive_handle(h);
        const auto t3 = std::chrono::steady_clock::now();
        ns += elapsed_ns(t0, t1) + elapsed_ns(t2, t3);
    }
    archive_out = alg.archive().size();
    return ns / kLoopTimed;
}

LoopCell master_loop_cell(const std::string& name, double epsilon) {
    LoopCell cell;
    cell.problem = name;
    cell.epsilon = epsilon;
    cell.seed_ns = seed_baseline_ns(name, epsilon);

    const auto problem = problems::make_problem(name);
    BorgParams params = BorgParams::for_problem(*problem, epsilon);
    params.initial_population_size = 100;
    std::vector<double> passes;
    for (int pass = 0; pass < kLoopPasses; ++pass)
        passes.push_back(time_arena_loop(*problem, params, cell.archive));
    std::sort(passes.begin(), passes.end());
    cell.arena_ns = passes[passes.size() / 2];
    if (cell.seed_ns > 0.0 && cell.arena_ns > 0.0)
        cell.speedup_vs_seed = cell.seed_ns / cell.arena_ns;
    return cell;
}

} // namespace

int main(int argc, char** argv) {
    util::CliArgs args(argc, argv);
    args.check_known({"batch", "samples", "seed", "json", "quick"});
    const auto batch = static_cast<std::size_t>(args.get_uint("batch", 32));
    auto samples = static_cast<std::size_t>(args.get_uint("samples", 5));
    const auto seed = static_cast<std::uint64_t>(args.get_uint("seed", 123));
    const std::string json_path = args.get("json", "");
    const bool quick = args.get_bool("quick");
    std::vector<std::string> problem_names{"dtlz2_5", "uf11"};
    if (quick) {
        problem_names = {"dtlz2_5"};
        samples = std::min<std::size_t>(samples, 3);
    }

    if (!recorded_digests_gate()) return 2;

    std::cout << "operator ensemble: produce_batch(" << batch
              << ") ns/offspring, median of " << samples << " samples\n";
    util::Table table({"problem", "operator", "batch ns"});
    std::vector<OpReport> reports;
    int rc = 0;
    double sink = 0.0;
    for (const std::string& name : problem_names) {
        Setup setup(name, seed);
        if (!batch_agreement_gate(setup, batch, seed ^ 0xa5a5a5a5ull))
            return 2;

        const std::size_t n = setup.problem->num_variables();
        for (auto& op : setup.ops) {
            const ParentView parents = setup.view(op->arity());
            OpReport report;
            report.problem = name;
            report.op = op->name();
            std::vector<double> rows(batch * n);
            report.batch_ns = median_ns_per_offspring(
                samples, seed + 1, batch, [&](util::Rng& rng) {
                    op->produce_batch(parents, rng, batch, rows);
                    sink += rows[0];
                });
            reports.push_back(report);

            char batch_buf[32];
            std::snprintf(batch_buf, sizeof(batch_buf), "%.0f",
                          report.batch_ns);
            table.add_row({name, report.op, batch_buf});
        }
    }
    table.print(std::cout);
    if (sink == 0.0) std::cerr << "no offspring was ever produced?\n";
    std::cout << "agreement: recorded offspring digests (apply / "
                 "apply_into) and produce_batch bit-identical on every "
                 "operator\n";

    // Full grid: the end-to-end master hot loop (the T_A headline),
    // compared against the recorded seed baseline.
    std::vector<LoopCell> loop_cells;
    if (!quick) {
        std::cout << "\nmaster hot loop: generation + ingestion ns/offspring"
                     " (evaluation excluded), 20k warm-up + 30k timed,"
                     " median of "
                  << kLoopPasses << " passes\n";
        util::Table loop_table({"problem", "eps", "archive", "arena ns",
                                "seed ns", "vs seed"});
        for (const double eps : {kPop100Epsilon, kArchive10kEpsilon})
            for (const char* name : {"dtlz2_5", "uf11"})
                loop_cells.push_back(master_loop_cell(name, eps));
        std::vector<double> pop100_speedups;
        for (const LoopCell& cell : loop_cells) {
            char eps_buf[16], arena_buf[32], seed_buf[32], speed_buf[32];
            std::snprintf(eps_buf, sizeof(eps_buf), "%.2f", cell.epsilon);
            std::snprintf(arena_buf, sizeof(arena_buf), "%.0f",
                          cell.arena_ns);
            std::snprintf(seed_buf, sizeof(seed_buf), "%.0f", cell.seed_ns);
            std::snprintf(speed_buf, sizeof(speed_buf), "%.2fx",
                          cell.speedup_vs_seed);
            loop_table.add_row({cell.problem, eps_buf,
                                std::to_string(cell.archive), arena_buf,
                                seed_buf, speed_buf});

            if (cell.epsilon == kPop100Epsilon) {
                pop100_speedups.push_back(cell.speedup_vs_seed);
            } else if (cell.speedup_vs_seed < 2.0) {
                // Gate: each 10^4-member cell individually >= 2x vs seed.
                std::cerr << "FAIL: " << cell.problem << " eps " << eps_buf
                          << ": speedup vs seed " << speed_buf << " < 2x\n";
                rc = 1;
            }
        }
        loop_table.print(std::cout);
        // Gate: population-100 median speedup vs seed >= 2x (the
        // acceptance-criterion headline; with two problems the median is
        // their midpoint).
        std::sort(pop100_speedups.begin(), pop100_speedups.end());
        const double median =
            pop100_speedups.empty()
                ? 0.0
                : pop100_speedups.size() % 2 == 1
                    ? pop100_speedups[pop100_speedups.size() / 2]
                    : 0.5 * (pop100_speedups[pop100_speedups.size() / 2 - 1] +
                             pop100_speedups[pop100_speedups.size() / 2]);
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.2fx", median);
        if (median < 2.0) {
            std::cerr << "FAIL: population-100 median speedup vs seed " << buf
                      << " < 2x\n";
            rc = 1;
        } else {
            std::cout << "gate: population-100 median speedup vs seed " << buf
                      << "\n";
        }
    }

    if (!json_path.empty()) {
        std::ofstream out(json_path);
        if (!out) {
            std::cerr << "FAIL: cannot write " << json_path << "\n";
            return 2;
        }
        out << "{\n  \"benchmark\": \"micro_operators\",\n"
            << "  \"batch\": " << batch << ",\n"
            << "  \"samples\": " << samples << ",\n  \"cells\": [\n";
        for (std::size_t i = 0; i < reports.size(); ++i) {
            const OpReport& r = reports[i];
            char buf[256];
            std::snprintf(buf, sizeof(buf),
                          "    {\"problem\": \"%s\", \"operator\": \"%s\", "
                          "\"batch_ns\": %.1f}%s\n",
                          r.problem.c_str(), r.op.c_str(), r.batch_ns,
                          i + 1 < reports.size() ? "," : "");
            out << buf;
        }
        out << "  ],\n  \"master_loop\": [\n";
        for (std::size_t i = 0; i < loop_cells.size(); ++i) {
            const LoopCell& c = loop_cells[i];
            char buf[320];
            std::snprintf(
                buf, sizeof(buf),
                "    {\"problem\": \"%s\", \"epsilon\": %.2f, "
                "\"archive\": %zu, \"arena_ns\": %.0f, "
                "\"seed_ns\": %.0f, \"speedup_vs_seed\": %.2f}%s\n",
                c.problem.c_str(), c.epsilon, c.archive, c.arena_ns,
                c.seed_ns, c.speedup_vs_seed,
                i + 1 < loop_cells.size() ? "," : "");
            out << buf;
        }
        out << "  ],\n"
            << "  \"seed_baseline\": \"commit 36199b5 (pre-arena), same "
               "machine and protocol: 20k warm-up + 30k timed offspring, "
               "seed 42, initial population 100, evaluation excluded; "
               "every master_loop cell and baseline the median of 5 "
               "passes\"\n";
        out << "}\n";
        std::cout << "wrote " << json_path << "\n";
    }
    return rc;
}
