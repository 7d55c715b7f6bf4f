/// ε-archive insertion benchmark and agreement gate.
///
/// The master's per-result bookkeeping T_A is dominated by the two
/// dominance passes of an ingest — EpsilonBoxArchive::add and
/// Population::inject — the quantity the paper's saturation bound
/// P_UB = T_F / (2·T_C + T_A) caps scalability with (Eq. 3, Table II's
/// 23–78 µs means). This driver has two kinds of cell:
///
///  * Simplex cells time the ArchiveEngine against the NaiveArchive
///    reference oracle (tests/naive_archive.hpp) at steady-state archive
///    sizes {1e2, 1e3, 1e4}:
///    each prefills both archives with the same 20k-candidate stream of
///    jittered 5-objective simplex points (mostly mutually nondominated —
///    ε alone controls the resident size), asserting verdict-by-verdict,
///    membership, and counter agreement along the way, then reports median
///    ns/add on the steady-state archive.
///  * The replay cells predict the saturation benchmark's ingest ledger
///    (`moea.ingest_us_per_eval` on tcp_archive10k_saturated). A seeded
///    serial Borg run on DTLZ2_5 (ε = 0.06) is warmed up for 20 000
///    evaluations in-process; the archive and population are snapshotted,
///    and the next 20 000 evaluated offspring are recorded — the span one
///    saturation-benchmark run serves. The archive cell
///    replays that stream into the engine and the oracle restored from the
///    snapshot (agreement checked as above); the inject cell replays it
///    into a Population restored from the snapshot and into a scalar
///    reference of the injection rule kept in this file, checking every
///    verdict and the final membership, and reports the tiles the scans
///    visited per inject. A second inject cell does the same on a
///    100-member population (ε = 0.25, 500 serial evaluations), below
///    Population::kSpatialTiles. Nothing is downloaded: the stream is a
///    pure function of the seed.
///  * The kernel cell times DominanceTiles::scan alone, in ns per row, on
///    a mirror of the replayed population (the snapshot with the stream
///    injected) with the recorded stream as candidates, once per vector
///    width this CPU runs (the dispatcher picks the widest; every width
///    returns the same bits, checked here). It also checks the reach and
///    masked forms at every width on boxes over those rows. The
///    tournament cell times
///    Population's tournament — the batched contestant draw and
///    DominanceRows::tournament — on a row mirror of the same population
///    at Borg's tournament size (τ = 2 %), in ns per contestant, hot and
///    after a 1 MB sweep, once per vector width. Every width, and
///    Population::tournament_pick_index itself, must pick the winners a
///    scalar compare_constrained loop picks from the same draws.
///
/// ci.sh runs `--quick` (the 1e3-size simplex cell, the replay cells and
/// the kernel and tournament cells) as a smoke gate: exit is non-zero if
/// the engine disagrees with the oracle, if injection disagrees with its
/// reference, if two kernel widths disagree (reach forms included), if a
/// masked scan over the reached tiles misses a row, if a tournament picks
/// another winner than its reference, or if the engine is not faster on
/// the 1e3 cell. The full grid additionally gates ≥2x on the
/// 1e4 cell and produces the checked-in BENCH_archive.json (regenerate
/// from a Release build with `micro_archive --json BENCH_archive.json`).
///
/// Flags: --sizes 100,1000,10000  --prefill 20000  --samples 5  --seed 7
///        --json FILE  --quick

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "moea/borg.hpp"
#include "moea/epsilon_archive.hpp"
#include "moea/population.hpp"
#include "moea/restart.hpp"
#include "naive_archive.hpp"
#include "problems/problem.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace borg;
using namespace borg::moea;

constexpr std::size_t kObjectives = 5; // the paper's DTLZ2_5 / UF11 arity

/// ε producing roughly the target steady-state archive size under the
/// simplex-jitter stream (calibrated over a 20k prefill; achieved sizes
/// are reported so drift is visible).
double epsilon_for(std::int64_t target_size) {
    if (target_size <= 100) return 0.11;
    if (target_size <= 1000) return 0.07;
    return 0.033;
}

/// Jittered point on the unit simplex: the same generator family as
/// micro_hypervolume — mostly mutually nondominated, the hard case for the
/// dominance scans and the case that lets ε control resident size.
Solution simplex_candidate(util::Rng& rng) {
    std::vector<double> p(kObjectives);
    double sum = 0.0;
    for (double& v : p) {
        v = -std::log(1.0 - rng.uniform());
        sum += v;
    }
    for (double& v : p) v = v / sum + rng.uniform() * 0.01;
    Solution s;
    s.variables = {0.0};
    s.set_objectives(p);
    return s;
}

double elapsed_ns(std::chrono::steady_clock::time_point t0,
                  std::chrono::steady_clock::time_point t1) {
    return std::chrono::duration<double, std::nano>(t1 - t0).count();
}

/// Median ns per add over \p samples passes of the candidate cycle; the
/// cycle is repeated within a sample until it runs >= 20 ms so clock
/// quantization stays negligible for sub-microsecond adds.
template <typename Archive>
double median_ns_per_add(Archive& archive,
                         const std::vector<Solution>& cycle,
                         std::size_t samples, std::uint64_t& sink) {
    const auto run_cycle = [&] {
        for (const Solution& s : cycle)
            sink += static_cast<std::uint64_t>(archive.add(s));
    };
    const auto c0 = std::chrono::steady_clock::now();
    run_cycle();
    const auto c1 = std::chrono::steady_clock::now();
    const double once = std::max(1.0, elapsed_ns(c0, c1));
    constexpr double kMinSampleNs = 2e7;
    const auto reps = static_cast<std::uint64_t>(
        std::max(1.0, std::ceil(kMinSampleNs / once)));
    std::vector<double> medians;
    for (std::size_t s = 0; s < samples; ++s) {
        const auto t0 = std::chrono::steady_clock::now();
        for (std::uint64_t r = 0; r < reps; ++r) run_cycle();
        const auto t1 = std::chrono::steady_clock::now();
        medians.push_back(elapsed_ns(t0, t1) /
                          static_cast<double>(reps * cycle.size()));
    }
    std::sort(medians.begin(), medians.end());
    return medians[medians.size() / 2];
}

std::string format_ns(double ns) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), ns < 1e4 ? "%.0f" : "%.3g", ns);
    return buf;
}

struct CellReport {
    std::int64_t target_size = 0;
    std::size_t achieved_size = 0;
    double epsilon = 0.0;
    double engine_ns = 0.0;
    double naive_ns = 0.0;
    double speedup = 0.0;
};

/// Feeds the same prefill stream to both archives, checking every verdict
/// and the final membership/counters. Returns false on any divergence.
bool prefill_with_agreement(ArchiveEngine& engine, NaiveArchive& naive,
                            std::size_t prefill, std::uint64_t seed) {
    util::Rng rng(seed);
    for (std::size_t i = 0; i < prefill; ++i) {
        const Solution s = simplex_candidate(rng);
        const ArchiveAdd a = engine.add(s);
        const ArchiveAdd b = naive.add(s);
        if (a != b) {
            std::cerr << "FAIL: verdict disagreement at candidate " << i
                      << " (engine " << static_cast<int>(a) << ", naive "
                      << static_cast<int>(b) << ")\n";
            return false;
        }
    }
    if (engine.size() != naive.size() ||
        engine.epsilon_progress() != naive.epsilon_progress() ||
        engine.improvements() != naive.improvements()) {
        std::cerr << "FAIL: size/counter disagreement after prefill\n";
        return false;
    }
    for (std::size_t i = 0; i < engine.size(); ++i) {
        if (!std::ranges::equal(engine[i].objectives, naive[i].objectives)) {
            std::cerr << "FAIL: membership/order disagreement at member "
                      << i << "\n";
            return false;
        }
    }
    return true;
}

// ------------------------------------------------------------- replay

/// The archive10k operating point's recorded offspring stream and the
/// archive/population state it starts from.
struct Replay {
    std::vector<double> epsilons;
    std::vector<Solution> archive;
    std::vector<Solution> population;
    std::size_t population_target = 0;
    std::vector<Solution> stream;
};

constexpr std::uint64_t kReplayWarmup = 20000;
constexpr std::size_t kReplayStream = 20000;
constexpr double kReplayEpsilon = 0.06;
constexpr std::uint64_t kReplaySeed = 3;
/// The small-population replay: the pop100 operating point (ε = 0.25)
/// after the 100-member initial population has filled, before a restart
/// grows it.
constexpr std::uint64_t kSmallWarmup = 500;
constexpr double kSmallEpsilon = 0.25;

Replay record_replay(std::uint64_t seed, double epsilon,
                     std::uint64_t warmup) {
    const auto problem = problems::make_problem("dtlz2_5");
    BorgMoea algorithm(*problem, BorgParams::for_problem(*problem, epsilon),
                       seed);
    run_serial(algorithm, *problem, warmup);
    Replay replay;
    replay.epsilons = algorithm.params().epsilons;
    replay.archive = algorithm.archive().solutions();
    replay.population = algorithm.population().materialize_members();
    replay.population_target = algorithm.population().target_size();
    for (std::size_t i = 0; i < kReplayStream; ++i) {
        const SolutionHandle h = algorithm.next_offspring_handle();
        evaluate(*problem, algorithm.pool(), h);
        replay.stream.push_back(algorithm.pool().materialize(h));
        algorithm.receive_handle(h);
    }
    return replay;
}

/// Population::inject's rule as a plain scalar loop over owning
/// Solutions: the agreement reference for the inject cell.
bool reference_inject(std::vector<Solution>& members, std::size_t target,
                      const Solution& offspring, util::Rng& rng) {
    if (members.size() < target) {
        members.push_back(offspring);
        return true;
    }
    std::vector<std::size_t> dominated;
    bool dominated_by = false;
    for (std::size_t i = 0; i < members.size(); ++i) {
        const Dominance d = compare_constrained(
            offspring.objectives, offspring.total_violation(),
            members[i].objectives, members[i].total_violation());
        if (d == Dominance::kDominates) dominated.push_back(i);
        if (d == Dominance::kDominatedBy) dominated_by = true;
    }
    if (dominated.empty() && dominated_by) return false;
    const std::size_t victim =
        dominated.empty()
            ? static_cast<std::size_t>(rng.below(members.size()))
            : dominated[static_cast<std::size_t>(
                  rng.below(dominated.size()))];
    members[victim] = offspring;
    return true;
}

struct KernelCell {
    std::size_t width = 0; ///< doubles per vector
    double ns_per_row = 0.0;
};

struct TournamentCell {
    std::size_t width = 0;   ///< doubles per vector
    double hot_ns = 0.0;     ///< per contestant
    double swept_ns = 0.0;   ///< per contestant, after a 1 MB sweep
};

/// Population::inject on one replay, checked against reference_inject.
struct InjectCell {
    std::size_t population_size = 0; ///< after the replay
    double inject_ns = 0.0;          ///< per inject
    double tiles_per_inject = 0.0;   ///< tiles the scan visited
    std::size_t mirror_tiles = 0;    ///< tiles a full scan visits
};

struct ReplayReport {
    std::size_t archive_size = 0;    ///< after the replay
    double engine_ns = 0.0; ///< ArchiveEngine ns/add
    double naive_ns = 0.0;  ///< NaiveArchive ns/add
    InjectCell inject;      ///< the archive10k replay
    InjectCell small;       ///< the population-100 replay
    std::size_t mirror_rows = 0;     ///< kernel cell: replayed population
    std::vector<KernelCell> kernel;  ///< one per width, narrowest first
    std::size_t tournament_size = 0;
    std::vector<TournamentCell> tournament; ///< one per width
};

constexpr std::uint64_t kInjectSeed = 0x5eed;

/// The population the replay ends with: the snapshot with the whole
/// stream injected (the state the saturation benchmark serves from).
std::unique_ptr<Population> replayed_population(const Replay& replay) {
    auto population = std::make_unique<Population>(replay.population_target);
    population->restore(replay.population, replay.population_target);
    util::Rng rng(kInjectSeed);
    for (const Solution& offspring : replay.stream)
        population->inject(offspring, rng);
    return population;
}

/// The reach form's agreement check: the replayed population's rows,
/// ordered by their first objective and boxed 8 to a tile (corners as the
/// population builds them), against every recorded offspring. At every
/// width the upper and lower reach must give the first width's bits, and
/// the masked scan over the upper (lower) reach must find every row the
/// full scan finds dominated (the dominating-row flag). Returns false on
/// a disagreement.
bool check_reach_forms(const Replay& replay, const Population& population) {
    using Corner = DominanceTiles::Corner;
    const std::size_t n = population.size();
    const std::size_t m = population[0].objectives.size();
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return population[a].objectives[0] < population[b].objectives[0];
    });
    DominanceTiles tiles;
    DominanceTiles upper;
    DominanceTiles lower;
    tiles.reset(m);
    tiles.resize(n);
    upper.reset(m);
    upper.resize(tiles.tiles());
    lower.reset(m);
    lower.resize(tiles.tiles());
    for (std::size_t t = 0; t < tiles.tiles(); ++t) {
        std::vector<double> hi(m + 1, -HUGE_VAL);
        std::vector<double> lo(m + 1, HUGE_VAL);
        for (std::size_t r = 8 * t; r < std::min(n, 8 * t + 8); ++r) {
            const ConstSolutionView s = population[order[r]];
            tiles.set_row(r, s.objectives, s.total_violation());
            for (std::size_t j = 0; j <= m; ++j) { // NaN as +-inf
                const double x = j < m ? s.objectives[j] : s.total_violation();
                hi[j] = std::max(hi[j], std::isnan(x) ? HUGE_VAL : x);
                lo[j] = std::min(lo[j], std::isnan(x) ? -HUGE_VAL : x);
            }
        }
        upper.set_row(t, std::span(hi).first(m), hi[m]);
        lower.set_row(t, std::span(lo).first(m), lo[m]);
    }
    std::vector<std::uint64_t> bits;
    std::vector<std::uint64_t> masked;
    std::vector<std::uint64_t> up;
    std::vector<std::uint64_t> down;
    std::vector<std::uint64_t> expected;
    const auto widths = detail::kernel_widths();
    for (std::size_t i = 0; i < replay.stream.size(); ++i) {
        const Solution& c = replay.stream[i];
        const double cv = c.total_violation();
        for (const std::size_t width : widths) {
            for (DominanceTiles* mirror : {&tiles, &upper, &lower})
                detail::set_kernel_width(*mirror, width);
            upper.reach(Corner::kUpper, c.objectives, cv, up);
            lower.reach(Corner::kLower, c.objectives, cv, down);
            if (width == widths.front()) {
                expected = up;
                expected.insert(expected.end(), down.begin(), down.end());
            } else if (!std::equal(up.begin(), up.end(), expected.begin()) ||
                       !std::equal(down.begin(), down.end(),
                                   expected.begin() +
                                       static_cast<std::ptrdiff_t>(up.size()))) {
                std::cerr << "FAIL: reach at width " << width
                          << " disagrees with width " << widths.front()
                          << " at offspring " << i << "\n";
                return false;
            }
            const bool dominated = tiles.scan(c.objectives, cv, bits);
            const bool masked_dominated =
                tiles.scan_tiles(down, c.objectives, cv, masked);
            tiles.scan_tiles(up, c.objectives, cv, masked);
            if (masked != bits || masked_dominated != dominated) {
                std::cerr << "FAIL: the masked scan over the reached tiles "
                             "misses a row at width "
                          << width << ", offspring " << i << "\n";
                return false;
            }
        }
    }
    return true;
}

/// The kernel cell: scan() of every recorded offspring against a mirror
/// of the replayed population, at each width. Returns false if two widths
/// disagree on a bit or a flag, or if check_reach_forms fails.
bool run_kernel_cell(const Replay& replay, const Population& population,
                     std::size_t samples, ReplayReport& report,
                     std::uint64_t& sink) {
    DominanceTiles mirror;
    mirror.reset(population[0].objectives.size());
    mirror.resize(population.size());
    for (std::size_t i = 0; i < population.size(); ++i)
        mirror.set_row(i, population[i].objectives,
                       population[i].total_violation());
    report.mirror_rows = mirror.size();
    if (!check_reach_forms(replay, population)) return false;

    std::vector<std::uint64_t> bits;
    std::vector<std::uint64_t> expected_bits;
    std::vector<bool> expected_flags;
    for (const std::size_t width : detail::kernel_widths()) {
        detail::set_kernel_width(mirror, width);
        for (std::size_t i = 0; i < replay.stream.size(); ++i) {
            const Solution& c = replay.stream[i];
            const bool flag =
                mirror.scan(c.objectives, c.total_violation(), bits);
            if (width == detail::kernel_widths().front()) {
                expected_flags.push_back(flag);
                expected_bits.insert(expected_bits.end(), bits.begin(),
                                     bits.end());
            } else if (flag != expected_flags[i] ||
                       !std::equal(bits.begin(), bits.end(),
                                   expected_bits.begin() +
                                       static_cast<std::ptrdiff_t>(
                                           i * bits.size()))) {
                std::cerr << "FAIL: kernel width " << width
                          << " disagrees with width "
                          << detail::kernel_widths().front()
                          << " at offspring " << i << "\n";
                return false;
            }
        }
        std::vector<double> per_row;
        for (std::size_t s = 0; s < samples; ++s) {
            const auto t0 = std::chrono::steady_clock::now();
            for (const Solution& c : replay.stream)
                sink += mirror.scan(c.objectives, c.total_violation(), bits)
                            ? 1u
                            : 0u;
            const auto t1 = std::chrono::steady_clock::now();
            per_row.push_back(elapsed_ns(t0, t1) /
                              static_cast<double>(replay.stream.size() *
                                                  mirror.size()));
        }
        std::sort(per_row.begin(), per_row.end());
        report.kernel.push_back({width, per_row[per_row.size() / 2]});
    }
    return true;
}

/// The tournament reference: one challenger at a time against the
/// incumbent, through compare_constrained on the members themselves.
std::size_t reference_tournament(const Population& population,
                                 std::span<const std::uint64_t> contestants) {
    std::size_t best = contestants[0];
    for (const std::uint64_t c : contestants.subspan(1))
        if (compare_constrained(population[c].objectives,
                                population[c].total_violation(),
                                population[best].objectives,
                                population[best].total_violation()) ==
            Dominance::kDominates)
            best = c;
    return best;
}

/// The tournament cell: Borg's tournament size on a row mirror of the
/// replayed population, drawn and decided as Population does it, at each
/// width; timed back to back (hot) and one tournament at a time after a
/// 1 MB sweep (the sweep untimed), each the median of 7 samples. Returns
/// false if a width, or Population::tournament_pick_index, picks another
/// winner than the reference from the same draws.
bool run_tournament_cell(const Population& population, ReplayReport& report,
                         std::uint64_t& sink) {
    const std::size_t size =
        RestartController(RestartParams{}).tournament_size(population);
    report.tournament_size = size;
    const std::size_t n = population.size();
    DominanceRows rows;
    rows.reset(population[0].objectives.size());
    rows.resize(n);
    for (std::size_t i = 0; i < n; ++i)
        rows.set_row(i, population[i].objectives,
                     population[i].total_violation());
    std::vector<std::uint64_t> contestants(size);

    constexpr std::size_t kChecked = 2000;
    util::Rng draws(0x7a);
    util::Rng population_draws(0x7a);
    for (std::size_t k = 0; k < kChecked; ++k) {
        draws.below(n, contestants);
        const std::size_t expected =
            reference_tournament(population, contestants);
        if (population.tournament_pick_index(size, population_draws) !=
            expected) {
            std::cerr << "FAIL: Population::tournament_pick_index disagrees "
                         "with the reference at tournament "
                      << k << "\n";
            return false;
        }
        for (const std::size_t width : detail::kernel_widths()) {
            detail::set_kernel_width(rows, width);
            if (rows.tournament(contestants) != expected) {
                std::cerr << "FAIL: tournament at width " << width
                          << " disagrees with the reference at tournament "
                          << k << "\n";
                return false;
            }
        }
    }

    util::Rng rng(0x70);
    const auto pick = [&] {
        rng.below(n, contestants);
        return rows.tournament(contestants);
    };
    std::vector<std::uint64_t> sweep(std::size_t{1} << 17); // 1 MB
    constexpr std::size_t kSamples = 7;
    constexpr std::size_t kTournaments = 1000;
    const auto per_contestant = static_cast<double>(kTournaments * size);
    for (const std::size_t width : detail::kernel_widths()) {
        detail::set_kernel_width(rows, width);
        std::vector<double> hot;
        std::vector<double> swept;
        for (std::size_t s = 0; s < kSamples; ++s) {
            const auto t0 = std::chrono::steady_clock::now();
            for (std::size_t k = 0; k < kTournaments; ++k) sink += pick();
            const auto t1 = std::chrono::steady_clock::now();
            hot.push_back(elapsed_ns(t0, t1));
            double ns = 0.0;
            for (std::size_t k = 0; k < kTournaments; ++k) {
                for (std::uint64_t& word : sweep) word += k;
                const auto c0 = std::chrono::steady_clock::now();
                sink += pick();
                const auto c1 = std::chrono::steady_clock::now();
                ns += elapsed_ns(c0, c1);
            }
            swept.push_back(ns);
        }
        std::sort(hot.begin(), hot.end());
        std::sort(swept.begin(), swept.end());
        report.tournament.push_back({width, hot[kSamples / 2] / per_contestant,
                                     swept[kSamples / 2] / per_contestant});
    }
    sink += sweep.back();
    return true;
}

/// Median over \p samples of one timed pass over the stream, each pass
/// starting from a fresh restore (untimed) so every sample sees the same
/// states.
template <typename Make, typename Step>
double median_ns_per_replay(std::size_t samples, const Replay& replay,
                            Make make, Step step) {
    std::vector<double> per_item;
    for (std::size_t s = 0; s < samples; ++s) {
        auto state = make();
        const auto t0 = std::chrono::steady_clock::now();
        for (const Solution& offspring : replay.stream)
            step(*state, offspring);
        const auto t1 = std::chrono::steady_clock::now();
        per_item.push_back(elapsed_ns(t0, t1) /
                           static_cast<double>(replay.stream.size()));
    }
    std::sort(per_item.begin(), per_item.end());
    return per_item[per_item.size() / 2];
}

/// Agreement first (exit code 2 on divergence), then timings.
bool run_replay(const Replay& replay, std::size_t samples,
                ReplayReport& report, std::uint64_t& sink) {
    ArchiveEngine engine(replay.epsilons);
    NaiveArchive naive(replay.epsilons);
    engine.restore(replay.archive, 0, 0);
    naive.restore(replay.archive, 0, 0);
    for (std::size_t i = 0; i < replay.stream.size(); ++i) {
        if (engine.add(replay.stream[i]) != naive.add(replay.stream[i])) {
            std::cerr << "FAIL: replay verdict disagreement at offspring "
                      << i << "\n";
            return false;
        }
    }
    if (engine.size() != naive.size()) {
        std::cerr << "FAIL: replay archive size disagreement\n";
        return false;
    }
    report.archive_size = engine.size();
    for (std::size_t i = 0; i < engine.size(); ++i) {
        if (!std::ranges::equal(engine[i].objectives, naive[i].objectives)) {
            std::cerr << "FAIL: replay membership disagreement at member "
                      << i << "\n";
            return false;
        }
    }

    const auto restored = [&](auto archive) {
        archive->restore(replay.archive, 0, 0);
        return archive;
    };
    const auto add = [&sink](auto& archive, const Solution& s) {
        sink += static_cast<std::uint64_t>(archive.add(s));
    };
    report.engine_ns = median_ns_per_replay(
        samples, replay,
        [&] {
            return restored(std::make_unique<ArchiveEngine>(replay.epsilons));
        },
        add);
    report.naive_ns = median_ns_per_replay(
        samples, replay,
        [&] {
            return restored(std::make_unique<NaiveArchive>(replay.epsilons));
        },
        add);
    return true;
}

/// The inject cell: Population::inject on the recorded stream, from the
/// snapshot, against reference_inject (every verdict and the final
/// membership; false on a divergence), then timed, with the tiles the
/// scans visited per inject.
bool run_inject_cell(const Replay& replay, std::size_t samples,
                     InjectCell& cell, std::uint64_t& sink) {
    Population population(replay.population_target);
    population.restore(replay.population, replay.population_target);
    std::vector<Solution> reference = replay.population;
    util::Rng rng(kInjectSeed);
    util::Rng reference_rng(kInjectSeed);
    for (std::size_t i = 0; i < replay.stream.size(); ++i) {
        if (population.inject(replay.stream[i], rng) !=
            reference_inject(reference, replay.population_target,
                             replay.stream[i], reference_rng)) {
            std::cerr << "FAIL: inject verdict disagreement at offspring "
                      << i << "\n";
            return false;
        }
    }
    cell.population_size = population.size();
    if (population.size() != reference.size()) {
        std::cerr << "FAIL: inject population size disagreement\n";
        return false;
    }
    for (std::size_t i = 0; i < reference.size(); ++i) {
        if (!std::ranges::equal(population[i].objectives,
                                reference[i].objectives)) {
            std::cerr << "FAIL: inject membership disagreement at member "
                      << i << "\n";
            return false;
        }
    }
    cell.tiles_per_inject =
        static_cast<double>(population.scanned_tiles()) /
        static_cast<double>(replay.stream.size());
    cell.mirror_tiles =
        (population.size() + DominanceTiles::kTileRows - 1) /
        DominanceTiles::kTileRows;

    util::Rng timing_rng(kInjectSeed);
    cell.inject_ns = median_ns_per_replay(
        samples, replay,
        [&] {
            auto p = std::make_unique<Population>(replay.population_target);
            p->restore(replay.population, replay.population_target);
            return p;
        },
        [&](Population& p, const Solution& s) {
            sink += p.inject(s, timing_rng) ? 1u : 0u;
        });
    return true;
}

} // namespace

int main(int argc, char** argv) {
    util::CliArgs args(argc, argv);
    args.check_known({"sizes", "prefill", "samples", "seed", "json",
                      "quick"});
    auto sizes = args.get_ints("sizes", {100, 1000, 10000});
    const auto prefill =
        static_cast<std::size_t>(args.get_uint("prefill", 20000));
    const auto samples =
        static_cast<std::size_t>(args.get_uint("samples", 5));
    const auto seed = static_cast<std::uint64_t>(args.get_uint("seed", 7));
    const std::string json_path = args.get("json", "");
    const bool quick = args.get_bool("quick");
    if (quick) sizes = {1000};

    std::cout << "epsilon-archive add: ArchiveEngine vs "
                 "NaiveArchive oracle, median of "
              << samples << " samples, " << prefill
              << "-candidate steady-state prefill\n";
    util::Table table({"target n", "achieved n", "epsilon", "engine ns/add",
                       "naive ns/add", "speedup"});
    std::vector<CellReport> cells;
    std::uint64_t sink = 0;
    int rc = 0;
    for (const std::int64_t target : sizes) {
        CellReport cell;
        cell.target_size = target;
        cell.epsilon = epsilon_for(target);
        const std::vector<double> epsilons(kObjectives, cell.epsilon);

        ArchiveEngine engine(epsilons);
        NaiveArchive naive(epsilons);
        if (!prefill_with_agreement(engine, naive, prefill,
                                    seed + static_cast<std::uint64_t>(
                                               target)))
            return 2;
        cell.achieved_size = engine.size();

        // Steady-state candidates from the same distribution; both
        // archives are timed from the identical post-prefill state.
        util::Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
        std::vector<Solution> cycle;
        for (int i = 0; i < 1024; ++i)
            cycle.push_back(simplex_candidate(rng));

        cell.engine_ns = median_ns_per_add(engine, cycle, samples, sink);
        cell.naive_ns = median_ns_per_add(naive, cycle, samples, sink);
        cell.speedup = cell.naive_ns / cell.engine_ns;
        cells.push_back(cell);

        char eps_buf[32];
        std::snprintf(eps_buf, sizeof(eps_buf), "%.3f", cell.epsilon);
        char speedup_buf[32];
        std::snprintf(speedup_buf, sizeof(speedup_buf), "%.1fx",
                      cell.speedup);
        table.add_row({std::to_string(cell.target_size),
                       std::to_string(cell.achieved_size), eps_buf,
                       format_ns(cell.engine_ns), format_ns(cell.naive_ns),
                       speedup_buf});
    }
    table.print(std::cout);

    const Replay replay =
        record_replay(kReplaySeed, kReplayEpsilon, kReplayWarmup);
    const Replay small = record_replay(kReplaySeed, kSmallEpsilon, kSmallWarmup);
    ReplayReport rep;
    if (!run_replay(replay, quick ? 1 : samples, rep, sink)) return 2;
    if (!run_inject_cell(replay, quick ? 1 : samples, rep.inject, sink) ||
        !run_inject_cell(small, quick ? 1 : samples, rep.small, sink))
        return 2;
    const auto population = replayed_population(replay);
    if (!run_kernel_cell(replay, *population, quick ? 1 : samples, rep, sink))
        return 2;
    if (!run_tournament_cell(*population, rep, sink)) return 2;
    std::cout << "\nreplay: DTLZ2_5 eps " << kReplayEpsilon << ", seed "
              << kReplaySeed << ", " << kReplayWarmup
              << " serial warm-up, " << replay.stream.size()
              << " recorded offspring (agreement: engine = oracle, "
                 "inject = reference)\n";
    util::Table replay_table({"archive n", "population n", "engine ns/add",
                              "naive ns/add", "inject ns", "ingest us"});
    replay_table.add_row(
        {std::to_string(rep.archive_size),
         std::to_string(rep.inject.population_size),
         format_ns(rep.engine_ns), format_ns(rep.naive_ns),
         format_ns(rep.inject.inject_ns),
         format_ns((rep.engine_ns + rep.inject.inject_ns) / 1000.0)});
    replay_table.print(std::cout);
    std::cout << "\ninject: Population::inject on each replay's stream "
                 "(agreement: inject = reference); the scan visits every "
                 "tile below "
              << Population::kSpatialTiles
              << " tiles, and only the tiles its boxes reach above\n";
    util::Table inject_table({"replay", "population n", "inject ns",
                              "tiles/inject", "full-scan tiles"});
    const auto inject_row = [&](const char* name, const InjectCell& c) {
        char tiles_buf[32];
        std::snprintf(tiles_buf, sizeof(tiles_buf), "%.1f",
                      c.tiles_per_inject);
        inject_table.add_row({name, std::to_string(c.population_size),
                              format_ns(c.inject_ns), tiles_buf,
                              std::to_string(c.mirror_tiles)});
    };
    char small_name[64];
    std::snprintf(small_name, sizeof(small_name), "eps %.2f, %llu warm-up",
                  kSmallEpsilon, static_cast<unsigned long long>(kSmallWarmup));
    inject_row("archive10k", rep.inject);
    inject_row(small_name, rep.small);
    inject_table.print(std::cout);

    std::cout << "\ndominance kernel: dispatched width "
              << detail::kernel_width(DominanceTiles{})
              << " doubles; scan of the stream against the replayed "
              << rep.mirror_rows << "-row population mirror (agreement: "
                 "every width gives the same bits)\n";
    util::Table kernel_table({"width", "ns/row"});
    for (const KernelCell& k : rep.kernel) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.2f", k.ns_per_row);
        kernel_table.add_row({std::to_string(k.width), buf});
    }
    kernel_table.print(std::cout);
    std::cout << "\ntournament: " << rep.tournament_size
              << " contestants on a row mirror of the replayed population, "
                 "draws included (agreement: every width and the "
                 "population pick the reference's winners)\n";
    util::Table tournament_table(
        {"width", "ns/contestant hot", "after a 1 MB sweep"});
    for (const TournamentCell& t : rep.tournament) {
        char hot_buf[32];
        char swept_buf[32];
        std::snprintf(hot_buf, sizeof(hot_buf), "%.1f", t.hot_ns);
        std::snprintf(swept_buf, sizeof(swept_buf), "%.1f", t.swept_ns);
        tournament_table.add_row(
            {std::to_string(t.width), hot_buf, swept_buf});
    }
    tournament_table.print(std::cout);
    if (sink == 0) std::cerr << "no candidate was ever accepted?\n";

    // Smoke gates. Quick (ci.sh): the engine must beat the oracle on the
    // 1e3 cell. Full grid: additionally >= 2x on the 20k-prefill 1e4
    // steady-state cell — the T_A headline this PR claims.
    for (const CellReport& cell : cells) {
        const double required =
            (!quick && cell.target_size == 10000) ? 2.0 : 1.0;
        if (cell.target_size != 1000 && cell.target_size != 10000) continue;
        if (cell.speedup <= required) {
            std::cerr << "FAIL: engine speedup " << cell.speedup
                      << " <= required " << required << " on the "
                      << cell.target_size << "-member cell\n";
            rc = 1;
        } else {
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%.1fx", cell.speedup);
            std::cout << "gate: " << cell.target_size
                      << "-member cell speedup " << buf << "\n";
        }
    }

    if (!json_path.empty()) {
        std::ofstream out(json_path);
        if (!out) {
            std::cerr << "FAIL: cannot write " << json_path << "\n";
            return 2;
        }
        out << "{\n  \"benchmark\": \"micro_archive\",\n"
            << "  \"generator\": \"simplex-jitter\",\n"
            << "  \"objectives\": " << kObjectives << ",\n"
            << "  \"prefill\": " << prefill << ",\n"
            << "  \"samples\": " << samples << ",\n  \"cells\": [\n";
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const CellReport& c = cells[i];
            char buf[256];
            std::snprintf(buf, sizeof(buf),
                          "    {\"target_size\": %lld, \"achieved_size\": "
                          "%zu, \"epsilon\": %.3f, \"engine_ns\": %.1f, "
                          "\"naive_ns\": %.1f, \"speedup\": %.2f}%s\n",
                          static_cast<long long>(c.target_size),
                          c.achieved_size, c.epsilon, c.engine_ns,
                          c.naive_ns, c.speedup,
                          i + 1 < cells.size() ? "," : "");
            out << buf;
        }
        char buf[512];
        std::snprintf(buf, sizeof(buf),
                      "  ],\n  \"replay\": {\"problem\": \"dtlz2_5\", "
                      "\"epsilon\": %.2f, \"seed\": %llu, \"warmup\": %llu, "
                      "\"stream\": %zu, \"archive_size\": %zu, "
                      "\"population_size\": %zu, \"engine_ns\": %.1f, "
                      "\"naive_ns\": %.1f, \"inject_ns\": %.1f, "
                      "\"tiles_per_inject\": %.1f, \"mirror_tiles\": %zu},\n",
                      kReplayEpsilon,
                      static_cast<unsigned long long>(kReplaySeed),
                      static_cast<unsigned long long>(kReplayWarmup),
                      replay.stream.size(), rep.archive_size,
                      rep.inject.population_size, rep.engine_ns,
                      rep.naive_ns, rep.inject.inject_ns,
                      rep.inject.tiles_per_inject, rep.inject.mirror_tiles);
        out << buf;
        std::snprintf(buf, sizeof(buf),
                      "  \"small_replay\": {\"problem\": \"dtlz2_5\", "
                      "\"epsilon\": %.2f, \"seed\": %llu, \"warmup\": %llu, "
                      "\"stream\": %zu, \"population_size\": %zu, "
                      "\"inject_ns\": %.1f, \"tiles_per_inject\": %.1f, "
                      "\"mirror_tiles\": %zu},\n",
                      kSmallEpsilon,
                      static_cast<unsigned long long>(kReplaySeed),
                      static_cast<unsigned long long>(kSmallWarmup),
                      small.stream.size(), rep.small.population_size,
                      rep.small.inject_ns, rep.small.tiles_per_inject,
                      rep.small.mirror_tiles);
        out << buf;
        out << "  \"kernel\": {\"mirror_rows\": " << rep.mirror_rows
            << ", \"dispatched_width\": "
            << detail::kernel_width(DominanceTiles{})
            << ", \"ns_per_row\": {";
        for (std::size_t i = 0; i < rep.kernel.size(); ++i) {
            std::snprintf(buf, sizeof(buf), "%s\"%zu\": %.2f",
                          i > 0 ? ", " : "", rep.kernel[i].width,
                          rep.kernel[i].ns_per_row);
            out << buf;
        }
        out << "}},\n  \"tournament\": {\"contestants\": "
            << rep.tournament_size << ", \"dispatched_width\": "
            << detail::kernel_width(DominanceRows{});
        const auto per_width = [&](const char* key, auto field) {
            out << ", \"" << key << "\": {";
            for (std::size_t i = 0; i < rep.tournament.size(); ++i) {
                std::snprintf(buf, sizeof(buf), "%s\"%zu\": %.1f",
                              i > 0 ? ", " : "", rep.tournament[i].width,
                              rep.tournament[i].*field);
                out << buf;
            }
            out << "}";
        };
        per_width("hot_ns_per_contestant", &TournamentCell::hot_ns);
        per_width("swept_ns_per_contestant", &TournamentCell::swept_ns);
        out << "}\n}\n";
        std::cout << "wrote " << json_path << "\n";
    }
    return rc;
}
