#include "moea/population.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <set>
#include <utility>
#include <vector>

namespace {

using namespace borg::moea;
using borg::util::Rng;

Solution evaluated(std::vector<double> objectives) {
    Solution s;
    s.variables = {0.0};
    s.set_objectives(objectives);
    return s;
}

TEST(Population, FillsToTargetFirst) {
    Population pop(3);
    Rng rng(1);
    EXPECT_TRUE(pop.inject(evaluated({5.0, 5.0}), rng));
    EXPECT_TRUE(pop.inject(evaluated({6.0, 6.0}), rng));
    EXPECT_TRUE(pop.inject(evaluated({7.0, 7.0}), rng));
    EXPECT_EQ(pop.size(), 3u);
}

TEST(Population, DominatingOffspringReplacesDominated) {
    Population pop(2);
    Rng rng(2);
    pop.inject(evaluated({5.0, 5.0}), rng);
    pop.inject(evaluated({1.0, 1.0}), rng);
    EXPECT_TRUE(pop.inject(evaluated({2.0, 2.0}), rng));
    EXPECT_EQ(pop.size(), 2u);
    // {5,5} must be gone: {2,2} dominates it, not {1,1}.
    bool found_55 = false;
    for (std::size_t i = 0; i < pop.size(); ++i)
        if (pop[i].objectives[0] == 5.0) found_55 = true;
    EXPECT_FALSE(found_55);
}

TEST(Population, DominatedOffspringRejected) {
    Population pop(2);
    Rng rng(3);
    pop.inject(evaluated({1.0, 1.0}), rng);
    pop.inject(evaluated({0.5, 2.0}), rng);
    EXPECT_FALSE(pop.inject(evaluated({2.0, 2.0}), rng));
    EXPECT_EQ(pop.size(), 2u);
}

TEST(Population, NondominatedOffspringReplacesRandom) {
    Population pop(2);
    Rng rng(4);
    pop.inject(evaluated({1.0, 3.0}), rng);
    pop.inject(evaluated({3.0, 1.0}), rng);
    EXPECT_TRUE(pop.inject(evaluated({2.0, 2.0}), rng));
    EXPECT_EQ(pop.size(), 2u);
    bool found_new = false;
    for (std::size_t i = 0; i < pop.size(); ++i)
        if (pop[i].objectives[0] == 2.0) found_new = true;
    EXPECT_TRUE(found_new);
}

TEST(Population, RejectsUnevaluated) {
    Population pop(2);
    Rng rng(5);
    Solution raw({0.5});
    EXPECT_THROW(pop.inject(raw, rng), std::invalid_argument);
}

TEST(Population, TargetResizeDoesNotEvict) {
    Population pop(4);
    Rng rng(6);
    for (int i = 0; i < 4; ++i)
        pop.inject(evaluated({double(i), double(4 - i)}), rng);
    pop.set_target_size(2);
    EXPECT_EQ(pop.size(), 4u);
    EXPECT_EQ(pop.target_size(), 2u);
}

TEST(Population, TournamentPrefersDominant) {
    Population pop(10);
    Rng rng(7);
    // One clearly dominant member among dominated ones.
    pop.inject(evaluated({0.0, 0.0}), rng);
    for (int i = 1; i < 10; ++i)
        pop.inject(evaluated({1.0 + i, 1.0 + i}), rng);
    int winner_best = 0;
    for (int trial = 0; trial < 200; ++trial) {
        const ConstSolutionView w = pop[pop.tournament_pick_index(10, rng)];
        if (w.objectives[0] == 0.0) ++winner_best;
    }
    // With tournament size 10 over a population of 10 (with replacement),
    // the dominant member wins whenever drawn; expect a solid majority.
    EXPECT_GT(winner_best, 120);
}

TEST(Population, TournamentSizeOneIsRandom) {
    Population pop(4);
    Rng rng(8);
    for (int i = 0; i < 4; ++i)
        pop.inject(evaluated({double(i), double(4 - i)}), rng);
    // All members nondominated: selection must span several members.
    std::set<double> seen;
    for (int trial = 0; trial < 100; ++trial)
        seen.insert(pop[pop.tournament_pick_index(1, rng)].objectives[0]);
    EXPECT_GE(seen.size(), 3u);
}

TEST(Population, EmptyOperationsThrow) {
    Population pop(2);
    Rng rng(9);
    EXPECT_THROW(pop.tournament_pick_index(2, rng), std::logic_error);
}

TEST(Population, ZeroTargetRejected) {
    EXPECT_THROW(Population(0), std::invalid_argument);
    Population pop(1);
    EXPECT_THROW(pop.set_target_size(0), std::invalid_argument);
}

TEST(Population, AppendBypassesReplacement) {
    Population pop(1);
    pop.append(evaluated({1.0, 1.0}));
    pop.append(evaluated({2.0, 2.0}));
    EXPECT_EQ(pop.size(), 2u); // append ignores the target
}

// ---------------------------------------------------------------------------
// Randomized equivalence: Population against a scalar reference of the
// same rule kept here — a vector of Solutions, a compare_constrained loop
// per injection, one rng.below per tournament contestant. Same RNG seed,
// so any difference in verdicts, victims or draws shows up as diverging
// members or picks.
// ---------------------------------------------------------------------------

struct ReferencePopulation {
    std::size_t target;
    std::vector<Solution> members;

    static Dominance compare(const Solution& a, const Solution& b) {
        return compare_constrained(a.objectives, a.total_violation(),
                                   b.objectives, b.total_violation());
    }

    bool inject(const Solution& s, Rng& rng) {
        if (members.size() < target) {
            members.push_back(s);
            return true;
        }
        std::vector<std::size_t> dominated;
        bool dominated_by = false;
        for (std::size_t i = 0; i < members.size(); ++i) {
            const Dominance d = compare(s, members[i]);
            if (d == Dominance::kDominates) dominated.push_back(i);
            if (d == Dominance::kDominatedBy) dominated_by = true;
        }
        if (dominated.empty() && dominated_by) return false;
        const std::size_t victim =
            dominated.empty() ? rng.below(members.size())
                              : dominated[rng.below(dominated.size())];
        members[victim] = s;
        return true;
    }

    std::size_t tournament(std::size_t size, Rng& rng) const {
        std::size_t best = rng.below(members.size());
        for (std::size_t round = 1; round < size; ++round) {
            const std::size_t idx = rng.below(members.size());
            if (compare(members[idx], members[best]) == Dominance::kDominates)
                best = idx;
        }
        return best;
    }

    std::size_t tournament_freq(std::size_t size, Rng& rng,
                                const std::vector<std::uint32_t>& counts,
                                const Population& rows) const {
        const auto count_of = [&](std::size_t idx) {
            const std::uint32_t row = rows.member_row(idx);
            return row < counts.size() ? counts[row] : 0u;
        };
        std::size_t best = rng.below(members.size());
        for (std::size_t round = 1; round < size; ++round) {
            const std::size_t idx = rng.below(members.size());
            const Dominance d = compare(members[idx], members[best]);
            if (d == Dominance::kDominates ||
                (d == Dominance::kNondominated &&
                 count_of(idx) < count_of(best)))
                best = idx;
        }
        return best;
    }
};

Solution random_candidate(std::size_t m, Rng& rng) {
    static const double levels[] = {0.0, -0.0, 0.25, 0.5, 1.0};
    std::vector<double> f(m);
    for (double& v : f)
        v = rng.flip(0.3) ? levels[rng.below(std::size(levels))]
                          : rng.uniform();
    Solution s = evaluated(f);
    if (rng.flip(0.2)) // infeasible, often with equal violations
        s.constraints = {rng.flip(0.5) ? 0.5 : rng.uniform(0.0, 1.0)};
    else
        s.constraints = {0.0};
    return s;
}

/// Members compared bit for bit, so NaN objectives compare too.
void expect_same_members(const Population& pop,
                         const ReferencePopulation& ref) {
    ASSERT_EQ(pop.size(), ref.members.size());
    for (std::size_t i = 0; i < pop.size(); ++i) {
        const auto f = pop[i].objectives;
        const auto& g = ref.members[i].objectives;
        ASSERT_EQ(f.size(), g.size());
        ASSERT_EQ(std::memcmp(f.data(), g.data(), f.size() * sizeof(double)),
                  0)
            << "member " << i;
        const auto c = pop[i].constraints;
        const auto& d = ref.members[i].constraints;
        ASSERT_EQ(c.size(), d.size());
        ASSERT_EQ(std::memcmp(c.data(), d.data(), c.size() * sizeof(double)),
                  0)
            << "member " << i;
    }
}

TEST(PopulationEquivalence, InjectAndTournamentsMatchScalarReference) {
    for (const std::size_t m : {1u, 2u, 5u, 11u}) {
        Population pop(40);
        ReferencePopulation ref{40, {}};
        Rng rng(900 + m);
        Rng ref_rng(900 + m);
        Rng stream(m);
        std::vector<std::uint32_t> counts;
        for (int step = 0; step < 3000; ++step) {
            const Solution s = random_candidate(m, stream);
            ASSERT_EQ(pop.inject(s, rng), ref.inject(s, ref_rng))
                << "m=" << m << " step " << step;
            if (step % 500 == 499) { // restart-style regrowth
                pop.set_target_size(pop.target_size() + 25);
                ref.target += 25;
            }
            if (step % 7 != 0) continue;
            const std::size_t size = 1 + stream.below(12);
            ASSERT_EQ(pop.tournament_pick_index(size, rng),
                      ref.tournament(size, ref_rng));
            counts.resize(stream.below(2 * pop.size() + 1));
            for (auto& c : counts) c = static_cast<std::uint32_t>(
                                       stream.below(3));
            ASSERT_EQ(pop.tournament_pick_freq(size, rng, counts),
                      ref.tournament_freq(size, ref_rng, counts, pop));
        }
        expect_same_members(pop, ref);
        ASSERT_EQ(rng(), ref_rng());
    }
}

/// Candidates with spatial structure, so that the spatial layout's boxes
/// prune: jittered points near a simplex front. Mixed in: duplicates of
/// earlier candidates, NaN and infinite objectives, NaN constraints
/// (which total_violation() counts as 0), infinite violations and
/// infeasible rows with equal or unequal violations.
Solution spatial_candidate(std::size_t m, Rng& rng,
                           std::vector<Solution>& history) {
    if (!history.empty() && rng.flip(0.1))
        return history[rng.below(history.size())];
    std::vector<double> f(m);
    double sum = 0.0;
    for (double& v : f) {
        v = -std::log(1.0 - rng.uniform());
        sum += v;
    }
    for (double& v : f) v = v / sum + 0.3 * rng.uniform();
    if (rng.flip(0.03)) f[rng.below(m)] = std::nan("");
    if (rng.flip(0.02))
        f[rng.below(m)] = rng.flip(0.5) ? HUGE_VAL : -HUGE_VAL;
    Solution s = evaluated(f);
    if (rng.flip(0.15))
        s.constraints = {rng.flip(0.5) ? 0.5 : rng.uniform(0.0, 1.0)};
    else if (rng.flip(0.03))
        s.constraints = {rng.flip(0.5) ? std::nan("") : HUGE_VAL};
    else
        s.constraints = {0.0};
    history.push_back(s);
    return s;
}

/// The spatial layout (a population spanning Population::kSpatialTiles
/// tiles or more) against the same scalar reference: targets that cross
/// the threshold both ways, restart-style clear() plus append() bursts,
/// and restore(), with every verdict, every tournament pick, the members
/// and the final RNG state compared.
TEST(PopulationEquivalence, SpatialLayoutMatchesScalarReference) {
    const std::size_t threshold =
        Population::kSpatialTiles * DominanceTiles::kTileRows;
    // {target, injections}: a restart-style refill starts each phase but
    // the first, restore() the last.
    const std::vector<std::pair<std::size_t, int>> phases = {
        {threshold / 2, 1500},     {threshold + 200, 2500},
        {2 * threshold, 3000},     {threshold / 3, 1000},
        {threshold + 50, 2500},    {threshold * 3 / 2, 2000}};
    for (const std::size_t m : {2u, 5u}) {
        Population pop(phases[0].first);
        ReferencePopulation ref{phases[0].first, {}};
        Rng rng(700 + m);
        Rng ref_rng(700 + m);
        Rng stream(m);
        std::vector<Solution> history;
        std::size_t peak = 0;
        for (std::size_t phase = 0; phase < phases.size(); ++phase) {
            const auto [target, injections] = phases[phase];
            if (phase + 1 == phases.size()) {
                const std::vector<Solution> members = ref.members;
                pop.restore(members, target);
                ref.members = members;
                ref.target = target;
            } else if (phase > 0) {
                // Restart-style: clear, then append part of the old
                // members; injections grow the rest back.
                const std::vector<Solution> old = ref.members;
                pop.clear();
                ref.members.clear();
                pop.set_target_size(target);
                ref.target = target;
                for (std::size_t i = 0; i < std::min(old.size(), target / 3);
                     ++i) {
                    pop.append(old[i]);
                    ref.members.push_back(old[i]);
                }
            }
            for (int step = 0; step < injections; ++step) {
                const Solution s = spatial_candidate(m, stream, history);
                ASSERT_EQ(pop.inject(s, rng), ref.inject(s, ref_rng))
                    << "m=" << m << " phase " << phase << " step " << step;
                peak = std::max(peak, pop.size());
                if (step % 97 != 0) continue;
                const std::size_t size = 2 + stream.below(20);
                ASSERT_EQ(pop.tournament_pick_index(size, rng),
                          ref.tournament(size, ref_rng));
            }
            expect_same_members(pop, ref);
        }
        ASSERT_GT(peak, 2 * threshold - 1); // the spatial layout ran
        ASSERT_GT(pop.scanned_tiles(), 0u);
        ASSERT_EQ(rng(), ref_rng());
    }
}

} // namespace
