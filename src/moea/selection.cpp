#include "moea/selection.hpp"

#include <stdexcept>

namespace borg::moea {

void select_parents_into(ParentView& parents, std::size_t arity,
                         const EpsilonBoxArchive& archive,
                         const Population& population,
                         std::size_t tournament_size, util::Rng& rng,
                         std::vector<std::uint32_t>* rows) {
    if (arity == 0) throw std::invalid_argument("select_parents: arity 0");
    if (population.empty())
        throw std::logic_error("select_parents: empty population");

    parents.clear();
    parents.reserve(arity);
    if (rows != nullptr) {
        rows->clear();
        rows->reserve(arity);
    }

    const auto take_population = [&] {
        const std::size_t idx =
            population.tournament_pick_index(tournament_size, rng);
        parents.emplace_back(population[idx].variables);
        if (rows != nullptr) rows->push_back(population.member_row(idx));
    };

    if (!archive.empty()) {
        const auto idx = static_cast<std::size_t>(rng.below(archive.size()));
        parents.emplace_back(archive[idx].variables);
        if (rows != nullptr) rows->push_back(archive.member_row(idx));
    } else {
        take_population();
    }
    while (parents.size() < arity) take_population();
}

void select_parents_freq_into(ParentView& parents, std::size_t arity,
                              const EpsilonBoxArchive& archive,
                              const Population& population,
                              std::size_t tournament_size, util::Rng& rng,
                              std::span<const std::uint32_t> counts_by_row,
                              std::vector<std::uint32_t>& rows) {
    if (arity == 0) throw std::invalid_argument("select_parents: arity 0");
    if (population.empty())
        throw std::logic_error("select_parents: empty population");

    parents.clear();
    parents.reserve(arity);
    rows.clear();
    rows.reserve(arity);

    const auto count_of = [&](std::uint32_t row) -> std::uint32_t {
        return row < counts_by_row.size() ? counts_by_row[row] : 0u;
    };
    const auto take_population = [&] {
        const std::size_t idx = population.tournament_pick_freq(
            tournament_size, rng, counts_by_row);
        parents.emplace_back(population[idx].variables);
        rows.push_back(population.member_row(idx));
    };

    if (!archive.empty()) {
        // Uniform draw among the least-selected archive members: one scan
        // for the min count + the eligible count, then one rng.below over
        // the eligible set (a second scan finds the drawn one, so the
        // anchor costs exactly one RNG draw like the uniform rule).
        std::uint32_t min_count = count_of(archive.member_row(0));
        std::size_t eligible = 1;
        for (std::size_t i = 1; i < archive.size(); ++i) {
            const std::uint32_t c = count_of(archive.member_row(i));
            if (c < min_count) {
                min_count = c;
                eligible = 1;
            } else if (c == min_count) {
                ++eligible;
            }
        }
        std::size_t pick = static_cast<std::size_t>(rng.below(eligible));
        std::size_t chosen = 0;
        for (std::size_t i = 0; i < archive.size(); ++i) {
            if (count_of(archive.member_row(i)) != min_count) continue;
            if (pick == 0) {
                chosen = i;
                break;
            }
            --pick;
        }
        parents.emplace_back(archive[chosen].variables);
        rows.push_back(archive.member_row(chosen));
    } else {
        take_population();
    }
    while (parents.size() < arity) take_population();
}

} // namespace borg::moea
