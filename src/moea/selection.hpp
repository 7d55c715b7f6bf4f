#ifndef BORG_MOEA_SELECTION_HPP
#define BORG_MOEA_SELECTION_HPP

/// \file selection.hpp
/// Borg's parent selection: for a k-parent operator, one parent is drawn
/// uniformly at random from the ε-dominance archive (anchoring search on the
/// current Pareto approximation) and the remaining k - 1 come from the
/// population by dominance tournaments.

#include <cstdint>
#include <span>
#include <vector>

#include "moea/epsilon_archive.hpp"
#include "moea/operators.hpp"
#include "moea/population.hpp"

namespace borg::moea {

/// Selects parents for an operator of the given arity into \p parents (a
/// reusable scratch whose capacity persists across calls). The archive
/// parent is placed first (parents[0]) so parent-centric operators center
/// on it; when the archive is empty all parents come from the population.
/// The views point into the archive/population — do not mutate either
/// while they are live. When \p rows is non-null it is filled with the
/// pool row of each selected parent (same order as \p parents);
/// recovering the rows adds no RNG draws, so passing it leaves runs
/// byte-identical.
void select_parents_into(ParentView& parents, std::size_t arity,
                         const EpsilonBoxArchive& archive,
                         const Population& population,
                         std::size_t tournament_size, util::Rng& rng,
                         std::vector<std::uint32_t>* rows = nullptr);

/// Frequency-based parent selection (Harada, arXiv:2107.12053): counters
/// the asynchronous master's bias toward fast-evaluating solutions by
/// preferring rarely selected parents. The archive anchor is drawn
/// uniformly among the archive members with the LOWEST selection count
/// (instead of uniformly over the whole archive); population tournaments
/// still decide by dominance first, but break nondominated ties toward the
/// lower count (Population::tournament_pick_freq). \p counts_by_row maps
/// pool row -> times selected; rows at or past its end count as 0. Fills
/// \p rows with each parent's pool row so the caller can increment the
/// counts (one increment per parent slot, duplicates counted twice).
/// Uses its own RNG draw sequence — only the freq policy calls this.
void select_parents_freq_into(ParentView& parents, std::size_t arity,
                              const EpsilonBoxArchive& archive,
                              const Population& population,
                              std::size_t tournament_size, util::Rng& rng,
                              std::span<const std::uint32_t> counts_by_row,
                              std::vector<std::uint32_t>& rows);

} // namespace borg::moea

#endif
