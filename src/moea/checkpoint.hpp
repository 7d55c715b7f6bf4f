#ifndef BORG_MOEA_CHECKPOINT_HPP
#define BORG_MOEA_CHECKPOINT_HPP

/// \file checkpoint.hpp
/// Save/restore of the complete Borg MOEA state.
///
/// The paper's experiments burn up to 62,976 cores for hours; on real
/// clusters such runs must survive job-time limits, so the production
/// Borg implementation checkpoints. This module serializes everything the
/// algorithm's behaviour depends on — the RNG stream, the population, the
/// ε-archive with its progress counters, operator probabilities and the
/// refresh countdown, restart-window state, and the issue/receive
/// counters — to a line-oriented text format. Doubles round-trip exactly
/// (17 significant digits); a restored run continues bit-identically to
/// an uninterrupted one (pinned by tests).
///
/// The algorithm's *configuration* (problem, BorgParams, operator
/// ensemble) is not serialized: construct the BorgMoea with the same
/// configuration, then load. Incompatible configurations fail loudly:
/// load_checkpoint validates variable/objective/constraint arity against
/// the configured problem and the saved ε vector against the configured
/// BorgParams — a mismatched ε grid would otherwise silently re-box (and
/// possibly drop) the saved archive.
///
/// Formats: save_checkpoint writes v3, which serializes solution payloads
/// once as a dense `pool` section (matching the arena storage, DESIGN.md
/// §15) that the population and archive sections reference by row index.
/// load_checkpoint dispatches on the magic line and still reads v2 — the
/// per-section inline-solution format older runs saved — so existing
/// checkpoints keep loading (tests/golden holds v2 files the migration
/// tests load).

#include <iosfwd>
#include <stdexcept>

#include "moea/borg.hpp"

namespace borg::moea {

/// Thrown by load_checkpoint on malformed or incompatible input.
class CheckpointError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// Writes \p algorithm's full state to \p os (v3 format).
void save_checkpoint(const BorgMoea& algorithm, std::ostream& os);

/// Restores state saved by save_checkpoint (v3) or by the retired v2
/// writer into \p algorithm, which must be configured identically (same
/// problem dimensions and operator count). Throws CheckpointError on mismatch or
/// parse failure.
void load_checkpoint(BorgMoea& algorithm, std::istream& is);

} // namespace borg::moea

#endif
