#include "moea/population.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace borg::moea {

namespace {

constexpr std::size_t kTileRows = DominanceTiles::kTileRows;
/// Members per tile after a rebuild: the free lane gives a replaced
/// member a chance to move into a tile near its new values.
constexpr std::size_t kLeafRows = 7;
constexpr std::uint32_t kHole = ~std::uint32_t{0};
constexpr std::uint8_t kEmptyTile = 0xff;
constexpr double kInf = std::numeric_limits<double>::infinity();

/// A value as part of a box's upper (lower) corner: NaN counts as +inf
/// (-inf), a corner value that the reach form never prunes on.
double upper(double x) { return std::isnan(x) ? kInf : x; }
double lower(double x) { return std::isnan(x) ? -kInf : x; }

/// An order-preserving 32-bit key of \p x (its sign, exponent and top 20
/// mantissa bits), NaN last: a spatial order needs no more precision.
std::uint32_t sort_key(double x) {
    if (std::isnan(x)) return ~std::uint32_t{0};
    const auto bits = std::bit_cast<std::uint64_t>(x);
    const std::uint64_t flip =
        (bits >> 63) != 0 ? ~std::uint64_t{0} : std::uint64_t{1} << 63;
    return static_cast<std::uint32_t>((bits ^ flip) >> 32);
}

/// Widens row \p r of the corner mirrors \p hi and \p lo to hold the box
/// from \p down to \p up (M + 1 values each, violation last); an empty
/// row (NaN violation) becomes that box. Returns false if the row held
/// the box already (and is left as it was).
bool widen(DominanceTiles& hi, DominanceTiles& lo, std::size_t r,
           std::span<const double> up, std::span<const double> down,
           std::vector<double>& scratch) {
    const std::size_t m = up.size() - 1;
    const bool empty = std::isnan(hi.value(r, m));
    bool wider = empty;
    scratch.resize(2 * (m + 1));
    for (std::size_t j = 0; j <= m; ++j) {
        scratch[j] = empty ? up[j] : std::max(hi.value(r, j), up[j]);
        scratch[m + 1 + j] =
            empty ? down[j] : std::min(lo.value(r, j), down[j]);
        wider |= scratch[j] != hi.value(r, j) ||
                 scratch[m + 1 + j] != lo.value(r, j);
    }
    if (!wider) return false;
    const std::span<const double> box(scratch);
    hi.set_row(r, box.first(m), box[m]);
    lo.set_row(r, box.subspan(m + 1, m), box[2 * m + 1]);
    return true;
}

/// std::nth_element(first, first + k, first + n) over member indices,
/// ordered by (key[member], member), with a branch-free partition: a k-d
/// rebuild spends most of its time here, and std::nth_element's branches
/// mispredict about half the time.
void select(std::uint32_t* first, std::size_t n, std::size_t k,
            const std::uint32_t* key) {
    const auto rank = [key](std::uint32_t i) {
        return std::uint64_t{key[i]} << 32 | i; // distinct
    };
    while (n > 4) {
        // The median of three as pivot, moved to the end.
        std::uint32_t* const mid = first + n / 2;
        std::uint32_t* const last = first + n - 1;
        if (rank(*mid) < rank(*first)) std::swap(*mid, *first);
        if (rank(*last) < rank(*mid)) std::swap(*last, *mid);
        if (rank(*mid) < rank(*first)) std::swap(*mid, *first);
        std::swap(*mid, *last);
        const std::uint64_t pivot = rank(*last);
        std::size_t below = 0;
        for (std::size_t j = 0; j + 1 < n; ++j) {
            const std::uint32_t x = first[j];
            first[j] = first[below];
            first[below] = x;
            below += rank(x) < pivot ? 1 : 0;
        }
        std::swap(first[below], *last);
        if (k == below) return;
        if (k < below) {
            n = below;
        } else {
            first += below + 1;
            n -= below + 1;
            k -= below + 1;
        }
    }
    std::sort(first, first + n, [&](std::uint32_t a, std::uint32_t b) {
        return rank(a) < rank(b);
    });
}

/// Room for \p size elements in \p v, which is about to be refilled: a
/// buffer too small is freed before the new one is allocated.
template <class T>
void make_room(std::vector<T>& v, std::size_t size) {
    if (size <= v.capacity()) return;
    v = {};
    v.reserve(size);
}

std::size_t count_bits(std::span<const std::uint64_t> bits) {
    std::size_t count = 0;
    for (const std::uint64_t word : bits)
        count += static_cast<std::size_t>(std::popcount(word));
    return count;
}

/// The index of set bit \p k (counting from 0) of \p bits.
std::size_t nth_set_bit(std::span<const std::uint64_t> bits, std::size_t k) {
    const std::uint64_t* word = bits.data();
    for (; k >= static_cast<std::size_t>(std::popcount(*word)); ++word)
        k -= static_cast<std::size_t>(std::popcount(*word));
    std::uint64_t rest = *word;
    for (; k > 0; --k) rest &= rest - 1;
    return static_cast<std::size_t>(word - bits.data()) * 64 +
           static_cast<std::size_t>(std::countr_zero(rest));
}

} // namespace

Population::Population(std::size_t target_size) : target_size_(target_size) {
    if (target_size == 0)
        throw std::invalid_argument("population: target size must be >= 1");
    members_.reserve(target_size);
}

Population::Population(SolutionPool& pool, std::size_t target_size)
    : Population(target_size) {
    pool_ = &pool;
}

Population::~Population() { clear(); }

SolutionPool& Population::pool_for(ConstSolutionView exemplar) {
    if (pool_ == nullptr) {
        owned_pool_ = std::make_unique<SolutionPool>(
            exemplar.variables.size(), exemplar.objectives.size(),
            exemplar.constraints.size());
        pool_ = owned_pool_.get();
    }
    return *pool_;
}

void Population::set_target_size(std::size_t target) {
    if (target == 0)
        throw std::invalid_argument("population: target size must be >= 1");
    target_size_ = target;
}

void Population::clear() noexcept {
    if (pool_ != nullptr)
        for (const SolutionHandle h : members_) pool_->release(h);
    members_.clear();
    rows_.reset(rows_.num_objectives());
    mirror_.reset(mirror_.num_objectives());
    spatial_ = false;
    slot_of_.clear();
    member_at_.clear();
    holes_.clear();
}

void Population::cache_member(std::size_t i, bool reached) {
    const ConstSolutionView member = pool_->view(members_[i]);
    const double violation = member.total_violation();
    if (rows_.size() == 0) {
        rows_.reset(member.objectives.size());
        mirror_.reset(member.objectives.size());
    }
    if (!spatial_ && mirror_.size() <= i) mirror_.resize(i + 1);
    if (rows_.size() <= i) rows_.resize(i + 1);
    rows_.set_row(i, member.objectives, violation);
    if (!spatial_) {
        mirror_.set_row(i, member.objectives, violation);
        return;
    }
    if (i < slot_of_.size()) vacate(slot_of_[i]);
    else slot_of_.push_back(kHole);
    const auto values = rows_.row(i);
    occupy(pick_slot(values, reached), i, values);
}

void Population::rebuild() {
    const std::size_t n = members_.size();
    const std::size_t m = rows_.num_objectives();
    const std::size_t tiles = (n + kLeafRows - 1) / kLeafRows;
    // Every buffer is sized once here, with room for the tiles that
    // placements add before the next rebuild (a full room brings that
    // rebuild on): a buffer that grew in between would hold its old and
    // new copy at once.
    room_ = tiles + std::max<std::size_t>(64, n / 32) / kTileRows + 2;
    make_room(member_at_, room_ * kTileRows);
    make_room(holes_, room_);
    mirror_.reset(m);
    mirror_.reserve(room_ * kTileRows);
    for (DominanceTiles* corners : {&hi_, &lo_}) {
        corners->reset(m);
        corners->reserve(room_);
    }
    // member_at_ holds the k-d order while it is built, slot_of_ each
    // member's key on the value being split.
    member_at_.resize(tiles * kTileRows);
    std::iota(member_at_.begin(),
              member_at_.begin() + static_cast<std::ptrdiff_t>(n),
              std::uint32_t{0});
    slot_of_.resize(n);
    kd_order(0, n);
    // Leaf k / kLeafRows becomes tile k / kLeafRows. Moved from the back,
    // no entry is overwritten before it is read (a slot is >= its rank).
    for (std::size_t k = n; k-- > 0;)
        member_at_[k / kLeafRows * kTileRows + k % kLeafRows] = member_at_[k];
    mirror_.resize(tiles * kTileRows);
    hi_.resize(tiles);
    lo_.resize(tiles);
    for (DominanceTiles* corners : {&group_hi_, &group_lo_}) {
        corners->reset(m);
        corners->reserve((room_ + kTileRows - 1) / kTileRows);
        corners->resize(hi_.tiles());
    }
    holes_.assign(tiles, kEmptyTile);
    for (std::size_t t = 0; t < tiles; ++t) {
        const std::size_t count = std::min(kLeafRows, n - t * kLeafRows);
        for (std::size_t k = 0; k < kTileRows; ++k) {
            const std::size_t slot = t * kTileRows + k;
            if (k >= count) {
                member_at_[slot] = kHole;
                continue;
            }
            const std::uint32_t i = member_at_[slot];
            const auto values = rows_.row(i);
            mirror_.set_row(slot, values.first(m), values[m]);
            slot_of_[i] = static_cast<std::uint32_t>(slot);
        }
        holes_[t] = static_cast<std::uint8_t>(kEmptyTile << count);
        refresh_box(t);
        const std::span<const double> box(box_);
        widen(group_hi_, group_lo_, t / kTileRows, box.first(m + 1),
              box.subspan(m + 1), corner_);
    }
    spatial_ = true;
    placements_ = 0;
    misplaced_ = 0;
}

void Population::kd_order(std::size_t first, std::size_t count) {
    if (count <= kLeafRows) return;
    // Split on the value (an objective or the violation) of widest spread
    // among a sample of the members, at a whole number of leaves.
    const std::size_t axes = rows_.num_objectives() + 1;
    box_.assign(axes, kInf);
    box_.resize(2 * axes, -kInf);
    for (std::size_t k = 0; k < count; k += count / 64 + 1) {
        const auto row = rows_.row(member_at_[first + k]);
        for (std::size_t j = 0; j < axes; ++j) {
            box_[j] = std::min(box_[j], row[j]); // NaN is skipped
            box_[axes + j] = std::max(box_[axes + j], row[j]);
        }
    }
    std::size_t axis = 0;
    double widest = 0.0;
    for (std::size_t j = 0; j < axes; ++j) {
        if (box_[axes + j] - box_[j] > widest) {
            widest = box_[axes + j] - box_[j];
            axis = j;
        }
    }
    for (std::size_t k = first; k < first + count; ++k)
        slot_of_[member_at_[k]] = sort_key(rows_.row(member_at_[k])[axis]);
    const std::size_t left =
        (count + kLeafRows - 1) / kLeafRows / 2 * kLeafRows;
    select(member_at_.data() + first, count, left, slot_of_.data());
    kd_order(first, left);
    kd_order(first + left, count - left);
}

std::size_t Population::pick_slot(std::span<const double> values,
                                  bool reached) {
    ++placements_;
    const std::size_t m = values.size() - 1;
    // The reached tile with a hole whose box grows least (summed over
    // values); an empty tile grows by nothing.
    std::size_t tile = holes_.size();
    double least = kInf;
    for (std::size_t w = 0; reached && w < reached_.size(); ++w) {
        for (std::uint64_t word = reached_[w]; word != 0 && least > 0.0;
             word &= word - 1) {
            const std::size_t t =
                w * 64 + static_cast<std::size_t>(std::countr_zero(word));
            if (holes_[t] == 0) continue;
            double growth = 0.0;
            if (!std::isnan(hi_.value(t, m))) {
                for (std::size_t j = 0; j <= m; ++j) {
                    const double hi = upper(values[j]) - hi_.value(t, j);
                    const double lo = lo_.value(t, j) - lower(values[j]);
                    if (hi > 0.0) growth += hi;
                    if (lo > 0.0) growth += lo;
                }
            }
            if (tile == holes_.size() || growth < least) {
                tile = t;
                least = growth;
            }
        }
    }
    if (tile == holes_.size()) {
        ++misplaced_;
        if (holes_.empty() || holes_.back() == 0) { // a new tile
            mirror_.resize(mirror_.size() + kTileRows);
            hi_.resize(holes_.size() + 1);
            lo_.resize(holes_.size() + 1);
            group_hi_.resize(hi_.tiles());
            group_lo_.resize(hi_.tiles());
            member_at_.resize(mirror_.size(), kHole);
            holes_.push_back(kEmptyTile);
        }
        tile = holes_.size() - 1;
    }
    return tile * kTileRows +
           static_cast<std::size_t>(std::countr_zero(holes_[tile]));
}

void Population::occupy(std::size_t slot, std::size_t i,
                        std::span<const double> values) {
    const std::size_t m = values.size() - 1;
    const std::size_t t = slot / kTileRows;
    mirror_.set_row(slot, values.first(m), values[m]);
    member_at_[slot] = static_cast<std::uint32_t>(i);
    slot_of_[i] = static_cast<std::uint32_t>(slot);
    holes_[t] &= static_cast<std::uint8_t>(~(1u << (slot % kTileRows)));
    box_.resize(2 * (m + 1));
    for (std::size_t j = 0; j <= m; ++j) {
        box_[j] = upper(values[j]);
        box_[m + 1 + j] = lower(values[j]);
    }
    const std::span<const double> box(box_);
    // A group's box holds its tiles' boxes, so it grows only with one.
    if (widen(hi_, lo_, t, box.first(m + 1), box.subspan(m + 1), corner_))
        widen(group_hi_, group_lo_, t / kTileRows, box.first(m + 1),
              box.subspan(m + 1), corner_);
}

void Population::vacate(std::size_t slot) {
    const std::size_t t = slot / kTileRows;
    mirror_.clear_row(slot);
    member_at_[slot] = kHole;
    holes_[t] |= static_cast<std::uint8_t>(1u << (slot % kTileRows));
    refresh_box(t);
}

void Population::refresh_box(std::size_t t) {
    if (holes_[t] == kEmptyTile) {
        hi_.clear_row(t);
        lo_.clear_row(t);
        return;
    }
    const std::size_t m = mirror_.num_objectives();
    box_.assign(2 * (m + 1), kInf);
    std::fill_n(box_.begin(), m + 1, -kInf);
    for (std::size_t k = 0; k < kTileRows; ++k) {
        if ((holes_[t] >> k) & 1u) continue;
        for (std::size_t j = 0; j <= m; ++j) {
            const double x = mirror_.value(t * kTileRows + k, j);
            box_[j] = std::max(box_[j], upper(x));
            box_[m + 1 + j] = std::min(box_[m + 1 + j], lower(x));
        }
    }
    const std::span<const double> box(box_);
    hi_.set_row(t, box.first(m), box[m]);
    lo_.set_row(t, box.subspan(m + 1, m), box[2 * m + 1]);
}

bool Population::inject(ConstSolutionView offspring, util::Rng& rng,
                        std::uint32_t* member_row) {
    if (!offspring.evaluated)
        throw std::invalid_argument("population: offspring not evaluated");

    SolutionPool& pool = pool_for(offspring);
    if (members_.size() < target_size_) {
        members_.push_back(pool.store(offspring));
        cache_member(members_.size() - 1);
        if (member_row != nullptr) *member_row = members_.back().index;
        return true;
    }

    // Rebuilds wait for the scan path, so growth appends and restart
    // refills never pay for one. The placement below may need a new
    // tile, which a full room would not hold.
    const std::size_t n = members_.size();
    if (spatial_ ? misplaced_ >= std::max<std::size_t>(64, n / 8) ||
                       placements_ >= 2 * n || holes_.size() >= room_
                 : mirror_.tiles() >= kSpatialTiles)
        rebuild();

    // The kernel finds the members the offspring dominates and whether
    // any member dominates the offspring. Replacement of a dominated
    // member takes precedence over rejection (both can hold at once when
    // the population carries mutually dominated members), keeping the
    // rule order-independent. The victim is a uniform draw among the
    // dominated members, taken as that set bit in member order.
    const double violation = offspring.total_violation();
    bool offspring_dominated = false;
    std::span<const std::uint64_t> dominated_members;
    if (!spatial_) {
        // Slot i holds member i: one pass over every tile.
        offspring_dominated =
            mirror_.scan(offspring.objectives, violation, dominated_bits_);
        scanned_tiles_ += mirror_.tiles();
        dominated_members = dominated_bits_;
    } else {
        // Only the tiles whose upper corner the offspring can dominate
        // hold dominated members; only if there are none, the tiles whose
        // lower corner can dominate it are searched for a dominating one.
        group_hi_.reach(DominanceTiles::Corner::kUpper,
                        offspring.objectives, violation, reached_groups_);
        hi_.reach_tiles(DominanceTiles::Corner::kUpper, reached_groups_,
                        offspring.objectives, violation, reached_);
        offspring_dominated = mirror_.scan_tiles(
            reached_, offspring.objectives, violation, dominated_bits_);
        scanned_tiles_ += count_bits(reached_);
        member_bits_.assign((n + 63) / 64, 0);
        for_each_set_bit(dominated_bits_, [&](std::size_t slot) {
            const std::uint32_t i = member_at_[slot];
            member_bits_[i / 64] |= std::uint64_t{1} << (i % 64);
        });
        dominated_members = member_bits_;
        if (!offspring_dominated && count_bits(member_bits_) == 0) {
            group_lo_.reach(DominanceTiles::Corner::kLower,
                            offspring.objectives, violation,
                            reached_groups_);
            lo_.reach_tiles(DominanceTiles::Corner::kLower, reached_groups_,
                            offspring.objectives, violation, reached_lo_);
            for (std::size_t w = 0; w < reached_lo_.size(); ++w)
                reached_lo_[w] &= ~reached_[w]; // searched already
            offspring_dominated =
                mirror_.scan_tiles(reached_lo_, offspring.objectives,
                                   violation, dominated_bits_);
            scanned_tiles_ += count_bits(reached_lo_);
        }
    }
    const std::size_t dominated = count_bits(dominated_members);
    if (dominated == 0 && offspring_dominated) return false;
    const std::size_t victim =
        dominated != 0
            ? nth_set_bit(dominated_members,
                          static_cast<std::size_t>(rng.below(dominated)))
            : static_cast<std::size_t>(rng.below(n));
    pool.copy_payload(members_[victim], offspring);
    cache_member(victim, spatial_); // reached_ holds the offspring's tiles
    if (member_row != nullptr) *member_row = members_[victim].index;
    return true;
}

void Population::append(ConstSolutionView solution) {
    members_.push_back(pool_for(solution).store(solution));
    cache_member(members_.size() - 1);
}

void Population::restore(const std::vector<Solution>& members,
                         std::size_t target) {
    set_target_size(target);
    clear();
    members_.reserve(members.size());
    for (const Solution& s : members) {
        members_.push_back(pool_for(s).store(s));
        cache_member(members_.size() - 1);
    }
}

std::span<const std::uint64_t> Population::draw_contestants(
    std::size_t tournament_size, util::Rng& rng) const {
    // Nothing else draws between a tournament's contestants, so drawing
    // them all up front in one batch leaves the stream unchanged.
    contestants_.resize(std::max<std::size_t>(tournament_size, 1));
    rng.below(members_.size(), contestants_);
    return contestants_;
}

std::size_t Population::tournament_pick(std::size_t tournament_size,
                                        util::Rng& rng) const {
    return rows_.tournament(draw_contestants(tournament_size, rng));
}

std::size_t Population::tournament_pick_index(std::size_t tournament_size,
                                              util::Rng& rng) const {
    if (members_.empty())
        throw std::logic_error("population: tournament on empty population");
    return tournament_pick(tournament_size, rng);
}

std::size_t Population::tournament_pick_freq(
    std::size_t tournament_size, util::Rng& rng,
    std::span<const std::uint32_t> counts_by_row) const {
    if (members_.empty())
        throw std::logic_error("population: tournament on empty population");
    const auto count_of = [&](std::size_t idx) -> std::uint32_t {
        const std::uint32_t row = members_[idx].index;
        return row < counts_by_row.size() ? counts_by_row[row] : 0u;
    };
    const auto contestants = draw_contestants(tournament_size, rng);
    std::size_t best = contestants[0];
    std::uint32_t best_count = count_of(best);
    for (const std::uint64_t idx : contestants.subspan(1)) {
        const Dominance result = rows_.compare_rows(idx, best);
        const bool wins =
            result == Dominance::kDominates ||
            (result == Dominance::kNondominated &&
             count_of(idx) < best_count);
        if (wins) {
            best = idx;
            best_count = count_of(best);
        }
    }
    return best;
}

std::vector<Solution> Population::materialize_members() const {
    std::vector<Solution> out;
    out.reserve(members_.size());
    for (const SolutionHandle h : members_)
        out.push_back(pool_->materialize(h));
    return out;
}

} // namespace borg::moea
