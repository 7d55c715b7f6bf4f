#include "moea/epsilon_archive.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "util/rng.hpp"

namespace {

using namespace borg::moea;

/// Normalizes the two implementations' member accessors (the engine hands
/// out pool spans, the naive oracle owning vectors) for EXPECT_EQ.
std::vector<double> as_vec(std::span<const double> values) {
    return {values.begin(), values.end()};
}

Solution evaluated(std::vector<double> objectives, int op = kNoOperator) {
    Solution s;
    s.variables = {0.0};
    s.set_objectives(objectives);
    s.operator_index = op;
    return s;
}

// ---------------------------------------------------------------------------
// Behavioral contract, run against BOTH implementations: the indexed
// ArchiveEngine and the NaiveArchive reference oracle must satisfy every
// property identically.
// ---------------------------------------------------------------------------

template <typename Impl>
class ArchiveBehavior : public ::testing::Test {};

using ArchiveImplementations = ::testing::Types<ArchiveEngine, NaiveArchive>;
TYPED_TEST_SUITE(ArchiveBehavior, ArchiveImplementations);

TYPED_TEST(ArchiveBehavior, FirstSolutionAlwaysEnters) {
    TypeParam archive({0.1, 0.1});
    EXPECT_EQ(archive.add(evaluated({0.5, 0.5})), ArchiveAdd::kAddedNewBox);
    EXPECT_EQ(archive.size(), 1u);
    EXPECT_EQ(archive.epsilon_progress(), 1u);
}

TYPED_TEST(ArchiveBehavior, DominatedBoxRejected) {
    TypeParam archive({0.1, 0.1});
    archive.add(evaluated({0.11, 0.11}));
    EXPECT_EQ(archive.add(evaluated({0.55, 0.55})), ArchiveAdd::kRejected);
    EXPECT_EQ(archive.size(), 1u);
}

TYPED_TEST(ArchiveBehavior, DominatingSolutionEvicts) {
    TypeParam archive({0.1, 0.1});
    archive.add(evaluated({0.55, 0.55}));
    archive.add(evaluated({0.75, 0.35}));
    EXPECT_EQ(archive.add(evaluated({0.11, 0.11})), ArchiveAdd::kAddedNewBox);
    EXPECT_EQ(archive.size(), 1u);
    EXPECT_DOUBLE_EQ(archive[0].objectives[0], 0.11);
}

TYPED_TEST(ArchiveBehavior, NondominatedBoxesCoexist) {
    TypeParam archive({0.1, 0.1});
    archive.add(evaluated({0.15, 0.85}));
    archive.add(evaluated({0.85, 0.15}));
    archive.add(evaluated({0.45, 0.45}));
    EXPECT_EQ(archive.size(), 3u);
    EXPECT_EQ(archive.epsilon_progress(), 3u);
}

TYPED_TEST(ArchiveBehavior, SameBoxKeepsCloserToCorner) {
    TypeParam archive({1.0, 1.0});
    archive.add(evaluated({0.9, 0.9}));
    // Same box [0,1)x[0,1); closer to (0,0) wins.
    EXPECT_EQ(archive.add(evaluated({0.2, 0.2})),
              ArchiveAdd::kReplacedSameBox);
    EXPECT_EQ(archive.size(), 1u);
    EXPECT_DOUBLE_EQ(archive[0].objectives[0], 0.2);
    // A worse same-box candidate is rejected.
    EXPECT_EQ(archive.add(evaluated({0.5, 0.5})), ArchiveAdd::kRejected);
}

TYPED_TEST(ArchiveBehavior, SameBoxReplacementIsNotEpsilonProgress) {
    TypeParam archive({1.0, 1.0});
    archive.add(evaluated({0.9, 0.9}));
    const auto progress_before = archive.epsilon_progress();
    archive.add(evaluated({0.2, 0.2}));
    EXPECT_EQ(archive.epsilon_progress(), progress_before);
    EXPECT_EQ(archive.improvements(), 2u);
}

TYPED_TEST(ArchiveBehavior, SameBoxWinnerMovesToEndOfIterationOrder) {
    // The naive archive drops the incumbent in place and appends the
    // winner; the engine must reproduce that order exactly (iteration
    // order feeds parent selection, so it is behaviorally observable).
    TypeParam archive({1.0, 1.0});
    archive.add(evaluated({0.9, 2.1}));
    archive.add(evaluated({2.1, 0.9}));
    EXPECT_EQ(archive.add(evaluated({0.2, 2.2})),
              ArchiveAdd::kReplacedSameBox);
    ASSERT_EQ(archive.size(), 2u);
    EXPECT_DOUBLE_EQ(archive[0].objectives[0], 2.1);
    EXPECT_DOUBLE_EQ(archive[1].objectives[0], 0.2);
}

TYPED_TEST(ArchiveBehavior, RejectionLeavesArchiveUntouched) {
    TypeParam archive({0.1, 0.1});
    archive.add(evaluated({0.15, 0.85}));
    archive.add(evaluated({0.85, 0.15}));
    const auto size_before = archive.size();
    // Dominated by both members' boxes in one objective pattern.
    archive.add(evaluated({0.86, 0.86}));
    EXPECT_EQ(archive.size(), size_before);
}

TYPED_TEST(ArchiveBehavior, MultiEviction) {
    TypeParam archive({0.1, 0.1});
    archive.add(evaluated({0.55, 0.75}));
    archive.add(evaluated({0.65, 0.65}));
    archive.add(evaluated({0.75, 0.55}));
    EXPECT_EQ(archive.add(evaluated({0.15, 0.15})), ArchiveAdd::kAddedNewBox);
    EXPECT_EQ(archive.size(), 1u);
}

TYPED_TEST(ArchiveBehavior, MembersAlwaysMutuallyBoxNondominated) {
    TypeParam archive({0.05, 0.05, 0.05});
    borg::util::Rng rng(42);
    for (int i = 0; i < 2000; ++i) {
        std::vector<double> f(3);
        for (double& v : f) v = rng.uniform();
        archive.add(evaluated(f));
    }
    const auto& eps = archive.epsilons();
    for (std::size_t i = 0; i < archive.size(); ++i) {
        const auto bi = epsilon_box(archive[i].objectives, eps);
        for (std::size_t j = i + 1; j < archive.size(); ++j) {
            const auto bj = epsilon_box(archive[j].objectives, eps);
            EXPECT_EQ(compare_boxes(bi, bj), Dominance::kNondominated);
        }
    }
}

TYPED_TEST(ArchiveBehavior, OperatorCountsAttributeCorrectly) {
    TypeParam archive({0.1, 0.1});
    archive.add(evaluated({0.15, 0.85}, 0));
    archive.add(evaluated({0.85, 0.15}, 2));
    archive.add(evaluated({0.45, 0.45}, 2));
    archive.add(evaluated({0.25, 0.65}, kNoOperator));
    const auto counts = archive.operator_counts(3);
    EXPECT_EQ(counts[0], 1u);
    EXPECT_EQ(counts[1], 0u);
    EXPECT_EQ(counts[2], 2u);
}

TYPED_TEST(ArchiveBehavior, ClearEmptiesButKeepsCounters) {
    TypeParam archive({0.1, 0.1});
    archive.add(evaluated({0.5, 0.5}));
    archive.clear();
    EXPECT_TRUE(archive.empty());
    EXPECT_EQ(archive.epsilon_progress(), 1u);
}

TYPED_TEST(ArchiveBehavior, SolutionsAndObjectiveVectorsAgree) {
    TypeParam archive({0.1, 0.1});
    archive.add(evaluated({0.15, 0.85}));
    archive.add(evaluated({0.85, 0.15}));
    const auto sols = archive.solutions();
    const auto objs = archive.objective_vectors();
    ASSERT_EQ(sols.size(), objs.size());
    for (std::size_t i = 0; i < sols.size(); ++i)
        EXPECT_EQ(sols[i].objectives, objs[i]);
}

TYPED_TEST(ArchiveBehavior, RejectsInvalidConstruction) {
    EXPECT_THROW(TypeParam({}), std::invalid_argument);
    EXPECT_THROW(TypeParam({0.1, 0.0}), std::invalid_argument);
    EXPECT_THROW(TypeParam({0.1, -0.1}), std::invalid_argument);
}

TYPED_TEST(ArchiveBehavior, RejectsUnevaluatedOrWrongArity) {
    TypeParam archive({0.1, 0.1});
    Solution raw({0.5});
    EXPECT_THROW(archive.add(raw), std::invalid_argument);
    EXPECT_THROW(archive.add(evaluated({0.1, 0.2, 0.3})),
                 std::invalid_argument);
}

TYPED_TEST(ArchiveBehavior, BoundedSizeUnderFrontPressure) {
    // Points jittered around the anti-diagonal front f1 + f2 = 1: with
    // epsilon 0.1 the staircase of mutually nondominated boxes holds at
    // most ~2/0.1 entries, however many points are offered.
    TypeParam archive({0.1, 0.1});
    borg::util::Rng rng(7);
    for (int i = 0; i < 20000; ++i) {
        const double x = rng.uniform();
        const double y = 1.0 - x + rng.uniform(0.0, 0.05);
        archive.add(evaluated({x, y}));
    }
    EXPECT_LE(archive.size(), 21u);
    EXPECT_GE(archive.size(), 5u);
}

TYPED_TEST(ArchiveBehavior, CollapsesWhenIdealCornerBoxReached) {
    // A point inside the origin epsilon-box dominates every other box:
    // the archive rightly collapses to that single solution.
    TypeParam archive({0.1, 0.1});
    borg::util::Rng rng(8);
    for (int i = 0; i < 50; ++i)
        archive.add(evaluated({rng.uniform(0.2, 1.0), rng.uniform(0.2, 1.0)}));
    archive.add(evaluated({0.05, 0.05}));
    EXPECT_EQ(archive.size(), 1u);
}

TYPED_TEST(ArchiveBehavior, AddAllTalliesMatchIndividualAdds) {
    borg::util::Rng rng(11);
    std::vector<Solution> batch;
    for (int i = 0; i < 300; ++i)
        batch.push_back(evaluated({rng.uniform(), rng.uniform()}));

    TypeParam loop({0.1, 0.1});
    ArchiveBatchResult expected;
    for (const Solution& s : batch) {
        switch (loop.add(s)) {
        case ArchiveAdd::kAddedNewBox: ++expected.added_new_box; break;
        case ArchiveAdd::kReplacedSameBox:
            ++expected.replaced_same_box;
            break;
        case ArchiveAdd::kRejected: ++expected.rejected; break;
        }
    }

    TypeParam batched({0.1, 0.1});
    const ArchiveBatchResult result = batched.add_all(batch);
    EXPECT_EQ(result.added_new_box, expected.added_new_box);
    EXPECT_EQ(result.replaced_same_box, expected.replaced_same_box);
    EXPECT_EQ(result.rejected, expected.rejected);
    EXPECT_EQ(result.accepted(),
              expected.added_new_box + expected.replaced_same_box);
    ASSERT_EQ(batched.size(), loop.size());
    for (std::size_t i = 0; i < batched.size(); ++i)
        EXPECT_EQ(as_vec(batched[i].objectives), as_vec(loop[i].objectives));
}

TYPED_TEST(ArchiveBehavior, RestoreInstallsExactlyWithoutReplay) {
    // Build an archive whose members include corner-distance near-ties,
    // then restore its snapshot into a fresh instance: membership AND
    // iteration order must round-trip exactly (replaying through add()
    // would re-run contests and could drop tie members order-dependently).
    TypeParam archive({0.1, 0.1});
    borg::util::Rng rng(13);
    for (int i = 0; i < 5000; ++i) {
        const double x = rng.uniform();
        archive.add(evaluated({x, 1.0 - x + rng.uniform(0.0, 0.05)}));
    }
    ASSERT_GE(archive.size(), 5u);

    TypeParam restored({0.1, 0.1});
    restored.restore(archive.solutions(), archive.epsilon_progress(),
                     archive.improvements());
    ASSERT_EQ(restored.size(), archive.size());
    for (std::size_t i = 0; i < archive.size(); ++i) {
        EXPECT_EQ(as_vec(restored[i].objectives),
                  as_vec(archive[i].objectives));
        EXPECT_EQ(as_vec(restored[i].variables),
                  as_vec(archive[i].variables));
    }
    EXPECT_EQ(restored.epsilon_progress(), archive.epsilon_progress());
    EXPECT_EQ(restored.improvements(), archive.improvements());

    // The restored archive must behave identically going forward.
    for (int i = 0; i < 200; ++i) {
        const Solution s =
            evaluated({rng.uniform(), rng.uniform()});
        EXPECT_EQ(restored.add(s), archive.add(s));
    }
}

TYPED_TEST(ArchiveBehavior, RestoreHandlesInfeasibleAnchor) {
    TypeParam archive({0.1, 0.1});
    Solution anchor = evaluated({0.4, 0.4});
    anchor.constraints = {0.7};
    ASSERT_EQ(archive.add(anchor), ArchiveAdd::kAddedNewBox);

    TypeParam restored({0.1, 0.1});
    restored.restore(archive.solutions(), archive.epsilon_progress(),
                     archive.improvements());
    ASSERT_EQ(restored.size(), 1u);
    EXPECT_FALSE(restored[0].feasible());
    // A less-violating infeasible candidate still contests the anchor...
    Solution better = evaluated({0.9, 0.9});
    better.constraints = {0.2};
    EXPECT_EQ(restored.add(better), ArchiveAdd::kAddedNewBox);
    // ...and the first feasible arrival still evicts it.
    EXPECT_EQ(restored.add(evaluated({0.5, 0.5})), ArchiveAdd::kAddedNewBox);
    ASSERT_EQ(restored.size(), 1u);
    EXPECT_TRUE(restored[0].feasible());
}

// ---------------------------------------------------------------------------
// Randomized engine-vs-naive equivalence: on any candidate stream the two
// implementations must produce identical per-add verdicts, identical
// membership in identical iteration order, and identical counters.
// ---------------------------------------------------------------------------

enum class StreamKind {
    kFeasible,        ///< unconstrained candidates
    kInfeasibleOnly,  ///< every candidate violates (anchor churn)
    kMixed,           ///< ~40% feasible, interleaved
};

std::vector<Solution> make_stream(std::size_t objectives, StreamKind kind,
                                  std::size_t count, std::uint64_t seed) {
    borg::util::Rng rng(seed);
    std::vector<Solution> stream;
    stream.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        Solution s;
        s.variables = {static_cast<double>(i)}; // distinguishes members
        std::vector<double> f(objectives);
        for (double& v : f) v = rng.uniform();
        s.set_objectives(f);
        s.operator_index = static_cast<int>(rng.below(6)) - 1;
        switch (kind) {
        case StreamKind::kFeasible:
            break;
        case StreamKind::kInfeasibleOnly:
            s.constraints = {rng.uniform(0.01, 1.0), rng.uniform(0.01, 1.0)};
            break;
        case StreamKind::kMixed:
            s.constraints = {rng.uniform(-1.5, 1.0), rng.uniform(-1.5, 1.0)};
            break;
        }
        stream.push_back(std::move(s));
    }
    return stream;
}

/// Scalar model of the engine's pool-row traffic on the ownership-transfer
/// path: the row each candidate is stored in, and the order rows go back
/// to the pool. Rows come from SolutionPool's LIFO free list, which grows
/// in 256-row blocks handed out in ascending order. The engine releases a
/// rejected candidate's row, a same-box loser's row, a replaced infeasible
/// anchor's row, and evicted members' rows largest box sum first, oldest
/// install first among equal sums (a same-box winner keeps its
/// predecessor's install).
class ReferenceRows {
public:
    explicit ReferenceRows(std::vector<double> epsilons)
        : epsilons_(std::move(epsilons)) {}

    std::uint32_t acquire() {
        if (free_.empty()) {
            for (std::uint32_t i = 256; i-- > 0;) free_.push_back(next_ + i);
            next_ += 256;
        }
        const std::uint32_t row = free_.back();
        free_.pop_back();
        return row;
    }

    /// Applies one add: \p candidate was stored in \p row; \p before and
    /// \p after are the member ids (variables[0]) around the add.
    void apply(const Solution& candidate, std::uint32_t row,
               ArchiveAdd verdict, const std::vector<double>& before,
               const std::vector<double>& after) {
        const double id = candidate.variables[0];
        if (verdict == ArchiveAdd::kRejected) {
            free_.push_back(row);
            return;
        }
        std::vector<double> removed;
        for (const double member : before)
            if (std::find(after.begin(), after.end(), member) == after.end())
                removed.push_back(member);
        if (verdict == ArchiveAdd::kReplacedSameBox) {
            EXPECT_EQ(removed.size(), 1u);
            members_[id] = {row, members_.at(removed[0]).install,
                            members_.at(removed[0]).box_sum};
        } else {
            std::int64_t box_sum = 0;
            for (const std::int64_t c :
                 epsilon_box(candidate.objectives, epsilons_))
                box_sum += c;
            members_[id] = {row, next_install_++, box_sum};
        }
        std::sort(removed.begin(), removed.end(), [&](double a, double b) {
            const Member& ma = members_.at(a);
            const Member& mb = members_.at(b);
            if (ma.box_sum != mb.box_sum) return ma.box_sum > mb.box_sum;
            return ma.install < mb.install;
        });
        for (const double member : removed) {
            free_.push_back(members_.at(member).row);
            members_.erase(member);
        }
    }

    std::uint32_t row_of(double id) const { return members_.at(id).row; }

private:
    struct Member {
        std::uint32_t row;
        std::uint64_t install;
        std::int64_t box_sum;
    };

    std::vector<double> epsilons_;
    std::vector<std::uint32_t> free_;
    std::uint32_t next_ = 0;
    std::uint64_t next_install_ = 0;
    std::unordered_map<double, Member> members_;
};

std::vector<double> member_ids(const NaiveArchive& archive) {
    std::vector<double> ids;
    for (std::size_t i = 0; i < archive.size(); ++i)
        ids.push_back(archive[i].variables[0]);
    return ids;
}

void expect_equivalent(std::size_t objectives, double epsilon,
                       const std::vector<Solution>& stream) {
    const std::vector<double> eps(objectives, epsilon);
    ArchiveEngine engine(eps);
    NaiveArchive naive(eps);
    // The production path: candidates stored in a shared pool and handed
    // over with add_owned(), checked row by row against ReferenceRows.
    SolutionPool pool(1, objectives, stream.front().constraints.size());
    ArchiveEngine owning(pool, eps);
    ReferenceRows rows(eps);
    for (std::size_t i = 0; i < stream.size(); ++i) {
        const std::vector<double> before = member_ids(naive);
        const SolutionHandle handle = pool.store(stream[i]);
        ASSERT_EQ(handle.index, rows.acquire())
            << "acquired row diverged at candidate " << i;
        const ArchiveAdd a = engine.add(stream[i]);
        const ArchiveAdd b = naive.add(stream[i]);
        ASSERT_EQ(a, b) << "verdict diverged at candidate " << i
                        << " (m=" << objectives << ", eps=" << epsilon
                        << ")";
        ASSERT_EQ(owning.add_owned(handle), b) << "owned verdict at " << i;
        ASSERT_EQ(engine.size(), naive.size()) << "size diverged at " << i;
        rows.apply(stream[i], handle.index, b, before, member_ids(naive));
    }
    ASSERT_EQ(owning.size(), naive.size());
    for (std::size_t i = 0; i < engine.size(); ++i) {
        EXPECT_EQ(as_vec(engine[i].variables), as_vec(naive[i].variables))
            << "membership/order diverged at member " << i;
        EXPECT_EQ(as_vec(engine[i].objectives), as_vec(naive[i].objectives));
        EXPECT_EQ(as_vec(engine[i].constraints),
                  as_vec(naive[i].constraints));
        EXPECT_EQ(engine[i].operator_index, naive[i].operator_index);
        EXPECT_EQ(as_vec(owning[i].variables), as_vec(naive[i].variables));
        EXPECT_EQ(owning.member_row(i), rows.row_of(naive[i].variables[0]))
            << "pool row diverged at member " << i;
    }
    EXPECT_EQ(engine.epsilon_progress(), naive.epsilon_progress());
    EXPECT_EQ(engine.improvements(), naive.improvements());
    EXPECT_EQ(engine.operator_counts(5), naive.operator_counts(5));
    // The next rows the pool hands out reflect every release order above.
    for (int k = 0; k < 64; ++k) {
        const SolutionHandle h = pool.acquire();
        ASSERT_EQ(h.index, rows.acquire()) << "free-list order, pop " << k;
    }
}

TEST(ArchiveEquivalence, FeasibleStreamsAcrossObjectiveCounts) {
    for (std::size_t m = 2; m <= 7; ++m) {
        // Small boxes: mostly new-box inserts and dominated rejections.
        expect_equivalent(
            m, 0.05, make_stream(m, StreamKind::kFeasible, 2000, 100 + m));
        // Large boxes: frequent same-box contests and evictions.
        expect_equivalent(
            m, 0.3, make_stream(m, StreamKind::kFeasible, 2000, 200 + m));
    }
}

TEST(ArchiveEquivalence, InfeasibleAnchorStreams) {
    for (std::size_t m = 2; m <= 7; ++m)
        expect_equivalent(
            m, 0.1,
            make_stream(m, StreamKind::kInfeasibleOnly, 1000, 300 + m));
}

TEST(ArchiveEquivalence, MixedFeasibilityStreams) {
    for (std::size_t m = 2; m <= 7; ++m)
        expect_equivalent(
            m, 0.1, make_stream(m, StreamKind::kMixed, 2000, 400 + m));
}

TEST(ArchiveEquivalence, EvictionHeavyShrinkingFront) {
    // Candidates improve over time (objectives shrink), so later adds
    // evict earlier members constantly — the worst case for the engine's
    // index maintenance.
    for (std::size_t m : {2u, 3u, 5u}) {
        borg::util::Rng rng(500 + m);
        std::vector<Solution> stream;
        for (std::size_t i = 0; i < 3000; ++i) {
            const double scale =
                1.0 - 0.8 * static_cast<double>(i) / 3000.0;
            std::vector<double> f(m);
            for (double& v : f) v = scale * rng.uniform();
            Solution s;
            s.variables = {static_cast<double>(i)};
            s.set_objectives(f);
            stream.push_back(std::move(s));
        }
        expect_equivalent(m, 0.04, stream);
    }
}

TEST(ArchiveEquivalence, CoarseBoxLongChurn) {
    // Coarse boxes and a slowly improving front: multi-member evictions
    // leave free (NaN) slots that later installs only partly refill, and
    // same-box contests keep landing on members stored behind them — the
    // case where the engine's one pass must step over freed slots to the
    // member that shares the candidate's box.
    for (std::size_t m : {2u, 3u, 5u}) {
        borg::util::Rng rng(800 + m);
        std::vector<Solution> stream;
        for (std::size_t i = 0; i < 12000; ++i) {
            // A noisy simplex front, Σ f ≈ r, receding towards the origin.
            const double r = 2.0 - 1.5 * static_cast<double>(i) / 12000.0;
            std::vector<double> f(m);
            double sum = 0.0;
            for (double& v : f) sum += v = rng.uniform(0.05, 1.0);
            for (double& v : f) v *= r / sum * rng.uniform(1.0, 1.3);
            Solution s;
            s.variables = {static_cast<double>(i)};
            s.set_objectives(f);
            stream.push_back(std::move(s));
        }
        // The oracle alone: count same-box wins made while the archive
        // is below its high-water size, i.e. while some slot is free.
        NaiveArchive naive(std::vector<double>(m, 0.25));
        std::size_t high_water = 0;
        std::size_t wins_with_free_slots = 0;
        for (const Solution& s : stream) {
            if (naive.add(s) == ArchiveAdd::kReplacedSameBox &&
                naive.size() < high_water)
                ++wins_with_free_slots;
            high_water = std::max(high_water, naive.size());
        }
        EXPECT_GT(wins_with_free_slots, 100u) << "m=" << m;
        expect_equivalent(m, 0.25, stream);
    }
}

TEST(ArchiveEquivalence, AntiDiagonalEqualSumBoxes) {
    // Anti-diagonal fronts put many mutually nondominated members at the
    // SAME box-coordinate sum — the tie case in the engine's sum-sorted
    // index.
    borg::util::Rng rng(600);
    std::vector<Solution> stream;
    for (std::size_t i = 0; i < 5000; ++i) {
        const double x = rng.uniform();
        Solution s;
        s.variables = {static_cast<double>(i)};
        s.set_objectives(
            std::vector<double>{x, 1.0 - x + rng.uniform(0.0, 0.02)});
        stream.push_back(std::move(s));
    }
    expect_equivalent(2, 0.05, stream);
}

TEST(ArchiveEquivalence, RestoreThenContinueMatches) {
    // Restore mid-stream on both implementations, then continue: the
    // resumed archives must keep agreeing with each other.
    const std::vector<double> eps(3, 0.07);
    const auto stream =
        make_stream(3, StreamKind::kFeasible, 3000, 700);
    ArchiveEngine engine(eps);
    NaiveArchive naive(eps);
    for (std::size_t i = 0; i < 1500; ++i) {
        engine.add(stream[i]);
        naive.add(stream[i]);
    }
    ArchiveEngine engine2(eps);
    NaiveArchive naive2(eps);
    engine2.restore(engine.solutions(), engine.epsilon_progress(),
                    engine.improvements());
    naive2.restore(naive.solutions(), naive.epsilon_progress(),
                   naive.improvements());
    for (std::size_t i = 1500; i < stream.size(); ++i)
        ASSERT_EQ(engine2.add(stream[i]), naive2.add(stream[i])) << i;
    ASSERT_EQ(engine2.size(), naive2.size());
    for (std::size_t i = 0; i < engine2.size(); ++i)
        EXPECT_EQ(as_vec(engine2[i].variables), as_vec(naive2[i].variables));
    EXPECT_EQ(engine2.epsilon_progress(), naive2.epsilon_progress());
    EXPECT_EQ(engine2.improvements(), naive2.improvements());
}

// ------------------------------------------------------------ front digest
//
// front_digest() is maintained incrementally (adds add a row hash,
// evictions subtract it). The oracle for "the digest of this membership" is
// a fresh archive restored from the same members: if the incremental sums
// ever drift from that, an eviction path forgot to subtract.

TEST(FrontDigest, IncrementalMatchesRecomputeThroughoutAStream) {
    const std::vector<double> eps(3, 0.07);
    const auto stream = make_stream(3, StreamKind::kFeasible, 4000, 900);
    ArchiveEngine engine(eps);
    for (std::size_t i = 0; i < stream.size(); ++i) {
        engine.add(stream[i]);
        if (i % 250 != 0) continue;
        ArchiveEngine recomputed(eps);
        recomputed.restore(engine.solutions(), engine.epsilon_progress(),
                           engine.improvements());
        ASSERT_EQ(engine.front_digest(), recomputed.front_digest())
            << "incremental digest drifted by candidate " << i;
    }
}

TEST(FrontDigest, EvictionHeavyStreamStaysConsistent) {
    // Every add evicts everything the candidate dominates, so the subtract
    // path runs constantly.
    const std::vector<double> eps(2, 0.04);
    ArchiveEngine engine(eps);
    for (int step = 40; step >= 1; --step) {
        for (int k = 0; k <= 40 - step; ++k)
            engine.add(evaluated({0.025 * (step + k), 0.025 * (40 - k)}));
        ArchiveEngine recomputed(eps);
        recomputed.restore(engine.solutions(), engine.epsilon_progress(),
                           engine.improvements());
        ASSERT_EQ(engine.front_digest(), recomputed.front_digest())
            << "diverged at shrink step " << step;
    }
}

TEST(FrontDigest, DependsOnMembershipNotHistory) {
    const std::vector<double> eps(2, 0.1);
    ArchiveEngine a(eps);
    ArchiveEngine b(eps);
    // Same final membership reached through different insertion orders
    // (and, for `a`, an intermediate member that gets evicted).
    a.add(evaluated({0.85, 0.85})); // later evicted by both survivors
    a.add(evaluated({0.25, 0.75}));
    a.add(evaluated({0.75, 0.25}));
    b.add(evaluated({0.75, 0.25}));
    b.add(evaluated({0.25, 0.75}));
    EXPECT_EQ(a.front_digest(), b.front_digest());
    EXPECT_NE(a.front_digest(), ArchiveEngine(eps).front_digest());
    // Distinct memberships must (overwhelmingly) disagree.
    ArchiveEngine c(eps);
    c.add(evaluated({0.25, 0.75}));
    EXPECT_NE(a.front_digest(), c.front_digest());
}

TEST(FrontDigest, ClearResetsDigest) {
    const std::vector<double> eps(2, 0.1);
    ArchiveEngine engine(eps);
    const std::uint64_t empty = engine.front_digest();
    engine.add(evaluated({0.5, 0.5}));
    EXPECT_NE(engine.front_digest(), empty);
    engine.clear();
    EXPECT_EQ(engine.front_digest(), empty);
}

} // namespace
