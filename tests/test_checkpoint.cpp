#include "moea/checkpoint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>

#include "problems/problem.hpp"

namespace {

using namespace borg;
using namespace borg::moea;

BorgParams params_for(const problems::Problem& problem) {
    return BorgParams::for_problem(problem, 0.01);
}

/// The gold property: save at evaluation k, load into a fresh instance,
/// continue both to N — the archives must be bit-identical.
TEST(Checkpoint, ResumedRunIsBitIdentical) {
    const auto problem = problems::make_problem("zdt1");

    BorgMoea uninterrupted(*problem, params_for(*problem), 42);
    run_serial(uninterrupted, *problem, 10000);

    BorgMoea first_half(*problem, params_for(*problem), 42);
    run_serial(first_half, *problem, 4000);
    std::stringstream snapshot;
    save_checkpoint(first_half, snapshot);

    BorgMoea resumed(*problem, params_for(*problem), 999); // wrong seed —
    load_checkpoint(resumed, snapshot); // — overwritten by the checkpoint
    run_serial(resumed, *problem, 10000);

    ASSERT_EQ(resumed.archive().size(), uninterrupted.archive().size());
    for (std::size_t i = 0; i < resumed.archive().size(); ++i) {
        EXPECT_TRUE(std::ranges::equal(resumed.archive()[i].objectives,
                                       uninterrupted.archive()[i].objectives));
        EXPECT_TRUE(std::ranges::equal(resumed.archive()[i].variables,
                                       uninterrupted.archive()[i].variables));
    }
    EXPECT_EQ(resumed.restarts(), uninterrupted.restarts());
    EXPECT_EQ(resumed.operator_usage(), uninterrupted.operator_usage());
    EXPECT_EQ(resumed.operator_probabilities(),
              uninterrupted.operator_probabilities());
}

TEST(Checkpoint, CountersSurviveRoundTrip) {
    const auto problem = problems::make_problem("zdt1");
    BorgMoea original(*problem, params_for(*problem), 7);
    run_serial(original, *problem, 3000);

    std::stringstream snapshot;
    save_checkpoint(original, snapshot);
    BorgMoea restored(*problem, params_for(*problem), 8);
    load_checkpoint(restored, snapshot);

    EXPECT_EQ(restored.issued(), original.issued());
    EXPECT_EQ(restored.evaluations(), original.evaluations());
    EXPECT_EQ(restored.pending_restart_mutants(),
              original.pending_restart_mutants());
    EXPECT_EQ(restored.archive().size(), original.archive().size());
    EXPECT_EQ(restored.archive().epsilon_progress(),
              original.archive().epsilon_progress());
    EXPECT_EQ(restored.archive().improvements(),
              original.archive().improvements());
    EXPECT_EQ(restored.population().size(), original.population().size());
    EXPECT_EQ(restored.population().target_size(),
              original.population().target_size());
}

TEST(Checkpoint, ExactDoubleRoundTrip) {
    const auto problem = problems::make_problem("zdt1");
    BorgMoea original(*problem, params_for(*problem), 3);
    run_serial(original, *problem, 500);

    std::stringstream snapshot;
    save_checkpoint(original, snapshot);
    BorgMoea restored(*problem, params_for(*problem), 4);
    load_checkpoint(restored, snapshot);

    for (std::size_t i = 0; i < original.population().size(); ++i)
        EXPECT_TRUE(std::ranges::equal(restored.population()[i].variables,
                                       original.population()[i].variables));
}

TEST(Checkpoint, WorksMidRestartRefill) {
    // Checkpoint while restart mutants are pending: the pending count and
    // the resulting stream must survive.
    const auto problem = problems::make_problem("zdt1");
    BorgParams params = params_for(*problem);
    params.restart.window = 100;
    BorgMoea algo(*problem, params, 5);
    std::uint64_t i = 0;
    while (algo.pending_restart_mutants() == 0 && i < 50000) {
        const SolutionHandle h = algo.next_offspring_handle();
        evaluate(*problem, algo.pool(), h);
        algo.receive_handle(h);
        ++i;
    }
    ASSERT_GT(algo.pending_restart_mutants(), 0u);

    std::stringstream snapshot;
    save_checkpoint(algo, snapshot);
    BorgMoea restored(*problem, params, 6);
    load_checkpoint(restored, snapshot);
    EXPECT_EQ(restored.pending_restart_mutants(),
              algo.pending_restart_mutants());
    const SolutionHandle a = algo.next_offspring_handle();
    const SolutionHandle b = restored.next_offspring_handle();
    EXPECT_TRUE(std::ranges::equal(algo.pool().variables(a),
                                   restored.pool().variables(b)));
    EXPECT_EQ(algo.pool().operator_index(a),
              restored.pool().operator_index(b));
}

TEST(Checkpoint, ConstrainedSolutionsRoundTrip) {
    const auto problem = problems::make_problem("srn");
    BorgParams params;
    params.epsilons = {1.0, 1.0};
    BorgMoea original(*problem, params, 9);
    run_serial(original, *problem, 2000);

    std::stringstream snapshot;
    save_checkpoint(original, snapshot);
    BorgMoea restored(*problem, params, 10);
    load_checkpoint(restored, snapshot);
    ASSERT_EQ(restored.archive().size(), original.archive().size());
    for (std::size_t i = 0; i < restored.archive().size(); ++i)
        EXPECT_TRUE(std::ranges::equal(restored.archive()[i].constraints,
                                       original.archive()[i].constraints));
}

TEST(Checkpoint, RejectsGarbage) {
    const auto problem = problems::make_problem("zdt1");
    BorgMoea algo(*problem, params_for(*problem), 11);
    std::stringstream garbage("not a checkpoint at all");
    EXPECT_THROW(load_checkpoint(algo, garbage), CheckpointError);
}

TEST(Checkpoint, RejectsTruncated) {
    const auto problem = problems::make_problem("zdt1");
    BorgMoea original(*problem, params_for(*problem), 12);
    run_serial(original, *problem, 1000);
    std::stringstream snapshot;
    save_checkpoint(original, snapshot);
    const std::string full = snapshot.str();
    std::stringstream truncated(full.substr(0, full.size() / 2));
    BorgMoea restored(*problem, params_for(*problem), 13);
    EXPECT_THROW(load_checkpoint(restored, truncated), CheckpointError);
}

/// save → load → save must be byte-identical: load_checkpoint installs the
/// archive directly (no add() replay), so nothing about the saved state can
/// shift, reorder, or drop on the way through a restore.
TEST(Checkpoint, SaveLoadSaveIsByteIdentical) {
    for (const char* name : {"zdt1", "srn"}) {
        const auto problem = problems::make_problem(name);
        BorgParams params;
        params.epsilons.assign(problem->num_objectives(),
                               name == std::string("srn") ? 1.0 : 0.01);
        BorgMoea original(*problem, params, 21);
        run_serial(original, *problem, 3000);

        std::stringstream first;
        save_checkpoint(original, first);

        BorgMoea restored(*problem, params, 22);
        std::stringstream replay(first.str());
        load_checkpoint(restored, replay);

        std::stringstream second;
        save_checkpoint(restored, second);
        EXPECT_EQ(first.str(), second.str()) << "problem " << name;
    }
}

TEST(Checkpoint, RejectsEpsilonMismatch) {
    // Loading into a BorgMoea configured with different epsilons would
    // silently re-box (and possibly drop) archive members; it must throw.
    const auto problem = problems::make_problem("zdt1");
    BorgMoea original(*problem, params_for(*problem), 16);
    run_serial(original, *problem, 1000);
    std::stringstream snapshot;
    save_checkpoint(original, snapshot);

    BorgMoea coarser(*problem, BorgParams::for_problem(*problem, 0.02), 17);
    EXPECT_THROW(load_checkpoint(coarser, snapshot), CheckpointError);
}

namespace {
/// Same variables/objectives as SRN, but unconstrained: exercises the
/// constraint-arity check that variable/objective validation alone misses.
class UnconstrainedSrnShape final : public problems::Problem {
public:
    std::string name() const override { return "srn-shape"; }
    std::size_t num_variables() const override { return 2; }
    std::size_t num_objectives() const override { return 2; }
    double lower_bound(std::size_t) const override { return -20.0; }
    double upper_bound(std::size_t) const override { return 20.0; }
    void evaluate(std::span<const double> variables,
                  std::span<double> objectives) const override {
        objectives[0] = variables[0];
        objectives[1] = variables[1];
    }
};
} // namespace

TEST(Checkpoint, RejectsConstraintArityMismatch) {
    const auto srn = problems::make_problem("srn");
    BorgParams params;
    params.epsilons = {1.0, 1.0};
    BorgMoea original(*srn, params, 18);
    run_serial(original, *srn, 1000);
    std::stringstream snapshot;
    save_checkpoint(original, snapshot);

    // Same variable and objective arity, no constraints: without the
    // constraint-arity check this load would succeed and every restored
    // solution would carry phantom violations.
    UnconstrainedSrnShape shape;
    BorgMoea other(shape, params, 19);
    EXPECT_THROW(load_checkpoint(other, snapshot), CheckpointError);
}

// ------------------------------------------------------- v2 -> v3 migration

#ifndef BORG_GOLDEN_DIR
#error "BORG_GOLDEN_DIR must be defined (tests/golden in the source tree)"
#endif

/// Opens a checked-in v2 checkpoint from tests/golden. Each was saved by
/// the v2 writer from a serial run named in the file name (problem, seed,
/// evaluations), before that writer was retired.
std::ifstream v2_fixture(const std::string& name) {
    std::ifstream is(std::string(BORG_GOLDEN_DIR) + "/" + name);
    if (!is) ADD_FAILURE() << "missing v2 fixture " << name;
    return is;
}

/// A v2 checkpoint (inline solutions per section) must load under the v3
/// code and continue bit-identically — clusters have archived v2 files.
TEST(CheckpointMigration, V2LoadsAndResumesBitIdentical) {
    const auto problem = problems::make_problem("zdt1");

    BorgMoea uninterrupted(*problem, params_for(*problem), 42);
    run_serial(uninterrupted, *problem, 8000);

    // zdt1, seed 42, stopped at 3000 evaluations.
    std::ifstream legacy = v2_fixture("checkpoint_v2_zdt1_seed42_3000.txt");

    BorgMoea resumed(*problem, params_for(*problem), 999);
    load_checkpoint(resumed, legacy);
    run_serial(resumed, *problem, 8000);

    ASSERT_EQ(resumed.archive().size(), uninterrupted.archive().size());
    for (std::size_t i = 0; i < resumed.archive().size(); ++i) {
        EXPECT_TRUE(std::ranges::equal(resumed.archive()[i].objectives,
                                       uninterrupted.archive()[i].objectives));
        EXPECT_TRUE(std::ranges::equal(resumed.archive()[i].variables,
                                       uninterrupted.archive()[i].variables));
    }
}

/// Migration is lossless: state loaded from v2 re-saves (as v3) exactly as
/// the same state saved v3 directly, and the migrated file round-trips
/// byte-identically from then on.
TEST(CheckpointMigration, V2ToV3RewriteEqualsDirectV3Save) {
    for (const char* name : {"zdt1", "srn"}) {
        const auto problem = problems::make_problem(name);
        BorgParams params;
        params.epsilons.assign(problem->num_objectives(),
                               name == std::string("srn") ? 1.0 : 0.01);
        BorgMoea original(*problem, params, 33);
        run_serial(original, *problem, 2500);

        std::stringstream direct_v3;
        save_checkpoint(original, direct_v3);
        // The same run (seed 33, 2500 evaluations) saved as v2.
        std::ifstream legacy = v2_fixture(std::string("checkpoint_v2_") +
                                          name + "_seed33_2500.txt");

        BorgMoea migrated(*problem, params, 34);
        load_checkpoint(migrated, legacy);
        std::stringstream rewritten;
        save_checkpoint(migrated, rewritten);
        EXPECT_EQ(rewritten.str(), direct_v3.str()) << "problem " << name;

        BorgMoea reloaded(*problem, params, 35);
        std::stringstream replay(rewritten.str());
        load_checkpoint(reloaded, replay);
        std::stringstream again;
        save_checkpoint(reloaded, again);
        EXPECT_EQ(again.str(), rewritten.str()) << "problem " << name;
    }
}

TEST(CheckpointMigration, CorruptedPoolSectionThrows) {
    const auto problem = problems::make_problem("zdt1");
    BorgMoea original(*problem, params_for(*problem), 36);
    run_serial(original, *problem, 1500);
    std::stringstream snapshot;
    save_checkpoint(original, snapshot);
    const std::string good = snapshot.str();
    ASSERT_NE(good.find("\npool "), std::string::npos);

    // A pool header claiming more rows than the file carries.
    {
        std::string bad = good;
        const std::size_t at = bad.find("\npool ") + 6;
        const std::size_t end = bad.find(' ', at);
        bad.replace(at, end - at, "9999");
        std::stringstream is(bad);
        BorgMoea victim(*problem, params_for(*problem), 37);
        EXPECT_THROW(load_checkpoint(victim, is), CheckpointError);
    }
    // A payload value replaced with a non-number.
    {
        std::string bad = good;
        const std::size_t header = bad.find("\npool ");
        const std::size_t line_end = bad.find('\n', header + 1);
        const std::size_t token = bad.find(' ', line_end + 1);
        ASSERT_NE(token, std::string::npos);
        bad.replace(line_end + 1, token - line_end - 1, "bogus");
        std::stringstream is(bad);
        BorgMoea victim(*problem, params_for(*problem), 38);
        EXPECT_THROW(load_checkpoint(victim, is), CheckpointError);
    }
    // A section referencing a pool row past the dump: overwrite the last
    // population row ref with an index no pool dump could hold.
    {
        std::string bad = good;
        const std::size_t at = bad.find("\npopulation ");
        ASSERT_NE(at, std::string::npos);
        const std::size_t line_end = bad.find('\n', at + 1);
        const std::size_t last_space = bad.rfind(' ', line_end);
        bad.replace(last_space + 1, line_end - last_space - 1, "999999");
        std::stringstream is(bad);
        BorgMoea victim(*problem, params_for(*problem), 39);
        EXPECT_THROW(load_checkpoint(victim, is), CheckpointError);
    }
}

TEST(Checkpoint, RejectsDifferentProblemDimensions) {
    const auto zdt = problems::make_problem("zdt1");
    BorgMoea original(*zdt, params_for(*zdt), 14);
    run_serial(original, *zdt, 1000);
    std::stringstream snapshot;
    save_checkpoint(original, snapshot);

    const auto dtlz = problems::make_problem("dtlz2_2");
    BorgMoea other(*dtlz, params_for(*dtlz), 15);
    EXPECT_THROW(load_checkpoint(other, snapshot), CheckpointError);
}

} // namespace
