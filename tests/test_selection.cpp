#include "moea/selection.hpp"

#include <gtest/gtest.h>

namespace {

using namespace borg::moea;
using borg::util::Rng;

Solution evaluated(std::vector<double> variables,
                   std::vector<double> objectives) {
    Solution s;
    s.variables = std::move(variables);
    s.set_objectives(objectives);
    return s;
}

struct SelectionFixture : ::testing::Test {
    SelectionFixture() : archive({0.1, 0.1}), population(4), rng(7) {
        archive.add(evaluated({100.0}, {0.15, 0.85}));
        archive.add(evaluated({200.0}, {0.85, 0.15}));
        for (int i = 0; i < 4; ++i)
            population.inject(evaluated({double(i)},
                                        {1.0 + i, 5.0 - i}),
                              rng);
    }
    EpsilonBoxArchive archive;
    Population population;
    Rng rng;
};

TEST_F(SelectionFixture, FirstParentComesFromArchive) {
    ParentView parents;
    for (int trial = 0; trial < 50; ++trial) {
        select_parents_into(parents, 3, archive, population, 2, rng);
        ASSERT_EQ(parents.size(), 3u);
        const double v = parents[0][0];
        EXPECT_TRUE(v == 100.0 || v == 200.0);
    }
}

TEST_F(SelectionFixture, RemainingParentsFromPopulation) {
    ParentView parents;
    for (int trial = 0; trial < 50; ++trial) {
        select_parents_into(parents, 4, archive, population, 2, rng);
        for (std::size_t i = 1; i < parents.size(); ++i)
            EXPECT_LT(parents[i][0], 4.0);
    }
}

TEST_F(SelectionFixture, EmptyArchiveFallsBackToPopulation) {
    EpsilonBoxArchive empty({0.1, 0.1});
    ParentView parents;
    select_parents_into(parents, 2, empty, population, 2, rng);
    for (const auto& p : parents) EXPECT_LT(p[0], 4.0);
}

TEST_F(SelectionFixture, ArityRespected) {
    ParentView parents;
    for (std::size_t arity : {1u, 2u, 4u, 10u}) {
        select_parents_into(parents, arity, archive, population, 2, rng);
        EXPECT_EQ(parents.size(), arity);
    }
}

TEST_F(SelectionFixture, ZeroArityThrows) {
    ParentView parents;
    EXPECT_THROW(select_parents_into(parents, 0, archive, population, 2, rng),
                 std::invalid_argument);
}

TEST(Selection, EmptyPopulationThrows) {
    EpsilonBoxArchive archive({0.1});
    Population population(2);
    Rng rng(1);
    ParentView parents;
    EXPECT_THROW(select_parents_into(parents, 2, archive, population, 2, rng),
                 std::logic_error);
}

} // namespace
