#ifndef BORG_TESTS_OPERATOR_DIGESTS_HPP
#define BORG_TESTS_OPERATOR_DIGESTS_HPP

/// \file operator_digests.hpp
/// Recorded offspring fingerprints for every variation operator, shared by
/// tests/test_operators.cpp and bench/micro_operators' agreement gate.
///
/// Each operator has exactly one sampling body (`apply_into`); `apply()`
/// is an allocating wrapper around it. What pins that body is a
/// recording: the FNV-1a digest of the offspring bit patterns a fixed
/// protocol produces, captured from the tree in which every operator
/// still had a separate value-returning twin that agreed with it bit for
/// bit. Any change to an operator's arithmetic, its RNG draw order or its
/// draw count moves the digest.
///
/// Protocol (replayed by digest_offspring): problem dtlz2_3; one parent
/// stream util::Rng(kParentSeed) shared across the operators of a list,
/// drawing arity() fresh parents per trial (each variable uniform in its
/// bounds); each operator runs its own offspring stream, seeded with
/// kRawSeed (100 trials, the 7 raw operators in all_raw_operators order)
/// or kEnsembleSeed (50 trials, make_borg_operators order).

#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "moea/operators.hpp"
#include "problems/problem.hpp"
#include "util/rng.hpp"

namespace borg::testops {

inline constexpr const char* kProblem = "dtlz2_3";
inline constexpr std::uint64_t kParentSeed = 12345;
inline constexpr std::uint64_t kRawSeed = 999;
inline constexpr int kRawTrials = 100;
inline constexpr std::uint64_t kEnsembleSeed = 4242;
inline constexpr int kEnsembleTrials = 50;

struct RecordedDigest {
    const char* name;
    std::uint64_t digest;
};

/// SBX, DE, PCX, SPX, UNDX, UM, PM at default parameters.
inline constexpr RecordedDigest kRawDigests[] = {
    {"SBX", 0x1207d575b177c4deull},
    {"DE", 0x2870f97063eb7320ull},
    {"PCX", 0xeae9c5361aa78ae6ull},
    {"SPX", 0x62fafe61d60ff469ull},
    {"UNDX", 0xa1d1d080fcd32b63ull},
    {"UM", 0x9056b45fbb1a88d0ull},
    {"PM", 0x523eb8f7f27a4757ull},
};

/// The ensemble composites Borg actually runs (make_borg_operators).
inline constexpr RecordedDigest kEnsembleDigests[] = {
    {"SBX+PM", 0xc622ea5eda4c0d4dull},
    {"DE+PM", 0xde499327b818d670ull},
    {"PCX+PM", 0x7968a5461d6d410cull},
    {"SPX+PM", 0x33644396932b5379ull},
    {"UNDX+PM", 0xc4426911ada03b93ull},
    {"UM", 0xe1eff96ca40d5dfeull},
};

inline std::vector<std::unique_ptr<moea::Variation>> all_raw_operators(
    const problems::Problem& problem) {
    std::vector<std::unique_ptr<moea::Variation>> ops;
    ops.push_back(std::make_unique<moea::Sbx>(problem));
    ops.push_back(std::make_unique<moea::DifferentialEvolution>(problem));
    ops.push_back(std::make_unique<moea::Pcx>(problem));
    ops.push_back(std::make_unique<moea::Spx>(problem));
    ops.push_back(std::make_unique<moea::Undx>(problem));
    ops.push_back(std::make_unique<moea::UniformMutation>(problem));
    ops.push_back(std::make_unique<moea::PolynomialMutation>(problem));
    return ops;
}

/// 64-bit FNV-1a over each value's IEEE-754 bit pattern, low byte first.
inline std::uint64_t fnv1a(std::uint64_t hash, std::span<const double> xs) {
    for (const double x : xs) {
        auto bits = std::bit_cast<std::uint64_t>(x);
        for (int b = 0; b < 8; ++b, bits >>= 8) {
            hash ^= bits & 0xffu;
            hash *= 0x100000001b3ull;
        }
    }
    return hash;
}

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

/// Digests of one operator's offspring under the protocol above, through
/// both entry points on lockstep offspring streams (so the wrapper and the
/// body are pinned by the same constant).
struct OffspringDigests {
    std::uint64_t apply = kFnvOffset;
    std::uint64_t apply_into = kFnvOffset;
};

inline OffspringDigests digest_offspring(moea::Variation& op,
                                         const problems::Problem& problem,
                                         util::Rng& parent_rng,
                                         std::uint64_t seed, int trials) {
    const std::size_t n = problem.num_variables();
    util::Rng value_rng(seed), arena_rng(seed);
    std::vector<std::vector<double>> parents(op.arity(),
                                             std::vector<double>(n));
    moea::ParentView view;
    for (const auto& p : parents) view.emplace_back(p);
    std::vector<double> row(n);
    OffspringDigests out;
    for (int trial = 0; trial < trials; ++trial) {
        for (auto& p : parents)
            for (std::size_t i = 0; i < n; ++i)
                p[i] = parent_rng.uniform(problem.lower_bound(i),
                                          problem.upper_bound(i));
        out.apply = fnv1a(out.apply, op.apply(view, value_rng));
        op.apply_into(view, arena_rng, row);
        out.apply_into = fnv1a(out.apply_into, row);
    }
    return out;
}

} // namespace borg::testops

#endif
