#ifndef BORG_MOEA_OPERATORS_HPP
#define BORG_MOEA_OPERATORS_HPP

/// \file operators.hpp
/// The Borg MOEA's ensemble of real-valued variation operators.
///
/// Borg does not commit to a single recombination operator: it carries an
/// ensemble — simulated binary crossover (SBX), differential evolution
/// (DE/rand/1/bin), parent-centric crossover (PCX), simplex crossover
/// (SPX), unimodal normal distribution crossover (UNDX), and uniform
/// mutation (UM) — and adapts each operator's selection probability by its
/// record of contributing solutions to the ε-dominance archive. As in the
/// original algorithm, each recombination operator is followed by
/// polynomial mutation (PM) with probability 1/L per variable; UM stands
/// alone.
///
/// Conventions shared by all operators:
///  * parents are decision-variable vectors only (objectives play no role);
///  * parents[0] is the "index" parent — Borg draws it from the archive, so
///    parent-centric operators (PCX) center their search on it;
///  * exactly one offspring is returned per application (the steady-state
///    algorithm needs one offspring per master interaction);
///  * offspring are clipped to the problem's bounds before return.

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "problems/problem.hpp"
#include "util/rng.hpp"

namespace borg::moea {

using ParentView = std::vector<std::span<const double>>;

/// Abstract variation operator.
///
/// Each operator has one body, `apply_into()`: it writes the offspring
/// into a caller-provided row (typically a SolutionPool slot), reuses
/// member scratch instead of allocating, and reads bounds cached at
/// construction. `apply()` is a non-virtual allocating wrapper around it
/// for cold callers (NSGA-II, tests). tests/operator_digests.hpp pins every
/// operator's offspring bits and RNG draw order against a recording.
class Variation {
public:
    explicit Variation(const problems::Problem& problem);
    virtual ~Variation() = default;

    virtual std::string name() const = 0;

    /// Number of parents this operator wants. Callers may supply fewer when
    /// the population is small (minimum 1 for mutations, 2 for crossovers);
    /// implementations degrade gracefully.
    virtual std::size_t arity() const = 0;

    /// Produces one offspring decision vector from the given parents: a
    /// fresh row of parents[0].size() doubles filled by apply_into().
    std::vector<double> apply(const ParentView& parents, util::Rng& rng);

    /// Writes one offspring into \p out. Throws std::invalid_argument on
    /// too few parents, parents of unequal length, or an \p out whose size
    /// differs from parents[0]'s. Non-const because implementations reuse
    /// member scratch — a Variation instance must not be shared across
    /// threads.
    virtual void apply_into(const ParentView& parents, util::Rng& rng,
                            std::span<double> out) = 0;

    /// Batched entry point: \p count offspring from the same parents into
    /// consecutive rows of \p out (count * parents[0].size() doubles).
    /// Equivalent to count sequential apply_into() calls on one RNG.
    void produce_batch(const ParentView& parents, util::Rng& rng,
                       std::size_t count, std::span<double> out);

protected:
    /// Clamps each variable into the cached problem box.
    void clip(std::span<double> variables) const;
    /// Problem box cached at construction (problem bounds are immutable).
    std::vector<double> lower_bounds_;
    std::vector<double> upper_bounds_;
};

/// Simulated binary crossover (Deb & Agrawal 1994). Two parents; each
/// variable crosses with probability \p swap_probability using the
/// polynomial spread distribution with index \p distribution_index.
class Sbx final : public Variation {
public:
    explicit Sbx(const problems::Problem& problem,
                 double distribution_index = 15.0,
                 double swap_probability = 0.5);
    std::string name() const override { return "SBX"; }
    std::size_t arity() const override { return 2; }
    void apply_into(const ParentView& parents, util::Rng& rng,
                    std::span<double> out) override;

private:
    double distribution_index_;
    double swap_probability_;
};

/// Differential evolution, DE/rand/1/bin (Storn & Price 1997). Four
/// parents: offspring starts from parents[0]; variables cross with the
/// donor parents[1] + F (parents[2] - parents[3]) with probability CR (at
/// least one variable always crosses).
class DifferentialEvolution final : public Variation {
public:
    explicit DifferentialEvolution(const problems::Problem& problem,
                                   double crossover_rate = 0.1,
                                   double step_size = 0.5);
    std::string name() const override { return "DE"; }
    std::size_t arity() const override { return 4; }
    void apply_into(const ParentView& parents, util::Rng& rng,
                    std::span<double> out) override;

private:
    double crossover_rate_;
    double step_size_;
};

/// Parent-centric crossover (Deb, Joshi, Anand 2002). Multi-parent;
/// offspring is distributed around the index parent along the direction to
/// the parent centroid (zeta) and the orthogonal parent subspace (eta).
class Pcx final : public Variation {
public:
    explicit Pcx(const problems::Problem& problem, std::size_t num_parents = 10,
                 double eta = 0.1, double zeta = 0.1);
    std::string name() const override { return "PCX"; }
    std::size_t arity() const override { return num_parents_; }
    void apply_into(const ParentView& parents, util::Rng& rng,
                    std::span<double> out) override;

private:
    std::size_t num_parents_;
    double eta_;
    double zeta_;
    // apply_into scratch (rows keep their capacity across calls).
    std::vector<double> g_, d_;
    std::vector<std::vector<double>> basis_;
};

/// Simplex crossover (Tsutsui, Yamamura, Higuchi 1999). Multi-parent;
/// offspring is sampled uniformly from the parent simplex expanded by
/// \p expansion about its centroid.
class Spx final : public Variation {
public:
    explicit Spx(const problems::Problem& problem, std::size_t num_parents = 10,
                 double expansion = 3.0);
    std::string name() const override { return "SPX"; }
    std::size_t arity() const override { return num_parents_; }
    void apply_into(const ParentView& parents, util::Rng& rng,
                    std::span<double> out) override;

private:
    std::size_t num_parents_;
    double expansion_;
    std::vector<double> g_, c_;
    std::vector<std::vector<double>> y_;
};

/// Unimodal normal distribution crossover (Kita, Ono, Kobayashi 1999),
/// multi-parent extension. The first m = arity - 1 parents span the primary
/// search subspace (spread zeta); the last parent sets the scale of the
/// orthogonal-complement component (spread eta / sqrt(m)).
class Undx final : public Variation {
public:
    explicit Undx(const problems::Problem& problem, std::size_t num_parents = 10,
                  double zeta = 0.5, double eta = 0.35);
    std::string name() const override { return "UNDX"; }
    std::size_t arity() const override { return num_parents_; }
    void apply_into(const ParentView& parents, util::Rng& rng,
                    std::span<double> out) override;

private:
    std::size_t num_parents_;
    double zeta_;
    double eta_;
    std::vector<double> g_, secondary_, z_;
    std::vector<std::vector<double>> diffs_, basis_;
};

/// Uniform mutation: each variable is redrawn uniformly from its bounds
/// with probability \p probability (Borg uses 1/L; pass 0 for that default).
class UniformMutation final : public Variation {
public:
    explicit UniformMutation(const problems::Problem& problem,
                             double probability = 0.0);
    std::string name() const override { return "UM"; }
    std::size_t arity() const override { return 1; }
    void apply_into(const ParentView& parents, util::Rng& rng,
                    std::span<double> out) override;

    double probability() const noexcept { return probability_; }

private:
    double probability_;
};

/// Polynomial mutation (Deb). Applied after each recombination operator,
/// probability 1/L per variable by default (pass 0).
class PolynomialMutation final : public Variation {
public:
    explicit PolynomialMutation(const problems::Problem& problem,
                                double distribution_index = 20.0,
                                double probability = 0.0);
    std::string name() const override { return "PM"; }
    std::size_t arity() const override { return 1; }
    void apply_into(const ParentView& parents, util::Rng& rng,
                    std::span<double> out) override;

private:
    double distribution_index_;
    double probability_;
};

/// Recombination followed by mutation of the result (e.g. SBX+PM). The
/// reported name is "<first>+<second>"; arity is the first stage's.
class CompositeVariation final : public Variation {
public:
    CompositeVariation(const problems::Problem& problem,
                       std::unique_ptr<Variation> first,
                       std::unique_ptr<Variation> second);
    std::string name() const override;
    std::size_t arity() const override { return first_->arity(); }
    void apply_into(const ParentView& parents, util::Rng& rng,
                    std::span<double> out) override;

private:
    std::unique_ptr<Variation> first_;
    std::unique_ptr<Variation> second_;
    ParentView stage2_; ///< single-span view of `out` for the mutation stage
};

/// Builds Borg's standard operator ensemble for \p problem:
/// SBX+PM, DE+PM, PCX+PM, SPX+PM, UNDX+PM, UM.
std::vector<std::unique_ptr<Variation>> make_borg_operators(
    const problems::Problem& problem);

} // namespace borg::moea

#endif
