#include "moea/operators.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/matrix.hpp"

namespace borg::moea {

namespace {

double norm(std::span<const double> v) {
    double sum = 0.0;
    for (const double x : v) sum += x * x;
    return std::sqrt(sum);
}

/// Every operator body validates its call here, before it touches \p out:
/// enough parents, all of one length, and an output row of that length.
void require_parents(const ParentView& parents, std::size_t minimum,
                     std::span<const double> out, const char* op) {
    if (parents.size() < minimum)
        throw std::invalid_argument(std::string(op) + ": needs at least " +
                                    std::to_string(minimum) + " parents");
    for (const auto& p : parents)
        if (p.size() != parents[0].size())
            throw std::invalid_argument(std::string(op) +
                                        ": parent arity mismatch");
    if (out.size() != parents[0].size())
        throw std::invalid_argument(std::string(op) +
                                    ": output size mismatch");
}

/// Centroid of the parent vectors, written into reusable scratch.
void centroid_into(const ParentView& parents, std::vector<double>& g) {
    g.assign(parents[0].size(), 0.0);
    for (const auto& parent : parents)
        for (std::size_t i = 0; i < g.size(); ++i) g[i] += parent[i];
    const auto inv = 1.0 / static_cast<double>(parents.size());
    for (double& x : g) x *= inv;
}

/// Grows a scratch matrix to >= rows of n columns without ever shrinking
/// the outer vector (shrinking would destroy rows and their capacity).
void ensure_rows(std::vector<std::vector<double>>& m, std::size_t rows,
                 std::size_t n) {
    if (m.size() < rows) m.resize(rows);
    for (std::size_t r = 0; r < rows; ++r) m[r].resize(n);
}

} // namespace

Variation::Variation(const problems::Problem& problem) {
    const std::size_t n = problem.num_variables();
    lower_bounds_.reserve(n);
    upper_bounds_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        lower_bounds_.push_back(problem.lower_bound(i));
        upper_bounds_.push_back(problem.upper_bound(i));
    }
}

void Variation::clip(std::span<double> variables) const {
    for (std::size_t i = 0; i < variables.size(); ++i)
        variables[i] =
            std::clamp(variables[i], lower_bounds_[i], upper_bounds_[i]);
}

std::vector<double> Variation::apply(const ParentView& parents,
                                     util::Rng& rng) {
    if (parents.empty()) throw std::invalid_argument(name() + ": no parents");
    std::vector<double> child(parents[0].size());
    apply_into(parents, rng, child);
    return child;
}

void Variation::produce_batch(const ParentView& parents, util::Rng& rng,
                              std::size_t count, std::span<double> out) {
    if (parents.empty())
        throw std::invalid_argument("produce_batch: no parents");
    const std::size_t n = parents[0].size();
    if (out.size() != count * n)
        throw std::invalid_argument("produce_batch: output size mismatch");
    for (std::size_t i = 0; i < count; ++i)
        apply_into(parents, rng, out.subspan(i * n, n));
}

// --------------------------------------------------------------------- SBX

Sbx::Sbx(const problems::Problem& problem, double distribution_index,
         double swap_probability)
    : Variation(problem),
      distribution_index_(distribution_index),
      swap_probability_(swap_probability) {
    if (distribution_index <= 0.0)
        throw std::invalid_argument("SBX: distribution index <= 0");
}

void Sbx::apply_into(const ParentView& parents, util::Rng& rng,
                     std::span<double> out) {
    require_parents(parents, 2, out, "SBX");
    const auto& p1 = parents[0];
    const auto& p2 = parents[1];
    std::copy(p1.begin(), p1.end(), out.begin());

    for (std::size_t i = 0; i < out.size(); ++i) {
        if (!rng.flip(swap_probability_)) continue;
        const double x1 = p1[i];
        const double x2 = p2[i];
        if (std::abs(x1 - x2) < 1e-14) continue;

        // Spread factor beta from the polynomial distribution.
        const double u = rng.uniform();
        double beta;
        if (u < 0.5)
            beta = std::pow(2.0 * u, 1.0 / (distribution_index_ + 1.0));
        else
            beta = std::pow(1.0 / (2.0 * (1.0 - u)),
                            1.0 / (distribution_index_ + 1.0));

        const double c1 = 0.5 * ((1.0 + beta) * x1 + (1.0 - beta) * x2);
        const double c2 = 0.5 * ((1.0 - beta) * x1 + (1.0 + beta) * x2);
        out[i] = rng.flip(0.5) ? c1 : c2;
    }
    clip(out);
}

// ---------------------------------------------------------------------- DE

DifferentialEvolution::DifferentialEvolution(const problems::Problem& problem,
                                             double crossover_rate,
                                             double step_size)
    : Variation(problem),
      crossover_rate_(crossover_rate),
      step_size_(step_size) {}

void DifferentialEvolution::apply_into(const ParentView& parents,
                                       util::Rng& rng, std::span<double> out) {
    require_parents(parents, 4, out, "DE");
    const auto& base = parents[0];
    const auto& a = parents[1];
    const auto& b = parents[2];
    const auto& c = parents[3];
    std::copy(base.begin(), base.end(), out.begin());

    // Binomial crossover with a guaranteed index so the child differs from
    // the base parent.
    const std::size_t forced = static_cast<std::size_t>(rng.below(out.size()));
    for (std::size_t i = 0; i < out.size(); ++i) {
        if (i == forced || rng.flip(crossover_rate_))
            out[i] = a[i] + step_size_ * (b[i] - c[i]);
    }
    clip(out);
}

// --------------------------------------------------------------------- PCX

Pcx::Pcx(const problems::Problem& problem, std::size_t num_parents, double eta,
         double zeta)
    : Variation(problem), num_parents_(num_parents), eta_(eta), zeta_(zeta) {
    if (num_parents < 2) throw std::invalid_argument("PCX: needs >= 2 parents");
}

void Pcx::apply_into(const ParentView& parents, util::Rng& rng,
                     std::span<double> out) {
    require_parents(parents, 2, out, "PCX");
    const std::size_t n = parents[0].size();
    const std::size_t k = parents.size();

    centroid_into(parents, g_);

    // Direction from the centroid to the index parent (parents[0], drawn
    // from the archive by Borg's parent selection).
    d_.resize(n);
    for (std::size_t i = 0; i < n; ++i) d_[i] = parents[0][i] - g_[i];
    const double d_norm = norm(d_);

    if (d_norm < 1e-14) {
        // Index parent coincides with the centroid (e.g. duplicated
        // parents): return it unchanged, with zero draws, and let the
        // downstream mutation supply variation.
        std::copy(parents[0].begin(), parents[0].end(), out.begin());
        return;
    }

    // Mean perpendicular distance of the other parents to the line (g, d),
    // and an orthonormal basis of their span orthogonal to d.
    ensure_rows(basis_, k, n);
    for (std::size_t i = 0; i < n; ++i) basis_[0][i] = d_[i] / d_norm;
    std::size_t rows = 1;
    double mean_perp = 0.0;
    std::size_t contributing = 0;
    for (std::size_t p = 1; p < k; ++p) {
        auto& diff = basis_[rows];
        for (std::size_t i = 0; i < n; ++i) diff[i] = parents[p][i] - g_[i];
        const double len = norm(diff);
        if (len < 1e-14) continue; // row is overwritten by the next parent
        double along = 0.0;
        for (std::size_t i = 0; i < n; ++i) along += diff[i] * basis_[0][i];
        const double perp_sq = std::max(0.0, len * len - along * along);
        mean_perp += std::sqrt(perp_sq);
        ++contributing;
        ++rows;
    }
    if (contributing > 0) mean_perp /= static_cast<double>(contributing);

    // Orthonormalize: row 0 is the d direction; the rest span the parent
    // subspace orthogonal to d (zero rows mark dependent parents).
    util::gram_schmidt(std::span<std::vector<double>>(basis_.data(), rows));

    std::copy(parents[0].begin(), parents[0].end(), out.begin());
    const double w_zeta = zeta_ * rng.gaussian();
    for (std::size_t i = 0; i < n; ++i) out[i] += w_zeta * d_[i];
    for (std::size_t j = 1; j < rows; ++j) {
        if (norm(basis_[j]) < 0.5) continue; // dependent parent, zeroed row
        const double w_eta = eta_ * mean_perp * rng.gaussian();
        for (std::size_t i = 0; i < n; ++i) out[i] += w_eta * basis_[j][i];
    }
    clip(out);
}

// --------------------------------------------------------------------- SPX

Spx::Spx(const problems::Problem& problem, std::size_t num_parents,
         double expansion)
    : Variation(problem), num_parents_(num_parents), expansion_(expansion) {
    if (num_parents < 2) throw std::invalid_argument("SPX: needs >= 2 parents");
    if (expansion <= 0.0) throw std::invalid_argument("SPX: expansion <= 0");
}

void Spx::apply_into(const ParentView& parents, util::Rng& rng,
                     std::span<double> out) {
    require_parents(parents, 2, out, "SPX");
    const std::size_t n = parents[0].size();
    const std::size_t k = parents.size();
    centroid_into(parents, g_);

    // Expanded simplex vertices y_p = g + expansion (x_p - g).
    ensure_rows(y_, k, n);
    for (std::size_t p = 0; p < k; ++p)
        for (std::size_t i = 0; i < n; ++i)
            y_[p][i] = g_[i] + expansion_ * (parents[p][i] - g_[i]);

    // Tsutsui's recursive uniform sampling over the simplex.
    c_.assign(n, 0.0);
    for (std::size_t p = 1; p < k; ++p) {
        const double r =
            std::pow(rng.uniform(), 1.0 / static_cast<double>(p + 1));
        for (std::size_t i = 0; i < n; ++i)
            c_[i] = r * (y_[p - 1][i] - y_[p][i] + c_[i]);
    }
    for (std::size_t i = 0; i < n; ++i) out[i] = y_[k - 1][i] + c_[i];
    clip(out);
}

// -------------------------------------------------------------------- UNDX

Undx::Undx(const problems::Problem& problem, std::size_t num_parents,
           double zeta, double eta)
    : Variation(problem), num_parents_(num_parents), zeta_(zeta), eta_(eta) {
    if (num_parents < 3) throw std::invalid_argument("UNDX: needs >= 3 parents");
}

void Undx::apply_into(const ParentView& parents, util::Rng& rng,
                      std::span<double> out) {
    require_parents(parents, 3, out, "UNDX");
    const std::size_t n = parents[0].size();
    const std::size_t k = parents.size();
    const std::size_t m = k - 1; // primary parents; the last is secondary

    // Centroid of the primary parents.
    g_.assign(n, 0.0);
    for (std::size_t p = 0; p < m; ++p)
        for (std::size_t i = 0; i < n; ++i) g_[i] += parents[p][i];
    for (double& x : g_) x /= static_cast<double>(m);

    // Primary difference vectors and their orthonormalized span.
    ensure_rows(diffs_, m, n);
    for (std::size_t p = 0; p < m; ++p)
        for (std::size_t i = 0; i < n; ++i)
            diffs_[p][i] = parents[p][i] - g_[i];
    ensure_rows(basis_, m, n);
    for (std::size_t p = 0; p < m; ++p)
        std::copy(diffs_[p].begin(), diffs_[p].end(), basis_[p].begin());
    util::gram_schmidt(std::span<std::vector<double>>(basis_.data(), m));

    std::copy(g_.begin(), g_.end(), out.begin());

    // Primary component: gaussian spread along each difference vector.
    for (std::size_t p = 0; p < m; ++p) {
        const double w = zeta_ * rng.gaussian();
        for (std::size_t i = 0; i < n; ++i) out[i] += w * diffs_[p][i];
    }

    // Secondary component: isotropic gaussian in the orthogonal complement
    // of the primary subspace, scaled by the secondary parent's distance.
    secondary_.resize(n);
    for (std::size_t i = 0; i < n; ++i)
        secondary_[i] = parents[k - 1][i] - g_[i];
    for (std::size_t j = 0; j < m; ++j) {
        const auto& e = basis_[j];
        if (norm(e) < 0.5) continue;
        double dot = 0.0;
        for (std::size_t i = 0; i < n; ++i) dot += secondary_[i] * e[i];
        for (std::size_t i = 0; i < n; ++i) secondary_[i] -= dot * e[i];
    }
    const double d_perp = norm(secondary_);
    if (d_perp > 1e-14) {
        z_.resize(n);
        for (double& x : z_) x = rng.gaussian();
        for (std::size_t j = 0; j < m; ++j) {
            const auto& e = basis_[j];
            if (norm(e) < 0.5) continue;
            double dot = 0.0;
            for (std::size_t i = 0; i < n; ++i) dot += z_[i] * e[i];
            for (std::size_t i = 0; i < n; ++i) z_[i] -= dot * e[i];
        }
        const double scale = eta_ * d_perp / std::sqrt(static_cast<double>(m));
        for (std::size_t i = 0; i < n; ++i) out[i] += scale * z_[i];
    }
    clip(out);
}

// ---------------------------------------------------------------------- UM

UniformMutation::UniformMutation(const problems::Problem& problem,
                                 double probability)
    : Variation(problem),
      probability_(probability > 0.0
                       ? probability
                       : 1.0 / static_cast<double>(problem.num_variables())) {}

void UniformMutation::apply_into(const ParentView& parents, util::Rng& rng,
                                 std::span<double> out) {
    require_parents(parents, 1, out, "UM");
    // The mutation stage of a composite passes out itself as the parent.
    if (out.data() != parents[0].data())
        std::copy(parents[0].begin(), parents[0].end(), out.begin());
    for (std::size_t i = 0; i < out.size(); ++i) {
        if (rng.flip(probability_))
            out[i] = rng.uniform(lower_bounds_[i], upper_bounds_[i]);
    }
}

// ---------------------------------------------------------------------- PM

PolynomialMutation::PolynomialMutation(const problems::Problem& problem,
                                       double distribution_index,
                                       double probability)
    : Variation(problem),
      distribution_index_(distribution_index),
      probability_(probability > 0.0
                       ? probability
                       : 1.0 / static_cast<double>(problem.num_variables())) {
    if (distribution_index <= 0.0)
        throw std::invalid_argument("PM: distribution index <= 0");
}

void PolynomialMutation::apply_into(const ParentView& parents, util::Rng& rng,
                                    std::span<double> out) {
    require_parents(parents, 1, out, "PM");
    if (out.data() != parents[0].data())
        std::copy(parents[0].begin(), parents[0].end(), out.begin());
    for (std::size_t i = 0; i < out.size(); ++i) {
        if (!rng.flip(probability_)) continue;
        const double lo = lower_bounds_[i];
        const double hi = upper_bounds_[i];
        const double range = hi - lo;
        if (range <= 0.0) continue;
        const double x = out[i];
        const double d1 = (x - lo) / range;
        const double d2 = (hi - x) / range;
        const double u = rng.uniform();
        const double mut_pow = 1.0 / (distribution_index_ + 1.0);
        double deltaq;
        if (u < 0.5) {
            const double xy = 1.0 - d1;
            const double val = 2.0 * u + (1.0 - 2.0 * u) *
                                             std::pow(xy, distribution_index_ + 1.0);
            deltaq = std::pow(val, mut_pow) - 1.0;
        } else {
            const double xy = 1.0 - d2;
            const double val = 2.0 * (1.0 - u) +
                               2.0 * (u - 0.5) *
                                   std::pow(xy, distribution_index_ + 1.0);
            deltaq = 1.0 - std::pow(val, mut_pow);
        }
        out[i] = x + deltaq * range;
    }
    clip(out);
}

// --------------------------------------------------------------- composite

CompositeVariation::CompositeVariation(const problems::Problem& problem,
                                       std::unique_ptr<Variation> first,
                                       std::unique_ptr<Variation> second)
    : Variation(problem), first_(std::move(first)), second_(std::move(second)) {
    if (!first_ || !second_)
        throw std::invalid_argument("composite: null stage");
}

std::string CompositeVariation::name() const {
    return first_->name() + "+" + second_->name();
}

void CompositeVariation::apply_into(const ParentView& parents, util::Rng& rng,
                                    std::span<double> out) {
    first_->apply_into(parents, rng, out);
    stage2_.resize(1);
    stage2_[0] = std::span<const double>(out.data(), out.size());
    second_->apply_into(stage2_, rng, out);
}

// ---------------------------------------------------------------- ensemble

std::vector<std::unique_ptr<Variation>> make_borg_operators(
    const problems::Problem& problem) {
    std::vector<std::unique_ptr<Variation>> ops;
    auto with_pm = [&](std::unique_ptr<Variation> crossover) {
        return std::make_unique<CompositeVariation>(
            problem, std::move(crossover),
            std::make_unique<PolynomialMutation>(problem));
    };
    ops.push_back(with_pm(std::make_unique<Sbx>(problem)));
    ops.push_back(with_pm(std::make_unique<DifferentialEvolution>(problem)));
    ops.push_back(with_pm(std::make_unique<Pcx>(problem)));
    ops.push_back(with_pm(std::make_unique<Spx>(problem)));
    ops.push_back(with_pm(std::make_unique<Undx>(problem)));
    ops.push_back(std::make_unique<UniformMutation>(problem));
    return ops;
}

} // namespace borg::moea
