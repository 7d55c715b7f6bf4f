#include "stats/summary.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace borg::stats {

void Accumulator::add(double x) noexcept {
    if (n_ == 0) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
}

void Accumulator::merge(const Accumulator& other) noexcept {
    if (other.n_ == 0) return;
    if (n_ == 0) {
        *this = other;
        return;
    }
    const double na = static_cast<double>(n_);
    const double nb = static_cast<double>(other.n_);
    const double delta = other.mean_ - mean_;
    mean_ += delta * nb / (na + nb);
    m2_ += other.m2_ + delta * delta * na * nb / (na + nb);
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
    n_ += other.n_;
}

double Accumulator::variance() const noexcept {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double Accumulator::stddev() const noexcept { return std::sqrt(variance()); }

Summary summarize(std::span<const double> xs) {
    if (xs.empty()) return {};
    Accumulator acc;
    for (const double x : xs) acc.add(x);
    Summary s = to_summary(acc);
    s.median = quantile(std::vector<double>(xs.begin(), xs.end()), 0.5);
    return s;
}

Summary to_summary(const Accumulator& acc) noexcept {
    Summary s;
    s.count = acc.count();
    s.mean = acc.mean();
    s.stddev = acc.stddev();
    s.min = acc.min();
    s.max = acc.max();
    return s;
}

Summary& Summary::merge(const Summary& other) noexcept {
    if (other.count == 0) return *this;
    if (count == 0) {
        *this = other;
        return *this;
    }
    const double na = static_cast<double>(count);
    const double nb = static_cast<double>(other.count);
    const double n = na + nb;
    // Recover the centered second moments from the unbiased stddevs, Chan-
    // combine, then convert back. Exact for any partitioning.
    const double m2a = stddev * stddev * (na - 1.0);
    const double m2b = other.stddev * other.stddev * (nb - 1.0);
    const double delta = other.mean - mean;
    const double m2 = m2a + m2b + delta * delta * na * nb / n;
    median = (median * na + other.median * nb) / n;
    mean += delta * nb / n;
    stddev = n > 1.0 ? std::sqrt(m2 / (n - 1.0)) : 0.0;
    min = std::min(min, other.min);
    max = std::max(max, other.max);
    count += other.count;
    return *this;
}

Summary merge(Summary a, const Summary& b) noexcept { return a.merge(b); }

double quantile(std::vector<double> xs, double q) {
    assert(!xs.empty() && q >= 0.0 && q <= 1.0);
    std::sort(xs.begin(), xs.end());
    const double h = q * static_cast<double>(xs.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(h));
    const auto hi = static_cast<std::size_t>(std::ceil(h));
    const double frac = h - std::floor(h);
    return xs[lo] + frac * (xs[hi] - xs[lo]);
}

} // namespace borg::stats
