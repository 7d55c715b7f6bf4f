#ifndef BORG_UTIL_RNG_HPP
#define BORG_UTIL_RNG_HPP

/// \file rng.hpp
/// Deterministic, seedable pseudo-random number generation.
///
/// All stochastic components of the library draw from this generator so that
/// any run — serial Borg, virtual-time parallel executor, or discrete-event
/// simulation — is exactly reproducible from a 64-bit seed, independent of
/// platform or standard-library implementation (std::normal_distribution et
/// al. are *not* used anywhere because their output is unspecified).

#include <cstdint>
#include <span>
#include <vector>

namespace borg::util {

/// xoshiro256** by Blackman & Vigna, seeded via SplitMix64.
///
/// Chosen for its 256-bit state (period 2^256 - 1), excellent statistical
/// quality, and trivially portable implementation. Satisfies the
/// std::uniform_random_bit_generator concept so it can also drive standard
/// algorithms such as std::shuffle when exact reproducibility of that step
/// does not matter.
class Rng {
public:
    using result_type = std::uint64_t;

    /// Constructs a generator from a 64-bit seed (expanded with SplitMix64).
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

    static constexpr result_type min() noexcept { return 0; }
    static constexpr result_type max() noexcept { return ~result_type{0}; }

    /// Next raw 64-bit value. Defined inline: one draw per dispatched
    /// event is the common case in the DES hot loop, and an out-of-line
    /// call costs more than the xoshiro step itself.
    result_type operator()() noexcept {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /// Uniform double in [0, 1) with 53 bits of precision.
    double uniform() noexcept {
        return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
    }

    /// Uniform double in [lo, hi).
    double uniform(double lo, double hi) noexcept {
        return lo + (hi - lo) * uniform();
    }

    /// Uniform integer in [0, n). Requires n > 0. Uses rejection sampling to
    /// avoid modulo bias.
    std::uint64_t below(std::uint64_t n) noexcept;

    /// Batched below(n): fills \p out with exactly the values out.size()
    /// consecutive below(n) calls would return, consuming the same draws.
    /// The rejection threshold is computed once and each remainder comes
    /// from a precomputed reciprocal (Lemire's fastmod) instead of a
    /// division.
    void below(std::uint64_t n, std::span<std::uint64_t> out) noexcept;

    /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
    std::int64_t between(std::int64_t lo, std::int64_t hi) noexcept;

    /// Standard normal variate (polar Marsaglia method; caches the spare).
    double gaussian() noexcept;

    /// Normal variate with the given mean and standard deviation.
    double gaussian(double mean, double stddev) noexcept;

    /// Bernoulli trial with success probability p.
    bool flip(double p) noexcept;

    /// k distinct indices drawn uniformly from [0, n) in selection order.
    /// Requires k <= n. O(k) expected time via partial Fisher-Yates on an
    /// index map when k is small relative to n.
    std::vector<std::size_t> sample_indices(std::size_t n, std::size_t k);

    /// Splits off an independently-seeded child generator. Used to give each
    /// simulated node / replicate its own stream.
    Rng split() noexcept;

    /// Complete generator state, exposed for checkpoint/restore of long
    /// runs. A restored generator continues the exact same stream.
    struct State {
        std::uint64_t words[4] = {0, 0, 0, 0};
        double spare = 0.0;
        bool has_spare = false;
    };
    State state() const noexcept;
    void set_state(const State& state) noexcept;

private:
    static std::uint64_t rotl(std::uint64_t x, int k) noexcept {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state_[4];
    double spare_ = 0.0;
    bool has_spare_ = false;
};

/// SplitMix64 step: advances \p x and returns the next output. Exposed for
/// deterministic seed-derivation schemes (seed = f(base, replicate, node)).
std::uint64_t splitmix64(std::uint64_t& x) noexcept;

/// Derives a well-mixed seed from a base seed and up to two stream indices.
std::uint64_t derive_seed(std::uint64_t base, std::uint64_t stream_a,
                          std::uint64_t stream_b = 0) noexcept;

} // namespace borg::util

#endif
