#include "util/rng.hpp"

#include <cassert>
#include <cmath>
#include <numeric>

namespace borg::util {

std::uint64_t splitmix64(std::uint64_t& x) noexcept {
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t derive_seed(std::uint64_t base, std::uint64_t stream_a,
                          std::uint64_t stream_b) noexcept {
    std::uint64_t x = base;
    (void)splitmix64(x);
    x ^= 0xd1b54a32d192ed03ULL * (stream_a + 1);
    (void)splitmix64(x);
    x ^= 0x8cb92ba72f3d8dd7ULL * (stream_b + 1);
    return splitmix64(x);
}

Rng::Rng(std::uint64_t seed) noexcept {
    // SplitMix64 expansion guarantees the xoshiro state is never all-zero.
    for (auto& word : state_) word = splitmix64(seed);
}

std::uint64_t Rng::below(std::uint64_t n) noexcept {
    assert(n > 0);
    // Lemire-style rejection bound keeps the result exactly uniform.
    const std::uint64_t threshold = (0 - n) % n;
    for (;;) {
        const std::uint64_t r = (*this)();
        if (r >= threshold) return r % n;
    }
}

void Rng::below(std::uint64_t n, std::span<std::uint64_t> out) noexcept {
    assert(n > 0);
    const std::uint64_t threshold = (0 - n) % n;
    // fastmod (Lemire, Kaser & Kurz 2019): with c = ceil(2^128 / n), the
    // remainder r % n is the high word of (c * r mod 2^128) * n, exact for
    // every 64-bit r and n. For n = 1, c wraps to 0 and yields 0 = r % 1.
    using u128 = unsigned __int128;
    const u128 c = ~u128{0} / n + 1;
    // Draw from a local copy: \p out may alias *this as far as the
    // compiler knows, which would keep the state in memory.
    Rng gen = *this;
    for (std::uint64_t& value : out) {
        std::uint64_t r = gen();
        while (r < threshold) r = gen();
        const u128 low = c * r;
        const u128 top =
            static_cast<u128>(static_cast<std::uint64_t>(low >> 64)) * n;
        const u128 bottom =
            static_cast<u128>(static_cast<std::uint64_t>(low)) * n >> 64;
        value = static_cast<std::uint64_t>((top + bottom) >> 64);
    }
    *this = gen;
}

std::int64_t Rng::between(std::int64_t lo, std::int64_t hi) noexcept {
    assert(lo <= hi);
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(below(span));
}

double Rng::gaussian() noexcept {
    if (has_spare_) {
        has_spare_ = false;
        return spare_;
    }
    double u, v, s;
    do {
        u = uniform(-1.0, 1.0);
        v = uniform(-1.0, 1.0);
        s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double factor = std::sqrt(-2.0 * std::log(s) / s);
    spare_ = v * factor;
    has_spare_ = true;
    return u * factor;
}

double Rng::gaussian(double mean, double stddev) noexcept {
    return mean + stddev * gaussian();
}

bool Rng::flip(double p) noexcept { return uniform() < p; }

std::vector<std::size_t> Rng::sample_indices(std::size_t n, std::size_t k) {
    assert(k <= n);
    std::vector<std::size_t> out;
    out.reserve(k);
    if (k == 0) return out;
    if (k * 3 >= n) {
        // Dense case: partial Fisher-Yates over the full index range.
        std::vector<std::size_t> idx(n);
        std::iota(idx.begin(), idx.end(), std::size_t{0});
        for (std::size_t i = 0; i < k; ++i) {
            const std::size_t j = i + below(n - i);
            std::swap(idx[i], idx[j]);
            out.push_back(idx[i]);
        }
        return out;
    }
    // Sparse case: rejection against the already-chosen set (k << n).
    for (std::size_t i = 0; i < k; ++i) {
        for (;;) {
            const std::size_t candidate = below(n);
            bool duplicate = false;
            for (const std::size_t chosen : out) {
                if (chosen == candidate) {
                    duplicate = true;
                    break;
                }
            }
            if (!duplicate) {
                out.push_back(candidate);
                break;
            }
        }
    }
    return out;
}

Rng::State Rng::state() const noexcept {
    State s;
    for (int i = 0; i < 4; ++i) s.words[i] = state_[i];
    s.spare = spare_;
    s.has_spare = has_spare_;
    return s;
}

void Rng::set_state(const State& state) noexcept {
    for (int i = 0; i < 4; ++i) state_[i] = state.words[i];
    spare_ = state.spare;
    has_spare_ = state.has_spare;
}

Rng Rng::split() noexcept {
    std::uint64_t s = (*this)();
    (void)splitmix64(s);
    return Rng{s};
}

} // namespace borg::util
