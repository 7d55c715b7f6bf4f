#ifndef BORG_PARALLEL_SPSC_RING_HPP
#define BORG_PARALLEL_SPSC_RING_HPP

/// \file spsc_ring.hpp
/// The thread executor's wire (DESIGN.md §14): a bounded single-producer/
/// single-consumer ring, and the spin-then-park wait both of its ends use.
///
/// One thread pushes and one thread pops. The producer writes the slot,
/// then publishes it by storing `tail_` with release order; the consumer
/// loads `tail_` with acquire order before it reads the slot, and frees
/// the slot by storing `head_` with release order, which the producer
/// loads with acquire order before it writes that slot again. Head and
/// tail sit on cache lines of their own, each next to its owner's cached
/// copy of the other index, so a push or a pop reads the other side's
/// line only when its copy says the ring looks full or empty.
///
/// close() is the producer's last word: what it pushed before still pops,
/// then try_pop reports `drained`.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace borg::parallel {

/// The line size that keeps the producer's and the consumer's fields
/// apart: 64 bytes on x86-64 and on most AArch64 parts.
/// std::hardware_destructive_interference_size is not used: GCC warns
/// that its value may change between compiler versions and flags.
inline constexpr std::size_t kCacheLine = 64;

/// How many times a waiter polls, a `pause` between polls, before it
/// parks on its signal. On the 4-vCPU Sapphire Rapids VM of
/// EXPERIMENTS.md a pause takes ≈ 19 ns, so 2000 of them are ≈ 40 µs:
/// well past the few µs a thread worker waits for its next task while the
/// master serves the others, and far below a scheduler tick. A sweep of
/// the bound on `thread_pop100` (EXPERIMENTS.md) found a cliff below
/// ≈ 500 pauses, where workers park between tasks and every hand-off
/// pays a futex wake, and a plateau from 500 to 20 000; 2000 keeps a 4×
/// margin over the cliff for CPUs whose pause is shorter.
inline constexpr int kSpinPauses = 2000;

/// One spin-wait hint to the CPU (x86 `pause`, AArch64 `yield`).
inline void cpu_pause() noexcept {
#if defined(__x86_64__) || defined(__i386__)
    _mm_pause();
#elif defined(__aarch64__)
    asm volatile("yield" ::: "memory");
#endif
}

/// Waits until \p poll returns true. It polls up to kSpinPauses times,
/// then parks on \p signal until a producer bumps it, and starts over.
/// The signal is read before the polls, so a bump that follows a poll
/// which missed the producer's entry makes wait() return at once: no
/// wake-up is lost. (Only 2^32 bumps between the read and the wait
/// could hide one; a producer bumps once per entry, and a waiter's rings
/// hold a handful.)
template <typename Poll>
void spin_then_park(const std::atomic<std::uint32_t>& signal, Poll&& poll) {
    for (;;) {
        const std::uint32_t seen = signal.load(std::memory_order_acquire);
        for (int spin = 0; spin < kSpinPauses; ++spin) {
            if (poll()) return;
            cpu_pause();
        }
        if (poll()) return;
        signal.wait(seen, std::memory_order_acquire);
    }
}

/// The producer's half of spin_then_park: call after publishing (a push
/// or a close). notify_one makes no system call while nobody is parked.
inline void bump(std::atomic<std::uint32_t>& signal) noexcept {
    signal.fetch_add(1, std::memory_order_release);
    signal.notify_one();
}

/// What SpscRing::try_pop found.
enum class RingPop : std::uint8_t {
    item,   ///< an entry was popped
    empty,  ///< nothing waiting; more may come
    drained ///< nothing waiting, and the producer closed the ring
};

template <typename T>
class SpscRing {
public:
    /// Room for \p capacity entries (>= 1), rounded up to a power of two.
    explicit SpscRing(std::size_t capacity) {
        if (capacity == 0)
            throw std::invalid_argument("SpscRing: capacity == 0");
        std::size_t size = 1;
        while (size < capacity) size *= 2;
        mask_ = size - 1;
        slots_ = std::make_unique<T[]>(size);
    }
    SpscRing(const SpscRing&) = delete;
    SpscRing& operator=(const SpscRing&) = delete;

    std::size_t capacity() const noexcept { return mask_ + 1; }

    /// Producer: appends \p value; false (and nothing stored) when full.
    bool try_push(const T& value) noexcept {
        const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
        if (tail - head_seen_ > mask_) {
            head_seen_ = head_.load(std::memory_order_acquire);
            if (tail - head_seen_ > mask_) return false;
        }
        slots_[tail & mask_] = value;
        tail_.store(tail + 1, std::memory_order_release);
        return true;
    }

    /// Producer: nothing more will be pushed.
    void close() noexcept { closed_.store(true, std::memory_order_release); }

    /// Consumer: moves the oldest entry into \p out.
    RingPop try_pop(T& out) noexcept {
        const std::uint64_t head = head_.load(std::memory_order_relaxed);
        if (head == tail_seen_) {
            // The flag first: once it reads closed, every push made
            // before close() shows in the tail loaded after it.
            const bool closed = closed_.load(std::memory_order_acquire);
            tail_seen_ = tail_.load(std::memory_order_acquire);
            if (head == tail_seen_)
                return closed ? RingPop::drained : RingPop::empty;
        }
        out = slots_[head & mask_];
        head_.store(head + 1, std::memory_order_release);
        return RingPop::item;
    }

private:
    // The consumer's line.
    alignas(kCacheLine) std::atomic<std::uint64_t> head_{0};
    std::uint64_t tail_seen_ = 0; ///< the consumer's copy of tail_
    // The producer's line.
    alignas(kCacheLine) std::atomic<std::uint64_t> tail_{0};
    std::uint64_t head_seen_ = 0; ///< the producer's copy of head_
    std::atomic<bool> closed_{false};
    // Read by both sides, written only by the constructor.
    alignas(kCacheLine) std::uint64_t mask_ = 0;
    std::unique_ptr<T[]> slots_;
};

} // namespace borg::parallel

#endif
