#include "parallel/spsc_ring.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <thread>

namespace {

using borg::parallel::bump;
using borg::parallel::RingPop;
using borg::parallel::spin_then_park;
using borg::parallel::SpscRing;

TEST(SpscRing, CapacityRoundsUpToAPowerOfTwo) {
    EXPECT_EQ(SpscRing<int>(1).capacity(), 1u);
    EXPECT_EQ(SpscRing<int>(3).capacity(), 4u);
    EXPECT_EQ(SpscRing<int>(4).capacity(), 4u);
    EXPECT_EQ(SpscRing<int>(5).capacity(), 8u);
    EXPECT_THROW(SpscRing<int>(0), std::invalid_argument);
}

TEST(SpscRing, FifoOrderAcrossManyWrapArounds) {
    // Batches of 1..4 entries through a 4-entry ring: the indices wrap
    // the slot array thousands of times at every offset.
    SpscRing<std::uint64_t> ring(4);
    std::uint64_t pushed = 0;
    std::uint64_t popped = 0;
    for (int round = 0; round < 20000; ++round) {
        const int batch = 1 + round % 4;
        for (int i = 0; i < batch; ++i) ASSERT_TRUE(ring.try_push(pushed++));
        for (int i = 0; i < batch; ++i) {
            std::uint64_t value = 0;
            ASSERT_EQ(ring.try_pop(value), RingPop::item);
            ASSERT_EQ(value, popped++);
        }
    }
    std::uint64_t value = 0;
    EXPECT_EQ(ring.try_pop(value), RingPop::empty);
    EXPECT_EQ(popped, pushed);
}

TEST(SpscRing, FullAndEmptyEdges) {
    SpscRing<int> ring(4);
    int value = -1;
    EXPECT_EQ(ring.try_pop(value), RingPop::empty);
    EXPECT_EQ(value, -1); // an empty pop leaves the output alone
    for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.try_push(i));
    EXPECT_FALSE(ring.try_push(4)); // full: refused, nothing stored
    ASSERT_EQ(ring.try_pop(value), RingPop::item);
    EXPECT_EQ(value, 0);
    EXPECT_TRUE(ring.try_push(4)); // one slot freed, one push fits
    EXPECT_FALSE(ring.try_push(5));
    for (int expected = 1; expected <= 4; ++expected) {
        ASSERT_EQ(ring.try_pop(value), RingPop::item);
        EXPECT_EQ(value, expected);
    }
    EXPECT_EQ(ring.try_pop(value), RingPop::empty);

    SpscRing<int> single(1); // capacity 1: full and empty alternate
    EXPECT_TRUE(single.try_push(7));
    EXPECT_FALSE(single.try_push(8));
    ASSERT_EQ(single.try_pop(value), RingPop::item);
    EXPECT_EQ(value, 7);
    EXPECT_EQ(single.try_pop(value), RingPop::empty);
}

TEST(SpscRing, CloseThenDrain) {
    SpscRing<int> ring(4);
    ring.try_push(1);
    ring.try_push(2);
    ring.close();
    int value = 0;
    // Entries pushed before close still pop, in order; then drained,
    // every time it is asked.
    ASSERT_EQ(ring.try_pop(value), RingPop::item);
    EXPECT_EQ(value, 1);
    ASSERT_EQ(ring.try_pop(value), RingPop::item);
    EXPECT_EQ(value, 2);
    EXPECT_EQ(ring.try_pop(value), RingPop::drained);
    EXPECT_EQ(ring.try_pop(value), RingPop::drained);

    SpscRing<int> empty(4);
    empty.close();
    EXPECT_EQ(empty.try_pop(value), RingPop::drained);
}

TEST(SpscRing, CloseWakesAParkedConsumer) {
    // The consumer parks on an empty ring; the producer pushes after a
    // delay far past the spin bound, then closes. The consumer must wake
    // for both and see the entry before it sees drained.
    SpscRing<int> ring(4);
    std::atomic<std::uint32_t> signal{0};
    std::thread producer([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        ring.try_push(42);
        bump(signal);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        ring.close();
        bump(signal);
    });
    int value = 0;
    RingPop status = RingPop::empty;
    spin_then_park(signal, [&] {
        status = ring.try_pop(value);
        return status != RingPop::empty;
    });
    EXPECT_EQ(status, RingPop::item);
    EXPECT_EQ(value, 42);
    spin_then_park(signal, [&] {
        status = ring.try_pop(value);
        return status != RingPop::empty;
    });
    EXPECT_EQ(status, RingPop::drained);
    producer.join();
}

TEST(SpscRing, TwoThreadStressDeliversEveryItemOnceInOrder) {
    // 10^6 sequence numbers through an 8-entry ring. Both sides use the
    // executor's wait: the consumer parks on `items` when the ring is
    // empty, the producer on `space` when it is full, so both the spin
    // and the park paths run under contention.
    constexpr std::uint64_t kItems = 1'000'000;
    SpscRing<std::uint64_t> ring(8);
    std::atomic<std::uint32_t> items{0};
    std::atomic<std::uint32_t> space{0};
    std::thread producer([&] {
        for (std::uint64_t seq = 0; seq < kItems; ++seq) {
            spin_then_park(space, [&] { return ring.try_push(seq); });
            bump(items);
        }
        ring.close();
        bump(items);
    });
    std::uint64_t received = 0;
    std::uint64_t out_of_order = 0;
    for (;;) {
        std::uint64_t value = 0;
        RingPop status = RingPop::empty;
        spin_then_park(items, [&] {
            status = ring.try_pop(value);
            return status != RingPop::empty;
        });
        if (status == RingPop::drained) break;
        bump(space);
        if (value != received) ++out_of_order;
        ++received;
    }
    producer.join();
    EXPECT_EQ(received, kItems);
    EXPECT_EQ(out_of_order, 0u);
}

} // namespace
