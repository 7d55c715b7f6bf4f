/// Wire-codec tests for the TCP run manager (DESIGN.md §14): exact
/// round-trips, randomized round-trips, and the adversarial surface —
/// truncation at every byte boundary, single-byte corruption sweeps, and
/// random garbage. The invariant under attack: malformed bytes always
/// produce a typed ProtocolError (or a successful decode of *some*
/// well-formed message), never UB — this suite runs under ASan/UBSan in CI.

#include "net/wire.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <variant>
#include <vector>

namespace {

using namespace borg::net;

// Bitwise double equality (NaN payloads and signed zeros must survive the
// wire exactly — the codec moves bit patterns, not values).
bool same_bits(double a, double b) {
    std::uint64_t ua = 0, ub = 0;
    std::memcpy(&ua, &a, 8);
    std::memcpy(&ub, &b, 8);
    return ua == ub;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (!same_bits(a[i], b[i])) return false;
    return true;
}

void expect_equal(const Message& a, const Message& b) {
    ASSERT_EQ(a.index(), b.index());
    if (const auto* x = std::get_if<Hello>(&a)) {
        const auto& y = std::get<Hello>(b);
        EXPECT_EQ(x->connect_attempts, y.connect_attempts);
        EXPECT_EQ(x->pid, y.pid);
        EXPECT_EQ(x->run_token, y.run_token);
        EXPECT_EQ(x->num_variables, y.num_variables);
        EXPECT_EQ(x->num_objectives, y.num_objectives);
        EXPECT_EQ(x->num_constraints, y.num_constraints);
        EXPECT_EQ(x->problem, y.problem);
        EXPECT_EQ(x->worker_name, y.worker_name);
    } else if (const auto* x = std::get_if<HelloAck>(&a)) {
        const auto& y = std::get<HelloAck>(b);
        EXPECT_EQ(x->accepted, y.accepted);
        EXPECT_EQ(x->worker_id, y.worker_id);
        EXPECT_EQ(x->heartbeat_interval_ms, y.heartbeat_interval_ms);
        EXPECT_EQ(x->reason, y.reason);
    } else if (const auto* x = std::get_if<Task>(&a)) {
        const auto& y = std::get<Task>(b);
        EXPECT_EQ(x->seq, y.seq);
        EXPECT_TRUE(same_bits(x->variables, y.variables));
    } else if (const auto* x = std::get_if<Result>(&a)) {
        const auto& y = std::get<Result>(b);
        EXPECT_EQ(x->seq, y.seq);
        EXPECT_EQ(x->worker_id, y.worker_id);
        EXPECT_TRUE(same_bits(x->eval_seconds, y.eval_seconds));
        EXPECT_EQ(x->sent_at_ns, y.sent_at_ns);
        EXPECT_TRUE(same_bits(x->objectives, y.objectives));
        EXPECT_TRUE(same_bits(x->constraints, y.constraints));
    } else if (const auto* x = std::get_if<Heartbeat>(&a)) {
        const auto& y = std::get<Heartbeat>(b);
        EXPECT_EQ(x->worker_id, y.worker_id);
        EXPECT_EQ(x->results_done, y.results_done);
    } else if (const auto* x = std::get_if<Goodbye>(&a)) {
        EXPECT_EQ(x->worker_id, std::get<Goodbye>(b).worker_id);
    }
    // Shutdown carries nothing.
}

std::string random_string(std::mt19937_64& rng, std::size_t max_len) {
    std::uniform_int_distribution<std::size_t> len(0, max_len);
    std::uniform_int_distribution<int> byte(0, 255);
    std::string s(len(rng), '\0');
    for (char& c : s) c = static_cast<char>(byte(rng));
    return s;
}

std::vector<double> random_doubles(std::mt19937_64& rng,
                                   std::size_t max_len) {
    // Adversarial values on purpose: infinities, NaNs, denormals, signed
    // zero — everything IEEE can hold must cross the wire bit-exact.
    static const double specials[] = {
        0.0,
        -0.0,
        1.0,
        -1e308,
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::epsilon(),
    };
    std::uniform_int_distribution<std::size_t> len(0, max_len);
    std::uniform_int_distribution<std::size_t> pick(0, std::size(specials));
    std::uniform_real_distribution<double> real(-1e6, 1e6);
    std::vector<double> v(len(rng));
    for (double& d : v) {
        const std::size_t k = pick(rng);
        d = k < std::size(specials) ? specials[k] : real(rng);
    }
    return v;
}

Message random_message(std::mt19937_64& rng) {
    std::uniform_int_distribution<int> which(0, 6);
    std::uniform_int_distribution<std::uint64_t> u64v;
    std::uniform_int_distribution<std::uint32_t> u32v;
    switch (which(rng)) {
    case 0:
        return Hello{u32v(rng), u64v(rng), u64v(rng), u32v(rng), u32v(rng),
                     u32v(rng), random_string(rng, 64),
                     random_string(rng, 64)};
    case 1:
        return HelloAck{(u32v(rng) & 1) == 1, u32v(rng), u32v(rng),
                        random_string(rng, 64)};
    case 2: return Task{u64v(rng), random_doubles(rng, 32)};
    case 3: {
        Result r;
        r.seq = u64v(rng);
        r.worker_id = u32v(rng);
        const std::vector<double> eval = random_doubles(rng, 1);
        r.eval_seconds = eval.empty() ? 0.0 : eval[0];
        r.sent_at_ns = u64v(rng);
        r.objectives = random_doubles(rng, 16);
        r.constraints = random_doubles(rng, 8);
        return r;
    }
    case 4: return Heartbeat{u32v(rng), u64v(rng)};
    case 5: return Goodbye{u32v(rng)};
    default: return Shutdown{};
    }
}

WireError code_of(const std::vector<std::uint8_t>& frame) {
    try {
        (void)decode_frame(frame);
    } catch (const ProtocolError& error) {
        return error.code();
    }
    ADD_FAILURE() << "decode_frame unexpectedly succeeded";
    return WireError::bad_payload;
}

// --------------------------------------------------------------- round-trip

TEST(NetProtocol, RoundTripsEveryMessageType) {
    const Message messages[] = {
        Hello{3, 4242, 0xfeedbeefcafe1234ull, 11, 2, 1, "zdt1", "worker-a"},
        HelloAck{true, 7, 250, ""},
        HelloAck{false, 0, 0, "problem mismatch"},
        Task{99, {0.25, -1.5, 3.0}},
        Result{99, 7, 0.0125, 123456789, {1.0, 2.0}, {0.0}},
        Heartbeat{7, 42},
        Goodbye{7},
        Shutdown{},
    };
    for (const Message& m : messages) {
        const std::vector<std::uint8_t> frame = encode_frame(m);
        ASSERT_GE(frame.size(), kHeaderBytes);
        expect_equal(m, decode_frame(frame));
    }
}

TEST(NetProtocol, RandomizedRoundTrips) {
    std::mt19937_64 rng(20260809);
    for (int i = 0; i < 500; ++i) {
        const Message m = random_message(rng);
        expect_equal(m, decode_frame(encode_frame(m)));
    }
}

// ------------------------------------------------------------- malformation

TEST(NetProtocol, EveryTruncationIsATypedError) {
    const Message m = Result{5, 2, 0.5, 99, {1.0, 2.0, 3.0}, {0.25}};
    const std::vector<std::uint8_t> frame = encode_frame(m);
    for (std::size_t len = 0; len < frame.size(); ++len) {
        const std::span<const std::uint8_t> prefix(frame.data(), len);
        try {
            (void)decode_frame(prefix);
            FAIL() << "truncation to " << len << " bytes decoded";
        } catch (const ProtocolError& error) {
            EXPECT_EQ(error.code(), WireError::truncated) << "at " << len;
        }
    }
}

TEST(NetProtocol, TrailingBytesRejected) {
    std::vector<std::uint8_t> frame = encode_frame(Heartbeat{1, 2});
    frame.push_back(0xAB);
    EXPECT_EQ(code_of(frame), WireError::trailing_bytes);
}

TEST(NetProtocol, HeaderFieldCorruptionsHaveSpecificCodes) {
    const std::vector<std::uint8_t> good = encode_frame(Goodbye{9});

    auto corrupt = good;
    corrupt[0] ^= 0xFF; // magic
    EXPECT_EQ(code_of(corrupt), WireError::bad_magic);

    corrupt = good;
    corrupt[4] = static_cast<std::uint8_t>(kProtocolVersion + 1); // version
    EXPECT_EQ(code_of(corrupt), WireError::version_skew);

    corrupt = good;
    corrupt[6] = 0; // type below range
    EXPECT_EQ(code_of(corrupt), WireError::bad_type);
    corrupt[6] = 200; // type above range
    EXPECT_EQ(code_of(corrupt), WireError::bad_type);

    corrupt = good;
    corrupt[11] = 0xFF; // length beyond kMaxPayload (0xFF000000 > 1<<24)
    EXPECT_EQ(code_of(corrupt), WireError::oversize);
}

TEST(NetProtocol, PayloadLengthFieldLiesAreTypedErrors) {
    // Understate the payload length: the declared frame ends early, so
    // the remainder reads as trailing bytes of this frame.
    std::vector<std::uint8_t> frame = encode_frame(Heartbeat{1, 2});
    frame[8] = static_cast<std::uint8_t>(frame[8] - 1);
    EXPECT_EQ(code_of(frame), WireError::trailing_bytes);

    // Overstate it: the buffer is shorter than declared.
    frame = encode_frame(Heartbeat{1, 2});
    frame[8] = static_cast<std::uint8_t>(frame[8] + 1);
    EXPECT_EQ(code_of(frame), WireError::truncated);
}

TEST(NetProtocol, OversizeInnerFieldsRejected) {
    // A string length field claiming more than kMaxString inside an
    // otherwise plausible payload must be bad_payload, not an allocation.
    std::vector<std::uint8_t> frame =
        encode_frame(Hello{1, 2, 9, 3, 4, 5, "abc", "d"});
    // The problem-string length field sits 32 bytes into the payload
    // (u32 + 2 * u64 + 3 * u32); set it to kMaxString + 1.
    const std::size_t at = kHeaderBytes + 32;
    const std::uint32_t evil = kMaxString + 1;
    for (int i = 0; i < 4; ++i)
        frame[at + static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(evil >> (8 * i));
    EXPECT_EQ(code_of(frame), WireError::bad_payload);
}

TEST(NetProtocol, SingleByteCorruptionSweepNeverEscapesTypedErrors) {
    // Flip every byte of every message type (all 256 - 1 alternatives
    // would be slow; one flip per position suffices for coverage). The
    // decode must either succeed (the flip landed in a value byte) or
    // throw ProtocolError — anything else (crash, UB, std::bad_alloc from
    // a huge length) fails the suite.
    std::mt19937_64 rng(7);
    const Message messages[] = {
        Hello{1, 2, 9, 3, 4, 5, "zdt1", "w"},
        HelloAck{true, 1, 250, ""},
        Task{1, {1.0, 2.0}},
        Result{1, 1, 0.5, 10, {1.0}, {}},
        Heartbeat{1, 2},
        Goodbye{1},
        Shutdown{},
    };
    std::uniform_int_distribution<int> bit(0, 7);
    for (const Message& m : messages) {
        const std::vector<std::uint8_t> good = encode_frame(m);
        for (std::size_t i = 0; i < good.size(); ++i) {
            std::vector<std::uint8_t> frame = good;
            frame[i] ^= static_cast<std::uint8_t>(1u << bit(rng));
            try {
                (void)decode_frame(frame);
            } catch (const ProtocolError&) {
                // typed rejection: fine
            }
        }
    }
}

TEST(NetProtocol, RandomGarbageNeverEscapesTypedErrors) {
    std::mt19937_64 rng(99);
    std::uniform_int_distribution<int> byte(0, 255);
    std::uniform_int_distribution<std::size_t> len(0, 256);
    for (int i = 0; i < 2000; ++i) {
        std::vector<std::uint8_t> garbage(len(rng));
        for (auto& b : garbage) b = static_cast<std::uint8_t>(byte(rng));
        try {
            (void)decode_frame(garbage);
        } catch (const ProtocolError&) {
        }
    }
}

// -------------------------------------------------------------- FrameReader

TEST(NetFrameReader, ReassemblesAcrossArbitrarySplits) {
    std::mt19937_64 rng(20260810);
    for (int round = 0; round < 50; ++round) {
        std::vector<Message> sent;
        std::vector<std::uint8_t> stream;
        const int count = 1 + static_cast<int>(rng() % 8);
        for (int i = 0; i < count; ++i) {
            sent.push_back(random_message(rng));
            const auto frame = encode_frame(sent.back());
            stream.insert(stream.end(), frame.begin(), frame.end());
        }

        FrameReader reader;
        std::vector<Message> got;
        std::size_t at = 0;
        std::uniform_int_distribution<std::size_t> chunk(1, 13);
        while (at < stream.size()) {
            const std::size_t n = std::min(chunk(rng), stream.size() - at);
            reader.feed({stream.data() + at, n});
            at += n;
            while (auto m = reader.next()) got.push_back(std::move(*m));
        }
        ASSERT_EQ(got.size(), sent.size());
        for (std::size_t i = 0; i < sent.size(); ++i)
            expect_equal(sent[i], got[i]);
        EXPECT_EQ(reader.pending(), 0u);
    }
}

TEST(NetFrameReader, ByteAtATimeDelivery) {
    const Message m = Task{42, {1.0, -0.0, 3.5}};
    const std::vector<std::uint8_t> frame = encode_frame(m);
    FrameReader reader;
    for (std::size_t i = 0; i + 1 < frame.size(); ++i) {
        reader.feed({frame.data() + i, 1});
        EXPECT_FALSE(reader.next().has_value()) << "completed early at " << i;
    }
    reader.feed({frame.data() + frame.size() - 1, 1});
    const auto got = reader.next();
    ASSERT_TRUE(got.has_value());
    expect_equal(m, *got);
    EXPECT_EQ(reader.pending(), 0u);
}

TEST(NetFrameReader, ShortStreamIsWaitNotError) {
    FrameReader reader;
    const std::vector<std::uint8_t> frame = encode_frame(Heartbeat{1, 5});
    reader.feed({frame.data(), 5}); // less than a header
    EXPECT_FALSE(reader.next().has_value());
    EXPECT_EQ(reader.pending(), 5u); // peer-died-mid-frame diagnostic
}

TEST(NetFrameReader, MalformedStreamThrowsAtFirstCompleteHeader) {
    FrameReader reader;
    std::vector<std::uint8_t> frame = encode_frame(Heartbeat{1, 5});
    frame[1] ^= 0x40; // corrupt magic
    reader.feed(frame);
    EXPECT_THROW((void)reader.next(), ProtocolError);
}

TEST(NetFrameReader, LongLivedStreamCompactsAndSurvives) {
    // Push enough traffic through one reader to cross the compaction
    // threshold several times; every message must still come out intact.
    std::mt19937_64 rng(5);
    FrameReader reader;
    std::size_t delivered = 0;
    for (int i = 0; i < 2000; ++i) {
        const Message m = random_message(rng);
        const auto frame = encode_frame(m);
        reader.feed(frame);
        while (auto got = reader.next()) {
            ++delivered;
            (void)*got;
        }
    }
    EXPECT_EQ(delivered, 2000u);
    EXPECT_EQ(reader.pending(), 0u);
}

// ---------------------------------------------- allocation-free variants
//
// The hot-path codec entry points (encode into a reused outbox, borrow a
// variables span, decode into a reused Result) must be byte-for-byte
// interchangeable with the allocating originals — the TCP byte-identity
// suite depends on the master being free to switch between them.

TEST(NetHotPath, EncodeFrameIntoMatchesEncodeFrame) {
    std::mt19937_64 rng(11);
    std::vector<std::uint8_t> out;
    for (int i = 0; i < 200; ++i) {
        const Message m = random_message(rng);
        out.clear();
        encode_frame_into(m, out);
        EXPECT_EQ(out, encode_frame(m)) << "message " << i;
    }
}

TEST(NetHotPath, EncodeFrameIntoAppendsWithoutDisturbingPrefix) {
    const Message a = Heartbeat{7, 9};
    const Message b = Task{3, {0.5, -0.25}};
    std::vector<std::uint8_t> out;
    encode_frame_into(a, out);
    const std::size_t split = out.size();
    encode_frame_into(b, out);
    const auto first = encode_frame(a);
    const auto second = encode_frame(b);
    ASSERT_EQ(out.size(), first.size() + second.size());
    EXPECT_TRUE(std::equal(out.begin(), out.begin() + split, first.begin()));
    EXPECT_TRUE(std::equal(out.begin() + split, out.end(), second.begin()));
}

TEST(NetHotPath, EncodeTaskFrameIntoMatchesOwningTask) {
    std::mt19937_64 rng(12);
    std::vector<std::uint8_t> out;
    for (int i = 0; i < 100; ++i) {
        const std::vector<double> variables = random_doubles(rng, 32);
        const std::uint64_t seq = rng();
        out.clear();
        encode_task_frame_into(seq, variables, out);
        EXPECT_EQ(out, encode_frame(Task{seq, variables})) << "task " << i;
    }
}

TEST(NetHotPath, DecodeResultFrameRoundTripsAndReusesCapacity) {
    Result original;
    original.seq = 42;
    original.worker_id = 3;
    original.eval_seconds = 0.125;
    original.sent_at_ns = 987654321;
    original.objectives = {1.0, -2.5};
    original.constraints = {0.75};
    const auto frame = encode_frame(original);

    Result scratch;
    scratch.objectives.reserve(16);
    scratch.constraints.reserve(16);
    const double* obj_buf = scratch.objectives.data();
    for (int i = 0; i < 3; ++i) {
        ASSERT_TRUE(decode_result_frame(frame, scratch));
        EXPECT_EQ(scratch.seq, original.seq);
        EXPECT_EQ(scratch.worker_id, original.worker_id);
        EXPECT_EQ(scratch.objectives, original.objectives);
        EXPECT_EQ(scratch.constraints, original.constraints);
        // Capacity reuse: the buffer reserved up front never reallocates.
        EXPECT_EQ(scratch.objectives.data(), obj_buf);
    }
}

TEST(NetHotPath, DecodeResultFrameLeavesNonResultsUntouched) {
    Result scratch;
    scratch.seq = 77;
    EXPECT_FALSE(
        decode_result_frame(encode_frame(Heartbeat{1, 2}), scratch));
    EXPECT_EQ(scratch.seq, 77u); // untouched on the false path
    // Malformed bytes still throw, same as decode_frame.
    auto frame = encode_frame(Message(Result{}));
    frame.pop_back();
    EXPECT_THROW((void)decode_result_frame(frame, scratch), ProtocolError);
}

TEST(NetHotPath, NextFrameYieldsRawFramesEquivalentToNext) {
    std::mt19937_64 rng(13);
    FrameReader raw_reader, decoded_reader;
    for (int i = 0; i < 300; ++i) {
        const Message m = random_message(rng);
        const auto frame = encode_frame(m);
        raw_reader.feed(frame);
        decoded_reader.feed(frame);
        const auto raw = raw_reader.next_frame();
        ASSERT_TRUE(raw.has_value());
        EXPECT_TRUE(std::equal(raw->begin(), raw->end(), frame.begin(),
                               frame.end()));
        // The raw frame decodes to the same message next() yields.
        EXPECT_EQ(type_of(decode_frame(*raw)),
                  type_of(*decoded_reader.next()));
        EXPECT_FALSE(raw_reader.next_frame().has_value());
    }
    EXPECT_EQ(raw_reader.pending(), 0u);
}

TEST(NetHotPath, NextFrameWaitsOnShortStream) {
    const auto frame = encode_frame(Message(Heartbeat{5, 6}));
    FrameReader reader;
    reader.feed({frame.data(), frame.size() - 1});
    EXPECT_FALSE(reader.next_frame().has_value());
    reader.feed({frame.data() + frame.size() - 1, 1});
    const auto got = reader.next_frame();
    ASSERT_TRUE(got.has_value());
    EXPECT_TRUE(
        std::equal(got->begin(), got->end(), frame.begin(), frame.end()));
}

} // namespace
