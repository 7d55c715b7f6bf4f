#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "metrics/hypervolume.hpp"

namespace {

using borg::util::CliArgs;

CliArgs parse(std::initializer_list<const char*> args) {
    std::vector<const char*> argv{"prog"};
    argv.insert(argv.end(), args.begin(), args.end());
    return CliArgs(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, SpaceSeparatedValue) {
    const auto args = parse({"--procs", "64"});
    EXPECT_EQ(args.get_int("procs", 0), 64);
}

TEST(Cli, EqualsSeparatedValue) {
    const auto args = parse({"--tf=0.01"});
    EXPECT_DOUBLE_EQ(args.get_double("tf", 0.0), 0.01);
}

TEST(Cli, BooleanSwitch) {
    const auto args = parse({"--verbose"});
    EXPECT_TRUE(args.get_bool("verbose"));
    EXPECT_FALSE(args.get_bool("quiet"));
}

TEST(Cli, BooleanSwitchBeforeFlag) {
    const auto args = parse({"--verbose", "--procs", "8"});
    EXPECT_TRUE(args.get_bool("verbose"));
    EXPECT_EQ(args.get_int("procs", 0), 8);
}

TEST(Cli, FallbacksUsedWhenAbsent) {
    const auto args = parse({});
    EXPECT_EQ(args.get("name", "default"), "default");
    EXPECT_EQ(args.get_int("n", 42), 42);
    EXPECT_DOUBLE_EQ(args.get_double("x", 2.5), 2.5);
}

TEST(Cli, CommaSeparatedDoubles) {
    const auto args = parse({"--tf", "0.001,0.01,0.1"});
    const auto values = args.get_doubles("tf", {});
    ASSERT_EQ(values.size(), 3u);
    EXPECT_DOUBLE_EQ(values[0], 0.001);
    EXPECT_DOUBLE_EQ(values[2], 0.1);
}

TEST(Cli, CommaSeparatedInts) {
    const auto args = parse({"--procs=16,32,64"});
    const auto values = args.get_ints("procs", {});
    ASSERT_EQ(values.size(), 3u);
    EXPECT_EQ(values[1], 32);
}

TEST(Cli, HasDetectsPresence) {
    const auto args = parse({"--x", "1"});
    EXPECT_TRUE(args.has("x"));
    EXPECT_FALSE(args.has("y"));
}

TEST(Cli, RejectsNonFlagToken) {
    EXPECT_THROW(parse({"positional"}), std::invalid_argument);
}

TEST(Cli, CheckKnownAcceptsKnown) {
    const auto args = parse({"--a", "1", "--b=2"});
    EXPECT_NO_THROW(args.check_known({"a", "b", "c"}));
}

TEST(Cli, CheckKnownRejectsUnknown) {
    const auto args = parse({"--oops", "1"});
    EXPECT_THROW(args.check_known({"a", "b"}), std::invalid_argument);
}

TEST(Cli, NegativeNumberAsValue) {
    const auto args = parse({"--offset", "-5"});
    EXPECT_EQ(args.get_int("offset", 0), -5);
}

// Strict numeric parsing: a malformed value must be an error naming the
// flag, never silently truncated to its numeric prefix or to the fallback.

TEST(Cli, IntRejectsTrailingGarbage) {
    const auto args = parse({"--jobs", "4x"});
    EXPECT_THROW(args.get_int("jobs", 0), std::invalid_argument);
}

TEST(Cli, IntRejectsNonNumeric) {
    const auto args = parse({"--procs", "many"});
    EXPECT_THROW(args.get_int("procs", 0), std::invalid_argument);
}

TEST(Cli, IntRejectsEmptyValue) {
    const auto args = parse({"--jobs="});
    EXPECT_THROW(args.get_int("jobs", 0), std::invalid_argument);
}

TEST(Cli, IntRejectsFloatValue) {
    const auto args = parse({"--replicates", "2.5"});
    EXPECT_THROW(args.get_int("replicates", 0), std::invalid_argument);
}

TEST(Cli, IntRejectsOutOfRange) {
    const auto args = parse({"--jobs", "99999999999999999999999"});
    EXPECT_THROW(args.get_int("jobs", 0), std::invalid_argument);
}

TEST(Cli, IntErrorNamesTheFlag) {
    const auto args = parse({"--jobs", "4x"});
    try {
        args.get_int("jobs", 0);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("--jobs"), std::string::npos)
            << e.what();
    }
}

TEST(Cli, UintAcceptsZeroAndPositive) {
    const auto args = parse({"--jobs", "0", "--procs", "64"});
    EXPECT_EQ(args.get_uint("jobs", 1), 0);
    EXPECT_EQ(args.get_uint("procs", 1), 64);
    EXPECT_EQ(args.get_uint("absent", 7), 7);
}

TEST(Cli, UintRejectsNegative) {
    const auto args = parse({"--replicates", "-3"});
    EXPECT_THROW(args.get_uint("replicates", 0), std::invalid_argument);
    try {
        args.get_uint("replicates", 0);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("--replicates"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Cli, DoubleRejectsTrailingGarbage) {
    const auto args = parse({"--tf", "0.01abc"});
    EXPECT_THROW(args.get_double("tf", 0.0), std::invalid_argument);
}

TEST(Cli, DoubleRejectsNonNumeric) {
    const auto args = parse({"--tf", "fast"});
    EXPECT_THROW(args.get_double("tf", 0.0), std::invalid_argument);
}

TEST(Cli, DoubleAcceptsScientificNotation) {
    const auto args = parse({"--tc", "6e-6"});
    EXPECT_DOUBLE_EQ(args.get_double("tc", 0.0), 6e-6);
}

TEST(Cli, IntListRejectsGarbageElement) {
    const auto args = parse({"--procs", "16,abc,64"});
    EXPECT_THROW(args.get_ints("procs", {}), std::invalid_argument);
}

TEST(Cli, IntListRejectsEmptyElement) {
    const auto args = parse({"--procs", "16,,64"});
    EXPECT_THROW(args.get_ints("procs", {}), std::invalid_argument);
}

TEST(Cli, DoubleListRejectsGarbageElement) {
    const auto args = parse({"--tf", "0.01,0.1x"});
    EXPECT_THROW(args.get_doubles("tf", {}), std::invalid_argument);
}

// --hv-algo / --hv-mc-samples parsing shared by the sweep drivers.

TEST(CliHvConfig, Defaults) {
    const auto args = parse({});
    const auto cfg = borg::metrics::hv_config_from_cli(args);
    EXPECT_EQ(cfg.algo, borg::metrics::HvAlgo::kAuto);
    EXPECT_EQ(cfg.mc_samples, 100000u);
}

TEST(CliHvConfig, ParsesAlgoAndSamples) {
    const auto args = parse({"--hv-algo", "mc", "--hv-mc-samples", "5000"});
    const auto cfg = borg::metrics::hv_config_from_cli(args);
    EXPECT_EQ(cfg.algo, borg::metrics::HvAlgo::kMonteCarlo);
    EXPECT_EQ(cfg.mc_samples, 5000u);
}

TEST(CliHvConfig, ParsesEveryPolicyName) {
    using borg::metrics::HvAlgo;
    using borg::metrics::parse_hv_algo;
    EXPECT_EQ(parse_hv_algo("auto"), HvAlgo::kAuto);
    EXPECT_EQ(parse_hv_algo("wfg"), HvAlgo::kWfg);
    EXPECT_EQ(parse_hv_algo("mc"), HvAlgo::kMonteCarlo);
}

TEST(CliHvConfig, RejectsUnknownAlgo) {
    // "naive" was a policy once; its reference stays a plain function
    // (hypervolume_naive), not a mode a driver can select.
    for (const char* name : {"fastest", "naive"}) {
        const auto args = parse({"--hv-algo", name});
        try {
            borg::metrics::hv_config_from_cli(args);
            ADD_FAILURE() << "expected std::invalid_argument for " << name;
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find("--hv-algo"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(CliHvConfig, RejectsZeroSamples) {
    const auto args = parse({"--hv-mc-samples", "0"});
    EXPECT_THROW(borg::metrics::hv_config_from_cli(args),
                 std::invalid_argument);
}

TEST(CliHvConfig, RejectsNegativeSamples) {
    const auto args = parse({"--hv-mc-samples", "-100"});
    EXPECT_THROW(borg::metrics::hv_config_from_cli(args),
                 std::invalid_argument);
}

TEST(CliHvConfig, RejectsGarbageSamples) {
    const auto args = parse({"--hv-mc-samples", "10k"});
    EXPECT_THROW(borg::metrics::hv_config_from_cli(args),
                 std::invalid_argument);
}

TEST(CliHvConfig, CacheKeySeparatesPolicies) {
    borg::metrics::HvConfig a, b;
    b.algo = borg::metrics::HvAlgo::kMonteCarlo;
    b.mc_samples = 2000;
    EXPECT_EQ(borg::metrics::normalizer_cache_key("dtlz2_5", a),
              "dtlz2_5|auto|100000");
    EXPECT_NE(borg::metrics::normalizer_cache_key("dtlz2_5", a),
              borg::metrics::normalizer_cache_key("dtlz2_5", b));
}

} // namespace
