/**
 * @file
 * Unit tests for the table-driven flag parser (common/flags.h): values
 * land in their targets, argv is processed in order so an exit flag
 * exits where it appears, integer targets are bounded by their type,
 * --help is printed from the rows, and the mode check names the flag
 * and the mode.
 */
#include <gtest/gtest.h>

#include <climits>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/flags.h"

namespace cimmlc {
namespace {

struct Args {
    std::string model;
    bool verify = false;
    int threads = -1;
    std::int64_t budget = -1;
    std::int64_t flow_limit = 40;
    std::string report = "text";
    int versions = 0;
};

constexpr unsigned kOne = 1U << 0;
constexpr unsigned kTwo = 1U << 1;

FlagTable
table(Args &args)
{
    return {"prog",
            "usage: prog [flags]\n",
            {{'o', "one"}, {'w', "--two"}},
            {
                {"--help", nullptr, FlagHelp{}, "print help"},
                {"--version", nullptr, [&args] { ++args.versions; },
                 "print the version"},
                {"--model", "NAME", &args.model, "model", kOne},
                {"--verify", nullptr, &args.verify, "verify", kOne},
                {"--threads", "N", &args.threads, "threads", kTwo},
                {"--budget", "N", &args.budget, "budget"},
                {"--print-flow", "[N]", &args.flow_limit, "flow", kOne},
                {"--report", "text|json", &args.report, "format", ~0U,
                 true},
            }};
}

FlagParse
parse(const FlagTable &flags, std::vector<const char *> argv)
{
    argv.insert(argv.begin(), "prog");
    return parseFlags(flags, static_cast<int>(argv.size()), argv.data());
}

TEST(FlagParseTest, ValuesLandInTheirTargets)
{
    Args args;
    const FlagTable flags = table(args);
    const FlagParse parsed = parse(
        flags, {"--model", "mlp", "--verify", "--threads", "4", "--budget",
                "9000000000", "--report", "json"});
    ASSERT_FALSE(parsed.exit.has_value());
    EXPECT_EQ(args.model, "mlp");
    EXPECT_TRUE(args.verify);
    EXPECT_EQ(args.threads, 4);
    EXPECT_EQ(args.budget, 9000000000);
    EXPECT_EQ(args.report, "json");
    ASSERT_EQ(parsed.given.size(), 5U);
    EXPECT_STREQ(parsed.given[0]->name, "--model");
    EXPECT_TRUE(parsed.has(&args.threads));
    EXPECT_FALSE(parsed.has(&args.flow_limit));
}

TEST(FlagParseTest, UnknownFlagAndMissingValueAreUsageErrors)
{
    Args args;
    const FlagTable flags = table(args);
    EXPECT_EQ(parse(flags, {"--bogus"}).exit, 2);
    EXPECT_EQ(parse(flags, {"--model"}).exit, 2);
    // A required value is the next argument, whatever it is.
    EXPECT_FALSE(parse(flags, {"--model", "--verify"}).exit.has_value());
    EXPECT_EQ(args.model, "--verify");
    EXPECT_FALSE(args.verify);
}

TEST(FlagParseTest, IntegersAreNonNegativeAndBoundedByTheirType)
{
    Args args;
    const FlagTable flags = table(args);
    EXPECT_FALSE(parse(flags, {"--threads", "2147483647"}).exit.has_value());
    EXPECT_EQ(args.threads, INT_MAX);
    EXPECT_EQ(parse(flags, {"--threads", "2147483648"}).exit, 2);
    EXPECT_EQ(parse(flags, {"--threads", "4294967297"}).exit, 2);
    EXPECT_EQ(parse(flags, {"--threads", "-1"}).exit, 2);
    EXPECT_EQ(parse(flags, {"--threads", "3x"}).exit, 2);
    EXPECT_EQ(parse(flags, {"--threads", ""}).exit, 2);
    EXPECT_FALSE(parse(flags, {"--budget", "4294967297"}).exit.has_value());
    EXPECT_EQ(args.budget, 4294967297);
}

TEST(FlagParseTest, OptionalValueIsTakenUnlessAFlagFollows)
{
    Args args;
    const FlagTable flags = table(args);
    FlagParse parsed = parse(flags, {"--print-flow"});
    ASSERT_FALSE(parsed.exit.has_value());
    EXPECT_TRUE(parsed.has(&args.flow_limit));
    EXPECT_EQ(args.flow_limit, 40);

    parsed = parse(flags, {"--print-flow", "--verify"});
    ASSERT_FALSE(parsed.exit.has_value());
    EXPECT_EQ(args.flow_limit, 40);
    EXPECT_TRUE(args.verify);

    parsed = parse(flags, {"--print-flow", "7"});
    ASSERT_FALSE(parsed.exit.has_value());
    EXPECT_EQ(args.flow_limit, 7);
    EXPECT_EQ(parsed.given.size(), 1U);

    EXPECT_EQ(parse(flags, {"--print-flow", "abc"}).exit, 2);
}

TEST(FlagParseTest, ClosedValuesRejectOtherWords)
{
    Args args;
    const FlagTable flags = table(args);
    EXPECT_EQ(parse(flags, {"--report", "xml"}).exit, 2);
    EXPECT_EQ(parse(flags, {"--report", "tex"}).exit, 2);
    EXPECT_EQ(args.report, "text");
}

TEST(FlagParseTest, ArgvIsProcessedInOrder)
{
    Args args;
    const FlagTable flags = table(args);
    // A bad value before --version still fails...
    EXPECT_EQ(parse(flags, {"--threads", "4294967297", "--version"}).exit,
              2);
    EXPECT_EQ(parse(flags, {"--report", "xml", "--version"}).exit, 2);
    EXPECT_EQ(args.versions, 0);
    // ...and --version exits where it appears, before a bad flag.
    EXPECT_EQ(parse(flags, {"--version", "--bogus"}).exit, 0);
    EXPECT_EQ(args.versions, 1);
    EXPECT_EQ(parse(flags, {"-h", "--bogus"}).exit, 0);
}

TEST(FlagParseTest, HelpListsEveryFlagWithItsModes)
{
    Args args;
    const FlagTable flags = table(args);
    std::FILE *out = std::tmpfile();
    ASSERT_NE(out, nullptr);
    printFlagHelp(out, flags);
    std::rewind(out);
    std::string help;
    for (int c = std::fgetc(out); c != EOF; c = std::fgetc(out))
        help.push_back(static_cast<char>(c));
    EXPECT_EQ(std::fclose(out), 0);
    for (const Flag &flag : flags.flags)
        EXPECT_NE(help.find(flag.name), std::string::npos) << flag.name;
    // Each row's column marks the modes that read it.
    EXPECT_NE(help.find(" o-  model\n"), std::string::npos) << help;
    EXPECT_NE(help.find(" -w  threads\n"), std::string::npos) << help;
    EXPECT_NE(help.find(" ow  budget\n"), std::string::npos) << help;
    EXPECT_NE(help.find("--print-flow [N]"), std::string::npos);
}

TEST(FlagParseTest, ModeCheckNamesTheFlagAndTheMode)
{
    Args args;
    const FlagTable flags = table(args);
    const FlagParse parsed =
        parse(flags, {"--budget", "3", "--model", "m", "--threads", "2"});
    ASSERT_FALSE(parsed.exit.has_value());
    const Status one = checkFlagModes(flags, parsed.given, kOne);
    ASSERT_FALSE(one.isOk());
    EXPECT_EQ(one.message(), "--threads is not read by the one mode");
    const Status two = checkFlagModes(flags, parsed.given, kTwo);
    ASSERT_FALSE(two.isOk());
    EXPECT_EQ(two.message(), "--model is not read by the --two mode");
    EXPECT_TRUE(
        checkFlagModes(flags, parse(flags, {"--budget", "1"}).given, kTwo)
            .isOk());
}

} // namespace
} // namespace cimmlc
