/**
 * @file
 * The shared bench CLI (sim/cli.hpp) and the machine-parameter table
 * it parses through (MachineBuilder::set): malformed values exit
 * naming the flag, with the same text the sweep runner reports, and
 * well-formed flags keep their meaning.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "sim/cli.hpp"
#include "sweep/runner.hpp"

namespace
{

using namespace cni;

/** cli::parse over a literal argument list (argv[0] = "test_cli"). */
cli::Options
parseArgs(std::vector<std::string> args)
{
    args.insert(args.begin(), "test_cli");
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);
    return cli::parse(int(args.size()), argv.data());
}

/** `text` as a POSIX extended regex that matches it literally. */
std::string
literal(const std::string &text)
{
    std::string re;
    for (const char c : text) {
        if (std::string("\\^$.|?*+()[]{}").find(c) != std::string::npos)
            re += '\\';
        re += c;
    }
    return re;
}

// Accepted (or misreported) before the table: 12, 4x4 and a late
// "needs at least two nodes" that never named --nodes.
const std::vector<std::pair<std::string, std::string>> kMalformed = {
    {"net-latency", "12abc"}, {"mesh-dims", "4x4junk"},
    {"nodes", "abc"},         {"window", "abc"},
    {"placement", "bogus"},
};

TEST(CliDeathTest, MalformedValueExitsNamingTheFlag)
{
    for (const auto &[name, value] : kMalformed) {
        EXPECT_EXIT(parseArgs({"--" + name, value, "--json", "none"}),
                    ::testing::ExitedWithCode(1),
                    literal("test_cli: parameter '" + name + "': got '" +
                            value + "', want "))
            << "--" << name << " " << value;
    }
}

TEST(CliDeathTest, SameMessageAsTheSweepRunner)
{
    for (const auto &[name, value] : kMalformed) {
        sweep::SweepPoint p;
        p.workload = "roundtrip";
        p.params = {{name, value}};
        std::string why;
        ASSERT_FALSE(sweep::validatePoint(p, &why)) << name;
        EXPECT_EXIT(parseArgs({"--" + name, value}),
                    ::testing::ExitedWithCode(1),
                    literal("test_cli: " + why + "\n"))
            << why;
    }
}

TEST(CliDeathTest, RegistryListingsStillExitZero)
{
    EXPECT_EXIT(parseArgs({"--ni", "list"}), ::testing::ExitedWithCode(0),
                "");
    EXPECT_EXIT(parseArgs({"--coherence", "list"}),
                ::testing::ExitedWithCode(0), "");
}

TEST(Cli, BareSnarfMeansTrue)
{
    const cli::Options o = parseArgs({"--snarf", "64", "--json", "none"});
    ASSERT_EQ(o.machine.size(), 1u);
    EXPECT_EQ(o.machine[0], (std::pair<std::string, std::string>(
                                "snarf", "true")));
    EXPECT_EQ(o.positional, std::vector<std::string>{"64"});
    EXPECT_TRUE(o.spec(MachineBuilder()).snarfing);
}

TEST(Cli, RepeatedFlagKeepsItsLastValue)
{
    const cli::Options o = parseArgs(
        {"--nodes", "3", "--window", "2", "--nodes", "5", "--window", "8",
         "--json", "none"});
    const MachineSpec s = o.spec(MachineBuilder());
    EXPECT_EQ(s.numNodes, 5);
    EXPECT_EQ(s.net.window, 8);
    EXPECT_EQ(o.netParams(), (sweep::ParamList{{"window", "8"}}));
}

TEST(Cli, ApplyNetLeavesTheNodeLevelFlagsToTheBench)
{
    const cli::Options o = parseArgs(
        {"--nodes", "4", "--ni", "CNI4", "--placement", "io", "--contexts",
         "2", "--snarf", "--net", "mesh", "--threads", "2", "--json",
         "none"});
    MachineBuilder net;
    o.applyNet(net);
    const MachineSpec defaults = MachineBuilder().spec();
    EXPECT_EQ(net.spec().numNodes, defaults.numNodes);
    EXPECT_EQ(net.spec().defaults.ni, defaults.defaults.ni);
    EXPECT_EQ(net.spec().placement, defaults.placement);
    EXPECT_EQ(net.spec().defaults.contexts, defaults.defaults.contexts);
    EXPECT_FALSE(net.spec().snarfing);
    EXPECT_EQ(net.spec().net.topology, "mesh");
    EXPECT_EQ(net.spec().threads, 2);
    EXPECT_EQ(o.netParams(),
              (sweep::ParamList{{"net", "mesh"}, {"threads", "2"}}));

    const MachineSpec all = o.spec(MachineBuilder());
    EXPECT_EQ(all.numNodes, 4);
    EXPECT_EQ(all.defaults.ni, "CNI4");
    EXPECT_EQ(all.placement, NiPlacement::IoBus);
    EXPECT_EQ(all.defaults.contexts, 2);
    EXPECT_TRUE(all.snarfing);
}

TEST(MachineParams, SetParsesEveryNameStrictly)
{
    MachineBuilder b;
    std::string why;
    EXPECT_TRUE(b.set("placement", "cache-bus", &why)) << why;
    EXPECT_TRUE(b.set("mesh-dims", "4x2", &why)) << why;
    EXPECT_TRUE(b.set("dir-hops", "3", &why)) << why;
    EXPECT_TRUE(b.set("snarf", "0", &why)) << why;
    EXPECT_EQ(b.spec().placement, NiPlacement::CacheBus);
    EXPECT_EQ(b.spec().net.meshX, 4);
    EXPECT_EQ(b.spec().net.meshY, 2);
    EXPECT_EQ(b.spec().dir.hops, 3);

    // A refused value leaves the builder as it was.
    EXPECT_FALSE(b.set("dir-hops", "5", &why));
    EXPECT_EQ(why, "parameter 'dir-hops': got '5', want 3 or 4");
    EXPECT_FALSE(b.set("mesh-dims", "4x", &why));
    EXPECT_FALSE(b.set("threads", "", &why));
    EXPECT_FALSE(b.set("net-latency", "0", &why));
    EXPECT_EQ(b.spec().dir.hops, 3);
    EXPECT_EQ(b.spec().net.meshX, 4);

    EXPECT_FALSE(MachineBuilder::hasParam("frobnicate"));
    EXPECT_FALSE(b.set("frobnicate", "1", &why));
    EXPECT_EQ(why, "unknown machine parameter 'frobnicate'");
}

} // namespace
