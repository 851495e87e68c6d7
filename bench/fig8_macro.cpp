/**
 * @file
 * Figure 8: macrobenchmark speedups of the five NIs on the memory, I/O,
 * and cache buses, normalized to NI2w on the memory bus; plus the
 * Section 5.2 memory-bus occupancy comparison (CQ-based CNIs cut
 * occupancy by up to 66% on average, CNI4 by 23%).
 *
 * Per-run config+stats land in fig8_macro.report.json (see --json);
 * --seed overrides the workload-synthesis seeds, --nodes the machine
 * size.
 */

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "apps/apps.hpp"
#include "sim/cli.hpp"
#include "sim/logging.hpp"

using namespace cni;

namespace
{

struct Cell
{
    Tick ticks = 0;
    Tick busOccupied = 0;
};

using Row = std::map<std::string, Cell>; // config label -> result

cli::Options g_opts;
int g_nodes = 0; //!< --nodes, else the builder's default

Cell
run(const std::string &app, const std::string &ni, NiPlacement p)
{
    MachineBuilder b =
        Machine::describe().nodes(g_nodes).ni(ni).placement(p);
    // Shared net/coherence/kernel flags apply to every cell of the
    // sweep; combinations the selected flags cannot build (e.g. I/O-bus
    // placements under --coherence directory) report zeros.
    g_opts.applyNet(b);
    if (!b.valid())
        return Cell{};
    AppResult r = runMacrobenchmark(app, b.spec(), g_opts.seedOr(0));
    return Cell{r.ticks, r.memBusOccupied};
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    g_opts = cli::parse(argc, argv,
                        "(fixed NI/placement sweep: --nodes, --seed, "
                        "--json and the shared net/coherence/kernel "
                        "flags are honored)");
    g_nodes = g_opts.spec(Machine::describe()).numNodes;
    // Whole-sweep gate (as in fig6/fig7): the NI2w/mem baseline every
    // ratio divides by must be buildable, else fatal with the
    // builder's message instead of a table of zeros and NaNs.
    {
        MachineBuilder probe = Machine::describe()
                                   .nodes(g_nodes)
                                   .ni("NI2w")
                                   .placement(NiPlacement::MemoryBus);
        g_opts.applyNet(probe);
        std::string why;
        if (!probe.valid(&why))
            cni_fatal("invalid flags: %s", why.c_str());
    }
    const auto &apps = macrobenchmarkNames();

    std::map<std::string, Row> results;
    for (const auto &app : apps) {
        Row &row = results[app];
        for (const char *m :
             {"NI2w", "CNI4", "CNI16Q", "CNI512Q", "CNI16Qm"}) {
            row[std::string(m) + "/mem"] =
                run(app, m, NiPlacement::MemoryBus);
        }
        for (const char *m : {"NI2w", "CNI4", "CNI16Q", "CNI512Q"}) {
            row[std::string(m) + "/io"] = run(app, m, NiPlacement::IoBus);
        }
        row["NI2w/cache"] = run(app, "NI2w", NiPlacement::CacheBus);
        std::fprintf(stderr, "  [%s done]\n", app.c_str());
    }

    auto speedup = [&](const std::string &app, const std::string &label) {
        const double base =
            static_cast<double>(results[app].at("NI2w/mem").ticks);
        const Tick ticks = results[app].at(label).ticks;
        return ticks == 0 ? 0.0 : base / ticks; // 0.00 = n/a combination
    };

    std::printf("Figure 8: speedup over NI2w on the memory bus\n");
    std::printf("\n(a) memory bus\n%-10s", "app");
    for (const char *m : {"NI2w", "CNI4", "CNI16Q", "CNI512Q", "CNI16Qm"})
        std::printf("%10s", m);
    std::printf("\n");
    for (const auto &app : apps) {
        std::printf("%-10s", app.c_str());
        for (const char *m :
             {"NI2w", "CNI4", "CNI16Q", "CNI512Q", "CNI16Qm"}) {
            std::printf("%10.2f", speedup(app, std::string(m) + "/mem"));
        }
        std::printf("\n");
    }

    std::printf("\n(b) I/O bus\n%-10s", "app");
    for (const char *m : {"NI2w", "CNI4", "CNI16Q", "CNI512Q"})
        std::printf("%10s", m);
    std::printf("\n");
    for (const auto &app : apps) {
        std::printf("%-10s", app.c_str());
        for (const char *m : {"NI2w", "CNI4", "CNI16Q", "CNI512Q"})
            std::printf("%10.2f", speedup(app, std::string(m) + "/io"));
        std::printf("\n");
    }

    std::printf("\n(c) alternate buses\n%-10s%12s%16s%14s\n", "app",
                "NI2w/cache", "CNI16Qm/mem", "CNI512Q/io");
    for (const auto &app : apps) {
        std::printf("%-10s%12.2f%16.2f%14.2f\n", app.c_str(),
                    speedup(app, "NI2w/cache"),
                    speedup(app, "CNI16Qm/mem"),
                    speedup(app, "CNI512Q/io"));
    }

    // Section 5.2: memory-bus occupancy reduction on the memory bus.
    std::printf("\nSection 5.2: memory-bus occupancy vs NI2w (memory bus)\n");
    std::printf("%-10s%10s%12s\n", "app", "CNI4", "best CQ-CNI");
    double cni4Avg = 0, cqAvg = 0;
    for (const auto &app : apps) {
        const double base = static_cast<double>(
            results[app].at("NI2w/mem").busOccupied);
        if (base == 0) {
            std::printf("%-10s%10s%12s\n", app.c_str(), "n/a", "n/a");
            continue;
        }
        const double cni4 =
            results[app].at("CNI4/mem").busOccupied / base;
        double bestCq = 1e9;
        for (const char *m : {"CNI16Q", "CNI512Q", "CNI16Qm"}) {
            bestCq = std::min(
                bestCq, results[app].at(std::string(m) + "/mem").busOccupied /
                            base);
        }
        std::printf("%-10s%9.0f%%%11.0f%%\n", app.c_str(),
                    100.0 * (1.0 - cni4), 100.0 * (1.0 - bestCq));
        cni4Avg += 1.0 - cni4;
        cqAvg += 1.0 - bestCq;
    }
    std::printf("%-10s%9.0f%%%11.0f%%   (paper: 23%% and up to 66%%)\n",
                "average", 100.0 * cni4Avg / apps.size(),
                100.0 * cqAvg / apps.size());

    // Headline: best-on-each-bus improvement ranges.
    std::printf("\nheadline: CNI16Qm/mem improvement over NI2w/mem "
                "(paper: 17-53%%)\n");
    for (const auto &app : apps) {
        std::printf("  %-10s %+5.0f%%\n", app.c_str(),
                    100.0 * (speedup(app, "CNI16Qm/mem") - 1.0));
    }
    std::printf("headline: CNI512Q/io improvement over NI2w/io "
                "(paper: 30-88%%)\n");
    for (const auto &app : apps) {
        const Tick base = results[app].at("NI2w/io").ticks;
        const Tick cni = results[app].at("CNI512Q/io").ticks;
        if (base == 0 || cni == 0) {
            // I/O-bus placements were not buildable under the selected
            // flags (e.g. --coherence directory).
            std::printf("  %-10s %5s\n", app.c_str(), "n/a");
            continue;
        }
        const double s = static_cast<double>(base) / cni;
        std::printf("  %-10s %+5.0f%%\n", app.c_str(), 100.0 * (s - 1.0));
    }
    g_opts.emitReports();
    return 0;
}
