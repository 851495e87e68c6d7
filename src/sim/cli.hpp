/**
 * @file
 * Shared command-line parsing for bench/ and examples/ binaries, so
 * configuration sweeps never require recompilation:
 *
 *   --ni MODEL        NI model name (NiRegistry; e.g. CNI16Qm)
 *   --nodes N         machine size
 *   --contexts N      user processes per node (CNIiQ family)
 *   --placement P     memory | io | cache
 *   --snarf           enable writeback snarfing (CNI16Qm)
 *   --net MODEL       interconnect (NetRegistry): ideal|mesh|torus|xbar
 *   --coherence B     coherence backend (CoherenceRegistry):
 *                     snoop (default) | directory | dragon | hybrid
 *   --dir-entries N   sparse directory: per-home entry cap (0 = exact
 *                     full map, the default)
 *   --dir-assoc N     sparse directory set associativity (default 4)
 *   --dir-hops N      remote-miss data path: 4 = home-centric (default),
 *                     3 = the owner forwards data straight to the
 *                     requester and acks the home in parallel
 *   --hybrid-threshold N
 *                     adaptive update backend ("hybrid"): a sharer
 *                     self-invalidates after N consecutive unread
 *                     updates (default 4)
 *   --net-latency N   fabric latency in cycles (ideal/xbar transit)
 *   --link-bw N       link/port bandwidth in bytes per cycle (mesh/xbar)
 *   --window N        sliding-window depth per destination
 *   --net-retry N     congested-receiver retry interval in cycles
 *   --mesh-dims XxY   mesh/torus grid (default: near-square)
 *   --threads N       sharded simulation kernel with N host threads
 *                     (omit for the classic serial kernel; any N >= 1
 *                     is bit-identical to --threads 1)
 *   --seed S          workload-synthesis seed
 *   --json PATH       run-report output; "-" = stdout, "none" = off
 *                     (default: <binary>.report.json)
 *   --help            usage
 *
 * Passing the literal name "list" to --ni, --net, or --coherence
 * prints that registry's entries and exits 0, so users can discover
 * model names without reading source. The coherence listing includes
 * each backend's traits (medium, placements, knobs it consumes).
 *
 * Flags the user did not pass leave the binary's own defaults intact
 * (apply() only overrides what was given). parse() enables the run-
 * report sink; call emitReports() at the end of main.
 */

#ifndef CNI_SIM_CLI_HPP
#define CNI_SIM_CLI_HPP

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "coh/domain.hpp"
#include "core/machine.hpp"
#include "net/network.hpp"
#include "ni/registry.hpp"
#include "sim/logging.hpp"
#include "sim/report.hpp"

namespace cni::cli
{

struct Options
{
    std::string prog; //!< basename of argv[0]
    std::optional<std::string> ni;
    std::optional<int> nodes;
    std::optional<int> contexts;
    std::optional<std::string> placement;
    std::optional<bool> snarf;
    std::optional<std::string> net;
    std::optional<std::string> coherence;
    std::optional<int> dirEntries;
    std::optional<int> dirAssoc;
    std::optional<int> dirHops;
    std::optional<int> hybridThreshold;
    std::optional<Tick> netLatency;
    std::optional<std::size_t> linkBw;
    std::optional<int> window;
    std::optional<Tick> netRetry;
    std::optional<std::pair<int, int>> meshDims;
    std::optional<int> threads;
    std::optional<std::uint64_t> seed;
    std::string json; //!< report path; "-" stdout, "none" disabled
    std::vector<std::string> positional;

    /** Overlay the explicitly-given flags onto a machine description. */
    MachineBuilder &
    apply(MachineBuilder &b) const
    {
        if (nodes)
            b.nodes(*nodes);
        if (ni)
            b.ni(*ni);
        if (placement)
            b.placement(*placement);
        if (contexts)
            b.contexts(*contexts);
        if (snarf)
            b.snarfing(*snarf);
        return applyNet(b);
    }

    /**
     * Overlay only the interconnect + kernel flags. Benches with a
     * fixed NI/placement sweep use this so --net/--window/--threads/...
     * still work.
     */
    MachineBuilder &
    applyNet(MachineBuilder &b) const
    {
        if (net)
            b.net(*net);
        if (coherence)
            b.coherence(*coherence);
        if (dirEntries)
            b.dirEntries(*dirEntries);
        if (dirAssoc)
            b.dirAssoc(*dirAssoc);
        if (dirHops)
            b.dirHops(*dirHops);
        if (hybridThreshold)
            b.hybridThreshold(*hybridThreshold);
        if (netLatency)
            b.netLatency(*netLatency);
        if (linkBw)
            b.linkBandwidth(*linkBw);
        if (window)
            b.window(*window);
        if (netRetry)
            b.netRetry(*netRetry);
        if (meshDims)
            b.meshDims(meshDims->first, meshDims->second);
        if (threads)
            b.threads(*threads);
        return b;
    }

    std::uint64_t
    seedOr(std::uint64_t def) const
    {
        return seed ? *seed : def;
    }

    /** Write the collected run reports; call once at the end of main. */
    void
    emitReports() const
    {
        if (json == "none" || !report::enabled())
            return;
        const std::string doc = report::drain(prog);
        if (json == "-") {
            std::fputs(doc.c_str(), stdout);
            std::fputc('\n', stdout);
            return;
        }
        std::ofstream out(json);
        if (!out) {
            cni_warn("cannot write run report to %s", json.c_str());
            return;
        }
        out << doc << "\n";
    }
};

inline Options
parse(int argc, char **argv, const char *extraUsage = nullptr)
{
    Options o;
    const char *slash = std::strrchr(argv[0], '/');
    o.prog = slash ? slash + 1 : argv[0];
    o.json = o.prog + ".report.json";

    auto usage = [&](int exitCode) {
        std::printf(
            "usage: %s [--ni MODEL] [--nodes N] [--contexts N]\n"
            "       [--placement memory|io|cache] [--snarf]\n"
            "       [--net ideal|mesh|torus|xbar]\n"
            "       [--coherence snoop|directory|dragon|hybrid]\n"
            "       [--dir-entries N] [--dir-assoc N] [--dir-hops 3|4]\n"
            "       [--hybrid-threshold N] [--net-latency N]\n"
            "       [--link-bw N] [--window N] [--net-retry N]\n"
            "       [--mesh-dims XxY] [--threads N] [--seed S]\n"
            "       [--json PATH|-|none] %s\n"
            "       (--ni list, --net list, --coherence list print the\n"
            "        registered names and exit)\n",
            o.prog.c_str(), extraUsage ? extraUsage : "");
        std::exit(exitCode);
    };
    auto need = [&](int i) -> const char * {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "%s: %s needs an argument\n",
                         o.prog.c_str(), argv[i]);
            usage(1);
        }
        return argv[i + 1];
    };

    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--ni") {
            o.ni = need(i);
            ++i;
        } else if (a == "--nodes") {
            o.nodes = std::atoi(need(i));
            ++i;
        } else if (a == "--contexts") {
            o.contexts = std::atoi(need(i));
            ++i;
        } else if (a == "--placement") {
            o.placement = need(i);
            ++i;
        } else if (a == "--snarf") {
            o.snarf = true;
        } else if (a == "--net") {
            o.net = need(i);
            ++i;
        } else if (a == "--coherence") {
            o.coherence = need(i);
            ++i;
        } else if (a == "--dir-entries" || a == "--dir-assoc") {
            // Strict parse: atoi's silent 0 would mean "exact full map"
            // (or fail much later with a message that never names the
            // flag), turning a typo into a different experiment.
            const char *arg = need(i);
            char *end = nullptr;
            const long n = std::strtol(arg, &end, 10);
            if (end == arg || *end != '\0' || n < 0 ||
                n > (1 << 24)) {
                std::fprintf(stderr,
                             "%s: %s wants a non-negative integer, "
                             "got '%s'\n",
                             o.prog.c_str(), a.c_str(), arg);
                usage(1);
            }
            if (a == "--dir-entries")
                o.dirEntries = static_cast<int>(n);
            else
                o.dirAssoc = static_cast<int>(n);
            ++i;
        } else if (a == "--dir-hops") {
            // Strict parse: only 3 and 4 are protocols we implement, and
            // atoi's silent 0 (or trailing garbage) would either be
            // rejected much later with a less direct message or run a
            // different experiment.
            const char *arg = need(i);
            char *end = nullptr;
            const long n = std::strtol(arg, &end, 10);
            if (end == arg || *end != '\0' || (n != 3 && n != 4)) {
                std::fprintf(stderr,
                             "%s: --dir-hops wants 3 or 4, got '%s'\n",
                             o.prog.c_str(), arg);
                usage(1);
            }
            o.dirHops = n;
            ++i;
        } else if (a == "--hybrid-threshold") {
            // Strict parse: atoi's silent 0 would be rejected by the
            // builder with a message that never names this flag. The
            // per-line counter saturates at 255, so larger thresholds
            // could never fire.
            const char *arg = need(i);
            char *end = nullptr;
            const long n = std::strtol(arg, &end, 10);
            if (end == arg || *end != '\0' || n < 1 || n > 255) {
                std::fprintf(stderr,
                             "%s: --hybrid-threshold wants an integer "
                             "in [1, 255], got '%s'\n",
                             o.prog.c_str(), arg);
                usage(1);
            }
            o.hybridThreshold = static_cast<int>(n);
            ++i;
        } else if (a == "--net-latency") {
            o.netLatency = std::strtoull(need(i), nullptr, 10);
            ++i;
        } else if (a == "--link-bw") {
            o.linkBw = std::strtoull(need(i), nullptr, 10);
            ++i;
        } else if (a == "--window") {
            o.window = std::atoi(need(i));
            ++i;
        } else if (a == "--net-retry") {
            o.netRetry = std::strtoull(need(i), nullptr, 10);
            ++i;
        } else if (a == "--mesh-dims") {
            const char *spec = need(i);
            const char *x = std::strchr(spec, 'x');
            const int mx = x ? std::atoi(spec) : 0;
            const int my = x ? std::atoi(x + 1) : 0;
            if (mx < 1 || my < 1) {
                std::fprintf(
                    stderr,
                    "%s: --mesh-dims wants positive XxY (e.g. 4x4), "
                    "got '%s'\n",
                    o.prog.c_str(), spec);
                usage(1);
            }
            o.meshDims = {mx, my};
            ++i;
        } else if (a == "--threads") {
            // Strict parse: atoi's silent 0 would select the serial
            // kernel, making a typo look like "no speedup".
            const char *arg = need(i);
            char *end = nullptr;
            const long n = std::strtol(arg, &end, 10);
            if (end == arg || *end != '\0' || n < 0 || n > 4096) {
                std::fprintf(stderr,
                             "%s: --threads wants an integer in "
                             "[0, 4096], got '%s'\n",
                             o.prog.c_str(), arg);
                usage(1);
            }
            o.threads = static_cast<int>(n);
            ++i;
        } else if (a == "--seed") {
            o.seed = std::strtoull(need(i), nullptr, 10);
            ++i;
        } else if (a == "--json") {
            o.json = need(i);
            ++i;
        } else if (a == "--help" || a == "-h") {
            usage(0);
        } else if (a.rfind("--", 0) == 0) {
            std::fprintf(stderr, "%s: unknown flag %s\n", o.prog.c_str(),
                         a.c_str());
            usage(1);
        } else {
            o.positional.push_back(a);
        }
    }

    // Registry discovery: `--ni list`, `--net list`, `--coherence list`
    // print the registered names and exit successfully.
    auto listAndExit = [](const char *what,
                          const std::vector<std::string> &names) {
        std::printf("registered %s models:\n", what);
        for (const auto &n : names)
            std::printf("  %s\n", n.c_str());
        std::exit(0);
    };
    if (o.ni && *o.ni == "list")
        listAndExit("NI", NiRegistry::instance().names());
    if (o.net && *o.net == "list")
        listAndExit("interconnect", NetRegistry::instance().names());
    if (o.coherence && *o.coherence == "list") {
        // Richer than the generic lister: a backend's traits decide
        // which placements and knobs apply, so print them here instead
        // of making users cross-reference the source.
        std::printf("registered coherence models:\n");
        for (const auto &n : CoherenceRegistry::instance().names()) {
            const CoherenceTraits *t =
                CoherenceRegistry::instance().traits(n);
            std::printf("  %-10s %s", n.c_str(),
                        t->snooping ? "snooping bus"
                                    : "directory over fabric");
            if (t->snooping && t->maxBusAgents > 0)
                std::printf(" (<= %d agents/bus)", t->maxBusAgents);
            if (t->updateProtocol)
                std::printf(", update-based");
            if (t->adaptiveUpdate)
                std::printf(" + adaptive (--hybrid-threshold)");
            if (t->directoryGeometry)
                std::printf(", --dir-* knobs");
            std::printf("\n             placement: memory%s%s; "
                        "snarfing: %s\n",
                        t->supportsIoPlacement ? "|io" : "",
                        t->supportsCachePlacement ? "|cache" : "",
                        t->supportsSnarfing ? "yes" : "no");
        }
        std::exit(0);
    }

    // A mistyped machine-wide flag must fail loudly here: benches that
    // sweep fixed configurations (fig6/fig7) treat unbuildable combos
    // as "n/a" cells, which would otherwise swallow the typo into an
    // all-n/a table with a green exit code.
    if (o.net && !NetRegistry::instance().known(*o.net)) {
        cni_fatal("unknown interconnect '%s' (registered models: %s)",
                  o.net->c_str(),
                  NetRegistry::instance().namesCsv().c_str());
    }
    if (o.coherence && !CoherenceRegistry::instance().known(*o.coherence)) {
        cni_fatal(
            "unknown coherence backend '%s' (registered backends: %s)",
            o.coherence->c_str(),
            CoherenceRegistry::instance().namesCsv().c_str());
    }

    report::enable(o.json != "none");
    return o;
}

} // namespace cni::cli

#endif // CNI_SIM_CLI_HPP
