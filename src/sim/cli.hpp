/**
 * @file
 * Shared command-line parsing for bench/ and examples/ binaries, so
 * configuration sweeps never require recompilation.
 *
 * Machine flags are `--<name> <value>` for every machine-parameter
 * name MachineBuilder::set() knows (nodes, ni, placement, net,
 * coherence, dir-*, threads, ...; see its table in core/machine.cpp
 * for the names and ranges); the bare `--snarf` means snarf=true.
 * Besides those: `--seed S` (workload-synthesis seed), `--json
 * PATH|-|none` (run-report output; default <binary>.report.json) and
 * `--help`. A malformed value is rejected here with the table's
 * message, which names the parameter.
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
#include "sweep/spec.hpp"

namespace cni::cli
{

struct Options
{
    std::string prog; //!< basename of argv[0]
    std::optional<std::uint64_t> seed;
    std::string json; //!< report path; "-" stdout, "none" disabled
    std::vector<std::string> positional;
    /** The machine flags as given, in order; a repeat wins on replay. */
    sweep::ParamList machine;

    /** Overlay the given machine flags onto a machine description. */
    MachineBuilder &
    apply(MachineBuilder &b) const
    {
        return replay(b, true);
    }

    /**
     * Overlay all but the node-level flags (nodes, ni, placement,
     * contexts, snarf). Benches with a fixed NI/placement sweep use
     * this so --net/--window/--threads/... still work.
     */
    MachineBuilder &
    applyNet(MachineBuilder &b) const
    {
        return replay(b, false);
    }

    /** The bench's defaults in `b`, overlaid with every given flag. */
    MachineSpec
    spec(MachineBuilder b) const
    {
        return apply(b).spec();
    }

    /** The applyNet() subset as sweep parameters, one binding each. */
    sweep::ParamList
    netParams() const
    {
        sweep::ParamList p;
        for (const auto &[name, value] : machine) {
            if (!nodeLevel(name))
                sweep::bindParam(&p, name, value);
        }
        return p;
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

  private:
    /** The flags applyNet() leaves to the bench. */
    static bool
    nodeLevel(const std::string &name)
    {
        return name == "nodes" || name == "ni" || name == "placement" ||
               name == "contexts" || name == "snarf";
    }

    MachineBuilder &
    replay(MachineBuilder &b, bool nodeFlags) const
    {
        for (const auto &[name, value] : machine) {
            if (nodeFlags || !nodeLevel(name)) {
                // parse() accepted every value; set() cannot refuse it.
                const bool ok = b.set(name, value);
                cni_assert(ok);
            }
        }
        return b;
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
        const bool flag = a.rfind("--", 0) == 0;
        const std::string name = flag ? a.substr(2) : "";
        if (name == "snarf") {
            o.machine.emplace_back(name, "true");
        } else if (MachineBuilder::hasParam(name)) {
            const char *value = need(i);
            std::string why;
            if (!MachineBuilder().set(name, value, &why)) {
                std::fprintf(stderr, "%s: %s\n", o.prog.c_str(),
                             why.c_str());
                usage(1);
            }
            o.machine.emplace_back(name, value);
            ++i;
        } else if (a == "--seed") {
            o.seed = std::strtoull(need(i), nullptr, 10);
            ++i;
        } else if (a == "--json") {
            o.json = need(i);
            ++i;
        } else if (a == "--help" || a == "-h") {
            usage(0);
        } else if (flag) {
            std::fprintf(stderr, "%s: unknown flag %s\n", o.prog.c_str(),
                         a.c_str());
            usage(1);
        } else {
            o.positional.push_back(a);
        }
    }

    // Registry discovery: `--ni list`, `--net list`, `--coherence list`
    // print the registered names and exit successfully.
    const MachineSpec given = o.spec(MachineBuilder());
    auto listAndExit = [](const char *what,
                          const std::vector<std::string> &names) {
        std::printf("registered %s models:\n", what);
        for (const auto &n : names)
            std::printf("  %s\n", n.c_str());
        std::exit(0);
    };
    if (given.defaults.ni == "list")
        listAndExit("NI", NiRegistry::instance().names());
    if (given.net.topology == "list")
        listAndExit("interconnect", NetRegistry::instance().names());
    if (given.coherence == "list") {
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
    // all-n/a table with a green exit code. (The defaults are
    // registered, so checking the replayed spec checks the flags.)
    if (!NetRegistry::instance().known(given.net.topology)) {
        cni_fatal("unknown interconnect '%s' (registered models: %s)",
                  given.net.topology.c_str(),
                  NetRegistry::instance().namesCsv().c_str());
    }
    if (!CoherenceRegistry::instance().known(given.coherence)) {
        cni_fatal(
            "unknown coherence backend '%s' (registered backends: %s)",
            given.coherence.c_str(),
            CoherenceRegistry::instance().namesCsv().c_str());
    }

    report::enable(o.json != "none");
    return o;
}

} // namespace cni::cli

#endif // CNI_SIM_CLI_HPP
