/**
 * @file
 * perfbench: runs one workload of the cni simulator for a fixed host
 * time and prints its metrics.
 *
 *   perfbench --workload macro_snoop --seed 3 --seconds 20 --trace 0
 *   perfbench --workload dsm_mesh --seed 3 --seconds 20 --trace 1
 *   perfbench --workload modelcheck --seed 3 --digest
 *   perfbench --self-test
 *
 * A run repeats the workload's operation list in whole rounds for about
 * --seconds (a round starts only if it should end in time). --trace 0
 * reports the end-to-end metrics; --trace 1 records spans around every
 * library call, runs the layer probes and reports the per-layer metrics. The last line of standard
 * output is one JSON object: correct, attempted, failed, metrics.
 * --digest prints one hash per operation of a single round instead, so
 * two builds can show that they simulate the same thing.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "ops.hpp"
#include "probes.hpp"
#include "sim/logging.hpp"

using namespace perfbench;

namespace
{

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    int seconds = 10;
    bool trace = false;
    bool digest = false;
    bool selfTest = false;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <n> --trace <0|1>\n"
                 "       perfbench --workload <name> --seed <n> --digest\n"
                 "       perfbench --self-test\n"
                 "workloads:",
                 why);
    for (const auto &w : workloadNames())
        std::fprintf(stderr, " %s", w.c_str());
    std::fprintf(stderr, "\n");
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage((arg + " needs a value").c_str());
            return argv[++i];
        };
        auto number = [&](long long lo, long long hi) -> long long {
            const std::string v = value();
            char *end = nullptr;
            const long long n = std::strtoll(v.c_str(), &end, 10);
            if (v.empty() || *end != '\0' || n < lo || n > hi)
                usage((arg + " takes a whole number from " +
                       std::to_string(lo) + " to " + std::to_string(hi))
                          .c_str());
            return n;
        };
        if (arg == "--workload")
            a.workload = value();
        else if (arg == "--seed")
            a.seed = std::uint64_t(number(0, (1LL << 62)));
        else if (arg == "--seconds")
            a.seconds = int(number(1, 3600));
        else if (arg == "--trace")
            a.trace = number(0, 1) == 1;
        else if (arg == "--digest")
            a.digest = true;
        else if (arg == "--self-test")
            a.selfTest = true;
        else
            usage(("unknown option " + arg).c_str());
    }
    if (!a.selfTest && workloadOps(a.workload).empty())
        usage(("unknown workload '" + a.workload + "'").c_str());
    return a;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/**
 * One round's time as the sum over operations of each one's median
 * across rounds. The host's speed drifts by up to 4x for seconds at a
 * time; a per-operation median drops the rounds such a spell hit.
 */
double
sumOfMedians(const std::vector<std::vector<double>> &perOp)
{
    double sum = 0;
    for (const auto &v : perOp)
        sum += median(v);
    return sum;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

/** Host times of one round, summed over its operations. */
struct RoundTimes
{
    double wallS = 0;
    double reportS = 0, teardownS = 0;
    double simRunS = 0;   //!< run time of completed machine operations
    double mcRunS = 0;    //!< run time of model-checker operations
};

/**
 * Set-up is sampled apart from the operations: one round constructs its
 * machines and checkers in 0.1-15 ms, too short to time steadily. Each
 * sample constructs every operation's machine or checker again, pass
 * after pass, until it holds kSetupSampleS of construction time. Samples
 * are taken at least kSetupEveryS apart through the run, so a busy spell
 * of the host reaches few of them.
 */
constexpr double kSetupSampleS = 0.05;
constexpr double kSetupEveryS = 1.0;

/** One set-up sample: construction time per pass over `ops`. */
double
setupSample(const std::vector<Op> &ops)
{
    double sum = 0;
    int passes = 0;
    do {
        for (const Op &op : ops)
            sum += timeBuild(op);
        ++passes;
    } while (sum < kSetupSampleS);
    return sum / passes;
}

/**
 * Host time to record `spans` again in a fresh log, the median of five
 * tries: what recording them added to the traced run.
 */
double
spanCostS(const std::vector<SpanLog::Span> &spans)
{
    std::vector<double> tries;
    for (int i = 0; i < 5; ++i) {
        SpanLog scratch(true);
        const auto t = Clock::now();
        for (const SpanLog::Span &sp : spans)
            ScopedSpan s(scratch, sp.name, sp.parent, sp.op);
        tries.push_back(secondsSince(t));
    }
    return median(tries);
}

struct Metric
{
    std::string name, unit;
    double value;
};

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                    metrics[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

/** Figure 8 and Section 5.2 ratios from one macro_snoop round. */
void
printFigure8(const std::vector<Op> &ops, const std::vector<Outcome> &outs)
{
    auto get = [&](const std::string &id) -> const cni::AppResult & {
        for (std::size_t i = 0; i < ops.size(); ++i)
            if (ops[i].id == id)
                return outs[i].app;
        static const cni::AppResult none;
        return none;
    };
    std::fprintf(stderr, "figure 8 (8 nodes): %-8s %12s %12s %10s %12s\n",
                 "app", "CNI16Qm/mem", "CNI512Q/io", "CNI4 occ", "best CQ occ");
    double occ4 = 0, occCq = 0;
    const auto &apps = cni::macrobenchmarkNames();
    for (const auto &app : apps) {
        const auto &base = get(app + " NI2w/mem");
        const auto &baseIo = get(app + " NI2w/io");
        const double qm = ratio(double(base.ticks),
                                double(get(app + " CNI16Qm/mem").ticks));
        const double q512 = ratio(double(baseIo.ticks),
                                  double(get(app + " CNI512Q/io").ticks));
        const double o4 = 1 - ratio(double(get(app + " CNI4/mem").memBusOccupied),
                                    double(base.memBusOccupied));
        double best = 1e300;
        for (const char *cq : {" CNI16Q/mem", " CNI512Q/mem", " CNI16Qm/mem"})
            best = std::min(best, double(get(app + cq).memBusOccupied));
        const double oq = 1 - ratio(best, double(base.memBusOccupied));
        occ4 += o4;
        occCq += oq;
        std::fprintf(stderr,
                     "figure 8 (8 nodes): %-8s %+11.0f%% %+11.0f%% %9.0f%% "
                     "%11.0f%%\n",
                     app.c_str(), 100 * (qm - 1), 100 * (q512 - 1), 100 * o4,
                     100 * oq);
    }
    std::fprintf(stderr,
                 "figure 8 (8 nodes): %-8s %12s %12s %9.0f%% %11.0f%%\n",
                 "average", "", "", 100 * occ4 / double(apps.size()),
                 100 * occCq / double(apps.size()));
}

/**
 * Peak resident set of this program, in kB. getrusage's ru_maxrss is
 * not used: it survives exec, so it would report run.py's interpreter
 * whenever that was larger. VmHWM belongs to this process image alone.
 */
long
peakRssKb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    long kb = 0;
    char line[256];
    while (f && std::fgets(line, sizeof line, f))
        if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1)
            break;
    if (f)
        std::fclose(f);
    return kb;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    cni::setVerbose(false);

    if (args.selfTest) {
        const std::vector<std::string> missed = selfTestChecks();
        for (const auto &m : missed)
            std::printf("check did not catch a wrong value: %s\n", m.c_str());
        std::printf("self-test: %s\n", missed.empty() ? "ok" : "FAILED");
        return missed.empty() ? 0 : 1;
    }

    const std::vector<Op> ops = workloadOps(args.workload);
    for (const Op &op : ops) {
        std::string why;
        if (!op.app.empty() && !op.spec.valid(&why)) {
            std::fprintf(stderr, "perfbench: %s: invalid machine: %s\n",
                         op.id.c_str(), why.c_str());
            return 2;
        }
    }
    const AppParams params = appParamsForSeed(args.seed);

    if (args.digest) {
        SpanLog off(false);
        std::string all;
        for (std::size_t i = 0; i < ops.size(); ++i) {
            const Outcome out =
                runOp(ops[i], params, off, int(i));
            const std::string line = ops[i].id + "\t" + digestOf(ops[i], out);
            std::printf("%s\n", line.c_str());
            all += line + "\n";
        }
        std::printf("digest\t%016llx\n",
                    static_cast<unsigned long long>(fnv1a(all)));
        return 0;
    }

    SpanLog log(args.trace);
    std::vector<std::string> failures;
    std::vector<ProbeMetric> probes;
    if (args.trace)
        probes = runProbes(log, failures);

    // Whole rounds while the next one, taking as long as the last, still
    // ends within the run length. In a traced run every round is traced.
    std::uint64_t attempted = 0, failed = 0;
    std::vector<RoundTimes> rounds;
    // Per operation, its wall time in every round.
    std::vector<std::vector<double>> opWall(ops.size());
    std::vector<double> setupSamples;
    LayerCounts counts;
    const std::size_t firstRoundSpan = log.spans().size();
    const auto start = Clock::now();
    auto lastSetupSample = start;
    double lastRoundS = 0;
    for (int round = 0;
         round == 0 || secondsSince(start) + lastRoundS <= double(args.seconds);
         ++round) {
        const auto roundStart = Clock::now();
        RoundTimes rt;

        std::vector<Outcome> outs;
        LayerCounts roundCounts;
        for (std::size_t i = 0; i < ops.size(); ++i) {
            if (setupSamples.empty() ||
                secondsSince(lastSetupSample) >= kSetupEveryS) {
                setupSamples.push_back(setupSample(ops));
                lastSetupSample = Clock::now();
            }
            outs.push_back(runOp(ops[i], params, log, int(i)));
            const Op &op = ops[i];
            const Outcome &o = outs.back();
            ++attempted;
            if (!o.completed)
                ++failed;
            rt.wallS += o.wallS();
            rt.reportS += o.reportS;
            rt.teardownS += o.teardownS;
            if (op.app.empty())
                rt.mcRunS += o.runS;
            else if (o.completed)
                rt.simRunS += o.runS;
            roundCounts.add(o.counts);
            opWall[i].push_back(o.wallS());
        }
        {
            ScopedSpan s(log, "check round", -1, -1);
            for (auto &f : checkRound(args.workload, ops, outs, params))
                failures.push_back("round " + std::to_string(round) + " " + f);
        }
        if (round == 0) {
            counts = roundCounts;
            if (args.workload == "macro_snoop")
                printFigure8(ops, outs);
        } else if (!(roundCounts == counts)) {
            failures.push_back("round " + std::to_string(round) +
                               ": per-layer counts differ from round 0");
        }
        std::fprintf(stderr,
                     "perfbench: %s round %d: wall %.4f s, %zu ops, "
                     "%zu set-up samples so far\n",
                     args.workload.c_str(), round, rt.wallS, ops.size(),
                     setupSamples.size());
        rounds.push_back(rt);
        lastRoundS = secondsSince(roundStart);
    }

    auto med = [&](auto field) {
        std::vector<double> v;
        for (const RoundTimes &r : rounds)
            v.push_back(field(r));
        return median(v);
    };
    const double setupS = median(setupSamples);
    const double perOp = double(ops.size());

    std::vector<Metric> metrics;
    if (!args.trace) {
        metrics = {
            {"wall_s", "s", sumOfMedians(opWall)},
            {"setup_s", "s", setupS},
            {"peak_rss_mb", "MB", double(peakRssKb()) / 1024.0},
        };
    } else {
        const LayerCounts &c = counts;
        const double events = double(c.events);
        const double nsPerEvent =
            med([&](const RoundTimes &r) { return ratio(r.simRunS * 1e9, events); });
        auto count = [&](const char *name, std::uint64_t v,
                         const char *unit = "count") {
            metrics.push_back({name, unit, double(v)});
        };
        metrics.push_back({"core.build_ms", "ms", setupS * 1e3 / perOp});
        metrics.push_back({"core.report_ms", "ms", med([&](const RoundTimes &r) {
                               return r.reportS * 1e3 / perOp;
                           })});
        metrics.push_back({"core.teardown_ms", "ms", med([&](const RoundTimes &r) {
                               return r.teardownS * 1e3 / perOp;
                           })});
        count("sim.events", c.events);
        metrics.push_back({"sim.ns_per_event", "ns", nsPerEvent});
        metrics.push_back(
            {"sim.events_per_s", "events/s", ratio(1e9, nsPerEvent)});
        count("proc.uncached_loads", c.uncachedLoads);
        count("proc.uncached_stores", c.uncachedStores);
        count("mem.load_hits", c.loadHits);
        count("mem.load_misses", c.loadMisses);
        count("mem.store_hits", c.storeHits);
        count("mem.store_misses", c.storeMisses);
        count("mem.writebacks", c.writebacks);
        count("bus.txns", c.busTxns);
        count("bus.occupied_cycles", c.busOccupied, "cycles");
        count("coh.protocol_msgs", c.cohMsgs);
        count("coh.getS", c.getS);
        count("coh.getM", c.getM);
        count("coh.fwds", c.fwds);
        count("coh.invs", c.invs);
        count("coh.home_queued", c.homeQueued);
        count("net.injected", c.injected);
        count("net.delivered", c.delivered);
        count("net.delivery_retries", c.retries);
        count("net.hops", c.hops);
        count("net.link_wait_cycles", c.linkWait, "cycles");
        metrics.push_back({"net.delivery_yield", "ratio",
                           ratio(double(c.delivered),
                                 double(c.delivered + c.retries))});
        count("ni.sends", c.niSends);
        count("ni.recvs", c.niRecvs);
        count("ni.recv_empty_polls", c.emptyPolls);
        count("ni.recv_refused", c.refused);
        count("ni.send_full", c.sendFull);
        metrics.push_back({"ni.poll_yield", "ratio",
                           ratio(double(c.dispatches),
                                 double(c.dispatches + c.emptyPolls))});
        count("msg.user_sends", c.userSends);
        count("msg.dispatches", c.dispatches);
        count("msg.send_blocks", c.sendBlocks);
        count("msg.software_buffered", c.softwareBuffered);
        count("mc.states", c.mcStates);
        count("mc.transitions", c.mcTransitions);
        metrics.push_back({"mc.states_per_s", "states/s",
                           med([&](const RoundTimes &r) {
                               return ratio(double(c.mcStates), r.mcRunS);
                           })});
        for (const ProbeMetric &p : probes)
            metrics.push_back({p.name, p.unit, p.value});
        // What the spans add to one round's wall_s: the rounds' spans,
        // recorded again on their own, per round.
        const std::vector<SpanLog::Span> roundSpans(
            log.spans().begin() + std::ptrdiff_t(firstRoundSpan),
            log.spans().end());
        metrics.push_back({"trace.overhead_s", "s",
                           spanCostS(roundSpans) / double(rounds.size())});

        std::filesystem::create_directories(".bench_out");
        const std::string path = ".bench_out/trace_" + args.workload + "_" +
                                 std::to_string(args.seed) + ".json";
        if (!log.write(path))
            std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
        else
            std::fprintf(stderr, "perfbench: %zu spans in %s\n",
                         log.spans().size(), path.c_str());
    }

    for (const auto &f : failures)
        std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", f.c_str());
    const bool correct = failures.empty();
    printResult(correct, attempted, failed, metrics);
    return correct ? 0 : 1;
}
