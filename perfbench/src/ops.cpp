#include "ops.hpp"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <memory>

#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include "sweep/jsonin.hpp"

namespace perfbench
{

using cni::Machine;
using cni::MachineSpec;
using cni::NiPlacement;
using cni::sweep::JsonValue;

namespace
{

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

const char *
placementName(NiPlacement p)
{
    switch (p) {
      case NiPlacement::MemoryBus: return "mem";
      case NiPlacement::IoBus: return "io";
      case NiPlacement::CacheBus: return "cache";
    }
    return "?";
}

// Workload definitions ------------------------------------------------------

constexpr const char *kAllNis[] = {"NI2w", "CNI4", "CNI16Q", "CNI512Q",
                                   "CNI16Qm"};

Op
appOp(const std::string &app, const cni::MachineBuilder &b,
      const std::string &what)
{
    Op op;
    op.app = app;
    op.spec = b.spec();
    op.id = app + " " + what;
    return op;
}

/** Figure 8 on the paper's snooping machine: every NI/placement cell. */
std::vector<Op>
macroSnoopOps()
{
    std::vector<Op> ops;
    for (const auto &app : cni::macrobenchmarkNames()) {
        auto cell = [&](const char *ni, NiPlacement p) {
            ops.push_back(appOp(
                app, Machine::describe().nodes(8).ni(ni).placement(p),
                std::string(ni) + "/" + placementName(p)));
        };
        for (const char *ni : kAllNis)
            cell(ni, NiPlacement::MemoryBus);
        for (const char *ni : {"NI2w", "CNI4", "CNI16Q", "CNI512Q"})
            cell(ni, NiPlacement::IoBus);
        cell("NI2w", NiPlacement::CacheBus);
    }
    return ops;
}

cni::MachineBuilder
meshMachine(int nodes, int x, int y, const char *ni, const char *coh,
            int hops)
{
    auto b = Machine::describe()
                 .nodes(nodes)
                 .ni(ni)
                 .net("mesh")
                 .meshDims(x, y)
                 .coherence(coh);
    if (hops != 4)
        b.dirHops(hops);
    return b;
}

/** Directory-family coherence on a 16-node 4x4 mesh, serial kernel. */
std::vector<Op>
dsmMeshOps()
{
    struct Point
    {
        const char *app, *ni, *coh;
        int hops;
    };
    const Point points[] = {
        {"spsolve", "NI2w", "directory", 4},
        {"spsolve", "CNI16Q", "hybrid", 4},
        {"gauss", "NI2w", "directory", 3},
        {"em3d", "CNI512Q", "directory", 4},
        {"em3d", "CNI16Qm", "directory", 3},
        {"moldyn", "NI2w", "directory", 4},
        {"appbt", "NI2w", "hybrid", 4},
    };
    std::vector<Op> ops;
    for (const Point &p : points) {
        ops.push_back(appOp(p.app,
                            meshMachine(16, 4, 4, p.ni, p.coh, p.hops),
                            std::string(p.ni) + "/" + p.coh +
                                (p.hops == 3 ? "-3hop" : "") + "/mesh16"));
    }
    // Known fault: appbt on CNI16Qm never finishes on a directory mesh of
    // 8 or more nodes (the memory-homed receive ring refuses deliveries
    // while every peer is blocked sending). The same point on CNI16Q
    // takes about 0.5 s here, so 2.5 s is far past any slow completion.
    Op stuck = appOp("appbt", meshMachine(8, 4, 2, "CNI16Qm", "directory", 4),
                     "CNI16Qm/directory/mesh8");
    stuck.deadlineS = 2.5;
    ops.push_back(stuck);
    return ops;
}

/** The CI model-checker configurations plus the seeded-bug self-check. */
std::vector<Op>
modelcheckOps()
{
    std::vector<Op> ops;
    auto add = [&](const std::string &id, cni::McConfig c) {
        Op op;
        op.id = "mc " + id;
        op.mc = c;
        op.expectViolation = c.seedBug;
        ops.push_back(op);
    };
    cni::McConfig c;
    c.backend = "snoop";
    add("snoop", c);
    c = {};
    add("directory full 4-hop", c);
    c.dir.hops = 3;
    add("directory full 3-hop", c);
    c = {};
    c.dir.entries = 2;
    c.dir.assoc = 2;
    add("directory sparse2 4-hop", c);
    c.dir.hops = 3;
    add("directory sparse2 3-hop", c);
    c = {};
    c.backend = "dragon";
    add("dragon", c);
    c = {};
    c.backend = "hybrid";
    c.dir.updThreshold = 1;
    add("hybrid threshold1", c);
    c.dir.updThreshold = 2;
    add("hybrid threshold2", c);
    c = {};
    c.backend = "hybrid";
    c.nodes = 3;
    add("hybrid 3 nodes", c);
    c = {};
    c.dir.hops = 3;
    c.seedBug = true;
    add("directory 3-hop seeded bug", c);
    return ops;
}

// Running one operation -----------------------------------------------------

cni::AppResult
runApp(const std::string &app, Machine &m, const AppParams &p)
{
    if (app == "spsolve")
        return cni::runSpsolve(m, p.spsolve);
    if (app == "gauss")
        return cni::runGauss(m, p.gauss);
    if (app == "em3d")
        return cni::runEm3d(m, p.em3d);
    if (app == "moldyn")
        return cni::runMoldyn(m, p.moldyn);
    return cni::runAppbt(m, p.appbt);
}

/** Numeric member `key` of `obj`, or 0 when absent. */
std::uint64_t
count(const JsonValue *obj, const char *key)
{
    std::uint64_t v = 0;
    const JsonValue *m = obj ? obj->get(key) : nullptr;
    return m && m->toU64(&v) ? v : 0;
}

/**
 * Per-layer counts from a Machine::report() document. `netInjected` is
 * the network's own injection count: the report's merged "injected"
 * counter also holds every NI's.
 */
LayerCounts
countsFromReport(const std::string &report, std::uint64_t netInjected)
{
    LayerCounts c;
    JsonValue doc;
    std::string err;
    if (!cni::sweep::parseJson(report, &doc, &err)) {
        std::fprintf(stderr, "perfbench: unreadable report: %s\n",
                     err.c_str());
        return c;
    }
    c.events = count(doc.get("kernel"), "executed"); // serial kernel's count
    const JsonValue *stats = doc.get("stats");
    const JsonValue *k = stats ? stats->get("counters") : nullptr;
    if (!k)
        return c;
    c.uncachedLoads = count(k, "uncached_loads");
    c.uncachedStores = count(k, "uncached_stores");
    c.loadHits = count(k, "load_hits");
    c.loadMisses = count(k, "load_misses");
    c.storeHits = count(k, "store_hits");
    c.storeMisses = count(k, "store_misses");
    c.writebacks = count(k, "writebacks");
    c.busTxns = count(k, "txns");
    c.busOccupied = count(k, "occupancy_cycles");
    c.cohMsgs = count(k, "protocol_msgs");
    c.getS = count(k, "getS");
    c.getM = count(k, "getM");
    c.fwds = count(k, "fwds");
    c.invs = count(k, "invs");
    c.homeQueued = count(k, "home_queued");
    c.injected = netInjected;
    c.delivered = count(k, "delivered");
    c.retries = count(k, "delivery_retries");
    c.hops = count(k, "hops");
    c.linkWait = count(k, "link_wait_cycles");
    c.niSends = count(k, "sends");
    c.niRecvs = count(k, "recvs");
    c.emptyPolls = count(k, "recv_empty_polls");
    c.refused = count(k, "recv_refused");
    c.sendFull = count(k, "send_full");
    c.userSends = count(k, "user_sends");
    c.dispatches = count(k, "dispatches");
    c.sendBlocks = count(k, "send_blocks");
    c.softwareBuffered = count(k, "software_buffered");
    return c;
}

// Known-stuck operations run in a child process --------------------------

bool
writeAll(int fd, const void *data, std::size_t n)
{
    const char *p = static_cast<const char *>(data);
    while (n > 0) {
        const ssize_t w = ::write(fd, p, n);
        if (w < 0 && errno == EINTR)
            continue;
        if (w <= 0)
            return false;
        p += w;
        n -= std::size_t(w);
    }
    return true;
}

/** What the child sends back: build time, then the finished result. */
struct ChildFrame
{
    double buildS = 0;
    std::uint64_t ticks = 0, checksum = 0, userMsgs = 0, memBus = 0;
    std::uint64_t netInjected = 0;
    std::uint64_t reportBytes = 0;
};

[[noreturn]] void
childMain(int fd, const Op &op, const AppParams &params)
{
    const auto t0 = Clock::now();
    auto m = std::make_unique<Machine>(op.spec);
    const double buildS = secondsSince(t0);
    writeAll(fd, &buildS, sizeof buildS);
    const cni::AppResult r = runApp(op.app, *m, params);
    const std::string report = m->report();
    ChildFrame f{buildS, r.ticks, r.checksum, r.userMsgs, r.memBusOccupied,
                 m->net().injected(), report.size()};
    writeAll(fd, &f, sizeof f);
    writeAll(fd, report.data(), report.size());
    ::_exit(0);
}

/**
 * Run `op` in a child process and kill it at its deadline. The parent
 * waits on the pipe, so the wall time is the child's (or the deadline).
 */
Outcome
runForked(const Op &op, const AppParams &params)
{
    Outcome out;
    int fds[2];
    if (::pipe(fds) != 0) {
        std::perror("perfbench: pipe");
        std::exit(2);
    }
    std::fflush(nullptr);
    const auto t0 = Clock::now();
    const pid_t pid = ::fork();
    if (pid < 0) {
        std::perror("perfbench: fork");
        std::exit(2);
    }
    if (pid == 0) {
        ::close(fds[0]);
        childMain(fds[1], op, params);
    }
    ::close(fds[1]);

    std::string bytes;
    bool eof = false;
    while (!eof) {
        const double left = op.deadlineS - secondsSince(t0);
        if (left <= 0)
            break;
        pollfd pfd{fds[0], POLLIN, 0};
        const int rc = ::poll(&pfd, 1, std::max(1, int(left * 1000)));
        if (rc < 0 && errno == EINTR)
            continue;
        if (rc <= 0)
            continue; // the loop re-checks the deadline
        char buf[65536];
        const ssize_t n = ::read(fds[0], buf, sizeof buf);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            eof = true;
        else
            bytes.append(buf, std::size_t(n));
    }
    if (!eof)
        ::kill(pid, SIGKILL);
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    ::close(fds[0]);
    const double wall = secondsSince(t0);

    if (bytes.size() >= sizeof(double))
        std::memcpy(&out.buildS, bytes.data(), sizeof(double));
    ChildFrame f;
    const std::size_t head = sizeof(double) + sizeof f;
    if (eof && bytes.size() >= head) {
        std::memcpy(&f, bytes.data() + sizeof(double), sizeof f);
        if (bytes.size() == head + f.reportBytes) {
            out.completed = true;
            out.app.ticks = f.ticks;
            out.app.checksum = f.checksum;
            out.app.userMsgs = f.userMsgs;
            out.app.memBusOccupied = f.memBus;
            out.report = bytes.substr(head);
            out.counts = countsFromReport(out.report, f.netInjected);
        }
    }
    out.runS = std::max(0.0, wall - out.buildS);
    return out;
}

// Expected outputs, derived apart from the program ------------------------

/** Directed neighbour pairs of appbt's processor grid for `nodes`. */
std::uint64_t
appbtNeighborPairs(int nodes)
{
    // The processor grid: factors of two dealt to the smallest of x, y, z
    // in turn (4x2x2 at 16 nodes); each interior face joins two
    // neighbours, counted once from each side.
    std::uint64_t d[3] = {1, 1, 1};
    while (d[0] * d[1] * d[2] < std::uint64_t(nodes)) {
        if (d[0] <= d[1] && d[0] <= d[2])
            d[0] *= 2;
        else if (d[1] <= d[2])
            d[1] *= 2;
        else
            d[2] *= 2;
    }
    std::uint64_t pairs = 0;
    for (int a = 0; a < 3; ++a)
        pairs += 2 * (d[a] - 1) * d[(a + 1) % 3] * d[(a + 2) % 3];
    return pairs;
}

/** Checksum an app must return, derived from parameters and machine size. */
std::uint64_t
expectedChecksum(const std::string &app, const AppParams &p, int nodes,
                 std::uint64_t userSends)
{
    const std::uint64_t n = std::uint64_t(nodes);
    if (app == "spsolve")
        return std::uint64_t(p.spsolve.elements); // every element fires
    if (app == "gauss")
        return std::uint64_t(p.gauss.pivots); // node 1 saw every pivot
    if (app == "em3d") {
        // Every user message but the barrier's is one remote update; the
        // barrier costs 2(P-1) messages per episode, two per iteration.
        const std::uint64_t barrier =
            2 * (n - 1) * 2 * std::uint64_t(p.em3d.iterations);
        return userSends >= barrier ? userSends - barrier : ~0ull;
    }
    if (app == "moldyn")
        return std::uint64_t(p.moldyn.iterations) * n * n; // P rounds of P
    if (app == "appbt") {
        // One response per request: a face's blocks from each grid
        // neighbour, plus every node but 0 asking the hot spot again.
        return std::uint64_t(p.appbt.iterations) *
               std::uint64_t(p.appbt.blocksPerNeighbor) *
               (appbtNeighborPairs(nodes) + (n - 1));
    }
    return ~0ull;
}

} // namespace

AppParams
appParamsForSeed(std::uint64_t seed)
{
    AppParams p;
    p.spsolve.seed = splitmix64(seed) | 1;
    p.em3d.seed = splitmix64(seed ^ 0x656d3364ull) | 1;
    return p;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "macro_snoop", "dsm_mesh", "modelcheck"};
    return names;
}

std::vector<Op>
workloadOps(const std::string &workload)
{
    if (workload == "macro_snoop")
        return macroSnoopOps();
    if (workload == "dsm_mesh")
        return dsmMeshOps();
    if (workload == "modelcheck")
        return modelcheckOps();
    return {};
}

void
LayerCounts::add(const LayerCounts &o)
{
    events += o.events;
    uncachedLoads += o.uncachedLoads;
    uncachedStores += o.uncachedStores;
    loadHits += o.loadHits;
    loadMisses += o.loadMisses;
    storeHits += o.storeHits;
    storeMisses += o.storeMisses;
    writebacks += o.writebacks;
    busTxns += o.busTxns;
    busOccupied += o.busOccupied;
    cohMsgs += o.cohMsgs;
    getS += o.getS;
    getM += o.getM;
    fwds += o.fwds;
    invs += o.invs;
    homeQueued += o.homeQueued;
    injected += o.injected;
    delivered += o.delivered;
    retries += o.retries;
    hops += o.hops;
    linkWait += o.linkWait;
    niSends += o.niSends;
    niRecvs += o.niRecvs;
    emptyPolls += o.emptyPolls;
    refused += o.refused;
    sendFull += o.sendFull;
    userSends += o.userSends;
    dispatches += o.dispatches;
    sendBlocks += o.sendBlocks;
    softwareBuffered += o.softwareBuffered;
    mcStates += o.mcStates;
    mcTransitions += o.mcTransitions;
}

Outcome
runOp(const Op &op, const AppParams &params, SpanLog &log, int opIndex)
{
    ScopedSpan opSpan(log, op.id, -1, opIndex);
    const int parent = opSpan.id();

    if (op.app.empty()) {
        Outcome out;
        auto t = Clock::now();
        std::unique_ptr<cni::McChecker> checker;
        {
            ScopedSpan s(log, "build", parent, opIndex);
            checker = std::make_unique<cni::McChecker>(op.mc);
        }
        out.buildS = secondsSince(t);
        t = Clock::now();
        {
            ScopedSpan s(log, "run", parent, opIndex);
            out.mc = checker->check();
        }
        out.runS = secondsSince(t);
        t = Clock::now();
        {
            ScopedSpan s(log, "teardown", parent, opIndex);
            checker.reset();
        }
        out.teardownS = secondsSince(t);
        out.completed = true;
        out.counts.mcStates = out.mc.visited;
        out.counts.mcTransitions = out.mc.transitions;
        if (!out.mc.trace.empty()) {
            // The counterexample must replay on a fresh checker.
            ScopedSpan s(log, "check", parent, opIndex);
            cni::McChecker again(op.mc);
            out.replayReproduced = !again.replay(out.mc.trace).clean();
        }
        return out;
    }

    if (op.deadlineS > 0) {
        ScopedSpan s(log, "run", parent, opIndex);
        return runForked(op, params);
    }

    Outcome out;
    auto t = Clock::now();
    std::unique_ptr<Machine> m;
    {
        ScopedSpan s(log, "build", parent, opIndex);
        m = std::make_unique<Machine>(op.spec);
    }
    out.buildS = secondsSince(t);
    t = Clock::now();
    {
        ScopedSpan s(log, "run", parent, opIndex);
        out.app = runApp(op.app, *m, params);
    }
    out.runS = secondsSince(t);
    t = Clock::now();
    {
        ScopedSpan s(log, "report", parent, opIndex);
        out.report = m->report();
    }
    out.reportS = secondsSince(t);
    const std::uint64_t netInjected = m->net().injected();
    t = Clock::now();
    {
        // Every caller that takes a result and moves on pays this too.
        ScopedSpan s(log, "teardown", parent, opIndex);
        m.reset();
    }
    out.teardownS = secondsSince(t);
    out.completed = true;
    out.counts = countsFromReport(out.report, netInjected);
    return out;
}

double
timeBuild(const Op &op)
{
    std::unique_ptr<cni::McChecker> checker;
    std::unique_ptr<Machine> m;
    const auto t = Clock::now();
    if (op.app.empty())
        checker = std::make_unique<cni::McChecker>(op.mc);
    else
        m = std::make_unique<Machine>(op.spec);
    return secondsSince(t);
}

std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
digestOf(const Op &op, const Outcome &out)
{
    if (!out.completed)
        return "did-not-finish";
    std::string basis = out.report;
    if (op.app.empty()) {
        const cni::McResult &r = out.mc;
        basis = std::to_string(r.visited) + " " +
                std::to_string(r.transitions) + " " +
                std::to_string(r.terminals) + " " +
                std::to_string(r.maxParkSeen) + " " +
                std::to_string(r.symmetries) + " " +
                std::to_string(int(r.truncated)) + " " +
                std::to_string(r.violations.size()) + " " +
                std::to_string(r.trace.size());
    }
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(fnv1a(basis)));
    return hex;
}

std::vector<std::string>
checkRound(const std::string &workload, const std::vector<Op> &ops,
           const std::vector<Outcome> &outs, const AppParams &params)
{
    std::vector<std::string> fails;
    auto fail = [&](const std::string &id, const std::string &what) {
        fails.push_back(id + ": " + what);
    };
    // (app, nodes) -> first checksum seen, and who produced it.
    std::map<std::pair<std::string, int>, std::pair<std::uint64_t, std::string>>
        sums;

    for (std::size_t i = 0; i < ops.size(); ++i) {
        const Op &op = ops[i];
        const Outcome &o = outs[i];
        if (!o.completed)
            continue;
        if (op.app.empty()) {
            const cni::McResult &r = o.mc;
            if (r.truncated)
                fail(op.id, "exploration truncated");
            if (op.expectViolation) {
                if (r.clean() || r.trace.empty())
                    fail(op.id, "seeded bug not found");
                else if (!o.replayReproduced)
                    fail(op.id, "counterexample does not replay");
            } else if (!r.clean()) {
                fail(op.id, "invariant violated: " + r.violations.front());
            }
            continue;
        }
        const int nodes = op.spec.numNodes;
        const std::uint64_t want = expectedChecksum(
            op.app, params, nodes, o.counts.userSends);
        if (o.app.checksum != want) {
            fail(op.id, "checksum " + std::to_string(o.app.checksum) +
                            " != expected " + std::to_string(want));
        }
        if (o.counts.dispatches != o.counts.userSends) {
            fail(op.id, "dispatches " + std::to_string(o.counts.dispatches) +
                            " != user_sends " +
                            std::to_string(o.counts.userSends));
        }
        auto [it, fresh] = sums.try_emplace({op.app, nodes},
                                            o.app.checksum, op.id);
        if (!fresh && it->second.first != o.app.checksum) {
            fail(op.id, "checksum differs from " + it->second.second);
        }
    }

    if (workload == "macro_snoop") {
        // Figure 8 and Section 5.2 orderings, per app.
        std::map<std::string, const Outcome *> cell;
        for (std::size_t i = 0; i < ops.size(); ++i) {
            if (outs[i].completed)
                cell[ops[i].id] = &outs[i];
        }
        for (const auto &app : cni::macrobenchmarkNames()) {
            auto get = [&](const char *what) -> const cni::AppResult * {
                auto it = cell.find(app + " " + what);
                return it == cell.end() ? nullptr : &it->second->app;
            };
            const auto *ni2wMem = get("NI2w/mem");
            const auto *ni2wIo = get("NI2w/io");
            const auto *qmMem = get("CNI16Qm/mem");
            const auto *q512Io = get("CNI512Q/io");
            if (!ni2wMem || !ni2wIo || !qmMem || !q512Io) {
                fail(app, "Figure 8 cell missing");
                continue;
            }
            if (!(qmMem->ticks < ni2wMem->ticks))
                fail(app, "CNI16Qm/mem does not beat NI2w/mem");
            if (!(q512Io->ticks < ni2wIo->ticks))
                fail(app, "CNI512Q/io does not beat NI2w/io");
            cni::Tick bestCq = ~cni::Tick(0);
            for (const char *cq : {"CNI16Q/mem", "CNI512Q/mem", "CNI16Qm/mem"}) {
                if (const auto *r = get(cq))
                    bestCq = std::min(bestCq, r->memBusOccupied);
            }
            if (!(bestCq < ni2wMem->memBusOccupied))
                fail(app, "best CQ device occupies the memory bus no less "
                          "than NI2w");
        }
    }
    return fails;
}

std::string
checkShardedReports(const std::string &twoThreads,
                    const std::string &oneThread)
{
    return twoThreads == oneThread
               ? std::string()
               : "two-thread report differs from one-thread report";
}

std::vector<std::string>
selfTestChecks()
{
    // A synthetic round per workload whose values pass every check; each
    // case then plants one wrong value and expects a failure.
    const AppParams params = appParamsForSeed(1);
    auto goodRound = [&](const std::string &w) {
        std::vector<Op> ops = workloadOps(w);
        std::vector<Outcome> outs(ops.size());
        std::map<std::string, cni::Tick> niTicks = {
            {"NI2w", 1000}, {"CNI4", 900}, {"CNI16Q", 800},
            {"CNI512Q", 700}, {"CNI16Qm", 600}};
        for (std::size_t i = 0; i < ops.size(); ++i) {
            Outcome &o = outs[i];
            o.completed = true;
            if (ops[i].app.empty()) {
                o.mc.visited = 10;
                if (ops[i].expectViolation) {
                    o.mc.violations = {"planted"};
                    o.mc.trace.resize(3);
                    o.replayReproduced = true;
                }
                continue;
            }
            o.counts.userSends = o.counts.dispatches = 5000;
            o.app.checksum = expectedChecksum(
                ops[i].app, params, ops[i].spec.numNodes, 5000);
            o.app.ticks = niTicks[ops[i].spec.defaults.ni];
            o.app.memBusOccupied = o.app.ticks;
        }
        return std::make_pair(ops, outs);
    };
    auto find = [](const std::vector<Op> &ops, const std::string &id) {
        for (std::size_t i = 0; i < ops.size(); ++i)
            if (ops[i].id == id)
                return i;
        std::fprintf(stderr, "perfbench: self-test needs op '%s'\n",
                     id.c_str());
        std::exit(2);
    };

    struct Case
    {
        const char *name, *workload;
        std::function<void(std::vector<Op> &, std::vector<Outcome> &)> plant;
    };
    const std::vector<Case> cases = {
        {"checksum", "macro_snoop",
         [&](auto &ops, auto &outs) {
             outs[find(ops, "gauss CNI4/io")].app.checksum += 1;
         }},
        {"em3d checksum", "dsm_mesh",
         [&](auto &ops, auto &outs) {
             outs[find(ops, "em3d CNI512Q/directory/mesh16")]
                 .app.checksum -= 1;
         }},
        {"appbt checksum", "dsm_mesh",
         [&](auto &ops, auto &outs) {
             outs[find(ops, "appbt NI2w/hybrid/mesh16")].app.checksum += 24;
         }},
        {"handled once", "dsm_mesh",
         [&](auto &ops, auto &outs) {
             outs[find(ops, "moldyn NI2w/directory/mesh16")]
                 .counts.dispatches += 1;
         }},
        {"same checksum everywhere", "dsm_mesh",
         [&](auto &ops, auto &outs) {
             // Consistent with its own user_sends, yet not with the other
             // em3d point on the same machine size.
             Outcome &o = outs[find(ops, "em3d CNI16Qm/directory-3hop/mesh16")];
             o.counts.userSends = o.counts.dispatches = 5002;
             o.app.checksum = expectedChecksum("em3d", params, 16, 5002);
         }},
        {"CNI16Qm beats NI2w on the memory bus", "macro_snoop",
         [&](auto &ops, auto &outs) {
             outs[find(ops, "moldyn CNI16Qm/mem")].app.ticks = 1000;
         }},
        {"CNI512Q beats NI2w on the I/O bus", "macro_snoop",
         [&](auto &ops, auto &outs) {
             outs[find(ops, "em3d CNI512Q/io")].app.ticks = 1001;
         }},
        {"best CQ occupancy below NI2w", "macro_snoop",
         [&](auto &ops, auto &outs) {
             outs[find(ops, "appbt NI2w/mem")].app.memBusOccupied = 600;
         }},
        {"invariants hold", "modelcheck",
         [&](auto &ops, auto &outs) {
             outs[find(ops, "mc dragon")].mc.violations = {"SWMR"};
         }},
        {"no truncation", "modelcheck",
         [&](auto &ops, auto &outs) {
             outs[find(ops, "mc hybrid 3 nodes")].mc.truncated = true;
         }},
        {"seeded bug found", "modelcheck",
         [&](auto &ops, auto &outs) {
             Outcome &o = outs[find(ops, "mc directory 3-hop seeded bug")];
             o.mc.violations.clear();
             o.mc.trace.clear();
         }},
        {"counterexample replays", "modelcheck",
         [&](auto &ops, auto &outs) {
             outs[find(ops, "mc directory 3-hop seeded bug")]
                 .replayReproduced = false;
         }},
    };

    std::vector<std::string> missed;
    for (const std::string &w : workloadNames()) {
        auto [ops, outs] = goodRound(w);
        if (!checkRound(w, ops, outs, params).empty())
            missed.push_back(w + ": a correct round fails its checks");
    }
    for (const Case &c : cases) {
        auto [ops, outs] = goodRound(c.workload);
        c.plant(ops, outs);
        if (checkRound(c.workload, ops, outs, params).empty())
            missed.push_back(c.name);
    }
    if (!checkShardedReports("{}", "{}").empty() ||
        checkShardedReports("{\"a\":1}", "{\"a\":2}").empty())
        missed.push_back("two-thread report equals one-thread");
    return missed;
}

} // namespace perfbench
