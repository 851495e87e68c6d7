#include "probes.hpp"

#include "ops.hpp"

#include <algorithm>
#include <functional>
#include <memory>

#include "apps/apps.hpp"
#include "bus/address_map.hpp"
#include "bus/bus.hpp"
#include "coh/domain.hpp"
#include "core/machine.hpp"
#include "core/microbench.hpp"
#include "mem/cache.hpp"
#include "mem/main_memory.hpp"
#include "net/network.hpp"
#include "sim/event_queue.hpp"
#include "sim/task.hpp"

namespace perfbench
{

using namespace cni;

namespace
{

constexpr int kRepeats = 5;

/** Median of `kRepeats` calls of `once`, each returning a per-unit time. */
double
medianOf(SpanLog &log, const std::string &name,
         const std::function<double()> &once)
{
    ScopedSpan span(log, "probe " + name, -1, -1);
    std::vector<double> v;
    for (int i = 0; i < kRepeats; ++i)
        v.push_back(once());
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

/** A bus agent that holds nothing: every snoop finds no copy. */
struct NullAgent final : BusAgent
{
    std::string name = "probe";
    SnoopReply onBusTxn(const BusTxn &) override { return {}; }
    const std::string &agentName() const override { return name; }
};

/** A network port that accepts everything and counts it. */
struct CountingPort final : NiPort
{
    std::uint64_t delivered = 0;
    bool
    netDeliver(const NetMsg &) override
    {
        ++delivered;
        return true;
    }
};

/**
 * ns per event in steady state: 256 self-rescheduling chains keep the
 * wheel populated at near-term deltas, as a running machine does; each
 * dispatch schedules the chain's next event.
 */
double
dispatchNs()
{
    constexpr std::uint64_t kEvents = 1 << 20;
    constexpr int kChains = 256;
    struct Chains
    {
        EventQueue eq;
        std::uint64_t fired = 0;
        void
        next(int chain)
        {
            if (++fired + kChains > kEvents)
                return;
            const Tick delta = 1 + Tick((fired * 2654435761u) % 61);
            eq.scheduleIn(delta, [this, chain] { next(chain); });
        }
    } c;
    const auto t0 = Clock::now();
    for (int i = 0; i < kChains; ++i)
        c.eq.scheduleIn(Tick(i % 8), [&c, i] { c.next(i); });
    while (c.eq.step()) {
    }
    const double s = secondsSince(t0);
    return c.fired == kEvents ? s * 1e9 / double(kEvents) : -1;
}

/** ns per coroutine resume: one task awaiting a one-tick delay N times. */
double
resumeNs()
{
    constexpr int kResumes = 1 << 20;
    EventQueue eq;
    TaskGroup group(eq);
    const auto t0 = Clock::now();
    group.spawn([](EventQueue &eq) -> CoTask<void> {
        for (int i = 0; i < kResumes; ++i)
            co_await delay(eq, 1);
    }(eq));
    eq.run();
    const double s = secondsSince(t0);
    return group.done() ? s * 1e9 / kResumes : -1;
}

/** A processor cache over main memory on one node's snooping domain. */
struct SnoopRig
{
    EventQueue eq;
    NetParams params;
    std::unique_ptr<Interconnect> net =
        NetRegistry::instance().make("ideal", eq, 1, params);
    std::unique_ptr<CoherenceDomain> dom = CoherenceRegistry::instance().make(
        "snoop", CohBuildContext{eq, 0, 1, NiPlacement::MemoryBus, *net,
                                 "probe", DirParams{}});
    MainMemory memory;
    Cache cache{eq, "probe-cache", 64, Initiator::Processor};

    SnoopRig()
    {
        dom->attachHome(&memory);
        cache.setRequesterId(dom->attachCache(&cache));
        cache.setIssuePort([this](const BusTxn &t,
                                  std::function<void(SnoopResult)> done) {
            dom->procIssue(t, [done = std::move(done)](
                                  const SnoopResult &r) { done(r); });
        });
    }
};

/** ns per Cache::load; `hits` repeats one block, else strides past capacity. */
double
loadNs(bool hits)
{
    constexpr int kLoads = 1 << 17;
    SnoopRig rig;
    TaskGroup group(rig.eq);
    const auto t0 = Clock::now();
    group.spawn([](Cache &c, bool hits) -> CoTask<void> {
        for (int i = 0; i < kLoads; ++i) {
            const Addr a = hits ? kMemBase
                                : kMemBase + Addr(i % 4096) * kBlockBytes;
            co_await c.load(a);
        }
    }(rig.cache, hits));
    rig.eq.run();
    const double s = secondsSince(t0);
    const std::uint64_t want = hits ? kLoads - 1 : kLoads;
    const char *key = hits ? "load_hits" : "load_misses";
    return rig.cache.stats().counter(key) == want ? s * 1e9 / kLoads : -1;
}

/** ns per SnoopBus::transact, each issued from the previous completion. */
double
busTxnNs()
{
    constexpr int kTxns = 1 << 18;
    EventQueue eq;
    SnoopBus bus(eq, "probe-bus", BusKind::MemoryBus);
    MainMemory memory;
    NullAgent requester;
    bus.attach(&memory);
    const int id = bus.attach(&requester);
    int done = 0;
    std::function<void()> issue = [&] {
        BusTxn t;
        t.kind = (done & 1) ? TxnKind::ReadExclusive : TxnKind::ReadShared;
        t.addr = kMemBase + Addr(done % 1024) * kBlockBytes;
        t.requesterId = id;
        bus.transact(t, [&](const SnoopResult &) {
            if (++done < kTxns)
                issue();
        });
    };
    const auto t0 = Clock::now();
    issue();
    eq.run();
    const double s = secondsSince(t0);
    return done == kTxns ? s * 1e9 / kTxns : -1;
}

/** ns per GetS + GetM pair through a two-node directory on a mesh. */
double
cohRoundNs()
{
    constexpr int kRounds = 1 << 13;
    EventQueue eq;
    NetParams params;
    params.topology = "mesh";
    params.meshX = 2;
    params.meshY = 1;
    auto net = NetRegistry::instance().make("mesh", eq, 2, params);
    std::vector<std::unique_ptr<CoherenceDomain>> dom;
    NullAgent proc[2], dev[2], mem[2];
    for (NodeId n = 0; n < 2; ++n) {
        dom.push_back(CoherenceRegistry::instance().make(
            "directory",
            CohBuildContext{eq, n, 2, NiPlacement::MemoryBus, *net,
                            "node" + std::to_string(n), DirParams{}}));
        dom[n]->attachCache(&proc[n]);
        dom[n]->attachHome(&mem[n]);
        dom[n]->attachNi(&dev[n]);
    }
    int completed = 0;
    auto issue = [&](TxnKind kind, Addr a) {
        BusTxn t;
        t.kind = kind;
        t.addr = a;
        dom[0]->procIssue(t, [&](const SnoopResult &) { ++completed; });
        eq.run();
    };
    const auto t0 = Clock::now();
    for (int i = 0; i < kRounds; ++i) {
        // Odd block indexes are homed on node 1: every miss is remote.
        const Addr a = kMemBase + Addr(2 * i + 1) * kBlockBytes;
        issue(TxnKind::ReadShared, a);
        issue(TxnKind::ReadExclusive, a + 2 * kRounds * kBlockBytes);
    }
    const double s = secondsSince(t0);
    return completed == 2 * kRounds ? s * 1e9 / kRounds : -1;
}

/** ns per message injected at one mesh corner and delivered at the other. */
double
routeNs()
{
    constexpr int kMsgs = 1 << 16;
    EventQueue eq;
    NetParams params;
    params.topology = "mesh";
    params.meshX = 4;
    params.meshY = 4;
    auto net = NetRegistry::instance().make("mesh", eq, 16, params);
    std::vector<CountingPort> ports(16);
    for (NodeId n = 0; n < 16; ++n)
        net->attach(n, &ports[n]);
    const auto t0 = Clock::now();
    std::uint32_t sent = 0;
    while (ports[15].delivered < kMsgs) {
        while (sent < kMsgs && net->canInject(0, 15)) {
            NetMsg m;
            m.src = 0;
            m.dst = 15;
            m.seq = sent++;
            net->inject(std::move(m));
        }
        if (!eq.step())
            break;
    }
    const double s = secondsSince(t0);
    return ports[15].delivered == kMsgs ? s * 1e9 / kMsgs : -1;
}

/** Host µs per simulated 64-byte round trip on a two-node machine. */
double
roundTripUs(const std::string &ni)
{
    constexpr int kRounds = 200, kWarmup = 4;
    const MachineSpec spec = Machine::describe().nodes(2).ni(ni).spec();
    const auto t0 = Clock::now();
    const LatencyResult r = roundTripLatency(spec, 64, kRounds, kWarmup);
    const double s = secondsSince(t0);
    return r.completed && r.cycles > 0 ? s * 1e6 / (kRounds + kWarmup) : -1;
}

/**
 * em3d on a 16-node mesh on the sharded kernel, with two host threads
 * and with one: the kernel's window counts, host time per window, and
 * what the second thread costs. The two reports must be identical.
 */
void
shardedProbe(SpanLog &log, std::vector<ProbeMetric> &out,
             std::vector<std::string> &failures)
{
    ScopedSpan span(log, "probe sharded kernel", -1, -1);
    auto em3dMesh = [](int threads) {
        return Machine::describe()
            .nodes(16)
            .ni("CNI16Q")
            .net("mesh")
            .meshDims(4, 4)
            .threads(threads)
            .spec();
    };
    const MachineSpec two = em3dMesh(2), one = em3dMesh(1);

    std::vector<double> twoS, oneS;
    std::string twoReport, oneReport;
    std::uint64_t windows = 0, posts = 0, stalled = 0, events = 0;
    for (int i = 0; i < 3; ++i) {
        for (const MachineSpec *spec : {&two, &one}) {
            Machine m(*spec);
            const auto t0 = Clock::now();
            runEm3d(m);
            (spec == &two ? twoS : oneS).push_back(secondsSince(t0));
            if (i > 0)
                continue;
            (spec == &two ? twoReport : oneReport) = m.report();
            if (spec == &two) {
                const ParallelKernel &k = *m.kernel();
                windows = k.windows();
                posts = k.barrierPosts();
                for (int sh = 0; sh < k.numShards(); ++sh) {
                    stalled += k.shardStalledWindows(sh);
                    events += k.shardExecuted(sh);
                }
            }
        }
    }
    const std::string mismatch = checkShardedReports(twoReport, oneReport);
    if (!mismatch.empty())
        failures.push_back("sharded probe: " + mismatch);
    std::sort(twoS.begin(), twoS.end());
    std::sort(oneS.begin(), oneS.end());
    const double w = double(std::max<std::uint64_t>(windows, 1));
    out.push_back({"sim.windows", "count", double(windows)});
    out.push_back({"sim.stalled_windows", "count", double(stalled)});
    out.push_back({"sim.barrier_posts", "count", double(posts)});
    out.push_back({"sim.events_per_window", "events", double(events) / w});
    out.push_back({"sim.window_us", "us", twoS[1] * 1e6 / w});
    out.push_back({"sim.shard_overhead_s", "s", twoS[1] - oneS[1]});
}

} // namespace

std::vector<ProbeMetric>
runProbes(SpanLog &log, std::vector<std::string> &failures)
{
    std::vector<ProbeMetric> out;
    auto probe = [&](const std::string &metric, const char *unit,
                     const std::function<double()> &once) {
        const double v = medianOf(log, metric, once);
        if (v < 0)
            failures.push_back("probe " + metric + " did not do its work");
        out.push_back({metric, unit, v});
    };
    probe("sim.dispatch_ns", "ns", dispatchNs);
    probe("sim.resume_ns", "ns", resumeNs);
    probe("mem.hit_ns", "ns", [] { return loadNs(true); });
    probe("mem.miss_ns", "ns", [] { return loadNs(false); });
    probe("bus.txn_ns", "ns", busTxnNs);
    probe("coh.round_ns", "ns", cohRoundNs);
    probe("net.route_ns", "ns", routeNs);
    for (const char *ni : {"NI2w", "CNI4", "CNI16Q", "CNI512Q", "CNI16Qm"})
        probe(std::string("ni.roundtrip_us.") + ni, "us",
              [ni] { return roundTripUs(ni); });
    shardedProbe(log, out, failures);
    return out;
}

} // namespace perfbench
