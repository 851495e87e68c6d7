/**
 * @file
 * Sharded-kernel correctness: the determinism contract (any host thread
 * count produces bit-identical runs), the canonical merge order under
 * adversarial same-tick cross-shard traffic, window-boundary behavior
 * of Machine::runUntil, and randomized single-threaded-vs-multithreaded
 * equivalence over mesh/torus fabrics. (All of these compare sharded
 * runs at different --threads values; the classic threads=0 serial
 * kernel has its own, deliberately different, same-tick merge order.)
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/machine.hpp"
#include "sim/random.hpp"

namespace cni
{
namespace
{

/** Per-node receive counters; each entry is only touched by its node. */
struct RunResult
{
    Tick finalTick = 0;
    std::string report;
    std::vector<int> received;
};

/**
 * A deterministic all-pairs-style workload: node n sends `msgs`
 * messages to pattern(n), then polls until it has received everything
 * addressed to it. All workload state is node-local.
 */
RunResult
runPattern(const std::string &net, int nodes, int threads,
           const std::vector<NodeId> &dstOf, int msgs,
           const std::vector<Tick> &startDelay,
           const std::string &ni = "CNI512Q")
{
    Machine m = Machine::describe()
                    .nodes(nodes)
                    .ni(ni)
                    .net(net)
                    .threads(threads)
                    .build();

    std::vector<int> expected(nodes, 0);
    for (NodeId n = 0; n < nodes; ++n) {
        if (dstOf[n] >= 0)
            expected[dstOf[n]] += msgs;
    }

    RunResult r;
    r.received.assign(nodes, 0);
    for (NodeId n = 0; n < nodes; ++n) {
        m.endpoint(n).onMessage(
            7, [&r, n](const UserMsg &) -> CoTask<void> {
                ++r.received[n];
                co_return;
            });
        m.spawn(n, [](Machine &m, NodeId n, NodeId dst, Tick wait,
                      int msgs, int want, int *got) -> CoTask<void> {
            co_await m.proc(n).delay(wait);
            std::uint8_t buf[32] = {0x5a};
            if (dst >= 0) {
                for (int i = 0; i < msgs; ++i)
                    co_await m.endpoint(n).send(dst, 7, buf, sizeof buf);
            }
            co_await m.endpoint(n).pollUntil(
                [got, want] { return *got >= want; });
        }(m, n, dstOf[n], startDelay[n], msgs, expected[n],
                      &r.received[n]));
    }
    r.finalTick = m.run();
    r.report = m.report();
    return r;
}

std::vector<Tick>
zeros(int nodes)
{
    return std::vector<Tick>(nodes, 0);
}

/**
 * Adversarial same-tick cross-shard traffic: every node starts at tick
 * 0 and fires at the same hotspot, so a burst of same-tick injections
 * from distinct shards hits the canonical merge every window.
 */
TEST(ParallelKernel, HotspotMergeOrderIsThreadCountInvariant)
{
    const int nodes = 9;
    std::vector<NodeId> dst(nodes, 0);
    dst[0] = -1; // the hotspot only receives

    const RunResult r1 = runPattern("mesh", nodes, 1, dst, 6, zeros(nodes));
    const RunResult r2 = runPattern("mesh", nodes, 2, dst, 6, zeros(nodes));
    const RunResult r4 = runPattern("mesh", nodes, 4, dst, 6, zeros(nodes));

    EXPECT_EQ(r1.finalTick, r2.finalTick);
    EXPECT_EQ(r1.finalTick, r4.finalTick);
    EXPECT_EQ(r1.report, r2.report);
    EXPECT_EQ(r1.report, r4.report);
    EXPECT_EQ(r1.received[0], 6 * (nodes - 1));
}

/**
 * Two simultaneously congested receivers on different shards: CNI4's
 * small FIFO forces delivery refusals, so both destinations drive the
 * fabric's retry pump concurrently (this is the scenario that would
 * expose a packed-bit pumping flag to TSan).
 */
TEST(ParallelKernel, ConcurrentCongestedReceiversStayDeterministic)
{
    const int nodes = 10;
    std::vector<NodeId> dst(nodes);
    dst[0] = -1;
    dst[1] = -1;
    for (NodeId n = 2; n < nodes; ++n)
        dst[n] = NodeId(n % 2);

    const RunResult r1 =
        runPattern("mesh", nodes, 1, dst, 8, zeros(nodes), "CNI4");
    const RunResult r4 =
        runPattern("mesh", nodes, 4, dst, 8, zeros(nodes), "CNI4");
    EXPECT_EQ(r1.finalTick, r4.finalTick);
    EXPECT_EQ(r1.report, r4.report);
    // The retry path must actually fire for this test to mean anything.
    EXPECT_EQ(r1.report.find("\"delivery_retries\":0,"),
              std::string::npos);
    EXPECT_EQ(r1.received[0], 8 * 4);
    EXPECT_EQ(r1.received[1], 8 * 4);
}

TEST(ParallelKernel, RandomizedThreadCountInvariance)
{
    for (const char *net : {"mesh", "torus"}) {
        for (std::uint64_t seed : {11ull, 23ull, 47ull}) {
            Rng rng(seed);
            const int nodes = 8;
            std::vector<NodeId> dst(nodes);
            std::vector<Tick> delay(nodes);
            for (NodeId n = 0; n < nodes; ++n) {
                NodeId d = NodeId(rng.below(nodes));
                dst[n] = (d == n) ? NodeId((n + 1) % nodes) : d;
                delay[n] = Tick(rng.below(200));
            }
            const int msgs = 1 + int(rng.below(5));
            const RunResult serial =
                runPattern(net, nodes, 1, dst, msgs, delay);
            const RunResult parallel =
                runPattern(net, nodes, 4, dst, msgs, delay);
            EXPECT_EQ(serial.finalTick, parallel.finalTick)
                << net << " seed " << seed;
            EXPECT_EQ(serial.report, parallel.report)
                << net << " seed " << seed;
        }
    }
}

TEST(ParallelKernel, LookaheadComesFromTheFabric)
{
    Machine ideal = Machine::describe()
                        .nodes(2)
                        .ni("CNI4")
                        .netLatency(123)
                        .threads(1)
                        .build();
    ASSERT_NE(ideal.kernel(), nullptr);
    EXPECT_EQ(ideal.kernel()->lookahead(), 123u);

    Machine mesh = Machine::describe()
                       .nodes(4)
                       .ni("CNI4")
                       .net("mesh")
                       .hopLatency(9)
                       .threads(2)
                       .build();
    ASSERT_NE(mesh.kernel(), nullptr);
    EXPECT_EQ(mesh.kernel()->lookahead(), 9u);

    Machine serial = Machine::describe().nodes(2).ni("CNI4").build();
    EXPECT_EQ(serial.kernel(), nullptr);
}

/** runUntil stops at a window boundary and can resume seamlessly. */
TEST(ParallelKernel, RunUntilWindowBoundaries)
{
    const int nodes = 4;
    std::vector<NodeId> dst = {1, 2, 3, 0};

    // Reference: one uninterrupted run.
    const RunResult whole =
        runPattern("torus", nodes, 2, dst, 4, zeros(nodes));

    // Same machine driven by repeated runUntil slices. Slice width 37
    // is deliberately coprime to the lookahead so limits land inside
    // windows.
    MachineBuilder b = Machine::describe()
                           .nodes(nodes)
                           .ni("CNI512Q")
                           .net("torus")
                           .threads(2);
    Machine m = b.build();
    std::vector<int> got(nodes, 0);
    for (NodeId n = 0; n < nodes; ++n) {
        m.endpoint(n).onMessage(7,
                                [&got, n](const UserMsg &) -> CoTask<void> {
                                    ++got[n];
                                    co_return;
                                });
        m.spawn(n, [](Machine &m, NodeId n, NodeId dst,
                      int *gotN) -> CoTask<void> {
            std::uint8_t buf[32] = {0x5a};
            for (int i = 0; i < 4; ++i)
                co_await m.endpoint(n).send(dst, 7, buf, sizeof buf);
            co_await m.endpoint(n).pollUntil(
                [gotN] { return *gotN >= 4; });
        }(m, n, dst[n], &got[n]));
    }

    Tick limit = 37;
    Tick prev = 0;
    while (!m.workloadDone()) {
        const Tick t = m.runUntil(limit);
        // Conservative overshoot bound: at most one lookahead window
        // past the requested limit.
        EXPECT_LE(t, limit + m.kernel()->lookahead());
        EXPECT_GE(t, prev);
        prev = t;
        limit += 37;
    }
    EXPECT_EQ(m.now(), whole.finalTick);
    EXPECT_EQ(m.report(), whole.report);

    // Past-the-end and no-op limits are safe.
    EXPECT_EQ(m.runUntil(0), m.now());
    EXPECT_EQ(m.runUntil(m.now() + 1000), m.now());
}

TEST(ParallelKernel, ReportCarriesKernelSection)
{
    const RunResult r =
        runPattern("mesh", 4, 2, {1, 0, 3, 2}, 2, zeros(4));
    EXPECT_NE(r.report.find("\"kernel\":{\"mode\":\"sharded\""),
              std::string::npos);
    EXPECT_NE(r.report.find("\"lookahead\""), std::string::npos);
    EXPECT_NE(r.report.find("\"stalled_windows\""), std::string::npos);
    // The host thread count must never leak into the report — that is
    // what keeps --threads N diffs clean.
    EXPECT_EQ(r.report.find("threads"), std::string::npos);

    const RunResult s =
        runPattern("mesh", 4, 0, {1, 0, 3, 2}, 2, zeros(4));
    EXPECT_NE(s.report.find("\"kernel\":{\"mode\":\"serial\""),
              std::string::npos);
}

/** The sliding window still throttles senders across shards. */
TEST(ParallelKernel, WindowFlowControlSurvivesSharding)
{
    // One sender, tiny window: the ack round-trip gates injection, so
    // the run must take at least msgs/window ack round trips.
    MachineBuilder b = Machine::describe()
                           .nodes(2)
                           .ni("CNI512Q")
                           .window(1)
                           .threads(2);
    Machine m = b.build();
    int got = 0;
    m.endpoint(1).onMessage(7, [&got](const UserMsg &) -> CoTask<void> {
        ++got;
        co_return;
    });
    m.spawn(0, [](Machine &m) -> CoTask<void> {
        std::uint8_t buf[16] = {1};
        for (int i = 0; i < 8; ++i)
            co_await m.endpoint(0).send(1, 7, buf, sizeof buf);
    }(m));
    m.spawn(1, [](Machine &m, int *got) -> CoTask<void> {
        co_await m.endpoint(1).pollUntil([got] { return *got >= 8; });
    }(m, &got));
    const Tick t = m.run();
    EXPECT_EQ(got, 8);
    // 8 messages, window 1, 100-cycle latency each way: >= 7 full
    // round trips must separate the injections.
    EXPECT_GE(t, Tick(7 * 200));
}

} // namespace
} // namespace cni
