/**
 * @file
 * The benchmark's operations: what each workload runs, how one operation
 * is timed, and the output checks that judge its result.
 *
 * One operation builds a machine (or a model checker), runs it to
 * completion through the library's public entry points and takes its
 * report. A workload is a fixed list of operations; a run repeats that
 * list in whole rounds.
 */

#ifndef PERFBENCH_OPS_HPP
#define PERFBENCH_OPS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "apps/apps.hpp"
#include "core/machine.hpp"
#include "mc/checker.hpp"
#include "trace.hpp"

namespace perfbench
{

/** The parameter blocks the benchmark passes to the five apps. */
struct AppParams
{
    cni::SpsolveParams spsolve;
    cni::GaussParams gauss;
    cni::Em3dParams em3d;
    cni::MoldynParams moldyn;
    cni::AppbtParams appbt;
};

/** em3d and spsolve take the workload seed; the other apps are fixed. */
AppParams appParamsForSeed(std::uint64_t seed);

struct Op
{
    std::string id; //!< unique within the workload, e.g. "gauss CNI4/io"

    // Application operations.
    std::string app; //!< empty for model-checker operations
    cni::MachineSpec spec;
    /**
     * > 0: a point known never to finish. It runs in a child process and
     * is killed at this host-time deadline, counting as a failed
     * operation whose time is the deadline.
     */
    double deadlineS = 0;

    // Model-checker operations.
    cni::McConfig mc;
    bool expectViolation = false; //!< the seeded-bug self-check
};

/** The operation list of `workload`; empty for an unknown name. */
std::vector<Op> workloadOps(const std::string &workload);

/** The workload names, in BENCHMARK.json's order. */
const std::vector<std::string> &workloadNames();

/** Counts one operation contributes to the per-layer metrics. */
struct LayerCounts
{
    std::uint64_t events = 0;
    std::uint64_t uncachedLoads = 0, uncachedStores = 0;
    std::uint64_t loadHits = 0, loadMisses = 0, storeHits = 0,
                  storeMisses = 0, writebacks = 0;
    std::uint64_t busTxns = 0, busOccupied = 0;
    std::uint64_t cohMsgs = 0, getS = 0, getM = 0, fwds = 0, invs = 0,
                  homeQueued = 0;
    std::uint64_t injected = 0, delivered = 0, retries = 0, hops = 0,
                  linkWait = 0;
    std::uint64_t niSends = 0, niRecvs = 0, emptyPolls = 0, refused = 0,
                  sendFull = 0;
    std::uint64_t userSends = 0, dispatches = 0, sendBlocks = 0,
                  softwareBuffered = 0;
    std::uint64_t mcStates = 0, mcTransitions = 0;

    void add(const LayerCounts &o);
    bool operator==(const LayerCounts &o) const = default;
};

/** What one operation produced and how long each call took. */
struct Outcome
{
    bool completed = false;
    double buildS = 0, runS = 0, reportS = 0, teardownS = 0;
    cni::AppResult app;
    std::string report; //!< Machine::report()
    cni::McResult mc;
    bool replayReproduced = false;
    LayerCounts counts;

    double wallS() const { return buildS + runS + reportS + teardownS; }
};

/** Run one operation; spans go to `log` when it is enabled. */
Outcome runOp(const Op &op, const AppParams &params, SpanLog &log,
              int opIndex);

/**
 * Host time to construct `op`'s machine (or checker) once; it is
 * destroyed off the clock.
 */
double timeBuild(const Op &op);

/** Stable 64-bit FNV-1a hash, for the simulation digest. */
std::uint64_t fnv1a(const std::string &bytes);

/** The digest line of one operation: its report or checker counts. */
std::string digestOf(const Op &op, const Outcome &out);

// Output checks -------------------------------------------------------------

/**
 * Check one round's outcomes; returns one message per failed check
 * (empty = all passed). Operations that did not complete are skipped.
 */
std::vector<std::string> checkRound(const std::string &workload,
                                    const std::vector<Op> &ops,
                                    const std::vector<Outcome> &outs,
                                    const AppParams &params);

/**
 * The sharded kernel's contract: a two-thread run reports exactly what a
 * one-thread run does. Returns a failure message, or empty when equal.
 */
std::string checkShardedReports(const std::string &twoThreads,
                                const std::string &oneThread);

/**
 * Feed each check a wrong value and confirm it fails. Returns the names
 * of checks that did not catch their wrong value (empty = all good).
 */
std::vector<std::string> selfTestChecks();

} // namespace perfbench

#endif // PERFBENCH_OPS_HPP
