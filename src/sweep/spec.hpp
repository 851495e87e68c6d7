/**
 * @file
 * SweepSpec: a first-class description of a parameter sweep — the
 * cartesian grid the bench binaries used to spell as nested for-loops.
 *
 * A spec is a workload name, a set of base parameters, an ordered list
 * of axes (each a parameter name with the values to sweep), and the
 * seeds to run each grid cell at. Expansion is deterministic: an
 * odometer over the axes in declaration order (first axis slowest,
 * seeds innermost), exactly the iteration order of the equivalent
 * nested loops, with duplicate points (axes that collide on the same
 * parameter values) dropped, first occurrence kept.
 *
 * Every expanded point carries a canonical content key: an FNV-1a hash
 * of "workload=...;<params sorted by name>;seed=...;timeout=..." — a
 * pure function of the point's *meaning*, not of how the spec spelled
 * it. Declaring axes in a different order, or moving a parameter
 * between `base` and an axis, yields the same keys; the daemon's
 * result cache and incremental re-sweeps hang off this property.
 *
 * JSON form (the daemon's POST /jobs body):
 *
 *   {
 *     "workload": "roundtrip",
 *     "base":   {"nodes": 2, "placement": "memory"},
 *     "axes":   [{"name": "ni", "values": ["NI2w", "CNI16Qm"]},
 *                {"name": "bytes", "values": [8, 64, 256]}],
 *     "seeds":  [1],                // optional, default [1]
 *     "timeout_ticks": 50000000,    // optional, simulated-tick budget
 *     "allow_invalid": true         // optional: unbuildable grid cells
 *   }                               //   become "invalid" rows, not 400
 */

#ifndef CNI_SWEEP_SPEC_HPP
#define CNI_SWEEP_SPEC_HPP

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/types.hpp"
#include "sweep/jsonin.hpp"

namespace cni::sweep
{

/** All parameter values travel as strings; typing happens in runner. */
using ParamList = std::vector<std::pair<std::string, std::string>>;

/** Overlay `name=value`, replacing an existing binding of `name`. */
void bindParam(ParamList *params, const std::string &name,
               const std::string &value);

/**
 * Default per-point simulated-tick budget (250 ms of simulated time at
 * 200 MHz) — generous for every microbenchmark point, small enough
 * that a wedged workload is reported as "timeout" promptly.
 */
constexpr Tick kDefaultPointTimeout = 50'000'000;

struct SweepAxis
{
    std::string name;
    std::vector<std::string> values;
};

/** One expanded grid cell: what to run, and its content key. */
struct SweepPoint
{
    std::string key;      //!< 16-hex-digit canonical content key
    std::string workload; //!< runner workload name
    std::uint64_t seed = 1;
    ParamList params; //!< merged base+axes, sorted by name
};

struct SweepSpec
{
    std::string workload;
    ParamList base;               //!< declaration order (pre-merge)
    std::vector<SweepAxis> axes;  //!< declaration order (expansion order)
    std::vector<std::uint64_t> seeds = {1};
    Tick timeoutTicks = kDefaultPointTimeout;
    bool allowInvalid = false;

    /**
     * Expand the grid into its ordered, duplicate-free point list.
     * Deterministic: same spec -> byte-identical list, every run.
     */
    std::vector<SweepPoint> expand() const;

    /** Parse the JSON job form; false + `why` on anything malformed. */
    static bool fromJson(const JsonValue &doc, SweepSpec *out,
                         std::string *why);

    /**
     * Render the JSON job form (all values as strings — string and
     * number spellings are key-equivalent). fromJson(toJson()) is the
     * identity, which is how a bench hands its exact sweep to the
     * daemon.
     */
    std::string toJson() const;
};

/**
 * The canonical content key of one (parameters, seed) cell. `params`
 * need not be pre-sorted; the key is insensitive to their order.
 */
std::string pointKey(const std::string &workload, ParamList params,
                     std::uint64_t seed, Tick timeoutTicks);

} // namespace cni::sweep

#endif // CNI_SWEEP_SPEC_HPP
