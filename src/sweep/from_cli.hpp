/**
 * @file
 * Bridge from the shared bench CLI (sim/cli.hpp) to SweepSpec
 * parameters, so a bench can overlay its --net/--threads/... flags
 * onto the base of the sweep it is about to run. Mirrors
 * cli::Options::applyNet() (plus the machine-wide flags), but
 * produces name=value parameter bindings instead of builder calls.
 *
 * Header-only, like cli.hpp itself: it is bench-side glue, and keeping
 * it out of libcni keeps the library free of CLI concerns.
 */

#ifndef CNI_SWEEP_FROM_CLI_HPP
#define CNI_SWEEP_FROM_CLI_HPP

#include <string>

#include "sim/cli.hpp"
#include "sweep/spec.hpp"

namespace cni::sweep
{

/** Overlay `name=value`, replacing an existing binding of `name`. */
inline void
bindParam(ParamList *params, const std::string &name,
          const std::string &value)
{
    for (auto &[k, v] : *params) {
        if (k == name) {
            v = value;
            return;
        }
    }
    params->emplace_back(name, value);
}

/**
 * The interconnect + kernel flags the user actually passed, as sweep
 * parameters — the applyNet() subset (fixed-grid benches use this so
 * their NI/placement axes stay canonical while --net/--window/... work).
 */
inline ParamList
cliNetParams(const cli::Options &o)
{
    ParamList p;
    if (o.net)
        bindParam(&p, "net", *o.net);
    if (o.coherence)
        bindParam(&p, "coherence", *o.coherence);
    if (o.dirEntries)
        bindParam(&p, "dir-entries", std::to_string(*o.dirEntries));
    if (o.dirAssoc)
        bindParam(&p, "dir-assoc", std::to_string(*o.dirAssoc));
    if (o.dirHops)
        bindParam(&p, "dir-hops", std::to_string(*o.dirHops));
    if (o.hybridThreshold)
        bindParam(&p, "hybrid-threshold",
                  std::to_string(*o.hybridThreshold));
    if (o.netLatency)
        bindParam(&p, "net-latency", std::to_string(*o.netLatency));
    if (o.linkBw)
        bindParam(&p, "link-bw", std::to_string(*o.linkBw));
    if (o.window)
        bindParam(&p, "window", std::to_string(*o.window));
    if (o.netRetry)
        bindParam(&p, "net-retry", std::to_string(*o.netRetry));
    if (o.meshDims)
        bindParam(&p, "mesh-dims",
                  std::to_string(o.meshDims->first) + "x" +
                      std::to_string(o.meshDims->second));
    if (o.threads)
        bindParam(&p, "threads", std::to_string(*o.threads));
    return p;
}

} // namespace cni::sweep

#endif // CNI_SWEEP_FROM_CLI_HPP
