/**
 * @file
 * Layer probes for traced runs. Each probe drives one layer's public
 * functions on its own, away from any workload, and reports host time
 * per unit of that layer's work as the median of a few repetitions. The
 * sharded kernel is measured here only: on this host its two-thread
 * runs swing too far from run to run to serve as an end-to-end workload.
 */

#ifndef PERFBENCH_PROBES_HPP
#define PERFBENCH_PROBES_HPP

#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench
{

struct ProbeMetric
{
    std::string name, unit;
    double value;
};

/**
 * Run every probe and return its metrics. A probe whose layer did not do
 * the expected work, or broke its contract, adds a line to `failures`.
 */
std::vector<ProbeMetric> runProbes(SpanLog &log,
                                   std::vector<std::string> &failures);

} // namespace perfbench

#endif // PERFBENCH_PROBES_HPP
