#ifndef BDIO_BENCH_PROBES_H_
#define BDIO_BENCH_PROBES_H_

// Component probes: fixed operation counts driven straight through the
// public functions of one module each (after KVell's benchcomponents.c),
// timed in host nanoseconds per operation. They run only in the traced
// pass and never feed the end-to-end metrics.

#include <cstdint>
#include <map>
#include <string>

namespace bdio_bench {

/// Runs every probe with inputs drawn from `seed`. Keys are the per-layer
/// metric names (sim.ns_per_event, net.flow_us_n11, ...).
std::map<std::string, double> RunProbes(uint64_t seed);

}  // namespace bdio_bench

#endif  // BDIO_BENCH_PROBES_H_
