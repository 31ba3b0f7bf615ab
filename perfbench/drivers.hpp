#pragma once
// Per-layer drivers: host time per operation of the layers whose work runs
// inside Simulation::run_until, measured from outside the program through
// each layer's public interface with the workload's own configuration.

#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

/// Host ns per operation, by metric name: fabric.ns_per_pkt,
/// fabric.ns_per_transfer, routing.lookup_ns, qos.arb_grant_ns,
/// hv.set_cap_ns and finance.quote_ns. Each is the median over a few
/// fixed-size batches. routing.lookup_ns is 0 on a single-switch fabric,
/// which makes no next-hop decision, and qos.arb_grant_ns is 0 with qos off.
[[nodiscard]] std::map<std::string, double> time_layers(
    const std::string& workload, std::uint64_t seed);

}  // namespace perfbench
