#pragma once
// The benchmark's three workloads, each assembled by hand from the same
// public components core::run_scenario and cluster::run_cluster_scenario
// use, so the benchmark can time construction apart from the run, own the
// Simulation::run_until loop and read Simulation::events_processed().

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cluster/topology.hpp"

namespace perfbench {

/// Correctness checks of one repetition; each failed check counts as one
/// failed operation in the benchmark's `failed` / `fail_pct`.
struct Checks {
  std::uint64_t run = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  void expect(bool ok, const std::string& what);
};

/// One repetition of a workload: set-up, run phase, collection.
struct Rep {
  // Host time (steady_clock).
  double setup_s = 0.0;  // build + deploy + calibration probe
  double run_s = 0.0;    // the run_until loop
  /// Host spans around the benchmark's calls into each layer during set-up
  /// (fabric.build_s, benchex.deploy_s, collective.setup_s, core.calibrate_s).
  std::map<std::string, double> spans;
  std::vector<double> slice_ms;  // host ms per fixed sim-time slice
  double ibmon_host_s = 0.0;     // host time inside IbMon::sample_now (traced)

  // Simulated results: identical for a fixed seed.
  double sim_s = 0.0;  // simulated seconds the run phase covered
  std::uint64_t events = 0;
  std::vector<double> latency_us;  // the latency-sensitive flow, pooled
  double lat_p50_us = 0.0;
  double lat_p99_us = 0.0;
  double sla_limit_us = 0.0;
  double sla_viol_pct = 0.0;
  double bulk_MBps = 0.0;
  /// What the workload computed: BenchEx pricing checksums, or the sum of
  /// the all-reduce's output vector.
  double output_checksum = 0.0;
  /// Exact counts and simulated per-layer values, by metric name.
  std::map<std::string, double> counts;
  /// Full end-of-run metrics-registry snapshot as JSON (assembly parity).
  std::string metrics_json;

  Checks checks;
  std::uint64_t digest = 0;  // over every simulated value above
};

struct Options {
  std::uint64_t seed = 1;
  bool traced = false;  // time each IbMon::sample_now() call
};

/// The workload names, in the order BENCHMARK.json lists them.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Run one repetition of `name` (throws std::invalid_argument if unknown).
[[nodiscard]] Rep run_workload(const std::string& name, const Options& opt);

/// The topology and fabric configuration `name` runs on, for the
/// per-layer drivers (the paper testbed is a two-node single-switch star).
[[nodiscard]] resex::cluster::ClusterConfig fabric_shape(
    const std::string& name);

/// Run the same configuration through core::run_scenario /
/// cluster::run_cluster_scenario and check that the modelled outputs equal
/// `rep`'s. No-op (no checks) for workloads without such an entry point.
void check_parity(const std::string& name, const Options& opt, const Rep& rep,
                  Checks& checks);

}  // namespace perfbench
