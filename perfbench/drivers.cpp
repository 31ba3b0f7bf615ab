#include "drivers.hpp"

#include <chrono>
#include <string>
#include <vector>

#include "cluster/topology.hpp"
#include "finance/workload.hpp"
#include "probe.hpp"
#include "qos/arbiter.hpp"
#include "routing/config.hpp"
#include "routing/table.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace resex;
using Clock = std::chrono::steady_clock;

namespace {

constexpr int kBatches = 5;

/// Results are stored here so the timed loops cannot be optimized away.
volatile double g_sink = 0.0;

double ns_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

/// Median over kBatches of host ns per operation; `batch()` runs one batch
/// and returns its operation count.
template <class Batch>
double median_ns_per_op(Batch batch) {
  sim::Samples ns;
  for (int i = 0; i < kBatches; ++i) {
    const auto t0 = Clock::now();
    const double ops = batch();
    ns.add(ns_since(t0) / ops);
  }
  return ns.median();
}

/// Host ns per packet or per transfer: a closed-loop RDMA writer between two
/// hosts on one switch of the workload's fabric (its lanes, PFC and ECN
/// settings), timing only Simulation::run. `per_packet` divides by packets
/// on the wire, otherwise by completed writes.
double fabric_ns(const cluster::ClusterConfig& shape, std::uint32_t bytes,
                 std::uint64_t writes, bool per_packet) {
  sim::Samples ns;
  for (int i = 0; i < kBatches; ++i) {
    cluster::ClusterConfig cfg;
    cfg.nodes = 2;
    cfg.pcpus_per_node = 2;
    cfg.topology = cluster::TopologyKind::kStar;
    cfg.fabric = shape.fabric;
    cluster::Cluster cl(cfg);
    Endpoint dst = make_endpoint(cl.node(1), cl.hca(1), "drv_recv", bytes);
    Endpoint src = make_endpoint(cl.node(0), cl.hca(0), "drv_send", bytes);
    connect_to(src, dst, cl.hca(1));
    WriterStats stats;
    cl.sim().spawn(write_loop(cl.sim(), src, dst,
                              {.bytes = bytes, .count = writes},
                              [] { return false; }, stats));
    const auto t0 = Clock::now();
    cl.sim().run();
    const double dt = ns_since(t0);
    const auto ops = per_packet ? cl.hca(0).uplink().packets_sent()
                                : stats.latency_us.count();
    ns.add(dt / static_cast<double>(ops));
  }
  return ns.median();
}

/// Host ns per next-hop decision on the workload's candidate sets: the
/// dense table compiled from Fabric::route_candidates (or the direct trunk
/// the fabric falls back to), picking as the configured mode does.
double lookup_ns(const cluster::ClusterConfig& shape, std::uint64_t seed) {
  cluster::Cluster cl(shape);
  fabric::Fabric& fab = cl.fabric();
  const std::uint32_t n = fab.switch_count();
  routing::NextHopTable<int> table;
  int port = 0;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  for (std::uint32_t at = 0; at < n; ++at) {
    for (std::uint32_t dst = 0; dst < n; ++dst) {
      if (at == dst) continue;
      auto vias = fab.route_candidates(at, dst);
      if (vias.empty() && fab.trunk(at, dst) != nullptr) vias.push_back(dst);
      if (vias.empty()) continue;
      for (const std::uint32_t via : vias) table.add(at, dst, {via, &port});
      pairs.emplace_back(at, dst);
    }
  }
  if (pairs.empty()) return 0.0;
  table.compile(n);

  // A seeded stream of (pair, QP) decisions, walked round-robin.
  sim::Rng rng(sim::derive(seed, 0x400));
  struct Decision {
    std::uint32_t at, dst, qp;
  };
  std::vector<Decision> work(4096);
  for (auto& d : work) {
    const auto& p = pairs[rng.uniform_u64(pairs.size())];
    d = {p.first, p.second, static_cast<std::uint32_t>(rng.uniform_u64(1024))};
  }
  const bool ecmp = shape.fabric.routing.mode == routing::RouteMode::kEcmp;
  const std::uint64_t hash_seed = shape.fabric.routing.ecmp_seed;
  std::uint64_t sink = 0;
  constexpr std::uint64_t kLookups = 1 << 20;
  const double ns = median_ns_per_op([&] {
    for (std::uint64_t i = 0; i < kLookups; ++i) {
      const Decision& d = work[i % work.size()];
      const auto span = table.lookup(d.at, d.dst);
      const std::uint64_t pick =
          ecmp ? routing::ecmp_hash(d.qp, 0, hash_seed) % span.count : 0;
      sink += span[static_cast<std::uint32_t>(pick)].via;
    }
    return static_cast<double>(kLookups);
  });
  g_sink = static_cast<double>(sink);
  return ns;
}

/// Host ns per VL arbiter grant with the workload's lane count, weights and
/// high-priority mask, over a seeded stream of eligible-lane masks. 0 with
/// qos off: the single-lane path never consults the arbiter.
double arb_grant_ns(const cluster::ClusterConfig& shape, std::uint64_t seed) {
  const fabric::FabricConfig& f = shape.fabric;
  if (!f.qos_enabled) return 0.0;
  qos::VlArbiterConfig acfg;
  acfg.num_vls = f.num_vls;
  acfg.high_mask = f.vl_high_mask;
  acfg.hi_limit = f.vl_hi_limit;
  for (std::uint8_t vl = 0; vl < qos::kMaxVls; ++vl) {
    acfg.weight[vl] = f.vl_weight[vl];
  }
  sim::Rng rng(sim::derive(seed, 0x401));
  const std::uint64_t lanes_mask = (std::uint64_t{1} << acfg.num_vls) - 1;
  std::vector<std::uint8_t> eligible(4096);
  for (auto& m : eligible) {
    m = static_cast<std::uint8_t>(1 + rng.uniform_u64(lanes_mask));
  }
  std::uint64_t sink = 0;
  constexpr std::uint64_t kGrants = 1 << 21;
  const double ns = median_ns_per_op([&] {
    qos::VlArbiter arb(acfg);
    for (std::uint64_t i = 0; i < kGrants; ++i) {
      sink += arb.pick(eligible[i % eligible.size()]);
    }
    return static_cast<double>(kGrants);
  });
  g_sink = static_cast<double>(sink);
  return ns;
}

/// Host ns per CreditScheduler::set_cap on an 8-PCPU node with one guest
/// per PCPU besides dom0's, alternating the guests' caps.
double set_cap_ns(std::uint64_t seed) {
  sim::Simulation sim;
  hv::Node node(sim, "drv", 8);
  std::vector<hv::Vcpu*> vcpus;
  for (int i = 0; i < 7; ++i) {
    std::string name = "guest";
    name += std::to_string(i);
    vcpus.push_back(&node.create_domain({.name = name}).vcpu());
  }
  sim::Rng rng(sim::derive(seed, 0x402));
  std::vector<double> caps(256);
  for (double& c : caps) c = 10.0 + static_cast<double>(rng.uniform_u64(90));
  constexpr std::uint64_t kCalls = 20000;
  return median_ns_per_op([&] {
    for (std::uint64_t i = 0; i < kCalls; ++i) {
      node.scheduler().set_cap(*vcpus[i % vcpus.size()],
                               caps[i % caps.size()]);
    }
    return static_cast<double>(kCalls);
  });
}

/// Host ns to price one reporting request: an 80-instrument quote.
double quote_ns(std::uint64_t seed) {
  finance::RequestProcessor proc(seed);
  double sink = 0.0;
  constexpr std::uint64_t kRequests = 2000;
  const double ns = median_ns_per_op([&] {
    for (std::uint64_t i = 0; i < kRequests; ++i) {
      sink += proc.process(finance::RequestKind::kQuote, 80).checksum;
    }
    return static_cast<double>(kRequests);
  });
  g_sink = sink;
  return ns;
}

}  // namespace

std::map<std::string, double> time_layers(const std::string& workload,
                                          std::uint64_t seed) {
  const cluster::ClusterConfig shape = fabric_shape(workload);
  std::map<std::string, double> out;
  out["fabric.ns_per_pkt"] = fabric_ns(shape, 64 * 1024, 400, true);
  out["fabric.ns_per_transfer"] =
      fabric_ns(shape, shape.fabric.mtu_bytes, 5000, false);
  out["routing.lookup_ns"] = lookup_ns(shape, seed);
  out["qos.arb_grant_ns"] = arb_grant_ns(shape, seed);
  out["hv.set_cap_ns"] = set_cap_ns(seed);
  out["finance.quote_ns"] = quote_ns(seed);
  return out;
}

}  // namespace perfbench
