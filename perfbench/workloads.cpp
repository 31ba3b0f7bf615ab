#include "workloads.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <memory>
#include <stdexcept>

#include "cluster/broker.hpp"
#include "cluster/migration.hpp"
#include "cluster/scenario.hpp"
#include "cluster/service.hpp"
#include "collective/collective.hpp"
#include "congestion/dcqcn.hpp"
#include "core/cluster_exchange.hpp"
#include "core/controller.hpp"
#include "core/experiment.hpp"
#include "core/policies.hpp"
#include "core/testbed.hpp"
#include "ibmon/ibmon.hpp"
#include "probe.hpp"
#include "qos/config.hpp"
#include "sim/rng.hpp"

namespace perfbench {

using namespace resex;
using namespace resex::sim::literals;
using Clock = std::chrono::steady_clock;

void Checks::expect(bool ok, const std::string& what) {
  ++run;
  if (!ok) {
    ++failed;
    failures.push_back(what);
  }
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"paper_2vm",
                                                 "cluster_fattree",
                                                 "lossless_ring"};
  return names;
}

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Drive `sim` in fixed sim-time slices up to `end`, or until `done()`,
/// timing each slice.
template <class Done>
void run_phase(sim::Simulation& sim, sim::SimTime end, sim::SimDuration slice,
               Rep& rep, Done done) {
  const sim::SimTime start = sim.now();
  const std::uint64_t events0 = sim.events_processed();
  const auto t0 = Clock::now();
  while (sim.now() < end && !done()) {
    const auto s0 = Clock::now();
    sim.run_until(std::min<sim::SimTime>(sim.now() + slice, end));
    rep.slice_ms.push_back(seconds_since(s0) * 1e3);
  }
  rep.run_s = seconds_since(t0);
  rep.sim_s = sim::to_sec(sim.now() - start);
  rep.events = sim.events_processed() - events0;
}

/// Latency percentiles and SLA share of the pooled latency samples.
void summarize_latency(Rep& rep) {
  sim::Samples s;
  std::uint64_t over = 0;
  for (const double v : rep.latency_us) {
    s.add(v);
    if (v > rep.sla_limit_us) ++over;
  }
  rep.lat_p50_us = s.empty() ? 0.0 : s.median();
  rep.lat_p99_us = s.empty() ? 0.0 : s.percentile(99.0);
  rep.sla_viol_pct = s.empty() ? 0.0
                               : 100.0 * static_cast<double>(over) /
                                     static_cast<double>(s.count());
}

/// Fabric work counts and simulated port statistics, read after the run.
void fabric_counts(fabric::Fabric& fab, sim::Simulation& sim, Rep& rep) {
  double packets = 0.0;
  double hot = 0.0;
  const double now = static_cast<double>(sim.now());
  const auto util = [&](const fabric::Channel& ch) {
    hot = std::max(hot, static_cast<double>(ch.busy_time()) / now);
  };
  for (std::size_t i = 0; i < fab.hca_count(); ++i) {
    packets += static_cast<double>(fab.hca(i).uplink().packets_sent());
    util(fab.hca(i).uplink());
    util(fab.hca(i).downlink());
  }
  fab.for_each_trunk([&](std::uint32_t, std::uint32_t,
                         fabric::Channel& ch) { util(ch); });
  auto& m = sim.metrics();
  const auto counter = [&m](const char* name) {
    return static_cast<double>(m.counter(name).value());
  };
  rep.counts["fabric.packets"] = packets;
  rep.counts["fabric.hot_port_util"] = hot;
  rep.counts["fabric.switch_hops"] = counter("fabric.switch_hops");
  rep.counts["fabric.transfers"] = counter("fabric.transfers");
  rep.counts["fabric.retransmits"] = counter("fabric.retransmits");
  rep.counts["fabric.buf_drops"] = counter("fabric.buf_drops");
  rep.counts["fabric.pfc_pauses"] = counter("fabric.pfc_pauses");
  rep.counts["fabric.ecn_marks"] = counter("fabric.ecn_marks");
  rep.counts["fabric.route_rehash"] = counter("fabric.route_rehash");
  rep.counts["fabric.pause_ns"] = static_cast<double>(
      m.histogram("fabric.pause_duration_ns").sum());
  rep.counts["congestion.cnps"] = counter("congestion.cnps");
  rep.counts["congestion.rate_cuts"] = counter("congestion.rate_cuts");
  rep.counts["hv.cap_changes"] = counter("hv.cap_changes");
  rep.counts["core.intervals"] = counter("core.intervals");
  rep.counts["core.cap_adjustments"] = counter("core.cap_adjustments");
  rep.counts["cluster.migrations"] = counter("cluster.migrations");
  rep.counts["cluster.migration_bytes"] = counter("cluster.migration_bytes");
  rep.counts["cluster.migration_pause_ns"] =
      counter("cluster.migration_pause_ns");
  rep.counts["collective.steps"] = counter("coll_steps");
  // Set by the workloads that run these layers.
  rep.counts["ibmon.samples"] = 0.0;
  rep.counts["benchex.requests"] = 0.0;
  rep.counts["collective.iter_ms"] = 0.0;
}

/// Snapshot the registry before fabric_counts() creates any absent entry,
/// so the JSON matches the one run_scenario/run_cluster_scenario produce.
void collect_registry(sim::Simulation& sim, fabric::Fabric& fab, Rep& rep) {
  rep.metrics_json = obs::to_json(sim.metrics().snapshot(sim.now()));
  fabric_counts(fab, sim, rep);
}

/// FNV-1a over every simulated value of the repetition.
std::uint64_t digest_of(const Rep& rep) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ULL;
    }
  };
  const auto num = [&mix](double v) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    mix(&bits, sizeof bits);
  };
  num(rep.sim_s);
  mix(&rep.events, sizeof rep.events);
  for (const double v : rep.latency_us) num(v);
  num(rep.sla_limit_us);
  num(rep.sla_viol_pct);
  num(rep.bulk_MBps);
  num(rep.output_checksum);
  for (const auto& [name, v] : rep.counts) {
    mix(name.data(), name.size());
    num(v);
  }
  return h;
}

/// What every fabric in this benchmark guarantees: the run made progress and
/// nothing was dropped (infinite buffers by default, PFC on lossless_ring).
void check_lossless(const Rep& rep, Checks& c) {
  c.expect(rep.events > 0 && rep.sim_s > 0, "the run phase made progress");
  c.expect(rep.counts.at("fabric.buf_drops") == 0, "no switch buffer drops");
}

/// The default fabric has no loss and no reliability timers: nothing is
/// ever retransmitted. (lossless_ring's RC timers may fire on transfers
/// DCQCN throttled; those retries are counted, not failed.)
void check_no_retransmits(const Rep& rep, Checks& c) {
  c.expect(rep.counts.at("fabric.retransmits") == 0, "no retransmissions");
}

// --- paper_2vm --------------------------------------------------------------

/// Section VII under IOShares: the figure benches' 1.3 sim-s run length.
core::ScenarioConfig paper_config(std::uint64_t seed) {
  core::ScenarioConfig cfg;
  cfg.warmup = 100_ms;
  cfg.duration = 1200_ms;
  cfg.policy = core::PolicyKind::kIOShares;
  cfg.seed = seed;
  return cfg;
}

/// IbMon::start()'s loop, owned by the benchmark so the traced run can time
/// each sample_now() call. Spawned at the same point, so the event order is
/// the one run_scenario produces.
sim::Task ibmon_sampler(sim::Simulation& sim, ibmon::IbMon& mon,
                        sim::SimDuration period, double* host_s) {
  for (;;) {
    co_await sim.delay(period);
    if (host_s == nullptr) {
      mon.sample_now();
      continue;
    }
    const auto t0 = Clock::now();
    mon.sample_now();
    *host_s += seconds_since(t0);
  }
}

Rep run_paper(const Options& opt) {
  Rep rep;
  const core::ScenarioConfig cfg = paper_config(opt.seed);
  const auto setup0 = Clock::now();

  // The SLA calibration probe: measure_base_total_us's configuration, run
  // through run_scenario so the client-side mean comes back too.
  auto t0 = Clock::now();
  core::ScenarioConfig probe = cfg;
  probe.with_interferer = false;
  probe.policy = core::PolicyKind::kNone;
  probe.duration = 300_ms;
  const core::VmSummary base = core::run_scenario(probe).reporting.at(0);
  rep.spans["core.calibrate_s"] = seconds_since(t0);
  rep.sla_limit_us =
      base.client_mean_us * (1.0 + cfg.sla_threshold_pct / 100.0);

  t0 = Clock::now();
  core::TestbedConfig tb_cfg;
  tb_cfg.scheduler.subwindows = cfg.sched_subwindows;
  cfg.congestion.apply(tb_cfg.fabric);
  cfg.qos.apply(tb_cfg.fabric);
  core::Testbed tb(tb_cfg);
  rep.spans["fabric.build_s"] = seconds_since(t0);

  t0 = Clock::now();
  auto rcfg = core::reporting_config(cfg.reporting_buffer, cfg.reporting_rate,
                                     sim::derive(cfg.seed, 0));
  rcfg.arrivals.kind = cfg.reporting_arrivals;
  rcfg.metrics_start = cfg.warmup;
  benchex::BenchPair& reporting = tb.deploy_pair(rcfg, "rep0", true);
  auto icfg = core::interferer_config(cfg.intf_buffer, cfg.intf_depth,
                                      sim::derive(cfg.seed, 100));
  icfg.metrics_start = cfg.warmup;
  benchex::BenchPair& interferer = tb.deploy_pair(icfg, "intf", true);
  rep.spans["benchex.deploy_s"] = seconds_since(t0);

  ibmon::IbMon mon(tb.sim(), {.sample_period = cfg.ibmon_period,
                              .mtu_bytes = tb.fabric().config().mtu_bytes});
  for (hv::Domain* dom :
       {&reporting.server_domain(), &interferer.server_domain()}) {
    dom->memory().set_foreign_mappable(true);
    mon.watch_domain(*dom, tb.hca_a().domain_cqs(dom->id()));
  }
  tb.sim().spawn(ibmon_sampler(tb.sim(), mon, cfg.ibmon_period,
                               opt.traced ? &rep.ibmon_host_s : nullptr));
  core::ControllerConfig ctrl_cfg;
  ctrl_cfg.resos = cfg.resos;
  ctrl_cfg.sla.threshold_pct = cfg.sla_threshold_pct;
  core::ResExController controller(
      tb.node_a(), mon, std::make_unique<core::IOSharesPolicy>(), ctrl_cfg);
  controller.monitor(reporting.server_domain(), &reporting.agent(),
                     cfg.reporting_weight, base.total_us);
  controller.monitor(interferer.server_domain(), nullptr, cfg.intf_weight);
  controller.start();
  rep.setup_s = seconds_since(setup0);

  const sim::SimTime end = cfg.warmup + cfg.duration;
  run_phase(tb.sim(), end, 10_ms, rep, [] { return false; });

  collect_registry(tb.sim(), tb.fabric(), rep);
  rep.latency_us = reporting.client().metrics().latency_us.values();
  summarize_latency(rep);
  rep.bulk_MBps = static_cast<double>(
                      interferer.server().endpoint().qp->bytes_sent()) /
                  sim::to_sec(end) / 1e6;
  rep.output_checksum = reporting.server().metrics().checksum +
                        interferer.server().metrics().checksum;
  rep.counts["ibmon.samples"] = static_cast<double>(mon.samples_taken());
  rep.counts["benchex.requests"] =
      static_cast<double>(reporting.server().metrics().requests +
                          interferer.server().metrics().requests);

  Checks& c = rep.checks;
  check_lossless(rep, c);
  check_no_retransmits(rep, c);
  c.expect(!rep.latency_us.empty(), "the reporting VM completed requests");
  c.expect(reporting.client().metrics().errors == 0 &&
               interferer.client().metrics().errors == 0 &&
               reporting.server().metrics().send_errors == 0 &&
               interferer.server().metrics().send_errors == 0,
           "no BenchEx request failed");
  c.expect(mon.samples_taken() == end / cfg.ibmon_period,
           "IBMon sampled once per period");
  c.expect(controller.intervals_run() == end / cfg.resos.interval,
           "the controller ran once per interval");
  c.expect(rep.counts["core.cap_adjustments"] > 0,
           "IOShares re-capped the interferer");
  return rep;
}

// --- cluster_fattree --------------------------------------------------------

/// Fig. 2 at 16 nodes on a 2-tier fat-tree with ECMP and live migration.
cluster::ClusterScenarioConfig fattree_config(std::uint64_t seed) {
  cluster::ClusterScenarioConfig cfg;
  cfg.nodes = 16;
  cfg.topology = cluster::TopologyKind::kFatTree;
  cfg.leaf_width = 4;
  cfg.spines = 2;
  cfg.routing.mode = routing::RouteMode::kEcmp;
  cfg.migration_enabled = true;
  cfg.seed = seed;
  return cfg;
}

/// The Cluster run_cluster_scenario builds for `cfg` (no qos lane shifts).
cluster::ClusterConfig fattree_cluster_config(
    const cluster::ClusterScenarioConfig& cfg) {
  cluster::ClusterConfig ccfg;
  ccfg.nodes = cfg.nodes;
  ccfg.pcpus_per_node = cfg.pcpus_per_node;
  ccfg.topology = cfg.topology;
  ccfg.leaf_width = cfg.leaf_width;
  ccfg.spines = cfg.spines;
  ccfg.trunk_bandwidth_scale = cfg.trunk_bandwidth_scale;
  cfg.congestion.apply(ccfg.fabric);
  cfg.qos.apply(ccfg.fabric);
  ccfg.fabric.routing = cfg.routing;
  return ccfg;
}

Rep run_fattree(const Options& opt) {
  Rep rep;
  const cluster::ClusterScenarioConfig cfg = fattree_config(opt.seed);
  const std::uint32_t pairs = cfg.nodes / 4;
  const auto setup0 = Clock::now();

  // The solo calibration run_cluster_scenario performs when no SLA is given.
  auto t0 = Clock::now();
  cluster::ClusterScenarioConfig probe = cfg;
  probe.with_interferers = false;
  probe.migration_enabled = false;
  probe.duration = 300_ms;
  probe.sla_limit_us = 0.0;
  probe.baseline_total_us = 0.0;
  const auto base = cluster::run_cluster_scenario(probe).services.at(0);
  rep.spans["core.calibrate_s"] = seconds_since(t0);
  rep.sla_limit_us =
      base.client_mean_us * (1.0 + cfg.sla_threshold_pct / 100.0);

  t0 = Clock::now();
  cluster::Cluster cl(fattree_cluster_config(cfg));
  rep.spans["fabric.build_s"] = seconds_since(t0);

  t0 = Clock::now();
  std::vector<std::unique_ptr<cluster::Service>> services;
  std::vector<std::unique_ptr<cluster::Service>> interferers;
  for (std::uint32_t i = 0; i < pairs; ++i) {
    auto scfg = core::reporting_config(cfg.reporting_buffer,
                                       cfg.reporting_rate,
                                       sim::derive(cfg.seed, i));
    scfg.metrics_start = cfg.warmup;
    services.push_back(std::make_unique<cluster::Service>(
        cl.hca(i), cl.hca(cfg.nodes / 2 + i), scfg, "rep" + std::to_string(i),
        true));
  }
  for (std::uint32_t i = 0; i < pairs; ++i) {
    auto icfg = core::interferer_config(cfg.intf_buffer, cfg.intf_depth,
                                        sim::derive(cfg.seed, 100 + i));
    icfg.metrics_start = cfg.warmup;
    interferers.push_back(std::make_unique<cluster::Service>(
        cl.hca(i), cl.hca(cfg.nodes / 2 + pairs + i), icfg,
        "intf" + std::to_string(i), false));
  }
  rep.spans["benchex.deploy_s"] = seconds_since(t0);

  core::ClusterExchange exchange;
  cluster::MigrationEngine engine(cl, cfg.migration);
  cluster::BrokerConfig bcfg = cfg.broker;
  bcfg.sla_threshold_pct = cfg.sla_threshold_pct;
  cluster::ClusterBroker broker(cl, exchange, engine, bcfg);
  for (auto& svc : services) broker.manage(*svc, base.server_total_us);
  broker.start();
  for (auto& svc : services) svc->start();
  for (auto& svc : interferers) svc->start();
  rep.setup_s = seconds_since(setup0);

  const sim::SimTime end = cfg.warmup + cfg.duration;
  run_phase(cl.sim(), end, 10_ms, rep, [] { return false; });

  collect_registry(cl.sim(), cl.fabric(), rep);
  double requests = 0.0;
  std::uint64_t errors = 0;
  for (auto& svc : services) {
    const auto& lat = svc->client_metrics().latency_us.values();
    rep.latency_us.insert(rep.latency_us.end(), lat.begin(), lat.end());
    requests += static_cast<double>(svc->server_metrics().requests);
    errors += svc->client_metrics().errors;
    rep.output_checksum += svc->server_metrics().checksum;
  }
  summarize_latency(rep);
  double intf_bytes = 0.0;
  for (auto& svc : interferers) {
    intf_bytes += static_cast<double>(svc->server_metrics().requests) *
                  cfg.intf_buffer;
    requests += static_cast<double>(svc->server_metrics().requests);
    errors += svc->client_metrics().errors;
    rep.output_checksum += svc->server_metrics().checksum;
  }
  rep.bulk_MBps = intf_bytes / sim::to_sec(end) / 1e6;
  rep.counts["benchex.requests"] = requests;

  Checks& c = rep.checks;
  check_lossless(rep, c);
  check_no_retransmits(rep, c);
  for (auto& svc : services) {
    c.expect(svc->client_metrics().latency_us.count() > 0,
             svc->name() + " completed requests");
  }
  c.expect(errors == 0, "no service request failed");
  c.expect(engine.stats().failed == 0, "no migration aborted");
  c.expect(engine.stats().migrations > 0, "the broker migrated a service");
  c.expect(engine.stats().migrations == rep.counts["cluster.migrations"],
           "migration stats agree with the registry");
  return rep;
}

// --- lossless_ring ----------------------------------------------------------

constexpr std::uint32_t kRingRanks = 8;
constexpr std::uint32_t kProbeBytes = 64 * 1024;
constexpr double kProbeSlaPct = 15.0;
/// Think time between probe writes: the probe offers ~25% of a link, a
/// latency probe rather than a second bulk flow (back to back, its strict
/// priority lane would starve the collective off the trunk).
constexpr sim::SimDuration kProbeThink = 200_us;

/// Two leaves of five hosts over one 1x spine trunk, 64-packet port
/// buffers, PFC plus ECN/DCQCN, two qos classes and lane shifts. The ECN
/// ramp straddles a lane's XOFF point (0.6 x 64 / 3 lanes ~ 13 packets), so
/// both marking and pausing act.
cluster::ClusterConfig ring_cluster_config() {
  cluster::ClusterConfig cfg;
  cfg.nodes = 10;
  cfg.topology = cluster::TopologyKind::kFatTree;
  cfg.leaf_width = 5;
  cfg.spines = 1;
  cfg.trunk_bandwidth_scale = 1.0;
  cfg.fabric.port_buffer_pkts = 64;
  cfg.fabric.ecn_kmin_pkts = 10;
  cfg.fabric.ecn_kmax_pkts = 30;
  cfg.fabric.pfc_enabled = true;
  qos::QosConfig q;
  q.enabled = true;
  q.apply(cfg.fabric);
  cfg.fabric.routing.vl_shift = true;
  cfg.fabric.reserve_shift_lane();
  return cfg;
}

// Ranks are striped across the leaves (rank r on node (r%2)*5 + r/2), so
// every ring edge crosses the trunk. The probe runs from rank 0's host
// (node 0, leaf 0) to rank 1's host (node 5, leaf 1): it shares both hosts'
// ports and the trunk with the all-reduce.
constexpr std::uint32_t kProbeSrc = 0;
constexpr std::uint32_t kProbeDst = 5;

collective::CollectiveConfig ring_collective() {
  collective::CollectiveConfig c;
  c.ranks = kRingRanks;
  c.payload_bytes = 4u << 20;
  c.chunk_bytes = 256 * 1024;
  c.algorithm = collective::Algorithm::kRingAllReduce;
  c.iterations = 10;
  return c;
}

/// Solo probe on the ring's fabric: its uncontended mean write latency.
double ring_probe_baseline_us() {
  cluster::Cluster cl(ring_cluster_config());
  Endpoint dst = make_endpoint(cl.node(kProbeDst), cl.hca(kProbeDst),
                               "probe_recv", kProbeBytes);
  Endpoint src = make_endpoint(cl.node(kProbeSrc), cl.hca(kProbeSrc),
                               "probe_send", kProbeBytes);
  connect_to(src, dst, cl.hca(kProbeDst));
  WriterStats solo;
  cl.sim().spawn(write_loop(
      cl.sim(), src, dst,
      {.bytes = kProbeBytes, .count = 200, .think = kProbeThink},
      [] { return false; }, solo));
  cl.sim().run();
  return solo.latency_us.mean();
}

Rep run_ring(const Options& opt) {
  Rep rep;
  const collective::CollectiveConfig coll = ring_collective();
  const auto setup0 = Clock::now();

  auto t0 = Clock::now();
  rep.sla_limit_us = ring_probe_baseline_us() * (1.0 + kProbeSlaPct / 100.0);
  rep.spans["core.calibrate_s"] = seconds_since(t0);

  t0 = Clock::now();
  const cluster::ClusterConfig ccfg = ring_cluster_config();
  cluster::Cluster cl(ccfg);
  sim::Simulation& sim = cl.sim();
  congestion::RateController dcqcn(cl.fabric());
  Endpoint dst = make_endpoint(cl.node(kProbeDst), cl.hca(kProbeDst),
                               "probe_recv", kProbeBytes);
  Endpoint src = make_endpoint(cl.node(kProbeSrc), cl.hca(kProbeSrc),
                               "probe_send", kProbeBytes);
  connect_to(src, dst, cl.hca(kProbeDst));
  rep.spans["fabric.build_s"] = seconds_since(t0);

  t0 = Clock::now();
  std::vector<collective::RankHome> homes;
  for (std::uint32_t r = 0; r < kRingRanks; ++r) {
    const std::uint32_t node = (r % 2) * ccfg.leaf_width + r / 2;
    homes.push_back({&cl.node(node), &cl.hca(node)});
  }
  collective::CollectiveGroup group(sim, std::move(homes), coll);
  // Integer-valued inputs drawn from the seed keep every sum exact.
  sim::Rng rng(sim::derive(opt.seed, 0xA11));
  std::vector<double> expected(group.buffer_elems(), 0.0);
  for (std::uint32_t r = 0; r < kRingRanks; ++r) {
    auto& data = group.rank_data(r);
    for (std::size_t i = 0; i < data.size(); ++i) {
      data[i] = static_cast<double>(rng.uniform_u64(8));
      expected[i] += data[i];
    }
  }
  // Iteration k all-reduces the previous result: N^(k-1) times the sum.
  for (std::uint32_t k = 1; k < coll.iterations; ++k) {
    for (double& v : expected) v *= kRingRanks;
  }
  group.start();
  rep.spans["collective.setup_s"] = seconds_since(t0);

  // The probe's phase against the all-reduce's steps comes from the seed.
  const auto start = static_cast<sim::SimDuration>(
      rng.uniform(0.0, static_cast<double>(kProbeThink)));
  WriterStats probe;
  sim.spawn(write_loop(
      sim, src, dst,
      {.bytes = kProbeBytes, .start = start, .think = kProbeThink},
      [&group] { return group.done(); }, probe));
  rep.setup_s = seconds_since(setup0);

  // Far past the ~0.3 sim-s the all-reduce needs: a wedged ring ends here
  // and fails the checks instead of hanging the benchmark.
  run_phase(sim, 5 * sim::kSecond, 1_ms, rep,
            [&group] { return group.done(); });
  // Drain: the probe's last write and the fabric's in-flight work.
  sim.run_until(sim.now() + 10_ms);

  collect_registry(sim, cl.fabric(), rep);
  rep.latency_us = probe.latency_us.values();
  summarize_latency(rep);
  const auto& res = group.result();
  const double coll_s = sim::to_sec(res.finished_at - res.started_at);
  rep.bulk_MBps = coll_s > 0 ? static_cast<double>(coll.payload_bytes) *
                                   coll.iterations / coll_s / 1e6
                             : 0.0;
  rep.counts["collective.iter_ms"] = coll_s * 1e3 / coll.iterations;
  for (const double v : group.rank_data(0)) rep.output_checksum += v;
  rep.counts["congestion.cnps"] = static_cast<double>(dcqcn.cnps());
  rep.counts["congestion.rate_cuts"] = static_cast<double>(dcqcn.rate_cuts());

  Checks& c = rep.checks;
  check_lossless(rep, c);
  c.expect(group.done() && res.ok, "the all-reduce completed ok");
  bool exact = true;
  bool steps = true;
  bool wire = true;
  const std::uint64_t wire_bytes = 2 * coll.payload_bytes * (kRingRanks - 1) /
                                   kRingRanks * coll.iterations;
  for (std::uint32_t r = 0; r < kRingRanks; ++r) {
    exact = exact && group.rank_data(r) == expected;
    steps = steps && group.step_log(r).size() ==
                         coll.iterations * group.steps_per_iteration();
    wire = wire && group.rank_wire_bytes(r) == wire_bytes;
  }
  c.expect(exact, "every rank holds the exact elementwise sum");
  c.expect(steps, "every rank completed every step");
  c.expect(wire, "every rank sent the ring's closed-form wire bytes");
  c.expect(!rep.latency_us.empty() && probe.errors == 0,
           "the probe completed writes without error");
  c.expect(sim.live_tasks() == 0, "no detached task is live after the drain");
  return rep;
}

}  // namespace

Rep run_workload(const std::string& name, const Options& opt) {
  Rep rep;
  if (name == "paper_2vm") {
    rep = run_paper(opt);
  } else if (name == "cluster_fattree") {
    rep = run_fattree(opt);
  } else if (name == "lossless_ring") {
    rep = run_ring(opt);
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  rep.digest = digest_of(rep);
  return rep;
}

cluster::ClusterConfig fabric_shape(const std::string& name) {
  if (name == "paper_2vm") {
    // The Testbed: two nodes on one switch.
    const core::ScenarioConfig cfg = paper_config(1);
    cluster::ClusterConfig shape;
    shape.nodes = 2;
    shape.topology = cluster::TopologyKind::kStar;
    cfg.congestion.apply(shape.fabric);
    cfg.qos.apply(shape.fabric);
    return shape;
  }
  if (name == "cluster_fattree") {
    return fattree_cluster_config(fattree_config(1));
  }
  if (name == "lossless_ring") return ring_cluster_config();
  throw std::invalid_argument("unknown workload '" + name + "'");
}

void check_parity(const std::string& name, const Options& opt, const Rep& rep,
                  Checks& checks) {
  if (name == "paper_2vm") {
    core::ScenarioConfig cfg = paper_config(opt.seed);
    cfg.collect_metrics = true;
    const core::ScenarioResult r = core::run_scenario(cfg);
    checks.expect(r.reporting.at(0).client_latency_us.values() ==
                      rep.latency_us,
                  "run_scenario: same reporting latency samples");
    checks.expect(r.interferer_mbps == rep.bulk_MBps,
                  "run_scenario: same interferer goodput");
    checks.expect(obs::to_json(r.metrics) == rep.metrics_json,
                  "run_scenario: same metrics registry");
  } else if (name == "cluster_fattree") {
    cluster::ClusterScenarioConfig cfg = fattree_config(opt.seed);
    cfg.collect_metrics = true;
    const cluster::ClusterScenarioResult r = cluster::run_cluster_scenario(cfg);
    checks.expect(r.sla_limit_us == rep.sla_limit_us,
                  "run_cluster_scenario: same SLA limit");
    checks.expect(r.violation_pct == rep.sla_viol_pct,
                  "run_cluster_scenario: same SLA violation share");
    checks.expect(obs::to_json(r.metrics) == rep.metrics_json,
                  "run_cluster_scenario: same metrics registry");
    std::uint64_t samples = 0;
    for (const auto& s : r.services) samples += s.samples;
    checks.expect(samples == rep.latency_us.size(),
                  "run_cluster_scenario: same latency sample count");
  }
}

}  // namespace perfbench
