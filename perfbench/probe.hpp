#pragma once
// A guest endpoint with one registered buffer and a closed-loop RDMA-write
// client: the lossless_ring latency probe and the fabric per-packet drivers.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "fabric/verbs.hpp"
#include "hv/node.hpp"
#include "sim/simulation.hpp"
#include "sim/stats.hpp"

namespace perfbench {

struct Endpoint {
  resex::hv::Domain* domain = nullptr;
  std::unique_ptr<resex::fabric::Verbs> verbs;
  std::uint32_t pd = 0;
  resex::fabric::CompletionQueue* send_cq = nullptr;
  resex::fabric::CompletionQueue* recv_cq = nullptr;
  resex::fabric::QueuePair* qp = nullptr;
  resex::mem::GuestAddr buf = 0;
  resex::mem::RegisteredRegion mr;
};

/// A guest on `node` with one QP and a `buf_bytes` buffer registered for
/// local and remote writes.
[[nodiscard]] Endpoint make_endpoint(resex::hv::Node& node,
                                     resex::fabric::Hca& hca,
                                     const std::string& name,
                                     std::size_t buf_bytes);

/// Connect a fresh QP on `to` (sharing its PD and CQs) to `from.qp`.
void connect_to(Endpoint& from, Endpoint& to, resex::fabric::Hca& to_hca);

/// What a closed-loop writer did: completed writes, their post->CQE latency
/// in simulated microseconds, and completions with an error status.
struct WriterStats {
  resex::sim::Samples latency_us;
  std::uint64_t errors = 0;
};

/// A closed-loop writer's shape: one `bytes`-long RDMA write at a time,
/// the first after `start`, each next one `think` after the previous one's
/// CQE, until `count` writes completed (0 = until the stop predicate holds).
struct WriterConfig {
  std::uint32_t bytes = 0;
  std::uint64_t count = 0;
  resex::sim::SimDuration start = 0;
  resex::sim::SimDuration think = 0;
};

/// Run a closed-loop writer from `ep` to `dst` until `cfg.count` writes
/// completed or `stop()` returns true. Stops at the first error CQE.
[[nodiscard]] resex::sim::Task write_loop(resex::sim::Simulation& sim,
                                          Endpoint& ep, const Endpoint& dst,
                                          WriterConfig cfg,
                                          std::function<bool()> stop,
                                          WriterStats& out);

}  // namespace perfbench
