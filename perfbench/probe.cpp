#include "probe.hpp"

#include <utility>

namespace perfbench {

using namespace resex;

Endpoint make_endpoint(hv::Node& node, fabric::Hca& hca,
                       const std::string& name, std::size_t buf_bytes) {
  Endpoint ep;
  ep.domain = &node.create_domain({.name = name, .mem_pages = 2048});
  ep.verbs = std::make_unique<fabric::Verbs>(hca, *ep.domain);
  ep.pd = hca.alloc_pd(*ep.domain);
  ep.send_cq = &hca.create_cq(*ep.domain, 1024);
  ep.recv_cq = &hca.create_cq(*ep.domain, 1024);
  ep.qp = &hca.create_qp(*ep.domain, ep.pd, *ep.send_cq, *ep.recv_cq);
  ep.buf = ep.domain->allocator().allocate(buf_bytes, mem::kPageSize);
  ep.mr = hca.reg_mr(ep.pd, *ep.domain, ep.buf, buf_bytes,
                     mem::Access::kLocalWrite | mem::Access::kRemoteWrite |
                         mem::Access::kRemoteRead);
  return ep;
}

void connect_to(Endpoint& from, Endpoint& to, fabric::Hca& to_hca) {
  fabric::QueuePair& peer =
      to_hca.create_qp(*to.domain, to.pd, *to.send_cq, *to.recv_cq);
  peer.set_service_level(from.qp->service_level());
  fabric::Fabric::connect(*from.qp, peer);
}

sim::Task write_loop(sim::Simulation& sim, Endpoint& ep, const Endpoint& dst,
                     WriterConfig cfg, std::function<bool()> stop,
                     WriterStats& out) {
  if (cfg.start > 0) co_await sim.delay(cfg.start);
  std::uint64_t wr_id = 0;
  while (!stop() && (cfg.count == 0 || wr_id < cfg.count)) {
    const sim::SimTime t0 = sim.now();
    fabric::SendWr wr;
    wr.wr_id = ++wr_id;
    wr.opcode = fabric::Opcode::kRdmaWrite;
    wr.local_addr = ep.buf;
    wr.lkey = ep.mr.lkey;
    wr.length = cfg.bytes;
    wr.remote_addr = dst.buf;
    wr.rkey = dst.mr.rkey;
    co_await ep.verbs->post_send(*ep.qp, std::move(wr));
    const fabric::Cqe cqe = co_await ep.verbs->next_cqe(*ep.send_cq);
    if (cqe.status != 0) {
      ++out.errors;
      co_return;
    }
    out.latency_us.add(static_cast<double>(sim.now() - t0) / 1e3);
    if (cfg.think > 0) co_await sim.delay(cfg.think);
  }
}

}  // namespace perfbench
