#include "net/network.hpp"

#include <algorithm>

#include "fault/fault.hpp"
#include "obs/profiler.hpp"

namespace paramrio::net {

Network::Network(NetworkParams params, int nprocs, int extra_nodes)
    : params_(params) {
  PARAMRIO_REQUIRE(params_.procs_per_node >= 1, "procs_per_node must be >= 1");
  PARAMRIO_REQUIRE(nprocs >= 1, "nprocs must be >= 1");
  PARAMRIO_REQUIRE(extra_nodes >= 0, "extra_nodes must be >= 0");
  compute_nodes_ =
      (nprocs + params_.procs_per_node - 1) / params_.procs_per_node;
  nics_.resize(static_cast<std::size_t>(compute_nodes_ + extra_nodes));
}

double Network::send(sim::Proc& src, int dst_rank, std::uint64_t bytes) {
  OBS_SPAN("net.send", sim::TimeCategory::kComm);
  obs::span_counter("bytes", bytes);
  const double msg_start = src.now();
  src.stats().messages_sent += 1;
  src.stats().bytes_sent += bytes;
  counters_.messages += 1;
  counters_.bytes += bytes;

  if (fault_hook_ != nullptr) {
    const double timeout = params_.retransmit_timeout > 0.0
                               ? params_.retransmit_timeout
                               : 4.0 * params_.latency;
    for (;;) {
      const fault::NetFaultAction a =
          fault_hook_->on_message(src.rank(), dst_rank, bytes, src.now());
      if (a.kind == fault::NetFaultAction::Kind::kDrop) {
        // The copy is lost in flight: the sender pays the full wasted
        // transfer, waits out the retransmit timeout, then tries again.
        counters_.msg_drops += 1;
        counters_.retransmit_bytes += bytes;
        (void)transmit(src, dst_rank, bytes);
        src.advance(timeout, sim::TimeCategory::kComm);
        continue;
      }
      if (a.kind == fault::NetFaultAction::Kind::kDuplicate) {
        // A spurious duplicate reaches the receiver and is discarded there;
        // the fabric and the sender still paid for it.
        counters_.msg_dups += 1;
        (void)transmit(src, dst_rank, bytes);
      }
      break;
    }
  }
  const double arrival = transmit(src, dst_rank, bytes);
  // Message latency = sender entry to receiver-visible arrival; covers
  // overhead, contention stalls, the wire and any fault retransmits.
  obs::latency_sample("net.message", arrival - msg_start);
  return arrival;
}

double Network::transmit(sim::Proc& src, int dst_rank, std::uint64_t bytes) {
  const double b = static_cast<double>(bytes);
  if (same_node(src.rank(), dst_rank)) {
    // Same SMP node: a memory copy; no NIC or backplane involvement.
    src.advance(params_.send_overhead + b / params_.intra_node_bandwidth,
                sim::TimeCategory::kComm);
    return src.now() + params_.intra_node_latency;
  }

  if (params_.nic_contention || params_.backplane_bandwidth > 0.0) {
    src.advance(params_.send_overhead, sim::TimeCategory::kComm);
    double done = wire_transfer(src.now(), node_of(src.rank()),
                                node_of(dst_rank), bytes, src.background_io());
    src.clock_at_least(done, sim::TimeCategory::kComm);
    return done + params_.latency;
  }

  // Contention-free fabric: sender occupied for the transfer only.
  src.advance(params_.send_overhead + b / params_.bandwidth,
              sim::TimeCategory::kComm);
  return src.now() + params_.latency;
}

void Network::receive(sim::Proc& dst, double arrival, std::uint64_t bytes) {
  OBS_SPAN("net.recv", sim::TimeCategory::kComm);
  obs::span_counter("bytes", bytes);
  dst.stats().bytes_received += bytes;
  const double wait_start = dst.now();
  if (arrival > wait_start) {
    // The receiver idles until the sender's data lands: the canonical
    // wait-for edge behind "comm-bound" phases.
    obs::record_wait(obs::WaitKind::kRecvWait, wait_start, arrival);
  }
  dst.clock_at_least(arrival, sim::TimeCategory::kComm);
  double copy = static_cast<double>(bytes) * params_.recv_byte_cost;
  if (copy > 0.0) dst.advance(copy, sim::TimeCategory::kComm);
}

double Network::wire_transfer(double start, int src_node, int dst_node,
                              std::uint64_t bytes, bool background) {
  counters_.wire_transfers += 1;
  counters_.wire_bytes += bytes;
  if (background) {
    counters_.background_transfers += 1;
    counters_.background_bytes += bytes;
  }
  if (obs::detail()) {
    obs::gauge_int("net/wire_bytes", counters_.wire_bytes);
    if (params_.backplane_bandwidth > 0.0) {
      obs::gauge("net/backplane_backlog",
                 backplane_.earliest_start(start, background) - start);
    }
  }
  const double b = static_cast<double>(bytes);
  double link_time = b / params_.bandwidth;
  double span = link_time;

  double s0 = start;
  if (params_.backplane_bandwidth > 0.0) {
    double bp_time = b / params_.backplane_bandwidth;
    span = std::max(span, bp_time);
    s0 = backplane_.earliest_start(s0, background);
  }
  if (params_.nic_contention && src_node != dst_node) {
    auto& sn = nics_[static_cast<std::size_t>(src_node)];
    auto& dn = nics_[static_cast<std::size_t>(dst_node)];
    s0 = dn.earliest_start(sn.earliest_start(s0, background), background);
    sn.acquire(s0, span, background);
    dn.acquire(s0, span, background);
  }
  if (params_.backplane_bandwidth > 0.0) {
    backplane_.acquire(s0, b / params_.backplane_bandwidth, background);
  }
  return s0 + span;
}

void Network::export_counters(obs::MetricsRegistry& reg) const {
  reg.add("net", "messages", counters_.messages);
  reg.add("net", "bytes", counters_.bytes);
  reg.add("net", "wire_transfers", counters_.wire_transfers);
  reg.add("net", "wire_bytes", counters_.wire_bytes);
  if (counters_.msg_drops > 0) {
    reg.add("net", "msg_drops", counters_.msg_drops);
    reg.add("net", "retransmit_bytes", counters_.retransmit_bytes);
  }
  reg.add_nonzero("net", "msg_dups", counters_.msg_dups);
  // Drain traffic; nonzero-only so exports from runs without a staging tier
  // stay byte-identical to previous releases.
  if (counters_.background_transfers > 0) {
    reg.add("net", "background_transfers", counters_.background_transfers);
    reg.add("net", "background_bytes", counters_.background_bytes);
  }
}

}  // namespace paramrio::net
