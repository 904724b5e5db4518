// Interconnect cost model.
//
// Message timing follows a LogP-flavoured model with optional resource
// contention, parameterised per platform:
//
//   * latency            one-way wire latency per message
//   * bandwidth          point-to-point link bandwidth
//   * per-message sender overhead (software)
//   * receiver copy cost per byte (memory bandwidth at the receiver — this is
//     what serialises a many-to-one gather even on a full-bisection fabric)
//   * optional NIC contention: each SMP node's NIC is a FIFO Timeline, and a
//     transfer occupies both endpoints' NICs for its duration
//   * optional shared backplane: total fabric bandwidth capped by one global
//     Timeline (models the oversubscribed fast-Ethernet of the Linux cluster)
//   * drain traffic books the NIC and backplane Timelines in their background
//     class, so it yields to every foreground transfer and message
//
// The Network only computes *times*; message payloads live in the mpi layer.
#pragma once

#include <cstdint>
#include <vector>

#include "base/units.hpp"
#include "sim/engine.hpp"

namespace paramrio::obs {
class MetricsRegistry;
}

namespace paramrio::fault {
class NetFaultHook;
}

namespace paramrio::net {

struct NetworkParams {
  double latency = us(10);                     ///< one-way, inter-node
  double bandwidth = mb_per_s(100);            ///< per link, inter-node
  double intra_node_latency = us(1);           ///< same SMP node
  double intra_node_bandwidth = mb_per_s(300); ///< same SMP node (memory)
  double send_overhead = us(1);                ///< sender software cost / msg
  double recv_byte_cost = 1.0 / mb_per_s(400); ///< receiver copy, s per byte
  int procs_per_node = 1;                      ///< SMP width
  bool nic_contention = false;                 ///< serialise per-node NICs
  double backplane_bandwidth = 0.0;            ///< 0 = full bisection
  /// Sender-side timeout before retransmitting a dropped message (fault
  /// injection only); 0 derives 4x the one-way latency.  Drops are modelled
  /// at the transport: the sender pays the wasted transfer plus this
  /// timeout and resends, so payload delivery stays exactly-once and
  /// correctness is unaffected — packet loss costs time, not data.
  double retransmit_timeout = 0.0;
};

/// Aggregate traffic counters over a Network's lifetime (one Engine::run).
struct NetworkCounters {
  std::uint64_t messages = 0;       ///< point-to-point sends
  std::uint64_t bytes = 0;          ///< payload bytes sent
  std::uint64_t wire_transfers = 0; ///< fabric transfers incl. pfs traffic
  std::uint64_t wire_bytes = 0;
  std::uint64_t msg_drops = 0;      ///< injected drops (retransmitted)
  std::uint64_t msg_dups = 0;       ///< injected duplicates (discarded)
  std::uint64_t retransmit_bytes = 0;  ///< payload bytes sent again
  std::uint64_t background_transfers = 0;  ///< wire transfers of drain traffic
  std::uint64_t background_bytes = 0;
};

/// Per-run interconnect state.  Construct one per Engine::run for up to
/// `max_nodes` SMP nodes; all methods must be called from a simulated proc.
class Network {
 public:
  /// `extra_nodes` reserves NIC timelines beyond the compute nodes, for
  /// devices on the same fabric (e.g. PVFS I/O nodes); address them as
  /// node ids >= compute_nodes().
  Network(NetworkParams params, int nprocs, int extra_nodes = 0);

  /// Charge the sender for transmitting `bytes` to `dst_rank` and return the
  /// virtual time at which the message is available at the receiver.
  /// Advances src's clock past its share of the transfer.
  double send(sim::Proc& src, int dst_rank, std::uint64_t bytes);

  /// Charge the receiver for consuming a message of `bytes` that became
  /// available at `arrival` (waits until arrival, then pays the copy cost).
  void receive(sim::Proc& dst, double arrival, std::uint64_t bytes);

  int node_of(int rank) const { return rank / params_.procs_per_node; }
  int compute_nodes() const { return compute_nodes_; }
  bool same_node(int a, int b) const { return node_of(a) == node_of(b); }
  const NetworkParams& params() const { return params_; }

  /// Raw access for file systems that move data over the same fabric
  /// (e.g. PVFS clients talking to I/O nodes).  `src_node`/`dst_node` are
  /// node ids; returns the completion time of the wire transfer that starts
  /// no earlier than `start`.  A `background` transfer (drain traffic) books
  /// the NICs and the backplane in the background class (sim::Timeline), so
  /// it never delays foreground traffic.
  double wire_transfer(double start, int src_node, int dst_node,
                       std::uint64_t bytes, bool background = false);

  const NetworkCounters& counters() const { return counters_; }

  /// Publish aggregate counters into `reg` under scope "net".
  void export_counters(obs::MetricsRegistry& reg) const;

  /// Attach (or detach with nullptr) a fault-injection hook consulted for
  /// every point-to-point send.
  void attach_fault_hook(fault::NetFaultHook* hook) { fault_hook_ = hook; }

 private:
  /// One physical transmission attempt (the original LogP cost model).
  double transmit(sim::Proc& src, int dst_rank, std::uint64_t bytes);

  int compute_nodes_ = 0;
  NetworkParams params_;
  std::vector<sim::Timeline> nics_;  ///< one per SMP node
  sim::Timeline backplane_;
  NetworkCounters counters_;
  fault::NetFaultHook* fault_hook_ = nullptr;
};

}  // namespace paramrio::net
