// StripedFs — model of a client/server parallel file system with a fixed
// stripe layout across dedicated I/O nodes (GPFS on the IBM SP-2, PVFS on
// the Chiba City Linux cluster).
//
// Every request is decomposed into stripe-aligned chunks; each chunk pays
//   (1) optionally, the compute node's SMP I/O channel (GPFS: the 4 CPUs of
//       a node share one path to the switch, so concurrent requests queue —
//       the paper's "long I/O request queue" on SMP nodes),
//   (2) the fabric between the compute node and the owning I/O node
//       (net::Network — with NIC and backplane contention when configured,
//       which is what strangles PVFS over fast Ethernet),
//   (3) the I/O node itself: per-request server overhead, positioning cost
//       when the access is not sequential on that server, streaming rate.
//
// Chunks of one request proceed concurrently across distinct servers (the
// client waits for the last completion), so large well-aligned requests reach
// aggregate bandwidth while small strided chunks drown in per-request costs —
// the stripe/access-pattern mismatch at the heart of the paper's Figure 7.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "base/run_map.hpp"
#include "net/network.hpp"
#include "pfs/filesystem.hpp"
#include "pfs/striping.hpp"
#include "stor/disk.hpp"

namespace paramrio::pfs {

struct StripedFsParams {
  std::string fs_name = "pvfs";
  std::uint64_t stripe_size = 64 * KiB;
  int n_io_nodes = 8;
  stor::DiskParams server_disk{/*seek*/ ms(8), /*bw*/ mb_per_s(30),
                               /*req overhead*/ ms(1)};
  double client_overhead = us(200);  ///< client library cost per call
  bool smp_io_channel = false;       ///< serialise requests per compute node
  double smp_channel_bandwidth = mb_per_s(120);
  double smp_channel_overhead = ms(0.3);
  double metadata = ms(2);

  /// Client-side cache bandwidth; 0 disables (2002 PVFS had no client
  /// cache, GPFS did).
  double client_cache_bandwidth = 0.0;

  /// Distributed write-lock (GPFS token) transfer cost: charged — serialised
  /// through the token manager — whenever a write request arrives from a
  /// different client than the object's last writer.  Zero for lock-free
  /// systems (PVFS).  The shared-file concurrent-writer penalty behind the
  /// paper's Figure 7.
  double write_lock_cost = 0.0;
};

class StripedFs final : public FileSystem {
 public:
  /// The I/O nodes occupy fabric node ids [network.compute_nodes(),
  /// network.compute_nodes() + n_io_nodes); construct the Network with
  /// extra_nodes >= n_io_nodes.
  StripedFs(StripedFsParams params, net::Network& network);

  std::string name() const override { return params_.fs_name; }
  double metadata_cost() const override { return params_.metadata; }

  const StripedFsParams& params() const { return params_; }
  const stor::IoServer& io_node(int i) const {
    return servers_.at(static_cast<std::size_t>(i));
  }

  /// Total requests observed by all I/O nodes (tests assert request-count
  /// reductions from collective I/O).
  std::uint64_t total_server_requests() const;

  /// Write-token transfers paid so far: the number of times a write request
  /// touched a stripe whose token was held by a different client (tests and
  /// the cb_align ablation assert reductions from stripe-aligned domains).
  std::uint64_t write_token_transfers() const { return token_transfers_; }

  /// Base cache counters plus token transfers and server request totals.
  void export_counters(obs::MetricsRegistry& reg) const override;

  /// Striping geometry for layout-aware clients: stripe unit, server count,
  /// and the (per-object) server that owns stripe 0.
  Layout layout(const std::string& path) const override {
    return {params_.stripe_size, params_.n_io_nodes,
            object_first_server(path, params_.n_io_nodes)};
  }

 protected:
  void charge(sim::Proc& proc, const std::string& path, std::uint64_t offset,
              std::uint64_t bytes, bool is_write) override;

 private:
  StripedFsParams params_;
  net::Network& network_;
  std::vector<stor::IoServer> servers_;
  std::vector<sim::Timeline> smp_channels_;  ///< one per compute node
  /// Write-token ownership at stripe granularity (GPFS hands out byte-range
  /// tokens rounded to block boundaries): path -> owner per stripe index.
  /// Runs, not one entry per stripe: a per-stripe map cost O(stripes
  /// touched) per write and grew one node per stripe ever written — the
  /// quadratic wall at AMR256 scale; runs make a streaming writer O(log n)
  /// per request with one node per contiguous region.
  std::map<std::string, RunMap<int>> token_owner_;
  std::uint64_t token_transfers_ = 0;
  sim::Timeline token_manager_;  ///< serialises all token transfers
};

}  // namespace paramrio::pfs
