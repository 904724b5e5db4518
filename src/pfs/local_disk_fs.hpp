// LocalDiskFs — model of the paper's fourth configuration: the PVFS I/O
// *interface* backed by each compute node's own local disk.
//
// Every rank's requests are served by its own private spindle; no network is
// crossed on the data path, so aggregate bandwidth scales linearly with the
// number of processors.  As in the paper, the price is that the "file" is
// physically scattered: each node only really holds the ranges it wrote.
// For verifiability the model keeps one coherent logical byte image (the
// paper notes that integrating the distributed pieces takes extra work; we
// do not charge for that work).  Reads of ranges a rank did not itself write
// would be remote in reality; the model charges them to the local disk and
// `remote_reads()` counts them so tests/benches can assert the access
// pattern stayed node-local.
#pragma once

#include <map>
#include <vector>

#include "base/run_map.hpp"
#include "pfs/filesystem.hpp"
#include "stor/disk.hpp"

namespace paramrio::pfs {

struct LocalDiskFsParams {
  stor::DiskParams disk{/*seek*/ ms(9), /*bw*/ mb_per_s(22),
                        /*req overhead*/ ms(0.4)};
  double client_overhead = us(150);
  double metadata = ms(0.5);
  double cache_bandwidth = mb_per_s(160);  ///< page-cache re-read rate
};

class LocalDiskFs final : public FileSystem {
 public:
  LocalDiskFs(LocalDiskFsParams params, int nprocs);

  std::string name() const override { return "local-disk"; }
  double metadata_cost() const override { return params_.metadata; }

  std::uint64_t remote_reads() const { return remote_reads_; }

  /// One private disk per rank, but file offsets carry no locality (bytes
  /// live wherever the writing rank sits), so stripe_size stays 0: clients
  /// learn the server count without a bogus offset->server mapping.
  Layout layout(const std::string& path) const override {
    (void)path;
    return {0, static_cast<int>(disks_.size()), 0};
  }

  void drop_caches() override {
    FileSystem::drop_caches();
    for (auto& per_rank : page_cache_) per_rank.clear();
  }
  const stor::IoServer& disk_of(int rank) const {
    return disks_.at(static_cast<std::size_t>(rank));
  }

 protected:
  void charge(sim::Proc& proc, const std::string& path, std::uint64_t offset,
              std::uint64_t bytes, bool is_write) override;

  /// remove()/kCreate truncation must drop this model's *own* per-path state
  /// — write ownership and per-rank page caches — not just the base buffer
  /// cache, or a file re-created at the same path inherits the previous
  /// generation's owners (suppressing remote_reads) and sees stale page-cache
  /// hits for bytes the new file never wrote.
  void on_remove(const std::string& path) override { forget_path(path); }
  void on_truncate(const std::string& path) override { forget_path(path); }

 private:
  void forget_path(const std::string& path);

  LocalDiskFsParams params_;
  std::vector<stor::IoServer> disks_;
  std::map<std::string, RunMap<int>> owners_;  ///< per file: writing rank
  std::vector<std::map<std::string, RunMap<bool>>> page_cache_;  ///< per rank
  std::uint64_t remote_reads_ = 0;
};

}  // namespace paramrio::pfs
