#include "pfs/local_disk_fs.hpp"

#include "obs/profiler.hpp"

namespace paramrio::pfs {

LocalDiskFs::LocalDiskFs(LocalDiskFsParams params, int nprocs)
    : params_(params) {
  PARAMRIO_REQUIRE(nprocs >= 1, "LocalDiskFs needs >= 1 proc");
  page_cache_.resize(static_cast<std::size_t>(nprocs));
  disks_.reserve(static_cast<std::size_t>(nprocs));
  for (int i = 0; i < nprocs; ++i) disks_.emplace_back(params_.disk);
}

void LocalDiskFs::charge(sim::Proc& proc, const std::string& path,
                         std::uint64_t offset, std::uint64_t bytes,
                         bool is_write) {
  // Disks, page caches and ownership are per *global* rank: under multi-job
  // tenancy each simulated node (and its spindle) belongs to exactly one
  // rank of one job; job-local rank ids would alias the rank 0s together.
  const int client = proc.global_rank();
  RunMap<int>& owners = owners_[path];
  RunMap<bool>& my_cache = page_cache_[static_cast<std::size_t>(client)][path];
  const std::uint64_t end = offset + bytes;
  if (is_write) {
    owners.assign(offset, end, client);
  } else if (bytes > 0 && !owners.covers(offset, end, client)) {
    // (An empty read touches no bytes, so none of them can be remote.)
    remote_reads_ += 1;
  } else if (my_cache.covers(offset, end, true)) {
    // This node already has the pages: served from its own page cache.
    proc.advance(static_cast<double>(bytes) / params_.cache_bandwidth,
                 sim::TimeCategory::kIo);
    return;
  }
  my_cache.assign(offset, end, true);
  proc.advance(params_.client_overhead, sim::TimeCategory::kIo);
  auto& d = disks_[static_cast<std::size_t>(client)];
  const bool detail = obs::detail();
  const double issue = proc.now();
  double qw = 0.0;
  double done = d.serve(issue, path, offset, bytes, is_write, 0.0, -1, 1.0,
                        detail ? &qw : nullptr, proc.background_io());
  if (detail) {
    obs::gauge_int("ioserver:" + name() + "/" + std::to_string(client) +
                       "/requests",
                   d.requests());
    if (qw > 0.0) {
      obs::record_wait(obs::WaitKind::kServerQueue, issue, issue + qw);
    }
  }
  proc.clock_at_least(done, sim::TimeCategory::kIo);
}

void LocalDiskFs::forget_path(const std::string& path) {
  owners_.erase(path);
  for (auto& per_rank : page_cache_) per_rank.erase(path);
}

}  // namespace paramrio::pfs
