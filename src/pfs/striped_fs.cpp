#include "pfs/striped_fs.hpp"

#include <algorithm>

#include "obs/profiler.hpp"
#include "obs/registry.hpp"

namespace paramrio::pfs {

StripedFs::StripedFs(StripedFsParams params, net::Network& network)
    : params_(params), network_(network) {
  PARAMRIO_REQUIRE(params_.n_io_nodes >= 1, "StripedFs needs >= 1 I/O node");
  if (params_.client_cache_bandwidth > 0.0) {
    enable_cache(params_.client_cache_bandwidth);
  }
  servers_.reserve(static_cast<std::size_t>(params_.n_io_nodes));
  for (int i = 0; i < params_.n_io_nodes; ++i) {
    servers_.emplace_back(params_.server_disk);
  }
  smp_channels_.resize(static_cast<std::size_t>(network_.compute_nodes()));
}

std::uint64_t StripedFs::total_server_requests() const {
  std::uint64_t n = 0;
  for (const auto& s : servers_) n += s.requests();
  return n;
}

void StripedFs::export_counters(obs::MetricsRegistry& reg) const {
  FileSystem::export_counters(reg);
  const std::string scope = "fs:" + name();
  reg.add(scope, "server_requests", total_server_requests());
  reg.add(scope, "write_token_transfers", token_transfers_);
  // Drain/housekeeping traffic; nonzero-only so exports from runs without a
  // staging tier stay byte-identical to previous releases.
  std::uint64_t bg_bytes = 0;
  std::uint64_t bg_requests = 0;
  for (const auto& s : servers_) {
    bg_bytes += s.background_bytes();
    bg_requests += s.background_requests();
  }
  if (bg_requests > 0) {
    reg.add(scope, "background_requests", bg_requests);
    reg.add(scope, "background_bytes", bg_bytes);
  }
  // Per-tenant device shares aggregated over all I/O nodes; emitted only for
  // genuinely multi-job runs so single-job exports stay byte-identical.
  std::map<int, std::uint64_t> job_requests;
  std::map<int, std::uint64_t> job_bytes;
  for (const auto& s : servers_) {
    for (const auto& [job, share] : s.job_shares()) {
      job_requests[job] += share.requests;
      job_bytes[job] += share.bytes;
    }
  }
  if (job_requests.size() > 1) {
    for (const auto& [job, reqs] : job_requests) {
      const std::string jscope = scope + "|job:#" + std::to_string(job);
      reg.add(jscope, "server_requests", reqs);
      reg.add(jscope, "server_bytes", job_bytes[job]);
    }
  }
}

void StripedFs::charge(sim::Proc& proc, const std::string& path,
                       std::uint64_t offset, std::uint64_t bytes,
                       bool is_write) {
  proc.advance(params_.client_overhead, sim::TimeCategory::kIo);
  // Clients are identified by global rank: a shared fs serving several jobs
  // must not alias job-local rank 0s onto one node or one token owner.
  const int client = proc.global_rank();
  const int client_node = network_.node_of(client);
  const int io_base = network_.compute_nodes();
  // Drain traffic books every shared timeline in the background class.
  const bool background = proc.background_io();

  // Byte-range write tokens at stripe granularity (GPFS rounds byte-range
  // tokens out to block boundaries): a write pays one transfer — serialised
  // through the (single) token manager — whenever any stripe it touches is
  // held by a different client.  Unowned stripes are claimed for free, so a
  // single writer streams; interleaved writers sharing boundary stripes
  // ping-pong the token — GPFS's shared-file concurrent-writer penalty and
  // the false sharing behind the paper's Figure 7.
  double req_start = proc.now();
  if (is_write && params_.write_lock_cost > 0.0 && bytes > 0) {
    RunMap<int>& owners = token_owner_[path];
    const std::uint64_t ss = params_.stripe_size;
    const std::uint64_t s_lo = offset / ss;
    const std::uint64_t s_hi = (offset + bytes + ss - 1) / ss;
    const double token_wait_start = proc.now();
    bool conflict = false;
    owners.for_each(s_lo, s_hi, [&](std::uint64_t, std::uint64_t, int owner) {
      conflict = conflict || owner != client;
    });
    if (conflict) {
      req_start = token_manager_.acquire(req_start, params_.write_lock_cost,
                                         background);
      ++token_transfers_;
      obs::record_wait(obs::WaitKind::kTokenWait, token_wait_start,
                       req_start);
    }
    owners.assign(s_lo, s_hi, client);
  }

  const bool detail = obs::detail();
  double done = req_start;
  double crit_queue_wait = 0.0;  // queue wait of the completion-critical chunk
  for_each_stripe_chunk(
      offset, bytes, params_.stripe_size, params_.n_io_nodes,
      [&](const StripeChunk& c) {
        double t = req_start;
        double chunk_wait = 0.0;
        if (params_.smp_io_channel) {
          auto& ch = smp_channels_[static_cast<std::size_t>(client_node)];
          if (detail) chunk_wait += ch.earliest_start(t, background) - t;
          t = ch.acquire(t,
                         params_.smp_channel_overhead +
                             static_cast<double>(c.length) /
                                 params_.smp_channel_bandwidth,
                         background);
        }
        t = network_.wire_transfer(t, client_node, io_base + c.server,
                                   c.length, background);
        auto& srv = servers_[static_cast<std::size_t>(c.server)];
        double srv_wait = 0.0;
        if (detail) {
          obs::gauge("ioserver:" + name() + "/" + std::to_string(c.server) +
                         "/backlog",
                     std::max(0.0, srv.next_free() - t));
        }
        const double completion =
            srv.serve(t, path, c.server_offset, c.length, is_write, 0.0,
                      proc.job(), proc.job_weight(),
                      detail ? &srv_wait : nullptr, background);
        if (detail) {
          const std::string server_track =
              "ioserver:" + name() + "/" + std::to_string(c.server);
          obs::gauge_int(server_track + "/requests", srv.requests());
          // Per-job backlog/request tracks exist only on genuinely
          // multi-tenant runs (lone-tenant timelines stay identical to
          // single-job runs).  Gate on the run's static job count, not the
          // server's seen-tenant count: the latter flips mid-run at a
          // seed-dependent point, which would perturb the track contents.
          if (proc.njobs() > 1) {
            const auto& share = srv.job_shares().at(proc.job());
            const std::string job_track =
                server_track + "/job:" + std::to_string(proc.job());
            obs::gauge_int(job_track + "/requests", share.requests);
            obs::gauge(job_track + "/backlog",
                       std::max(0.0, share.busy - t));
          }
        }
        if (completion > done) {
          done = completion;
          crit_queue_wait = chunk_wait + srv_wait;
        }
      },
      object_first_server(path, params_.n_io_nodes));
  if (crit_queue_wait > 0.0) {
    // The charge advances the clock to `done`; attribute the critical
    // chunk's queueing share of that window as a server-queue wait.
    obs::record_wait(obs::WaitKind::kServerQueue, req_start,
                     req_start + crit_queue_wait);
  }
  proc.clock_at_least(done, sim::TimeCategory::kIo);
}

}  // namespace paramrio::pfs
