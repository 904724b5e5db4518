// Disk and I/O-server cost models.
//
// A Disk is characterised by a positioning (seek + rotational) cost and a
// streaming transfer rate.  An IoServer wraps a Disk with a FIFO request
// queue (virtual-time Timeline), a fixed per-request software overhead, and
// sequentiality tracking: a request that does not start where the previous
// one on this server ended pays the positioning cost.  This is what makes
// many small strided accesses expensive and large contiguous streams cheap —
// the central mechanism behind the paper's Figures 6-9.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "base/units.hpp"
#include "sim/engine.hpp"

namespace paramrio::stor {

struct DiskParams {
  double seek_time = ms(8);           ///< positioning cost, random access
  double bandwidth = mb_per_s(30);    ///< streaming rate, bytes/s
  double request_overhead = ms(0.5);  ///< software/controller cost per request

  /// A short forward skip (within near_window bytes of the previous end of
  /// the same object) costs only near_seek_time — the head barely moves and
  /// track buffers/read-ahead absorb most of it.
  double near_seek_time = ms(1);
  std::uint64_t near_window = 4 * MiB;
};

/// One I/O server (an I/O node's disk path, or one spindle of a striped
/// volume).  All methods are virtual-time bookkeeping; bytes live elsewhere.
class IoServer {
 public:
  explicit IoServer(DiskParams params) : params_(params) {}

  /// Per-tenant device-share accounting under fair-share arbitration.
  struct JobShare {
    double busy = 0.0;          ///< this job's service horizon (virtual time)
    double weight = 1.0;        ///< fair-share weight last seen for the job
    double service_time = 0.0;  ///< raw (unstretched) service consumed
    std::uint64_t bytes = 0;
    std::uint64_t requests = 0;
  };

  /// Cost of a request of `bytes` at (`object`,`offset`) issued at `start`;
  /// returns completion time and updates the queue and head position.
  /// Writes are buffered (write-behind): a non-sequential write pays at most
  /// the near-seek cost, because the server coalesces and destages lazily.
  /// `extra_service` lets the file system add protocol costs (e.g. GPFS
  /// token/lock transfers) into the same FIFO.
  ///
  /// Multi-tenant arbitration: when `job` >= 0 the request is arbitrated by
  /// weighted fair queueing across jobs instead of global FIFO — each job
  /// keeps its own service horizon, and a request issued while other jobs
  /// are backlogged is stretched by (sum of active weights)/`weight`, so N
  /// equal-weight tenants each see ~1/N of the device.  With one active job
  /// the stretch factor is exactly 1.0 and the result is bit-identical to
  /// the FIFO timeline, so single-job runs are unaffected.  `job` < 0 keeps
  /// the plain FIFO path.
  /// `queue_wait`, when non-null, receives the time the request spent
  /// queued behind other work (completion - start - service; under
  /// fair-share this includes the stretch charged for competing tenants).
  /// `background` marks housekeeping traffic (the staging tier's drain): on
  /// either path it is served in the timeline's background class
  /// (sim::Timeline) — after all foreground work, never ahead of it, with no
  /// fair-share stretch — and it positions against a head of its own, so a
  /// foreground request's seek cost and completion time are the same with
  /// or without background requests booked before it.
  double serve(double start, const std::string& object, std::uint64_t offset,
               std::uint64_t bytes, bool is_write = false,
               double extra_service = 0.0, int job = -1, double weight = 1.0,
               double* queue_wait = nullptr, bool background = false) {
    double service = params_.request_overhead + extra_service +
                     static_cast<double>(bytes) / params_.bandwidth;
    Head& head = background ? background_head_ : head_;
    if (object == head.object && offset == head.end) {
      // Sequential continuation: free.
    } else if (is_write) {
      service += params_.near_seek_time;
    } else if (object == head.object && offset >= head.end &&
               offset - head.end <= params_.near_window) {
      service += params_.near_seek_time;
    } else {
      service += params_.seek_time;
    }
    head.object = object;
    head.end = offset + bytes;
    requests_ += 1;
    bytes_moved_ += bytes;
    if (background) {
      background_requests_ += 1;
      background_bytes_ += bytes;
    }
    JobShare* mine = nullptr;
    if (job >= 0) {
      mine = &shares_[job];
      mine->weight = weight;
      mine->service_time += service;
      mine->bytes += bytes;
      mine->requests += 1;
    }
    if (mine == nullptr || background) {
      // Under fair share the aggregate envelope covers every job's
      // foreground horizon, so a background request waits for all of them
      // and moves none.
      const double completion = busy_.acquire(start, service, background);
      if (queue_wait != nullptr) *queue_wait = completion - start - service;
      return completion;
    }

    double active_weight = 0.0;
    for (const auto& [j, share] : shares_) {
      if (j != job && share.busy > start) active_weight += share.weight;
    }
    const double stretch = (active_weight + weight) / weight;
    const double completion =
        std::max(start, mine->busy) + service * stretch;
    mine->busy = completion;
    busy_.raise(completion);  // keep the aggregate envelope truthful
    if (queue_wait != nullptr) *queue_wait = completion - start - service;
    return completion;
  }

  double next_free() const { return busy_.next_free(); }
  std::uint64_t requests() const { return requests_; }
  std::uint64_t bytes_moved() const { return bytes_moved_; }
  /// Housekeeping traffic (drain migrations) served so far.
  std::uint64_t background_requests() const { return background_requests_; }
  std::uint64_t background_bytes() const { return background_bytes_; }
  const DiskParams& params() const { return params_; }

  /// Per-job device shares seen so far (empty unless fair-share requests
  /// were served); key is the engine job index.
  const std::map<int, JobShare>& job_shares() const { return shares_; }

  void reset() {
    busy_.reset();
    head_ = Head{};
    background_head_ = Head{};
    requests_ = 0;
    bytes_moved_ = 0;
    background_requests_ = 0;
    background_bytes_ = 0;
    shares_.clear();
  }

 private:
  /// Where the last request of a class ended; sequentiality is judged per
  /// class.
  struct Head {
    std::string object;
    std::uint64_t end = 0;
  };

  DiskParams params_;
  sim::Timeline busy_;
  Head head_;
  Head background_head_;
  std::uint64_t requests_ = 0;
  std::uint64_t bytes_moved_ = 0;
  std::uint64_t background_requests_ = 0;
  std::uint64_t background_bytes_ = 0;
  std::map<int, JobShare> shares_;
};

}  // namespace paramrio::stor
