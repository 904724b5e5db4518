// Mini-MPI: communicator, point-to-point messaging, and collectives, all
// executed on the virtual-time engine with real byte payloads.
//
// The subset mirrors what the ENZO I/O paths and the ROMIO-style I/O layer
// need: blocking send/recv with tags, sendrecv, barrier, bcast, gather(v),
// scatter(v), allgather(v), alltoallv, and reductions.  Collectives are
// implemented over point-to-point with the classic deterministic algorithms
// (dissemination barrier, binomial bcast/reduce, ring allgather, pairwise
// alltoallv), so their cost structure responds to the platform's network
// parameters the same way a 2002 MPICH would.
#pragma once

#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "sim/engine.hpp"

namespace paramrio::mpi {

using Bytes = std::vector<std::byte>;

/// CPU-side cost knobs (memory copies, sorting) for the simulated hosts.
struct CpuParams {
  double memcpy_bandwidth = mb_per_s(300);   ///< packing/unpacking rate
  double sort_element_cost = 150e-9;         ///< per element·log2(n) seconds
};

struct RuntimeParams {
  net::NetworkParams net;
  CpuParams cpu;
  int nprocs = 1;
  int extra_fabric_nodes = 0;  ///< NICs for I/O servers on the same fabric
  std::uint64_t seed = 0x5eed5eed5eedULL;
  /// Scheduler tie-shuffle seed (sim::Engine::Options::perturb_seed);
  /// 0 keeps lowest-rank tie-breaks (PARAMRIO_SCHED_SEED may still apply).
  std::uint64_t perturb_seed = 0;
};

class Comm;

/// Shared state of one SPMD run: the fabric and the per-destination
/// mailboxes.  Construct once, then call run() with the rank body.
class Runtime {
 public:
  explicit Runtime(RuntimeParams params);

  /// Execute `body(comm)` on params.nprocs ranks; returns engine results.
  sim::Engine::Result run(const std::function<void(Comm&)>& body);

  net::Network& network() { return network_; }
  const RuntimeParams& params() const { return params_; }

 private:
  friend class Comm;
  friend class MultiRuntime;
  struct Envelope {
    int src = 0;
    int tag = 0;
    double arrival = 0.0;
    Bytes payload;
  };

  RuntimeParams params_;
  net::Network network_;
  std::vector<std::deque<Envelope>> mailboxes_;  // one per destination rank
};

/// Multi-tenant driver: several independent SPMD jobs — each with its own
/// Runtime (compute fabric + mailboxes) — executing concurrently on one
/// shared virtual timeline (sim::Engine::run_jobs).  The mpi layer is fully
/// job-local: ranks, tags and collectives never cross jobs.  Contention
/// happens in whatever *shared* resources the bodies capture — typically one
/// pfs::FileSystem on its own storage fabric, which identifies clients by
/// Proc::global_rank() and arbitrates its I/O servers by per-job fair share.
class MultiRuntime {
 public:
  struct Job {
    std::string name;  ///< metrics-scope label; "" = anonymous
    RuntimeParams params;
    std::function<void(Comm&)> body;
    double start_time = 0.0;  ///< virtual time the job's ranks start at
    double weight = 1.0;      ///< fair-share weight at shared I/O servers
  };

  /// Run all jobs to completion; returns one JobResult per job, in order
  /// (clocks are absolute — subtract start_time for job-local elapsed).
  /// Engine-level seeds come from the *first* job's params (seed,
  /// perturb_seed), matching Runtime::run for the single-job case.  Any
  /// rank's exception aborts the whole run and is rethrown.
  static std::vector<sim::Engine::JobResult> run(std::vector<Job> jobs);
};

/// Per-rank communicator handle (value semantics over the shared Runtime).
class Comm {
 public:
  Comm(Runtime& rt, sim::Proc& proc) : rt_(&rt), proc_(&proc) {}

  int rank() const { return proc_->rank(); }
  int size() const { return proc_->nprocs(); }
  sim::Proc& proc() { return *proc_; }
  net::Network& network() { return rt_->network_; }
  const CpuParams& cpu() const { return rt_->params_.cpu; }

  // ---- point to point -----------------------------------------------------

  void send(int dst, int tag, std::span<const std::byte> data);

  /// Blocking receive of the next message from `src` with `tag`.
  Bytes recv(int src, int tag);

  /// Combined exchange (deadlock-free; sends are buffered anyway).
  Bytes sendrecv(int dst, int send_tag, std::span<const std::byte> data,
                 int src, int recv_tag);

  // ---- nonblocking point to point ----------------------------------------
  // Sends are eager-buffered (as 2002 MPICH for moderate messages): isend
  // pays the wire cost up front and completes immediately; irecv posts the
  // receive, and wait()/wait_all() block until the message is consumed.

  class Request {
   public:
    Request() = default;
    bool active() const { return kind_ != Kind::kNone; }

   private:
    friend class Comm;
    enum class Kind : std::uint8_t { kNone, kSend, kRecv };
    Kind kind_ = Kind::kNone;
    int peer_ = -1;
    int tag_ = 0;
    Bytes* out_ = nullptr;
  };

  Request isend(int dst, int tag, std::span<const std::byte> data);
  Request irecv(int src, int tag, Bytes& out);
  void wait(Request& request);
  void wait_all(std::span<Request> requests);

  /// Typed convenience wrappers for trivially copyable element types.
  template <typename T>
  void send_values(int dst, int tag, std::span<const T> values) {
    send(dst, tag, std::as_bytes(values));
  }
  template <typename T>
  std::vector<T> recv_values(int src, int tag) {
    Bytes raw = recv(src, tag);
    PARAMRIO_REQUIRE(raw.size() % sizeof(T) == 0, "recv_values: size mismatch");
    std::vector<T> out(raw.size() / sizeof(T));
    std::memcpy(out.data(), raw.data(), raw.size());
    return out;
  }

  // ---- collectives ----------------------------------------------------

  void barrier();

  /// Root's `data` is replicated into every rank's `data`.
  void bcast(Bytes& data, int root);

  /// Gather variable-size contributions; only root's return value is
  /// populated (size() entries, in rank order).
  std::vector<Bytes> gatherv(std::span<const std::byte> mine, int root);

  /// Scatter per-rank chunks from root; returns this rank's chunk.
  Bytes scatterv(const std::vector<Bytes>& chunks, int root);

  /// Every rank receives every rank's contribution, in rank order.
  std::vector<Bytes> allgatherv(std::span<const std::byte> mine);

  /// Personalized all-to-all exchange of variable-size chunks
  /// (out[i] goes to rank i; returns in[i] from rank i).
  std::vector<Bytes> alltoallv(const std::vector<Bytes>& out);

  /// Element-wise reductions over small vectors (metadata-scale payloads).
  std::uint64_t allreduce_sum(std::uint64_t v);
  std::uint64_t allreduce_max(std::uint64_t v);
  std::uint64_t allreduce_min(std::uint64_t v);
  double allreduce_max(double v);
  std::vector<std::uint64_t> allreduce_sum(std::vector<std::uint64_t> v);

  /// Reserve a tag for a caller-implemented collective exchange.  Every rank
  /// must call at the same point in the SPMD program (same sequence number).
  int fresh_collective_tag();

  // ---- CPU cost charging ---------------------------------------------

  /// Charge the local host for moving `bytes` through memory (pack/unpack).
  void charge_memcpy(std::uint64_t bytes);

  /// Charge for comparison-sorting n elements.
  void charge_sort(std::uint64_t n);

 private:
  Bytes reduce_exchange(
      const Bytes& mine,
      const std::function<Bytes(const Bytes&, const Bytes&)>& combine);
  /// The scalar allreduce_* lowering: combine every rank's `v` with `op`
  /// under the verifier's collective signature `signature`.
  template <typename T, typename Op>
  T allreduce_scalar(const char* signature, T v, Op op);

  /// Render a collective op name for the verifier, stitching in the active
  /// reduction signature ("gatherv[allreduce:u64:sum]") so reductions that
  /// lower to the same collective skeleton stay distinguishable.
  std::string coll_op(const char* name) const;

  Runtime* rt_;
  sim::Proc* proc_;
  int coll_seq_ = 0;  ///< collective sequence number (same on all ranks)
  /// Signature of the reduction currently lowering through reduce_exchange
  /// (nullptr outside one); only read when a verifier is attached.
  const char* coll_ctx_ = nullptr;
};

}  // namespace paramrio::mpi
