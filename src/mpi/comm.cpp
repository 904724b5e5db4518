#include "mpi/comm.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "verify/verify.hpp"

namespace paramrio::mpi {

namespace {
// Collective-internal tags live far above any user tag.
constexpr int kCollTagBase = 1 << 24;

/// Verifier window around one collective call: reports entry (sequence
/// matching, deadlock-diagnosis stack push) and exit.  No-op when no
/// verifier is attached.
class CollectiveScope {
 public:
  CollectiveScope(const void* comm, int rank, int nranks, int seq,
                  const std::string& op, int root)
      : comm_(comm), rank_(rank) {
    if (verify::Verifier* v = verify::verifier()) {
      v->on_collective_begin(comm, rank, nranks, seq, op, root);
    }
  }
  ~CollectiveScope() {
    if (verify::Verifier* v = verify::verifier()) {
      v->on_collective_end(comm_, rank_);
    }
  }
  CollectiveScope(const CollectiveScope&) = delete;
  CollectiveScope& operator=(const CollectiveScope&) = delete;

 private:
  const void* comm_;
  int rank_;
};

/// Scoped override of Comm::coll_ctx_ while a reduction lowers through
/// reduce_exchange.
class CollCtxGuard {
 public:
  CollCtxGuard(const char*& slot, const char* value)
      : slot_(slot), prev_(slot) {
    slot_ = value;
  }
  ~CollCtxGuard() { slot_ = prev_; }
  CollCtxGuard(const CollCtxGuard&) = delete;
  CollCtxGuard& operator=(const CollCtxGuard&) = delete;

 private:
  const char*& slot_;
  const char* prev_;
};
}  // namespace

std::string Comm::coll_op(const char* name) const {
  if (coll_ctx_ == nullptr) return name;
  std::string out = name;
  out += "[";
  out += coll_ctx_;
  out += "]";
  return out;
}

Runtime::Runtime(RuntimeParams params)
    : params_(params),
      network_(params.net, params.nprocs, params.extra_fabric_nodes) {
  PARAMRIO_REQUIRE(params_.nprocs >= 1, "Runtime needs >= 1 proc");
}

sim::Engine::Result Runtime::run(const std::function<void(Comm&)>& body) {
  mailboxes_.assign(static_cast<std::size_t>(params_.nprocs), {});
  sim::Engine::Options o;
  o.nprocs = params_.nprocs;
  o.seed = params_.seed;
  o.perturb_seed = params_.perturb_seed;
  return sim::Engine::run(o, [this, &body](sim::Proc& proc) {
    Comm comm(*this, proc);
    body(comm);
  });
}

std::vector<sim::Engine::JobResult> MultiRuntime::run(std::vector<Job> jobs) {
  PARAMRIO_REQUIRE(!jobs.empty(), "MultiRuntime: need >= 1 job");
  // One Runtime per job: private fabric and mailboxes, job-local ranks.
  std::vector<std::unique_ptr<Runtime>> runtimes;
  runtimes.reserve(jobs.size());
  std::vector<sim::Engine::JobSpec> specs;
  specs.reserve(jobs.size());
  for (Job& j : jobs) {
    runtimes.push_back(std::make_unique<Runtime>(j.params));
    Runtime* rt = runtimes.back().get();
    rt->mailboxes_.assign(static_cast<std::size_t>(j.params.nprocs), {});
    sim::Engine::JobSpec spec;
    spec.name = j.name;
    spec.nprocs = j.params.nprocs;
    spec.start_time = j.start_time;
    spec.weight = j.weight;
    // `jobs` (and thus each body) outlives the engine run below.
    const std::function<void(Comm&)>& body = j.body;
    spec.body = [rt, &body](sim::Proc& proc) {
      Comm comm(*rt, proc);
      body(comm);
    };
    specs.push_back(std::move(spec));
  }
  sim::Engine::Options o;
  o.seed = jobs.front().params.seed;
  o.perturb_seed = jobs.front().params.perturb_seed;
  return sim::Engine::run_jobs(o, std::move(specs));
}

void Comm::send(int dst, int tag, std::span<const std::byte> data) {
  PARAMRIO_REQUIRE(dst >= 0 && dst < size(), "send: bad destination rank");
  double arrival = rt_->network_.send(*proc_, dst, data.size());
  Runtime::Envelope env;
  env.src = rank();
  env.tag = tag;
  env.arrival = arrival;
  env.payload.assign(data.begin(), data.end());
  rt_->mailboxes_[static_cast<std::size_t>(dst)].push_back(std::move(env));
  if (dst != rank()) proc_->engine().signal(proc_->job(), dst);
}

Bytes Comm::recv(int src, int tag) {
  PARAMRIO_REQUIRE(src >= 0 && src < size(), "recv: bad source rank");
  auto& box = rt_->mailboxes_[static_cast<std::size_t>(rank())];
  for (;;) {
    auto it = std::find_if(box.begin(), box.end(),
                           [&](const Runtime::Envelope& e) {
                             return e.src == src && e.tag == tag;
                           });
    if (it != box.end()) {
      Runtime::Envelope env = std::move(*it);
      box.erase(it);
      if (verify::Verifier* v = verify::verifier()) v->on_recv_done(rank());
      rt_->network_.receive(*proc_, env.arrival, env.payload.size());
      return std::move(env.payload);
    }
    if (verify::Verifier* v = verify::verifier()) {
      v->on_recv_blocked(rank(), src, tag);
    }
    proc_->block();
  }
}

Bytes Comm::sendrecv(int dst, int send_tag, std::span<const std::byte> data,
                     int src, int recv_tag) {
  send(dst, send_tag, data);
  return recv(src, recv_tag);
}

Comm::Request Comm::isend(int dst, int tag, std::span<const std::byte> data) {
  send(dst, tag, data);  // eager: transmitted and buffered at the receiver
  Request r;
  r.kind_ = Request::Kind::kSend;
  r.peer_ = dst;
  r.tag_ = tag;
  return r;
}

Comm::Request Comm::irecv(int src, int tag, Bytes& out) {
  Request r;
  r.kind_ = Request::Kind::kRecv;
  r.peer_ = src;
  r.tag_ = tag;
  r.out_ = &out;
  return r;
}

void Comm::wait(Request& request) {
  switch (request.kind_) {
    case Request::Kind::kNone:
      return;  // MPI_REQUEST_NULL semantics
    case Request::Kind::kSend:
      break;  // eager sends are already complete
    case Request::Kind::kRecv:
      *request.out_ = recv(request.peer_, request.tag_);
      break;
  }
  request.kind_ = Request::Kind::kNone;
}

void Comm::wait_all(std::span<Request> requests) {
  for (Request& r : requests) wait(r);
}

int Comm::fresh_collective_tag() {
  const int seq = coll_seq_++;
  // A caller-implemented collective: it must sit at the same SPMD position
  // on every rank, so it participates in sequence matching like any other.
  CollectiveScope vscope(rt_, rank(), size(), seq, coll_op("user-collective"),
                         -1);
  return kCollTagBase + seq;
}

void Comm::barrier() {
  const int seq = coll_seq_++;
  CollectiveScope vscope(rt_, rank(), size(), seq, coll_op("barrier"), -1);
  int tag = kCollTagBase + seq;
  int p = size();
  for (int k = 1; k < p; k <<= 1) {
    int dst = (rank() + k) % p;
    int src = (rank() - k + p) % p;
    send(dst, tag, {});
    recv(src, tag);
  }
}

void Comm::bcast(Bytes& data, int root) {
  const int seq = coll_seq_++;
  CollectiveScope vscope(rt_, rank(), size(), seq, coll_op("bcast"), root);
  int tag = kCollTagBase + seq;
  int p = size();
  if (p == 1) return;
  int vr = (rank() - root + p) % p;  // relative rank
  int mask = 1;
  while (mask < p) {
    if (vr & mask) {
      int src = (vr - mask + root) % p;
      data = recv(src, tag);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (vr + mask < p) {
      int dst = (vr + mask + root) % p;
      send(dst, tag, data);
    }
    mask >>= 1;
  }
}

std::vector<Bytes> Comm::gatherv(std::span<const std::byte> mine, int root) {
  const int seq = coll_seq_++;
  CollectiveScope vscope(rt_, rank(), size(), seq, coll_op("gatherv"), root);
  int tag = kCollTagBase + seq;
  std::vector<Bytes> result;
  if (rank() == root) {
    result.resize(static_cast<std::size_t>(size()));
    result[static_cast<std::size_t>(root)].assign(mine.begin(), mine.end());
    charge_memcpy(mine.size());
    for (int i = 0; i < size(); ++i) {
      if (i == root) continue;
      result[static_cast<std::size_t>(i)] = recv(i, tag);
    }
  } else {
    send(root, tag, mine);
  }
  return result;
}

Bytes Comm::scatterv(const std::vector<Bytes>& chunks, int root) {
  const int seq = coll_seq_++;
  CollectiveScope vscope(rt_, rank(), size(), seq, coll_op("scatterv"), root);
  int tag = kCollTagBase + seq;
  if (rank() == root) {
    PARAMRIO_REQUIRE(chunks.size() == static_cast<std::size_t>(size()),
                     "scatterv: need one chunk per rank");
    for (int i = 0; i < size(); ++i) {
      if (i == root) continue;
      send(i, tag, chunks[static_cast<std::size_t>(i)]);
    }
    charge_memcpy(chunks[static_cast<std::size_t>(root)].size());
    return chunks[static_cast<std::size_t>(root)];
  }
  return recv(root, tag);
}

std::vector<Bytes> Comm::allgatherv(std::span<const std::byte> mine) {
  const int seq = coll_seq_++;
  CollectiveScope vscope(rt_, rank(), size(), seq, coll_op("allgatherv"), -1);
  int tag = kCollTagBase + seq;
  int p = size();
  std::vector<Bytes> all(static_cast<std::size_t>(p));
  all[static_cast<std::size_t>(rank())].assign(mine.begin(), mine.end());
  // Ring: in step s we forward the block that originated at rank - s.
  int right = (rank() + 1) % p;
  int left = (rank() - 1 + p) % p;
  for (int s = 0; s < p - 1; ++s) {
    int send_block = (rank() - s + p) % p;
    int recv_block = (rank() - s - 1 + p) % p;
    send(right, tag, all[static_cast<std::size_t>(send_block)]);
    all[static_cast<std::size_t>(recv_block)] = recv(left, tag);
  }
  return all;
}

std::vector<Bytes> Comm::alltoallv(const std::vector<Bytes>& out) {
  PARAMRIO_REQUIRE(out.size() == static_cast<std::size_t>(size()),
                   "alltoallv: need one chunk per rank");
  const int seq = coll_seq_++;
  CollectiveScope vscope(rt_, rank(), size(), seq, coll_op("alltoallv"), -1);
  int tag = kCollTagBase + seq;
  int p = size();
  std::vector<Bytes> in(static_cast<std::size_t>(p));
  in[static_cast<std::size_t>(rank())] = out[static_cast<std::size_t>(rank())];
  charge_memcpy(in[static_cast<std::size_t>(rank())].size());
  for (int s = 1; s < p; ++s) {
    int dst = (rank() + s) % p;
    int src = (rank() - s + p) % p;
    send(dst, tag, out[static_cast<std::size_t>(dst)]);
    in[static_cast<std::size_t>(src)] = recv(src, tag);
  }
  return in;
}

Bytes Comm::reduce_exchange(
    const Bytes& mine,
    const std::function<Bytes(const Bytes&, const Bytes&)>& combine) {
  std::vector<Bytes> all = gatherv(mine, 0);
  Bytes result;
  if (rank() == 0) {
    result = all[0];
    for (int i = 1; i < size(); ++i) {
      result = combine(result, all[static_cast<std::size_t>(i)]);
    }
  }
  bcast(result, 0);
  return result;
}

namespace {
template <typename T>
Bytes to_bytes(const T& v) {
  Bytes b(sizeof(T));
  std::memcpy(b.data(), &v, sizeof(T));
  return b;
}
template <typename T>
T from_bytes(const Bytes& b) {
  T v;
  PARAMRIO_REQUIRE(b.size() == sizeof(T), "reduction payload size mismatch");
  std::memcpy(&v, b.data(), sizeof(T));
  return v;
}
}  // namespace

template <typename T, typename Op>
T Comm::allreduce_scalar(const char* signature, T v, Op op) {
  CollCtxGuard ctx(coll_ctx_, signature);
  Bytes r = reduce_exchange(to_bytes(v), [op](const Bytes& a, const Bytes& b) {
    return to_bytes<T>(op(from_bytes<T>(a), from_bytes<T>(b)));
  });
  return from_bytes<T>(r);
}

std::uint64_t Comm::allreduce_sum(std::uint64_t v) {
  return allreduce_scalar("allreduce:u64:sum", v, std::plus<>());
}

std::uint64_t Comm::allreduce_max(std::uint64_t v) {
  return allreduce_scalar("allreduce:u64:max", v,
                          [](auto a, auto b) { return std::max(a, b); });
}

std::uint64_t Comm::allreduce_min(std::uint64_t v) {
  return allreduce_scalar("allreduce:u64:min", v,
                          [](auto a, auto b) { return std::min(a, b); });
}

double Comm::allreduce_max(double v) {
  return allreduce_scalar("allreduce:f64:max", v,
                          [](auto a, auto b) { return std::max(a, b); });
}

std::vector<std::uint64_t> Comm::allreduce_sum(std::vector<std::uint64_t> v) {
  CollCtxGuard ctx(coll_ctx_, "allreduce:u64vec:sum");
  Bytes mine(v.size() * sizeof(std::uint64_t));
  std::memcpy(mine.data(), v.data(), mine.size());
  Bytes r = reduce_exchange(mine, [](const Bytes& a, const Bytes& b) {
    PARAMRIO_REQUIRE(a.size() == b.size(), "vector reduction size mismatch");
    Bytes c(a.size());
    const auto* pa = reinterpret_cast<const std::uint64_t*>(a.data());
    const auto* pb = reinterpret_cast<const std::uint64_t*>(b.data());
    auto* pc = reinterpret_cast<std::uint64_t*>(c.data());
    for (std::size_t i = 0; i < a.size() / sizeof(std::uint64_t); ++i) {
      pc[i] = pa[i] + pb[i];
    }
    return c;
  });
  std::vector<std::uint64_t> out(r.size() / sizeof(std::uint64_t));
  std::memcpy(out.data(), r.data(), r.size());
  return out;
}

void Comm::charge_memcpy(std::uint64_t bytes) {
  if (bytes == 0) return;
  proc_->advance(static_cast<double>(bytes) / cpu().memcpy_bandwidth,
                 sim::TimeCategory::kCpu);
}

void Comm::charge_sort(std::uint64_t n) {
  if (n < 2) return;
  double logn = std::log2(static_cast<double>(n));
  proc_->advance(static_cast<double>(n) * logn * cpu().sort_element_cost,
                 sim::TimeCategory::kCpu);
}

}  // namespace paramrio::mpi
