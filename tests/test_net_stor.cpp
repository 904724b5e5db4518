// Unit tests for the network cost model and the storage primitives.
#include <gtest/gtest.h>

#include "net/network.hpp"
#include "obs/registry.hpp"
#include "sim/engine.hpp"
#include "stor/disk.hpp"
#include "stor/object_store.hpp"

namespace paramrio {
namespace {

using net::Network;
using net::NetworkParams;
using sim::Engine;
using sim::Proc;

Engine::Options opts(int n) {
  Engine::Options o;
  o.nprocs = n;
  return o;
}

NetworkParams simple_net() {
  NetworkParams p;
  p.latency = 1.0e-3;
  p.bandwidth = 1.0e6;  // 1 MB/s: easy arithmetic
  p.send_overhead = 0.0;
  p.recv_byte_cost = 0.0;
  return p;
}

TEST(Network, PointToPointTiming) {
  NetworkParams p = simple_net();
  Engine::run(opts(2), [&](Proc& proc) {
    Network nw(p, 2);
    if (proc.rank() == 0) {
      double arrival = nw.send(proc, 1, 1'000'000);  // 1 MB at 1 MB/s
      EXPECT_DOUBLE_EQ(proc.now(), 1.0);             // sender occupied 1 s
      EXPECT_DOUBLE_EQ(arrival, 1.0 + 1.0e-3);       // + latency
    }
  });
}

TEST(Network, IntraNodeIsCheaper) {
  NetworkParams p = simple_net();
  p.procs_per_node = 2;
  p.intra_node_bandwidth = 1.0e8;
  p.intra_node_latency = 1.0e-6;
  Engine::run(opts(2), [&](Proc& proc) {
    Network nw(p, 2);
    if (proc.rank() == 0) {
      double arrival = nw.send(proc, 1, 1'000'000);
      EXPECT_LT(arrival, 0.1);  // far below the 1 s inter-node time
    }
  });
}

TEST(Network, ReceiverCopyCostAccrues) {
  NetworkParams p = simple_net();
  p.recv_byte_cost = 1.0e-6;  // 1 MB/s copy
  Engine::run(opts(1), [&](Proc& proc) {
    Network nw(p, 1);
    nw.receive(proc, /*arrival=*/0.5, /*bytes=*/1'000'000);
    EXPECT_DOUBLE_EQ(proc.now(), 1.5);  // wait to 0.5, then 1 s of copying
  });
}

TEST(Network, NicContentionSerializesSendersToOneNode) {
  // Two senders to the same destination node: with NIC contention the
  // destination NIC serialises the transfers.
  NetworkParams p = simple_net();
  p.nic_contention = true;
  Network nw(p, 3);
  // Pin the classic rank tie order: the assertion below names rank 1 as
  // the *second* sender into node 2's NIC queue.
  Engine::Options o = opts(3);
  o.env_perturb = false;
  Engine::run(o, [&](Proc& proc) {
    if (proc.rank() != 2) {
      nw.send(proc, 2, 1'000'000);
    }
    if (proc.rank() == 1) {
      // both transfers queued on node 2's NIC: second ends at 2 s
      EXPECT_GE(proc.now(), 2.0);
    }
  });
}

TEST(Network, BackplaneCapsAggregateBandwidth) {
  NetworkParams p = simple_net();
  p.backplane_bandwidth = 1.0e6;  // shared medium equal to one link
  Network nw(p, 4);
  auto r = Engine::run(opts(4), [&](Proc& proc) {
    // ranks 0,1 send to 2,3 — disjoint pairs, but shared backplane
    if (proc.rank() < 2) nw.send(proc, proc.rank() + 2, 1'000'000);
  });
  // Aggregate 2 MB over a 1 MB/s backplane: last completion ~2 s.
  EXPECT_GE(r.makespan, 2.0);
}

TEST(Network, WithoutContentionParallelSendsOverlap) {
  NetworkParams p = simple_net();
  Network nw(p, 4);
  auto r = Engine::run(opts(4), [&](Proc& proc) {
    if (proc.rank() < 2) nw.send(proc, proc.rank() + 2, 1'000'000);
  });
  EXPECT_LT(r.makespan, 1.5);  // both finish ≈ 1 s
}

// Drain traffic is a background class on the NICs and the backplane: a
// background transfer reserved far into the future must not move a later
// foreground transfer, on a shared source NIC, a shared destination NIC
// and the shared backplane alike.
TEST(Network, BackgroundTransferNeverDelaysForeground) {
  NetworkParams p = simple_net();
  p.nic_contention = true;
  p.backplane_bandwidth = 1.0e6;
  Engine::run(opts(1), [&](Proc&) {
    // Nodes 0 and 1 are compute nodes, node 2 an extra (I/O) node.
    Network quiet(p, 2, 1);
    Network busy(p, 2, 1);
    EXPECT_DOUBLE_EQ(busy.wire_transfer(0.0, 0, 2, 5'000'000, true), 5.0);
    EXPECT_DOUBLE_EQ(busy.wire_transfer(1.0, 0, 2, 1'000'000),
                     quiet.wire_transfer(1.0, 0, 2, 1'000'000));
    EXPECT_DOUBLE_EQ(busy.wire_transfer(1.0, 1, 2, 1'000'000),
                     quiet.wire_transfer(1.0, 1, 2, 1'000'000));
    EXPECT_DOUBLE_EQ(busy.wire_transfer(1.5, 1, 0, 1'000'000),
                     quiet.wire_transfer(1.5, 1, 0, 1'000'000));
    EXPECT_EQ(busy.counters().wire_transfers, 4u);
    EXPECT_EQ(busy.counters().background_transfers, 1u);
    EXPECT_EQ(busy.counters().background_bytes, 5'000'000u);

    // The counters reach the registry only when drain traffic was seen.
    obs::MetricsRegistry with_bg, without_bg;
    busy.export_counters(with_bg);
    quiet.export_counters(without_bg);
    EXPECT_EQ(with_bg.get("net", "background_transfers"), 1u);
    EXPECT_EQ(with_bg.get("net", "background_bytes"), 5'000'000u);
    EXPECT_EQ(without_bg.scopes().at("net").counters.count(
                  "background_transfers"),
              0u);
    EXPECT_EQ(without_bg.scopes().at("net").counters.count("background_bytes"),
              0u);
  });
}

TEST(Network, BackgroundTransferQueuesBehindBothClasses) {
  NetworkParams p = simple_net();
  p.nic_contention = true;
  p.backplane_bandwidth = 1.0e6;
  Engine::run(opts(1), [&](Proc&) {
    Network nw(p, 2, 1);
    EXPECT_DOUBLE_EQ(nw.wire_transfer(0.0, 0, 2, 2'000'000), 2.0);
    // Issued at 1.0 on a disjoint source NIC, but the destination NIC and
    // the backplane carry foreground work until 2.0.
    EXPECT_DOUBLE_EQ(nw.wire_transfer(1.0, 1, 2, 1'000'000, true), 3.0);
    // A second background transfer also queues behind the first.
    EXPECT_DOUBLE_EQ(nw.wire_transfer(0.0, 1, 0, 1'000'000, true), 4.0);
  });
}

TEST(Network, NodeMapping) {
  NetworkParams p;
  p.procs_per_node = 4;
  Engine::run(opts(1), [&](Proc&) {
    Network nw(p, 9, 2);
    EXPECT_EQ(nw.node_of(0), 0);
    EXPECT_EQ(nw.node_of(3), 0);
    EXPECT_EQ(nw.node_of(4), 1);
    EXPECT_EQ(nw.node_of(8), 2);
    EXPECT_EQ(nw.compute_nodes(), 3);
    EXPECT_TRUE(nw.same_node(0, 3));
    EXPECT_FALSE(nw.same_node(3, 4));
  });
}

TEST(ObjectStore, CreateWriteReadRoundTrip) {
  stor::ObjectStore os;
  os.create("a");
  std::vector<std::byte> data(100);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::byte>(i);
  os.write_at("a", 50, data);
  EXPECT_EQ(os.size("a"), 150u);  // zero-extended head
  std::vector<std::byte> out(100);
  os.read_at("a", 50, out);
  EXPECT_EQ(out, data);
  std::vector<std::byte> head(50);
  os.read_at("a", 0, head);
  for (auto b : head) EXPECT_EQ(b, std::byte{0});
}

TEST(ObjectStore, ReadPastEndThrows) {
  stor::ObjectStore os;
  os.create("a");
  std::vector<std::byte> out(1);
  EXPECT_THROW(os.read_at("a", 0, out), IoError);
}

TEST(ObjectStore, MissingObjectThrows) {
  stor::ObjectStore os;
  std::vector<std::byte> out(1);
  EXPECT_THROW(os.read_at("nope", 0, out), IoError);
  EXPECT_THROW(os.remove("nope"), IoError);
  EXPECT_THROW(os.size("nope"), IoError);
}

TEST(ObjectStore, ListAndTotals) {
  stor::ObjectStore os;
  os.create("x");
  os.create("y");
  std::vector<std::byte> data(10);
  os.write_at("x", 0, data);
  os.write_at("y", 0, data);
  EXPECT_EQ(os.list().size(), 2u);
  EXPECT_EQ(os.total_bytes(), 20u);
  os.remove("x");
  EXPECT_EQ(os.total_bytes(), 10u);
}

TEST(IoServer, SequentialAccessSkipsSeek) {
  stor::DiskParams p;
  p.seek_time = 1.0;
  p.bandwidth = 1.0e6;
  p.request_overhead = 0.0;
  stor::IoServer s(p);
  // First request: seek (cold head).
  double t1 = s.serve(0.0, "f", 0, 1'000'000);
  EXPECT_DOUBLE_EQ(t1, 2.0);  // 1 s seek + 1 s transfer
  // Sequential continuation: no seek.
  double t2 = s.serve(t1, "f", 1'000'000, 1'000'000);
  EXPECT_DOUBLE_EQ(t2, 3.0);
  // Jump: seek again.
  double t3 = s.serve(t2, "f", 0, 1'000'000);
  EXPECT_DOUBLE_EQ(t3, 5.0);
  // Different object at the "right" offset: still a seek.
  double t4 = s.serve(t3, "g", 1'000'000, 0);
  EXPECT_DOUBLE_EQ(t4, 6.0);
  EXPECT_EQ(s.requests(), 4u);
  EXPECT_EQ(s.bytes_moved(), 3'000'000u);
}

TEST(IoServer, QueueingDelaysLateArrivals) {
  stor::DiskParams p;
  p.seek_time = 0.0;
  p.bandwidth = 1.0e6;
  p.request_overhead = 0.0;
  stor::IoServer s(p);
  EXPECT_DOUBLE_EQ(s.serve(0.0, "f", 0, 1'000'000), 1.0);
  // Issued at 0.5 but the disk is busy until 1.0.
  EXPECT_DOUBLE_EQ(s.serve(0.5, "f", 1'000'000, 1'000'000), 2.0);
}

// A background (drain) request booked ahead of a foreground request must
// change neither the foreground request's queueing nor its seek: the two
// classes queue and position independently, on the FIFO path (job < 0) and
// the fair-share path (job >= 0) alike.
TEST(IoServer, BackgroundRequestLeavesForegroundUnchanged) {
  stor::DiskParams p;
  p.seek_time = 1.0;
  p.near_seek_time = 0.25;
  p.bandwidth = 1.0e6;
  p.request_overhead = 0.0;
  for (int job : {-1, 0}) {
    SCOPED_TRACE(job < 0 ? "fifo" : "fair-share");
    stor::IoServer quiet(p), busy(p);
    for (stor::IoServer* s : {&quiet, &busy}) {
      EXPECT_DOUBLE_EQ(s->serve(0.0, "f", 0, 1'000'000, false, 0.0, job), 2.0);
    }
    // Background read of another object at 0.5: waits for the foreground
    // request, pays a cold seek on its own head, reserves until 8.0.
    double bg_wait = -1.0;
    EXPECT_DOUBLE_EQ(busy.serve(0.5, "g", 0, 5'000'000, false, 0.0, job, 1.0,
                                &bg_wait, /*background=*/true),
                     8.0);
    EXPECT_DOUBLE_EQ(bg_wait, 1.5);
    // A sequential continuation of "f" is still seek-free and unqueued.
    const double fg_quiet =
        quiet.serve(2.0, "f", 1'000'000, 1'000'000, false, 0.0, job);
    double fg_wait = -1.0;
    const double fg_busy = busy.serve(2.0, "f", 1'000'000, 1'000'000, false,
                                      0.0, job, 1.0, &fg_wait);
    EXPECT_DOUBLE_EQ(fg_quiet, 3.0);
    EXPECT_DOUBLE_EQ(fg_busy, fg_quiet);
    EXPECT_DOUBLE_EQ(fg_wait, 0.0);
    EXPECT_DOUBLE_EQ(busy.next_free(), quiet.next_free());
    // The background class streams on its own head: "g" continues
    // seek-free behind its own horizon.
    EXPECT_DOUBLE_EQ(busy.serve(2.0, "g", 5'000'000, 1'000'000, false, 0.0,
                                job, 1.0, nullptr, true),
                     9.0);
    EXPECT_EQ(busy.background_requests(), 2u);
    EXPECT_EQ(busy.background_bytes(), 6'000'000u);
    EXPECT_EQ(busy.requests(), 4u);
    if (job >= 0) {
      // Job 0's foreground ended at 3.0; its background work, booked to
      // 9.0, does not make it an active tenant that stretches job 1.
      EXPECT_DOUBLE_EQ(busy.serve(3.5, "h", 0, 1'000'000, true, 0.0, 1),
                       4.75);
    }
  }
}

TEST(IoServer, ResetClearsState) {
  stor::DiskParams p;
  p.seek_time = 1.0;
  p.bandwidth = 1.0e6;
  p.request_overhead = 0.0;
  stor::IoServer s(p);
  s.serve(0.0, "f", 0, 1000);
  s.reset();
  EXPECT_DOUBLE_EQ(s.next_free(), 0.0);
  EXPECT_EQ(s.requests(), 0u);
}

}  // namespace
}  // namespace paramrio
