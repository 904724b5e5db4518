#include "platform/machine.hpp"

namespace paramrio::platform {

Machine origin2000_xfs() {
  Machine m;
  m.name = "Origin2000/XFS";
  // ccNUMA shared memory: low latency, high per-pair bandwidth, no NIC
  // serialisation (the fat-hypercube has ample bisection); many-to-one
  // traffic is bounded by the receiver's memory copies.
  m.net.latency = us(2);
  m.net.bandwidth = mb_per_s(280);
  m.net.intra_node_latency = us(2);
  m.net.intra_node_bandwidth = mb_per_s(280);
  m.net.send_overhead = us(3);
  m.net.recv_byte_cost = 1.0 / mb_per_s(300);
  m.net.procs_per_node = 1;
  m.net.nic_contention = false;
  m.cpu.memcpy_bandwidth = mb_per_s(300);
  m.cpu.sort_element_cost = 150e-9;

  m.fs_kind = FsKind::kLocalXfs;
  m.local_fs.n_disks = 12;
  m.local_fs.stripe_size = MiB;
  m.local_fs.disk = stor::DiskParams{ms(5), mb_per_s(45), ms(0.3)};
  m.local_fs.client_overhead = us(60);
  m.local_fs.metadata = ms(0.5);
  return m;
}

Machine sp2_gpfs() {
  Machine m;
  m.name = "IBM-SP/GPFS";
  // SMP nodes on a switch: each node's adapter serialises its traffic.
  m.net.latency = us(22);
  m.net.bandwidth = mb_per_s(115);
  m.net.intra_node_latency = us(3);
  m.net.intra_node_bandwidth = mb_per_s(350);
  m.net.send_overhead = us(6);
  m.net.recv_byte_cost = 1.0 / mb_per_s(400);
  m.net.procs_per_node = 4;  // 4 MPI tasks share a node in the runs
  m.net.nic_contention = true;
  m.cpu.memcpy_bandwidth = mb_per_s(400);
  m.cpu.sort_element_cost = 120e-9;

  m.fs_kind = FsKind::kStriped;
  m.striped_fs.fs_name = "gpfs";
  m.striped_fs.stripe_size = 256 * KiB;  // large fixed stripes
  m.striped_fs.n_io_nodes = 12;
  m.striped_fs.server_disk = stor::DiskParams{ms(6), mb_per_s(60), ms(3.5)};
  m.striped_fs.client_overhead = us(400);
  m.striped_fs.smp_io_channel = true;  // shared per-node I/O path
  m.striped_fs.smp_channel_bandwidth = mb_per_s(115);
  m.striped_fs.smp_channel_overhead = ms(0.5);
  m.striped_fs.metadata = ms(3);
  m.striped_fs.write_lock_cost = ms(5);  // byte-range token ping-pong
  m.striped_fs.client_cache_bandwidth = mb_per_s(350);
  return m;
}

Machine chiba_pvfs_ethernet() {
  Machine m;
  m.name = "Chiba/PVFS-Ethernet";
  // 100 Mbps fast Ethernet, oversubscribed: per-NIC 12 MB/s and a shared
  // backplane capping the aggregate well below full bisection.
  m.net.latency = us(150);
  m.net.bandwidth = mb_per_s(11.5);
  m.net.intra_node_latency = us(150);
  m.net.intra_node_bandwidth = mb_per_s(11.5);
  m.net.send_overhead = us(60);
  m.net.recv_byte_cost = 1.0 / mb_per_s(90);  // TCP stack copy on a PIII
  m.net.procs_per_node = 1;
  m.net.nic_contention = true;
  m.net.backplane_bandwidth = mb_per_s(12.5);
  m.cpu.memcpy_bandwidth = mb_per_s(160);
  m.cpu.sort_element_cost = 140e-9;

  m.fs_kind = FsKind::kStriped;
  m.striped_fs.fs_name = "pvfs";
  m.striped_fs.stripe_size = 64 * KiB;
  m.striped_fs.n_io_nodes = 8;
  m.striped_fs.server_disk = stor::DiskParams{ms(9), mb_per_s(22), ms(1.2)};
  m.striped_fs.client_overhead = us(300);
  m.striped_fs.smp_io_channel = false;
  m.striped_fs.metadata = ms(2);
  return m;
}

Machine chiba_pvfs_myrinet() {
  Machine m = chiba_pvfs_ethernet();
  m.name = "Chiba/PVFS-Myrinet";
  // Chiba City's other fabric: Myrinet 1280 — OS-bypass messaging with far
  // lower latency and per-link bandwidth near the PCI bus limit, and a
  // full-bisection Clos topology (no shared-backplane cap).  The PVFS
  // servers and their disks are the same machines, so the read path shifts
  // from wire-bound to server-disk-bound.
  m.net.latency = us(18);
  m.net.bandwidth = mb_per_s(66);
  m.net.intra_node_latency = us(18);
  m.net.intra_node_bandwidth = mb_per_s(66);
  m.net.send_overhead = us(10);
  m.net.recv_byte_cost = 1.0 / mb_per_s(160);  // GM DMA lands at memcpy rate
  m.net.backplane_bandwidth = 0.0;             // full bisection
  m.striped_fs.client_overhead = us(120);      // no kernel TCP stack
  return m;
}

Machine chiba_local_disk() {
  Machine m = chiba_pvfs_ethernet();
  m.name = "Chiba/local-disk";
  m.fs_kind = FsKind::kLocalDisk;
  m.local_disk_fs.disk = stor::DiskParams{ms(9), mb_per_s(8), ms(0.5)};
  m.local_disk_fs.client_overhead = us(200);
  m.local_disk_fs.metadata = ms(0.5);
  return m;
}

Testbed::Testbed(const Machine& machine, int nprocs,
                 std::uint64_t perturb_seed, sim::SchedBackend)
    : machine_(machine),
      runtime_([&] {
        mpi::RuntimeParams p;
        p.net = machine.net;
        p.cpu = machine.cpu;
        p.nprocs = nprocs;
        p.extra_fabric_nodes = machine.extra_fabric_nodes();
        p.perturb_seed = perturb_seed;
        return p;
      }()) {
  switch (machine_.fs_kind) {
    case FsKind::kLocalXfs:
      fs_ = std::make_unique<pfs::LocalFs>(machine_.local_fs);
      break;
    case FsKind::kStriped:
      fs_ = std::make_unique<pfs::StripedFs>(machine_.striped_fs,
                                             runtime_.network());
      break;
    case FsKind::kLocalDisk:
      fs_ = std::make_unique<pfs::LocalDiskFs>(machine_.local_disk_fs,
                                               nprocs);
      break;
  }
}

}  // namespace paramrio::platform
