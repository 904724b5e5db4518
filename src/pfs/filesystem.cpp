#include "pfs/filesystem.hpp"

#include <algorithm>
#include <utility>

#include "fault/fault.hpp"
#include "obs/profiler.hpp"
#include "obs/registry.hpp"

namespace paramrio::pfs {

int FileSystem::open(const std::string& path, OpenMode mode) {
  if (mode == OpenMode::kCreate) {
    const bool truncating = store_.exists(path);
    store_.create(path);
    // Truncation invalidates any cached pages of a previous file generation
    // at this path (same stale-cache hazard as remove()).
    cache_.erase(path);
    ++cache_gen_;
    if (truncating) on_truncate(path);
  } else if (!store_.exists(path)) {
    throw IoError("open(" + path + "): no such file on " + name());
  }
  int fd = next_fd_++;
  open_files_[fd] = OpenFile{path, mode != OpenMode::kRead};
  if (sim::in_simulation()) {
    sim::Proc& proc = sim::current_proc();
    if (observer_ != nullptr) {
      observer_->on_open(proc.now(), proc.global_rank(), path, mode, fd);
    }
    double cost = metadata_cost();
    if (cost > 0.0) proc.advance(cost, sim::TimeCategory::kIo);
  }
  return fd;
}

void FileSystem::close(int fd) {
  const std::string path = descriptor(fd, "close").path;
  open_files_.erase(fd);
  if (sim::in_simulation()) {
    sim::Proc& proc = sim::current_proc();
    if (observer_ != nullptr) {
      observer_->on_close(proc.now(), proc.global_rank(), path, fd);
    }
    double cost = metadata_cost();
    if (cost > 0.0) proc.advance(cost, sim::TimeCategory::kIo);
  }
}

std::uint64_t FileSystem::size(int fd) const {
  return store_.size(descriptor(fd, "size").path);
}

std::uint64_t FileSystem::read_at(int fd, std::uint64_t offset,
                                  std::span<std::byte> out) {
  OpenFile& f = descriptor_mut(fd, "read_at");
  const std::uint64_t file_size = store_.size(f.path);
  if (offset > file_size || out.size() > file_size - offset) {
    throw IoError("read_at(" + f.path + ", fd " + std::to_string(fd) +
                  "): range [" + std::to_string(offset) + ", " +
                  std::to_string(offset + out.size()) + ") past EOF " +
                  std::to_string(file_size) + " on " + name());
  }
  if (!sim::in_simulation()) {  // untimed setup access
    store_.read_at(f.path, offset, out);
    return out.size();
  }
  const auto attempt = [&](std::uint64_t done) {
    return read_attempt(f, fd, offset + done, out.subspan(done));
  };
  // Without fs-level retry the caller sees the short prefix or the error.
  if (!retry_.enabled()) return attempt(0);
  return fault::transfer(retry_, retry_stats_, out.size(), attempt);
}

void FileSystem::read_exact(int fd, std::uint64_t offset,
                            std::span<std::byte> out) {
  std::uint64_t done = 0;
  do {
    const std::uint64_t got = read_at(fd, offset + done, out.subspan(done));
    if (got == 0 && !out.empty()) {
      throw IoError("read_exact(" + descriptor(fd, "read_exact").path +
                    "): no progress at offset " +
                    std::to_string(offset + done));
    }
    done += got;
  } while (done < out.size());
}

std::uint64_t FileSystem::read_attempt(OpenFile& f, int fd,
                                       std::uint64_t offset,
                                       std::span<std::byte> out) {
  OBS_SPAN("pfs.read", sim::TimeCategory::kIo);
  sim::Proc& proc = sim::current_proc();
  const double op_start = proc.now();
  const std::uint64_t transfer =
      admitted_bytes(proc, f.path, /*is_write=*/false, offset, out.size());
  obs::span_counter("bytes", transfer);
  store_.read_at(f.path, offset, out.first(transfer));
  proc.stats().io_bytes_read += transfer;
  proc.stats().io_requests += 1;
  account_job(proc, /*is_write=*/false, transfer);
  if (observer_ != nullptr) {
    observer_->on_io(proc.now(), proc.global_rank(), /*is_write=*/false,
                     f.path, offset, transfer, fd);
  }
  if (cache_enabled_ && transfer > 0) {
    RunMap<bool>& resident = cache_of(f);
    cache_lookups_ += 1;
    const bool hit = resident.covers(offset, offset + transfer, true);
    if (hit) cache_hit_lookups_ += 1;
    if (obs::detail()) {
      obs::gauge("fs:" + name() + "/cache_hit_rate",
                 static_cast<double>(cache_hit_lookups_) /
                     static_cast<double>(cache_lookups_));
      obs::gauge_int("fs:" + name() + "/cache_hit_bytes",
                     cache_hits_ + (hit ? transfer : 0));
    }
    if (hit) {
      cache_hits_ += transfer;
      proc.advance(static_cast<double>(transfer) / cache_bandwidth_,
                   sim::TimeCategory::kIo);
      obs::latency_sample("pfs.read", proc.now() - op_start);
      return transfer;
    }
    resident.assign(offset, offset + transfer, true);
  }
  charge(proc, f.path, offset, transfer, /*is_write=*/false);
  obs::latency_sample("pfs.read", proc.now() - op_start);
  return transfer;
}

std::uint64_t FileSystem::write_at(int fd, std::uint64_t offset,
                                   std::span<const std::byte> data) {
  OpenFile& f = descriptor_mut(fd, "write_at");
  if (!f.writable) throw IoError("write to read-only descriptor: " + f.path);
  if (!sim::in_simulation()) {  // untimed setup access
    store_.write_at(f.path, offset, data);
    on_untimed_write(f.path, offset, data);
    return data.size();
  }
  const auto attempt = [&](std::uint64_t done) {
    return write_attempt(f, fd, offset + done, data.subspan(done));
  };
  if (!retry_.enabled()) return attempt(0);
  return fault::transfer(retry_, retry_stats_, data.size(), attempt);
}

std::uint64_t FileSystem::write_attempt(OpenFile& f, int fd,
                                        std::uint64_t offset,
                                        std::span<const std::byte> data) {
  OBS_SPAN("pfs.write", sim::TimeCategory::kIo);
  sim::Proc& proc = sim::current_proc();
  const double op_start = proc.now();
  const std::uint64_t transfer =
      admitted_bytes(proc, f.path, /*is_write=*/true, offset, data.size());
  obs::span_counter("bytes", transfer);
  store_.write_at(f.path, offset, data.first(transfer));
  proc.stats().io_bytes_written += transfer;
  proc.stats().io_requests += 1;
  account_job(proc, /*is_write=*/true, transfer);
  if (observer_ != nullptr) {
    observer_->on_io(proc.now(), proc.global_rank(), /*is_write=*/true,
                     f.path, offset, transfer, fd);
  }
  if (cache_enabled_ && transfer > 0) {
    cache_of(f).assign(offset, offset + transfer, true);
  }
  charge(proc, f.path, offset, transfer, /*is_write=*/true);
  obs::latency_sample("pfs.write", proc.now() - op_start);
  return transfer;
}

int FileSystem::server_of(const std::string& path,
                          std::uint64_t offset) const {
  const Layout l = layout(path);
  if (l.stripe_size == 0 || l.n_servers < 1) return -1;
  return static_cast<int>(
      (offset / l.stripe_size + static_cast<std::uint64_t>(l.first_server)) %
      static_cast<std::uint64_t>(l.n_servers));
}

std::uint64_t FileSystem::admitted_bytes(sim::Proc& proc,
                                         const std::string& path,
                                         bool is_write, std::uint64_t offset,
                                         std::uint64_t bytes) {
  if (fault_hook_ == nullptr) return bytes;
  const fault::IoFaultAction a =
      fault_hook_->on_io(proc.global_rank(), proc.now(), is_write, path,
                         offset, bytes, server_of(path, offset));
  const std::string op = is_write ? "write_at(" : "read_at(";
  switch (a.kind) {
    case fault::IoFaultAction::Kind::kPass:
      break;
    case fault::IoFaultAction::Kind::kShort:
      return std::min<std::uint64_t>(a.transfer, bytes);
    case fault::IoFaultAction::Kind::kStall:
      proc.advance(a.stall_seconds, sim::TimeCategory::kIo);
      break;
    case fault::IoFaultAction::Kind::kTransientError:
      throw TransientIoError("injected EIO: " + op + path + ", " +
                             std::to_string(offset) + ") on " + name());
    case fault::IoFaultAction::Kind::kCrash:
      throw CrashError("injected crash: " + op + path + ") on " + name());
  }
  return bytes;
}

void FileSystem::account_job(const sim::Proc& proc, bool is_write,
                             std::uint64_t bytes) {
  JobIo& io = job_io_[proc.job()];
  if (io.requests == 0) io.name = proc.job_name();
  if (is_write) {
    io.bytes_written += bytes;
  } else {
    io.bytes_read += bytes;
  }
  io.requests += 1;
}

void FileSystem::export_counters(obs::MetricsRegistry& reg) const {
  reg.add("fs:" + name(), "cache_hit_bytes", cache_hits_);
  reg.add_nonzero("fs:" + name(), "retries", retry_stats_.retries);
  // Per-tenant traffic breakdown, only in genuinely multi-job runs so every
  // single-job registry export stays byte-identical to previous releases.
  if (job_io_.size() > 1) {
    for (const auto& [job, io] : job_io_) {
      const std::string label =
          io.name.empty() ? "#" + std::to_string(job) : io.name;
      const std::string scope = "fs:" + name() + "|job:" + label;
      reg.add(scope, "bytes_read", io.bytes_read);
      reg.add(scope, "bytes_written", io.bytes_written);
      reg.add(scope, "requests", io.requests);
    }
  }
}

const FileSystem::OpenFile& FileSystem::descriptor(int fd,
                                                   const char* op) const {
  auto it = open_files_.find(fd);
  if (it == open_files_.end()) {
    throw IoError(std::string(op) + ": bad file descriptor " +
                  std::to_string(fd) + " on " + name());
  }
  return it->second;
}

FileSystem::OpenFile& FileSystem::descriptor_mut(int fd, const char* op) {
  return const_cast<OpenFile&>(std::as_const(*this).descriptor(fd, op));
}

RunMap<bool>& FileSystem::cache_of(OpenFile& f) {
  if (f.cache_iv == nullptr || f.cache_gen != cache_gen_) {
    f.cache_iv = &cache_[f.path];
    f.cache_gen = cache_gen_;
  }
  return *f.cache_iv;
}

}  // namespace paramrio::pfs
