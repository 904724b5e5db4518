// HDF4-style serial scientific-dataset file format ("SDF").
//
// Models the role HDF version 4 plays in the original ENZO: a strictly
// serial library — one process reads or writes a file at a time — storing
// named n-dimensional arrays (SDS) plus small named attributes.  The on-disk
// layout is a linear sequence of self-describing records; opening a file
// scans the record headers (several small reads, as a 2002 SD-interface
// open would) to build the in-memory directory.  scan_directory is that
// scan over any read callable, so a caller can time and retry its reads.
//
// This library has no parallel facilities by design; the application-level
// consequence (processor 0 gathers and writes everything) is implemented in
// enzo::Hdf4SerialBackend.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "base/byte_io.hpp"
#include "pfs/filesystem.hpp"

namespace paramrio::hdf4 {

enum class NumberType : std::uint8_t {
  kFloat32 = 0,
  kFloat64 = 1,
  kInt32 = 2,
  kInt64 = 3,
};

std::uint64_t element_size(NumberType t);

struct SdsInfo {
  std::string name;
  NumberType type = NumberType::kFloat32;
  std::vector<std::uint64_t> dims;
  std::uint64_t data_offset = 0;  ///< absolute file offset of the raw data
  std::uint64_t data_bytes = 0;

  std::uint64_t element_count() const {
    std::uint64_t n = 1;
    for (auto d : dims) n *= d;
    return n;
  }
};

/// An SDF file's directory, as a scan of its records finds it.
struct SdDirectory {
  std::string path;
  std::vector<SdsInfo> datasets;               ///< creation order
  std::map<std::string, std::size_t> index;    ///< name -> datasets idx
  std::map<std::string, std::vector<std::byte>> attributes;

  /// Throws IoError when the file has no dataset `name`.
  const SdsInfo& info(const std::string& name) const;
};

/// Scan the records of the SDF file `path` (`size` bytes long), reading
/// through `read`: the 8-byte file header, then per record its 8-byte fixed
/// part, its header and an attribute's value — the reads SdFile::open
/// issues.  Throws FormatError naming `path` and the offset of a malformed
/// record.
SdDirectory scan_directory(const std::string& path, std::uint64_t size,
                           const pfs::ReadAt& read);

class SdFile {
 public:
  /// Create/truncate a file for writing.
  static SdFile create(pfs::FileSystem& fs, const std::string& path);

  /// Open an existing file; scans the directory.
  static SdFile open(pfs::FileSystem& fs, const std::string& path);

  SdFile(SdFile&& other) noexcept { *this = std::move(other); }
  SdFile& operator=(SdFile&& other) noexcept {
    if (this != &other) {
      if (open_) fs_->close(fd_);
      fs_ = other.fs_;
      fd_ = other.fd_;
      writable_ = other.writable_;
      open_ = other.open_;
      append_pos_ = other.append_pos_;
      dir_ = std::move(other.dir_);
      other.open_ = false;  // source no longer owns the descriptor
    }
    return *this;
  }
  SdFile(const SdFile&) = delete;
  SdFile& operator=(const SdFile&) = delete;
  ~SdFile();

  /// Append a dataset; `data` must be element_count * element_size bytes.
  void write_dataset(const std::string& name, NumberType type,
                     const std::vector<std::uint64_t>& dims,
                     std::span<const std::byte> data);

  /// Read a full dataset into `out` (must be exactly data_bytes long).
  void read_dataset(const std::string& name, std::span<std::byte> out) const;

  /// Small named metadata blob.
  void write_attribute(const std::string& name,
                       std::span<const std::byte> value);
  std::vector<std::byte> read_attribute(const std::string& name) const;

  bool has_dataset(const std::string& name) const;
  const SdsInfo& info(const std::string& name) const;
  const SdDirectory& directory() const { return dir_; }
  std::vector<std::string> dataset_names() const;  ///< in creation order

  void close();

 private:
  SdFile() = default;

  pfs::FileSystem* fs_ = nullptr;
  int fd_ = -1;
  bool writable_ = false;
  bool open_ = false;
  std::uint64_t append_pos_ = 0;
  SdDirectory dir_;
};

}  // namespace paramrio::hdf4
