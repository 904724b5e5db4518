// HDF5-analogue file format with serial and parallel (MPI-IO) drivers.
//
// The layout is structurally analogous to HDF5 1.4 (the release the paper
// measured): a superblock at offset 0, a chain of object-header records, and
// raw dataset data allocated from the same linear address space as the
// metadata.  The four overhead sources the paper identifies in parallel
// HDF5 are implemented, not faked, and each can be toggled for the ablation
// bench (bench_ablation_hdf5_overheads):
//
//   1. *Dataset create/close synchronisation*: collective metadata updates —
//      every rank barriers while rank 0 writes the object header and updates
//      the superblock and the previous record's chain pointer.
//   2. *Metadata interleaved with raw data*: data is allocated immediately
//      after its object header, so large array data starts at odd offsets
//      and straddles stripe/sector boundaries; the `alignment` property
//      (HDF5's H5Pset_alignment) rounds data addresses up and is the paper's
//      suggested mitigation.
//   3. *Recursive hyperslab packing*: selections are enumerated by the
//      per-dimension recursion in Dataspace::for_each_run, and each recursive
//      step costs virtual CPU time.
//   4. *Rank-0-only attributes*: attribute writes serialise through rank 0
//      with a full synchronisation.
//
// Opening reads the metadata once per job, as HDF5 >= 1.10's collective
// metadata read does: rank 0 walks the record chain with one speculative
// 512 B read per record (a second read only for longer headers) and
// broadcasts the bytes; every rank decodes them.  The 2002 release read the
// chain on every rank; no paper figure measures that read path.  ChainWalk
// is the same walk one record at a time, through a caller's read callable:
// the query index steps it only as far as a request needs.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "base/byte_io.hpp"
#include "hdf5/dataspace.hpp"
#include "mpi/io/file.hpp"
#include "pfs/filesystem.hpp"

namespace paramrio::hdf5 {

enum class NumberType : std::uint8_t {
  kFloat32 = 0,
  kFloat64 = 1,
  kInt32 = 2,
  kInt64 = 3,
};

std::uint64_t element_size(NumberType t);

struct FileConfig {
  /// Parallel driver when set (H5Pset_fapl_mpio analogue); null = serial.
  mpi::Comm* comm = nullptr;
  mpi::io::Hints io_hints;

  /// Raw-data alignment (H5Pset_alignment); 1 = allocate right after the
  /// object header, reproducing the paper's misalignment overhead.
  std::uint64_t alignment = 1;

  // ---- ablation toggles (all true = the paper's 2002 release behaviour) --
  bool metadata_sync = true;     ///< collective dataset create/close
  bool recursive_pack = true;    ///< charge recursive hyperslab iteration
  bool rank0_attributes = true;  ///< serialise attribute writes via rank 0

  /// Virtual CPU cost per recursive hyperslab iterator step.
  double pack_step_cost = 0.8e-6;
};

struct DatasetInfo {
  std::string name;
  NumberType type = NumberType::kFloat32;
  std::vector<std::uint64_t> dims;
  std::uint64_t data_addr = 0;
  std::uint64_t data_bytes = 0;
};

class Dataset;

/// A walk along a PH5 file's record chain, one record per step.  Its
/// decoder is the only one: H5File::open runs it over the bytes rank 0
/// read, and next() reads each record first, with exactly the reads the
/// open issues for it.  Every malformed structure is a FormatError naming
/// the path and the offset of the record (or superblock) at fault; a failed
/// step leaves the walk where it was.
class ChainWalk {
 public:
  /// One record: a dataset's header, or an attribute.
  struct Record {
    bool is_dataset = false;
    DatasetInfo dataset;
    std::string attribute;
    std::vector<std::byte> value;
  };

  /// Decode the superblock at the front of `r` for the file `path`
  /// (`fsize` bytes long).
  ChainWalk(std::string path, std::uint64_t fsize, ByteReader& r);

  /// Read the superblock through `read` (one read) and decode it.
  static ChainWalk open(std::string path, std::uint64_t fsize,
                        const pfs::ReadAt& read);

  /// The chain has no further record.
  bool done() const { return pos_ == 0; }

  /// Read the next record through `read`, then decode it.
  Record next(const pfs::ReadAt& read);

  /// Decode the next record from `r`, which holds its fixed part and header.
  Record decode(ByteReader& r);

 private:
  /// Throws unless the next record starts after the previous structure and
  /// its fixed part fits in the file.
  void check_link() const;

  std::string path_;
  std::uint64_t fsize_ = 0;
  std::uint64_t pos_ = 0;  ///< the next record; 0 ends the chain
  std::uint64_t at_ = 0;   ///< the superblock or record linking to pos_
  std::uint64_t end_ = 0;  ///< where that structure ends
};

class H5File {
 public:
  static H5File create(pfs::FileSystem& fs, const std::string& path,
                       FileConfig config = {});
  /// Collective in parallel mode: rank 0 reads the metadata and broadcasts
  /// it.  Throws FormatError on every rank for a malformed file.
  static H5File open(pfs::FileSystem& fs, const std::string& path,
                     FileConfig config = {});

  H5File(H5File&& other) noexcept
      : fs_(other.fs_),
        path_(std::move(other.path_)),
        config_(other.config_),
        fd_(other.fd_),
        pio_(std::move(other.pio_)),
        writable_(other.writable_),
        open_(other.open_),
        alloc_end_(other.alloc_end_),
        prev_record_next_field_(other.prev_record_next_field_),
        has_records_(other.has_records_),
        datasets_(std::move(other.datasets_)),
        index_(std::move(other.index_)),
        attributes_(std::move(other.attributes_)) {
    other.open_ = false;  // source no longer owns the descriptor
  }
  H5File(const H5File&) = delete;
  H5File& operator=(const H5File&) = delete;
  ~H5File();

  /// Collective in parallel mode.  The dataspace's *dims* define the dataset
  /// extent (any selection on it is ignored).
  Dataset create_dataset(const std::string& name, NumberType type,
                         const Dataspace& space);
  Dataset open_dataset(const std::string& name);

  bool has_dataset(const std::string& name) const;
  std::vector<std::string> dataset_names() const;

  /// Collective in parallel mode; serialises through rank 0 when
  /// config.rank0_attributes is set.
  void write_attribute(const std::string& name,
                       std::span<const std::byte> value);
  std::vector<std::byte> read_attribute(const std::string& name) const;

  void close();  ///< collective in parallel mode

  const FileConfig& config() const { return config_; }
  bool parallel() const { return config_.comm != nullptr; }

 private:
  friend class Dataset;
  H5File() = default;

  // Raw byte access through whichever driver is active.
  void raw_read(std::uint64_t off, std::span<std::byte> out);
  void raw_write(std::uint64_t off, std::span<const std::byte> data);
  void raw_read_all(const std::vector<mpi::Segment>& segs,
                    std::span<std::byte> out);
  void raw_write_all(const std::vector<mpi::Segment>& segs,
                     std::span<const std::byte> data);

  void write_superblock();
  /// Open-time metadata read: rank 0 (or the serial opener) walks the
  /// record chain, a parallel open broadcasts the bytes, and every rank
  /// decodes them.
  void scan();
  /// The superblock, then each record's fixed part and header, in chain
  /// order; stops at the first record that fails a chain check.
  std::vector<std::byte> read_metadata(std::uint64_t fsize);
  /// A ChainWalk over read_metadata's bytes; throws FormatError naming the
  /// path and offset of the first malformed structure.
  void decode_metadata(std::span<const std::byte> meta, std::uint64_t fsize);
  std::uint64_t append_record(std::uint32_t kind,
                              std::span<const std::byte> header,
                              std::uint64_t data_bytes,
                              std::uint64_t* data_addr_out);
  void metadata_barrier();

  pfs::FileSystem* fs_ = nullptr;
  std::string path_;
  FileConfig config_;
  int fd_ = -1;                                   // serial driver
  std::unique_ptr<mpi::io::File> pio_;            // parallel driver
  bool writable_ = false;
  bool open_ = false;
  std::uint64_t alloc_end_ = 0;
  std::uint64_t prev_record_next_field_ = 0;  ///< file offset of previous
                                              ///< record's next-pointer
  bool has_records_ = false;
  std::deque<DatasetInfo> datasets_;  ///< deque: stable Dataset handles
  std::map<std::string, std::size_t> index_;
  std::map<std::string, std::vector<std::byte>> attributes_;
};

/// Handle to one dataset of an open H5File.
class Dataset {
 public:
  const DatasetInfo& info() const { return *info_; }
  Dataspace space() const { return Dataspace(info_->dims); }

  /// Hyperslab I/O.  `file_space` must have the dataset's dims; its
  /// selection picks the file elements.  `buf` holds the selected elements
  /// contiguously in row-major order.  `collective` selects MPI-IO
  /// collective vs independent transfer in parallel mode.
  void write(const Dataspace& file_space, std::span<const std::byte> buf,
             bool collective = true);
  void read(const Dataspace& file_space, std::span<std::byte> buf,
            bool collective = true);

  /// Whole-dataset convenience (every element selected).
  void write_all(std::span<const std::byte> buf, bool collective = true);
  void read_all(std::span<std::byte> buf, bool collective = true);

  /// Collective in parallel mode (synchronises metadata).
  void close();

 private:
  friend class H5File;
  Dataset(H5File* file, const DatasetInfo* info) : file_(file), info_(info) {}

  std::vector<mpi::Segment> selection_segments(const Dataspace& file_space,
                                               bool charge_pack) const;

  H5File* file_;
  const DatasetInfo* info_;
  bool closed_ = false;
};

}  // namespace paramrio::hdf5
