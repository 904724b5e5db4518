#include "hdf5/h5_file.hpp"

#include <algorithm>

#include "base/byte_io.hpp"
#include "obs/profiler.hpp"

namespace paramrio::hdf5 {

namespace {
constexpr std::uint32_t kMagic = 0x01354850;  // "PH5\x01"
constexpr std::uint32_t kVersion = 1;
constexpr std::uint32_t kKindDataset = 1;
constexpr std::uint32_t kKindAttribute = 2;
constexpr std::uint64_t kSuperblockSize = 32;
constexpr std::uint64_t kRecordFixedSize = 16;  // kind u32, hdrlen u32, next u64
/// One read per record fetches this much (HDF5's object-header speculative
/// read size); only longer headers need a second read.
constexpr std::uint64_t kSpeculativeRead = 512;

std::uint64_t align_up(std::uint64_t v, std::uint64_t a) {
  return a <= 1 ? v : (v + a - 1) / a * a;
}

// Chain checks shared by the metadata reader, which stops walking at the
// first failure, and the decoder, which diagnoses it.  `end` is where the
// previous structure (superblock or record) ends: a record may not start
// before it, so every walk moves forward and terminates.
bool link_ok(std::uint64_t end, std::uint64_t pos, std::uint64_t fsize) {
  return pos >= end && pos <= fsize && fsize - pos >= kRecordFixedSize;
}
bool header_fits(std::uint64_t pos, std::uint32_t hdrlen,
                 std::uint64_t fsize) {
  return hdrlen <= fsize - pos - kRecordFixedSize;
}

/// The record at `pos` (whose fixed part fits in the file): its fixed part
/// and, when it fits too, its header.  One speculative read fetches both
/// unless the header is longer; a header that would run past EOF is not
/// read, since the fixed part alone lets the decoder name the bad length.
std::vector<std::byte> read_record(const pfs::ReadAt& read, std::uint64_t pos,
                                   std::uint64_t fsize) {
  std::vector<std::byte> rec(std::min(kSpeculativeRead, fsize - pos));
  read(pos, rec);
  ByteReader fr(rec);
  fr.skip(4);  // kind: the decoder checks it
  const std::uint32_t hdrlen = fr.u32();
  const std::size_t len =
      kRecordFixedSize + (header_fits(pos, hdrlen, fsize) ? hdrlen : 0);
  if (len > rec.size()) {
    const std::size_t have = rec.size();
    rec.resize(len);
    read(pos + have, std::span(rec).subspan(have));
  }
  rec.resize(len);
  return rec;
}
}  // namespace

std::uint64_t element_size(NumberType t) {
  switch (t) {
    case NumberType::kFloat32:
    case NumberType::kInt32:
      return 4;
    case NumberType::kFloat64:
    case NumberType::kInt64:
      return 8;
  }
  throw LogicError("bad NumberType");
}

// ---------------------------------------------------------------------------
// Raw driver plumbing
// ---------------------------------------------------------------------------

void H5File::raw_read(std::uint64_t off, std::span<std::byte> out) {
  if (pio_) {
    pio_->set_view(0);
    pio_->read_at(off, out);
  } else {
    fs_->read_exact(fd_, off, out);
  }
}

void H5File::raw_write(std::uint64_t off, std::span<const std::byte> data) {
  if (pio_) {
    pio_->set_view(0);
    pio_->write_at(off, data);
  } else {
    fs_->write_at(fd_, off, data);
  }
}

void H5File::raw_read_all(const std::vector<mpi::Segment>& segs,
                          std::span<std::byte> out) {
  PARAMRIO_REQUIRE(pio_ != nullptr, "collective read on serial H5File");
  if (segs.empty()) {
    // Zero-size participation: still joins the collective exchange.
    pio_->set_view(0);
    pio_->read_at_all(0, out);
    return;
  }
  pio_->set_view(0, mpi::Datatype::indexed(segs));
  pio_->read_at_all(0, out);
  pio_->set_view(0);
}

void H5File::raw_write_all(const std::vector<mpi::Segment>& segs,
                           std::span<const std::byte> data) {
  PARAMRIO_REQUIRE(pio_ != nullptr, "collective write on serial H5File");
  if (segs.empty()) {
    pio_->set_view(0);
    pio_->write_at_all(0, data);
    return;
  }
  pio_->set_view(0, mpi::Datatype::indexed(segs));
  pio_->write_at_all(0, data);
  pio_->set_view(0);
}

void H5File::metadata_barrier() {
  if (config_.comm != nullptr && config_.metadata_sync) {
    OBS_SPAN("hdf5.metadata_sync", sim::TimeCategory::kComm);
    config_.comm->barrier();
  }
}

// ---------------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------------

H5File H5File::create(pfs::FileSystem& fs, const std::string& path,
                      FileConfig config) {
  H5File f;
  f.fs_ = &fs;
  f.path_ = path;
  f.config_ = config;
  f.writable_ = true;
  f.open_ = true;
  if (config.comm != nullptr) {
    f.pio_ = std::make_unique<mpi::io::File>(*config.comm, fs, path,
                                             pfs::OpenMode::kCreate,
                                             config.io_hints);
  } else {
    f.fd_ = fs.open(path, pfs::OpenMode::kCreate);
  }
  f.alloc_end_ = kSuperblockSize;
  if (config.comm == nullptr || config.comm->rank() == 0) {
    f.write_superblock();
  }
  return f;
}

H5File H5File::open(pfs::FileSystem& fs, const std::string& path,
                    FileConfig config) {
  H5File f;
  f.fs_ = &fs;
  f.path_ = path;
  f.config_ = config;
  f.writable_ = false;
  f.open_ = true;
  if (config.comm != nullptr) {
    f.pio_ = std::make_unique<mpi::io::File>(*config.comm, fs, path,
                                             pfs::OpenMode::kRead,
                                             config.io_hints);
  } else {
    f.fd_ = fs.open(path, pfs::OpenMode::kRead);
  }
  f.scan();
  return f;
}

H5File::~H5File() {
  if (!open_) return;
  // Quiet release; parallel close must be explicit to synchronise.
  if (pio_ == nullptr && fs_ != nullptr) fs_->close(fd_);
  open_ = false;
}

void H5File::close() {
  PARAMRIO_REQUIRE(open_, "H5File: already closed");
  metadata_barrier();
  if (pio_) {
    pio_->close();
    pio_.reset();
  } else {
    fs_->close(fd_);
  }
  open_ = false;
}

void H5File::write_superblock() {
  ByteWriter w;
  w.u32(kMagic);
  w.u32(kVersion);
  w.u64(alloc_end_);
  w.u64(has_records_ ? kSuperblockSize : 0);
  w.u64(0);  // reserved
  auto b = w.take();
  raw_write(0, b);
}

void H5File::scan() {
  const std::uint64_t fsize = pio_ ? pio_->size() : fs_->size(fd_);
  mpi::Bytes meta;
  if (!parallel() || config_.comm->rank() == 0) meta = read_metadata(fsize);
  if (parallel()) config_.comm->bcast(meta, 0);
  decode_metadata(meta, fsize);
}

std::vector<std::byte> H5File::read_metadata(std::uint64_t fsize) {
  std::vector<std::byte> meta(std::min(fsize, kSuperblockSize));
  raw_read(0, meta);
  if (meta.size() < kSuperblockSize) return meta;
  ByteReader sr(meta);
  if (sr.u32() != kMagic || sr.u32() != kVersion) return meta;
  sr.skip(8);  // allocation end
  std::uint64_t pos = sr.u64();
  std::uint64_t end = kSuperblockSize;
  const pfs::ReadAt read = [this](std::uint64_t off,
                                  std::span<std::byte> out) {
    raw_read(off, out);
  };
  while (pos != 0 && link_ok(end, pos, fsize)) {
    const std::vector<std::byte> rec = read_record(read, pos, fsize);
    meta.insert(meta.end(), rec.begin(), rec.end());
    ByteReader fr(rec);
    fr.skip(4);  // kind: the decoder checks it
    const std::uint32_t hdrlen = fr.u32();
    if (!header_fits(pos, hdrlen, fsize)) break;
    end = pos + rec.size();
    pos = fr.u64();
  }
  return meta;
}

void H5File::decode_metadata(std::span<const std::byte> meta,
                             std::uint64_t fsize) {
  ByteReader r(meta);
  ChainWalk walk(path_, fsize, r);
  while (!walk.done()) {
    ChainWalk::Record rec = walk.decode(r);
    if (rec.is_dataset) {
      index_[rec.dataset.name] = datasets_.size();
      datasets_.push_back(std::move(rec.dataset));
    } else {
      attributes_[rec.attribute] = std::move(rec.value);
    }
  }
}

// ---------------------------------------------------------------------------
// Record-chain walk
// ---------------------------------------------------------------------------

ChainWalk::ChainWalk(std::string path, std::uint64_t fsize, ByteReader& r)
    : path_(std::move(path)), fsize_(fsize), end_(kSuperblockSize) {
  if (r.remaining() < kSuperblockSize) {
    throw FormatError(path_ + ": too short for a PH5 file");
  }
  if (r.u32() != kMagic) throw FormatError(path_ + ": bad PH5 magic");
  if (r.u32() != kVersion) throw FormatError(path_ + ": bad PH5 version");
  r.skip(8);       // allocation end: only writers need it
  pos_ = r.u64();  // first record (0 = empty file)
  r.skip(8);       // reserved
}

ChainWalk ChainWalk::open(std::string path, std::uint64_t fsize,
                          const pfs::ReadAt& read) {
  std::vector<std::byte> sb(std::min(fsize, kSuperblockSize));
  read(0, sb);
  ByteReader r(sb);
  return ChainWalk(std::move(path), fsize, r);
}

void ChainWalk::check_link() const {
  if (link_ok(end_, pos_, fsize_)) return;
  throw FormatError(
      path_ + ": PH5 record at offset " + std::to_string(at_) +
      ": next record " + std::to_string(pos_) +
      (pos_ < end_ ? " does not move forward (ends at " +
                         std::to_string(end_) + ")"
                   : " runs past end of file (" + std::to_string(fsize_) +
                         " bytes)"));
}

ChainWalk::Record ChainWalk::next(const pfs::ReadAt& read) {
  check_link();  // before reading: a bad link may point past the file
  const std::vector<std::byte> rec = read_record(read, pos_, fsize_);
  ByteReader r(rec);
  return decode(r);
}

ChainWalk::Record ChainWalk::decode(ByteReader& r) {
  check_link();
  auto fail = [&](const std::string& what) {
    throw FormatError(path_ + ": PH5 record at offset " +
                      std::to_string(pos_) + ": " + what);
  };
  const std::uint32_t kind = r.u32();
  const std::uint32_t hdrlen = r.u32();
  const std::uint64_t next = r.u64();
  if (kind != kKindDataset && kind != kKindAttribute) {
    fail("unknown record kind " + std::to_string(kind));
  }
  if (!header_fits(pos_, hdrlen, fsize_)) {
    fail("header length " + std::to_string(hdrlen) +
         " runs past end of file (" + std::to_string(fsize_) + " bytes)");
  }
  Record rec;
  try {
    ByteReader h(r.bytes(hdrlen));
    if (kind == kKindAttribute) {
      rec.attribute = h.str();
      auto vspan = h.bytes(h.u64());
      rec.value.assign(vspan.begin(), vspan.end());
    } else {
      rec.is_dataset = true;
      DatasetInfo& info = rec.dataset;
      info.name = h.str();
      const std::uint8_t type = h.u8();
      if (type > static_cast<std::uint8_t>(NumberType::kInt64)) {
        throw FormatError("bad number type " + std::to_string(type));
      }
      info.type = static_cast<NumberType>(type);
      const std::uint32_t nd = h.u32();
      for (std::uint32_t d = 0; d < nd; ++d) info.dims.push_back(h.u64());
      info.data_addr = h.u64();
      info.data_bytes = h.u64();
    }
  } catch (const FormatError& e) {
    fail(e.what());  // a bad type byte or a header overrun
  }
  at_ = pos_;
  end_ = pos_ + kRecordFixedSize + hdrlen;
  pos_ = next;
  return rec;
}

std::uint64_t H5File::append_record(std::uint32_t kind,
                                    std::span<const std::byte> header,
                                    std::uint64_t data_bytes,
                                    std::uint64_t* data_addr_out) {
  const bool physical = config_.comm == nullptr || config_.comm->rank() == 0;
  std::uint64_t rec_off = alloc_end_;
  std::uint64_t hdr_end = rec_off + kRecordFixedSize + header.size();
  std::uint64_t data_addr =
      data_bytes > 0 ? align_up(hdr_end, config_.alignment) : hdr_end;
  alloc_end_ = data_bytes > 0 ? data_addr + data_bytes : hdr_end;
  if (data_addr_out != nullptr) *data_addr_out = data_addr;
  const bool first_record = !has_records_;
  has_records_ = true;

  if (physical) {
    OBS_SPAN("hdf5.metadata_write", sim::TimeCategory::kIo);
    ByteWriter w;
    w.u32(kind);
    w.u32(static_cast<std::uint32_t>(header.size()));
    w.u64(0);  // next pointer; patched when the following record lands
    w.bytes(header);
    auto rec = w.take();
    raw_write(rec_off, rec);
    if (!first_record && prev_record_next_field_ != 0) {
      // Patch the previous record's chain pointer (a tiny metadata write
      // far from the current position — real HDF5 metadata churn).
      ByteWriter pw;
      pw.u64(rec_off);
      auto pb = pw.take();
      raw_write(prev_record_next_field_, pb);
    } else {
      // First record: point the superblock at it.
      write_superblock();
    }
    // Keep the superblock's allocation pointer current.
    ByteWriter aw;
    aw.u64(alloc_end_);
    auto ab = aw.take();
    raw_write(8, ab);
  }
  prev_record_next_field_ = rec_off + 8;
  return rec_off;
}

// ---------------------------------------------------------------------------
// Datasets
// ---------------------------------------------------------------------------

Dataset H5File::create_dataset(const std::string& name, NumberType type,
                               const Dataspace& space) {
  PARAMRIO_REQUIRE(open_ && writable_, "H5File: not open for writing");
  PARAMRIO_REQUIRE(index_.find(name) == index_.end(),
                   "H5File: duplicate dataset " + name);
  OBS_SPAN("hdf5.dataset_create", sim::TimeCategory::kIo);
  metadata_barrier();

  DatasetInfo info;
  info.name = name;
  info.type = type;
  info.dims = space.dims();
  info.data_bytes = space.total_elements() * element_size(type);

  // Serialise the header on every rank (identical inputs -> identical
  // layout), write it physically on rank 0 only.
  ByteWriter hw;
  hw.str(name);
  hw.u8(static_cast<std::uint8_t>(type));
  hw.u32(static_cast<std::uint32_t>(info.dims.size()));
  for (auto d : info.dims) hw.u64(d);
  // data_addr is computed inside append_record; reserve the slot by writing
  // a placeholder then patching locally before the physical write.  To keep
  // one write, compute the address first.
  std::uint64_t rec_off = alloc_end_;
  std::uint64_t hdr_guess = rec_off + kRecordFixedSize + hw.size() + 16;
  std::uint64_t data_addr =
      align_up(hdr_guess, config_.alignment);
  hw.u64(data_addr);
  hw.u64(info.data_bytes);
  auto hdr = hw.take();

  std::uint64_t actual_addr = 0;
  append_record(kKindDataset, hdr, info.data_bytes, &actual_addr);
  PARAMRIO_REQUIRE(actual_addr == data_addr,
                   "H5File: allocation address drift");
  info.data_addr = data_addr;

  metadata_barrier();

  index_[name] = datasets_.size();
  datasets_.push_back(std::move(info));
  return Dataset(this, &datasets_.back());
}

Dataset H5File::open_dataset(const std::string& name) {
  auto it = index_.find(name);
  if (it == index_.end()) {
    throw IoError("H5File: no dataset " + name + " in " + path_);
  }
  return Dataset(this, &datasets_[it->second]);
}

bool H5File::has_dataset(const std::string& name) const {
  return index_.find(name) != index_.end();
}

std::vector<std::string> H5File::dataset_names() const {
  std::vector<std::string> names;
  names.reserve(datasets_.size());
  for (const auto& d : datasets_) names.push_back(d.name);
  return names;
}

// ---------------------------------------------------------------------------
// Attributes
// ---------------------------------------------------------------------------

void H5File::write_attribute(const std::string& name,
                             std::span<const std::byte> value) {
  PARAMRIO_REQUIRE(open_ && writable_, "H5File: not open for writing");
  OBS_SPAN("hdf5.attribute", sim::TimeCategory::kIo);
  if (config_.comm != nullptr && config_.rank0_attributes) {
    // The 2002 release: attributes can only be created/written by rank 0,
    // and everyone synchronises around the metadata update.
    config_.comm->barrier();
  }
  ByteWriter hw;
  hw.str(name);
  hw.u64(value.size());
  hw.bytes(value);
  auto hdr = hw.take();
  append_record(kKindAttribute, hdr, 0, nullptr);
  if (config_.comm != nullptr && config_.rank0_attributes) {
    config_.comm->barrier();
  }
  attributes_[name].assign(value.begin(), value.end());
}

std::vector<std::byte> H5File::read_attribute(const std::string& name) const {
  auto it = attributes_.find(name);
  if (it == attributes_.end()) {
    throw IoError("H5File: no attribute " + name + " in " + path_);
  }
  return it->second;
}

// ---------------------------------------------------------------------------
// Dataset I/O
// ---------------------------------------------------------------------------

std::vector<mpi::Segment> Dataset::selection_segments(
    const Dataspace& file_space, bool charge_pack) const {
  PARAMRIO_REQUIRE(file_space.dims() == info_->dims,
                   "Dataset: file space dims mismatch for " + info_->name);
  const std::uint64_t esize = element_size(info_->type);
  std::vector<mpi::Segment> segs;
  std::uint64_t steps = file_space.for_each_run([&](const Dataspace::Run& r) {
    segs.push_back(mpi::Segment{info_->data_addr + r.element_offset * esize,
                                r.element_count * esize});
  });
  if (charge_pack && sim::in_simulation()) {
    OBS_SPAN("hdf5.pack", sim::TimeCategory::kCpu);
    obs::span_counter("pack_steps", steps);
    const FileConfig& cfg = file_->config_;
    double per_step = cfg.recursive_pack ? cfg.pack_step_cost
                                         : cfg.pack_step_cost * 0.05;
    std::uint64_t units = cfg.recursive_pack
                              ? steps
                              : static_cast<std::uint64_t>(segs.size());
    sim::current_proc().advance(static_cast<double>(units) * per_step,
                                sim::TimeCategory::kCpu);
  }
  return segs;
}

void Dataset::write(const Dataspace& file_space,
                    std::span<const std::byte> buf, bool collective) {
  PARAMRIO_REQUIRE(!closed_, "Dataset: closed");
  const std::uint64_t esize = element_size(info_->type);
  PARAMRIO_REQUIRE(buf.size() == file_space.selected_elements() * esize,
                   "Dataset::write: buffer size mismatch");
  auto segs = selection_segments(file_space, /*charge_pack=*/true);
  if (file_->pio_ && collective) {
    file_->raw_write_all(segs, buf);
    return;
  }
  if (file_->pio_) {
    // Independent through MPI-IO (data sieving applies).
    file_->pio_->set_view(0, mpi::Datatype::indexed(segs));
    file_->pio_->write_at(0, buf);
    file_->pio_->set_view(0);
    return;
  }
  std::uint64_t pos = 0;
  for (const auto& s : segs) {
    file_->fs_->write_at(file_->fd_, s.offset, buf.subspan(pos, s.length));
    pos += s.length;
  }
}

void Dataset::read(const Dataspace& file_space, std::span<std::byte> buf,
                   bool collective) {
  PARAMRIO_REQUIRE(!closed_, "Dataset: closed");
  const std::uint64_t esize = element_size(info_->type);
  PARAMRIO_REQUIRE(buf.size() == file_space.selected_elements() * esize,
                   "Dataset::read: buffer size mismatch");
  auto segs = selection_segments(file_space, /*charge_pack=*/true);
  if (file_->pio_ && collective) {
    file_->raw_read_all(segs, buf);
    return;
  }
  if (file_->pio_) {
    file_->pio_->set_view(0, mpi::Datatype::indexed(segs));
    file_->pio_->read_at(0, buf);
    file_->pio_->set_view(0);
    return;
  }
  std::uint64_t pos = 0;
  for (const auto& s : segs) {
    file_->fs_->read_exact(file_->fd_, s.offset, buf.subspan(pos, s.length));
    pos += s.length;
  }
}

void Dataset::write_all(std::span<const std::byte> buf, bool collective) {
  Dataspace all(info_->dims);
  write(all, buf, collective);
}

void Dataset::read_all(std::span<std::byte> buf, bool collective) {
  Dataspace all(info_->dims);
  read(all, buf, collective);
}

void Dataset::close() {
  PARAMRIO_REQUIRE(!closed_, "Dataset: double close");
  // Closing a dataset of a writable file flushes metadata collectively (the
  // paper's per-dataset synchronisation).  Read-only closes are local, so
  // round-robin readers can close independently.
  OBS_SPAN("hdf5.dataset_close", sim::TimeCategory::kComm);
  if (file_->writable_) file_->metadata_barrier();
  closed_ = true;
}

}  // namespace paramrio::hdf5
