#include "hdf4/sd_file.hpp"

namespace paramrio::hdf4 {

namespace {
constexpr std::uint32_t kMagic = 0x31464453;  // "SDF1"
constexpr std::uint32_t kVersion = 1;
constexpr std::uint32_t kKindDataset = 1;
constexpr std::uint32_t kKindAttribute = 2;

std::vector<std::byte> read_bytes(const pfs::ReadAt& read, std::uint64_t off,
                                  std::uint64_t n) {
  std::vector<std::byte> buf(n);
  read(off, buf);
  return buf;
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

SdFile SdFile::create(pfs::FileSystem& fs, const std::string& path) {
  SdFile f;
  f.fs_ = &fs;
  f.dir_.path = path;
  f.fd_ = fs.open(path, pfs::OpenMode::kCreate);
  f.writable_ = true;
  f.open_ = true;
  ByteWriter w;
  w.u32(kMagic);
  w.u32(kVersion);
  auto hdr = w.take();
  fs.write_at(f.fd_, 0, hdr);
  f.append_pos_ = hdr.size();
  return f;
}

SdFile SdFile::open(pfs::FileSystem& fs, const std::string& path) {
  SdFile f;
  f.fs_ = &fs;
  f.fd_ = fs.open(path, pfs::OpenMode::kRead);
  f.writable_ = false;
  f.open_ = true;
  f.append_pos_ = fs.size(f.fd_);
  f.dir_ = scan_directory(path, f.append_pos_,
                          [&](std::uint64_t off, std::span<std::byte> out) {
                            fs.read_exact(f.fd_, off, out);
                          });
  return f;
}

SdFile::~SdFile() {
  if (open_) fs_->close(fd_);
}

void SdFile::close() {
  PARAMRIO_REQUIRE(open_, "SdFile: already closed");
  fs_->close(fd_);
  open_ = false;
}

SdDirectory scan_directory(const std::string& path, std::uint64_t size,
                           const pfs::ReadAt& read) {
  SdDirectory dir;
  dir.path = path;
  if (size < 8) throw FormatError(path + ": too short for an SDF file");
  {
    auto hdr = read_bytes(read, 0, 8);
    ByteReader r(hdr);
    if (r.u32() != kMagic) throw FormatError(path + ": bad SDF magic");
    if (r.u32() != kVersion) throw FormatError(path + ": bad SDF version");
  }
  std::uint64_t pos = 8;
  auto malformed = [&](const std::string& what) {
    return FormatError(path + ": " + what + " in the record at offset " +
                       std::to_string(pos));
  };
  while (pos < size) {
    if (pos + 8 > size) throw malformed("truncated fixed part");
    auto fixed = read_bytes(read, pos, 8);
    ByteReader fr(fixed);
    std::uint32_t kind = fr.u32();
    std::uint32_t hdrlen = fr.u32();
    if (pos + 8 + hdrlen > size) throw malformed("truncated header");
    auto hdr = read_bytes(read, pos + 8, hdrlen);
    ByteReader r(hdr);
    // Every length below is checked against what is left before it sizes a
    // buffer or moves `pos`, so a record can never reach past the file or
    // send the scan back to an earlier record.
    const std::uint64_t body = pos + 8 + hdrlen;
    if (kind == kKindDataset) {
      SdsInfo info;
      info.name = r.str();
      const std::uint8_t type = r.u8();
      if (type > static_cast<std::uint8_t>(NumberType::kInt64)) {
        throw malformed("bad number type " + std::to_string(type));
      }
      info.type = static_cast<NumberType>(type);
      const std::uint32_t ndims = r.u32();
      if (std::uint64_t{ndims} * 8 > r.remaining()) {
        throw malformed(std::to_string(ndims) + " dims overrun the header");
      }
      info.dims.reserve(ndims);
      for (std::uint32_t d = 0; d < ndims; ++d) info.dims.push_back(r.u64());
      info.data_bytes = r.u64();
      info.data_offset = body;
      if (info.data_bytes > size - body) {
        throw malformed("dataset of " + std::to_string(info.data_bytes) +
                        " bytes overruns the file");
      }
      dir.index[info.name] = dir.datasets.size();
      dir.datasets.push_back(info);
      pos = info.data_offset + info.data_bytes;
    } else if (kind == kKindAttribute) {
      std::string name = r.str();
      std::uint64_t nbytes = r.u64();
      if (nbytes > size - body) {
        throw malformed("attribute of " + std::to_string(nbytes) +
                        " bytes overruns the file");
      }
      dir.attributes[name] = read_bytes(read, body, nbytes);
      pos = body + nbytes;
    } else {
      throw malformed("unknown record kind " + std::to_string(kind));
    }
  }
  return dir;
}

const SdsInfo& SdDirectory::info(const std::string& name) const {
  auto it = index.find(name);
  if (it == index.end()) {
    throw IoError("SdFile: no dataset " + name + " in " + path);
  }
  return datasets[it->second];
}

void SdFile::write_dataset(const std::string& name, NumberType type,
                           const std::vector<std::uint64_t>& dims,
                           std::span<const std::byte> data) {
  PARAMRIO_REQUIRE(open_ && writable_, "SdFile: not open for writing");
  PARAMRIO_REQUIRE(dir_.index.find(name) == dir_.index.end(),
                   "SdFile: duplicate dataset " + name);
  SdsInfo info;
  info.name = name;
  info.type = type;
  info.dims = dims;
  info.data_bytes = data.size();
  PARAMRIO_REQUIRE(info.element_count() * element_size(type) == data.size(),
                   "SdFile: data size does not match dims for " + name);

  ByteWriter hw;
  hw.str(name);
  hw.u8(static_cast<std::uint8_t>(type));
  hw.u32(static_cast<std::uint32_t>(dims.size()));
  for (auto d : dims) hw.u64(d);
  hw.u64(data.size());
  auto hdr = hw.take();

  ByteWriter fw;
  fw.u32(kKindDataset);
  fw.u32(static_cast<std::uint32_t>(hdr.size()));
  fw.bytes(hdr);
  auto rec = fw.take();

  fs_->write_at(fd_, append_pos_, rec);
  info.data_offset = append_pos_ + rec.size();
  fs_->write_at(fd_, info.data_offset, data);
  append_pos_ = info.data_offset + data.size();
  dir_.index[name] = dir_.datasets.size();
  dir_.datasets.push_back(std::move(info));
}

void SdFile::read_dataset(const std::string& name,
                          std::span<std::byte> out) const {
  const SdsInfo& i = info(name);
  PARAMRIO_REQUIRE(out.size() == i.data_bytes,
                   "SdFile: buffer size mismatch for " + name);
  fs_->read_exact(fd_, i.data_offset, out);
}

void SdFile::write_attribute(const std::string& name,
                             std::span<const std::byte> value) {
  PARAMRIO_REQUIRE(open_ && writable_, "SdFile: not open for writing");
  ByteWriter hw;
  hw.str(name);
  hw.u64(value.size());
  auto hdr = hw.take();
  ByteWriter fw;
  fw.u32(kKindAttribute);
  fw.u32(static_cast<std::uint32_t>(hdr.size()));
  fw.bytes(hdr);
  fw.bytes(value);
  auto rec = fw.take();
  fs_->write_at(fd_, append_pos_, rec);
  append_pos_ += rec.size();
  dir_.attributes[name].assign(value.begin(), value.end());
}

std::vector<std::byte> SdFile::read_attribute(const std::string& name) const {
  auto it = dir_.attributes.find(name);
  if (it == dir_.attributes.end()) {
    throw IoError("SdFile: no attribute " + name + " in " + dir_.path);
  }
  return it->second;
}

bool SdFile::has_dataset(const std::string& name) const {
  return dir_.index.find(name) != dir_.index.end();
}

const SdsInfo& SdFile::info(const std::string& name) const {
  return dir_.info(name);
}

std::vector<std::string> SdFile::dataset_names() const {
  std::vector<std::string> names;
  names.reserve(dir_.datasets.size());
  for (const auto& d : dir_.datasets) names.push_back(d.name);
  return names;
}

}  // namespace paramrio::hdf4
