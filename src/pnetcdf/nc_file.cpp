#include "pnetcdf/nc_file.hpp"

#include <algorithm>

#include "base/byte_io.hpp"

namespace paramrio::pnetcdf {

namespace {
constexpr std::uint32_t kMagic = 0x31434E50;  // "PNC1"
constexpr std::uint32_t kVersion = 1;

std::uint64_t align_up(std::uint64_t v, std::uint64_t a) {
  return a <= 1 ? v : (v + a - 1) / a * a;
}

/// The header length from the fixed prefix, checked against the file size
/// before anything is sized from it.
std::uint32_t checked_header_bytes(std::uint32_t header_bytes,
                                   std::uint64_t file_size,
                                   const std::string& path) {
  if (8 + std::uint64_t{header_bytes} > file_size) {
    throw FormatError(path + ": header length " +
                      std::to_string(header_bytes) + " at offset 4 runs past "
                      "end of file (" + std::to_string(file_size) + " bytes)");
  }
  return header_bytes;
}
}  // namespace

std::uint64_t type_size(NcType t) {
  switch (t) {
    case NcType::kFloat:
    case NcType::kInt:
      return 4;
    case NcType::kDouble:
    case NcType::kInt64:
      return 8;
  }
  throw LogicError("bad NcType");
}

NcFile NcFile::create(mpi::Comm& comm, pfs::FileSystem& fs,
                      const std::string& path, NcConfig config) {
  NcFile f;
  f.comm_ = &comm;
  f.config_ = config;
  f.file_ = std::make_unique<mpi::io::File>(comm, fs, path,
                                            pfs::OpenMode::kCreate,
                                            config.hints);
  f.define_mode_ = true;
  f.open_ = true;
  return f;
}

NcFile NcFile::open(mpi::Comm& comm, pfs::FileSystem& fs,
                    const std::string& path, NcConfig config) {
  NcFile f;
  f.comm_ = &comm;
  f.config_ = config;
  f.file_ = std::make_unique<mpi::io::File>(comm, fs, path,
                                            pfs::OpenMode::kRead,
                                            config.hints);
  // One metadata read for the whole job: rank 0 reads, everyone else gets
  // the header by broadcast (real PnetCDF's open behaviour).
  mpi::Bytes header;
  if (comm.rank() == 0) {
    std::vector<std::byte> fixed(8);
    f.file_->set_view(0);
    f.file_->read_at(0, fixed);
    ByteReader r(fixed);
    if (r.u32() != kMagic) throw FormatError(path + ": not a PNC file");
    header.resize(checked_header_bytes(r.u32(), f.file_->size(), path));
    f.file_->read_at(8, header);
  }
  comm.bcast(header, 0);
  f.parse_header(header);
  f.define_mode_ = false;
  f.open_ = true;
  return f;
}

void NcFile::require_define(bool expected) const {
  PARAMRIO_REQUIRE(open_, "NcFile: closed");
  if (expected) {
    PARAMRIO_REQUIRE(define_mode_, "NcFile: requires define mode");
  } else {
    PARAMRIO_REQUIRE(!define_mode_, "NcFile: requires data mode (enddef?)");
  }
}

int NcFile::def_dim(const std::string& name, std::uint64_t length) {
  require_define(true);
  PARAMRIO_REQUIRE(length > 0, "def_dim: zero-length dimension");
  dims_.push_back(Dim{name, length});
  return static_cast<int>(dims_.size()) - 1;
}

int NcFile::def_var(const std::string& name, NcType type,
                    const std::vector<int>& dim_ids) {
  require_define(true);
  PARAMRIO_REQUIRE(!dim_ids.empty(), "def_var: need at least one dimension");
  PARAMRIO_REQUIRE(var_index_.find(name) == var_index_.end(),
                   "def_var: duplicate variable " + name);
  for (int d : dim_ids) {
    PARAMRIO_REQUIRE(d >= 0 && static_cast<std::size_t>(d) < dims_.size(),
                     "def_var: bad dimension id");
  }
  Var v;
  v.name = name;
  v.type = type;
  v.dim_ids = dim_ids;
  var_index_[name] = static_cast<int>(vars_.size());
  vars_.push_back(std::move(v));
  return static_cast<int>(vars_.size()) - 1;
}

void NcFile::put_att(const std::string& name,
                     std::span<const std::byte> value) {
  require_define(true);
  atts_[name].assign(value.begin(), value.end());
}

std::vector<std::byte> NcFile::serialize_header() const {
  ByteWriter w;
  w.u64(dims_.size());
  for (const Dim& d : dims_) {
    w.str(d.name);
    w.u64(d.length);
  }
  w.u64(vars_.size());
  for (const Var& v : vars_) {
    w.str(v.name);
    w.u8(static_cast<std::uint8_t>(v.type));
    w.u32(static_cast<std::uint32_t>(v.dim_ids.size()));
    for (int d : v.dim_ids) w.u32(static_cast<std::uint32_t>(d));
    w.u64(v.offset);
    w.u64(v.bytes);
  }
  w.u64(atts_.size());
  for (const auto& [name, value] : atts_) {
    w.str(name);
    w.u64(value.size());
    w.bytes(value);
  }
  return w.take();
}

NcHeader parse_nc_header(std::span<const std::byte> data) {
  NcHeader h;
  ByteReader r(data);
  std::uint64_t nd = r.u64();
  for (std::uint64_t i = 0; i < nd; ++i) {
    Dim d;
    d.name = r.str();
    d.length = r.u64();
    h.dims.push_back(std::move(d));
  }
  std::uint64_t nv = r.u64();
  for (std::uint64_t i = 0; i < nv; ++i) {
    Var v;
    v.name = r.str();
    v.type = static_cast<NcType>(r.u8());
    std::uint32_t ndim = r.u32();
    for (std::uint32_t d = 0; d < ndim; ++d) {
      v.dim_ids.push_back(static_cast<int>(r.u32()));
    }
    v.offset = r.u64();
    v.bytes = r.u64();
    h.var_index[v.name] = static_cast<int>(h.vars.size());
    h.vars.push_back(std::move(v));
  }
  std::uint64_t na = r.u64();
  for (std::uint64_t i = 0; i < na; ++i) {
    std::string name = r.str();
    std::uint64_t n = r.u64();
    auto vspan = r.bytes(n);
    h.atts[name].assign(vspan.begin(), vspan.end());
  }
  return h;
}

NcHeader read_nc_header(pfs::FileSystem& fs, const std::string& path) {
  int fd = fs.open(path, pfs::OpenMode::kRead);
  std::vector<std::byte> fixed(8);
  fs.read_at(fd, 0, fixed);
  ByteReader r(fixed);
  if (r.u32() != kMagic) {
    fs.close(fd);
    throw FormatError(path + ": not a PNC file");
  }
  std::vector<std::byte> blob;
  try {
    blob.resize(checked_header_bytes(r.u32(), fs.size(fd), path));
  } catch (const FormatError&) {
    fs.close(fd);
    throw;
  }
  fs.read_at(fd, 8, blob);
  fs.close(fd);
  return parse_nc_header(blob);
}

void NcFile::parse_header(std::span<const std::byte> data) {
  NcHeader h = parse_nc_header(data);
  dims_ = std::move(h.dims);
  vars_ = std::move(h.vars);
  var_index_ = std::move(h.var_index);
  atts_ = std::move(h.atts);
}

void NcFile::enddef() {
  require_define(true);
  // Closed-form layout: header first, then each variable's data 8-byte
  // aligned inside an aligned data region.  Computed identically on every
  // rank; written physically once by rank 0.
  std::uint64_t header_bytes = serialize_header().size();
  std::uint64_t pos = align_up(8 + header_bytes, config_.data_alignment);
  for (Var& v : vars_) {
    v.bytes = v.element_count(dims_) * type_size(v.type);
    v.offset = align_up(pos, 8);
    pos = v.offset + v.bytes;
  }
  if (comm_->rank() == 0) {
    auto header = serialize_header();  // now with final offsets
    ByteWriter w;
    w.u32(kMagic);
    w.u32(static_cast<std::uint32_t>(header.size()));
    w.bytes(header);
    auto blob = w.take();
    file_->set_view(0);
    file_->write_at(0, blob);
  }
  comm_->barrier();  // the ONE synchronisation of the whole define phase
  define_mode_ = false;
}

mpi::Datatype NcFile::subarray_type(const Var& v,
                                    const std::vector<std::uint64_t>& start,
                                    const std::vector<std::uint64_t>& count,
                                    std::uint64_t* bytes_out) const {
  PARAMRIO_REQUIRE(start.size() == v.dim_ids.size() &&
                       count.size() == v.dim_ids.size(),
                   "vara: rank mismatch for " + v.name);
  std::vector<std::uint64_t> sizes;
  sizes.reserve(v.dim_ids.size());
  std::uint64_t n = 1;
  for (std::size_t d = 0; d < v.dim_ids.size(); ++d) {
    sizes.push_back(dims_[static_cast<std::size_t>(v.dim_ids[d])].length);
    n *= count[d];
  }
  *bytes_out = n * type_size(v.type);
  if (n == 0) {
    // Zero-size participation (netCDF allows zero counts): the caller still
    // joins the collective; any placeholder type works since nothing moves.
    return mpi::Datatype::contiguous(1);
  }
  return mpi::Datatype::subarray(sizes, count, start, type_size(v.type));
}

void NcFile::put_vara_all(int varid, const std::vector<std::uint64_t>& start,
                          const std::vector<std::uint64_t>& count,
                          std::span<const std::byte> buf) {
  require_define(false);
  const Var& v = var(varid);
  std::uint64_t bytes = 0;
  auto type = subarray_type(v, start, count, &bytes);
  PARAMRIO_REQUIRE(buf.size() == bytes, "put_vara_all: buffer size mismatch");
  file_->set_view(v.offset, std::move(type));
  file_->write_at_all(0, buf);
}

void NcFile::get_vara_all(int varid, const std::vector<std::uint64_t>& start,
                          const std::vector<std::uint64_t>& count,
                          std::span<std::byte> buf) {
  require_define(false);
  const Var& v = var(varid);
  std::uint64_t bytes = 0;
  auto type = subarray_type(v, start, count, &bytes);
  PARAMRIO_REQUIRE(buf.size() == bytes, "get_vara_all: buffer size mismatch");
  file_->set_view(v.offset, std::move(type));
  file_->read_at_all(0, buf);
}

void NcFile::put_vara(int varid, const std::vector<std::uint64_t>& start,
                      const std::vector<std::uint64_t>& count,
                      std::span<const std::byte> buf) {
  require_define(false);
  const Var& v = var(varid);
  std::uint64_t bytes = 0;
  auto type = subarray_type(v, start, count, &bytes);
  PARAMRIO_REQUIRE(buf.size() == bytes, "put_vara: buffer size mismatch");
  file_->set_view(v.offset, std::move(type));
  file_->write_at(0, buf);
}

mpi::io::Request NcFile::iput_vara(int varid,
                                   const std::vector<std::uint64_t>& start,
                                   const std::vector<std::uint64_t>& count,
                                   std::span<const std::byte> buf) {
  require_define(false);
  const Var& v = var(varid);
  std::uint64_t bytes = 0;
  auto type = subarray_type(v, start, count, &bytes);
  PARAMRIO_REQUIRE(buf.size() == bytes, "iput_vara: buffer size mismatch");
  file_->set_view(v.offset, std::move(type));
  return file_->iwrite_at(0, buf);
}

void NcFile::wait_all(std::span<mpi::io::Request> reqs) {
  file_->wait_all(reqs);
}

void NcFile::get_vara(int varid, const std::vector<std::uint64_t>& start,
                      const std::vector<std::uint64_t>& count,
                      std::span<std::byte> buf) {
  require_define(false);
  const Var& v = var(varid);
  std::uint64_t bytes = 0;
  auto type = subarray_type(v, start, count, &bytes);
  PARAMRIO_REQUIRE(buf.size() == bytes, "get_vara: buffer size mismatch");
  file_->set_view(v.offset, std::move(type));
  file_->read_at(0, buf);
}

void NcFile::put_var_all(int varid, std::span<const std::byte> buf) {
  const Var& v = var(varid);
  std::vector<std::uint64_t> start(v.dim_ids.size(), 0);
  std::vector<std::uint64_t> count;
  for (int d : v.dim_ids) {
    count.push_back(dims_[static_cast<std::size_t>(d)].length);
  }
  put_vara_all(varid, start, count, buf);
}

void NcFile::get_var_all(int varid, std::span<std::byte> buf) {
  const Var& v = var(varid);
  std::vector<std::uint64_t> start(v.dim_ids.size(), 0);
  std::vector<std::uint64_t> count;
  for (int d : v.dim_ids) {
    count.push_back(dims_[static_cast<std::size_t>(d)].length);
  }
  get_vara_all(varid, start, count, buf);
}

std::vector<std::byte> NcFile::get_att(const std::string& name) const {
  auto it = atts_.find(name);
  if (it == atts_.end()) throw IoError("NcFile: no attribute " + name);
  return it->second;
}

bool NcFile::has_att(const std::string& name) const {
  return atts_.find(name) != atts_.end();
}

int NcFile::inq_varid(const std::string& name) const {
  auto it = var_index_.find(name);
  if (it == var_index_.end()) throw IoError("NcFile: no variable " + name);
  return it->second;
}

const Var& NcFile::var(int varid) const {
  PARAMRIO_REQUIRE(varid >= 0 && static_cast<std::size_t>(varid) < vars_.size(),
                   "NcFile: bad variable id");
  return vars_[static_cast<std::size_t>(varid)];
}

const Dim& NcFile::dim(int dimid) const {
  PARAMRIO_REQUIRE(dimid >= 0 && static_cast<std::size_t>(dimid) < dims_.size(),
                   "NcFile: bad dimension id");
  return dims_[static_cast<std::size_t>(dimid)];
}

void NcFile::close() {
  PARAMRIO_REQUIRE(open_, "NcFile: already closed");
  PARAMRIO_REQUIRE(!define_mode_, "NcFile: close before enddef");
  file_->close();
  open_ = false;
}

}  // namespace paramrio::pnetcdf
