#include "query/index.hpp"

#include <cstring>

#include "base/byte_io.hpp"

namespace paramrio::query {

namespace {

constexpr std::uint32_t kIndexMagic = 0x58444951;  // "QIDX"
constexpr std::uint32_t kIndexVersion = 1;

/// Stream the (sorted) particle_id array and record the sample ladder.
/// Timed: this is the one data-region scan an index build pays.
void build_id_ladder(pfs::FileSystem& fs, GenerationIndex& ix) {
  if (ix.meta.n_particles == 0 || ix.particles.empty()) return;
  const ParticleExtent& ids = ix.particles[0];
  const std::uint64_t n = ix.meta.n_particles;
  int fd = fs.open(ids.path, pfs::OpenMode::kRead);
  const std::uint64_t chunk_elems = (1 * MiB) / sizeof(std::uint64_t);
  std::vector<std::byte> buf;
  for (std::uint64_t first = 0; first < n; first += chunk_elems) {
    const std::uint64_t count = std::min(chunk_elems, n - first);
    buf.resize(count * sizeof(std::uint64_t));
    try {
      fs.read_exact(fd, ids.offset + first * sizeof(std::uint64_t), buf);
    } catch (...) {
      fs.close(fd);
      throw;
    }
    for (std::uint64_t i = 0; i < count; ++i) {
      std::uint64_t id = 0;
      std::memcpy(&id, buf.data() + i * sizeof(std::uint64_t), sizeof id);
      const std::uint64_t global = first + i;
      if (global == 0) ix.id_min = id;
      if (global == n - 1) ix.id_max = id;
      if (global % kIdSampleStride == 0 || global == n - 1) {
        ix.id_samples.push_back(IdSample{id, global});
      }
    }
  }
  fs.close(fd);
}

}  // namespace

const FieldExtent& GenerationIndex::field(std::uint64_t grid_id,
                                          const std::string& name) const {
  auto git = fields.find(grid_id);
  if (git == fields.end()) {
    throw IoError("query: no grid " + std::to_string(grid_id) +
                  " in generation " + std::to_string(gen));
  }
  auto fit = git->second.find(name);
  if (fit == git->second.end()) {
    throw IoError("query: grid " + std::to_string(grid_id) +
                  " has no field '" + name + "'");
  }
  return fit->second;
}

std::vector<std::byte> GenerationIndex::serialize() const {
  ByteWriter w;
  w.u32(kIndexMagic);
  w.u32(kIndexVersion);
  w.u64(gen);
  w.u8(static_cast<std::uint8_t>(format));
  auto meta_blob = meta.serialize();
  w.u64(meta_blob.size());
  w.bytes(meta_blob);
  w.u64(fields.size());
  for (const auto& [grid_id, gf] : fields) {
    w.u64(grid_id);
    w.u32(static_cast<std::uint32_t>(gf.size()));
    for (const auto& [name, e] : gf) {
      w.str(name);
      w.str(e.path);
      w.u64(e.offset);
      w.u64(e.bytes);
      for (std::uint64_t d : e.dims) w.u64(d);
    }
  }
  w.u32(static_cast<std::uint32_t>(particles.size()));
  for (const ParticleExtent& p : particles) {
    w.str(p.path);
    w.u64(p.offset);
    w.u64(p.elem_size);
  }
  w.u64(id_min);
  w.u64(id_max);
  w.u64(id_samples.size());
  for (const IdSample& s : id_samples) {
    w.u64(s.id);
    w.u64(s.index);
  }
  w.u64(attributes.size());
  for (const auto& [name, value] : attributes) {
    w.str(name);
    w.u64(value.size());
    w.bytes(value);
  }
  return w.take();
}

GenerationIndex GenerationIndex::deserialize(std::span<const std::byte> data) {
  ByteReader r(data);
  if (r.u32() != kIndexMagic) {
    throw FormatError("query index blob: bad magic");
  }
  std::uint32_t version = r.u32();
  if (version != kIndexVersion) {
    throw FormatError("query index blob: unsupported version " +
                      std::to_string(version));
  }
  GenerationIndex ix;
  ix.gen = r.u64();
  const std::uint8_t format = r.u8();
  if (format > static_cast<std::uint8_t>(enzo::DumpFormat::kPnetcdf)) {
    throw FormatError("query index blob: bad dump format " +
                      std::to_string(format));
  }
  ix.format = static_cast<enzo::DumpFormat>(format);
  std::uint64_t meta_bytes = r.u64();
  ix.meta = enzo::DumpMeta::deserialize(r.bytes(meta_bytes));
  std::uint64_t ngrids = r.u64();
  for (std::uint64_t g = 0; g < ngrids; ++g) {
    std::uint64_t grid_id = r.u64();
    std::uint32_t nf = r.u32();
    auto& gf = ix.fields[grid_id];
    for (std::uint32_t f = 0; f < nf; ++f) {
      std::string name = r.str();
      FieldExtent e;
      e.path = r.str();
      e.offset = r.u64();
      e.bytes = r.u64();
      for (auto& d : e.dims) d = r.u64();
      gf[std::move(name)] = std::move(e);
    }
  }
  std::uint32_t np = r.u32();
  for (std::uint32_t p = 0; p < np; ++p) {
    ParticleExtent e;
    e.path = r.str();
    e.offset = r.u64();
    e.elem_size = r.u64();
    ix.particles.push_back(std::move(e));
  }
  ix.id_min = r.u64();
  ix.id_max = r.u64();
  std::uint64_t ns = r.u64();
  for (std::uint64_t s = 0; s < ns; ++s) {
    IdSample sample;
    sample.id = r.u64();
    sample.index = r.u64();
    ix.id_samples.push_back(sample);
  }
  std::uint64_t na = r.u64();
  for (std::uint64_t a = 0; a < na; ++a) {
    std::string name = r.str();
    std::uint64_t bytes = r.u64();
    auto span = r.bytes(bytes);
    ix.attributes[std::move(name)].assign(span.begin(), span.end());
  }
  return ix;
}

GenerationIndex build_index(pfs::FileSystem& fs, const std::string& gen_base,
                            std::uint64_t gen) {
  GenerationIndex ix;
  static_cast<enzo::DumpLayout&>(ix) = enzo::decode_dump(fs, gen_base);
  ix.gen = gen;
  build_id_ladder(fs, ix);
  return ix;
}

GenerationIndex build_head_index(pfs::FileSystem& fs,
                                 enzo::DumpDecoder& decoder,
                                 std::uint64_t gen) {
  GenerationIndex ix;
  decoder.decode_head(fs, ix);
  ix.gen = gen;
  build_id_ladder(fs, ix);
  return ix;
}

}  // namespace paramrio::query
