#include "enzo/dump_inspect.hpp"

#include <set>
#include <sstream>

#include "hdf4/sd_file.hpp"
#include "hdf5/h5_file.hpp"
#include "pnetcdf/nc_file.hpp"

namespace paramrio::enzo {

std::string to_string(DumpFormat f) {
  switch (f) {
    case DumpFormat::kUnknown:
      return "unknown";
    case DumpFormat::kHdf4:
      return "hdf4 (one file per grid)";
    case DumpFormat::kMpiIo:
      return "mpi-io (single shared file)";
    case DumpFormat::kHdf5:
      return "hdf5 (single shared file)";
    case DumpFormat::kPnetcdf:
      return "pnetcdf (single shared file)";
  }
  throw LogicError("bad DumpFormat");
}

DumpFormat detect_dump_format(pfs::FileSystem& fs, const std::string& base) {
  if (fs.exists(base + ".enzo")) return DumpFormat::kMpiIo;
  if (fs.exists(base + ".h5")) return DumpFormat::kHdf5;
  if (fs.exists(base + ".nc")) return DumpFormat::kPnetcdf;
  if (fs.exists(base + ".topgrid")) return DumpFormat::kHdf4;
  return DumpFormat::kUnknown;
}

namespace {

std::array<std::uint64_t, 3> dims3(const std::vector<std::uint64_t>& d,
                                   const std::string& what) {
  if (d.size() != 3) {
    throw FormatError("dump layout: dataset " + what + " is not 3-d");
  }
  return {d[0], d[1], d[2]};
}

/// Grid `id`'s baryon fields, one SDS each in the HDF4 file `f`.
void add_sds_fields(DumpLayout& l, std::uint64_t id, const hdf4::SdFile& f,
                    const std::string& path) {
  auto& gf = l.fields[id];
  for (const std::string& name : amr::baryon_field_names()) {
    const hdf4::SdsInfo& i = f.info(name);
    gf[name] = FieldExtent{path, i.data_offset, i.data_bytes,
                           dims3(i.dims, path + ":" + name)};
  }
}

void decode_hdf4(pfs::FileSystem& fs, const std::string& base,
                 DumpLayout& l) {
  const std::string top_path = base + ".topgrid";
  hdf4::SdFile top = hdf4::SdFile::open(fs, top_path);
  l.attributes["metadata"] = top.read_attribute("metadata");
  l.meta = DumpMeta::deserialize(l.attributes["metadata"]);
  add_sds_fields(l, l.meta.hierarchy.root().id, top, top_path);
  if (l.meta.n_particles > 0) {
    for (const ParticleArraySpec& a : kParticleArrays) {
      l.particles.push_back(
          ParticleExtent{top_path, top.info(a.name).data_offset, a.elem_size});
    }
  }
  top.close();
  for (const amr::GridDescriptor& g : l.meta.hierarchy.grids()) {
    if (g.level == 0) continue;
    const std::string path = subgrid_file_name(base, g.id);
    if (!fs.exists(path)) {
      throw FormatError("dump " + base + ": missing subgrid file " + path);
    }
    hdf4::SdFile sub = hdf4::SdFile::open(fs, path);
    add_sds_fields(l, g.id, sub, path);
    sub.close();
  }
}

void decode_mpiio(pfs::FileSystem& fs, const std::string& base,
                  DumpLayout& l) {
  const std::string path = base + ".enzo";
  const int fd = fs.open(path, pfs::OpenMode::kRead);
  try {
    l.attributes["metadata"] = read_mpiio_header(
        path, fs.size(fd),
        [&](std::uint64_t off, std::span<std::byte> out) {
          fs.read_at(fd, off, out);
        });
  } catch (...) {
    fs.close(fd);
    throw;
  }
  fs.close(fd);
  l.meta = DumpMeta::deserialize(l.attributes["metadata"]);
  const MpiioSharedLayout layout =
      build_mpiio_layout(l.meta, l.meta.hierarchy.root().dims);
  for (const amr::GridDescriptor& g : l.meta.hierarchy.grids()) {
    const std::uint64_t bytes = g.cell_count() * sizeof(float);
    auto& gf = l.fields[g.id];
    for (int f = 0; f < amr::kNumBaryonFields; ++f) {
      const std::uint64_t off =
          g.level == 0 ? layout.field_off(f)
                       : layout.subgrid_off.at(g.id) +
                             static_cast<std::uint64_t>(f) * bytes;
      gf[amr::baryon_field_names()[static_cast<std::size_t>(f)]] =
          FieldExtent{path, off, bytes, g.dims};
    }
  }
  if (l.meta.n_particles > 0) {
    for (std::size_t a = 0; a < kNumParticleArrays; ++a) {
      l.particles.push_back(ParticleExtent{path, layout.particle_off[a],
                                           kParticleArrays[a].elem_size});
    }
  }
}

/// A dataset as a single-file format's metadata records it.
struct Located {
  std::uint64_t offset = 0;
  std::uint64_t bytes = 0;
  std::vector<std::uint64_t> dims;
};

/// The HDF5 / PnetCDF schema: every dataset of `path` is named
/// "<group><array>", and `locate(name)` finds it.
template <typename Locate>
void add_named_extents(DumpLayout& l, const std::string& path,
                       Locate locate) {
  for (const amr::GridDescriptor& g : l.meta.hierarchy.grids()) {
    const std::string group =
        g.level == 0 ? std::string("topgrid/") : subgrid_group(g.id);
    auto& gf = l.fields[g.id];
    for (const std::string& name : amr::baryon_field_names()) {
      const Located x = locate(group + name);
      gf[name] = FieldExtent{path, x.offset, x.bytes,
                             dims3(x.dims, path + ":" + group + name)};
    }
  }
  if (l.meta.n_particles > 0) {
    for (const ParticleArraySpec& a : kParticleArrays) {
      l.particles.push_back(ParticleExtent{
          path, locate(std::string("topgrid/") + a.name).offset,
          a.elem_size});
    }
  }
}

void decode_hdf5(pfs::FileSystem& fs, const std::string& base,
                 DumpLayout& l) {
  const std::string path = base + ".h5";
  hdf5::H5File h = hdf5::H5File::open(fs, path);
  l.attributes["metadata"] = h.read_attribute("metadata");
  l.meta = DumpMeta::deserialize(l.attributes["metadata"]);
  add_named_extents(l, path, [&](const std::string& name) {
    const hdf5::DatasetInfo& i = h.open_dataset(name).info();
    return Located{i.data_addr, i.data_bytes, i.dims};
  });
  h.close();
}

void decode_pnetcdf(pfs::FileSystem& fs, const std::string& base,
                    DumpLayout& l) {
  const std::string path = base + ".nc";
  const pnetcdf::NcHeader h = pnetcdf::read_nc_header(fs, path);
  auto it = h.atts.find("metadata");
  if (it == h.atts.end()) {
    throw FormatError(path + ": missing metadata attribute");
  }
  l.meta = DumpMeta::deserialize(it->second);
  l.attributes = h.atts;
  add_named_extents(l, path, [&](const std::string& name) {
    const pnetcdf::Var* v = h.find_var(name);
    if (v == nullptr) throw FormatError(path + ": missing variable " + name);
    Located x{v->offset, v->bytes, {}};
    for (int id : v->dim_ids) {
      x.dims.push_back(h.dims[static_cast<std::size_t>(id)].length);
    }
    return x;
  });
}

}  // namespace

DumpLayout decode_dump(pfs::FileSystem& fs, const std::string& base) {
  DumpLayout l;
  l.format = detect_dump_format(fs, base);
  switch (l.format) {
    case DumpFormat::kHdf4:
      decode_hdf4(fs, base, l);
      break;
    case DumpFormat::kMpiIo:
      decode_mpiio(fs, base, l);
      break;
    case DumpFormat::kHdf5:
      decode_hdf5(fs, base, l);
      break;
    case DumpFormat::kPnetcdf:
      decode_pnetcdf(fs, base, l);
      break;
    case DumpFormat::kUnknown:
      throw IoError("no dump found under base name '" + base + "'");
  }
  return l;
}

DumpSummary inspect_dump(pfs::FileSystem& fs, const std::string& base) {
  DumpLayout l = decode_dump(fs, base);
  DumpSummary s;
  s.format = l.format;
  s.meta = std::move(l.meta);
  std::set<std::string> paths;
  for (const auto& [id, gf] : l.fields) {
    for (const auto& [name, e] : gf) paths.insert(e.path);
    s.datasets += gf.size();
  }
  for (const ParticleExtent& p : l.particles) paths.insert(p.path);
  s.datasets += l.particles.size();
  s.files = paths.size();
  for (const std::string& p : paths) s.total_bytes += fs.store().size(p);
  s.max_level = s.meta.hierarchy.max_level();
  s.refined_cells =
      s.meta.hierarchy.total_cells() - s.meta.hierarchy.root().cell_count();
  return s;
}

std::string format_summary(const DumpSummary& s, const std::string& base) {
  std::ostringstream os;
  const auto& root = s.meta.hierarchy.root();
  os << "dump '" << base << "': " << to_string(s.format) << "\n";
  os << "  cycle " << s.meta.cycle << ", t = " << s.meta.time << "\n";
  os << "  root grid " << root.dims[0] << "x" << root.dims[1] << "x"
     << root.dims[2] << ", " << s.meta.hierarchy.grid_count() << " grids, "
     << s.max_level + 1 << " levels, " << s.refined_cells
     << " refined cells\n";
  os << "  " << s.meta.n_particles << " particles\n";
  os << "  " << s.datasets << " datasets in " << s.files << " file(s), "
     << static_cast<double>(s.total_bytes) / 1.0e6 << " MB\n";
  return os.str();
}

}  // namespace paramrio::enzo
