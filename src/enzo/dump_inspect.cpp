#include "enzo/dump_inspect.hpp"

#include <algorithm>
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

using GridFields = std::map<std::string, FieldExtent>;

/// A grid's baryon fields, one SDS each in the HDF4 file `dir`.
GridFields sds_fields(const hdf4::SdDirectory& dir) {
  GridFields gf;
  for (const std::string& name : amr::baryon_field_names()) {
    const hdf4::SdsInfo& i = dir.info(name);
    gf[name] = FieldExtent{dir.path, i.data_offset, i.data_bytes,
                           dims3(i.dims, dir.path + ":" + name)};
  }
  return gf;
}

/// The head lives in the ".topgrid" file; every subgrid file must exist.
void decode_hdf4_head(pfs::FileSystem& fs, const std::string& base,
                      DumpLayout& l) {
  const std::string top_path = base + ".topgrid";
  hdf4::SdFile top = hdf4::SdFile::open(fs, top_path);
  l.attributes["metadata"] = top.read_attribute("metadata");
  l.meta = DumpMeta::deserialize(l.attributes["metadata"]);
  l.fields.emplace(l.meta.hierarchy.root().id, sds_fields(top.directory()));
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
          fs.read_exact(fd, off, out);
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

/// Finds a dataset among those an HDF5 chain walk has passed.
struct WalkedLocator {
  const std::map<std::string, hdf5::DatasetInfo>& walked;
  Located operator()(const std::string& name) const {
    const hdf5::DatasetInfo& i = walked.at(name);
    return Located{i.data_addr, i.data_bytes, i.dims};
  }
};

std::string group_of(const amr::GridDescriptor& g) {
  return g.level == 0 ? std::string("topgrid/") : subgrid_group(g.id);
}

/// The HDF5 / PnetCDF schema: every dataset of `path` is named
/// "<group><array>", and `locate(name)` finds it.
template <typename Locate>
GridFields named_fields(const std::string& path, const amr::GridDescriptor& g,
                        Locate locate) {
  const std::string group = group_of(g);
  GridFields gf;
  for (const std::string& name : amr::baryon_field_names()) {
    const Located x = locate(group + name);
    gf[name] = FieldExtent{path, x.offset, x.bytes,
                           dims3(x.dims, path + ":" + group + name)};
  }
  return gf;
}

template <typename Locate>
void add_named_particles(DumpLayout& l, const std::string& path,
                         Locate locate) {
  if (l.meta.n_particles == 0) return;
  for (const ParticleArraySpec& a : kParticleArrays) {
    l.particles.push_back(ParticleExtent{
        path, locate(std::string("topgrid/") + a.name).offset, a.elem_size});
  }
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
  auto locate = [&](const std::string& name) {
    const pnetcdf::Var* v = h.find_var(name);
    if (v == nullptr) throw FormatError(path + ": missing variable " + name);
    Located x{v->offset, v->bytes, {}};
    for (int id : v->dim_ids) {
      x.dims.push_back(h.dims[static_cast<std::size_t>(id)].length);
    }
    return x;
  };
  for (const amr::GridDescriptor& g : l.meta.hierarchy.grids()) {
    l.fields.emplace(g.id, named_fields(path, g, locate));
  }
  add_named_particles(l, path, locate);
}

}  // namespace

DumpDecoder::DumpDecoder(std::string base, DumpFormat format)
    : base_(std::move(base)), format_(format) {}

void DumpDecoder::decode_head(pfs::FileSystem& fs, DumpLayout& l) {
  l.format = format_;
  switch (format_) {
    case DumpFormat::kHdf4:
      decode_hdf4_head(fs, base_, l);
      return;
    case DumpFormat::kMpiIo:
      decode_mpiio(fs, base_, l);
      return;
    case DumpFormat::kPnetcdf:
      decode_pnetcdf(fs, base_, l);
      return;
    case DumpFormat::kHdf5:
      break;
    case DumpFormat::kUnknown:
      throw IoError("no dump found under base name '" + base_ + "'");
  }
  // HDF5: the metadata attribute leads the chain and names the rest of the
  // head, which the walk then reaches in creation order.
  const std::string path = base_ + ".h5";
  const int fd = fs.open(path, pfs::OpenMode::kRead);
  const std::uint64_t size = fs.size(fd);
  const pfs::ReadAt read = [&](std::uint64_t off, std::span<std::byte> out) {
    fs.read_exact(fd, off, out);
  };
  try {
    walk_to("metadata", true, size, read);
    l.attributes["metadata"] = walked_attributes_.at("metadata");
    l.meta = DumpMeta::deserialize(l.attributes["metadata"]);
    const amr::GridDescriptor& root = l.meta.hierarchy.root();
    for (const std::string& name : amr::baryon_field_names()) {
      walk_to(group_of(root) + name, false, size, read);
    }
    if (l.meta.n_particles > 0) {
      for (const ParticleArraySpec& a : kParticleArrays) {
        walk_to(std::string("topgrid/") + a.name, false, size, read);
      }
    }
  } catch (...) {
    fs.close(fd);
    throw;
  }
  fs.close(fd);
  const amr::GridDescriptor& root = l.meta.hierarchy.root();
  l.fields.emplace(root.id, named_fields(path, root, WalkedLocator{walked_}));
  add_named_particles(l, path, WalkedLocator{walked_});
}

std::string DumpDecoder::step_path(std::uint64_t id) const {
  switch (format_) {
    case DumpFormat::kHdf4:
      return subgrid_file_name(base_, id);
    case DumpFormat::kHdf5:
      return base_ + ".h5";
    default:  // the head holds every grid: a layout without one is bad
      throw FormatError("dump " + base_ + ": grid " + std::to_string(id) +
                        " is missing from its " + to_string(format_) +
                        " layout");
  }
}

void DumpDecoder::walk_to(const std::string& name, bool attribute,
                          std::uint64_t size, const pfs::ReadAt& read) {
  const std::string path = base_ + ".h5";
  if (!walk_) walk_.emplace(hdf5::ChainWalk::open(path, size, read));
  auto passed = [&] {
    return attribute ? walked_attributes_.count(name) > 0
                     : walked_.count(name) > 0;
  };
  while (!passed()) {
    if (walk_->done()) {
      throw FormatError(path + ": the record chain has no " +
                        (attribute ? "attribute " : "dataset ") + name);
    }
    hdf5::ChainWalk::Record rec = walk_->next(read);
    if (rec.is_dataset) {
      std::string n = rec.dataset.name;
      walked_.insert_or_assign(std::move(n), std::move(rec.dataset));
    } else {
      walked_attributes_.insert_or_assign(std::move(rec.attribute),
                                          std::move(rec.value));
    }
  }
}

std::vector<std::uint64_t> DumpDecoder::step(DumpLayout& l, std::uint64_t id,
                                             std::uint64_t size,
                                             const pfs::ReadAt& read) {
  const std::string path = step_path(id);
  if (format_ == DumpFormat::kHdf4) {
    GridFields gf = sds_fields(hdf4::scan_directory(path, size, read));
    if (!l.fields.emplace(id, std::move(gf)).second) return {};
    return {id};
  }
  const std::string group = subgrid_group(id);
  for (const std::string& name : amr::baryon_field_names()) {
    walk_to(group + name, false, size, read);
  }
  // Add every subgrid the walk has fully passed, this one included.
  const auto& names = amr::baryon_field_names();
  std::vector<std::pair<std::uint64_t, GridFields>> passed;
  for (const amr::GridDescriptor& g : l.meta.hierarchy.grids()) {
    if (g.level == 0 || l.fields.count(g.id) > 0) continue;
    const std::string gg = subgrid_group(g.id);
    if (std::all_of(names.begin(), names.end(), [&](const std::string& n) {
          return walked_.count(gg + n) > 0;
        })) {
      passed.emplace_back(g.id,
                          named_fields(path, g, WalkedLocator{walked_}));
    }
  }
  std::vector<std::uint64_t> added;
  for (auto& [gid, gf] : passed) {
    l.fields.emplace(gid, std::move(gf));
    added.push_back(gid);
  }
  return added;
}

DumpLayout decode_dump(pfs::FileSystem& fs, const std::string& base) {
  DumpDecoder dec(base, detect_dump_format(fs, base));
  DumpLayout l;
  dec.decode_head(fs, l);
  std::string path;
  int fd = -1;
  auto close = [&] {
    if (fd >= 0) fs.close(fd);
    fd = -1;
  };
  try {
    for (const amr::GridDescriptor& g : l.meta.hierarchy.grids()) {
      if (l.fields.count(g.id) > 0) continue;
      const std::string step_path = dec.step_path(g.id);
      if (step_path != path) {
        close();
        path = step_path;
        fd = fs.open(path, pfs::OpenMode::kRead);
      }
      dec.step(l, g.id, fs.size(fd),
               [&](std::uint64_t off, std::span<std::byte> out) {
                 fs.read_exact(fd, off, out);
               });
    }
  } catch (...) {
    close();
    throw;
  }
  close();
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
