// In-memory byte storage backing all simulated file systems.
//
// Files hold real bytes so that every layer above (MPI-IO, HDF4, HDF5, the
// application checkpoints) can be verified bit-for-bit in tests.  Timing is
// the business of the file systems; the store itself is free.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "base/error.hpp"

namespace paramrio::stor {

/// A flat namespace of named byte arrays with offset read/write.
class ObjectStore {
 public:
  bool exists(const std::string& name) const {
    return objects_.find(name) != objects_.end();
  }

  /// Create (or truncate) an object.
  void create(const std::string& name) { objects_[name].clear(); }

  void remove(const std::string& name) {
    auto it = objects_.find(name);
    if (it == objects_.end()) throw IoError("remove: no such object " + name);
    objects_.erase(it);
  }

  std::uint64_t size(const std::string& name) const {
    return find(name).size();
  }

  /// Write, extending with zero bytes if offset is past the current end.
  /// Throws IoError if the range runs past the largest offset.
  void write_at(const std::string& name, std::uint64_t offset,
                std::span<const std::byte> data) {
    auto& obj = find_mut(name);
    if (data.size() > std::numeric_limits<std::uint64_t>::max() - offset) {
      throw IoError("write past the offset range of " + name + ": offset " +
                    std::to_string(offset) + " + " +
                    std::to_string(data.size()));
    }
    const std::uint64_t end = offset + data.size();
    if (end > obj.size()) obj.resize(end);
    std::copy(data.begin(), data.end(),
              obj.begin() + static_cast<std::ptrdiff_t>(offset));
  }

  /// Read exactly out.size() bytes; throws IoError if the range is past EOF.
  void read_at(const std::string& name, std::uint64_t offset,
               std::span<std::byte> out) const {
    const auto& obj = find(name);
    if (offset > obj.size() || out.size() > obj.size() - offset) {
      throw IoError("read past end of " + name + ": offset " +
                    std::to_string(offset) + " + " +
                    std::to_string(out.size()) + " > " +
                    std::to_string(obj.size()));
    }
    std::copy_n(obj.begin() + static_cast<std::ptrdiff_t>(offset), out.size(),
                out.begin());
  }

  std::vector<std::string> list() const {
    std::vector<std::string> names;
    names.reserve(objects_.size());
    for (const auto& [name, bytes] : objects_) names.push_back(name);
    return names;
  }

  /// Total bytes stored (capacity accounting in tests/benches).
  std::uint64_t total_bytes() const {
    std::uint64_t n = 0;
    for (const auto& [name, bytes] : objects_) n += bytes.size();
    return n;
  }

 private:
  const std::vector<std::byte>& find(const std::string& name) const {
    auto it = objects_.find(name);
    if (it == objects_.end()) throw IoError("no such object: " + name);
    return it->second;
  }
  std::vector<std::byte>& find_mut(const std::string& name) {
    auto it = objects_.find(name);
    if (it == objects_.end()) throw IoError("no such object: " + name);
    return it->second;
  }

  std::map<std::string, std::vector<std::byte>> objects_;
};

}  // namespace paramrio::stor
