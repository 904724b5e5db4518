// Little-endian encode/decode helpers for the on-disk file formats
// (hdf4::SdFile and hdf5::*).  Formats are defined byte-for-byte so that
// files written by one backend can be re-read and verified in tests.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "base/error.hpp"

namespace paramrio {

/// Growable byte sink used when serialising format structures.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<std::byte>(v)); }

  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }

  /// Length-prefixed string.
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    bytes(std::as_bytes(std::span(s.data(), s.size())));
  }

  void bytes(std::span<const std::byte> b) {
    buf_.insert(buf_.end(), b.begin(), b.end());
  }

  std::size_t size() const { return buf_.size(); }
  std::span<const std::byte> view() const { return buf_; }
  std::vector<std::byte> take() { return std::move(buf_); }

 private:
  std::vector<std::byte> buf_;
};

/// Bounds-checked reader over a byte span; throws FormatError on overrun.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> data) : data_(data) {}

  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(data_[pos_++]);
  }

  std::uint32_t u32() { return static_cast<std::uint32_t>(little_endian(4)); }

  std::uint64_t u64() { return little_endian(8); }

  double f64() {
    std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }

  std::string str() {
    std::uint32_t n = u32();
    need(n);
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  std::span<const std::byte> bytes(std::size_t n) {
    need(n);
    auto s = data_.subspan(pos_, n);
    pos_ += n;
    return s;
  }

  std::size_t pos() const { return pos_; }
  std::size_t remaining() const { return data_.size() - pos_; }
  void skip(std::size_t n) {
    need(n);
    pos_ += n;
  }

 private:
  /// The next `n` (<= 8) bytes as a little-endian integer, bounds-checked
  /// once for the whole value.
  std::uint64_t little_endian(std::size_t n) {
    need(n);
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < n; ++i) {
      v |= std::uint64_t{static_cast<std::uint8_t>(data_[pos_ + i])} << (8 * i);
    }
    pos_ += n;
    return v;
  }

  void need(std::size_t n) const {
    if (n > data_.size() - pos_) {  // pos_ + n could wrap for a huge n
      throw FormatError("byte reader overrun: need " + std::to_string(n) +
                        " at offset " + std::to_string(pos_) + " of " +
                        std::to_string(data_.size()));
    }
  }

  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

}  // namespace paramrio
