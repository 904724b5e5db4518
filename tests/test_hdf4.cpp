// Unit tests for the HDF4-style serial SD file format.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "hdf4/sd_file.hpp"
#include "pfs/local_fs.hpp"
#include "sim/engine.hpp"

namespace paramrio::hdf4 {
namespace {

sim::Engine::Options opts(int n) {
  sim::Engine::Options o;
  o.nprocs = n;
  return o;
}

std::vector<std::byte> float_data(std::size_t n, float base = 0.0f) {
  std::vector<std::byte> v(n * 4);
  for (std::size_t i = 0; i < n; ++i) {
    float f = base + static_cast<float>(i) * 0.5f;
    std::memcpy(v.data() + i * 4, &f, 4);
  }
  return v;
}

TEST(ElementSize, AllTypes) {
  EXPECT_EQ(element_size(NumberType::kFloat32), 4u);
  EXPECT_EQ(element_size(NumberType::kFloat64), 8u);
  EXPECT_EQ(element_size(NumberType::kInt32), 4u);
  EXPECT_EQ(element_size(NumberType::kInt64), 8u);
}

TEST(SdFile, WriteAndReadBackAfterReopen) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  sim::Engine::run(opts(1), [&](sim::Proc&) {
    auto d1 = float_data(64, 1.0f);
    auto d2 = float_data(27, 2.0f);
    {
      SdFile f = SdFile::create(fs, "grid0001");
      f.write_dataset("density", NumberType::kFloat32, {4, 4, 4}, d1);
      f.write_dataset("energy", NumberType::kFloat32, {3, 3, 3}, d2);
      f.close();
    }
    {
      SdFile f = SdFile::open(fs, "grid0001");
      EXPECT_TRUE(f.has_dataset("density"));
      EXPECT_TRUE(f.has_dataset("energy"));
      EXPECT_FALSE(f.has_dataset("nope"));
      EXPECT_EQ(f.dataset_names(),
                (std::vector<std::string>{"density", "energy"}));
      const SdsInfo& i = f.info("density");
      EXPECT_EQ(i.dims, (std::vector<std::uint64_t>{4, 4, 4}));
      EXPECT_EQ(i.element_count(), 64u);
      std::vector<std::byte> out(i.data_bytes);
      f.read_dataset("density", out);
      EXPECT_EQ(out, d1);
      std::vector<std::byte> out2(f.info("energy").data_bytes);
      f.read_dataset("energy", out2);
      EXPECT_EQ(out2, d2);
      f.close();
    }
  });
}

TEST(SdFile, AttributesSurviveReopen) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  sim::Engine::run(opts(1), [&](sim::Proc&) {
    {
      SdFile f = SdFile::create(fs, "g");
      double t = 13.25;
      f.write_attribute("time", std::as_bytes(std::span(&t, 1)));
      f.write_dataset("d", NumberType::kFloat64, {2},
                      std::vector<std::byte>(16));
      f.write_attribute("cycle", std::as_bytes(std::span("42", 2)));
      f.close();
    }
    {
      SdFile f = SdFile::open(fs, "g");
      auto tv = f.read_attribute("time");
      double t;
      ASSERT_EQ(tv.size(), 8u);
      std::memcpy(&t, tv.data(), 8);
      EXPECT_DOUBLE_EQ(t, 13.25);
      EXPECT_EQ(f.read_attribute("cycle").size(), 2u);
      EXPECT_THROW(f.read_attribute("absent"), IoError);
      f.close();
    }
  });
}

TEST(SdFile, SizeMismatchRejected) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  sim::Engine::run(opts(1), [&](sim::Proc&) {
    SdFile f = SdFile::create(fs, "g");
    EXPECT_THROW(f.write_dataset("d", NumberType::kFloat32, {4, 4},
                                 std::vector<std::byte>(63)),
                 LogicError);
    f.close();
  });
}

TEST(SdFile, DuplicateDatasetRejected) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  sim::Engine::run(opts(1), [&](sim::Proc&) {
    SdFile f = SdFile::create(fs, "g");
    f.write_dataset("d", NumberType::kInt32, {2}, std::vector<std::byte>(8));
    EXPECT_THROW(f.write_dataset("d", NumberType::kInt32, {2},
                                 std::vector<std::byte>(8)),
                 LogicError);
    f.close();
  });
}

TEST(SdFile, ReadOnlyCannotWrite) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  sim::Engine::run(opts(1), [&](sim::Proc&) {
    {
      SdFile f = SdFile::create(fs, "g");
      f.close();
    }
    SdFile f = SdFile::open(fs, "g");
    EXPECT_THROW(f.write_dataset("d", NumberType::kInt32, {1},
                                 std::vector<std::byte>(4)),
                 LogicError);
    f.close();
  });
}

TEST(SdFile, CorruptMagicRejected) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  sim::Engine::run(opts(1), [&](sim::Proc&) {
    int fd = fs.open("bad", pfs::OpenMode::kCreate);
    std::vector<std::byte> junk(64, std::byte{0x5A});
    fs.write_at(fd, 0, junk);
    fs.close(fd);
    EXPECT_THROW(SdFile::open(fs, "bad"), FormatError);
  });
}

TEST(SdFile, TruncatedFileRejected) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  sim::Engine::run(opts(1), [&](sim::Proc&) {
    int fd = fs.open("tiny", pfs::OpenMode::kCreate);
    std::vector<std::byte> four(4);
    fs.write_at(fd, 0, four);
    fs.close(fd);
    EXPECT_THROW(SdFile::open(fs, "tiny"), FormatError);
  });
}

TEST(SdFile, ManyDatasetsDirectoryOrder) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  sim::Engine::run(opts(1), [&](sim::Proc&) {
    {
      SdFile f = SdFile::create(fs, "g");
      for (int i = 0; i < 20; ++i) {
        f.write_dataset("field" + std::to_string(i), NumberType::kFloat32,
                        {8}, float_data(8, static_cast<float>(i)));
      }
      f.close();
    }
    SdFile f = SdFile::open(fs, "g");
    auto names = f.dataset_names();
    ASSERT_EQ(names.size(), 20u);
    for (int i = 0; i < 20; ++i) {
      EXPECT_EQ(names[static_cast<std::size_t>(i)],
                "field" + std::to_string(i));
      std::vector<std::byte> out(32);
      f.read_dataset(names[static_cast<std::size_t>(i)], out);
      float v;
      std::memcpy(&v, out.data(), 4);
      EXPECT_FLOAT_EQ(v, static_cast<float>(i));
    }
    f.close();
  });
}

// ---------------------------------------------------------------------------
// Malformed record headers: each length or type field a scan trusts is
// inflated in a golden file, and the open must end in a FormatError naming
// the file and the record — never an unbounded allocation or a scan that
// loops back to an earlier record.
// ---------------------------------------------------------------------------

std::uint64_t load_le(const std::vector<std::byte>& b, std::uint64_t off,
                      int n) {
  std::uint64_t v = 0;
  for (int i = 0; i < n; ++i) {
    v |= std::uint64_t{static_cast<std::uint8_t>(b[off + i])} << (8 * i);
  }
  return v;
}

void store_le(std::vector<std::byte>& b, std::uint64_t off, std::uint64_t v,
              int n) {
  for (int i = 0; i < n; ++i) {
    b[off + i] = static_cast<std::byte>(v >> (8 * i));
  }
}

/// An attribute, a 1-d dataset, then a 2-d dataset.
std::vector<std::byte> golden_sdf(pfs::FileSystem& fs,
                                  const std::string& path) {
  sim::Engine::run(opts(1), [&](sim::Proc&) {
    SdFile f = SdFile::create(fs, path);
    f.write_attribute("metadata", std::vector<std::byte>(16, std::byte{7}));
    f.write_dataset("a", NumberType::kFloat32, {4}, float_data(4));
    f.write_dataset("b", NumberType::kFloat32, {2, 2}, float_data(4));
    f.close();
  });
  std::vector<std::byte> bytes(fs.store().size(path));
  fs.store().read_at(path, 0, bytes);
  return bytes;
}

/// Offsets of the records, and of the first field after each record's
/// name (the attribute's value length, a dataset's type byte).
struct SdfRecords {
  std::vector<std::uint64_t> at;
  std::vector<std::uint64_t> after_name;
};

SdfRecords walk(const std::vector<std::byte>& b) {
  SdfRecords r;
  for (std::uint64_t pos = 8; pos < b.size();) {
    const std::uint64_t kind = load_le(b, pos, 4);
    const std::uint64_t hdrlen = load_le(b, pos + 4, 4);
    const std::uint64_t body = pos + 8 + hdrlen;
    r.at.push_back(pos);
    r.after_name.push_back(pos + 8 + 4 + load_le(b, pos + 8, 4));
    // Both kinds end their header with a u64: the value or data length.
    pos = body + load_le(b, body - 8, 8);
    if (kind != 1 && kind != 2) ADD_FAILURE() << "unexpected kind " << kind;
  }
  return r;
}

struct SdfDefect {
  std::string name;
  /// Mutates the golden bytes; returns the record offset the diagnosis
  /// must name.
  std::uint64_t (*mutate)(std::vector<std::byte>&, const SdfRecords&);
};

void PrintTo(const SdfDefect& d, std::ostream* os) { *os << d.name; }

class SdfMalformedRecord : public ::testing::TestWithParam<SdfDefect> {};

TEST_P(SdfMalformedRecord, OpenDiagnosesIt) {
  pfs::LocalFs fs(pfs::LocalFsParams{});
  const std::string path = "bad.sdf";
  std::vector<std::byte> bytes = golden_sdf(fs, path);
  const SdfRecords recs = walk(bytes);
  ASSERT_EQ(recs.at.size(), 3u);
  const std::uint64_t off = GetParam().mutate(bytes, recs);
  fs.store().create(path);
  fs.store().write_at(path, 0, bytes);

  std::string error;
  sim::Engine::run(opts(1), [&](sim::Proc&) {
    try {
      SdFile f = SdFile::open(fs, path);
    } catch (const FormatError& e) {
      error = e.what();
    }
  });
  EXPECT_NE(error.find(path), std::string::npos) << error;
  EXPECT_NE(error.find("offset " + std::to_string(off)), std::string::npos)
      << error;
}

INSTANTIATE_TEST_SUITE_P(
    Defects, SdfMalformedRecord,
    ::testing::Values(
        SdfDefect{"HugeDimCount",
                  [](std::vector<std::byte>& b, const SdfRecords& r) {
                    // Dataset header: name, type u8, then the u32 ndims.
                    store_le(b, r.after_name[1] + 1, 0xFFFFFFFFu, 4);
                    return r.at[1];
                  }},
        SdfDefect{"HugeAttributeLength",
                  [](std::vector<std::byte>& b, const SdfRecords& r) {
                    store_le(b, r.after_name[0], std::uint64_t{1} << 62, 8);
                    return r.at[0];
                  }},
        SdfDefect{"DataLengthWrapsToEarlierRecord",
                  [](std::vector<std::byte>& b, const SdfRecords& r) {
                    // data_offset + data_bytes wraps around to record 1.
                    const std::uint64_t body =
                        r.at[2] + 8 + load_le(b, r.at[2] + 4, 4);
                    store_le(b, body - 8, r.at[1] - body, 8);
                    return r.at[2];
                  }},
        SdfDefect{"BadTypeByte",
                  [](std::vector<std::byte>& b, const SdfRecords& r) {
                    store_le(b, r.after_name[2], 9, 1);
                    return r.at[2];
                  }}),
    [](const ::testing::TestParamInfo<SdfDefect>& info) {
      return info.param.name;
    });

/// What an open finds in a file, and one dataset's bytes.
struct SdfContents {
  std::vector<std::string> names;
  std::vector<std::uint64_t> offsets;
  std::vector<std::byte> metadata;
  std::vector<std::byte> b;

  bool operator==(const SdfContents&) const = default;
};

SdfContents open_contents(pfs::FileSystem& fs, const std::string& path) {
  SdfContents c;
  sim::Engine::run(opts(1), [&](sim::Proc&) {
    SdFile f = SdFile::open(fs, path);
    c.names = f.dataset_names();
    for (const std::string& n : c.names) {
      c.offsets.push_back(f.info(n).data_offset);
    }
    c.metadata = f.read_attribute("metadata");
    c.b.resize(f.info("b").data_bytes);
    f.read_dataset("b", c.b);
  });
  return c;
}

TEST(SdfShortReads, OpenAndDatasetReadsResumeThem) {
  // Without fs-level retry, every read of two or more bytes lands only half
  // its bytes; the scan and read_dataset must resume rather than decode the
  // unfilled tail.
  pfs::LocalFs fs(pfs::LocalFsParams{});
  const std::string path = "short.sdf";
  golden_sdf(fs, path);
  const SdfContents clean = open_contents(fs, path);

  fault::FaultSpec shorty;
  shorty.kind = fault::FaultKind::kShortRead;
  shorty.path_substr = path;
  fault::Injector inj(fault::FaultPlan{1, {shorty}});
  fs.attach_fault_hook(&inj);
  SdfContents shorted;
  EXPECT_NO_THROW(shorted = open_contents(fs, path));
  fs.attach_fault_hook(nullptr);
  EXPECT_GT(inj.counters().injected_total(), 0u);
  EXPECT_EQ(shorted, clean);
}

}  // namespace
}  // namespace paramrio::hdf4
