// Baseline format tests: write→load round trip for every format (the same
// parameterized suite), tar correctness, blob encoding, format-specific
// behaviours (beton range reads, zarr padding, tfrecord CRC).

#include <gtest/gtest.h>

#include <set>

#include "baselines/format.h"
#include "baselines/tar.h"
#include "sim/workload.h"
#include "storage/storage.h"

namespace dl::baselines {
namespace {

storage::StoragePtr Mem() { return std::make_shared<storage::MemoryStore>(); }

std::vector<sim::SampleSpec> MakeSamples(int n, uint64_t side = 64) {
  sim::WorkloadGenerator gen(sim::WorkloadGenerator::FfhqLike(side), 3);
  std::vector<sim::SampleSpec> samples;
  for (int i = 0; i < n; ++i) {
    samples.push_back(gen.Generate(i));
    // Unique labels so round-trip tests can match samples by label.
    samples.back().label = i;
  }
  return samples;
}

struct FormatCase {
  BaselineFormat format;
  bool compress;
};

class BaselineRoundTripTest : public ::testing::TestWithParam<FormatCase> {};

TEST_P(BaselineRoundTripTest, WriteLoadRoundTrip) {
  auto [format, compress] = GetParam();
  auto store = Mem();
  auto samples = MakeSamples(25);

  WriterOptions wopts;
  wopts.compress_samples = compress;
  wopts.shard_bytes = 64 * 1024;  // force multiple shards
  wopts.rows_per_group = 4;
  auto writer = MakeWriter(format, store, "ds", wopts);
  ASSERT_TRUE(writer.ok()) << writer.status();
  for (const auto& s : samples) {
    ASSERT_TRUE((*writer)->Append(s).ok());
  }
  ASSERT_TRUE((*writer)->Finish().ok());

  LoaderOptions lopts;
  lopts.num_workers = 3;
  auto loader = MakeLoader(format, store, "ds", lopts);
  ASSERT_TRUE(loader.ok()) << loader.status();

  // Collect all samples; arrival order is unspecified, so match by label.
  std::map<int64_t, LoadedSample> by_label;
  LoadedSample s;
  while (true) {
    auto more = (*loader)->Next(&s);
    ASSERT_TRUE(more.ok()) << more.status();
    if (!*more) break;
    by_label[s.label] = s;
  }
  ASSERT_EQ(by_label.size(), samples.size())
      << "labels must be unique in this workload";
  for (const auto& original : samples) {
    auto it = by_label.find(original.label);
    ASSERT_NE(it, by_label.end());
    const LoadedSample& loaded = it->second;
    ASSERT_EQ(loaded.shape, original.shape);
    ASSERT_EQ(loaded.pixels.size(), original.pixels.size());
    if (!compress) {
      EXPECT_EQ(loaded.pixels, original.pixels);
    } else {
      // Lossy: bounded per-pixel error.
      int max_err = 0;
      for (size_t i = 0; i < loaded.pixels.size(); ++i) {
        max_err = std::max(max_err, std::abs(int(loaded.pixels[i]) -
                                             int(original.pixels[i])));
      }
      EXPECT_LE(max_err, 2);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFormats, BaselineRoundTripTest,
    ::testing::Values(FormatCase{BaselineFormat::kFolder, false},
                      FormatCase{BaselineFormat::kFolder, true},
                      FormatCase{BaselineFormat::kWebDataset, false},
                      FormatCase{BaselineFormat::kWebDataset, true},
                      FormatCase{BaselineFormat::kBeton, false},
                      FormatCase{BaselineFormat::kBeton, true},
                      FormatCase{BaselineFormat::kZarr, false},
                      FormatCase{BaselineFormat::kN5, false},
                      FormatCase{BaselineFormat::kParquet, false},
                      FormatCase{BaselineFormat::kParquet, true},
                      FormatCase{BaselineFormat::kTfRecord, true},
                      FormatCase{BaselineFormat::kSquirrel, true}),
    [](const ::testing::TestParamInfo<FormatCase>& info) {
      std::string name = std::string(BaselineFormatName(info.param.format)) +
                         "_" + (info.param.compress ? "jpeg" : "raw");
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// NOTE: labels in FfhqLike have num_classes=2, so labels are NOT unique.
// The round-trip suite needs unique labels; patch them here.
class UniqueLabelFixture {
 public:
  static std::vector<sim::SampleSpec> Make(int n, uint64_t side = 64) {
    auto samples = MakeSamples(n, side);
    for (int i = 0; i < n; ++i) samples[i].label = i;
    return samples;
  }
};

TEST(TarTest, BuildParseRoundTrip) {
  TarBuilder tar;
  ASSERT_TRUE(tar.AddFile("a.txt", ByteView(std::string_view("hello"))).ok());
  ByteBuffer big(1000, 0xAB);
  ASSERT_TRUE(tar.AddFile("dir/b.bin", ByteView(big)).ok());
  ASSERT_TRUE(tar.AddFile("empty", ByteView()).ok());
  ByteBuffer archive = tar.Finish();
  EXPECT_EQ(archive.size() % 512, 0u);
  auto entries = ParseTar(ByteView(archive));
  ASSERT_TRUE(entries.ok()) << entries.status();
  ASSERT_EQ(entries->size(), 3u);
  EXPECT_EQ((*entries)[0].name, "a.txt");
  EXPECT_EQ(ByteView((*entries)[0].contents).ToString(), "hello");
  EXPECT_EQ((*entries)[1].contents, big);
  EXPECT_EQ((*entries)[2].contents.size(), 0u);
}

TEST(TarTest, SizeBeyondTheHeaderFieldFails) {
  // 8 GiB needs 12 octal digits; the field holds 11. The view's size is
  // never read past the check, so a one-byte buffer stands in for it.
  TarBuilder tar;
  uint8_t byte = 0;
  EXPECT_TRUE(tar.AddFile("huge", ByteView(&byte, uint64_t{1} << 33))
                  .IsInvalidArgument());
  EXPECT_TRUE(tar.empty());
}

TEST(TarTest, ChecksumDetectsCorruption) {
  TarBuilder tar;
  ASSERT_TRUE(tar.AddFile("x", ByteView(std::string_view("payload"))).ok());
  ByteBuffer archive = tar.Finish();
  archive[20] ^= 0x01;  // flip a header byte
  EXPECT_TRUE(ParseTar(ByteView(archive)).status().IsCorruption());
}

TEST(BlobTest, RawAndCompressedRoundTrip) {
  auto samples = MakeSamples(1, 32);
  WriterOptions raw;
  raw.compress_samples = false;
  ByteBuffer blob = EncodeSampleBlob(samples[0], raw);
  auto s = DecodeSampleBlob(ByteView(blob), true);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->pixels, samples[0].pixels);
  EXPECT_EQ(s->shape, samples[0].shape);

  WriterOptions jpeg;
  jpeg.compress_samples = true;
  ByteBuffer frame = EncodeSampleBlob(samples[0], jpeg);
  EXPECT_LT(frame.size(), blob.size());
  auto undecoded = DecodeSampleBlob(ByteView(frame), false);
  ASSERT_TRUE(undecoded.ok());
  EXPECT_EQ(undecoded->pixels, frame);  // blob passthrough
  EXPECT_EQ(undecoded->shape, samples[0].shape);  // shape still known
}

TEST(BetonTest, LoaderUsesRangeReads) {
  auto store = std::make_shared<storage::InstrumentedStore>(Mem(), "beton");
  auto samples = UniqueLabelFixture::Make(30);
  WriterOptions wopts;
  auto writer = MakeWriter(BaselineFormat::kBeton, store, "b", wopts);
  ASSERT_TRUE(writer.ok());
  for (const auto& s : samples) ASSERT_TRUE((*writer)->Append(s).ok());
  ASSERT_TRUE((*writer)->Finish().ok());

  uint64_t gets_before = store->gets();
  uint64_t ranges_before = store->get_ranges();
  LoaderOptions lopts;
  auto loader = MakeLoader(BaselineFormat::kBeton, store, "b", lopts);
  ASSERT_TRUE(loader.ok()) << loader.status();
  LoadedSample s;
  int count = 0;
  while (*(*loader)->Next(&s)) ++count;
  EXPECT_EQ(count, 30);
  // Everything was served via ranged requests; the object was never read
  // whole.
  EXPECT_EQ(store->gets(), gets_before);
  EXPECT_GT(store->get_ranges() - ranges_before, 2u);
}

TEST(ChunkGridTest, RaggedInputsArePaddedToGrid) {
  auto store = Mem();
  sim::WorkloadGenerator gen(sim::WorkloadGenerator::FfhqLike(40), 5);
  auto first = gen.Generate(0);
  sim::SampleSpec small = gen.Generate(1);
  small.shape = {20, 20, 3};
  small.pixels.assign(20 * 20 * 3, 7);
  small.label = 1;

  WriterOptions wopts;
  wopts.rows_per_group = 2;
  auto writer = MakeWriter(BaselineFormat::kZarr, store, "z", wopts);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Append(first).ok());
  ASSERT_TRUE((*writer)->Append(small).ok());
  ASSERT_TRUE((*writer)->Finish().ok());

  auto loader = MakeLoader(BaselineFormat::kZarr, store, "z", {});
  ASSERT_TRUE(loader.ok()) << loader.status();
  std::map<int64_t, LoadedSample> by_label;
  LoadedSample s;
  while (*(*loader)->Next(&s)) by_label[s.label] = s;
  ASSERT_EQ(by_label.size(), 2u);
  // The small sample was padded into the 40x40 grid: its top-left region
  // holds the data, the rest zeros.
  const LoadedSample& padded = by_label.at(1);
  EXPECT_EQ(padded.shape, (std::vector<uint64_t>{40, 40, 3}));
  EXPECT_EQ(padded.pixels[0], 7);
  EXPECT_EQ(padded.pixels[(39 * 40 + 39) * 3], 0);
}

TEST(TfRecordTest, CrcDetectsShardCorruption) {
  auto store = Mem();
  auto samples = UniqueLabelFixture::Make(4, 16);
  WriterOptions wopts;
  wopts.compress_samples = true;
  auto writer = MakeWriter(BaselineFormat::kTfRecord, store, "t", wopts);
  ASSERT_TRUE(writer.ok());
  for (const auto& s : samples) ASSERT_TRUE((*writer)->Append(s).ok());
  ASSERT_TRUE((*writer)->Finish().ok());

  // Corrupt a shard byte.
  auto keys = store->ListPrefix("t/shard");
  ASSERT_TRUE(keys.ok());
  ASSERT_FALSE(keys->empty());
  ByteBuffer shard = store->Get((*keys)[0]).MoveValue().ToBuffer();
  shard[shard.size() / 2] ^= 0x10;
  ASSERT_TRUE(store->Put((*keys)[0], ByteView(shard)).ok());

  auto loader = MakeLoader(BaselineFormat::kTfRecord, store, "t", {});
  ASSERT_TRUE(loader.ok());
  LoadedSample s;
  Status seen;
  while (true) {
    auto more = (*loader)->Next(&s);
    if (!more.ok()) {
      seen = more.status();
      break;
    }
    if (!*more) break;
  }
  EXPECT_TRUE(seen.IsCorruption());
}

TEST(LoaderEngineTest, ShuffleChangesArrivalOrder) {
  auto store = Mem();
  auto samples = UniqueLabelFixture::Make(40, 16);
  WriterOptions wopts;
  auto writer = MakeWriter(BaselineFormat::kFolder, store, "f", wopts);
  ASSERT_TRUE(writer.ok());
  for (const auto& s : samples) ASSERT_TRUE((*writer)->Append(s).ok());
  ASSERT_TRUE((*writer)->Finish().ok());

  auto drain = [&](bool shuffle, uint64_t seed) {
    LoaderOptions lopts;
    lopts.num_workers = 1;  // serial workers => deterministic arrival
    lopts.shuffle = shuffle;
    lopts.seed = seed;
    auto loader = MakeLoader(BaselineFormat::kFolder, store, "f", lopts);
    EXPECT_TRUE(loader.ok());
    std::vector<int64_t> order;
    LoadedSample s;
    while (*(*loader)->Next(&s)) order.push_back(s.label);
    return order;
  };
  auto sequential = drain(false, 0);
  auto shuffled = drain(true, 9);
  ASSERT_EQ(sequential.size(), 40u);
  ASSERT_EQ(shuffled.size(), 40u);
  EXPECT_NE(sequential, shuffled);
  std::set<int64_t> unique(shuffled.begin(), shuffled.end());
  EXPECT_EQ(unique.size(), 40u);
}

}  // namespace
}  // namespace dl::baselines
