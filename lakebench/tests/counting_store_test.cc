// CountingStore must be invisible to the program: a lake written through it
// ends with the same rows, the same stored objects and chunk bytes and the
// same commits as one written straight to the store, and every
// StorageProvider virtual reaches the wrapped store.

#include "counting_store.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>

#include "core/deeplake.h"
#include "sim/workload.h"

namespace lakebench {
namespace {

/// MemoryStore that reports durable atomic puts and records which calls
/// reached it.
class ProbeStore : public dl::storage::MemoryStore {
 public:
  dl::Status PutDurable(std::string_view key, dl::ByteView value) override {
    ++durable_puts;
    return Put(key, value);
  }
  bool atomic_durable_puts() const override { return true; }
  void Invalidate(std::string_view) override { ++invalidations; }

  std::atomic<int> durable_puts{0};
  std::atomic<int> invalidations{0};
};

struct Written {
  uint64_t rows = 0;
  uint64_t objects = 0;
  uint64_t chunk_bytes = 0;  // bytes of every chunk object
  uint64_t commits = 0;
  int durable_puts = 0;
};

Written WriteLake(bool wrapped) {
  auto probe = std::make_shared<ProbeStore>();
  dl::storage::StoragePtr store = probe;
  std::shared_ptr<CountingStore> counting;
  if (wrapped) {
    counting = std::make_shared<CountingStore>(probe);
    store = counting;
  }
  auto lake = dl::DeepLake::Open(store);
  EXPECT_TRUE(lake.ok()) << lake.status().ToString();
  dl::tsf::TensorOptions img;
  img.htype = "image";
  img.sample_compression = "jpeg";
  EXPECT_TRUE((*lake)->CreateTensor("images", img).ok());
  dl::tsf::TensorOptions lbl;
  lbl.htype = "class_label";
  EXPECT_TRUE((*lake)->CreateTensor("labels", lbl).ok());
  dl::sim::WorkloadGenerator gen(dl::sim::WorkloadGenerator::SmallJpeg(), 7);
  for (uint64_t i = 0; i < 24; ++i) {
    dl::sim::SampleSpec s = gen.Generate(i);
    std::map<std::string, dl::tsf::Sample> row;
    row["images"] =
        dl::tsf::Sample(dl::tsf::DType::kUInt8, dl::tsf::TensorShape(s.shape),
                        dl::Slice(std::move(s.pixels)));
    row["labels"] = dl::tsf::Sample::Scalar(s.label, dl::tsf::DType::kInt32);
    EXPECT_TRUE((*lake)->Append(row).ok());
    if (i == 11) {
      EXPECT_TRUE((*lake)->Commit("first half").ok());
    }
  }
  EXPECT_TRUE((*lake)->Commit("second half").ok());

  Written w;
  w.rows = (*lake)->NumRows();
  auto keys = probe->ListPrefix("");
  EXPECT_TRUE(keys.ok());
  for (const std::string& key : *keys) {
    ++w.objects;
    if (key.find("/chunks/") != std::string::npos) {
      w.chunk_bytes += *probe->SizeOf(key);
    }
  }
  for (const auto& c : (*lake)->Log()) w.commits += c.committed ? 1 : 0;
  w.durable_puts = probe->durable_puts.load();
  if (wrapped) {
    StoreCounts counts = counting->counts();
    EXPECT_EQ(counts.durable_puts, static_cast<uint64_t>(w.durable_puts));
    EXPECT_GT(counts.puts, 0u);
    EXPECT_GT(counts.put_bytes, 0u);
  }
  return w;
}

TEST(CountingStoreTest, WrappingLeavesTheLakeUnchanged) {
  Written plain = WriteLake(false);
  Written wrapped = WriteLake(true);
  EXPECT_EQ(plain.rows, 24u);
  EXPECT_EQ(wrapped.rows, plain.rows);
  // Commit ids and timestamps come from the clock, so metadata objects may
  // differ in a digit; the stored objects and the chunk bytes may not.
  EXPECT_EQ(wrapped.objects, plain.objects);
  EXPECT_GT(plain.chunk_bytes, 0u);
  EXPECT_EQ(wrapped.chunk_bytes, plain.chunk_bytes);
  EXPECT_EQ(wrapped.commits, plain.commits);
  EXPECT_EQ(plain.commits, 2u);
  // Commits take the durable path in both cases.
  EXPECT_GT(plain.durable_puts, 0);
  EXPECT_EQ(wrapped.durable_puts, plain.durable_puts);
}

TEST(CountingStoreTest, ForwardsEveryVirtual) {
  auto probe = std::make_shared<ProbeStore>();
  CountingStore store(probe);
  EXPECT_TRUE(store.atomic_durable_puts());
  ASSERT_TRUE(store.Put("a", dl::ByteView(std::string_view("hello"))).ok());
  ASSERT_TRUE(
      store.PutDurable("b", dl::ByteView(std::string_view("world!"))).ok());
  EXPECT_EQ(probe->durable_puts.load(), 1);
  store.Invalidate("a");
  EXPECT_EQ(probe->invalidations.load(), 1);
  auto got = store.Get("a");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->size(), 5u);
  auto range = store.GetRange("b", 1, 3);
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(range->size(), 3u);
  EXPECT_TRUE(*store.Exists("b"));
  EXPECT_EQ(*store.SizeOf("b"), 6u);
  EXPECT_EQ(store.ListPrefix("")->size(), 2u);
  ASSERT_TRUE(store.Delete("a").ok());
  EXPECT_FALSE(*store.Exists("a"));
  EXPECT_EQ(store.name(), probe->name());

  StoreCounts c = store.counts();
  EXPECT_EQ(c.gets, 2u);
  EXPECT_EQ(c.get_bytes, 8u);
  EXPECT_EQ(c.puts, 2u);
  EXPECT_EQ(c.durable_puts, 1u);
  EXPECT_EQ(c.put_bytes, 11u);
}

TEST(CountingStoreTest, RecordsReadIntervalsOnlyWhileTiming) {
  auto base = std::make_shared<dl::storage::MemoryStore>();
  CountingStore store(base);
  ASSERT_TRUE(store.Put("k", dl::ByteView(std::string_view("abcd"))).ok());
  ASSERT_TRUE(store.Get("k").ok());
  EXPECT_TRUE(store.TakeGetSamples().empty());
  store.set_timing(true);
  ASSERT_TRUE(store.Get("k").ok());
  store.set_timing(false);
  auto samples = store.TakeGetSamples();
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].bytes, 4u);
  EXPECT_LE(samples[0].start_us, samples[0].end_us);
}

}  // namespace
}  // namespace lakebench
