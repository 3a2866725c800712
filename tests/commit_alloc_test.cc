// Large allocations on the commit path. This binary replaces the global
// operator new to count allocations of 128 KiB or more — glibc's default
// mmap threshold — made while one ingest round is flushed and committed. A
// scratch buffer of that size allocated per use is mapped and unmapped each
// time, so its cost follows glibc's dynamic threshold rather than the code.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <map>
#include <new>
#include <string>
#include <vector>

#include "core/deeplake.h"
#include "sim/workload.h"
#include "storage/storage.h"

namespace {

constexpr size_t kLarge = 128u << 10;
std::atomic<bool> g_counting{false};
std::atomic<size_t> g_large{0};
// Sizes of the first large allocations, for the failure message.
std::atomic<size_t> g_sizes[16];

}  // namespace

// dllint-ok(raw-new-delete): the replaceable global allocation functions
// this binary counts through; they wrap malloc/free and own nothing.
void* operator new(size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  if (n >= kLarge && g_counting.load(std::memory_order_relaxed)) {
    size_t i = g_large.fetch_add(1, std::memory_order_relaxed);
    if (i < 16) g_sizes[i].store(n, std::memory_order_relaxed);
  }
  return p;
}
// GCC reads free() in a replacement operator delete as mismatched with
// operator new; both sides here are malloc/free.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
// dllint-ok(raw-new-delete): the matching replacement deallocators.
void operator delete(void* p) noexcept { std::free(p); }
// dllint-ok(raw-new-delete): the sized form of the same.
void operator delete(void* p, size_t) noexcept { std::free(p); }

namespace dl {
namespace {

constexpr uint64_t kRoundRows = 32;

Status AppendRows(DeepLake& lake, const sim::WorkloadGenerator& gen,
                  uint64_t begin, uint64_t end) {
  for (uint64_t i = begin; i < end; ++i) {
    sim::SampleSpec spec = gen.Generate(i);
    std::map<std::string, tsf::Sample> row;
    row["images"] = tsf::Sample(tsf::DType::kUInt8,
                                tsf::TensorShape(spec.shape),
                                Slice(std::move(spec.pixels)));
    row["labels"] = tsf::Sample::Scalar(spec.label, tsf::DType::kInt32);
    row["index"] =
        tsf::Sample::Scalar(static_cast<int64_t>(i), tsf::DType::kInt64);
    DL_RETURN_IF_ERROR(lake.Append(row));
  }
  return Status::OK();
}

// One 32-row JPEG round, as the ingest workload commits it. Its Flush +
// Commit allocates two buffers of 128 KiB or more: the sealed image chunk
// (ChunkBuilder::Finish) and the store's copy of it (MemoryStore::Put).
// Both are the round's data. The LZ77 match table, 128 KiB of per-call
// scratch that each chunk-compressed Flush used to allocate, is kept per
// thread instead.
TEST(CommitAllocTest, FlushAndCommitAllocateOnlyTheChunkObject) {
  auto lake =
      DeepLake::Open(std::make_shared<storage::MemoryStore>()).MoveValue();
  tsf::TensorOptions img;
  img.htype = "image";
  img.sample_compression = "jpeg";
  ASSERT_TRUE(lake->CreateTensor("images", img).ok());
  tsf::TensorOptions lbl;
  lbl.htype = "class_label";
  ASSERT_TRUE(lake->CreateTensor("labels", lbl).ok());
  tsf::TensorOptions idx;
  idx.dtype = "int64";
  ASSERT_TRUE(lake->CreateTensor("index", idx).ok());
  sim::WorkloadGenerator gen(sim::WorkloadGenerator::SmallJpeg(), 1);
  ASSERT_TRUE(AppendRows(*lake, gen, 0, 4 * kRoundRows).ok());
  ASSERT_TRUE(lake->Commit("setup").ok());

  for (uint64_t round = 0; round < 3; ++round) {
    const uint64_t begin = (4 + round) * kRoundRows;
    ASSERT_TRUE(AppendRows(*lake, gen, begin, begin + kRoundRows).ok());
    g_large = 0;
    g_counting = true;
    Status flushed = lake->Flush();
    auto committed = lake->Commit("round");
    g_counting = false;
    ASSERT_TRUE(flushed.ok()) << flushed;
    ASSERT_TRUE(committed.ok()) << committed.status();
    std::string sizes;
    for (size_t i = 0; i < std::min<size_t>(g_large, 16); ++i) {
      sizes += " " + std::to_string(g_sizes[i].load());
    }
    EXPECT_EQ(g_large.load(), 2u) << "round " << round << ":" << sizes;
  }
}

}  // namespace
}  // namespace dl
