// Unit + property tests for src/util: Status/Result, coding, crc32, json,
// strings, thread pool.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <thread>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "storage/storage.h"
#include "tsf/dataset.h"
#include "util/bytes.h"
#include "util/clock.h"
#include "util/coding.h"
#include "util/crc32.h"
#include "util/envelope.h"
#include "util/json.h"
#include "util/macros.h"
#include "util/parallel.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"
#include "version/fsck.h"

namespace dl {
namespace {

// ---------------------------------------------------------------------------
// Status / Result
// ---------------------------------------------------------------------------

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing chunk");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.ToString(), "NotFound: missing chunk");
}

TEST(StatusTest, WithContextPrepends) {
  Status s = Status::IOError("disk gone").WithContext("tensor images");
  EXPECT_EQ(s.message(), "tensor images: disk gone");
  EXPECT_TRUE(s.IsIOError());
}

TEST(StatusTest, WithContextOnOkIsNoop) {
  EXPECT_TRUE(Status::OK().WithContext("ctx").ok());
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= 11; ++c) {
    EXPECT_NE(StatusCodeToString(static_cast<StatusCode>(c)), "InvalidCode");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::InvalidArgument("bad");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
  EXPECT_EQ(r.ValueOr(7), 7);
}

TEST(ResultTest, MoveValue) {
  Result<std::string> r = std::string("payload");
  std::string v = r.MoveValue();
  EXPECT_EQ(v, "payload");
}

Result<int> Half(int v) {
  if (v % 2 != 0) return Status::InvalidArgument("odd");
  return v / 2;
}

Result<int> Quarter(int v) {
  DL_ASSIGN_OR_RETURN(int h, Half(v));
  DL_ASSIGN_OR_RETURN(int q, Half(h));
  return q;
}

TEST(ResultTest, AssignOrReturnMacroPropagates) {
  EXPECT_EQ(*Quarter(8), 2);
  EXPECT_TRUE(Quarter(6).status().IsInvalidArgument());
  EXPECT_TRUE(Quarter(7).status().IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// Coding
// ---------------------------------------------------------------------------

TEST(CodingTest, FixedRoundTrip) {
  ByteBuffer buf;
  PutFixed16(buf, 0xBEEF);
  PutFixed32(buf, 0xDEADBEEF);
  PutFixed64(buf, 0x0123456789ABCDEFull);
  Decoder dec{ByteView(buf)};
  EXPECT_EQ(*dec.GetFixed16(), 0xBEEF);
  EXPECT_EQ(*dec.GetFixed32(), 0xDEADBEEFu);
  EXPECT_EQ(*dec.GetFixed64(), 0x0123456789ABCDEFull);
  EXPECT_TRUE(dec.done());
}

TEST(CodingTest, VarintBoundaries) {
  std::vector<uint64_t> values = {0,    1,     127,        128,
                                  300,  16383, 16384,      UINT32_MAX,
                                  1ull << 56,  UINT64_MAX};
  ByteBuffer buf;
  for (uint64_t v : values) PutVarint64(buf, v);
  Decoder dec{ByteView(buf)};
  for (uint64_t v : values) {
    auto r = dec.GetVarint64();
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, v);
  }
  EXPECT_TRUE(dec.done());
}

TEST(CodingTest, VarintTruncationIsCorruption) {
  ByteBuffer buf;
  PutVarint64(buf, UINT64_MAX);
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    Decoder dec{ByteView(buf.data(), cut)};
    EXPECT_TRUE(dec.GetVarint64().status().IsCorruption()) << cut;
  }
}

TEST(CodingTest, ZigZagRoundTrip) {
  for (int64_t v : {int64_t{0}, int64_t{-1}, int64_t{1}, int64_t{-64},
                    int64_t{63}, INT64_MIN, INT64_MAX}) {
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(v)), v);
  }
  // Small magnitudes encode small.
  EXPECT_LE(ZigZagEncode(-1), 1u);
  EXPECT_LE(ZigZagEncode(2), 4u);
}

class CodingPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CodingPropertyTest, RandomVarintRoundTrip) {
  Rng rng(GetParam());
  ByteBuffer buf;
  std::vector<uint64_t> values;
  std::vector<int64_t> signed_values;
  for (int i = 0; i < 500; ++i) {
    // Mix magnitudes so every varint length is exercised.
    int bits = static_cast<int>(rng.Uniform(64)) + 1;
    uint64_t v = rng.Next() & ((bits == 64) ? ~0ull : ((1ull << bits) - 1));
    values.push_back(v);
    PutVarint64(buf, v);
    int64_t sv = static_cast<int64_t>(rng.Next());
    signed_values.push_back(sv);
    PutVarintSigned64(buf, sv);
  }
  Decoder dec{ByteView(buf)};
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(*dec.GetVarint64(), values[i]);
    EXPECT_EQ(*dec.GetVarintSigned64(), signed_values[i]);
  }
  EXPECT_TRUE(dec.done());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodingPropertyTest,
                         ::testing::Values(1, 2, 3, 17, 99));

TEST(CodingTest, LengthPrefixedString) {
  ByteBuffer buf;
  PutLengthPrefixedString(buf, "");
  PutLengthPrefixedString(buf, "hello");
  std::string big(100000, 'x');
  PutLengthPrefixedString(buf, big);
  Decoder dec{ByteView(buf)};
  EXPECT_EQ(*dec.GetLengthPrefixedString(), "");
  EXPECT_EQ(*dec.GetLengthPrefixedString(), "hello");
  EXPECT_EQ(*dec.GetLengthPrefixedString(), big);
}

TEST(CodingTest, GetBytesAndSkip) {
  ByteBuffer buf = BufferFromString("abcdefgh");
  Decoder dec{ByteView(buf)};
  ASSERT_TRUE(dec.Skip(2).ok());
  auto v = dec.GetBytes(3);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->ToString(), "cde");
  EXPECT_TRUE(dec.GetBytes(10).status().IsCorruption());
}

// ---------------------------------------------------------------------------
// CRC32
// ---------------------------------------------------------------------------

TEST(Crc32Test, KnownVector) {
  // CRC-32C("123456789") = 0xE3069283 (well-known check value).
  ByteBuffer buf = BufferFromString("123456789");
  EXPECT_EQ(Crc32c(ByteView(buf)), 0xE3069283u);
}

TEST(Crc32Test, ExtendMatchesWhole) {
  ByteBuffer buf = BufferFromString("deep lake tensor storage format");
  uint32_t whole = Crc32c(ByteView(buf));
  uint32_t partial = Crc32cExtend(0, ByteView(buf).subview(0, 10));
  partial = Crc32cExtend(partial, ByteView(buf).subview(10));
  EXPECT_EQ(whole, partial);
}

TEST(Crc32Test, DetectsBitFlip) {
  ByteBuffer buf = BufferFromString("payload payload payload");
  uint32_t before = Crc32c(ByteView(buf));
  buf[5] ^= 0x01;
  EXPECT_NE(before, Crc32c(ByteView(buf)));
}

TEST(Crc32Test, MaskedDiffersFromRaw) {
  ByteBuffer buf = BufferFromString("record");
  EXPECT_NE(Crc32c(ByteView(buf)), MaskedCrc32c(ByteView(buf)));
}

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

TEST(JsonTest, BuildAndDumpObject) {
  Json meta = Json::MakeObject();
  meta.Set("name", "images");
  meta.Set("length", 1200000);
  meta.Set("ragged", true);
  Json shape = Json::MakeArray();
  shape.Append(224);
  shape.Append(224);
  shape.Append(3);
  meta.Set("max_shape", std::move(shape));
  EXPECT_EQ(meta.Dump(),
            R"({"length":1200000,"max_shape":[224,224,3],"name":"images","ragged":true})");
}

TEST(JsonTest, ParseRoundTrip) {
  std::string text =
      R"({"a": [1, 2.5, -3], "b": {"c": null, "d": "x\ny"}, "e": false})";
  auto parsed = Json::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const Json& j = *parsed;
  EXPECT_EQ(j.Get("a").size(), 3u);
  EXPECT_DOUBLE_EQ(j.Get("a")[1].as_number(), 2.5);
  EXPECT_EQ(j.Get("a")[2].as_int(), -3);
  EXPECT_TRUE(j.Get("b").Get("c").is_null());
  EXPECT_EQ(j.Get("b").Get("d").as_string(), "x\ny");
  EXPECT_FALSE(j.Get("e").as_bool(true));

  // Dump → parse is the identity.
  auto reparsed = Json::Parse(j.Dump());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(*reparsed, j);
}

TEST(JsonTest, PrettyPrintParses) {
  Json j = Json::MakeObject();
  j.Set("k", Json::MakeArray());
  j.object()["k"].Append(1);
  std::string pretty = j.Dump(2);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  auto back = Json::Parse(pretty);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, j);
}

TEST(JsonTest, EscapesRoundTrip) {
  Json j = Json::MakeObject();
  j.Set("s", std::string("quote\" slash\\ tab\t nl\n ctrl\x01"));
  auto back = Json::Parse(j.Dump());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->Get("s").as_string(), j.Get("s").as_string());
}

TEST(JsonTest, UnicodeEscape) {
  auto r = Json::Parse(R"("Aé€")");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->as_string(), "A\xc3\xa9\xe2\x82\xac");
}

TEST(JsonTest, MalformedInputsAreCorruption) {
  for (const char* bad :
       {"{", "[1,", "\"unterminated", "{\"k\" 1}", "tru", "1 2", "",
        "{\"a\":}", "[,]", "nul", "\"\\u12g4\""}) {
    auto r = Json::Parse(bad);
    EXPECT_FALSE(r.ok()) << "input: " << bad;
    EXPECT_TRUE(r.status().IsCorruption()) << "input: " << bad;
  }
}

TEST(JsonTest, DeepNestingIsCorruptionNotAStackOverflow) {
  std::string objects;
  for (int i = 0; i < 100000; ++i) objects += "{\"a\":";
  for (const std::string& deep : {std::string(100000, '['), objects}) {
    auto r = Json::Parse(deep);
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsCorruption()) << r.status();
  }
  // Nesting well inside the cap still parses.
  auto ok = Json::Parse(std::string(100, '[') + std::string(100, ']'));
  EXPECT_TRUE(ok.ok()) << ok.status();
}

TEST(JsonTest, ForgedDeepTensorMetaIsReportedNotFatal) {
  auto store = std::make_shared<storage::MemoryStore>();
  {
    auto ds = tsf::Dataset::Create(store).MoveValue();
    ASSERT_TRUE(ds->CreateTensor("labels", {}).ok());
    ASSERT_TRUE(ds->Flush().ok());
  }
  // A valid envelope around a payload that nests far too deep.
  const std::string key = "tensors/labels/tensor_meta.json";
  ASSERT_TRUE(store->Get(key).ok());
  const std::string forged(100000, '[');
  ASSERT_TRUE(store->Put(key, ByteView(EnvelopeWrap(ByteView(forged)))).ok());

  auto opened = tsf::Dataset::Open(store);
  ASSERT_FALSE(opened.ok());
  EXPECT_TRUE(opened.status().IsCorruption()) << opened.status();

  auto report = version::FsckScan(store);
  ASSERT_TRUE(report.ok()) << report.status();
  bool reported = false;
  for (const auto& issue : report->issues) {
    reported |= issue.kind == version::FsckIssueKind::kCorruptObject &&
                issue.key == key;
  }
  EXPECT_TRUE(reported);
}

TEST(JsonTest, MissingKeyIsSharedNull) {
  Json j = Json::MakeObject();
  EXPECT_TRUE(j.Get("absent").is_null());
  EXPECT_FALSE(j.Has("absent"));
}

// ---------------------------------------------------------------------------
// Strings
// ---------------------------------------------------------------------------

TEST(StringTest, Split) {
  auto parts = StrSplit("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(StrSplit("", ',').size(), 1u);
}

TEST(StringTest, JoinTrim) {
  EXPECT_EQ(StrJoin({"a", "b", "c"}, "/"), "a/b/c");
  EXPECT_EQ(StrTrim("  x \t\n"), "x");
  EXPECT_EQ(StrTrim("   "), "");
}

TEST(StringTest, PathJoinCollapsesSlashes) {
  EXPECT_EQ(PathJoin("a/", "/b"), "a/b");
  EXPECT_EQ(PathJoin("a", "b", "c"), "a/b/c");
  EXPECT_EQ(PathJoin("", "b"), "b");
  EXPECT_EQ(PathJoin("a", ""), "a");
}

TEST(StringTest, Misc) {
  EXPECT_TRUE(StartsWith("tensor_meta.json", "tensor"));
  EXPECT_TRUE(EndsWith("tensor_meta.json", ".json"));
  EXPECT_EQ(ToLower("SELECT"), "select");
  EXPECT_EQ(ToUpper("select"), "SELECT");
  EXPECT_EQ(ZeroPad(7, 5), "00007");
  EXPECT_EQ(ZeroPad(123456, 3), "123456");
  EXPECT_EQ(HumanBytes(8 * 1024 * 1024), "8.0 MB");
  EXPECT_EQ(Hex64(0xabc).size(), 16u);
}

// ---------------------------------------------------------------------------
// Rng determinism
// ---------------------------------------------------------------------------

TEST(RngTest, DeterministicPerSeed) {
  Rng a(42), b(42), c(43);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

// ---------------------------------------------------------------------------
// ThreadPool / Semaphore
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 200; ++i) {
    pool.Submit([&] { counter++; });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([&] { counter++; });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
  pool.Submit([&] { counter++; });
  pool.Wait();
  EXPECT_EQ(counter.load(), 2);
}

TEST(SemaphoreTest, BoundsConcurrency) {
  Semaphore sem(2);
  EXPECT_TRUE(sem.TryAcquire());
  EXPECT_TRUE(sem.TryAcquire());
  EXPECT_FALSE(sem.TryAcquire());
  sem.Release();
  EXPECT_TRUE(sem.TryAcquire());
  sem.Release(2);
}

TEST(SemaphoreTest, AcquireBlocksUntilRelease) {
  Semaphore sem(0);
  std::atomic<bool> acquired{false};
  std::thread t([&] {
    sem.Acquire();
    acquired = true;
  });
  SleepMicros(20000);
  EXPECT_FALSE(acquired.load());
  sem.Release();
  t.join();
  EXPECT_TRUE(acquired.load());
}

// Threads of this process, from /proc/self/status.
int ProcessThreads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::atoi(line.c_str() + 8);
  }
  return -1;
}

TEST(ParallelForTest, ResultsLandByIndex) {
  std::vector<uint64_t> out(1000, 0);
  ASSERT_TRUE(ParallelFor(out.size(), [&](size_t i) {
                out[i] = i * i;
                return Status::OK();
              }).ok());
  for (size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
  bool called = false;
  EXPECT_TRUE(ParallelFor(0, [&](size_t) {
                called = true;
                return Status::OK();
              }).ok());
  EXPECT_FALSE(called);
}

TEST(ParallelForTest, NoThreadOutlivesTheCall) {
  const int before = ProcessThreads();
  ASSERT_GT(before, 0);
  const size_t cores = std::max(1u, std::thread::hardware_concurrency());
  for (int rep = 0; rep < 5; ++rep) {
    Mutex mu("test.parallel_for.ids_mu");
    std::set<std::thread::id> ids;
    ASSERT_TRUE(ParallelFor(8, [&](size_t) {
                  std::this_thread::sleep_for(std::chrono::milliseconds(2));
                  MutexLock lock(mu);
                  ids.insert(std::this_thread::get_id());
                  return Status::OK();
                }).ok());
    EXPECT_EQ(ProcessThreads(), before) << "rep " << rep;
    EXPECT_LE(ids.size(), std::min<size_t>(8, cores));
    if (cores > 1) {
      EXPECT_GT(ids.size(), 1u);
    }
  }
}

TEST(ParallelForTest, AnyTaskErrorIsTheCallsStatus) {
  for (size_t bad = 0; bad < 8; ++bad) {
    std::atomic<size_t> ran{0};
    Status s = ParallelFor(8, [&](size_t i) {
      ++ran;
      return i == bad ? Status::IOError("task " + std::to_string(i))
                      : Status::OK();
    });
    EXPECT_TRUE(s.IsIOError()) << s;
    EXPECT_NE(s.ToString().find("task " + std::to_string(bad)),
              std::string::npos)
        << s;
    EXPECT_GE(ran.load(), 1u);
  }
}

TEST(ParallelForTest, NestedCallRunsInlineOnTheTasksThread) {
  std::atomic<int> elsewhere{0};
  ASSERT_TRUE(ParallelFor(4, [&](size_t) {
                const std::thread::id me = std::this_thread::get_id();
                return ParallelFor(4, [&](size_t) {
                  std::this_thread::sleep_for(std::chrono::milliseconds(1));
                  if (std::this_thread::get_id() != me) ++elsewhere;
                  return Status::OK();
                });
              }).ok());
  EXPECT_EQ(elsewhere.load(), 0);
}

TEST(ParallelForTest, EveryTaskReportsTheCallerAsFanOutOwner) {
  const std::thread::id caller = std::this_thread::get_id();
  EXPECT_EQ(FanOutOwner(), caller);
  std::atomic<int> wrong{0};
  ASSERT_TRUE(ParallelFor(8, [&](size_t) {
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
                if (FanOutOwner() != caller) ++wrong;
                return Status::OK();
              }).ok());
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(FanOutOwner(), caller);
}

}  // namespace
}  // namespace dl
