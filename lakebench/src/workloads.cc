#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>

#include "compress/codec.h"
#include "core/deeplake.h"
#include "counting_store.h"
#include "sim/network_model.h"
#include "sim/workload.h"
#include "spans.h"
#include "storage/storage.h"
#include "stream/dataloader.h"
#include "tsf/chunk.h"
#include "util/buffer.h"
#include "util/clock.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace lakebench {
namespace {

using dl::Result;
using dl::Status;
using Row = std::map<std::string, dl::tsf::Sample>;

constexpr uint64_t kLoaderRows = 2000;   // rows of the loader workloads
constexpr uint64_t kPinnedRows = 32;     // rows of the pinned snapshot
constexpr uint64_t kIngestSetupRows = 640;
constexpr uint64_t kRoundRows = 32;      // rows appended per ingest round
constexpr int kSetups = 3;               // setup_s is the median of these
constexpr uint64_t kBatch = 64;
constexpr size_t kPrefetchUnits = 16;
constexpr uint64_t kLruBytes = 128ull << 20;
constexpr uint64_t kSampleBytes = 250ull * 250 * 3;
// A p90 needs >= 10 samples beyond it: the least number of client rounds
// and of loader batches behind a percentile.
constexpr int kMinSamples = 100;
constexpr uint64_t kRawCheckRows = 16;   // raw rows compared byte for byte

enum class Kind { kLocalJpeg, kS3Raw, kIngest };

double Ms(double us) { return us / 1000.0; }

/// Shuffle seed of loader epoch `e`. Fixed per epoch and independent of the
/// workload seed, so which chunks an epoch finds in the LRU is the same on
/// every run (the workload seed only changes the generated data).
uint64_t EpochSeed(int e) { return 0x5eed0000ull + static_cast<uint64_t>(e); }

/// A dataset under test plus the benchmark's views of its storage.
struct Lake {
  std::shared_ptr<dl::storage::MemoryStore> base;
  std::shared_ptr<CountingStore> lower;  // requests reaching the modeled store
  std::shared_ptr<CountingStore> upper;  // requests above the LRU (s3 only)
  std::shared_ptr<dl::DeepLake> lake;
  dl::sim::NetworkModel model;
  std::string pinned_commit;
  std::string setup_commit;
  std::string snapshot_query;          // pinned image query, see PinQuery
  std::vector<uint64_t> pinned_expect;  // the rows it must return
  uint64_t commits = 0;         // commits made by the benchmark
  std::vector<int64_t> labels;  // generator label of every appended row
  uint64_t raw_bytes = 0;       // raw pixel bytes appended
  uint64_t setup_rows = 0;
};

Row MakeRow(dl::sim::SampleSpec spec, uint64_t index) {
  Row row;
  row["images"] = dl::tsf::Sample(dl::tsf::DType::kUInt8,
                                  dl::tsf::TensorShape(spec.shape),
                                  dl::Slice(std::move(spec.pixels)));
  row["labels"] = dl::tsf::Sample::Scalar(spec.label, dl::tsf::DType::kInt32);
  row["index"] = dl::tsf::Sample::Scalar(static_cast<int64_t>(index),
                                         dl::tsf::DType::kInt64);
  return row;
}

Status CreateSchema(dl::DeepLake& lake, const std::string& compression) {
  dl::tsf::TensorOptions img;
  img.htype = "image";
  img.sample_compression = compression;
  DL_RETURN_IF_ERROR(lake.CreateTensor("images", img).status());
  dl::tsf::TensorOptions lbl;
  lbl.htype = "class_label";
  DL_RETURN_IF_ERROR(lake.CreateTensor("labels", lbl).status());
  dl::tsf::TensorOptions idx;
  idx.dtype = "int64";
  return lake.CreateTensor("index", idx).status();
}

/// Appends generator rows [begin, end) and adds the time spent inside
/// Append to `*append_us`. Traced (`spans` set): every row also gets a
/// "tsf.append" span and a standalone encode of its pixels with the image
/// tensor's codec, a "compress.encode" span. The encode runs before the
/// Append on odd rows and after it on even ones, so neither always finds
/// the pixels in cache. `*probe_us` sums those encodes: benchmark work, not
/// the program's.
Status AppendRows(Lake& lk, const dl::sim::WorkloadGenerator& gen,
                  dl::DeepLake& lake, uint64_t begin, uint64_t end,
                  double* append_us, SpanLog* spans = nullptr,
                  double* probe_us = nullptr, int64_t parent = -1,
                  uint64_t trace = 0) {
  dl::tsf::TensorMeta meta;
  if (spans != nullptr) {
    DL_ASSIGN_OR_RETURN(dl::tsf::Tensor * images,
                        lake.dataset().GetTensor("images"));
    meta = images->meta();
  }
  const dl::compress::Codec* codec =
      dl::compress::GetCodec(meta.sample_compression);
  auto encode = [&](const dl::tsf::Sample& image) -> Status {
    dl::compress::CodecContext ctx =
        dl::tsf::ContextForSample(image.dtype, image.shape);
    ctx.quality = meta.quality;
    int64_t t0 = dl::NowMicros();
    auto frame = codec->Compress(image.data.view(), ctx);
    int64_t t1 = dl::NowMicros();
    spans->Add("compress.encode", t0, t1, parent, trace);
    *probe_us += static_cast<double>(t1 - t0);
    return frame.status();
  };
  for (uint64_t i = begin; i < end; ++i) {
    dl::sim::SampleSpec spec = gen.Generate(i);
    lk.labels.push_back(spec.label);
    lk.raw_bytes += spec.pixels.size();
    Row row = MakeRow(std::move(spec), i);
    if (spans != nullptr && i % 2 == 1) {
      DL_RETURN_IF_ERROR(encode(row.at("images")));
    }
    int64_t t0 = dl::NowMicros();
    Status st = lake.Append(row);
    int64_t t1 = dl::NowMicros();
    *append_us += static_cast<double>(t1 - t0);
    DL_RETURN_IF_ERROR(st);
    if (spans != nullptr) {
      spans->Add("tsf.append", t0, t1, parent, trace);
      if (i % 2 == 0) DL_RETURN_IF_ERROR(encode(row.at("images")));
    }
  }
  return Status::OK();
}

/// Builds the workload's dataset: a small pinned snapshot commit, then the
/// rest of the setup rows in a second commit.
Result<Lake> BuildLake(Kind kind, uint64_t seed) {
  Lake lk;
  dl::sim::WorkloadGenerator gen(dl::sim::WorkloadGenerator::SmallJpeg(), seed);
  lk.base = std::make_shared<dl::storage::MemoryStore>();
  lk.model = kind == Kind::kS3Raw ? dl::sim::NetworkModel::S3SameRegion()
                                  : dl::sim::NetworkModel::LocalFs();
  uint64_t rows = kind == Kind::kIngest ? kIngestSetupRows : kLoaderRows;
  // The s3 dataset is uploaded first (written straight into the bucket's
  // backing memory) and then opened remotely, as a training job would.
  dl::storage::StoragePtr write_store = lk.base;
  if (kind != Kind::kS3Raw) {
    lk.lower = std::make_shared<CountingStore>(
        std::make_shared<dl::sim::SimulatedObjectStore>(lk.base, lk.model));
    lk.upper = lk.lower;
    write_store = lk.lower;
  }
  DL_ASSIGN_OR_RETURN(auto lake, dl::DeepLake::Open(write_store));
  DL_RETURN_IF_ERROR(
      CreateSchema(*lake, kind == Kind::kS3Raw ? "none" : "jpeg"));
  double append_us = 0;
  DL_RETURN_IF_ERROR(AppendRows(lk, gen, *lake, 0, kPinnedRows, &append_us));
  DL_ASSIGN_OR_RETURN(lk.pinned_commit, lake->Commit("pinned snapshot"));
  DL_RETURN_IF_ERROR(AppendRows(lk, gen, *lake, kPinnedRows, rows, &append_us));
  DL_ASSIGN_OR_RETURN(lk.setup_commit, lake->Commit("setup rows"));
  lk.commits = 2;
  lk.setup_rows = rows;
  if (kind == Kind::kS3Raw) {
    lake.reset();
    lk.lower = std::make_shared<CountingStore>(
        std::make_shared<dl::sim::SimulatedObjectStore>(lk.base, lk.model));
    lk.upper = std::make_shared<CountingStore>(
        std::make_shared<dl::storage::LruCacheStore>(lk.lower, kLruBytes));
    DL_ASSIGN_OR_RETURN(lake, dl::DeepLake::Open(lk.upper));
  }
  lk.lake = std::move(lake);
  return lk;
}

/// Builds the dataset `builds` times, adds each build's wall time to
/// `*seconds` and keeps the last build.
Result<Lake> SetUp(Kind kind, uint64_t seed, int builds,
                   std::vector<double>* seconds) {
  Lake kept;
  for (int b = 0; b < builds; ++b) {
    kept = Lake();  // release the previous build before making the next
    int64_t t0 = dl::NowMicros();
    DL_ASSIGN_OR_RETURN(kept, BuildLake(kind, seed));
    seconds->push_back(static_cast<double>(dl::NowMicros() - t0) / 1e6);
  }
  return kept;
}

size_t LoaderWorkers() {
  return static_cast<size_t>(std::max(1, Nproc() - 1));
}

dl::stream::DataloaderOptions LoaderOptions(bool shuffle, uint64_t seed) {
  dl::stream::DataloaderOptions opts;
  opts.batch_size = kBatch;
  opts.num_workers = LoaderWorkers();
  opts.prefetch_units = kPrefetchUnits;
  opts.shuffle = shuffle;
  opts.seed = seed;
  opts.tensors = {"images", "labels", "index"};
  return opts;
}

/// What one epoch did, as seen by the consumer.
struct Epoch {
  uint64_t rows = 0;
  double wall_us = 0;         // loader construction to end of stream
  double first_batch_us = 0;  // loader construction to first batch
  std::vector<double> waits_us;    // time blocked in Next(), per batch
  std::vector<uint64_t> order;     // delivered row indices
  int max_threads = 0;
  int64_t process_cpu_us = 0;
  int64_t consumer_cpu_us = 0;
};

/// Ground truth an epoch's output is checked against.
struct Expect {
  const std::vector<int64_t>* labels = nullptr;
  uint64_t rows = 0;                          // rows the epoch must deliver
  std::map<uint64_t, dl::ByteBuffer> raw;     // rows compared byte for byte
};

/// Streams one epoch in a closed loop: the consumer asks for the next batch
/// only after collating the previous one, as a training step would.
Epoch RunEpoch(std::unique_ptr<dl::stream::Dataloader> loader, int64_t t0,
               const Expect& expect, Checks& checks, SpanLog& spans,
               int64_t parent, uint64_t trace) {
  Epoch ep;
  int64_t cpu0 = dl::ProcessCpuMicros();
  int64_t thread0 = dl::ThreadCpuMicros();
  std::vector<uint8_t> seen(expect.rows, 0);
  dl::stream::Batch batch;
  while (true) {
    int64_t w0 = dl::NowMicros();
    auto more = loader->Next(&batch);
    int64_t w1 = dl::NowMicros();
    if (!more.ok()) {
      checks.Op(false, "Next: " + more.status().ToString());
      break;
    }
    if (!*more) break;
    spans.Add("stream.next", w0, w1, parent, trace);
    if (ep.waits_us.empty()) {
      ep.first_batch_us = static_cast<double>(w1 - t0);
      ep.max_threads = ThreadCount();
    }
    ep.waits_us.push_back(static_cast<double>(w1 - w0));
    int64_t c0 = dl::NowMicros();
    auto stacked = batch.Stacked("images");
    int64_t c1 = dl::NowMicros();
    spans.Add("stream.collate", c0, c1, parent, trace);

    bool ok = stacked.ok() && stacked->nbytes() == batch.size * kSampleBytes;
    const auto& images = batch.columns["images"];
    const auto& labels = batch.columns["labels"];
    const auto& index = batch.columns["index"];
    ok = ok && images.size() == batch.size && labels.size() == batch.size &&
         index.size() == batch.size;
    for (size_t j = 0; ok && j < batch.size; ++j) {
      int64_t idx = index[j].AsInt();
      ok = idx >= 0 && static_cast<uint64_t>(idx) < expect.rows &&
           !seen[idx] && labels[j].AsInt() == (*expect.labels)[idx] &&
           images[j].shape.dims() == std::vector<uint64_t>{250, 250, 3};
      if (!ok) break;
      seen[idx] = 1;
      ep.order.push_back(static_cast<uint64_t>(idx));
      auto raw = expect.raw.find(static_cast<uint64_t>(idx));
      if (raw != expect.raw.end()) {
        ok = images[j].data == dl::ByteView(raw->second);
      }
    }
    checks.Op(ok, "batch " + std::to_string(ep.waits_us.size()) +
                      " failed its row checks");
    ep.rows += batch.size;
  }
  ep.wall_us = static_cast<double>(dl::NowMicros() - t0);
  ep.process_cpu_us = dl::ProcessCpuMicros() - cpu0;
  ep.consumer_cpu_us = dl::ThreadCpuMicros() - thread0;
  checks.Op(ep.rows == expect.rows &&
                std::count(seen.begin(), seen.end(), 1) ==
                    static_cast<std::ptrdiff_t>(expect.rows),
            "epoch delivered " + std::to_string(ep.rows) + " of " +
                std::to_string(expect.rows) + " rows");
  return ep;
}

Epoch HeadEpoch(Lake& lk, bool shuffle, uint64_t seed, const Expect& expect,
                Checks& checks, SpanLog& spans, int64_t parent,
                uint64_t trace) {
  int64_t t0 = dl::NowMicros();
  auto loader = lk.lake->Dataloader(LoaderOptions(shuffle, seed));
  return RunEpoch(std::move(loader), t0, expect, checks, spans, parent,
                  trace);
}

/// Latency samples of the client's operations (commit and both query kinds).
struct OpLatencies {
  std::vector<double> commit_us;
  std::vector<double> label_us;
  std::vector<double> snapshot_us;
};

uint64_t CountLabel(const std::vector<int64_t>& labels, int64_t k) {
  return static_cast<uint64_t>(std::count(labels.begin(), labels.end(), k));
}

/// Chooses the pinned image query and the rows it must return. Each pinned
/// row's MEAN is computed from the generator's pixels after a round trip
/// through the image tensor's codec, which is what the lake stores. The
/// threshold is the midpoint of the two middle means, so about half of the
/// rows match on every seed and the check never passes on an empty result.
Status PinQuery(Lake& lk, const dl::sim::WorkloadGenerator& gen) {
  DL_ASSIGN_OR_RETURN(dl::tsf::Tensor * images,
                      lk.lake->dataset().GetTensor("images"));
  const auto& meta = images->meta();
  std::vector<double> means;
  for (uint64_t i = 0; i < kPinnedRows; ++i) {
    dl::sim::SampleSpec spec = gen.Generate(i);
    dl::ByteBuffer pixels = std::move(spec.pixels);
    if (meta.sample_compression != dl::compress::Compression::kNone) {
      DL_ASSIGN_OR_RETURN(
          dl::ByteBuffer frame,
          dl::compress::CompressBytes(
              meta.sample_compression, dl::ByteView(pixels),
              dl::tsf::ContextForSample(meta.dtype,
                                        dl::tsf::TensorShape(spec.shape))));
      DL_ASSIGN_OR_RETURN(pixels,
                          dl::compress::DecompressBytes(
                              meta.sample_compression, dl::ByteView(frame)));
    }
    uint64_t sum = 0;
    for (uint8_t v : pixels) sum += v;
    means.push_back(static_cast<double>(sum) /
                    static_cast<double>(pixels.size()));
  }
  std::vector<double> sorted = means;
  std::sort(sorted.begin(), sorted.end());
  double t = (sorted[kPinnedRows / 2 - 1] + sorted[kPinnedRows / 2]) / 2;
  lk.pinned_expect.clear();
  for (uint64_t i = 0; i < kPinnedRows; ++i) {
    if (means[i] > t) lk.pinned_expect.push_back(i);
  }
  if (lk.pinned_expect.empty()) {
    return Status::FailedPrecondition("every pinned row has the same mean");
  }
  char literal[32];
  std::snprintf(literal, sizeof(literal), "%.17g", t);
  lk.snapshot_query =
      std::string("SELECT * FROM ds WHERE MEAN(images) > ") + literal;
  return Status::OK();
}

/// Per-layer tallies of the traced ingest rounds.
struct RoundTrace {
  std::vector<double> parse_us;
  uint64_t commit_puts = 0, commit_put_bytes = 0, manifest_bytes = 0;
  uint64_t query_gets = 0, label_queries = 0;
  uint64_t rows_examined = 0, rows_returned = 0;
  double scan_us = 0;
  uint64_t scan_rows = 0;
  uint64_t commits = 0;
  double probe_us = 0;  // standalone encodes inside traced rounds
};

/// Sums the profile's filter operators (rows examined, scan wall time).
void AddFilter(const dl::tql::QueryProfile& p, uint64_t* rows_in,
               double* wall_us) {
  for (const auto& op : p.operators) {
    if (op.op == "filter") {
      *rows_in += op.rows_in;
      *wall_us += static_cast<double>(op.wall_us);
    }
  }
}

/// The head label query, then the pinned image query. The label is that of
/// a seeded existing row, so the result is never empty and its size follows
/// from the generator's labels. Traced (`rt` set): profiled, with spans.
void Queries(Lake& lk, dl::Rng& rng, OpLatencies& lat, Checks& checks,
             SpanLog& spans, RoundTrace* rt, int64_t parent, uint64_t trace) {
  int64_t k = lk.labels[rng.Uniform(lk.labels.size())];
  std::string label_query =
      "SELECT * FROM ds WHERE labels = " + std::to_string(k);
  StoreCounts q0 = lk.lower->counts();
  int64_t l0 = dl::NowMicros();
  if (rt != nullptr) {
    auto profile = lk.lake->ExplainQuery(label_query);
    int64_t l1 = dl::NowMicros();
    spans.Add("tql.label_query", l0, l1, parent, trace);
    checks.Op(profile.ok(), "ExplainQuery: " + profile.status().ToString());
    lat.label_us.push_back(static_cast<double>(l1 - l0));
    if (profile.ok()) {
      rt->parse_us.push_back(static_cast<double>(profile->parse_us));
      double unused = 0;
      AddFilter(*profile, &rt->rows_examined, &unused);
      rt->rows_returned += CountLabel(lk.labels, k);
    }
    rt->query_gets += (lk.lower->counts() - q0).gets;
    ++rt->label_queries;
  } else {
    auto view = lk.lake->Query(label_query);
    int64_t l1 = dl::NowMicros();
    lat.label_us.push_back(static_cast<double>(l1 - l0));
    checks.Op(view.ok() && view->size() == CountLabel(lk.labels, k),
              "label query " + std::to_string(k) + " returned a wrong count");
  }

  const char* wrong = "pinned snapshot query returned other rows";
  int64_t s0 = dl::NowMicros();
  if (rt != nullptr) {
    auto snapshot = lk.lake->At(lk.pinned_commit);
    int64_t s1 = dl::NowMicros();
    spans.Add("version.at", s0, s1, parent, trace);
    checks.Op(snapshot.ok(), "At: " + snapshot.status().ToString());
    if (snapshot.ok()) {
      dl::tql::QueryProfile profile;
      dl::tql::QueryOptions qopts;
      qopts.profile = &profile;
      auto view = dl::tql::RunQuery(*snapshot, lk.snapshot_query, qopts);
      int64_t s2 = dl::NowMicros();
      spans.Add("tql.snapshot_query", s1, s2, parent, trace);
      checks.Op(view.ok() && view->indices() == lk.pinned_expect, wrong);
      AddFilter(profile, &rt->scan_rows, &rt->scan_us);
    }
    lat.snapshot_us.push_back(static_cast<double>(dl::NowMicros() - s0));
  } else {
    auto view = lk.lake->QueryAt(lk.pinned_commit, lk.snapshot_query);
    lat.snapshot_us.push_back(static_cast<double>(dl::NowMicros() - s0));
    checks.Op(view.ok() && view->indices() == lk.pinned_expect, wrong);
  }
}

/// What a client's rounds did.
struct ClientRun {
  OpLatencies lat;
  uint64_t rows = 0;       // rows appended
  double append_us = 0;    // time inside Append
  double wall_us = 0, cpu_us = 0;
  // Traced client: rows and wall time of the traced and untraced rounds.
  double traced_rows = 0, traced_wall = 0, plain_rows = 0, plain_wall = 0;
};

/// One client round: append kRoundRows rows, commit, then run Queries
/// once. With `rt` set the round is traced: it flushes explicitly before
/// the commit, profiles both queries and records spans; the output checks
/// run on untraced rounds.
void Round(Lake& lk, const dl::sim::WorkloadGenerator& gen, dl::Rng& rng,
           ClientRun& run, Checks& checks, SpanLog& spans, RoundTrace* rt,
           uint64_t trace) {
  ScopedSpan round(spans, "ingest.round", -1, trace);
  int64_t parent = round.id();
  uint64_t begin = lk.labels.size();
  Status st = AppendRows(lk, gen, *lk.lake, begin, begin + kRoundRows,
                         &run.append_us, rt != nullptr ? &spans : nullptr,
                         rt != nullptr ? &rt->probe_us : nullptr, parent,
                         trace);
  checks.Op(st.ok(), "Append: " + st.ToString());
  run.rows += kRoundRows;

  // Traced, the commit span holds an explicit Flush as its child, so its
  // self time is the version layer's share of the commit.
  StoreCounts before = lk.lower->counts();
  int64_t commit_span = spans.NewId();
  int64_t c0 = dl::NowMicros();
  if (rt != nullptr) {
    Status fl = lk.lake->Flush();
    spans.Add("tsf.flush", c0, dl::NowMicros(), commit_span, trace);
    checks.Op(fl.ok(), "Flush: " + fl.ToString());
  }
  StoreCounts flushed = lk.lower->counts();
  auto commit = lk.lake->Commit("round");
  int64_t c1 = dl::NowMicros();
  spans.Close(commit_span, "version.commit", c0, c1, parent, trace);
  checks.Op(commit.ok(), "Commit: " + commit.status().ToString());
  run.lat.commit_us.push_back(static_cast<double>(c1 - c0));
  ++lk.commits;
  if (rt != nullptr) {
    StoreCounts after = lk.lower->counts();
    rt->commit_puts += (after - before).puts;
    rt->commit_put_bytes += (after - before).put_bytes;
    rt->manifest_bytes += (after - flushed).put_bytes;
    ++rt->commits;
  }
  Queries(lk, rng, run.lat, checks, spans, rt, parent, trace);
}

/// Every committed entry of the log: setup commits plus one per round.
void CheckLog(const Lake& lk, Checks& checks) {
  uint64_t committed = 0;
  for (const auto& c : lk.lake->Log()) committed += c.committed ? 1 : 0;
  checks.Op(committed == lk.commits,
            "Log() has " + std::to_string(committed) + " commits, expected " +
                std::to_string(lk.commits));
}

/// The single client of an ingest lake: `rounds` rounds in a closed loop,
/// then the log check. Traced (`rt` set): odd rounds are traced, even ones
/// are not, so the tracing overhead is measured on the same lake.
Result<ClientRun> RunClient(Lake& lk, const dl::sim::WorkloadGenerator& gen,
                            int rounds, uint64_t seed, Checks& checks,
                            SpanLog& spans, RoundTrace* rt) {
  DL_RETURN_IF_ERROR(PinQuery(lk, gen));
  ClientRun run;
  dl::Rng rng(seed);
  int64_t cpu0 = dl::ProcessCpuMicros();
  int64_t wall0 = dl::NowMicros();
  for (int r = 0; r < rounds; ++r) {
    bool traced = rt != nullptr && r % 2 == 1;
    SpanLog off(false);
    int64_t t0 = dl::NowMicros();
    double probe0 = traced ? rt->probe_us : 0;
    Round(lk, gen, rng, run, checks, traced ? spans : off,
          traced ? rt : nullptr, static_cast<uint64_t>(r));
    // The standalone encodes are the benchmark's own work; leave them out
    // of the round's time so the overhead compares like with like.
    double dt = static_cast<double>(dl::NowMicros() - t0) -
                (traced ? rt->probe_us - probe0 : 0);
    (traced ? run.traced_rows : run.plain_rows) += kRoundRows;
    (traced ? run.traced_wall : run.plain_wall) += dt;
  }
  run.wall_us = static_cast<double>(dl::NowMicros() - wall0);
  run.cpu_us = static_cast<double>(dl::ProcessCpuMicros() - cpu0);
  checks.Op(run.cpu_us <= run.wall_us * Nproc(),
            "process CPU exceeds wall x nproc");
  CheckLog(lk, checks);
  return run;
}

/// Single-threaded walk of the head's image chunks through the public calls
/// a loader worker makes: Get, Chunk::Parse(verify=false), the codec's
/// decode of each stored frame, ReadSample. It splits tsf from compress.
struct Replay {
  uint64_t chunks = 0, rows = 0;
  double parse_us = 0, decode_us = 0;
  // ReadSample minus the decode it contains, per row. ReadSample decodes
  // the frame itself unless samples are stored raw.
  std::vector<double> read_self_us;
  double crc_us = 0, chunk_bytes = 0, stored_bytes = 0, raw_bytes = 0;
  double encode_us = 0;
  uint64_t encoded_rows = 0;
};

Result<Replay> LayerReplay(Lake& lk, const dl::sim::WorkloadGenerator& gen,
                           uint64_t max_rows, uint64_t encode_rows,
                           SpanLog& spans) {
  Replay r;
  ScopedSpan root(spans, "replay", -1, 0);
  DL_ASSIGN_OR_RETURN(dl::tsf::Tensor * images,
                      lk.lake->dataset().GetTensor("images"));
  const auto& meta = images->meta();
  const dl::compress::Codec* codec =
      dl::compress::GetCodec(meta.sample_compression);
  bool compressed =
      meta.sample_compression != dl::compress::Compression::kNone;
  for (const auto& entry : images->chunk_encoder().entries()) {
    if (r.rows >= max_rows) break;
    int64_t t0 = dl::NowMicros();
    DL_ASSIGN_OR_RETURN(dl::Slice bytes,
                        images->store()->Get(images->ChunkKey(entry.chunk_id)));
    int64_t t1 = dl::NowMicros();
    (void)dl::Crc32c(bytes.view());
    int64_t t2 = dl::NowMicros();
    DL_ASSIGN_OR_RETURN(
        dl::tsf::Chunk chunk,
        dl::tsf::Chunk::Parse(bytes, /*verify_checksum=*/false));
    int64_t t3 = dl::NowMicros();
    spans.Add("replay.get", t0, t1, root.id(), 0);
    spans.Add("util.crc32c", t1, t2, root.id(), 0);
    spans.Add("tsf.parse", t2, t3, root.id(), 0);
    r.crc_us += static_cast<double>(t2 - t1);
    r.parse_us += static_cast<double>(t3 - t2);
    r.chunk_bytes += static_cast<double>(bytes.size());
    ++r.chunks;
    dl::ByteBuffer out;
    for (size_t i = 0; i < chunk.num_samples(); ++i) {
      DL_ASSIGN_OR_RETURN(dl::Slice frame, chunk.StoredBytes(i));
      // Whichever of the two runs second finds the frame in cache; swap
      // the order every row so that advantage cancels out.
      int64_t decode_us = 0, read_us = 0;
      dl::tsf::Sample sample;
      for (int step = 0; step < 2; ++step) {
        int64_t t = dl::NowMicros();
        if ((step == 0) == (i % 2 == 0)) {
          DL_RETURN_IF_ERROR(codec->DecompressInto(frame.view(), out));
          decode_us = dl::NowMicros() - t;
          spans.Add("compress.decode", t, t + decode_us, root.id(), 0);
        } else {
          DL_ASSIGN_OR_RETURN(sample, chunk.ReadSample(i));
          read_us = dl::NowMicros() - t;
          spans.Add("tsf.read_sample", t, t + read_us, root.id(), 0);
        }
      }
      r.decode_us += static_cast<double>(decode_us);
      r.read_self_us.push_back(
          static_cast<double>(read_us - (compressed ? decode_us : 0)));
      r.stored_bytes += static_cast<double>(frame.size());
      r.raw_bytes += static_cast<double>(sample.nbytes());
      ++r.rows;
    }
  }
  // Encode cost of the same codec on freshly generated rows.
  dl::compress::CodecContext ctx;
  for (uint64_t i = 0; i < encode_rows; ++i) {
    dl::sim::SampleSpec spec = gen.Generate(i);
    ctx = dl::tsf::ContextForSample(meta.dtype,
                                    dl::tsf::TensorShape(spec.shape));
    ctx.quality = meta.quality;
    int64_t e0 = dl::NowMicros();
    auto frame = codec->Compress(dl::ByteView(spec.pixels), ctx);
    int64_t e1 = dl::NowMicros();
    DL_RETURN_IF_ERROR(frame.status());
    spans.Add("compress.encode", e0, e1, root.id(), 0);
    r.encode_us += static_cast<double>(e1 - e0);
    ++r.encoded_rows;
  }
  return r;
}

/// Raw pixels of a seeded sample of rows, for byte-equality checks.
std::map<uint64_t, dl::ByteBuffer> RawCheckRows(
    const dl::sim::WorkloadGenerator& gen, uint64_t seed, uint64_t rows) {
  std::map<uint64_t, dl::ByteBuffer> out;
  dl::Rng rng(seed ^ 0xc0ffeeull);
  while (out.size() < kRawCheckRows) {
    uint64_t i = rng.Uniform(rows);
    out[i] = gen.Generate(i).pixels;
  }
  return out;
}

Status WriteSpans(const SpanLog& spans, const RunOptions& o) {
  return spans.WriteJson(o.out_dir + "/spans_" + o.workload + "_seed" +
                         std::to_string(o.seed) + ".json");
}

dl::Json JsonArray(const std::vector<double>& values) {
  dl::Json a = dl::Json::MakeArray();
  for (double v : values) a.Append(v);
  return a;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

void Put(RunOutcome& out, const char* name, const char* unit, double value) {
  out.metrics.push_back({name, unit, value});
}

/// Per-layer metric values by name; every workload prints all of them, 0
/// where its load does not exercise the layer.
using Layers = std::map<std::string, double>;

const std::vector<std::pair<const char*, const char*>>& LayerMetricUnits() {
  static const std::vector<std::pair<const char*, const char*>> kUnits = {
      {"storage.get_ops_per_row", "ops/row"},
      {"storage.lru_hit_ratio", "ratio"},
      {"storage.get_ms_p50", "ms"},
      {"storage.get_ms_p90", "ms"},
      {"storage.inflight_mean", "requests"},
      {"storage.put_ops_per_commit", "ops"},
      {"storage.bytes_written_per_commit", "B"},
      {"storage.get_ops_per_query", "ops"},
      {"sim.modeled_floor_img_per_s", "img/s"},
      {"compress.decode_us_per_row", "us/row"},
      {"compress.encode_us_per_row", "us/row"},
      {"compress.stored_per_raw", "B/B"},
      {"tsf.chunk_parse_us_per_chunk", "us"},
      {"tsf.read_sample_self_us_per_row", "us/row"},
      {"tsf.rows_per_chunk", "rows"},
      {"tsf.append_self_us_per_row", "us/row"},
      {"tsf.flush_ms_p50", "ms"},
      {"util.crc32c_us_per_mb", "us/MB"},
      {"util.bytes_copied_per_row", "B/row"},
      {"stream.next_wait_ms_p50", "ms"},
      {"stream.stall_fraction", "ratio"},
      {"stream.collate_us_per_batch", "us"},
      {"stream.worker_cpu_fraction", "ratio"},
      {"stream.shuffle_order_repeat_ratio", "ratio"},
      {"tql.parse_us", "us"},
      {"tql.rows_examined_per_result", "rows"},
      {"tql.scan_us_per_row", "us/row"},
      {"version.commit_self_ms_p50", "ms"},
      {"version.at_ms_p50", "ms"},
      {"version.manifest_bytes_per_commit", "B"},
      {"obs.trace_overhead_pct", "%"},
  };
  return kUnits;
}

void PutLayers(RunOutcome& out, Layers& layers) {
  for (const auto& [name, unit] : LayerMetricUnits()) {
    Put(out, name, unit, layers[name]);
  }
}

void PutReplay(Layers& layers, const Replay& r) {
  layers["compress.decode_us_per_row"] = Ratio(r.decode_us, r.rows);
  layers["compress.encode_us_per_row"] = Ratio(r.encode_us, r.encoded_rows);
  layers["compress.stored_per_raw"] = Ratio(r.stored_bytes, r.raw_bytes);
  layers["tsf.chunk_parse_us_per_chunk"] = Ratio(r.parse_us, r.chunks);
  // The median, not the mean: a preempted decode or read on one row would
  // otherwise swamp a difference of a few microseconds.
  layers["tsf.read_sample_self_us_per_row"] = Median(r.read_self_us);
  layers["tsf.rows_per_chunk"] = Ratio(r.rows, r.chunks);
  layers["util.crc32c_us_per_mb"] = Ratio(r.crc_us, r.chunk_bytes / 1e6);
}

/// Puts the client's metrics: append rate, commit and both query latencies.
void PutClient(RunOutcome& out, const ClientRun& c) {
  Put(out, "ingest_rows_per_s", "rows/s", Ratio(c.rows * 1e6, c.append_us));
  Put(out, "commit_ms_p50", "ms", Ms(Quantile(c.lat.commit_us, 0.5)));
  Put(out, "commit_ms_p90", "ms", Ms(Quantile(c.lat.commit_us, 0.9)));
  Put(out, "label_query_ms_p50", "ms", Ms(Quantile(c.lat.label_us, 0.5)));
  Put(out, "label_query_ms_p90", "ms", Ms(Quantile(c.lat.label_us, 0.9)));
  Put(out, "snapshot_query_ms_p50", "ms",
      Ms(Quantile(c.lat.snapshot_us, 0.5)));
  Put(out, "snapshot_query_ms_p90", "ms",
      Ms(Quantile(c.lat.snapshot_us, 0.9)));
}

// ---------------------------------------------------------------------------
// Loader workloads: local-jpeg-epochs and s3-raw-shuffle.
// ---------------------------------------------------------------------------

/// Measured epochs for a run of about `seconds` on a 4-core box: a fixed
/// count, so every run does the same work (and, on s3, meets the same
/// cache states).
int MeasuredEpochs(int seconds) {
  return std::max(3, static_cast<int>(std::lround(seconds / 1.4)));
}

Result<RunOutcome> RunLoader(Kind kind, const RunOptions& o) {
  RunOutcome out;
  Checks& checks = out.checks;
  SpanLog spans(o.trace);
  dl::sim::WorkloadGenerator gen(dl::sim::WorkloadGenerator::SmallJpeg(),
                                 o.seed);
  bool shuffle = kind == Kind::kS3Raw;
  std::vector<double> setup_s;
  DL_ASSIGN_OR_RETURN(Lake lk, SetUp(kind, o.seed, o.trace ? 1 : kSetups,
                                     &setup_s));
  Expect expect;
  expect.labels = &lk.labels;
  expect.rows = lk.setup_rows;
  if (kind == Kind::kS3Raw) expect.raw = RawCheckRows(gen, o.seed, expect.rows);
  double stored_per_raw = Ratio(static_cast<double>(lk.base->TotalBytes()),
                                static_cast<double>(lk.raw_bytes));

  // Warm-up epoch: fills the buffer pools and, on s3, the LRU.
  SpanLog untraced(false);
  (void)HeadEpoch(lk, shuffle, EpochSeed(0), expect, checks, untraced, -1, 0);

  int epochs = MeasuredEpochs(o.seconds);
  uint64_t rows = 0;
  double wall_us = 0;
  std::vector<double> first_batch_us, waits_us, epoch_rate;
  int max_threads = 0;
  StoreCounts lower0 = lk.lower->counts(), upper0 = lk.upper->counts();
  uint64_t copied0 = dl::TotalBytesCopied();
  int64_t cpu0 = dl::ProcessCpuMicros();
  // Traced run: odd epochs are traced, even ones are not, so the tracing
  // overhead is measured on the same lake in the same process.
  double traced_rows = 0, traced_wall = 0, plain_rows = 0, plain_wall = 0;
  double worker_cpu_us = 0, get_busy_us = 0, modeled_us = 0;
  std::vector<double> get_us;
  for (int e = 1; e <= epochs; ++e) {
    bool traced = o.trace && e % 2 == 1;
    lk.lower->set_timing(traced);
    SpanLog& log = traced ? spans : untraced;
    ScopedSpan span(log, "stream.epoch", -1, static_cast<uint64_t>(e));
    Epoch ep = HeadEpoch(lk, shuffle, EpochSeed(e), expect, checks, log,
                         span.id(), static_cast<uint64_t>(e));
    lk.lower->set_timing(false);
    rows += ep.rows;
    wall_us += ep.wall_us;
    epoch_rate.push_back(Ratio(ep.rows * 1e6, ep.wall_us));
    first_batch_us.push_back(ep.first_batch_us);
    waits_us.insert(waits_us.end(), ep.waits_us.begin(), ep.waits_us.end());
    max_threads = std::max(max_threads, ep.max_threads);
    if (traced) {
      traced_rows += ep.rows;
      traced_wall += ep.wall_us;
      worker_cpu_us += ep.process_cpu_us - ep.consumer_cpu_us;
      for (const GetSample& g : lk.lower->TakeGetSamples()) {
        spans.Add("storage.get", g.start_us, g.end_us, span.id(),
                  static_cast<uint64_t>(e));
        get_us.push_back(static_cast<double>(g.end_us - g.start_us));
        get_busy_us += static_cast<double>(g.end_us - g.start_us);
        modeled_us += static_cast<double>(lk.model.TransferMicros(g.bytes));
      }
    } else {
      plain_rows += ep.rows;
      plain_wall += ep.wall_us;
    }
  }
  double cpu_us = static_cast<double>(dl::ProcessCpuMicros() - cpu0);
  StoreCounts lower = lk.lower->counts() - lower0;
  StoreCounts upper = lk.upper->counts() - upper0;
  uint64_t copied = dl::TotalBytesCopied() - copied0;
  int workers = static_cast<int>(LoaderWorkers());
  checks.Op(max_threads <= Nproc(),
            "threads " + std::to_string(max_threads) + " > nproc");
  checks.Op(cpu_us <= wall_us * Nproc(), "process CPU exceeds wall x nproc");

  out.info.Set("workers", workers);
  out.info.Set("max_threads", max_threads);
  out.info.Set("measured_epochs", epochs);
  out.info.Set("rows_per_epoch", lk.setup_rows);
  out.info.Set("batches", static_cast<uint64_t>(waits_us.size()));
  out.info.Set("epoch_img_per_s", JsonArray(epoch_rate));

  if (o.trace) {
    Layers layers;
    layers["storage.get_ops_per_row"] = Ratio(lower.gets, rows);
    layers["storage.lru_hit_ratio"] =
        kind == Kind::kS3Raw ? 1.0 - Ratio(lower.gets, upper.gets) : 0.0;
    layers["storage.get_ms_p50"] = Ms(Quantile(get_us, 0.5));
    layers["storage.get_ms_p90"] = Ms(Quantile(get_us, 0.9));
    double inflight = Ratio(get_busy_us, traced_wall);
    layers["storage.inflight_mean"] = inflight;
    layers["sim.modeled_floor_img_per_s"] =
        Ratio(traced_rows * inflight * 1e6, modeled_us);
    layers["util.bytes_copied_per_row"] = Ratio(copied, rows);
    std::vector<double> traced_waits = spans.Durations("stream.next");
    layers["stream.next_wait_ms_p50"] = Ms(Median(traced_waits));
    layers["stream.stall_fraction"] = Ratio(Sum(traced_waits), traced_wall);
    layers["stream.collate_us_per_batch"] =
        Mean(spans.Durations("stream.collate"));
    layers["stream.worker_cpu_fraction"] =
        Ratio(worker_cpu_us, traced_wall * workers);
    layers["obs.trace_overhead_pct"] =
        100.0 * (Ratio(plain_rows, plain_wall) /
                     Ratio(traced_rows, traced_wall) -
                 1.0);
    // Reproducibility: the same shuffled epoch twice with one seed.
    Epoch a =
        HeadEpoch(lk, true, EpochSeed(99), expect, checks, untraced, -1, 0);
    Epoch b =
        HeadEpoch(lk, true, EpochSeed(99), expect, checks, untraced, -1, 0);
    uint64_t same = 0;
    for (size_t i = 0; i < std::min(a.order.size(), b.order.size()); ++i) {
      same += a.order[i] == b.order[i] ? 1 : 0;
    }
    layers["stream.shuffle_order_repeat_ratio"] = Ratio(same, a.order.size());
    DL_ASSIGN_OR_RETURN(Replay replay,
                        LayerReplay(lk, gen, lk.setup_rows, 256, spans));
    PutReplay(layers, replay);
    PutLayers(out, layers);
    DL_RETURN_IF_ERROR(WriteSpans(spans, o));
    return out;
  }

  // Side client, after the measured phase: the ingest workload's client,
  // kMinSamples rounds on a lake built as that workload builds its own. It
  // gives the append, commit and query metrics that every run reports.
  DL_ASSIGN_OR_RETURN(Lake side_lake, BuildLake(Kind::kIngest, o.seed));
  DL_ASSIGN_OR_RETURN(ClientRun client,
                      RunClient(side_lake, gen, kMinSamples, o.seed, checks,
                                untraced, nullptr));
  out.info.Set("side_rounds", kMinSamples);

  Put(out, "setup_s", "s", Median(setup_s));
  Put(out, "images_per_s", "img/s", Ratio(rows * 1e6, wall_us));
  Put(out, "first_batch_ms", "ms", Ms(Median(first_batch_us)));
  Put(out, "batch_wait_ms_p90", "ms", Ms(Quantile(waits_us, 0.9)));
  Put(out, "cpu_us_per_row", "us/row", Ratio(cpu_us, rows));
  Put(out, "read_bytes_per_row", "B/row", Ratio(lower.get_bytes, rows));
  Put(out, "stored_bytes_per_raw_byte", "B/B", stored_per_raw);
  Put(out, "peak_rss_mb", "MiB", PeakRssMb());
  PutClient(out, client);
  return out;
}

// ---------------------------------------------------------------------------
// ingest-commit-query
// ---------------------------------------------------------------------------

int MeasuredRounds(int seconds) {
  return std::max(kMinSamples, static_cast<int>(std::lround(seconds / 0.15)));
}

Result<RunOutcome> RunIngest(const RunOptions& o) {
  RunOutcome out;
  Checks& checks = out.checks;
  SpanLog spans(o.trace);
  dl::sim::WorkloadGenerator gen(dl::sim::WorkloadGenerator::SmallJpeg(),
                                 o.seed);
  std::vector<double> setup_s;
  DL_ASSIGN_OR_RETURN(Lake lk, SetUp(Kind::kIngest, o.seed,
                                     o.trace ? 1 : kSetups, &setup_s));
  int rounds = MeasuredRounds(o.seconds);
  RoundTrace rt;
  DL_ASSIGN_OR_RETURN(ClientRun client,
                      RunClient(lk, gen, rounds, o.seed, checks, spans,
                                o.trace ? &rt : nullptr));
  out.info.Set("rounds", rounds);
  out.info.Set("rows_per_round", kRoundRows);

  if (o.trace) {
    Layers layers;
    layers["storage.put_ops_per_commit"] = Ratio(rt.commit_puts, rt.commits);
    layers["storage.bytes_written_per_commit"] =
        Ratio(rt.commit_put_bytes, rt.commits);
    layers["storage.get_ops_per_query"] =
        Ratio(rt.query_gets, rt.label_queries);
    layers["tsf.flush_ms_p50"] = Ms(Median(spans.Durations("tsf.flush")));
    layers["tql.parse_us"] = Median(rt.parse_us);
    layers["tql.rows_examined_per_result"] =
        Ratio(rt.rows_examined, rt.rows_returned);
    layers["tql.scan_us_per_row"] = Ratio(rt.scan_us, rt.scan_rows);
    layers["version.commit_self_ms_p50"] =
        Ms(Median(spans.SelfTimes("version.commit")));
    layers["version.at_ms_p50"] = Ms(Median(spans.Durations("version.at")));
    layers["version.manifest_bytes_per_commit"] =
        Ratio(rt.manifest_bytes, rt.commits);
    layers["obs.trace_overhead_pct"] =
        100.0 * (Ratio(client.plain_rows, client.plain_wall) /
                     Ratio(client.traced_rows, client.traced_wall) -
                 1.0);
    DL_ASSIGN_OR_RETURN(Replay replay,
                        LayerReplay(lk, gen, kIngestSetupRows, 0, spans));
    PutReplay(layers, replay);
    // Encode and Append of the same rows, measured side by side.
    double encode_us = Mean(spans.Durations("compress.encode"));
    layers["compress.encode_us_per_row"] = encode_us;
    layers["tsf.append_self_us_per_row"] =
        Mean(spans.Durations("tsf.append")) - encode_us;
    PutLayers(out, layers);
    DL_RETURN_IF_ERROR(WriteSpans(spans, o));
    return out;
  }

  double stored_per_raw = Ratio(static_cast<double>(lk.base->TotalBytes()),
                                static_cast<double>(lk.raw_bytes));
  // Side reader, after the rounds: a training job streaming the lake it
  // just ingested, the setup's large chunks and each round's small one. A
  // warm-up epoch, then whole epochs until kMinSamples batches are timed.
  // It gives the loader metrics that every run reports.
  Expect expect;
  expect.labels = &lk.labels;
  expect.rows = lk.labels.size();
  uint64_t rows = 0;
  double wall_us = 0;
  std::vector<double> first_batch_us, waits_us;
  StoreCounts lower0;
  SpanLog off(false);
  int max_threads = 0;
  for (int e = 0; waits_us.size() < static_cast<size_t>(kMinSamples); ++e) {
    if (e == 1) lower0 = lk.lower->counts();  // epoch 0 warms up
    Epoch ep = HeadEpoch(lk, false, EpochSeed(e), expect, checks, off, -1, 0);
    max_threads = std::max(max_threads, ep.max_threads);
    if (ep.waits_us.empty()) break;  // counted failed by RunEpoch
    if (e == 0) continue;
    rows += ep.rows;
    wall_us += ep.wall_us;
    first_batch_us.push_back(ep.first_batch_us);
    waits_us.insert(waits_us.end(), ep.waits_us.begin(), ep.waits_us.end());
  }
  StoreCounts read = lk.lower->counts() - lower0;
  checks.Op(max_threads <= Nproc(),
            "threads " + std::to_string(max_threads) + " > nproc");
  out.info.Set("workers", static_cast<uint64_t>(LoaderWorkers()));
  out.info.Set("max_threads", max_threads);
  out.info.Set("side_epochs", static_cast<uint64_t>(first_batch_us.size()));
  out.info.Set("side_batches", static_cast<uint64_t>(waits_us.size()));

  Put(out, "setup_s", "s", Median(setup_s));
  Put(out, "images_per_s", "img/s", Ratio(rows * 1e6, wall_us));
  Put(out, "first_batch_ms", "ms", Ms(Median(first_batch_us)));
  Put(out, "batch_wait_ms_p90", "ms", Ms(Quantile(waits_us, 0.9)));
  Put(out, "cpu_us_per_row", "us/row", Ratio(client.cpu_us, client.rows));
  Put(out, "read_bytes_per_row", "B/row", Ratio(read.get_bytes, rows));
  Put(out, "stored_bytes_per_raw_byte", "B/B", stored_per_raw);
  Put(out, "peak_rss_mb", "MiB", PeakRssMb());
  PutClient(out, client);
  return out;
}

}  // namespace

Result<RunOutcome> RunWorkload(const RunOptions& options) {
  if (options.workload == "local-jpeg-epochs") {
    return RunLoader(Kind::kLocalJpeg, options);
  }
  if (options.workload == "s3-raw-shuffle") {
    return RunLoader(Kind::kS3Raw, options);
  }
  if (options.workload == "ingest-commit-query") return RunIngest(options);
  return Status::InvalidArgument("unknown workload '" + options.workload +
                                 "'");
}

}  // namespace lakebench
