// Ablation A2 — the streaming shuffle of §3.5: chunk-order shuffling plus
// a bounded reservoir replaces a separate shuffling cluster. With a tiny
// reservoir, samples of one chunk leave the stream back-to-back (chunk
// coherence visible to the model); a larger reservoir interleaves chunks.
// Sweeps the reservoir size, reporting throughput and the fraction of
// adjacent output pairs that came from the same chunk (ideal: 1/#chunks).

#include <cmath>

#include "bench/bench_util.h"
#include "stream/dataloader.h"

int main() {
  using namespace dl;
  using namespace dl::bench;
  MarkResourceBaseline();
  Header("Ablation A2 — shuffle-buffer size: throughput vs shuffle quality",
         "paper §3.5 (streaming shuffle with a buffer cache)",
         "1200 rows in ~37 chunks (32 rows each), in-memory store",
         "same-chunk adjacency falls from ~100% toward the ideal as the "
         "buffer grows, at ~no throughput cost");

  constexpr int kRows = 1200;
  constexpr int kRowBytes = 256;
  auto store = std::make_shared<storage::MemoryStore>();
  {
    DeepLake::OpenOptions oopts;
    oopts.with_version_control = false;
    auto lake = DeepLake::Open(store, oopts).MoveValue();
    tsf::TensorOptions idx;
    idx.dtype = "int32";
    (void)lake->CreateTensor("idx", idx);
    tsf::TensorOptions payload;
    payload.max_chunk_bytes = 32 * kRowBytes;  // 32 rows per chunk
    (void)lake->CreateTensor("payload", payload);
    for (int i = 0; i < kRows; ++i) {
      std::map<std::string, tsf::Sample> row;
      row["idx"] = tsf::Sample::Scalar(i, tsf::DType::kInt32);
      row["payload"] = tsf::Sample(
          tsf::DType::kUInt8, tsf::TensorShape{kRowBytes},
          ByteBuffer(kRowBytes, static_cast<uint8_t>(i)));
      (void)lake->Append(row);
    }
    (void)lake->Flush();
  }
  auto ds = tsf::Dataset::Open(store).MoveValue();
  uint64_t chunks = ds->GetTensor("payload").MoveValue()
                        ->chunk_encoder().num_chunks();

  Table table({"buffer rows", "epoch", "rows/s", "same-chunk adjacency",
               "ideal"});
  for (size_t buffer : {size_t{1}, size_t{16}, size_t{64}, size_t{256},
                        size_t{1024}}) {
    stream::DataloaderOptions opts;
    opts.batch_size = 64;
    // The order is the same for any worker count; one worker keeps the
    // rows/s column a single-thread figure across buffer sizes.
    opts.num_workers = 1;
    opts.shuffle = true;
    opts.shuffle_buffer_rows = buffer;
    opts.seed = 5;
    opts.tensors = {"idx", "payload"};
    stream::Dataloader loader(ds, opts);
    Stopwatch sw;
    std::vector<int64_t> order;
    stream::Batch batch;
    while (true) {
      auto more = loader.Next(&batch);
      if (!more.ok() || !*more) break;
      for (const auto& s : batch.columns.at("idx")) {
        order.push_back(s.AsInt());
      }
    }
    double secs = sw.ElapsedSeconds();
    uint64_t same_chunk = 0;
    for (size_t i = 1; i < order.size(); ++i) {
      if (order[i] / 32 == order[i - 1] / 32) ++same_chunk;
    }
    double adjacency =
        order.size() > 1
            ? static_cast<double>(same_chunk) / (order.size() - 1)
            : 0;
    table.AddRow({std::to_string(buffer), Secs(secs),
                  PerSec(order.size() / secs),
                  Fmt("%.1f%", adjacency * 100),
                  Fmt("%.1f%", 100.0 / chunks)});
  }
  table.Print();
  if (dl::Status report_st = dl::bench::WriteJsonReport("ablation_shuffle", table);
      !report_st.ok()) {
    std::printf("report error: %s\n", report_st.ToString().c_str());
  }
  std::printf("\n");
  return 0;
}
