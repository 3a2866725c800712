// Ablation A1 — the chunk-size trade-off behind §3.4's "lower and upper
// bound" rule and §3.5's 8MB default: small chunks multiply request count
// (latency-bound on object storage), huge chunks over-fetch for shuffled
// access. Sweeps the chunk target over sequential-scan and shuffled-stream
// epochs against a simulated S3 backend.

#include "bench/bench_util.h"
#include "sim/network_model.h"
#include "stream/dataloader.h"

namespace dl::bench {
namespace {

constexpr int kImages = 2000;

double Epoch(storage::StoragePtr store, bool shuffle) {
  auto ds = tsf::Dataset::Open(store);
  if (!ds.ok()) return -1;
  stream::DataloaderOptions opts;
  opts.batch_size = 32;
  opts.num_workers = 6;
  opts.prefetch_units = 12;
  opts.shuffle = shuffle;
  opts.tensors = {"images", "labels"};
  stream::Dataloader loader(*ds, opts);
  Stopwatch sw;
  stream::Batch batch;
  while (true) {
    auto more = loader.Next(&batch);
    if (!more.ok() || !*more) break;
  }
  return sw.ElapsedSeconds();
}

}  // namespace
}  // namespace dl::bench

int main() {
  using namespace dl;
  using namespace dl::bench;
  MarkResourceBaseline();
  Header("Ablation A1 — chunk size vs streaming performance over S3",
         "paper §3.4 chunk bounds / §3.5 8MB default",
         "2000 JPEG-compressed 64^2x3 images per configuration, simulated "
         "same-region S3",
         "tiny chunks: latency-bound request-count penalty; MB-scale chunks "
         "plateau (the 8MB default sits on it)");

  Table table({"chunk target", "chunks", "scan epoch", "shuffled epoch",
               "GET requests"});
  for (uint64_t kb : {uint64_t{64}, uint64_t{256}, uint64_t{1024},
                      uint64_t{4096}, uint64_t{16384}}) {
    auto base = std::make_shared<storage::MemoryStore>();
    // Build with the given chunk target.
    {
      DeepLake::OpenOptions oopts;
      oopts.with_version_control = false;
      auto lake = DeepLake::Open(base, oopts).MoveValue();
      tsf::TensorOptions img;
      img.htype = "image";
      img.sample_compression = "jpeg";
      img.max_chunk_bytes = kb << 10;
      (void)lake->CreateTensor("images", img);
      tsf::TensorOptions lbl;
      lbl.htype = "class_label";
      (void)lake->CreateTensor("labels", lbl);
      sim::WorkloadGenerator gen(sim::WorkloadGenerator::FfhqLike(64), 71);
      for (int i = 0; i < kImages; ++i) {
        auto s = gen.Generate(i);
        std::map<std::string, tsf::Sample> row;
        row["images"] = tsf::Sample(tsf::DType::kUInt8,
                                    tsf::TensorShape(s.shape),
                                    std::move(s.pixels));
        row["labels"] = tsf::Sample::Scalar(s.label, tsf::DType::kInt32);
        (void)lake->Append(row);
      }
      (void)lake->Flush();
    }
    auto s3 = std::make_shared<storage::InstrumentedStore>(
        std::make_shared<sim::SimulatedObjectStore>(
            base, sim::NetworkModel::S3SameRegion()),
        "s3-" + std::to_string(kb) + "kb");
    uint64_t chunks = 0;
    {
      auto ds = tsf::Dataset::Open(base).MoveValue();
      chunks = ds->GetTensor("images").MoveValue()->chunk_encoder()
                   .num_chunks();
    }
    double scan = Epoch(s3, /*shuffle=*/false);
    double shuffled = Epoch(s3, /*shuffle=*/true);
    table.AddRow({std::to_string(kb) + " KB", std::to_string(chunks),
                  Secs(scan), Secs(shuffled),
                  std::to_string(s3->gets())});
  }
  table.Print();
  if (dl::Status report_st = dl::bench::WriteJsonReport("ablation_chunk_size", table);
      !report_st.ok()) {
    std::printf("report error: %s\n", report_st.ToString().c_str());
  }
  std::printf("\n");
  return 0;
}
