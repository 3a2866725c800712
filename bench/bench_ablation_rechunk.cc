// Ablation A5 — on-the-fly re-chunking (§3.5): random/incremental writes
// fragment the chunk layout ("random assignment over time will produce
// inefficiently stored data chunks"); RechunkOptimizer re-packs. Reports
// chunk count, stored bytes and scan time before/after on a simulated S3
// backend.

#include "bench/bench_util.h"
#include "sim/network_model.h"
#include "stream/dataloader.h"

int main() {
  using namespace dl;
  using namespace dl::bench;
  MarkResourceBaseline();
  Header("Ablation A5 — re-chunking a fragmented tensor",
         "paper §3.5 (\"on-the-fly re-chunking algorithm to optimize the "
         "data layout\")",
         "500 images appended with frequent flushes (fragmentation), "
         "simulated S3 scans",
         "rechunk collapses chunk count by >10x and reduces scan time and "
         "request count");

  constexpr int kImages = 500;
  auto base = std::make_shared<storage::MemoryStore>();
  {
    DeepLake::OpenOptions oopts;
    oopts.with_version_control = false;
    auto lake = DeepLake::Open(base, oopts).MoveValue();
    tsf::TensorOptions img;
    img.htype = "image";
    img.sample_compression = "jpeg";
    (void)lake->CreateTensor("images", img);
    sim::WorkloadGenerator gen(sim::WorkloadGenerator::SmallJpeg(), 101);
    auto images = lake->dataset().GetTensor("images").MoveValue();
    for (int i = 0; i < kImages; ++i) {
      auto s = gen.Generate(i);
      (void)images->Append(tsf::Sample(tsf::DType::kUInt8,
                                       tsf::TensorShape(s.shape),
                                       std::move(s.pixels)));
      // Fragment: an annotator-style workload commits every few samples.
      if (i % 3 == 2) (void)images->Flush();
    }
    (void)lake->Flush();
  }

  auto scan = [&]() -> std::pair<double, uint64_t> {
    auto s3 = std::make_shared<storage::InstrumentedStore>(
        std::make_shared<sim::SimulatedObjectStore>(
            base, sim::NetworkModel::S3SameRegion()),
        "s3");
    uint64_t requests_before = s3->gets() + s3->get_ranges();
    auto ds = tsf::Dataset::Open(s3).MoveValue();
    stream::DataloaderOptions opts;
    opts.batch_size = 32;
    opts.num_workers = 6;
    opts.prefetch_units = 12;
    opts.tensors = {"images"};
    stream::Dataloader loader(ds, opts);
    Stopwatch sw;
    stream::Batch batch;
    while (true) {
      auto more = loader.Next(&batch);
      if (!more.ok() || !*more) break;
    }
    return {sw.ElapsedSeconds(),
            s3->gets() + s3->get_ranges() - requests_before};
  };

  Table table({"layout", "chunks", "scan epoch", "storage requests"});
  uint64_t chunks_before;
  {
    auto ds = tsf::Dataset::Open(base).MoveValue();
    chunks_before =
        ds->GetTensor("images").MoveValue()->chunk_encoder().num_chunks();
  }
  auto [before_secs, before_reqs] = scan();
  table.AddRow({"fragmented", std::to_string(chunks_before),
                Secs(before_secs), std::to_string(before_reqs)});

  size_t chunks_after = 0;
  {
    auto ds = tsf::Dataset::Open(base).MoveValue();
    auto images = ds->GetTensor("images").MoveValue();
    auto result = images->Rechunk();
    if (!result.ok()) {
      std::printf("rechunk failed: %s\n",
                  result.status().ToString().c_str());
      return 1;
    }
    chunks_after = *result;
  }
  auto [after_secs, after_reqs] = scan();
  table.AddRow({"re-chunked", std::to_string(chunks_after),
                Secs(after_secs), std::to_string(after_reqs)});
  table.Print();
  if (dl::Status report_st = dl::bench::WriteJsonReport("ablation_rechunk", table);
      !report_st.ok()) {
    std::printf("report error: %s\n", report_st.ToString().c_str());
  }
  std::printf("\n");
  return 0;
}
