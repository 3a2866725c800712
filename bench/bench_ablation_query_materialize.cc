// Ablation A4 — sparse views vs materialization (§4.4/§4.5): a filtered
// query produces a sparse view whose streaming fetches whole chunks for
// few rows; materializing the view re-packs it densely. Reports epoch time
// and storage requests for (full scan, sparse view, materialized view)
// over a simulated S3 backend.

#include "bench/bench_util.h"
#include "sim/network_model.h"
#include "stream/dataloader.h"
#include "tql/executor.h"

int main() {
  using namespace dl;
  using namespace dl::bench;
  MarkResourceBaseline();
  Header("Ablation A4 — query view streaming vs materialization over S3",
         "paper §4.4 (\"views can be sparse, which can affect streaming "
         "performance\") and §4.5 materialization",
         "600 JPEG images, ~10%-selectivity filter, simulated same-region "
         "S3",
         "sparse view fetches near-full-scan bytes for 10% of rows; the "
         "materialized view fetches ~10%");

  constexpr int kImages = 600;
  auto base = std::make_shared<storage::MemoryStore>();
  sim::WorkloadGenerator gen(sim::WorkloadGenerator::SmallJpeg(), 91);
  if (!BuildTsfDataset(base, gen, kImages, "jpeg").ok()) return 1;

  auto s3 = std::make_shared<storage::InstrumentedStore>(
      std::make_shared<sim::SimulatedObjectStore>(
          base, sim::NetworkModel::S3SameRegion()),
      "s3");
  auto ds = tsf::Dataset::Open(s3).MoveValue();

  auto stream_view = [&](std::shared_ptr<tsf::Dataset> dataset,
                         const tql::DatasetView* view,
                         storage::InstrumentedStore* counted)
      -> std::pair<double, uint64_t> {
    uint64_t bytes_before = counted->bytes_read();
    stream::DataloaderOptions opts;
    opts.batch_size = 32;
    opts.num_workers = 6;
    opts.prefetch_units = 12;
    opts.tensors = {"images", "labels"};
    std::unique_ptr<stream::Dataloader> loader;
    if (view != nullptr) {
      loader = std::make_unique<stream::Dataloader>(dataset, *view, opts);
    } else {
      loader = std::make_unique<stream::Dataloader>(dataset, opts);
    }
    Stopwatch sw;
    stream::Batch batch;
    while (true) {
      auto more = loader->Next(&batch);
      if (!more.ok() || !*more) break;
    }
    return {sw.ElapsedSeconds(), counted->bytes_read() - bytes_before};
  };

  Table table({"access", "rows", "epoch", "bytes fetched"});

  auto [full_secs, full_bytes] = stream_view(ds, nullptr, s3.get());
  table.AddRow({"full scan", std::to_string(kImages), Secs(full_secs),
                HumanBytes(full_bytes)});

  // ~10% selectivity: labels cycle over 1000 classes; pick a band.
  auto view = tql::RunQuery(ds, "SELECT * FROM ds WHERE labels < 100");
  if (!view.ok()) {
    std::printf("query failed: %s\n", view.status().ToString().c_str());
    return 1;
  }
  auto [view_secs, view_bytes] = stream_view(ds, &*view, s3.get());
  table.AddRow({"sparse view (10%)", std::to_string(view->size()),
                Secs(view_secs), HumanBytes(view_bytes)});

  // Materialize onto S3, then stream the dense result.
  auto mat_base = std::make_shared<storage::MemoryStore>();
  Stopwatch mat_sw;
  auto mat = tql::MaterializeView(*view, mat_base);
  double mat_secs = mat_sw.ElapsedSeconds();
  if (!mat.ok()) {
    std::printf("materialize failed: %s\n", mat.status().ToString().c_str());
    return 1;
  }
  auto mat_s3 = std::make_shared<storage::InstrumentedStore>(
      std::make_shared<sim::SimulatedObjectStore>(
          mat_base, sim::NetworkModel::S3SameRegion()),
      "s3-materialized");
  auto mat_ds = tsf::Dataset::Open(mat_s3).MoveValue();
  auto [dense_secs, dense_bytes] = stream_view(mat_ds, nullptr, mat_s3.get());
  table.AddRow({"materialized view", std::to_string((*mat)->NumRows()),
                Secs(dense_secs), HumanBytes(dense_bytes)});
  table.Print();
  if (dl::Status report_st = dl::bench::WriteJsonReport("ablation_query_materialize", table);
      !report_st.ok()) {
    std::printf("report error: %s\n", report_st.ToString().c_str());
  }
  std::printf("\nmaterialization cost (one-off): %.2f s; it pays for itself "
              "once the view is streamed repeatedly (every training epoch)\n\n",
              mat_secs);
  return 0;
}
