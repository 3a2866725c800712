// Figure 8: "Streaming from different data storage locations: Local
// FileSystem, AWS S3, MinIO (lower better)".
//
// The same JPEG dataset as Fig. 7 is streamed from three backends: local
// FS, S3 (same region) and MinIO on a LAN machine. Here: 800 images over
// the corresponding network models at time_scale kTimeScale, printed in
// the header. Reproduction targets: deeplake's S3 epoch is close to its
// local epoch (prefetch hides latency); deeplake and
// webdataset are both noticeably slower on MinIO than on S3 (small
// connection pool); the folder loader collapses on any remote backend
// (request-per-sample).

#include <cstdio>
#include "baselines/format.h"
#include "bench/bench_util.h"
#include "sim/network_model.h"
#include "stream/dataloader.h"

namespace dl::bench {
namespace {

constexpr int kImages = 800;
constexpr size_t kWorkers = 6;
// Full-speed network models: with one CPU core, decode keeps the epoch in
// seconds anyway, and unscaled latencies let backend differences show.
constexpr double kTimeScale = 1.0;

sim::NetworkModel Scaled(sim::NetworkModel m) {
  m.time_scale = kTimeScale;
  return m;
}

struct Backend {
  std::string name;
  sim::NetworkModel model;
};

std::vector<Backend> Backends() {
  return {{"local", Scaled(sim::NetworkModel::LocalFs())},
          {"aws-s3", Scaled(sim::NetworkModel::S3SameRegion())},
          {"minio-lan", Scaled(sim::NetworkModel::MinioLan())}};
}

double StreamDeepLake(storage::StoragePtr base, const sim::NetworkModel& m) {
  auto remote = std::make_shared<sim::SimulatedObjectStore>(base, m);
  auto ds = OpenTsfDataset(remote);
  if (!ds.ok()) return -1;
  stream::DataloaderOptions opts;
  opts.batch_size = 64;
  opts.num_workers = kWorkers;
  opts.prefetch_units = 16;
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

double StreamBaseline(baselines::BaselineFormat format,
                      storage::StoragePtr base, const sim::NetworkModel& m) {
  auto remote = std::make_shared<sim::SimulatedObjectStore>(base, m);
  baselines::LoaderOptions lopts;
  lopts.num_workers = kWorkers;
  lopts.decode = true;
  lopts.prefetch = 16;
  // Same interpreter-overhead substitution as bench_fig7 (see DESIGN.md).
  lopts.interpreter_overhead_us =
      format == baselines::BaselineFormat::kFolder ? 1200 : 400;
  auto loader = baselines::MakeLoader(format, remote, "ds", lopts);
  if (!loader.ok()) return -1;
  Stopwatch sw;
  baselines::LoadedSample s;
  while (true) {
    auto more = (*loader)->Next(&s);
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
  char setup[96];
  std::snprintf(setup, sizeof(setup),
                "800 images, network models at time_scale %g (ratios "
                "preserved)",
                kTimeScale);
  Header("Fig. 8 — epoch time streaming the Fig. 7 dataset from different "
         "backends (seconds, lower better)",
         "paper Fig. 8 (local FS vs AWS S3 vs MinIO-on-LAN)",
         setup,
         "deeplake: s3 ~ local; deeplake & webdataset slower on minio than "
         "s3; folder loader collapses remotely");

  // Build each format's dataset once on shared in-memory substrates.
  sim::WorkloadGenerator gen(sim::WorkloadGenerator::SmallJpeg(), 31);
  auto tsf_base = std::make_shared<storage::MemoryStore>();
  if (!BuildTsfDataset(tsf_base, gen, kImages, "jpeg").ok()) return 1;

  std::map<baselines::BaselineFormat, storage::StoragePtr> bases;
  for (auto format : {baselines::BaselineFormat::kWebDataset,
                      baselines::BaselineFormat::kFolder}) {
    auto base = std::make_shared<storage::MemoryStore>();
    baselines::WriterOptions wopts;
    wopts.compress_samples = true;
    auto writer = baselines::MakeWriter(format, base, "ds", wopts);
    for (int i = 0; i < kImages; ++i) {
      (void)(*writer)->Append(gen.Generate(i));
    }
    (void)(*writer)->Finish();
    bases[format] = base;
  }

  Table table({"loader", "local", "aws-s3", "minio-lan"});
  {
    std::vector<std::string> row = {"deeplake"};
    for (const auto& backend : Backends()) {
      row.push_back(Secs(StreamDeepLake(tsf_base, backend.model)));
    }
    table.AddRow(row);
  }
  for (auto format : {baselines::BaselineFormat::kWebDataset,
                      baselines::BaselineFormat::kFolder}) {
    std::vector<std::string> row = {
        std::string(baselines::BaselineFormatName(format))};
    for (const auto& backend : Backends()) {
      row.push_back(
          Secs(StreamBaseline(format, bases[format], backend.model)));
    }
    table.AddRow(row);
  }
  table.Print();
  if (dl::Status report_st = dl::bench::WriteJsonReport("fig8_remote_streaming", table);
      !report_st.ok()) {
    std::printf("report error: %s\n", report_st.ToString().c_str());
  }
  std::printf("\n");
  return 0;
}
