// WebDataset baseline: real tar shards of (sample blob, ascii label)
// pairs, streamed shard-by-shard sequentially — the format's strength is
// few large sequential reads (paper Figs. 6-8).

#include "baselines/formats_internal.h"
#include "baselines/loader_engine.h"
#include "baselines/tar.h"
#include "util/json.h"
#include "util/macros.h"
#include "util/string_util.h"

namespace dl::baselines::internal {

namespace {

class WebDatasetWriter final : public FormatWriter {
 public:
  WebDatasetWriter(storage::StoragePtr store, std::string prefix,
                   WriterOptions options)
      : store_(std::move(store)), prefix_(std::move(prefix)),
        options_(options) {}

  Status Append(const sim::SampleSpec& sample) override {
    std::string stem = ZeroPad(count_, 8);
    DL_RETURN_IF_ERROR(tar_.AddFile(
        stem + ".img", ByteView(EncodeSampleBlob(sample, options_))));
    DL_RETURN_IF_ERROR(tar_.AddFile(
        stem + ".cls",
        ByteView(std::string_view(std::to_string(sample.label)))));
    ++count_;
    if (tar_.size_bytes() >= options_.shard_bytes) {
      DL_RETURN_IF_ERROR(FlushShard());
    }
    return Status::OK();
  }

  Status Finish() override {
    if (!tar_.empty()) DL_RETURN_IF_ERROR(FlushShard());
    Json meta = Json::MakeObject();
    meta.Set("shards", shard_count_);
    meta.Set("samples", count_);
    std::string text = meta.Dump();
    return store_->Put(PathJoin(prefix_, "meta.json"), ByteView(text));
  }

 private:
  Status FlushShard() {
    ByteBuffer archive = tar_.Finish();
    std::string key = PathJoin(
        prefix_, "shard-" + ZeroPad(shard_count_, 5) + ".tar");
    DL_RETURN_IF_ERROR(store_->Put(key, ByteView(archive)));
    ++shard_count_;
    return Status::OK();
  }

  storage::StoragePtr store_;
  std::string prefix_;
  WriterOptions options_;
  TarBuilder tar_;
  uint64_t count_ = 0;
  uint64_t shard_count_ = 0;
};

}  // namespace

Result<std::unique_ptr<FormatWriter>> MakeWebDatasetWriter(
    storage::StoragePtr store, const std::string& prefix,
    const WriterOptions& options) {
  return std::unique_ptr<FormatWriter>(
      new WebDatasetWriter(store, prefix, options));
}

Result<std::unique_ptr<FormatLoader>> MakeWebDatasetLoader(
    storage::StoragePtr store, const std::string& prefix,
    const LoaderOptions& options) {
  DL_ASSIGN_OR_RETURN(Slice meta_bytes,
                      store->Get(PathJoin(prefix, "meta.json")));
  DL_ASSIGN_OR_RETURN(Json meta,
                      Json::Parse(ByteView(meta_bytes).ToStringView()));
  uint64_t shards = static_cast<uint64_t>(meta.Get("shards").as_int());
  std::vector<ParallelTaskLoader::Task> tasks;
  for (uint64_t s = 0; s < shards; ++s) {
    std::string key = PathJoin(prefix, "shard-" + ZeroPad(s, 5) + ".tar");
    bool decode = options.decode;
    tasks.push_back(
        [store, key, decode]() -> Result<std::vector<LoadedSample>> {
          // One sequential whole-shard read.
          DL_ASSIGN_OR_RETURN(Slice archive, store->Get(key));
          DL_ASSIGN_OR_RETURN(std::vector<TarEntry> entries,
                              ParseTar(ByteView(archive)));
          std::vector<LoadedSample> out;
          LoadedSample pending;
          bool have_img = false;
          for (const auto& entry : entries) {
            if (EndsWith(entry.name, ".img")) {
              DL_ASSIGN_OR_RETURN(
                  pending, DecodeSampleBlob(ByteView(entry.contents), decode));
              have_img = true;
            } else if (EndsWith(entry.name, ".cls") && have_img) {
              pending.label =
                  std::strtoll(ByteView(entry.contents).ToString().c_str(),
                               nullptr, 10);
              out.push_back(std::move(pending));
              have_img = false;
            }
          }
          return out;
        });
  }
  return std::unique_ptr<FormatLoader>(
      new ParallelTaskLoader(std::move(tasks), options));
}

}  // namespace dl::baselines::internal
