#include "tsf/dataset.h"

#include <algorithm>
#include <cstring>
#include <set>

#include "util/clock.h"
#include "util/envelope.h"
#include "util/macros.h"
#include "util/parallel.h"
#include "util/string_util.h"

namespace dl::tsf {

Dataset::Dataset(storage::StoragePtr store)
    : store_(std::move(store)),
      // Sample ids must be unique across branches and sessions: seed from
      // wall time + object identity, never a fixed constant.
      id_rng_(Mix64(static_cast<uint64_t>(NowMicros()) ^
                    reinterpret_cast<uintptr_t>(this))) {}

Result<Slice> StoreLinkResolver::Fetch(const std::string& url) {
  size_t pos = url.find("://");
  if (pos == std::string::npos) {
    return Status::InvalidArgument("link url missing scheme: " + url);
  }
  std::string scheme = url.substr(0, pos);
  std::string key = url.substr(pos + 3);
  auto it = stores_.find(scheme);
  if (it == stores_.end()) {
    return Status::NotFound("no store registered for scheme '" + scheme +
                            "'");
  }
  return it->second->Get(key);
}

Result<std::shared_ptr<Dataset>> Dataset::Create(storage::StoragePtr store,
                                                 Options options) {
  DL_ASSIGN_OR_RETURN(bool exists, store->Exists(kMetaKey));
  if (exists) {
    return Status::AlreadyExists("dataset already exists at storage root");
  }
  auto ds = std::shared_ptr<Dataset>(new Dataset(std::move(store)));
  ds->meta_ = Json::MakeObject();
  ds->meta_.Set("format_version", 2);
  ds->meta_.Set("description", options.description);
  ds->meta_.Set("tensors", Json::MakeArray());
  ds->meta_.Set("provenance", Json::MakeArray());
  ds->meta_.Set("with_sample_ids", options.with_sample_ids);
  ds->with_sample_ids_ = options.with_sample_ids;
  ds->LogProvenance("dataset created");
  if (options.with_sample_ids) {
    TensorOptions id_opts;
    id_opts.htype = "generic";
    id_opts.dtype = "uint64";
    id_opts.sample_compression = "none";
    id_opts.chunk_compression = "lz77";
    id_opts.hidden = true;
    DL_ASSIGN_OR_RETURN(auto tensor,
                        Tensor::Create(ds->store_, kSampleIdTensor, id_opts));
    ds->tensors_[kSampleIdTensor] = std::move(tensor);
    Json names = Json::MakeArray();
    names.Append(kSampleIdTensor);
    ds->meta_.Set("tensors", std::move(names));
  }
  DL_RETURN_IF_ERROR(ds->PersistMeta());
  return ds;
}

Result<std::shared_ptr<Dataset>> Dataset::Open(storage::StoragePtr store) {
  // GetVerified CRC-checks the envelope (and heals a corrupt cached copy);
  // pre-§9 datasets with raw JSON metadata pass through unchanged.
  DL_ASSIGN_OR_RETURN(Slice meta_bytes,
                      storage::GetVerified(*store, kMetaKey));
  auto ds = std::shared_ptr<Dataset>(new Dataset(std::move(store)));
  DL_ASSIGN_OR_RETURN(ds->meta_, Json::Parse(meta_bytes.ToStringView()));
  ds->with_sample_ids_ = ds->meta_.Get("with_sample_ids").as_bool(true);
  const Json& names = ds->meta_.Get("tensors");
  for (size_t i = 0; i < names.size(); ++i) {
    const std::string& name = names[i].as_string();
    DL_ASSIGN_OR_RETURN(auto tensor, Tensor::Open(ds->store_, name));
    ds->tensors_[name] = std::move(tensor);
  }
  return ds;
}

Result<Tensor*> Dataset::CreateTensor(const std::string& name,
                                      const TensorOptions& options) {
  if (name.empty() || name[0] == '_') {
    return Status::InvalidArgument(
        "tensor names must be non-empty and not start with '_' (reserved)");
  }
  if (tensors_.count(name) > 0) {
    return Status::AlreadyExists("tensor '" + name + "' already exists");
  }
  DL_ASSIGN_OR_RETURN(auto tensor, Tensor::Create(store_, name, options));
  Tensor* ptr = tensor.get();
  tensors_[name] = std::move(tensor);
  meta_.object()["tensors"].Append(name);
  LogProvenance("created tensor '" + name + "' htype=" +
                ptr->meta().htype.ToString());
  DL_RETURN_IF_ERROR(PersistMeta());
  return ptr;
}

Result<Tensor*> Dataset::GetTensor(const std::string& name) {
  auto it = tensors_.find(name);
  if (it == tensors_.end()) {
    return Status::NotFound("no tensor '" + name + "'");
  }
  return it->second.get();
}

std::vector<std::string> Dataset::TensorNames(bool include_hidden) const {
  std::vector<std::string> names;
  for (const auto& [name, tensor] : tensors_) {
    if (!include_hidden && tensor->meta().hidden) continue;
    names.push_back(name);
  }
  return names;
}

std::vector<std::string> Dataset::GroupNames() const {
  std::set<std::string> groups;
  for (const auto& [name, tensor] : tensors_) {
    size_t pos = name.find('/');
    if (pos != std::string::npos) groups.insert(name.substr(0, pos));
  }
  return std::vector<std::string>(groups.begin(), groups.end());
}

std::vector<std::string> Dataset::TensorsInGroup(
    const std::string& group) const {
  std::vector<std::string> names;
  std::string prefix = group + "/";
  for (const auto& [name, tensor] : tensors_) {
    if (StartsWith(name, prefix)) names.push_back(name);
  }
  return names;
}

uint64_t Dataset::NumRows() const {
  uint64_t n = 0;
  for (const auto& [name, tensor] : tensors_) {
    if (tensor->meta().hidden) continue;
    n = std::max(n, tensor->NumSamples());
  }
  return n;
}

Status Dataset::Append(const std::map<std::string, Sample>& row) {
  return AppendWithId(row, id_rng_.Next() >> 1);
}

Status Dataset::AppendWithId(const std::map<std::string, Sample>& row,
                             uint64_t id) {
  for (const auto& [name, sample] : row) {
    if (tensors_.count(name) == 0) {
      return Status::NotFound("append: no tensor '" + name + "'");
    }
  }
  for (auto& [name, tensor] : tensors_) {
    if (name == kSampleIdTensor) continue;
    if (tensor->meta().hidden && row.count(name) == 0) continue;
    auto it = row.find(name);
    if (it != row.end()) {
      DL_RETURN_IF_ERROR(
          tensor->Append(it->second).WithContext("tensor '" + name + "'"));
    } else {
      DL_RETURN_IF_ERROR(
          tensor->Append(Sample::EmptyOf(tensor->meta().dtype)));
    }
  }
  if (with_sample_ids_) {
    auto it = tensors_.find(kSampleIdTensor);
    if (it != tensors_.end()) {
      // Store the raw 8 bytes: ids must round-trip exactly (no double
      // conversion, which would lose precision above 2^53).
      ByteBuffer bytes(8);
      std::memcpy(bytes.data(), &id, 8);
      DL_RETURN_IF_ERROR(it->second->Append(
          Sample(DType::kUInt64, TensorShape{}, std::move(bytes))));
    }
  }
  return Status::OK();
}

Result<uint64_t> Dataset::SampleIdAt(uint64_t index) {
  auto it = tensors_.find(kSampleIdTensor);
  if (it == tensors_.end()) return uint64_t{0};
  DL_ASSIGN_OR_RETURN(Sample s, it->second->Read(index));
  if (s.data.size() != 8) return uint64_t{0};
  uint64_t id;
  std::memcpy(&id, s.data.data(), 8);
  return id;
}

Result<std::map<std::string, Sample>> Dataset::ReadRow(uint64_t index) {
  std::map<std::string, Sample> row;
  for (auto& [name, tensor] : tensors_) {
    if (tensor->meta().hidden) continue;
    if (index >= tensor->NumSamples()) continue;
    DL_ASSIGN_OR_RETURN(Sample s, tensor->Read(index));
    row[name] = std::move(s);
  }
  if (row.empty()) {
    return Status::OutOfRange("row " + std::to_string(index) +
                              " beyond dataset length");
  }
  return row;
}

Status Dataset::AppendLink(const std::string& tensor_name,
                           const std::string& url) {
  DL_ASSIGN_OR_RETURN(Tensor * tensor, GetTensor(tensor_name));
  if (!tensor->meta().htype.is_link) {
    return Status::FailedPrecondition("tensor '" + tensor_name +
                                      "' is not a link tensor");
  }
  return tensor->Append(Sample::FromString(url));
}

Result<Slice> Dataset::ReadLinked(const std::string& tensor_name,
                                  uint64_t index, LinkResolver& resolver) {
  DL_ASSIGN_OR_RETURN(Tensor * tensor, GetTensor(tensor_name));
  if (!tensor->meta().htype.is_link) {
    return Status::FailedPrecondition("tensor '" + tensor_name +
                                      "' is not a link tensor");
  }
  DL_ASSIGN_OR_RETURN(Sample url_sample, tensor->Read(index));
  return resolver.Fetch(url_sample.AsString());
}

Status Dataset::Flush() {
  std::vector<Tensor*> changed;
  for (auto& [name, tensor] : tensors_) {
    if (tensor->unpersisted()) changed.push_back(tensor.get());
  }
  // Tensors are independent objects, so their writes go out together; the
  // per-tensor order (chunk, then index) is kept inside Tensor::Flush.
  DL_RETURN_IF_ERROR(ParallelFor(changed.size(), [&](size_t i) {
    return changed[i]->Flush().WithContext("flush '" + changed[i]->name() +
                                           "'");
  }));
  return meta_dirty_ ? PersistMeta() : Status::OK();
}

void Dataset::Rebind(storage::StoragePtr store) {
  for (auto& [name, tensor] : tensors_) tensor->Rebind(store);
  store_ = std::move(store);
}

void Dataset::LogProvenance(const std::string& event) {
  Json entry = Json::MakeObject();
  entry.Set("event", event);
  entry.Set("timestamp_us", NowMicros());
  meta_.object()["provenance"].Append(std::move(entry));
  meta_dirty_ = true;
}

Status Dataset::PersistMeta() {
  std::string text = meta_.Dump(2);
  // Enveloped + durable: dataset_meta.json names every tensor, so a torn
  // write here would orphan the whole dataset (DESIGN.md §9).
  ByteBuffer framed = EnvelopeWrap(ByteView(text));
  DL_RETURN_IF_ERROR(store_->PutDurable(kMetaKey, ByteView(framed)));
  meta_dirty_ = false;
  return Status::OK();
}

}  // namespace dl::tsf
