#ifndef DEEPLAKE_TSF_DATASET_H_
#define DEEPLAKE_TSF_DATASET_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "storage/storage.h"
#include "tsf/tensor.h"
#include "util/json.h"
#include "util/rng.h"

namespace dl::tsf {

/// Resolves `link[...]` tensor URLs to raw bytes (paper §4.5: linked
/// tensors store pointers to one or multiple cloud providers).
class LinkResolver {
 public:
  virtual ~LinkResolver() = default;
  /// The returned Slice keeps its backing buffer alive (util/buffer.h).
  virtual Result<Slice> Fetch(const std::string& url) = 0;
};

/// Resolver backed by a registry of storage providers: URL
/// "scheme://key/path" reads key "key/path" from the provider registered
/// for "scheme".
class StoreLinkResolver : public LinkResolver {
 public:
  void Register(const std::string& scheme, storage::StoragePtr store) {
    stores_[scheme] = std::move(store);
  }
  Result<Slice> Fetch(const std::string& url) override;

 private:
  std::map<std::string, storage::StoragePtr> stores_;
};

/// A Deep Lake dataset: parallel tensor columns over one storage root
/// (paper §3.1). A *sample* (row) is the set of tensor cells at one index;
/// cells are logically independent, enabling partial tensor access.
///
/// Tensors whose names contain '/' form syntactic groups
/// ("frames/camera_left"). A hidden `_sample_id` tensor carries stable ids
/// used by version-control merge (paper §4.2).
class Dataset {
 public:
  struct Options {
    std::string description;
    /// Generate the hidden `_sample_id` tensor on Append (merge support).
    bool with_sample_ids = true;
  };

  /// Creates a new dataset at the storage root (fails if one exists).
  static Result<std::shared_ptr<Dataset>> Create(storage::StoragePtr store,
                                                 Options options);
  static Result<std::shared_ptr<Dataset>> Create(storage::StoragePtr store) {
    return Create(std::move(store), Options());
  }
  /// Opens an existing dataset.
  static Result<std::shared_ptr<Dataset>> Open(storage::StoragePtr store);

  static constexpr char kMetaKey[] = "dataset_meta.json";
  static constexpr char kSampleIdTensor[] = "_sample_id";

  // ---- Schema ----

  /// Declares a new tensor column. Schema changes are recorded in the
  /// provenance log (schema evolution is versioned like data, §3.1).
  Result<Tensor*> CreateTensor(const std::string& name,
                               const TensorOptions& options = {});
  Result<Tensor*> GetTensor(const std::string& name);
  bool HasTensor(const std::string& name) const {
    return tensors_.count(name) > 0;
  }
  /// Visible tensor names, sorted; hidden ones included on request.
  std::vector<std::string> TensorNames(bool include_hidden = false) const;
  /// Top-level group names (prefix before the first '/').
  std::vector<std::string> GroupNames() const;
  /// Tensors under "group/...".
  std::vector<std::string> TensorsInGroup(const std::string& group) const;

  // ---- Rows ----

  /// Length of the longest visible tensor.
  uint64_t NumRows() const;

  /// Appends one row: named cells land in their tensors; tensors missing
  /// from the row get an empty cell, keeping all columns aligned.
  Status Append(const std::map<std::string, Sample>& row);

  /// Append with an explicit sample id instead of a generated one. Version-
  /// control merge uses this so the same logical sample keeps its id across
  /// branches (paper §4.2).
  Status AppendWithId(const std::map<std::string, Sample>& row, uint64_t id);

  /// Raw 64-bit sample id at `index` (0 if sample ids are disabled).
  Result<uint64_t> SampleIdAt(uint64_t index);

  /// Reads all visible cells at `index`.
  Result<std::map<std::string, Sample>> ReadRow(uint64_t index);

  /// Appends a URL into a `link[...]` tensor.
  Status AppendLink(const std::string& tensor, const std::string& url);
  /// Reads a linked cell, resolving the URL to bytes via `resolver`.
  Result<Slice> ReadLinked(const std::string& tensor, uint64_t index,
                           LinkResolver& resolver);

  /// Flushes the tensors with changes as one concurrent wave (util/
  /// parallel.h), each sealing its chunk before writing its index, then
  /// persists dataset_meta.json if it changed. With nothing new it writes
  /// nothing.
  Status Flush();

  /// Points the dataset and every tensor at `store`, which must hold the
  /// same objects as the current one (the next working head after a
  /// commit). Tensors keep their state. Not safe while other threads read
  /// the dataset.
  void Rebind(storage::StoragePtr store);

  /// Appends a human-readable provenance event to dataset_meta.json
  /// ("created tensor images", "materialized view ...", §4.5 lineage); the
  /// next Flush persists it.
  void LogProvenance(const std::string& event);
  const Json& meta() const { return meta_; }
  storage::StoragePtr store() const { return store_; }

 private:
  explicit Dataset(storage::StoragePtr store);

  Status PersistMeta();

  storage::StoragePtr store_;
  Json meta_;
  bool meta_dirty_ = false;  // meta_ differs from dataset_meta.json
  std::map<std::string, std::unique_ptr<Tensor>> tensors_;
  Rng id_rng_;
  bool with_sample_ids_ = true;
};

}  // namespace dl::tsf

#endif  // DEEPLAKE_TSF_DATASET_H_
