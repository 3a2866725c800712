#ifndef DEEPLAKE_TSF_TENSOR_META_H_
#define DEEPLAKE_TSF_TENSOR_META_H_

#include <string>

#include "compress/codec.h"
#include "tsf/dtype.h"
#include "tsf/htype.h"
#include "util/json.h"

namespace dl::tsf {

/// User-facing creation options for a tensor. Unset fields inherit the
/// htype's defaults (§3.3 "typed tensors ... enable sanity checks and
/// efficient memory layout").
struct TensorOptions {
  std::string htype = "generic";
  /// Empty -> htype default.
  std::string dtype;
  /// "default" -> htype default; "none" disables.
  std::string sample_compression = "default";
  std::string chunk_compression = "default";
  /// Upper bound on chunk payload bytes; the default follows the paper
  /// (§3.5 "the default chunk size is 8MB").
  uint64_t max_chunk_bytes = 8ull << 20;
  /// Hidden tensors (downsamples, shape/id side-data) are skipped by
  /// default iteration and visualization (§3.4).
  bool hidden = false;
  /// Lossy quality for image sample compression.
  int quality = 0;
};

/// Persisted per-tensor metadata (tensor_meta.json), fixed at creation.
/// The row count is the chunk encoder's.
struct TensorMeta {
  std::string name;
  Htype htype;
  DType dtype = DType::kUInt8;
  compress::Compression sample_compression = compress::Compression::kNone;
  compress::Compression chunk_compression = compress::Compression::kNone;
  uint64_t max_chunk_bytes = 8ull << 20;
  bool hidden = false;
  int quality = 0;

  Json ToJson() const;
  static Result<TensorMeta> FromJson(const Json& j);

  /// Resolves user options against htype defaults.
  static Result<TensorMeta> FromOptions(const std::string& name,
                                        const TensorOptions& options);

  /// Checks a sample against the htype expectations and dtype. Empty
  /// samples (sparse padding) always pass.
  Status ValidateSample(const class Sample& sample) const;
};

}  // namespace dl::tsf

#endif  // DEEPLAKE_TSF_TENSOR_META_H_
