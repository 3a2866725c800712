#include "tsf/tensor_meta.h"

#include "tsf/sample.h"
#include "util/macros.h"

namespace dl::tsf {

Json TensorMeta::ToJson() const {
  Json j = Json::MakeObject();
  j.Set("name", name);
  j.Set("htype", htype.ToString());
  j.Set("dtype", std::string(DTypeName(dtype)));
  j.Set("sample_compression",
        std::string(compress::CompressionName(sample_compression)));
  j.Set("chunk_compression",
        std::string(compress::CompressionName(chunk_compression)));
  j.Set("max_chunk_bytes", max_chunk_bytes);
  j.Set("hidden", hidden);
  j.Set("quality", quality);
  return j;
}

Result<TensorMeta> TensorMeta::FromJson(const Json& j) {
  TensorMeta m;
  m.name = j.Get("name").as_string();
  DL_ASSIGN_OR_RETURN(m.htype, ParseHtype(j.Get("htype").as_string()));
  DL_ASSIGN_OR_RETURN(m.dtype, DTypeFromName(j.Get("dtype").as_string()));
  DL_ASSIGN_OR_RETURN(
      m.sample_compression,
      compress::CompressionFromName(j.Get("sample_compression").as_string()));
  DL_ASSIGN_OR_RETURN(
      m.chunk_compression,
      compress::CompressionFromName(j.Get("chunk_compression").as_string()));
  m.max_chunk_bytes =
      static_cast<uint64_t>(j.Get("max_chunk_bytes").as_int(8ll << 20));
  m.hidden = j.Get("hidden").as_bool(false);
  m.quality = static_cast<int>(j.Get("quality").as_int(0));
  return m;
}

Result<TensorMeta> TensorMeta::FromOptions(const std::string& name,
                                           const TensorOptions& options) {
  TensorMeta m;
  m.name = name;
  DL_ASSIGN_OR_RETURN(m.htype, ParseHtype(options.htype));
  if (options.dtype.empty()) {
    m.dtype = m.htype.default_dtype();
  } else {
    DL_ASSIGN_OR_RETURN(m.dtype, DTypeFromName(options.dtype));
  }
  if (options.sample_compression == "default") {
    m.sample_compression = m.htype.default_sample_compression();
  } else {
    DL_ASSIGN_OR_RETURN(m.sample_compression, compress::CompressionFromName(
                                                  options.sample_compression));
  }
  if (options.chunk_compression == "default") {
    m.chunk_compression = m.htype.default_chunk_compression();
  } else {
    DL_ASSIGN_OR_RETURN(m.chunk_compression, compress::CompressionFromName(
                                                 options.chunk_compression));
  }
  if (m.sample_compression != compress::Compression::kNone &&
      m.chunk_compression != compress::Compression::kNone) {
    return Status::InvalidArgument(
        "tensor '" + name +
        "': sample and chunk compression are mutually exclusive");
  }
  if (options.max_chunk_bytes < 1024) {
    return Status::InvalidArgument("max_chunk_bytes must be >= 1KB");
  }
  m.max_chunk_bytes = options.max_chunk_bytes;
  m.hidden = options.hidden;
  m.quality = options.quality;
  return m;
}

Status TensorMeta::ValidateSample(const Sample& sample) const {
  DL_RETURN_IF_ERROR(sample.Validate());
  if (sample.shape.IsEmptySample()) return Status::OK();  // sparse padding
  if (sample.dtype != dtype) {
    return Status::InvalidArgument(
        "tensor '" + name + "' expects dtype " + std::string(DTypeName(dtype)) +
        ", got " + std::string(DTypeName(sample.dtype)));
  }
  Htype::Expectations e = htype.expectations();
  if (e.ndim >= 0) {
    int nd = static_cast<int>(sample.shape.ndim());
    if (nd != e.ndim && nd != e.alt_ndim) {
      return Status::InvalidArgument(
          "tensor '" + name + "' (htype " + htype.ToString() + ") expects " +
          std::to_string(e.ndim) + "-d samples, got shape " +
          sample.shape.ToString());
    }
  }
  return Status::OK();
}

}  // namespace dl::tsf
