#ifndef DEEPLAKE_BASELINES_TAR_H_
#define DEEPLAKE_BASELINES_TAR_H_

#include <string>
#include <vector>

#include "util/bytes.h"
#include "util/result.h"

namespace dl::baselines {

/// Minimal POSIX ustar writer/reader — the substrate of the WebDataset
/// baseline (real 512-byte-block tar archives, readable by `tar tf`).
class TarBuilder {
 public:
  /// Appends a regular file entry. InvalidArgument, appending nothing,
  /// when the size does not fit the header's 11 octal digits (8 GiB).
  Status AddFile(const std::string& name, ByteView contents);

  /// Returns the archive (with the two terminating zero blocks) and
  /// resets the builder.
  ByteBuffer Finish();

  uint64_t size_bytes() const { return buffer_.size(); }
  bool empty() const { return buffer_.empty(); }

 private:
  ByteBuffer buffer_;
};

struct TarEntry {
  std::string name;
  ByteBuffer contents;
};

/// Parses a complete tar archive into its file entries.
Result<std::vector<TarEntry>> ParseTar(ByteView archive);

}  // namespace dl::baselines

#endif  // DEEPLAKE_BASELINES_TAR_H_
