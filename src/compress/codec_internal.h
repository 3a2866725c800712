// Pieces the codec translation units share; not part of the public API.

#ifndef DEEPLAKE_COMPRESS_CODEC_INTERNAL_H_
#define DEEPLAKE_COMPRESS_CODEC_INTERNAL_H_

#include <cstdint>
#include <span>
#include <string_view>

#include "util/bytes.h"
#include "util/result.h"

namespace dl::compress {

/// Corruption naming both sizes when a frame declares a raw size other than
/// the caller's `expected` (Codec::kUnknownSize accepts any).
Status CheckDeclaredSize(std::string_view codec, uint64_t declared,
                         uint64_t expected);

/// The PNG Paeth predictor: of left, up and upleft, the one closest to
/// left + up - upleft, ties going to left, then up. Written as stb_image
/// does, branch-free, with one threshold against the min and max of left
/// and up; compress_test checks it against the textbook form on
/// all 2^24 inputs.
inline uint8_t PaethPredict(uint8_t left, uint8_t up, uint8_t upleft) {
  const int a = left, b = up, c = upleft;
  const int thresh = 3 * c - (a + b);
  const int lo = a < b ? a : b;
  const int hi = a < b ? b : a;
  const int t0 = hi <= thresh ? lo : c;
  return static_cast<uint8_t>(thresh <= lo ? hi : t0);
}

/// Appends the LZ77 frame of `raw` to `out`. The image codec writes its
/// entropy stage straight into its own frame this way.
void Lz77CompressAppend(ByteView raw, ByteBuffer& out);

/// The raw size an LZ77 frame declares, bounded by the 255x expansion
/// limit; `*header_len` receives the bytes of its header.
Result<uint64_t> Lz77DeclaredSize(ByteView frame, size_t* header_len);

/// Decodes the LZ77 frame `frame` into exactly `out.size()` bytes. See
/// Codec::DecompressExact.
Status Lz77DecompressExact(ByteView frame, std::span<uint8_t> out);

}  // namespace dl::compress

#endif  // DEEPLAKE_COMPRESS_CODEC_INTERNAL_H_
